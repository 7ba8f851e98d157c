"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Every workload runs at a tiny size three
times: clean (must be correct, no failed operation), with one output per
pass tampered with (must report failed operations), and traced (must
report exactly the per-layer metrics of BENCHMARK.json).  A copy of the
benchmark without the library must exit non-zero and print no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS, CliCommands

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", *extra], cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    known = (tracing.layer_metric_names()
             | {f"cli.{c}.s" for c in CliCommands(0, False, False).commands}
             | {f"import.{m}.s" for m in run.IMPORT_MODULES}
             | {"trace.pass_s", "trace.overhead_s"})
    problems = [f"per-layer metric {n} is never produced" for n in sorted(layer - known)]
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in WORKLOADS:
        clean = result(bench(name, "--trace", "0", "--tiny"))
        if not clean["correct"] or clean["failed"] or set(clean["metrics"]) != e2e:
            problems.append(f"{name}: clean run {clean}")
        bad = result(bench(name, "--trace", "0", "--tiny", "--corrupt"))
        if bad["correct"] or bad["failed"] < 1:
            problems.append(f"{name}: corrupted output not detected")
        traced = result(bench(name, "--trace", "1", "--tiny"))
        if not traced["correct"] or set(traced["metrics"]) != layer:
            problems.append(f"{name}: traced run reports {sorted(traced['metrics'])}")
        print(f"{name}: clean {clean['attempted']} ops, corrupted {bad['failed']}/"
              f"{bad['attempted']} failed, traced {len(traced['metrics'])} metrics")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = bench(next(iter(WORKLOADS)), "--trace", "0", cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a checkout without the library did not fail")
    shutil.rmtree(bare)

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
