"""tfqkd benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in its own process
(worker.py) for S seconds of passes, at least two; each call waits for the
previous one.  With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics from a run whose passes alternate untraced and traced.  Set-up
time is the median over several fresh processes.  Machine information,
diagnostics and the import breakdown go to perfbench/out/.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import parse_importtime

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 3
IMPORT_PROBES = 3
IMPORT_MODULES = ("tfqkd", "tfqkd.cal", "scipy.linalg", "tfqkd.config", "jsonschema")
# The workloads' numpy work is element-wise; BLAS only runs in the one-off
# beamsplitter expm.  One BLAS thread keeps set-up steady on a shared box;
# process-level parallelism in the library is not limited by it.
BLAS_THREADS = 1
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    print(f"run.py: {msg}", file=sys.stderr)
    return 1


def worker_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list, env: dict, started: float) -> dict:
    """Run a Python child to completion and parse its last stdout line.

    The child gets its own session, so a timeout kills it together with
    any CLI process it started.
    """
    timeout = max(DEADLINE_S - (time.monotonic() - started), 1.0)
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def import_times(env: dict, started: float) -> tuple:
    """Median cumulative import time per module over fresh interpreters."""
    runs = []
    for _ in range(IMPORT_PROBES):
        timeout = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tfqkd"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise RuntimeError("import tfqkd failed")
        runs.append(parse_importtime(proc.stderr))
    modules = set().union(*runs)
    med = {m: statistics.median(r.get(m, 0.0) for r in runs) for m in modules}
    metrics = {f"import.{m}.s": med.get(m, 0.0) for m in IMPORT_MODULES}
    top = dict(sorted(med.items(), key=lambda kv: -kv[1])[:40])
    return metrics, top


def machine_info() -> dict:
    src = ROOT / "src" / "tfqkd"
    loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "blas_threads": BLAS_THREADS,
        "platform": platform.platform(), "src_tfqkd_loc": loc,
    }


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    ap.add_argument("--corrupt", action="store_true",
                    help="tamper with one output per pass (self-test)")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file() or not (ROOT / "src" / "tfqkd").is_dir():
        return fail("run from the repository root (BENCHMARK.json and src/tfqkd needed)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    env = worker_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = [str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    worker += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt

    def spawn(extra: list) -> dict:
        return run_child(worker + extra + ["--spawned-at", repr(time.monotonic())],
                         env, started)

    try:
        probes = [] if args.trace else [spawn(["--setup-only"])["scaled_setup_s"]
                                        for _ in range(SETUP_PROBES)]
        res = spawn(["--spans-out", str(OUT / f"spans-{tag}.csv")] if args.trace else [])
        imports, import_top = import_times(env, started) if args.trace else ({}, {})
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        declared = spec["per_layer"]
        layers = dict(res["layers"], **imports)
        pass_traced = statistics.median(p["scaled_wall"] for p in traced)
        layers["trace.pass_s"] = pass_traced
        layers["trace.overhead_s"] = pass_traced - statistics.median(
            p["scaled_wall"] for p in plain)
        values = {m["name"]: layers.get(m["name"], 0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(probes),
            "pass_s": statistics.median(p["scaled_wall"] for p in plain),
            "cpu_s": statistics.median(p["scaled_cpu"] for p in plain),
            "peak_rss_mb": res["peak_rss_mb"],
            "items_per_s": (sum(p["items"] for p in plain)
                            / sum(p["scaled_wall"] for p in plain)),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = res["attempted"], res["failed"]

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_info(), "item": res["item"], "passes": passes,
            "setup_scaled_s": probes, "setup_raw_worker_s": res["setup_s"],
            "reference_s": res["reference_s"],
            "ops_failed_share": failed / max(attempted, 1),
            "diagnostics": res["diagnostics"], "metrics": metrics,
            "import_cumulative_s": import_top}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{tag}.json").write_text(json.dumps(info, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} ops, {failed} failed (ops_failed_share {info['ops_failed_share']:g}), "
          f"work item = {res['item']}")
    for k, v in info["diagnostics"].items():
        print(f"  diagnostic {k} = {v:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
