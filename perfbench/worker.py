"""One workload process: set up, run passes until the time is up, report.

Started by run.py, from the checkout root, with ``src`` on PYTHONPATH.
Prints one JSON object on its last stdout line.  ``--setup-only`` stops
once the workload is ready, so run.py can sample set-up time in several
fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
from tracing import Tracer
from workloads import WORKLOADS, Tally


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.corrupt)
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        ref = statistics.mean(reference.read() for _ in range(3))
        print(json.dumps({"setup_s": setup_s,
                          "scaled_setup_s": setup_s * reference.NOMINAL_S / ref}))
        return 0
    wl.prepare()

    tally, tracer, passes = Tally(), Tracer(), []
    # A traced run alternates untraced and traced passes, so the two
    # medians it compares see the same machine conditions.
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        before = vars(tally).copy()
        if traced:
            tracer.install()
        try:
            wl.run_pass(tally)
        finally:
            tracer.uninstall()
        passes.append({k: getattr(tally, k) - before[k]
                       for k in ("items", "wall", "cpu", "scaled_wall", "scaled_cpu")})
        passes[-1]["traced"] = traced

    layers = {}
    n_traced = sum(p["traced"] for p in passes)
    if n_traced:
        layers = {k: v / n_traced for k, v in tracer.layer_totals().items()}
        layers.update(wl.layer_metrics())
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans_out)

    print(json.dumps({
        "setup_s": setup_s, "passes": passes, "attempted": tally.attempted,
        "failed": tally.failed, "peak_rss_mb": peak_rss_mb(), "item": wl.item,
        "reference_s": tally.refs,
        "layers": layers, "diagnostics": tally.diagnostics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
