"""In-memory span tracing around tfqkd's public functions.

A Tracer wraps the functions listed in SPANNED for the duration of a
traced pass and records one span per call: name, start, end and the span
that was open when the call began; it counts the calls of those in
COUNTED.  Nothing is patched unless a Tracer is
installed, so untraced runs execute the library untouched.

Every loaded ``tfqkd`` module that holds a reference to a listed function (the
package namespace, and modules that imported the name with ``from .x
import f``) gets the wrapper, so calls are seen whichever route they take.
The PSD itself is traced by wrapping ``func`` and ``averaged_func`` of each
Spectrum that ``interference_spectrum`` returns: ``phase_variance`` calls
those directly and never goes through ``Spectrum.__call__``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from time import perf_counter_ns

import numpy as np

# Names are "<module>.<function>" with the module taken from tfqkd.
# Each call of a SPANNED function records a span; the cheap leaf functions
# in COUNTED only count their calls, and their time stays in the caller's
# self time, which keeps a traced sweep pass near 30k spans.
SPANNED = (
    "spectra.interference_spectrum",
    "coherence.phase_variance",
    "coherence.solve_tau_q",
    "coherence.sigma_map",
    "scenarios.solve_scenario",
    "scenarios.run_sweep",
    "scenarios.format_csv",
    "cal.cal_rate",
    "cal.cal_phase_error",
    "cal.fock_pair_yield",
    "sns.sns_window_stats",
    "sns.effective_click_probability",
    "decoy.decoy_bounds",
    "decoy.bb84_rate",
    "config.load_config",
    "oracle.mc_click_stats",
)
COUNTED = (
    "cal.make_cal_channel",
    "cal.cal_gain",
    "cal.cal_bit_error",
    "sns.aopp_transform",
    "sns.sns_rate",
    "sns.sns_aopp_rate",
    "decoy.gain",
    "decoy.error_gain",
    "decoy.qber",
    "link.plob_bound",
    "link.arm_transmittance",
    "link.balanced_link",
    "link.link_from_attenuation",
    "link.effective_transmittance",
)
PSD_SPAN = "spectra.psd"
COUNTERS = ("spectra.psd_points", "oracle.samples") + tuple(f"{n}.calls" for n in COUNTED)


def layer_metric_names() -> set:
    """Every per-layer metric name a traced pass can produce."""
    names = set(COUNTERS)
    for span in SPANNED + (PSD_SPAN,):
        names.update((f"{span}.calls", f"{span}.s"))
    return names


class Tracer:
    """Records spans as [name, start ns, end ns, parent index] lists."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, name, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if count is not None:
                count(args, kwargs)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return traced

    def _counted(self, fn, name):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_psd(self, args, kwargs):
        self.counts["spectra.psd_points"] += int(np.size(args[0]))

    def _count_samples(self, args, kwargs):
        oracle = sys.modules["tfqkd.oracle"]
        cfg = args[4] if len(args) > 4 else kwargs.get("cfg", oracle.McConfig())
        self.counts["oracle.samples"] += cfg.samples

    def _traced_spectrum(self, fn):
        wrap_psd = functools.partial(self._wrap, name=PSD_SPAN, count=self._count_psd)

        def interference_spectrum(*args, **kwargs):
            spec = fn(*args, **kwargs)
            avg = spec.averaged_func
            return dataclasses.replace(
                spec, func=wrap_psd(spec.func),
                averaged_func=None if avg is None else wrap_psd(avg))

        return self._wrap(functools.wraps(fn)(interference_spectrum),
                          "spectra.interference_spectrum")

    def install(self) -> None:
        """Replace every reference to a target in the loaded tfqkd modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "tfqkd" or k.startswith("tfqkd.")]
        for target in SPANNED + COUNTED:
            mod_name, fn_name = target.split(".")
            orig = getattr(sys.modules[f"tfqkd.{mod_name}"], fn_name)
            if target in COUNTED:
                wrapped = self._counted(orig, target)
            elif target == "spectra.interference_spectrum":
                wrapped = self._traced_spectrum(orig)
            elif target == "oracle.mc_click_stats":
                wrapped = self._wrap(orig, target, self._count_samples)
            else:
                wrapped = self._wrap(orig, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def layer_totals(self) -> dict:
        """Calls and self time per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; calls nest on one thread, so children never overlap.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start - child[i]) * 1e-9
        return out

    def write(self, path) -> None:
        """CSV of all spans; times in ns of the perf_counter clock, parent -1
        for a span opened outside any other."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            fh.writelines(f"{i},{parent},{name},{start},{end}\n"
                          for i, (name, start, end, parent) in enumerate(self.spans))


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in seconds per module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        out[module.strip()] = int(cumulative) * 1e-6
    return out
