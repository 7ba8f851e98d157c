"""The four benchmark workloads.

Each workload draws its inputs from the seed in ``__init__`` (numpy only,
no library calls), makes the library ready in ``setup`` (timed as set-up),
reads its reference files in ``prepare`` (untimed), and runs one fixed
pass of work in ``run_pass``.  Every operation of a pass is checked; an
exception or a failed check counts the operation as failed.  ``tiny``
shrinks each workload for the self-test, and ``corrupt`` tampers with
one output per pass so that the self-test can see a check fire.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference

ROOT = Path.cwd()
GOLDEN = ROOT / "demos" / "out"


class CheckFailed(Exception):
    """An output of the library did not pass the benchmark's check."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Tally:
    """Operations attempted and failed, work items, time, and diagnostics.

    Each operation is timed on its own and its wall and CPU times are also
    added scaled by the host-speed reference read around it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.wall = self.cpu = self.scaled_wall = self.scaled_cpu = 0.0
        self.refs: list = [reference.read()]
        self.diagnostics: dict = {}

    def op(self, name: str, fn, *args) -> None:
        self.attempted += 1
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failed += 1
            print(f"check failed: {name}: {exc}", file=sys.stderr)
        except Exception:  # a raising operation is a failed operation
            self.failed += 1
            print(f"operation raised: {name}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.refs.append(reference.read())
        scale = reference.NOMINAL_S / (0.5 * (self.refs[-2] + self.refs[-1]))
        self.wall += wall
        self.cpu += cpu
        self.scaled_wall += wall * scale
        self.scaled_cpu += cpu * scale

    def note_max(self, key: str, value: float) -> None:
        """Keep the largest value seen of a diagnostic."""
        self.diagnostics[key] = max(value, self.diagnostics.get(key, value))


class Workload:
    name = ""
    item = ""

    def __init__(self, seed: int, tiny: bool, corrupt: bool):
        self.rng = np.random.Generator(np.random.Philox(seed % 2**64))
        self.corrupt = corrupt

    def setup(self) -> None:
        import tfqkd
        self.tfqkd = tfqkd
        self.presets = {p.id: p for p in tfqkd.builtin_scenarios()}

    def prepare(self) -> None:
        pass

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def layer_metrics(self) -> dict:
        """Per-layer metrics the workload measures itself, beyond the spans."""
        return {}


class CoherenceBudget(Workload):
    """Scenario solves and sigma maps: spectra and coherence only."""

    name = "coherence-budget"
    item = "map cell"
    # Criterion-2 references: tau_q within 25 %; clipped scenarios also
    # need |sigma - ref| <= 0.02 rad at the clip.
    THRESHOLDS = {1: (700e-6, None), 2: (0.1, 0.06), 3: (50e-6, None),
                  4: (700e-6, None), 5: (0.1, 0.08), 6: (1.1e-3, None),
                  7: (0.1, 0.07)}
    # Largest relative deviation of the demo map from demos/out/sigma_map.csv:
    # phase_variance converges the variance to 1e-4, so two admissible
    # integrators can differ by ~2e-4 in variance, 1e-4 in sigma.
    SIGMA_RTOL = 1e-4
    # sigma(tau) must not decrease with tau by more than the same share.
    MONOTONE_RTOL = 1e-4

    def __init__(self, seed, tiny, corrupt):
        super().__init__(seed, tiny, corrupt)
        n = 3 if tiny else 25

        def jitter():  # endpoint factor in [1, 1.047)
            return float(10.0 ** self.rng.uniform(0.0, 0.02))

        # sigma-map CLI default ranges: 1 m to 10 km, 1 us to 1 s
        self.maps = [(sid, np.geomspace(0.001 * jitter(), 10.0 * jitter(), n),
                      np.geomspace(1e-6 * jitter(), 1.0 * jitter(), n))
                     for sid in ((1,) if tiny else (1, 4))]
        self.solve_ids = (2, 7) if tiny else tuple(range(1, 8))
        # the demo map of demos/coherence_budget.py, fixed so it can be
        # compared with the committed output
        self.demo_dl = np.geomspace(0.005, 10.0, 12)[:2 if tiny else 12]
        self.demo_taus = np.geomspace(1e-6, 0.1, 16)

    def prepare(self):
        golden = np.loadtxt(GOLDEN / "sigma_map.csv", delimiter=",", skiprows=1)
        self.golden = golden.reshape(12, 16, 3)[:self.demo_dl.size]

    def run_pass(self, tally):
        # Maps go one mismatch column per sigma_map call, which is the
        # same computation as one call for the whole grid (columns are
        # independent), so the host-speed reference is read every few
        # tenths of a second instead of around a 7 s call.
        for sid in self.solve_ids:
            tally.op(f"solve scenario {sid}", self._solve, sid)
        for j, dl in enumerate(self.demo_dl):
            tally.op(f"demo sigma map column {j}", self._demo_column, tally, j, dl)
        for sid, dls, taus in self.maps:
            for dl in dls:
                tally.op(f"sigma map scenario {sid} dl {dl:.4g}", self._column,
                         tally, sid, dl, taus)

    def _solve(self, sid):
        res = self.tfqkd.solve_scenario(self.presets[sid])
        tau_ref, sigma_ref = self.THRESHOLDS[sid]
        check(abs(res.tau_q - tau_ref) <= 0.25 * tau_ref,
              f"tau_q {res.tau_q:.4g} vs {tau_ref:.4g}")
        if sigma_ref is not None:
            check(res.clipped, "expected a clipped window")
            check(abs(res.sigma_phi - sigma_ref) <= 0.02,
                  f"sigma {res.sigma_phi:.4g} vs {sigma_ref:.4g}")

    def _demo_column(self, tally, j, dl):
        m = self.tfqkd.sigma_map(self.presets[1].topology, [dl], self.demo_taus)
        tally.items += m.sigma_phi.size
        sigma = m.sigma_phi[:, 0].copy()
        if self.corrupt and j == 0:
            sigma[0] *= 1.0 + 10 * self.SIGMA_RTOL
        g = self.golden[j]  # rows of the golden CSV for this mismatch
        check(np.allclose(g[:, 0], dl, rtol=1e-12, atol=0)
              and np.allclose(g[:, 1], m.tau_q_s, rtol=1e-12, atol=0),
              "grid differs from the golden map")
        dev = float(np.max(np.abs(sigma - g[:, 2]) / g[:, 2]))
        tally.note_max("sigma_map_max_rel_dev", dev)
        check(dev <= self.SIGMA_RTOL, f"max relative deviation {dev:.3g}")

    def _column(self, tally, sid, dl, taus):
        m = self.tfqkd.sigma_map(self.presets[sid].topology, [dl], taus)
        tally.items += m.sigma_phi.size
        s = m.sigma_phi[:, 0]
        check(s.shape == taus.shape, f"shape {m.sigma_phi.shape}")
        check(bool(np.all(np.isfinite(s)) and np.all(s > 0)), "non-finite or non-positive sigma")
        check(bool(np.all(s[1:] >= s[:-1] * (1.0 - self.MONOTONE_RTOL))),
              "sigma decreases with the window")


class KeyrateSweep(Workload):
    """Key-rate sweeps of all six protocols: link, decoy, sns, cal, scenarios."""

    name = "keyrate-sweep"
    item = "sweep point"
    GOLDEN_SWEEPS = {(2, "snspd"), (2, "spad"), (3, "snspd")}

    def __init__(self, seed, tiny, corrupt):
        super().__init__(seed, tiny, corrupt)
        points = 5 if tiny else 101
        # (scenario, SweepSpec keywords, golden file or None); the golden
        # sweeps are those of demos/keyrate_sweeps.py, the others start at
        # a seeded offset
        self.sweeps = []
        for sid in range(1, 8):
            for det in ("snspd", "spad"):
                if (sid, det) in self.GOLDEN_SWEEPS:
                    self.sweeps.append((sid, dict(start=0.0, stop=100.0, step=1.0, detector=det),
                                        f"keyrates_scenario{sid}_{det}.csv"))
                else:
                    start = float(self.rng.uniform(0.0, 1.0))
                    self.sweeps.append((sid, dict(start=start, stop=start + (points - 1.0),
                                                  step=1.0, detector=det), None))
        start = float(self.rng.uniform(0.0, 5.0))
        self.sweeps.append((3, dict(x_axis="total_length_km", start=start,
                                    stop=start + 5.0 * (points - 1), step=5.0,
                                    detector="snspd"), None))
        if tiny:  # one seeded, one golden and the length sweep
            self.sweeps = [self.sweeps[i] for i in (0, 2, -1)]

    def setup(self):
        super().setup()
        # first-call lazy work: the Fock-space beamsplitter of the cal kernel
        self.tfqkd.run_sweep(1, self.tfqkd.SweepSpec(start=50.0, stop=50.0))

    def prepare(self):
        self.golden = {f: (GOLDEN / f).read_bytes()
                       for _, _, f in self.sweeps if f is not None}

    def run_pass(self, tally):
        for sid, kw, golden in self.sweeps:
            tally.op(f"sweep scenario {sid} {kw}", self._sweep, tally, sid, kw, golden)

    def _sweep(self, tally, sid, kw, golden):
        spec = self.tfqkd.SweepSpec(**kw)
        rows = self.tfqkd.run_sweep(sid, spec)
        text = self.tfqkd.format_csv(rows)
        tally.items += len(rows)
        expected = int(round((kw["stop"] - kw["start"]) / kw["step"])) + 1
        check(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
        check(max(r.x for r in rows) <= kw["stop"], "grid runs past stop")
        check(all(v >= 0 for r in rows for v in r.rates.values()),
              "negative or NaN rate")
        check(text.count("\n") == len(rows) + 1, "CSV line count")
        if golden is not None:
            if self.corrupt:
                text = text.replace("e", "E", 1)
            check(text.encode() == self.golden[golden], f"differs from {golden}")


class CliCommands(Workload):
    """Sequential ``python -m tfqkd.cli`` processes: import, config and CLI."""

    name = "cli-commands"
    item = "command"

    def __init__(self, seed, tiny, corrupt):
        super().__init__(seed, tiny, corrupt)
        self.attenuation = f"{self.rng.uniform(5.0, 70.0):.6f}"
        oracle_seed = str(int(self.rng.integers(0, 2**31)))
        cli = ["-m", "tfqkd.cli"]
        commands = {
            "import": ["-c", "import tfqkd"],
            "scenario": cli + ["scenario", "2"],
            "scenario-config": cli + ["scenario", "configs/scenario1.yaml"],
            "keyrate": cli + ["keyrate", "--scenario", "2",
                              "--attenuation-db", self.attenuation],
            "tau-solve": cli + ["tau-solve", "--scenario", "3"],
            "psd": cli + ["psd", "--scenario", "1"],
            "oracle": cli + ["oracle", "--samples", "100000", "--points", "2",
                             "--seed", oracle_seed],
        }
        keep = ("import", "keyrate", "psd") if tiny else tuple(commands)
        self.commands = {k: commands[k] for k in keep}
        self.first_output: dict = {}
        self.seconds: dict = {k: [] for k in self.commands}

    def setup(self):
        super().setup()
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def layer_metrics(self):
        return {f"cli.{name}.s": float(np.median(t)) for name, t in self.seconds.items() if t}

    def run_pass(self, tally):
        for name, argv in self.commands.items():
            tally.op(f"cli {name}", self._command, tally, name, argv)

    def _command(self, tally, name, argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        self.seconds[name].append(time.perf_counter() - t0)
        tally.items += 1
        check(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-300:]}")
        out = proc.stdout
        if name != "import":
            check(out.count("\n") >= 2, "no CSV rows")
        first = self.first_output.setdefault(name, out)
        check(out == first, "output differs from the first repeat")
        tf = self.tfqkd
        if name == "keyrate":
            att = float(self.attenuation)
            ref = tf.format_csv(tf.run_sweep(2, tf.SweepSpec(start=att, stop=att, step=1.0)))
            if self.corrupt:
                ref += " "
            check(out == ref, "differs from the in-process sweep")
        elif name == "scenario-config":
            cfg = tf.load_config(ROOT / "configs" / "scenario1.yaml")
            rows = tf.run_sweep(cfg.resolve_operating_point(), cfg.sweep,
                                prot=cfg.protocol, detector=cfg.detector)
            check(out == tf.format_csv(rows), "differs from the in-process sweep")


class McOracle(Workload):
    """Monte-Carlo click sampling pairs shaped like acceptance criterion 3."""

    name = "mc-oracle"
    item = "sample"
    # Largest |z| of a sampled frequency against its analytic value, in
    # standard errors under the analytic null; 5 keeps a false alarm below
    # 1e-6 per comparison over any number of seeds a run sequence draws.
    Z_BOUND = 5.0

    def __init__(self, seed, tiny, corrupt):
        super().__init__(seed, tiny, corrupt)
        self.samples = 100_000 if tiny else 10_000_000
        rng = self.rng
        self.pairs = []
        for k in range(1 if tiny else 3):
            p = {"arm_t": float(10.0 ** rng.uniform(-2.0, -0.5)),
                 "p_d": float(10.0 ** rng.uniform(-8.0, -5.5)),
                 "mu_a": float(rng.uniform(0.1, 0.4))}
            # signal/signal and signal/near-vacuum send patterns alternate
            p["mu_b"] = p["mu_a"] if k % 2 == 0 else float(10.0 ** rng.uniform(-5.0, -4.0))
            p["mu_cal"] = float(rng.uniform(0.01, 0.05))
            p["delta"] = float(rng.uniform(0.0, 0.6))
            p["seeds"] = [int(s) for s in rng.integers(0, 2**32, size=2)]
            self.pairs.append(p)
        self.first_counts: dict = {}

    def run_pass(self, tally):
        for k, p in enumerate(self.pairs):
            tally.op(f"mc pair {k} uniform", self._uniform, tally, k, p)
            tally.op(f"mc pair {k} fixed", self._fixed, tally, k, p)

    def _repeat(self, key, s):
        counts = (s.none, s.c_only, s.d_only, s.both)
        first = self.first_counts.setdefault(key, counts)
        check(counts == first, "counts differ from the first run of this seed")

    def _z(self, tally, ana, mc, se):
        z = (mc - ana) / se
        tally.note_max("mc_max_abs_z", abs(z))
        check(abs(z) <= self.Z_BOUND, f"z = {z:.2f}")

    def _uniform(self, tally, k, p):
        tf, n = self.tfqkd, self.samples
        s = tf.mc_click_stats(p["mu_a"], p["mu_b"], p["arm_t"], p["p_d"],
                              tf.McConfig(samples=n, seed=p["seeds"][0]))
        tally.items += n
        self._repeat((k, "uniform"), s)
        ana = tf.effective_click_probability(p["mu_a"], p["mu_b"], p["arm_t"], p["p_d"])
        mc = s.c_only + s.d_only
        se = math.sqrt(ana * (1.0 - ana) / n)
        if self.corrupt:
            mc += 2 * self.Z_BOUND * se
        self._z(tally, ana, mc, se)

    def _fixed(self, tally, k, p):
        # At a fixed phase delta the two single-click outcomes of equal
        # pulses have probabilities summing to twice cal_gain for the
        # channel gamma = arm_t * mu, omega = cos(delta).
        tf, n = self.tfqkd, self.samples // 2
        cfg = tf.McConfig(samples=n, seed=p["seeds"][1], phase=tf.FixedDelta(p["delta"]))
        s = tf.mc_click_stats(p["mu_cal"], p["mu_cal"], p["arm_t"], p["p_d"], cfg)
        tally.items += n
        self._repeat((k, "fixed"), s)
        ch = tf.CalChannel(gamma=p["arm_t"] * p["mu_cal"], sigma_phi=p["delta"])
        ana = tf.cal_gain(ch, p["p_d"])
        se = 0.5 * math.sqrt(2.0 * ana * (1.0 - 2.0 * ana) / n)
        self._z(tally, ana, 0.5 * (s.c_only + s.d_only), se)


WORKLOADS = {w.name: w for w in (CoherenceBudget, KeyrateSweep, CliCommands, McOracle)}
