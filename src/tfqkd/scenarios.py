"""Named link scenarios, key-rate sweeps and CSV emission.

Seven built-in scenarios cover the combinations of laser distribution
scheme, laser and fiber stabilization and arm mismatch studied for a
114 km-arm link.  Each carries a canonical operating point (transmission
window, phase deviation, phase-noise QBER) used by the sweeps: its solved
coherence thresholds quantized to the displayed precision, so that
scenarios with equivalent phase-noise budgets produce identical key-rate
curves.  A live solve (solve_scenario) returns the same OperatingPoint
type, and run_sweep takes either.

run_sweep returns a SweepTable: the grid, one array per rate and
diagnostic column, one boolean mask per failure flag, and the operating
point.  The sweep calls each protocol's public statistics and rate
functions once, over a stacked (intensity or channel) x grid array, each
entry equal to the float call at that point bit for bit.  format_csv
writes the table column by column through csvtext.csv_text; each
iteration of it builds one SweepRow(x, rates) per point from the
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np

from ._fields import Checked, _checker, part, spec
from .cal import CalParams, cal_rate, cal_stats, make_cal_channel
from .coherence import OperatingPoint, qber_small_angle, solve_tau_q
from .csvtext import csv_text
from .decoy import ChannelErrorModel, DecoyBounds, DecoySet, bb84_rate, decoy_bounds
from .errors import DomainError
from .link import (
    SNSPD,
    SPAD,
    DetectorParams,
    MisalignmentParams,
    arm_transmittance,
    balanced_link,
    effective_transmittance,
    link_from_attenuation,
    plob_bound,
)
from .sns import SnsParams, aopp_transform, sns_aopp_rate, sns_rate, sns_window_stats
from .spectra import TopologyConfig, TopologyKind, interference_spectrum

__all__ = [
    "ScenarioPreset",
    "ProtocolParams",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "DETECTORS",
    "PROTOCOL_NAMES",
    "builtin_scenarios",
    "builtin_scenario",
    "solve_scenario",
    "run_sweep",
    "format_csv",
]

DETECTORS = {"snspd": SNSPD, "spad": SPAD}
PROTOCOL_NAMES = ("bb84", "sns", "sns_aopp", "cal", "plob", "plob_realistic")
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class ScenarioPreset(Checked):
    """A named topology plus its sweep operating point."""

    id: int = field(metadata=spec(int, ge=1))
    label: str = field(metadata=spec(str))
    topology: TopologyConfig = field(metadata=spec(TopologyConfig))
    operating_point: OperatingPoint = field(metadata=spec(OperatingPoint))


def _canonical_operating_point(tau_q: float, sigma: float) -> OperatingPoint:
    """Operating point at the precision the scenarios are quoted at: the
    small-phase QBER sigma^2/4 rounded to 1e-3 (sigma = 0.2 rad gives exactly
    0.01) and sigma re-derived from it, so that scenarios of one QBER class
    share a bit-identical operating point."""
    e_phi = round(qber_small_angle(sigma * sigma), 3)
    return OperatingPoint(tau_q=tau_q, sigma_phi=2.0 * math.sqrt(e_phi), e_phi=e_phi)


def _topo(kind, laser_stab, fiber_stab, delta_l_km):
    return TopologyConfig(
        kind=kind, laser_stabilized=laser_stab, fiber_stabilized=fiber_stab,
        l_a=TopologyConfig.l_a, l_b=TopologyConfig.l_a - delta_l_km)


def _build_presets() -> tuple[ScenarioPreset, ...]:
    common, indep = TopologyKind.COMMON_LASER, TopologyKind.INDEPENDENT_LASERS
    rows = (
        (1, "common free-running laser, matched arms, free fibers",
         _topo(common, False, False, 0.02), 700e-6, 0.2),
        (2, "common free-running laser, matched arms, stabilized fibers",
         _topo(common, False, True, 0.02), 0.1, 0.06),
        (3, "common free-running laser, 2.5 km mismatch, free fibers",
         _topo(common, False, False, 2.5), 50e-6, 0.2),
        (4, "common cavity-stabilized laser, 2.5 km mismatch, free fibers",
         _topo(common, True, False, 2.5), 700e-6, 0.2),
        (5, "common cavity-stabilized laser, 2.5 km mismatch, stabilized fibers",
         _topo(common, True, True, 2.5), 0.1, 0.08),
        (6, "independent ultrastable lasers, free fibers",
         _topo(indep, True, False, 0.02), 1.1e-3, 0.2),
        (7, "independent ultrastable lasers, stabilized fibers",
         _topo(indep, True, True, 0.02), 0.1, 0.07),
    )
    return tuple(
        ScenarioPreset(id=i, label=lab, topology=t,
                       operating_point=_canonical_operating_point(tau, sig))
        for i, lab, t, tau, sig in rows)


_PRESETS = _build_presets()


def builtin_scenarios() -> tuple[ScenarioPreset, ...]:
    """The seven standard scenarios for 114 km arms, built once at import.

    Nominally equal arms keep a 20 m mismatch so the common-laser
    self-delay term is not trivially zero.  Where the threshold sigma is
    never reached within the 100 ms clip, the operating point's sigma is
    the value accumulated at the clip.
    """
    return _PRESETS


def builtin_scenario(scenario_id: int) -> ScenarioPreset:
    """The built-in scenario with integer id 1-7 (a NumPy int too, no bool)."""
    integer = isinstance(scenario_id, Integral) and not isinstance(scenario_id, bool)
    if integer and 1 <= scenario_id <= len(_PRESETS):
        return _PRESETS[scenario_id - 1]
    raise DomainError(f"unknown scenario id {scenario_id}; built-in ids are 1-7")


@dataclass(frozen=True)
class ProtocolParams(Checked):
    """Shared protocol parameter set for the sweep engine.

    The decoy set and the error-correction inefficiency f_ec are common to
    decoy BB84, SNS and CAL, so the three protocols compare on one footing.
    """

    decoys: DecoySet = part(DecoySet)
    sns: SnsParams = part(SnsParams)
    cal: CalParams = part(CalParams)
    misalignment: MisalignmentParams = part(MisalignmentParams)
    f_ec: float = field(default=1.15, metadata=spec(float, ge=1))


@dataclass(frozen=True)
class SweepSpec(Checked):
    """Sweep axis, range, detector preset and protocol selection."""

    x_axis: str = field(default="total_attenuation_db",
                        metadata=spec(str, values=("total_attenuation_db", "total_length_km")))
    start: float = field(default=0.0, metadata=spec(float, ge=0))
    stop: float = field(default=80.0, metadata=spec(float, ge=0))
    step: float = field(default=1.0, metadata=spec(float, gt=0))
    detector: str = field(default="snspd", metadata=spec(str, values=tuple(DETECTORS)))
    protocols: tuple = field(default=PROTOCOL_NAMES, metadata=spec(
        tuple, item=spec(str, values=PROTOCOL_NAMES), nonempty=True))
    alpha: float = field(default=0.2, metadata=spec(float, ge=0))
    a_plus: float = field(default=0.0, metadata=spec(float, ge=0))

    def __post_init__(self):
        super().__post_init__()
        if self.stop < self.start:
            raise DomainError("sweep range requires 0 <= start <= stop and step > 0")
        if self._size() > MAX_SWEEP_POINTS:
            raise DomainError(f"sweep grid exceeds {MAX_SWEEP_POINTS} points")

    def _size(self) -> int:
        """Point count, capped at MAX_SWEEP_POINTS + 1 so that any range
        counts; a 1e-9 step slack keeps whole-step ranges from losing their
        last point to rounding."""
        return math.floor(min((self.stop - self.start) / self.step + 1e-9,
                              MAX_SWEEP_POINTS)) + 1

    def grid(self) -> np.ndarray:
        """Points start + k*step up to stop, as floats also for int bounds."""
        return self.start + self.step * np.arange(self._size(), dtype=float)


@dataclass
class SweepRow:
    """One sweep point: its x and the key rate of each protocol in bits/s,
    as Python values copied out of the table's columns."""

    x: float
    rates: dict


# the field contract's checkers of the public functions' record arguments
_PRESET = _checker(spec(ScenarioPreset), "preset")
_SPEC, _PROT, _DETECTOR = (_checker(spec(cls, optional=True), name) for cls, name in (
    (SweepSpec, "spec"), (ProtocolParams, "prot"), (DetectorParams, "detector")))


def solve_scenario(preset: ScenarioPreset) -> OperatingPoint:
    """Live coherence solve for a preset topology with the default laser,
    fiber and budget: the solved operating point, which run_sweep takes
    in place of the preset's canonical one."""
    return solve_tau_q(interference_spectrum(_PRESET(preset).topology))


def _capacity(eta: np.ndarray) -> np.ndarray:
    """plob_bound of each transmittance in eta, infinite where eta = 1."""
    bound = np.full(eta.shape, np.inf)
    below = eta < 1.0
    bound[below] = plob_bound(eta[below])
    return bound


def _row(bounds: DecoyBounds, i: int) -> DecoyBounds:
    """Row i of decoy bounds stacked over channels."""
    return DecoyBounds(**{k: v[i] for k, v in vars(bounds).items()})


def _rates(eta: np.ndarray, det: DetectorParams, op: OperatingPoint,
           prot: ProtocolParams, protocols: tuple):
    """Rates, diagnostics and failure masks of the selected protocols at
    every total transmittance in eta, each one array over the grid, with
    each protocol ingredient evaluated once."""
    eta_hat = effective_transmittance(eta, det)
    arm_t = arm_transmittance(eta_hat)
    nu_s = det.clock_rate
    duty = op.duty_cycle
    e_theta = prot.misalignment.e_theta
    rates: dict = {}
    diag: dict = {}
    failed: dict = {}

    if "plob" in protocols:
        rates["plob"] = _capacity(eta) * nu_s
    if "plob_realistic" in protocols:
        rates["plob_realistic"] = _capacity(eta_hat) * nu_s
    # Rate functions give key per transmitted signal; the duty cycle is
    # applied here.  BB84's QBER (the bounds' E_u) and the CAL errors are
    # undefined without gain and read 0 (e_z 1) there.  BB84's and SNS's
    # channels share p_dc, e_theta and e_phi: one decoy_bounds call serves both.
    bb84, sns = "bb84" in protocols, "sns" in protocols or "sns_aopp" in protocols
    if bb84 or sns:
        m = ChannelErrorModel(eta_hat=np.array([eta_hat] * bb84 + [arm_t] * sns),
                              p_dc=det.p_dc, e_theta=e_theta, e_phi=op.e_phi)
        bounds = decoy_bounds(prot.decoys, m)
    if bb84:
        # Self-referenced receiver: no twin-field stabilization overhead,
        # asymptotic duty cycle 1; the channel error model still carries
        # the scenario phase-noise QBER.
        b = _row(bounds, 0)
        rates["bb84"] = bb84_rate(b, prot.f_ec) * nu_s
        diag["bb84_gain_u"] = b.q_u
        diag["bb84_qber_u"] = b.e_u
        failed["bb84_estimation_failed"] = ~b.ok
    if sns:
        stats = sns_window_stats(prot.sns, _row(bounds, -1), arm_t, det.p_dc)
        diag["sns_n_t"] = stats.n_t
        diag["sns_e_z"] = stats.e_z
        diag["sns_n1_low"] = stats.n1_low
        diag["sns_e1ph_up"] = stats.e1ph_up
        failed["sns_estimation_failed"] = ~stats.decoy_ok
        if "sns" in protocols:
            rates["sns"] = sns_rate(stats, prot.sns, prot.f_ec) * duty * nu_s
        if "sns_aopp" in protocols:
            aopp = aopp_transform(stats)
            rates["sns_aopp"] = sns_aopp_rate(aopp, prot.sns, prot.f_ec) * duty * nu_s
            diag["sns_aopp_e_z"] = aopp.e_z_prime
    if "cal" in protocols:
        ch = make_cal_channel(arm_t, prot.cal, sigma_phi=op.sigma_phi,
                              theta=prot.misalignment.theta)
        c = cal_stats(prot.cal, ch, det.p_dc)
        rates["cal"] = cal_rate(c, prot.f_ec) * duty * nu_s
        diag["cal_gain"] = c.gain
        diag["cal_e_x"] = c.e_x
        diag["cal_e_z_bound"] = c.e_z_bound
    return rates, diag, failed


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A key-rate sweep as columns, each one array over the grid.

    x holds the grid points of the x_name axis; rates maps each selected
    protocol, in PROTOCOL_NAMES order, to its key rate in bits/s;
    diagnostics maps each diagnostic, in sorted order, to its values;
    flags maps each failure flag to its boolean mask; operating_point is
    the scenario's coherence operating point, the same at every point.
    format_csv writes the columns as they are.  len gives the point
    count, and each iteration builds one SweepRow per point.
    """

    x_name: str
    x: np.ndarray
    rates: dict
    diagnostics: dict
    flags: dict
    operating_point: OperatingPoint

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        names = tuple(self.rates)
        x, *cols = np.vstack((self.x, *self.rates.values())).tolist()
        rates = [dict(zip(names, r)) for r in zip(*cols)] if cols else [{} for _ in x]
        return map(SweepRow, x, rates)


def run_sweep(scenario, spec: Optional[SweepSpec] = None,
              prot: Optional[ProtocolParams] = None,
              detector: Optional[DetectorParams] = None) -> SweepTable:
    """Key-rate sweep for a scenario, a preset id or an OperatingPoint,
    as a SweepTable of columns.

    Each protocol's public statistics and rate functions (decoy bounds
    with BB84's QBER and bb84_rate, sns_window_stats and the SNS keys,
    cal_stats and cal_rate) run once, the decoy bounds stacked over
    BB84's and SNS's channels and the intensities as _rates says.  The
    coherence operating point is fixed per scenario (solved for the
    nominal 114 km arms), not re-solved per sweep point.
    The length axis is the total length of a balanced link with equal
    arms (link.balanced_link).  Individual protocol estimation failures
    are recorded as zero rate with a flag and the sweep continues.
    """
    op = builtin_scenario(scenario).operating_point if isinstance(scenario, Integral) \
        else scenario
    if not isinstance(op, OperatingPoint):
        raise DomainError("scenario must be a preset id or an OperatingPoint")
    spec = _SPEC(spec) or SweepSpec()
    prot = _PROT(prot) or ProtocolParams()
    det = _DETECTOR(detector) or DETECTORS[spec.detector]

    x = spec.grid()
    eta = link_from_attenuation(x) if spec.x_axis == "total_attenuation_db" \
        else balanced_link(x / 2.0, spec.alpha, spec.a_plus)
    rates, diag, failed = _rates(eta, det, op, prot, spec.protocols)
    return SweepTable(x_name=spec.x_axis, x=x,
                      rates={p: rates[p] for p in PROTOCOL_NAMES if p in rates},
                      diagnostics=dict(sorted(diag.items())), flags=failed,
                      operating_point=op)


def format_csv(table: SweepTable) -> str:
    """Render a sweep table as CSV with a fixed header.

    Columns: the x axis, one rate column per protocol in canonical order,
    duty cycle, sigma_phi, e_phi, the per-protocol diagnostics in sorted
    order, and a flags column (the flags set at the point, joined by ';').
    Every number prints as %.12e through csvtext.csv_text, the same bytes
    as '%.12e' % v cell by cell; the three operating-point columns, equal
    at every point, go in as float columns like the rest.  A point's flags
    cell is indexed by its bit code (bit i set where flag i is) among the
    cells of every combination.  Identical inputs produce identical text.
    """
    if not isinstance(table, SweepTable):
        raise DomainError("format_csv takes the SweepTable that run_sweep returns")
    op, n, names = table.operating_point, len(table), list(table.flags)
    code = np.zeros(n, dtype=np.intp)
    for i, mask in enumerate(table.flags.values()):
        code |= np.asarray(mask, dtype=np.intp) << i
    cells = np.array([";".join(f for i, f in enumerate(names) if c >> i & 1)
                      for c in range(1 << len(names))], dtype=object)
    header = ([table.x_name] + [f"rate_{p}_bits_per_s" for p in table.rates]
              + ["duty_cycle", "sigma_phi_rad", "e_phi"] + list(table.diagnostics) + ["flags"])
    return csv_text(header, (
        table.x, *table.rates.values(),
        *(np.full(n, v) for v in (op.duty_cycle, op.sigma_phi, op.e_phi)),
        *table.diagnostics.values(), cells[code]))
