"""Named link scenarios, key-rate sweeps and CSV emission.

Seven built-in scenarios cover the combinations of laser distribution
scheme, laser and fiber stabilization and arm mismatch studied for a
114 km-arm link.  Each carries the solved coherence thresholds plus a
canonical operating point (transmission window, phase deviation,
phase-noise QBER) used by the sweeps, quantized to the displayed
precision so that scenarios with equivalent phase-noise budgets produce
identical key-rate curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import cal as cal_mod
from . import sns as sns_mod
from .coherence import CoherenceBudget, _csv_text, solve_tau_q
from .decoy import ChannelErrorModel, DecoySet, bb84_rate, decoy_bounds, gain, qber
from .errors import DomainError
from .link import (
    SNSPD,
    SPAD,
    DetectorParams,
    MisalignmentParams,
    arm_transmittance,
    effective_transmittance,
    link_from_attenuation,
    plob_bound,
)
from .spectra import FiberParams, LaserSpec, TopologyConfig, TopologyKind, interference_spectrum

__all__ = [
    "OperatingPoint",
    "ScenarioPreset",
    "ProtocolParams",
    "SweepSpec",
    "SweepRow",
    "DETECTORS",
    "PROTOCOL_NAMES",
    "builtin_scenarios",
    "builtin_scenario",
    "canonical_operating_point",
    "run_sweep",
    "format_csv",
    "emit_csv",
]

DETECTORS = {"snspd": SNSPD, "spad": SPAD}
PROTOCOL_NAMES = ("bb84", "sns", "sns_aopp", "cal", "plob", "plob_realistic")


@dataclass(frozen=True)
class OperatingPoint:
    """Coherence operating point of a scenario: window, deviation, QBER, overhead."""

    tau_q: float
    sigma_phi: float
    e_phi: float
    tau_ps: float = 1e-3

    def __post_init__(self):
        if self.tau_q <= 0 or self.tau_ps <= 0:
            raise DomainError("times must be > 0")
        if self.sigma_phi < 0 or not 0.0 <= self.e_phi <= 0.5:
            raise DomainError("sigma_phi >= 0 and e_phi in [0, 0.5] required")

    @property
    def duty(self) -> float:
        return self.tau_q / (self.tau_q + self.tau_ps)


def canonical_operating_point(tau_q: float, sigma: float,
                              tau_ps: float = 1e-3) -> OperatingPoint:
    """Operating point quantized to the precision the scenarios are quoted at.

    The phase-noise QBER uses the small-phase sigma^2/4 mapping rounded to
    1e-3 (the threshold sigma = 0.2 rad maps to exactly 0.01); the stored
    deviation is re-derived from the rounded QBER so that scenarios with
    the same QBER class share a bit-identical operating point.
    """
    e_phi = round(sigma * sigma / 4.0, 3)
    return OperatingPoint(tau_q=tau_q, sigma_phi=2.0 * math.sqrt(e_phi),
                          e_phi=e_phi, tau_ps=tau_ps)


@dataclass(frozen=True)
class ScenarioPreset:
    """A named topology plus its solved thresholds and sweep operating point."""

    id: int
    label: str
    topology: TopologyConfig
    expected_tau_q: float
    expected_sigma: float
    operating_point: OperatingPoint


def _topo(kind, laser_stab, fiber_stab, delta_l_km):
    return TopologyConfig(
        kind=kind, laser_stabilized=laser_stab, fiber_stabilized=fiber_stab,
        l_a=114.0, l_b=114.0 - delta_l_km)


def builtin_scenarios() -> tuple[ScenarioPreset, ...]:
    """The seven standard scenarios for 114 km arms.

    Nominally equal arms keep a 20 m mismatch so the common-laser
    self-delay term is not trivially zero.  Where the threshold sigma is
    never reached within the 100 ms clip, the expected sigma is the value
    accumulated at the clip.
    """
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
        ScenarioPreset(id=i, label=lab, topology=t, expected_tau_q=tau,
                       expected_sigma=sig,
                       operating_point=canonical_operating_point(tau, sig))
        for i, lab, t, tau, sig in rows)


def builtin_scenario(scenario_id: int) -> ScenarioPreset:
    """The built-in scenario with the given id (1-7)."""
    for preset in builtin_scenarios():
        if preset.id == scenario_id:
            return preset
    raise DomainError(f"unknown scenario id {scenario_id}; built-in ids are 1-7")


@dataclass(frozen=True)
class ProtocolParams:
    """Shared protocol parameter set for the sweep engine."""

    decoys: DecoySet = field(default_factory=DecoySet)
    sns: sns_mod.SnsParams = field(default_factory=sns_mod.SnsParams)
    cal: cal_mod.CalParams = field(default_factory=cal_mod.CalParams)
    misalignment: MisalignmentParams = field(default_factory=MisalignmentParams)
    f_ec: float = 1.15


@dataclass(frozen=True)
class SweepSpec:
    """Sweep axis, range, detector preset and protocol selection."""

    x_axis: str = "total_attenuation_db"
    start: float = 0.0
    stop: float = 80.0
    step: float = 1.0
    detector: str = "snspd"
    protocols: tuple = PROTOCOL_NAMES
    alpha: float = 0.2
    a_plus: float = 0.0

    def __post_init__(self):
        if self.x_axis not in ("total_attenuation_db", "total_length_km"):
            raise DomainError(f"unknown x_axis {self.x_axis!r}")
        if self.step <= 0 or self.stop < self.start or self.start < 0:
            raise DomainError("sweep range requires 0 <= start <= stop and step > 0")
        if not self.protocols:
            raise DomainError("protocol list must not be empty")
        for name in self.protocols:
            if name not in PROTOCOL_NAMES:
                raise DomainError(f"unknown protocol {name!r}")
        if self.detector not in DETECTORS:
            raise DomainError(f"unknown detector preset {self.detector!r}")
        if self.alpha < 0 or self.a_plus < 0:
            raise DomainError("attenuation terms must be >= 0")

    def grid(self) -> np.ndarray:
        """Points start + k*step up to stop; a 1e-9 step slack keeps whole-step
        ranges from losing their last point to rounding."""
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(n)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: key rates in bits/s plus scenario diagnostics."""

    x_name: str
    x: float
    rates: dict
    duty_cycle: float
    sigma_phi: float
    e_phi: float
    diagnostics: dict
    flags: tuple


def solve_scenario(preset: ScenarioPreset,
                   laser: LaserSpec = LaserSpec(),
                   fiber: FiberParams = FiberParams(),
                   budget: CoherenceBudget = CoherenceBudget()):
    """Live coherence solve for a preset topology (validation path)."""
    spectrum = interference_spectrum(preset.topology, laser, fiber)
    return solve_tau_q(spectrum, budget)


def _rates_at(att_db: float, det: DetectorParams, op: OperatingPoint,
              prot: ProtocolParams, protocols: Sequence[str]):
    eta = link_from_attenuation(att_db).eta
    eta_hat = effective_transmittance(eta, det)
    arm_t = arm_transmittance(eta, det)
    nu_s = det.clock_rate
    duty = op.duty
    rates: dict = {}
    diag: dict = {}
    flags: list = []

    if "plob" in protocols:
        rates["plob"] = math.inf if eta >= 1.0 else plob_bound(eta) * nu_s
    if "plob_realistic" in protocols:
        rates["plob_realistic"] = (math.inf if eta_hat >= 1.0
                                   else plob_bound(eta_hat) * nu_s)
    if "bb84" in protocols:
        # Self-referenced receiver: no twin-field stabilization overhead,
        # asymptotic duty cycle 1; the channel error model still carries
        # the scenario phase-noise QBER.
        m = ChannelErrorModel(eta_hat=eta_hat, p_dc=det.p_dc,
                              e_theta=prot.misalignment.e_theta, e_phi=op.e_phi)
        rates["bb84"] = bb84_rate(prot.decoys, m, f_ec=prot.f_ec, duty=1.0) * nu_s
        q_u = gain(prot.decoys.u, m)
        diag["bb84_gain_u"] = q_u
        diag["bb84_qber_u"] = qber(prot.decoys.u, m) if q_u > 0 else 0.0
        if rates["bb84"] == 0.0 and not decoy_bounds(prot.decoys, m).ok:
            flags.append("bb84_estimation_failed")
    if "sns" in protocols or "sns_aopp" in protocols:
        stats = sns_mod.sns_window_stats(
            prot.sns, arm_t, det, e_phi=op.e_phi,
            e_theta=prot.misalignment.e_theta)
        diag["sns_n_t"] = stats.n_t
        diag["sns_e_z"] = stats.e_z
        diag["sns_n1_low"] = stats.n1_low
        diag["sns_e1ph_up"] = stats.e1ph_up
        if not stats.decoy_ok:
            flags.append("sns_estimation_failed")
        if "sns" in protocols:
            rates["sns"] = sns_mod.sns_rate(stats, prot.sns) * duty * nu_s
        if "sns_aopp" in protocols:
            aopp = sns_mod.aopp_transform(stats, prot.sns)
            diag["sns_aopp_e_z"] = aopp.e_z_prime
            rates["sns_aopp"] = sns_mod.sns_aopp_rate(aopp, prot.sns) * duty * nu_s
    if "cal" in protocols:
        ch = cal_mod.make_cal_channel(arm_t, prot.cal, sigma_phi=op.sigma_phi,
                                      theta=prot.misalignment.theta)
        p_xx = cal_mod.cal_gain(ch, det.p_dc)
        diag["cal_gain"] = p_xx
        if p_xx > 0.0:
            diag["cal_e_x"] = cal_mod.cal_bit_error(ch, det.p_dc)
            diag["cal_e_z_bound"] = cal_mod.cal_phase_error(prot.cal, ch, det.p_dc)
        else:
            diag["cal_e_x"] = 0.0
            diag["cal_e_z_bound"] = 1.0
        rates["cal"] = cal_mod.cal_rate(prot.cal, ch, det.p_dc, duty=duty) * nu_s
    return rates, diag, tuple(flags)


def run_sweep(scenario, spec: Optional[SweepSpec] = None,
              prot: Optional[ProtocolParams] = None,
              detector: Optional[DetectorParams] = None) -> list:
    """Key-rate sweep for a scenario.

    The coherence operating point is fixed per scenario (solved for the
    nominal 114 km arms), not re-solved per sweep point.  Individual
    protocol estimation failures are recorded as zero rate with a flag
    and the sweep continues.
    """
    if isinstance(scenario, int):
        scenario = builtin_scenario(scenario)
    spec = spec or SweepSpec()
    prot = prot or ProtocolParams()
    det = detector or DETECTORS[spec.detector]
    op = scenario.operating_point if isinstance(scenario, ScenarioPreset) else scenario
    if not isinstance(op, OperatingPoint):
        raise DomainError("scenario must be a preset id, ScenarioPreset or OperatingPoint")

    rows = []
    for x in spec.grid():
        att = float(x) if spec.x_axis == "total_attenuation_db" \
            else spec.alpha * float(x) + spec.a_plus
        rates, diag, flags = _rates_at(att, det, op, prot, spec.protocols)
        rows.append(SweepRow(
            x_name=spec.x_axis, x=float(x), rates=rates, duty_cycle=op.duty,
            sigma_phi=op.sigma_phi, e_phi=op.e_phi, diagnostics=diag,
            flags=flags))
    return rows


def format_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with a fixed header.

    Columns: the x axis, one rate column per protocol in canonical order,
    duty cycle, sigma_phi, e_phi, the per-protocol diagnostics in sorted
    order, and a flags column.  Scientific notation with 12 digits;
    identical inputs produce byte-identical text.
    """
    if not rows:
        raise DomainError("no rows to emit")
    protocols = [p for p in PROTOCOL_NAMES if p in rows[0].rates]
    diag_keys = sorted(rows[0].diagnostics)
    header = ([rows[0].x_name]
              + [f"rate_{p}_bits_per_s" for p in protocols]
              + ["duty_cycle", "sigma_phi_rad", "e_phi"]
              + diag_keys + ["flags"])
    return _csv_text(header, (
        [float(v) for v in (row.x, *(row.rates[p] for p in protocols),
                            row.duty_cycle, row.sigma_phi, row.e_phi,
                            *(row.diagnostics[k] for k in diag_keys))]
        + [";".join(row.flags)]
        for row in rows))


def emit_csv(rows: Sequence[SweepRow], path) -> None:
    """Write sweep rows to a CSV file; see format_csv."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows))
