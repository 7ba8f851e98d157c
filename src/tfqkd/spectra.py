"""Phase-noise power spectral density models for twin-field QKD links.

All spectra are one-sided phase-noise PSDs in rad^2/Hz as functions of
Fourier frequency f > 0 in Hz.  Lengths are given in km at the interface
and converted to SI internally.  The module provides the individual noise
models (free-running and cavity-stabilized lasers, free and
dual-band-stabilized fibers, servo loop gain) and the composition rules
that turn a link topology into the interference PSD seen at the central
measurement node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .errors import DomainError

__all__ = [
    "LaserFreeParams",
    "CavityParams",
    "LoopParams",
    "FiberParams",
    "LaserSpec",
    "TopologyKind",
    "TopologyConfig",
    "Spectrum",
    "psd_laser_free",
    "psd_cavity",
    "loop_gain",
    "psd_laser_stabilized",
    "psd_fiber",
    "psd_detection_floor",
    "psd_interference",
    "interference_spectrum",
]


def _as_positive_freq(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0.0) or np.any(~np.isfinite(f)):
        raise DomainError("Fourier frequency must be positive and finite")
    return f


@dataclass(frozen=True)
class LaserFreeParams:
    """Free-running diode-laser noise: r3/f^3 + (r2/f^2) (f_c/(f+f_c))^2.

    r3 is in rad^2 Hz^2, r2 in rad^2 Hz; f_c (Hz) is the roll-off set by
    the laser modulation bandwidth.
    """

    r3: float = 3e6
    r2: float = 3e2
    f_c: float = 2e6

    def __post_init__(self):
        if self.r3 < 0 or self.r2 < 0:
            raise DomainError("laser noise coefficients must be >= 0")
        if self.f_c <= 0:
            raise DomainError("laser roll-off cutoff f_c must be > 0")


@dataclass(frozen=True)
class CavityParams:
    """Reference-cavity noise: C4/f^4 + C3/f^3 + C2/f^2 (rad^2/Hz)."""

    c4: float = 0.5
    c3: float = 0.0
    c2: float = 2e-3

    def __post_init__(self):
        if self.c4 < 0 or self.c3 < 0 or self.c2 < 0:
            raise DomainError("cavity noise coefficients must be >= 0")


@dataclass(frozen=True)
class LoopParams:
    """Servo loop with a second-order integrator.

    bandwidth is the loop bandwidth B in Hz; the zero sits at B*gamma and
    the pole at B*delta, with gamma < 1 < delta.  The overall gain g0 is
    fixed by these three numbers and is never set directly.
    """

    bandwidth: float = 3e5
    gamma: float = 0.1
    delta: float = 10.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise DomainError("loop bandwidth must be > 0")
        if not (0.0 < self.gamma < 1.0 < self.delta):
            raise DomainError("loop shape requires 0 < gamma < 1 < delta")

    @property
    def g0(self) -> float:
        """Loop gain constant (s^-2)."""
        b = 2.0 * np.pi * self.bandwidth
        return b * b * (1.0 + self.delta) / (1.0 + self.gamma)


@dataclass(frozen=True)
class FiberParams:
    """Fiber noise model coefficients.

    noise_per_km scales the free-running 1/f^2 noise linearly with length
    (rad^2 Hz / km); f_c_free (Hz) is the free-fiber roll-off.  For
    dual-band stabilized operation the residual is suppressed by the
    sensing/quantum wavelength mismatch, with a white detection floor s0
    (rad^2/Hz) rolling off at f_c_floor.
    """

    noise_per_km: float = 44.0
    f_c_free: float = 100.0
    s0: float = 1e-8
    f_c_floor: float = 2e5
    lambda_s_nm: float = 1543.33
    lambda_q_nm: float = 1542.14

    def __post_init__(self):
        if self.noise_per_km < 0 or self.s0 < 0:
            raise DomainError("fiber noise coefficients must be >= 0")
        if self.f_c_free <= 0 or self.f_c_floor <= 0:
            raise DomainError("fiber cutoff frequencies must be > 0")
        if self.lambda_s_nm == 0:
            raise DomainError("sensing wavelength must be nonzero")

    @property
    def stabilization_suppression(self) -> float:
        """Residual fraction ((lambda_s - lambda_q)/lambda_s)^2."""
        return ((self.lambda_s_nm - self.lambda_q_nm) / self.lambda_s_nm) ** 2


@dataclass(frozen=True)
class LaserSpec:
    """Bundle of free-running, cavity and loop parameters for one laser class."""

    free: LaserFreeParams = field(default_factory=LaserFreeParams)
    cavity: CavityParams = field(default_factory=CavityParams)
    loop: LoopParams = field(default_factory=LoopParams)

    def psd(self, f, stabilized: bool):
        if stabilized:
            return psd_laser_stabilized(f, self.free, self.cavity, self.loop)
        return psd_laser_free(f, self.free)


class TopologyKind(enum.Enum):
    COMMON_LASER = "common_laser"
    INDEPENDENT_LASERS = "independent_lasers"


@dataclass(frozen=True)
class TopologyConfig:
    """Link topology: laser distribution scheme, stabilization flags, arm lengths.

    l_a and l_b are the two arm lengths in km with l_a >= l_b; the delay
    mismatch delta_l = l_a - l_b drives the self-delayed interference of a
    common reference laser.  fiber_roundtrip_factor is the coherent
    forward/backward correlation factor of the served fibers (4 when the
    service and quantum fibers share a cable, 2 otherwise).
    """

    kind: TopologyKind = TopologyKind.COMMON_LASER
    laser_stabilized: bool = False
    fiber_stabilized: bool = False
    l_a: float = 114.0
    l_b: float = 114.0
    refractive_index: float = 1.45
    light_speed: float = SPEED_OF_LIGHT
    fiber_roundtrip_factor: float = 4.0

    def __post_init__(self):
        if not (self.l_a >= self.l_b >= 0.0):
            raise DomainError("arm lengths must satisfy l_a >= l_b >= 0")
        if self.refractive_index <= 0 or self.light_speed <= 0:
            raise DomainError("refractive index and light speed must be > 0")
        if self.fiber_roundtrip_factor < 0:
            raise DomainError("fiber round-trip factor must be >= 0")

    @property
    def delta_l(self) -> float:
        """Arm length mismatch in km."""
        return self.l_a - self.l_b


def psd_laser_free(f, p: LaserFreeParams):
    """Free-running laser phase noise (rad^2/Hz)."""
    f = _as_positive_freq(f)
    rolloff = (p.f_c / (f + p.f_c)) ** 2
    return p.r3 / f**3 + p.r2 / f**2 * rolloff


def psd_cavity(f, p: CavityParams):
    """Reference-cavity phase noise (rad^2/Hz)."""
    f = _as_positive_freq(f)
    return p.c4 / f**4 + p.c3 / f**3 + p.c2 / f**2


def loop_gain(f, p: LoopParams):
    """Complex servo open-loop gain G(f).

    Second-order integrator with a zero at B*gamma and a pole at B*delta;
    |G| diverges as f -> 0 and falls off as 1/f^2 well above the pole.
    """
    f = _as_positive_freq(f)
    w2 = (2.0 * np.pi * f) ** 2
    zero = 1j * f + p.bandwidth * p.gamma
    pole = 1j * f + p.bandwidth * p.delta
    return p.g0 / w2 * zero / pole


def psd_laser_stabilized(f, laser: LaserFreeParams, cavity: CavityParams,
                         loop: LoopParams):
    """Cavity-stabilized laser noise: cavity floor plus servo-suppressed free noise."""
    f = _as_positive_freq(f)
    suppression = np.abs(1.0 / (1.0 + loop_gain(f, loop))) ** 2
    return psd_cavity(f, cavity) + suppression * psd_laser_free(f, laser)


def psd_fiber(f, length_km: float, p: FiberParams, stabilized: bool):
    """Single-fiber phase noise (rad^2/Hz), linear in length.

    Free-running fibers follow (l*L/f^2) with a roll-off above f_c_free.
    Dual-band stabilization suppresses the linear term by the wavelength
    mismatch and leaves the sensing-detection white floor.
    """
    linear = psd_fiber_linear(f, length_km, p, stabilized)
    if stabilized:
        return linear + psd_detection_floor(f, p)
    return linear


def psd_fiber_linear(f, length_km: float, p: FiberParams, stabilized: bool):
    """Length-proportional part of the fiber noise, without the detection floor."""
    f = _as_positive_freq(f)
    if length_km < 0:
        raise DomainError("fiber length must be >= 0")
    if stabilized:
        return p.stabilization_suppression * p.noise_per_km * length_km / f**2
    return p.noise_per_km * length_km / f**2 * (p.f_c_free / (f + p.f_c_free)) ** 2


def psd_detection_floor(f, p: FiberParams):
    """White detection floor of the fiber-noise sensing interference."""
    f = _as_positive_freq(f)
    return p.s0 * (p.f_c_floor / (f + p.f_c_floor)) ** 2


@dataclass(frozen=True)
class Spectrum:
    """A composite PSD together with the hints the integrator needs.

    func evaluates the PSD; knees lists the model corner frequencies used
    to pick a default upper integration cutoff.  When the PSD contains the
    sin^2 self-delay term of a common-laser topology, oscillation_period
    gives its period in Hz and averaged_func the same PSD with the sin^2
    factor replaced by its mean 1/2.
    """

    func: Callable[[np.ndarray], np.ndarray]
    knees: tuple = ()
    oscillation_period: Optional[float] = None
    averaged_func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, f):
        return self.func(f)

    def default_f_max(self) -> float:
        """Upper integration cutoff: a decade above the highest model knee."""
        if not self.knees:
            return np.inf
        return 10.0 * max(self.knees)


def _composite_parts(topo: TopologyConfig, laser: LaserSpec, fiber: FiberParams,
                     delta_l_km: Optional[float]):
    """Return (laser_term, fiber_term, floor_term) callables for a topology.

    delta_l_km overrides the delay mismatch of the common-laser term while
    the fiber-noise terms keep the configured arm lengths; this is what
    mismatch maps sweep.
    """
    dl = topo.delta_l if delta_l_km is None else delta_l_km
    if dl < 0:
        raise DomainError("delay mismatch must be >= 0")
    stab = topo.laser_stabilized
    fib_stab = topo.fiber_stabilized

    def fiber_term(f):
        both = (psd_fiber_linear(f, topo.l_a, fiber, fib_stab)
                + psd_fiber_linear(f, topo.l_b, fiber, fib_stab))
        if topo.kind is TopologyKind.COMMON_LASER:
            return topo.fiber_roundtrip_factor * both
        return both

    if topo.kind is TopologyKind.COMMON_LASER:
        delay = topo.refractive_index * dl * 1e3 / topo.light_speed  # s

        def laser_term(f):
            f = _as_positive_freq(f)
            return 4.0 * np.sin(2.0 * np.pi * f * delay) ** 2 * laser.psd(f, stab)

        def laser_term_avg(f):
            return 2.0 * laser.psd(f, stab)
    else:
        def laser_term(f):
            return 2.0 * laser.psd(f, stab)

        laser_term_avg = laser_term

    if fib_stab:
        def floor_term(f):
            return psd_detection_floor(f, fiber)
    else:
        def floor_term(f):
            return np.zeros_like(_as_positive_freq(f))

    return laser_term, laser_term_avg, fiber_term, floor_term


def interference_spectrum(topo: TopologyConfig,
                          laser: LaserSpec = LaserSpec(),
                          fiber: FiberParams = FiberParams(),
                          delta_l_km: Optional[float] = None) -> Spectrum:
    """Interference PSD at the measurement node for a given topology.

    Common laser: 4 sin^2(2 pi f n dL / c) S_laser + K [S_F,A + S_F,B].
    Independent lasers: 2 S_laser + S_F,A + S_F,B.  With fiber
    stabilization the sensing-detection floor is added once per link; it
    is measurement noise of the cancellation servo, not propagating fiber
    noise, so it does not pick up round-trip or per-arm factors.
    """
    laser_term, laser_avg, fiber_term, floor_term = _composite_parts(
        topo, laser, fiber, delta_l_km)

    def func(f):
        return laser_term(f) + fiber_term(f) + floor_term(f)

    knees = [fiber.f_c_free, laser.free.f_c]
    if topo.laser_stabilized:
        knees.append(laser.loop.bandwidth * laser.loop.delta)
    if topo.fiber_stabilized:
        knees.append(fiber.f_c_floor)

    dl = topo.delta_l if delta_l_km is None else delta_l_km
    if topo.kind is TopologyKind.COMMON_LASER and dl > 0:
        period = topo.light_speed / (2.0 * topo.refractive_index * dl * 1e3)

        def averaged(f):
            return laser_avg(f) + fiber_term(f) + floor_term(f)

        return Spectrum(func, knees=tuple(knees), oscillation_period=period,
                        averaged_func=averaged)
    return Spectrum(func, knees=tuple(knees))


def psd_interference(f, topo: TopologyConfig,
                     laser: LaserSpec = LaserSpec(),
                     fiber: FiberParams = FiberParams()):
    """Pointwise interference PSD (rad^2/Hz); see interference_spectrum."""
    return interference_spectrum(topo, laser, fiber)(f)
