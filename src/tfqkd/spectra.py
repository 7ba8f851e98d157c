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
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._fields import Checked, _checker, _within, part, spec
from .errors import DomainError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre

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
    "psd_fiber_linear",
    "psd_detection_floor",
    "interference_spectrum",
]


def _as_positive_freq(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if not _within(f, 0.0, np.inf, lo_open=True, hi_open=True):
        raise DomainError("Fourier frequency must be positive and finite")
    return f


# the field contract's checkers of the public functions' arguments
_LENGTH, _STABILIZED = _checker(spec(float, ge=0), "length_km"), _checker(spec(bool), "stabilized")
_DELTA_L = _checker(spec(float, ge=0, optional=True), "delta_l_km")


@dataclass(frozen=True)
class LaserFreeParams(Checked):
    """Free-running diode-laser noise: r3/f^3 + (r2/f^2) (f_c/(f+f_c))^2.

    r3 is in rad^2 Hz^2, r2 in rad^2 Hz; f_c (Hz) is the roll-off set by
    the laser modulation bandwidth.
    """

    r3: float = field(default=3e6, metadata=spec(float, ge=0))
    r2: float = field(default=3e2, metadata=spec(float, ge=0))
    f_c: float = field(default=2e6, metadata=spec(float, gt=0))


@dataclass(frozen=True)
class CavityParams(Checked):
    """Reference-cavity noise: C4/f^4 + C3/f^3 + C2/f^2 (rad^2/Hz)."""

    c4: float = field(default=0.5, metadata=spec(float, ge=0))
    c3: float = field(default=0.0, metadata=spec(float, ge=0))
    c2: float = field(default=2e-3, metadata=spec(float, ge=0))


@dataclass(frozen=True)
class LoopParams(Checked):
    """Servo loop with a second-order integrator.

    bandwidth is the loop bandwidth B in Hz; the zero sits at B*gamma and
    the pole at B*delta, with gamma < 1 < delta.  The overall gain g0 is
    fixed by these three numbers and is never set directly.
    """

    bandwidth: float = field(default=3e5, metadata=spec(float, gt=0))
    gamma: float = field(default=0.1, metadata=spec(float, gt=0, lt=1))
    delta: float = field(default=10.0, metadata=spec(float, gt=1))

    @property
    def g0(self) -> float:
        """Loop gain constant (s^-2)."""
        b = 2.0 * np.pi * self.bandwidth
        return b * b * (1.0 + self.delta) / (1.0 + self.gamma)


@dataclass(frozen=True)
class FiberParams(Checked):
    """Fiber noise model coefficients.

    noise_per_km scales the free-running 1/f^2 noise linearly with length
    (rad^2 Hz / km); f_c_free (Hz) is the free-fiber roll-off.  For
    dual-band stabilized operation the residual is suppressed by the
    sensing/quantum wavelength mismatch, with a white detection floor s0
    (rad^2/Hz) rolling off at f_c_floor.
    """

    noise_per_km: float = field(default=44.0, metadata=spec(float, ge=0))
    f_c_free: float = field(default=100.0, metadata=spec(float, gt=0))
    s0: float = field(default=1e-8, metadata=spec(float, ge=0))
    f_c_floor: float = field(default=2e5, metadata=spec(float, gt=0))
    lambda_s_nm: float = field(default=1543.33, metadata=spec(float, gt=0))
    lambda_q_nm: float = field(default=1542.14, metadata=spec(float, gt=0))

    @property
    def stabilization_suppression(self) -> float:
        """Residual fraction ((lambda_s - lambda_q)/lambda_s)^2."""
        return ((self.lambda_s_nm - self.lambda_q_nm) / self.lambda_s_nm) ** 2


@dataclass(frozen=True)
class LaserSpec(Checked):
    """Bundle of free-running, cavity and loop parameters for one laser class."""

    free: LaserFreeParams = part(LaserFreeParams)
    cavity: CavityParams = part(CavityParams)
    loop: LoopParams = part(LoopParams)


class TopologyKind(enum.Enum):
    COMMON_LASER = "common_laser"
    INDEPENDENT_LASERS = "independent_lasers"


@dataclass(frozen=True)
class TopologyConfig(Checked):
    """Link topology: laser distribution scheme, stabilization flags, arm lengths.

    l_a and l_b are the two arm lengths in km with l_a >= l_b; the delay
    mismatch delta_l = l_a - l_b drives the self-delayed interference of a
    common reference laser.  fiber_roundtrip_factor is the coherent
    forward/backward correlation factor of the served fibers (4 when the
    service and quantum fibers share a cable, 2 otherwise).
    """

    kind: TopologyKind = field(default=TopologyKind.COMMON_LASER, metadata=spec(TopologyKind))
    laser_stabilized: bool = field(default=False, metadata=spec(bool))
    fiber_stabilized: bool = field(default=False, metadata=spec(bool))
    l_a: float = field(default=114.0, metadata=spec(float, ge=0))
    l_b: float = field(default=114.0, metadata=spec(float, ge=0))
    refractive_index: float = field(default=1.45, metadata=spec(float, gt=0))
    fiber_roundtrip_factor: float = field(default=4.0, metadata=spec(float, ge=0))

    def __post_init__(self):
        super().__post_init__()
        if self.l_a < self.l_b:
            raise DomainError("arm lengths must satisfy l_a >= l_b")

    @property
    def delta_l(self) -> float:
        """Arm length mismatch in km."""
        return self.l_a - self.l_b


# the field contract's checkers of the public functions' record arguments
_P_FREE, _P_CAVITY, _P_LOOP, _P_FIBER = (_checker(spec(cls), "p") for cls in (
    LaserFreeParams, CavityParams, LoopParams, FiberParams))
_FREE, _CAVITY, _LOOP, _TOPO, _LASER, _FIBER = (_checker(spec(cls), name) for cls, name in (
    (LaserFreeParams, "laser"), (CavityParams, "cavity"), (LoopParams, "loop"),
    (TopologyConfig, "topo"), (LaserSpec, "laser"), (FiberParams, "fiber")))


def _like(f, out):
    """out, evaluated on np.atleast_1d(f), in the shape of f: a 0-d f
    (evaluated through a 1-element view) gives its one value as np.float64."""
    return out if f.ndim else out[0]


def psd_laser_free(f, p: LaserFreeParams):
    """Free-running laser phase noise (rad^2/Hz)."""
    f, p = _as_positive_freq(f), _P_FREE(p)
    x = np.atleast_1d(f)
    return _like(f, _laser_free(x, x**2, x**3, p))


# The private models take the powers of f they share from the caller,
# which evaluates each of them once: f2 = f**2, f3 = f**3, w2 = (2 pi f)**2,
# on arrays of at least one dimension.  Each builds its result in one or
# two fresh arrays by in-place steps, with the float operations of the
# formula in its comment, in its order (a product or sum may swap its
# two operands, which leaves every bit as it is).
def _rolloff(f, f_c: float):
    # (f_c / (f + f_c))**2
    out = np.add(f, f_c)
    np.divide(f_c, out, out=out)
    return np.square(out, out=out)


def _laser_free(f, f2, f3, p: LaserFreeParams):
    # r3 / f3 + r2 / f2 * rolloff(f_c)
    out = _rolloff(f, p.f_c)
    tmp = np.divide(p.r2, f2)
    out *= tmp
    out += np.divide(p.r3, f3, out=tmp)
    return out


def psd_cavity(f, p: CavityParams):
    """Reference-cavity phase noise (rad^2/Hz)."""
    f, p = _as_positive_freq(f), _P_CAVITY(p)
    x = np.atleast_1d(f)
    return _like(f, _cavity(x, x**2, x**3, p))


def _cavity(f, f2, f3, p: CavityParams):
    # c4 / f**4 + c3 / f3 + c2 / f2
    out = np.power(f, 4)
    np.divide(p.c4, out, out=out)
    tmp = np.divide(p.c3, f3)
    out += tmp
    out += np.divide(p.c2, f2, out=tmp)
    return out


def loop_gain(f, p: LoopParams):
    """Complex servo open-loop gain G(f).

    Second-order integrator with a zero at B*gamma and a pole at B*delta;
    |G| diverges as f -> 0 and falls off as 1/f^2 well above the pole.
    """
    f, p = _as_positive_freq(f), _P_LOOP(p)
    w2 = (2.0 * np.pi * f) ** 2
    zero = 1j * f + p.bandwidth * p.gamma
    pole = 1j * f + p.bandwidth * p.delta
    return p.g0 / w2 * zero / pole


def psd_laser_stabilized(f, laser: LaserFreeParams, cavity: CavityParams,
                         loop: LoopParams):
    """Cavity-stabilized laser noise: cavity floor plus servo-suppressed free noise."""
    f, laser, cavity, loop = _as_positive_freq(f), _FREE(laser), _CAVITY(cavity), _LOOP(loop)
    x = np.atleast_1d(f)
    return _like(f, _laser_stabilized(x, x**2, (2.0 * np.pi * x) ** 2, laser, cavity, loop))


def _suppression(f2, w2, p: LoopParams):
    """Servo suppression |1/(1+G)|^2 of loop_gain in real arithmetic:
    w^4 (f^2 + b^2) / ((w^2 b + g0 a)^2 + f^2 (w^2 + g0)^2), w = 2 pi f."""
    # w2 * w2 * (f2 + b * b) / ((w2 * b + g0 * a)**2 + f2 * (w2 + g0)**2)
    a, b, g0 = p.bandwidth * p.gamma, p.bandwidth * p.delta, p.g0
    out = np.multiply(w2, w2)
    tmp = np.add(f2, b * b)
    out *= tmp
    np.multiply(w2, b, out=tmp)
    tmp += g0 * a
    np.square(tmp, out=tmp)
    high = np.add(w2, g0)
    np.square(high, out=high)
    high *= f2
    tmp += high
    out /= tmp
    return out


def _laser_stabilized(f, f2, w2, laser: LaserFreeParams, cavity: CavityParams,
                      loop: LoopParams):
    # cavity + suppression * laser_free
    f3 = f**3
    out = _suppression(f2, w2, loop)
    out *= _laser_free(f, f2, f3, laser)
    out += _cavity(f, f2, f3, cavity)
    return out


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
    f, length_km, p = _as_positive_freq(f), _LENGTH(length_km), _P_FIBER(p)
    stabilized = _STABILIZED(stabilized)
    x = np.atleast_1d(f)
    rolloff = None if stabilized else _rolloff(x, p.f_c_free)
    return _like(f, _fiber_linear(x**2, rolloff, length_km, p, stabilized))


def _fiber_linear(f2, rolloff, length_km: float, p: FiberParams, stabilized: bool):
    """rolloff is _rolloff(f, p.f_c_free), unused when stabilized."""
    if stabilized:
        return np.divide(p.stabilization_suppression * p.noise_per_km * length_km, f2)
    # noise_per_km * length_km / f2 * rolloff
    out = np.divide(p.noise_per_km * length_km, f2)
    out *= rolloff
    return out


def psd_detection_floor(f, p: FiberParams):
    """White detection floor of the fiber-noise sensing interference."""
    f = _as_positive_freq(f)
    return _like(f, _detection_floor(np.atleast_1d(f), _P_FIBER(p)))


def _detection_floor(f, p: FiberParams):
    # s0 * rolloff(f_c_floor)
    out = _rolloff(f, p.f_c_floor)
    out *= p.s0
    return out


@dataclass(frozen=True)
class Spectrum(Checked):
    """A composite PSD together with the hints the integrator needs.

    func evaluates the PSD; knees lists the model corner frequencies (Hz,
    each finite and > 0) used to pick a default upper integration cutoff.
    When the PSD contains the sin^2 self-delay term of a common-laser
    topology, oscillation_period gives its period in Hz (finite, > 0) and
    averaged_func the same PSD with the sin^2 factor replaced by its mean
    1/2; the two hints come together or not at all.
    """

    func: Callable[[np.ndarray], np.ndarray] = field(metadata=spec(Callable))
    knees: tuple = field(default=(), metadata=spec(tuple, item=spec(float, gt=0)))
    oscillation_period: Optional[float] = field(
        default=None, metadata=spec(float, gt=0, optional=True))
    averaged_func: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, metadata=spec(Callable, optional=True))

    def __post_init__(self):
        super().__post_init__()
        if (self.oscillation_period is None) != (self.averaged_func is None):
            pair = ("oscillation_period", "averaged_func")
            missing, given = pair if self.oscillation_period is None else pair[::-1]
            raise DomainError(f"Spectrum.{missing} must be given with {given}")

    def __call__(self, f):
        return self.func(f)

    def default_f_max(self) -> float:
        """Upper integration cutoff: a decade above the highest model knee."""
        if not self.knees:
            return np.inf
        return 10.0 * max(self.knees)


def _composite(topo: TopologyConfig, laser: LaserSpec, fiber: FiberParams, dl: float):
    """Return psd(f, averaged): the interference PSD of a topology on
    frequencies already checked by _as_positive_freq, with the sin^2
    self-delay factor replaced by its mean 1/2 when averaged is true.

    dl is the delay mismatch of the common-laser term while the
    fiber-noise terms keep the configured arm lengths; this is what
    mismatch maps sweep.  One call evaluates f**2, 2 pi f, the roll-offs
    and the laser PSD once each, by the float operations of the public
    single-term models, and sums the terms in place; a 0-d f is evaluated
    through a 1-element view, as _like describes.
    """
    common = topo.kind is TopologyKind.COMMON_LASER
    stab, fib_stab = topo.laser_stabilized, topo.fiber_stabilized
    delay = topo.refractive_index * dl * 1e3 / SPEED_OF_LIGHT  # s

    def psd(f, averaged: bool):
        if not f.ndim:
            return psd(f.reshape(1), averaged)[0]
        f2 = f**2
        sin2 = common and not averaged
        w = 2.0 * np.pi * f if stab or sin2 else None
        if stab:
            total = _laser_stabilized(f, f2, w**2, laser.free, laser.cavity, laser.loop)
        else:
            total = _laser_free(f, f2, f**3, laser.free)
        if sin2:  # 4.0 * sin(w * delay)**2 * s_laser, in the buffer of w
            np.multiply(w, delay, out=w)
            np.sin(w, out=w)
            np.square(w, out=w)
            w *= 4.0
            total *= w
        else:  # 2.0 * s_laser
            total *= 2.0
        rolloff = None if fib_stab else _rolloff(f, fiber.f_c_free)
        both = _fiber_linear(f2, rolloff, topo.l_a, fiber, fib_stab)
        both += _fiber_linear(f2, rolloff, topo.l_b, fiber, fib_stab)
        if common:
            both *= topo.fiber_roundtrip_factor
        total += both
        if fib_stab:
            total += _detection_floor(f, fiber)
        return total

    return psd


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
    delta_l_km overrides the delay mismatch of the common-laser term only.
    """
    topo, laser, fiber, dl = _TOPO(topo), _LASER(laser), _FIBER(fiber), _DELTA_L(delta_l_km)
    dl = topo.delta_l if dl is None else dl
    psd = _composite(topo, laser, fiber, dl)

    def func(f):
        return psd(_as_positive_freq(f), False)

    knees = [fiber.f_c_free, laser.free.f_c]
    if topo.laser_stabilized:
        knees.append(laser.loop.bandwidth * laser.loop.delta)
    if topo.fiber_stabilized:
        knees.append(fiber.f_c_floor)

    # no sin^2 hints where the period overflows: the switch frequency would
    # be infinite, and the PSD is evaluated exactly throughout either way
    span = 2.0 * topo.refractive_index * dl * 1e3  # m, twice the optical path mismatch
    period = SPEED_OF_LIGHT / span if span > 0 else np.inf
    if topo.kind is TopologyKind.COMMON_LASER and period < np.inf:

        def averaged(f):
            return psd(_as_positive_freq(f), True)

        return Spectrum(func, knees=tuple(knees), oscillation_period=period,
                        averaged_func=averaged)
    return Spectrum(func, knees=tuple(knees))

