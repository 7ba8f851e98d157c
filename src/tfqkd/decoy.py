"""Three-intensity decoy-state bounds and the phase-encoded BB84 key rate.

The closed-form lower bounds on the vacuum and single-photon yields and
the upper bound on the single-photon phase error assume three intensities
u > v > w with u matched to the signal.  The same machinery backs the
single-photon estimation of the sending-or-not-sending protocol.

A sweep evaluates each ingredient once over a leading (intensity,
channel or entropy-term) axis stacked ahead of its grid; the kernels are
element-wise, so each stacked entry equals the float call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass, replace

import numpy as np

from ._fields import Checked, _within, spec
from .errors import DomainError

__all__ = [
    "DecoySet",
    "ChannelErrorModel",
    "DecoyBounds",
    "binary_entropy",
    "gain",
    "error_gain",
    "qber",
    "decoy_bounds",
    "bb84_rate",
]


def _scalars(obj):
    """obj with each 0-d result turned into a Python scalar: a dataclass
    field by field, or a bare array; anything of higher rank is returned
    as it is.  Every public kernel of the protocol modules returns through
    it, so a float input gives floats and an array input gives arrays."""
    if type(obj) is np.ndarray and obj.ndim:
        return obj
    if is_dataclass(obj):
        points = {k: np.asarray(v).item() for k, v in vars(obj).items()
                  if not (type(v) is np.ndarray and v.ndim) and np.ndim(v) == 0}
        return replace(obj, **points) if points else obj
    return np.asarray(obj).item() if np.ndim(obj) == 0 else obj


def binary_entropy(p):
    """H2(p) with H2(0) = H2(1) = 0; symmetric about 1/2."""
    if not _within(p, 0.0, 1.0):
        raise DomainError("binary entropy argument must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 at the ends
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    # h is NaN exactly at the ends p = 0 and 1 and > 0 between them
    return _scalars(np.fmax(h, 0.0))


def _entropies(*p):
    """binary_entropy of each argument, from one call over their stack."""
    same = len({np.shape(x) for x in p}) == 1
    return binary_entropy(np.array(p if same else np.broadcast_arrays(*p)))


def _check_f_ec(f_ec: float) -> None:
    """Reject an error-correction inefficiency below the Shannon limit 1,
    or one that is not finite."""
    if not 1.0 <= f_ec < np.inf:
        raise DomainError("error-correction inefficiency must be >= 1 and finite")


@dataclass(frozen=True)
class DecoySet(Checked):
    """Decoy intensities u > v > w >= 0, u matched to the signal intensity."""

    u: float = field(default=0.4, metadata=spec(float, gt=0))
    v: float = field(default=0.16, metadata=spec(float, gt=0))
    w: float = field(default=1e-5, metadata=spec(float, ge=0))

    def __post_init__(self):
        super().__post_init__()
        if not self.u > self.v > self.w:
            raise DomainError("decoy intensities must satisfy u > v > w >= 0")
        if self.u - self.v - self.w <= 0.0:
            raise DomainError("single-photon bound requires u > v + w")


@dataclass(frozen=True)
class ChannelErrorModel(Checked):
    """Effective transmittance, dark counts per signal and the two error terms."""

    eta_hat: float = field(metadata=spec(float, ge=0, le=1, array=True))
    p_dc: float = field(metadata=spec(float, ge=0, le=1, array=True))
    e_theta: float = field(default=0.02, metadata=spec(float, ge=0, le=1, array=True))
    e_phi: float = field(default=0.0, metadata=spec(float, ge=0, le=1, array=True))

    @property
    def e_total(self) -> float:
        return self.e_theta + self.e_phi


def gain(mu: float, m: ChannelErrorModel):
    """Click probability for intensity mu: 1 - (1 - p_dc) exp(-mu eta_hat),
    as p_dc - (1 - p_dc) expm1(-mu eta_hat), which keeps its digits where
    exp(-mu eta_hat) is close to 1.  mu may be an array."""
    if not _within(mu, 0.0, np.inf, hi_open=True):
        raise DomainError("intensity must be >= 0 and finite")
    return _scalars(m.p_dc - (1.0 - m.p_dc) * np.expm1(-mu * m.eta_hat))


def error_gain(mu: float, m: ChannelErrorModel):
    """Joint probability of a click that is also an error, E_mu * Q_mu.

    Dark counts err half the time; misalignment and phase noise err on the
    detected-signal fraction: p_dc/2 + (e_theta + e_phi - p_dc/2)(1 - exp(-mu eta_hat)).
    """
    if not _within(mu, 0.0, np.inf, hi_open=True):
        raise DomainError("intensity must be >= 0 and finite")
    signal = -np.expm1(-mu * m.eta_hat)
    return _scalars(m.p_dc / 2.0 + (m.e_total - m.p_dc / 2.0) * signal)


def qber(mu: float, m: ChannelErrorModel):
    """Total QBER E_mu = error_gain / gain, clamped to [0, 1]; undefined
    where the gain is 0."""
    q = gain(mu, m)
    if not _within(q, 0.0, np.inf, lo_open=True):
        raise DomainError("QBER undefined at zero gain")
    return _scalars(np.minimum(1.0, np.maximum(0.0, error_gain(mu, m) / q)))


@dataclass(frozen=True)
class DecoyBounds:
    """Decoy estimates: yield lower bounds, single-photon gain, phase-error
    upper bound, and the signal gain Q_u they rest on.  ok is False when
    the single-photon estimation failed (Y1 bound non-positive), in which
    case the protocol yields no key."""

    y0_low: float
    y1_low: float
    q1_low: float
    e1ph_up: float
    ok: bool
    q_u: float


def decoy_bounds(s: DecoySet, m: ChannelErrorModel) -> DecoyBounds:
    """Closed-form three-intensity bounds, all clamped to [0, 1], from one
    gain and one error_gain call over an intensity column."""
    u, v, w = s.u, s.v, s.w
    rank = max(getattr(x, "ndim", 0) for x in vars(m).values())
    mu = np.array((u, v, w)).reshape((3,) + (1,) * rank)
    q_u, q_v, q_w = gain(mu, m)
    eq_v, eq_w = error_gain(mu[1:], m)
    e_u, e_v, e_w = np.exp(u), np.exp(v), np.exp(w)

    # np.maximum(0.0, x) keeps the sign of a -0.0 as np.clip does
    y0 = np.minimum(1.0, np.maximum(0.0, (v * q_w * e_w - w * q_v * e_v) / (v - w)))
    y1 = (u**2 * (q_v * e_v - q_w * e_w) - (v**2 - w**2) * (q_u * e_u - y0)) \
        / (u * (u - v - w) * (v - w))
    ok = y1 > 0.0
    y1 = np.where(ok, np.minimum(y1, 1.0), 0.0)
    q1 = np.minimum(1.0, np.maximum(0.0, y1 * u * np.exp(-u)))
    with np.errstate(divide="ignore", invalid="ignore"):  # y1 = 0 where not ok
        e1 = np.minimum(1.0, np.maximum(0.0, (eq_v * e_v - eq_w * e_w) / ((v - w) * y1)))
    return _scalars(DecoyBounds(y0_low=y0, y1_low=y1, q1_low=q1,
                                e1ph_up=np.where(ok, e1, 1.0), ok=ok, q_u=q_u))


def _bb84_columns(s: DecoySet, m: ChannelErrorModel, f_ec: float, b: DecoyBounds):
    """The BB84 key per transmitted signal and the columns it rests on:
    (key, decoy bounds b = decoy_bounds(s, m), E_u), each evaluated once.

    E_u is evaluated only where there is signal gain and reads 0
    elsewhere; the key, floored at 0, is R = Q1 (1 - H2(e1ph)) - f_ec *
    Q_u * H2(E_u) where the single-photon estimation held (which implies
    gain) and 0 where it failed.
    """
    _check_f_ec(f_ec)
    clicked = np.asarray(b.q_u > 0.0)
    if clicked.all():  # gain everywhere, as dark counts give: no masked copy
        e_u = qber(s.u, m)
    else:
        shape = np.broadcast_shapes(clicked.shape, *map(np.shape, vars(m).values()))
        clicked = np.broadcast_to(clicked, shape)
        e_u = np.zeros(shape)
        e_u[clicked] = qber(s.u, replace(m, **{  # every field, at the points with gain
            k: np.broadcast_to(v, shape)[clicked] for k, v in vars(m).items()}))
    h_ph, h_u = _entropies(np.minimum(b.e1ph_up, 0.5), e_u)
    key = b.q1_low * (1.0 - h_ph) - f_ec * b.q_u * h_u
    return np.where(b.ok & (key > 0.0), key, 0.0), b, e_u


def bb84_rate(s: DecoySet, m: ChannelErrorModel, f_ec: float):
    """Asymptotic decoy BB84 secret key per transmitted signal, floored at 0.

    R = Q1 (1 - H2(e1ph)) - f_ec * Q_u * H2(E_u); no key where the
    single-photon estimation failed, which includes every point without
    gain, so E_u is only evaluated where there is gain.
    """
    return _scalars(_bb84_columns(s, m, f_ec, decoy_bounds(s, m))[0])
