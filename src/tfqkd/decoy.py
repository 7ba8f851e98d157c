"""Three-intensity decoy-state bounds and the phase-encoded BB84 key rate.

The closed-form lower bounds on the vacuum and single-photon yields and
the upper bound on the single-photon phase error assume three intensities
u > v > w with u matched to the signal, and carry its gain and QBER: BB84's
key is a function of its bounds (bb84_rate takes the DecoyBounds).  The
same machinery backs the sending-or-not-sending protocol, which shares
BB84's key form _key (Wang, Yu and Hu, PRA 98, 062323): single photons
less error correction on the signal.

A sweep evaluates each ingredient once over a leading (intensity,
channel or entropy-term) axis stacked ahead of its grid; the kernels are
element-wise, so each stacked entry equals the float call bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fields import Checked, _checker, _scalars, _within, spec
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


# the field contract's checkers of the kernels' arguments; an
# error-correction inefficiency is at or above the Shannon limit 1
_P = _checker(spec(float, ge=0, le=1, array=True), "p")
_MU = _checker(spec(float, ge=0, array=True), "mu")
_F_EC = _checker(spec(float, ge=1), "f_ec")


def binary_entropy(p):
    """H2(p) with H2(0) = H2(1) = 0; symmetric about 1/2."""
    p = _P(p)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 at the ends
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    # h is NaN exactly at the ends p = 0 and 1 and > 0 between them
    return _scalars(np.fmax(h, 0.0))


def _entropies(*p):
    """binary_entropy of each argument, from one call over their stack."""
    same = len({np.shape(x) for x in p}) == 1
    return binary_entropy(np.array(p if same else np.broadcast_arrays(*p)))


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


# the checkers of the kernels' record arguments
_DECOYS, _MODEL = _checker(spec(DecoySet), "s"), _checker(spec(ChannelErrorModel), "m")


def gain(mu: float, m: ChannelErrorModel):
    """Click probability for intensity mu: 1 - (1 - p_dc) exp(-mu eta_hat),
    as p_dc - (1 - p_dc) expm1(-mu eta_hat), which keeps its digits where
    exp(-mu eta_hat) is close to 1.  mu may be an array."""
    mu, m = _MU(mu), _MODEL(m)
    return _scalars(m.p_dc - (1.0 - m.p_dc) * np.expm1(-mu * m.eta_hat))


def error_gain(mu: float, m: ChannelErrorModel):
    """Joint probability of a click that is also an error, E_mu * Q_mu.

    Dark counts err half the time; misalignment and phase noise err on the
    detected-signal fraction: p_dc/2 + (e_theta + e_phi - p_dc/2)(1 - exp(-mu eta_hat)).
    """
    mu, m = _MU(mu), _MODEL(m)
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
    upper bound, and the signal gain Q_u and QBER E_u they rest on.  ok is
    False when the single-photon estimation failed (Y1 bound non-positive),
    in which case the protocol yields no key.  E_u = qber(u, m) where there
    is signal gain and 0 where there is none."""

    y0_low: float
    y1_low: float
    q1_low: float
    e1ph_up: float
    ok: bool
    q_u: float
    e_u: float


_BOUNDS = _checker(spec(DecoyBounds), "b")


@np.errstate(over="ignore", invalid="ignore")  # e^u past about u = 709.8 fails the estimation
def decoy_bounds(s: DecoySet, m: ChannelErrorModel) -> DecoyBounds:
    """Closed-form three-intensity bounds, all clamped to [0, 1], from one
    gain and one error_gain call over an intensity column."""
    s, m = _DECOYS(s), _MODEL(m)
    u, v, w = s.u, s.v, s.w
    rank = max(getattr(x, "ndim", 0) for x in vars(m).values())
    mu = np.array((u, v, w)).reshape((3,) + (1,) * rank)
    q_u, q_v, q_w = gain(mu, m)
    eq_u, eq_v, eq_w = error_gain(mu, m)
    exp_u, exp_v, exp_w = np.exp(u), np.exp(v), np.exp(w)

    # np.maximum(0.0, x) keeps the sign of a -0.0 as np.clip does
    y0 = np.minimum(1.0, np.maximum(0.0, (v * q_w * exp_w - w * q_v * exp_v) / (v - w)))
    y1 = (u * u * (q_v * exp_v - q_w * exp_w) - (v * v - w * w) * (q_u * exp_u - y0)) \
        / (u * (u - v - w) * (v - w))
    ok = y1 > 0.0
    y1 = np.where(ok, np.minimum(y1, 1.0), 0.0)
    q1 = np.minimum(1.0, np.maximum(0.0, y1 * u * np.exp(-u)))
    # y1 = 0 where not ok, and Q_u = 0 where there is no gain
    with np.errstate(divide="ignore"):
        e1 = np.minimum(1.0, np.maximum(0.0, (eq_v * exp_v - eq_w * exp_w) / ((v - w) * y1)))
        e_u = np.where(q_u > 0.0, np.minimum(1.0, np.maximum(0.0, eq_u / q_u)), 0.0)
    return _scalars(DecoyBounds(y0_low=y0, y1_low=y1, q1_low=q1,
                                e1ph_up=np.where(ok, e1, 1.0), ok=ok, q_u=q_u, e_u=e_u))


def _key(n1, e1ph, n_t, e_z, f_ec: float):
    """The decoy-state key form that BB84 and SNS share: single photons
    n1 (1 - H2(min(e1ph, 1/2))) less error correction f_ec * n_t * H2(e_z)
    on the signal, e_z clamped to [0, 1]; 0 unless n1 > 0 and the key is
    positive."""
    f_ec = _F_EC(f_ec)
    h_ph, h_z = _entropies(np.minimum(e1ph, 0.5), np.minimum(1.0, np.maximum(0.0, e_z)))
    key = n1 * (1.0 - h_ph) - f_ec * n_t * h_z
    return np.where((n1 > 0.0) & (key > 0.0), key, 0.0)


def bb84_rate(b: DecoyBounds, f_ec: float):
    """Asymptotic decoy BB84 secret key per transmitted signal, floored at 0.

    R = Q1 (1 - H2(e1ph)) - f_ec * Q_u * H2(E_u), all from the bounds b
    that decoy_bounds gives for BB84's channel; no key where the
    single-photon estimation failed (Q1 = 0), which includes every point
    without gain.
    """
    b = _BOUNDS(b)
    return _scalars(_key(b.q1_low, b.e1ph_up, b.q_u, b.e_u, f_ec))
