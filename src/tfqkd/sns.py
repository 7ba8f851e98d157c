"""Sending-or-not-sending twin-field protocol with odd-parity pairing.

Signal windows carry a phase-randomized pulse of intensity mu_z with
probability epsilon (bit 1 for the first party, bit 0 for the second) or
a near-vacuum mu_0 otherwise.  The middle node announces windows with
exactly one click; single-photon statistics are bounded with the
three-intensity decoy machinery on the per-arm channel, and actively
pairing the sifted bits in odd-parity pairs rejects most bit flips at the
cost of halving the string.

The three send patterns' clicks come from one call over an intensity
axis; a sweep takes the decoy bounds from its call stacked with BB84's
channel and rates plain and paired SNS in one pass over a protocol axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fields import Checked, _within, spec
from .decoy import (
    ChannelErrorModel,
    DecoySet,
    _key,
    _scalars,
    decoy_bounds,
)
from .errors import DomainError
from .link import DetectorParams

__all__ = [
    "SnsParams",
    "SnsWindowStats",
    "AoppStats",
    "effective_click_probability",
    "sns_window_stats",
    "aopp_transform",
    "sns_rate",
    "sns_aopp_rate",
]

# Largest mean photon number t (mu_a + mu_b) / 2 reaching the detectors
# that the closed-form click probability accepts: beyond ~745 exp(-S)
# underflows while I0(x) overflows.
MAX_DETECTED_PHOTONS = 500.0
_EPSNEG = np.finfo(float).epsneg


@dataclass(frozen=True)
class SnsParams(Checked):
    """Protocol knobs: window probabilities and intensities.

    Asymptotically the signal-window probability p_z is 1.  The sending
    intensity defaults to half the first decoy intensity and the
    not-sending intensity to half the weakest one.
    """

    p_z: float = field(default=1.0, metadata=spec(float, gt=0, le=1))
    epsilon: float = field(default=0.25, metadata=spec(float, gt=0, lt=1))
    mu_z: float = field(default=0.2, metadata=spec(float, gt=0))
    mu_0: float = field(default=5e-6, metadata=spec(float, ge=0))

    def __post_init__(self):
        super().__post_init__()
        if not self.mu_z > self.mu_0:
            raise DomainError("intensities must satisfy mu_z > mu_0 >= 0")


@dataclass(frozen=True)
class SnsWindowStats:
    """Per-signal effective rates of the four signal-window send patterns.

    n_t = n_ss + n_sn + n_ns + n_nn; e_z = (n_nn + n_ss) / n_t is the
    bit-flip error (both-send and both-not-send patterns give opposite
    bits).  n1_low and e1ph_up are the decoy bounds on the untagged
    single-photon rate and its phase error.
    """

    n_t: float
    n_ss: float
    n_sn: float
    n_ns: float
    n_nn: float
    e_z: float
    n1_low: float
    e1ph_up: float
    decoy_ok: bool


@dataclass(frozen=True)
class AoppStats:
    """Post-pairing quantities: survivors, untagged bound, error rates."""

    n_t_prime: float
    n1_prime: float
    e_z_prime: float
    e1ph_prime: float
    pair_rate: float


def effective_click_probability(mu_a: float, mu_b: float, arm_t, p_dc: float):
    """Probability that exactly one threshold detector clicks.

    Phase-randomized inputs of intensities mu_a, mu_b reach the balanced
    beamsplitter through per-arm transmittance arm_t; detector intensities
    are t (mu_a + mu_b +/- 2 sqrt(mu_a mu_b) cos delta) / 2.  Averaged over
    the relative phase delta, the probability is
    2 (1-p) e^{-S} [(I0(x) - 1) + p - (1-p) expm1(-S)] with
    S = t (mu_a + mu_b) / 2 and x = t sqrt(mu_a mu_b), p = p_dc.  Every
    term in the bracket is >= 0, so nothing cancels at small intensities
    or dark counts.  mu_a and mu_b may be arrays.
    """
    if not (_within(mu_a, 0.0, np.inf, hi_open=True) and _within(mu_b, 0.0, np.inf, hi_open=True)):
        raise DomainError("intensities must be >= 0 and finite")
    if not _within(arm_t, 0.0, 1.0) or not 0.0 <= p_dc < 1.0:
        raise DomainError("transmittance in [0,1] and p_dc in [0,1) required")
    s = arm_t * (0.5 * (mu_a + mu_b))
    if not _within(s, 0.0, MAX_DETECTED_PHOTONS):
        raise DomainError(f"mean detected photon number above {MAX_DETECTED_PHOTONS:g}")
    x = arm_t * np.sqrt(mu_a * mu_b)
    return _scalars(2.0 * (1.0 - p_dc) * np.exp(-s) * (
        _i0_minus_1(x) + p_dc - (1.0 - p_dc) * np.expm1(-s)))


def _i0_minus_1(x):
    """I0(x) - 1 = sum_k>=1 (x^2/4)^k / (k!)^2, each entry summed until its
    own next term no longer moves it, whatever the other entries."""
    q = 0.25 * x * x
    term = total = q
    k = 1
    live = term > _EPSNEG * total
    while live.any():
        k += 1
        term = term * q / (k * k) * live  # 0 once an entry has converged
        total = total + term
        live = term > _EPSNEG * total
    return total


def sns_window_stats(p: SnsParams, decoys: DecoySet, arm_t,
                     det: DetectorParams, e_phi: float,
                     e_theta: float = ChannelErrorModel.e_theta) -> SnsWindowStats:
    """Effective-window rates and decoy bounds for the signal basis.

    The four send patterns weight the click model by the sending choices;
    the single-photon bounds reuse the decoy formulas on the per-arm
    channel (each party sends half of each decoy intensity), and only the
    phase-error side sees the interferometric errors e_theta + e_phi.
    The bit-flip error e_z involves no interference and is therefore
    independent of e_phi by construction.
    """
    if not _within(arm_t, 0.0, 1.0, lo_open=True):
        raise DomainError("arm transmittance must lie in (0, 1]")
    clicks = _clicks(p, arm_t, det.p_dc)
    m = ChannelErrorModel(eta_hat=arm_t, p_dc=det.p_dc, e_theta=e_theta, e_phi=e_phi)
    return _window_stats(p, clicks, decoy_bounds(decoys, m))


def _clicks(p: SnsParams, arm_t, p_dc: float):
    """Clicks of the mu_z/mu_z, mu_z/mu_0 and mu_0/mu_0 patterns in one call;
    the not-send/send pattern shares the symmetric mu_z/mu_0 entry.  A
    sweep passes arm_t = 0 where the loss underflows, and gets no clicks
    but dark counts there."""
    column = (3,) + (1,) * np.ndim(arm_t)
    return effective_click_probability(np.array((p.mu_z, p.mu_z, p.mu_0)).reshape(column),
                                       np.array((p.mu_z, p.mu_0, p.mu_0)).reshape(column),
                                       arm_t, p_dc)


def _window_stats(p: SnsParams, clicks, b) -> SnsWindowStats:
    """The statistics from _clicks and the per-arm channel's bounds b."""
    eps = p.epsilon
    n_ss = eps**2 * clicks[0]
    n_sn = n_ns = eps * (1 - eps) * clicks[1]
    n_nn = (1 - eps) ** 2 * clicks[2]
    n_t = n_ss + n_sn + n_ns + n_nn
    with np.errstate(invalid="ignore"):  # 0/0 where no window clicks
        e_z = np.where(n_t > 0, np.divide(n_nn + n_ss, n_t), 0.0)
    n1 = 2.0 * eps * (1 - eps) * p.mu_z * np.exp(-p.mu_z) * b.y1_low
    return _scalars(SnsWindowStats(
        n_t=n_t, n_ss=n_ss, n_sn=n_sn, n_ns=n_ns, n_nn=n_nn, e_z=e_z,
        n1_low=n1, e1ph_up=b.e1ph_up, decoy_ok=b.ok))


def aopp_transform(s: SnsWindowStats) -> AoppStats:
    """Actively-odd-parity-paired statistics.

    The second party holds N0 = n_ss + n_ns zero bits and N1 = n_sn + n_nn
    one bits and forms min(N0, N1) odd-parity pairs; a pair survives when
    the first party's parity is odd as well, which happens when both bits
    are correct or both are flipped.  The kept (first) bit is then wrong
    only in the both-flipped case.  Untagged single photons scale with the
    surviving fraction; the phase error is untouched by pairing.
    """
    n0 = np.add(s.n_ss, s.n_ns)
    n1_bits = np.add(s.n_sn, s.n_nn)
    paired = (n0 > 0.0) & (n1_bits > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked by paired
        e0 = s.n_ss / n0  # error rate among the second party's zeros
        e1 = s.n_nn / n1_bits  # and among the ones
        keep = (1.0 - e0) * (1.0 - e1) + e0 * e1
        pairs = np.minimum(n0, n1_bits)
        n_t_prime = pairs * keep
        e_z_prime = np.where(keep > 0, e0 * e1 / keep, 0.0)
        scale = np.where(s.n_t > 0, n_t_prime / s.n_t, 0.0)
    return _scalars(AoppStats(
        n_t_prime=np.where(paired, n_t_prime, 0.0),
        n1_prime=np.where(paired, s.n1_low * scale, 0.0),
        e_z_prime=np.where(paired, e_z_prime, 0.0),
        e1ph_prime=s.e1ph_up, pair_rate=np.where(paired, pairs, 0.0)))


def _rate(n1, e1ph, n_t, e_z, p: SnsParams, f_ec: float):
    """p_z^2 times the decoy-state key form that BB84 shares."""
    return _scalars(p.p_z**2 * _key(n1, e1ph, n_t, e_z, f_ec))


def _terms(s):
    """_rate's (n1, e1ph, n_t, e_z) of SnsWindowStats or AoppStats."""
    if isinstance(s, AoppStats):
        return s.n1_prime, s.e1ph_prime, s.n_t_prime, s.e_z_prime
    return np.where(s.decoy_ok, s.n1_low, 0.0), s.e1ph_up, s.n_t, s.e_z


def sns_rate(s: SnsWindowStats, p: SnsParams, f_ec: float):
    """Plain protocol secret key per transmitted signal, floored at 0."""
    return _rate(*_terms(s), p, f_ec)


def sns_aopp_rate(a: AoppStats, p: SnsParams, f_ec: float):
    """Secret key per transmitted signal after odd-parity pairing."""
    return _rate(*_terms(a), p, f_ec)
