"""Sending-or-not-sending twin-field protocol with odd-parity pairing.

Signal windows carry a phase-randomized pulse of intensity mu_z with
probability epsilon (bit 1 for the first party, bit 0 for the second) or
a near-vacuum mu_0 otherwise.  The middle node announces windows with
exactly one click; single-photon statistics are bounded with the
three-intensity decoy machinery on the per-arm channel, and actively
pairing the sifted bits in odd-parity pairs rejects most bit flips at the
cost of halving the string.

sns_window_stats takes the per-arm channel's decoy bounds, which a sweep
takes from its decoy_bounds call stacked with BB84's channel, and draws
the three send patterns' clicks from one call over an intensity axis;
sns_rate and sns_aopp_rate each take BB84's key form decoy._key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fields import Checked, _checker, _within, spec
from .decoy import _BOUNDS, DecoyBounds, DecoySet, _key, _scalars
from .errors import DomainError

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
# the field contract's checkers of effective_click_probability's arguments
_MU_A, _MU_B = (_checker(spec(float, ge=0, array=True), name) for name in ("mu_a", "mu_b"))
_ARM_T = _checker(spec(float, ge=0, le=1, array=True), "arm_t")
_P_DC = _checker(spec(float, ge=0, lt=1), "p_dc")


@dataclass(frozen=True)
class SnsParams(Checked):
    """Protocol knobs: window probabilities and intensities.

    Asymptotically the signal-window probability p_z is 1.  The sending
    intensity defaults to half the first decoy intensity and the
    not-sending intensity to half the weakest one.
    """

    p_z: float = field(default=1.0, metadata=spec(float, gt=0, le=1))
    epsilon: float = field(default=0.25, metadata=spec(float, gt=0, lt=1))
    mu_z: float = field(default=DecoySet.u / 2, metadata=spec(float, gt=0))
    mu_0: float = field(default=DecoySet.w / 2, metadata=spec(float, ge=0))

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


# the checkers of the kernels' record arguments
_PARAMS = _checker(spec(SnsParams), "p")
_STATS, _PAIRED = _checker(spec(SnsWindowStats), "s"), _checker(spec(AoppStats), "a")


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
    mu_a, mu_b, arm_t, p_dc = _MU_A(mu_a), _MU_B(mu_b), _ARM_T(arm_t), _P_DC(p_dc)
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


def sns_window_stats(p: SnsParams, b: DecoyBounds, arm_t, p_dc: float) -> SnsWindowStats:
    """Effective-window rates and decoy bounds for the signal basis.

    b holds the decoy bounds of the per-arm channel: decoy_bounds of
    ChannelErrorModel(eta_hat=arm_t, p_dc=p_dc, e_theta, e_phi), as each
    party sends half of each decoy intensity; only its phase-error side
    sees the interferometric errors e_theta + e_phi.  The four send
    patterns weight the click model by the sending choices: the
    mu_z/mu_z, mu_z/mu_0 and mu_0/mu_0 clicks come from one call, and the
    not-send/send pattern shares the symmetric mu_z/mu_0 entry.  The
    bit-flip error e_z involves no interference and is therefore
    independent of e_phi by construction.  At arm_t = 0, where a sweep's
    loss underflows, only dark counts click.
    """
    p, b = _PARAMS(p), _BOUNDS(b)
    column = (3,) + (1,) * np.ndim(arm_t)
    clicks = effective_click_probability(np.array((p.mu_z, p.mu_z, p.mu_0)).reshape(column),
                                         np.array((p.mu_z, p.mu_0, p.mu_0)).reshape(column),
                                         arm_t, p_dc)
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
    s = _STATS(s)
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


def sns_rate(s: SnsWindowStats, p: SnsParams, f_ec: float):
    """Plain protocol secret key per transmitted signal, floored at 0:
    p_z^2 times the decoy-state key form that BB84 shares, with no
    single photons where the decoy estimation failed."""
    s, p = _STATS(s), _PARAMS(p)
    return _scalars(p.p_z**2 * _key(np.where(s.decoy_ok, s.n1_low, 0.0), s.e1ph_up,
                                    s.n_t, s.e_z, f_ec))


def sns_aopp_rate(a: AoppStats, p: SnsParams, f_ec: float):
    """Secret key per transmitted signal after odd-parity pairing: the
    same key form on the paired statistics."""
    a, p = _PAIRED(a), _PARAMS(p)
    return _scalars(p.p_z**2 * _key(a.n1_prime, a.e1ph_prime, a.n_t_prime, a.e_z_prime, f_ec))
