"""Coherent-state twin-field protocol with phase encoding (CAL).

Key bits ride on the sign of a dim coherent state interfered at the
middle node; control windows send phase-randomized decoys whose
photon-number yields bound the phase error through the even/odd cat-state
decomposition of the signal states.  Phase noise enters only the X-basis
bit error; the Z-basis phase-error bound is built from phase-randomized
states and is independent of the phase mismatch by construction.
cal_stats gathers the gain and the two errors, and cal_rate is the key
of those statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._fields import Checked, _checker, _within, spec
from .decoy import _F_EC, _entropies, _scalars
from .errors import DomainError

__all__ = [
    "CalParams",
    "CalChannel",
    "FockYield",
    "CalStats",
    "make_cal_channel",
    "cal_gain",
    "cal_bit_error",
    "fock_pair_yield",
    "cal_phase_error",
    "cal_stats",
    "cal_rate",
]

FOCK_INPUT_MAX = 6  # per-port input limit for pair yields
# the cat sums: per parity j, the (m_a, m_b) index pairs whose yields
# (photon numbers 2m + j, at most _N_TOP) enter the phase-error sum
# explicitly, every other yield bounded by 1 inside the tail term past
# amplitude index _M_MAX
_SETS = {0: ((0, 0), (0, 1), (1, 0), (1, 1)), 1: ((0, 0),)}
_M_MAX = 20
_N_TOP = max(2 * (m_a + m_b + j) for j, sset in _SETS.items() for m_a, m_b in sset)
# the field contract's checkers of the kernels' arguments
_ARM_T = _checker(spec(float, ge=0, le=1, array=True), "arm_t")
_P_D = _checker(spec(float, ge=0, le=1), "p_d")
_N_A, _N_B = (_checker(spec(int, ge=0, le=FOCK_INPUT_MAX), name) for name in ("n_a", "n_b"))


@dataclass(frozen=True)
class CalParams(Checked):
    """Signal intensity of the key states."""

    mu_zeta: float = field(default=0.018, metadata=spec(float, gt=0))


@dataclass(frozen=True)
class CalChannel(Checked):
    """Channel as seen by the signal states.

    gamma = arm_t * mu_zeta combines per-arm transmittance and intensity;
    the interference contrast is omega = cos(sigma_phi) cos(theta).
    """

    gamma: float = field(metadata=spec(float, ge=0, array=True))
    sigma_phi: float = field(default=0.0, metadata=spec(float))
    theta: float = field(default=0.0, metadata=spec(float))

    @property
    def omega(self) -> float:
        return math.cos(self.sigma_phi) * math.cos(self.theta)

    @property
    def contrast_loss(self) -> float:
        """1 - omega as 2 sin^2(sigma_phi/2) + cos(sigma_phi) 2 sin^2(theta/2),
        which keeps its digits when both angles are small."""
        return 2.0 * (math.sin(self.sigma_phi / 2.0) ** 2
                      + math.cos(self.sigma_phi) * math.sin(self.theta / 2.0) ** 2)


# the checkers of the kernels' record arguments
_PARAMS, _CHANNEL = _checker(spec(CalParams), "p"), _checker(spec(CalChannel), "ch")


def make_cal_channel(arm_t, p: CalParams, sigma_phi: float = CalChannel.sigma_phi,
                     theta: float = CalChannel.theta) -> CalChannel:
    """Channel for a given per-arm effective transmittance."""
    return CalChannel(gamma=_ARM_T(arm_t) * _PARAMS(p).mu_zeta, sigma_phi=sigma_phi, theta=theta)


def _cal_bracket(g, omega: float, p_d: float):
    """cosh(g omega) - (1 - p_d) e^{-g} as a sum of terms >= 0:
    cosh(y) - 1 = e^2 / (2 (1 + e)) with e = expm1(|y|), plus
    p_d - (1 - p_d) expm1(-g)."""
    e = np.expm1(np.abs(g * omega))
    return e * e / (2.0 * (1.0 + e)) + p_d - (1.0 - p_d) * np.expm1(-g)


def cal_gain(ch: CalChannel, p_d: float):
    """Gain of one single-click outcome when both parties pick the key basis.

    (1/2)(1-p_d)(e^{-gamma omega} + e^{gamma omega}) e^{-gamma}
    - (1-p_d)^2 e^{-2 gamma}, evaluated as
    (1-p_d) e^{-gamma} [cosh(gamma omega) - (1-p_d) e^{-gamma}]; the two
    single-click outcomes are equal by symmetry.
    """
    ch, p_d = _CHANNEL(ch), _P_D(p_d)
    return _scalars((1.0 - p_d) * np.exp(-ch.gamma) * _cal_bracket(ch.gamma, ch.omega, p_d))


def cal_bit_error(ch: CalChannel, p_d: float):
    """Bit-error rate of the single-click key outcomes.

    (e^{-gamma omega} - (1-p_d) e^{-gamma}) / (2 [cosh(gamma omega) - (1-p_d) e^{-gamma}])
    with the numerator as e^{-gamma} [expm1(gamma (1 - omega)) + p_d].
    Grows with the phase mismatch through omega and tends to 1/2 when dark
    counts dominate; undefined where the gain is 0.
    """
    ch, p_d = _CHANNEL(ch), _P_D(p_d)
    den = 2.0 * _cal_bracket(ch.gamma, ch.omega, p_d)
    if not _within(den, 0.0, np.inf, lo_open=True):
        raise DomainError("bit error undefined at zero gain")
    return _scalars(np.exp(-ch.gamma) * (np.expm1(ch.gamma * ch.contrast_loss) + p_d) / den)


@lru_cache(maxsize=64)
def _cat_raw(mu: float, j: int) -> np.ndarray:
    """Coherent amplitudes restricted to parity j: entry m is the |2m+j>
    amplitude of |sqrt(mu)>; the squared entries sum to the parity weight.
    Cached per (mu, j), so the array is read-only."""
    ns = 2 * np.arange(_M_MAX + 1) + j
    log_fact = np.array([math.log(math.factorial(n)) for n in ns])
    log_amp = -mu / 2.0 + 0.5 * ns * np.log(mu) - 0.5 * log_fact
    amp = np.exp(log_amp)
    amp.flags.writeable = False
    return amp


def _cat_tail(mu: float, j: int, last: float) -> float:
    """Geometric bound on the amplitude sum beyond _M_MAX."""
    n = 2 * _M_MAX + j
    limit = math.sqrt((n + 2) * (n + 1))
    q = mu / limit
    if q >= 1.0:
        raise DomainError(f"mu_zeta must be below {limit:.5g} for the cat sums, got {mu!r}")
    return last * q / (1.0 - q)


@lru_cache(maxsize=64)
def _cat_remainder(mu: float, j: int) -> float:
    """(amplitude sum + tail)^2 minus the amplitude products over _SETS[j].

    This is the sum of the products over the pairs outside the set plus the
    tail terms, so it is summed as such, term by term, and nothing cancels.
    """
    raw = _cat_raw(mu, j)
    tail = _cat_tail(mu, j, raw[-1])
    pairs = np.outer(raw, raw)
    for m_a, m_b in _SETS[j]:
        pairs[m_a, m_b] -= raw[m_a] * raw[m_b]
    return float(pairs.sum() + (2.0 * raw.sum() + tail) * tail)


def _bs_exact(n_a: int, n_b: int) -> tuple:
    """Exact output distribution of the balanced beamsplitter for |n_a, n_b>.

    Entry m_c is the probability, as a Fraction, of m_c photons at c and
    m_d = n - m_c at d:
    m_c! m_d! / (n_a! n_b! 2^n) (sum_j (-1)^j C(n_a, m_c - j) C(n_b, j))^2,
    where j counts the photons from b that leave at c.
    """
    n = n_a + n_b
    norm = math.factorial(n_a) * math.factorial(n_b) * 2**n
    return tuple(
        Fraction(math.factorial(m_c) * math.factorial(n - m_c)
                 * sum((-1) ** j * math.comb(n_a, m_c - j) * math.comb(n_b, j)
                       for j in range(max(0, m_c - n_a), min(n_b, m_c) + 1)) ** 2, norm)
        for m_c in range(n + 1))


@lru_cache(maxsize=None)
def _yield_coefficients(n_a: int, n_b: int) -> tuple:
    """The pair yields of |n_a, n_b> as polynomials in the transmittance.

    Entry k of (all_c, split) sums, over the survivor pairs k_a + k_b =
    k >= 1, C(n_a, k_a) C(n_b, k_b) times the splitter probability that
    all k photons leave at c, or some at each; all at d equals all at c
    as rounded floats for every input pair up to FOCK_INPUT_MAX.  Each
    exact sum is rounded once.
    """
    sums = [[Fraction(0)] * (n_a + n_b + 1) for _ in range(2)]
    for k_a in range(n_a + 1):
        for k_b in range(n_b + 1):
            k = k_a + k_b
            if k == 0:
                continue
            mult = math.comb(n_a, k_a) * math.comb(n_b, k_b)
            dist = _bs_exact(k_a, k_b)
            for acc, prob in zip(sums, (dist[k], 1 - dist[0] - dist[k])):
                acc[k] += mult * prob
    return tuple(tuple(map(float, acc)) for acc in sums)


def _powers(arm_t, n: int):
    """The lists t^k and (1 - t)^k for k = 0..n at per-arm transmittance t."""
    loss = 1.0 - arm_t
    return [np.power(arm_t, k) for k in range(n + 1)], [np.power(loss, k) for k in range(n + 1)]


def _survivors(n: int, polys, powers):
    """(1 - t)^n, and sum_k poly[k] t^k (1 - t)^(n - k) over k = 1..n for
    each polynomial in polys: the loss weights of the survivor counts of
    n photons, summed in increasing k, from the _powers of t up to n."""
    t_k, loss_k = powers
    sums = [0.0] * len(polys)
    for k in range(1, n + 1):
        weight = t_k[k] * loss_k[n - k]
        sums = [acc + poly[k] * weight for acc, poly in zip(sums, polys)]
    return loss_k[n], sums


def _one_click(vacuum, at, p_d: float):
    """P(one given detector alone clicks) from the weights of no survivor
    and of all survivors reaching it, with dark counts p_d at both."""
    return p_d * (1.0 - p_d) * vacuum + (1.0 - p_d) * at


@dataclass(frozen=True)
class FockYield:
    """Click-pattern probabilities for a photon-number pair input."""

    none: float
    c_only: float
    d_only: float
    both: float


def fock_pair_yield(n_a: int, n_b: int, arm_t, p_d: float) -> FockYield:
    """Exact click-pattern probabilities when |n_a>, |n_b> cross per-arm
    loss, interfere on the balanced splitter and hit threshold detectors.

    Loss leaves k of the n = n_a + n_b photons with weight
    t^k (1 - t)^(n - k) times an exact rational coefficient; with no
    survivor only dark counts click.  With unlimited decoy intensities
    these equal the yields entering the phase-error bound.
    """
    n_a, n_b, arm_t, p_d = _N_A(n_a), _N_B(n_b), _ARM_T(arm_t), _P_D(p_d)
    # survivors all at c (as many as all at d), at both
    n = n_a + n_b
    vacuum, (at_c, split) = _survivors(n, _yield_coefficients(n_a, n_b), _powers(arm_t, n))
    one = _one_click(vacuum, at_c, p_d)
    return _scalars(FockYield(none=(1.0 - p_d) * (1.0 - p_d) * vacuum, c_only=one, d_only=one,
                              both=p_d * p_d * vacuum + split + p_d * (2.0 * at_c)))


def cal_phase_error(p: CalParams, ch: CalChannel, p_d: float):
    """Upper bound on the phase error of the single-click key outcomes.

    Sums, per parity sector, the coherent amplitudes times the square
    roots of the exact photon-pair yields over the cat-sum sets, bounds
    every remaining yield by 1 inside the tail term, squares, and divides
    by the key-basis gain of the phase-aligned channel.  The bound uses
    only phase-randomized quantities, so it does not move with sigma_phi;
    it may exceed 1/2, which downstream rates clamp.  Undefined where the
    gain is 0.
    """
    p, ch = _PARAMS(p), _CHANNEL(ch)
    arm_t = ch.gamma / p.mu_zeta
    if not _within(arm_t, 0.0, 1.0 + 1e-12):
        raise DomainError("channel gamma inconsistent with intensity")
    arm_t = np.minimum(arm_t, 1.0)
    gain_ref = cal_gain(replace(ch, sigma_phi=0.0), p_d)
    if not _within(gain_ref, 0.0, np.inf, lo_open=True):
        raise DomainError("phase error undefined at zero gain")
    powers = _powers(arm_t, _N_TOP)  # t^k and (1 - t)^k once
    roots: dict = {}  # sqrt of the c-only yield per survivor polynomial
    total = 0.0
    for j, sset in _SETS.items():
        raw = _cat_raw(p.mu_zeta, j)
        explicit = 0.0
        for m_a, m_b in sset:
            n_a, n_b = 2 * m_a + j, 2 * m_b + j
            n, poly = n_a + n_b, _yield_coefficients(n_a, n_b)[0]  # all at c
            if (n, poly) not in roots:
                vacuum, (at_c,) = _survivors(n, (poly,), powers)
                y = _one_click(vacuum, at_c, p_d)
                roots[n, poly] = np.sqrt(np.maximum(y, 0.0))
            explicit = explicit + raw[m_a] * raw[m_b] * roots[n, poly]
        total = total + np.square(explicit + _cat_remainder(p.mu_zeta, j))
    return _scalars(total / gain_ref)


@dataclass(frozen=True)
class CalStats:
    """The key-basis gain p_xx of one single-click outcome, its bit error
    e_x and the phase-error bound e_z_bound.  The errors are undefined
    without gain and read 0 and 1 there."""

    gain: float
    e_x: float
    e_z_bound: float


_STATS = _checker(spec(CalStats), "c")


def cal_stats(p: CalParams, ch: CalChannel, p_d: float) -> CalStats:
    """cal_gain, cal_bit_error and cal_phase_error, each evaluated once
    over the whole input; the two errors only where there is gain."""
    p_xx = cal_gain(ch, p_d)
    keyed = np.asarray(p_xx > 0.0)
    if keyed.all():  # gain everywhere, as dark counts give: no masked copy
        e_x, e_z = cal_bit_error(ch, p_d), cal_phase_error(p, ch, p_d)
    else:
        ch_keyed = replace(ch, gamma=np.asarray(ch.gamma)[keyed])
        e_x, e_z = np.zeros(keyed.shape), np.ones(keyed.shape)
        e_x[keyed] = cal_bit_error(ch_keyed, p_d)
        e_z[keyed] = cal_phase_error(p, ch_keyed, p_d)
    return _scalars(CalStats(gain=p_xx, e_x=e_x, e_z_bound=e_z))


def cal_rate(c: CalStats, f_ec: float):
    """Secret key per transmitted signal, both single-click outcomes summed.

    R = 2 p_xx [1 - f_ec H2(e_x) - H2(min(1/2, e_z))], floored at 0, with
    e_x clamped to [0, 1], all from the statistics c; no key where the
    gain p_xx is 0.
    """
    c, f_ec = _STATS(c), _F_EC(f_ec)
    h_x, h_z = _entropies(np.minimum(1.0, np.maximum(0.0, c.e_x)), np.minimum(0.5, c.e_z_bound))
    key = 2.0 * c.gain * (1.0 - f_ec * h_x - h_z)
    return _scalars(np.where(key > 0.0, key, 0.0))
