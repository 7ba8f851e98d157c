"""Coherent-state twin-field protocol with phase encoding (CAL).

Key bits ride on the sign of a dim coherent state interfered at the
middle node; control windows send phase-randomized decoys whose
photon-number yields bound the phase error through the even/odd cat-state
decomposition of the signal states.  Phase noise enters only the X-basis
bit error; the Z-basis phase-error bound is built from phase-randomized
states and is independent of the phase mismatch by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .decoy import _check_f_ec, binary_entropy
from .errors import DomainError

__all__ = [
    "CalParams",
    "CalChannel",
    "FockYield",
    "make_cal_channel",
    "cal_gain",
    "cal_bit_error",
    "cat_coefficients",
    "fock_pair_yield",
    "cal_phase_error",
    "cal_rate",
]

FOCK_INPUT_MAX = 6  # per-port input limit for pair yields


@dataclass(frozen=True)
class CalParams:
    """Signal intensity and cat-sum sets.

    set_even / set_odd list the (m_a, m_b) index pairs whose photon-number
    yields enter the phase-error sum explicitly (photon numbers 2m + j for
    parity j); everything else is bounded by 1 inside the tail term.
    m_max truncates the cat amplitude sums.
    """

    mu_zeta: float = 0.018
    set_even: tuple = ((0, 0), (0, 1), (1, 0), (1, 1))
    set_odd: tuple = ((0, 0),)
    m_max: int = 20

    def __post_init__(self):
        if self.mu_zeta <= 0:
            raise DomainError("signal intensity must be > 0")
        if self.m_max < 2:
            raise DomainError("m_max must be >= 2")
        top = max(2 * m + 1 for pair in self.set_even + self.set_odd for m in pair)
        if top > FOCK_INPUT_MAX:
            raise DomainError("cat-sum sets exceed the supported photon cutoff")


@dataclass(frozen=True)
class CalChannel:
    """Channel as seen by the signal states.

    gamma = arm_t * mu_zeta combines per-arm transmittance and intensity;
    the interference contrast is omega = cos(sigma_phi) cos(theta).
    """

    gamma: float
    sigma_phi: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise DomainError("gamma must be >= 0")

    @property
    def omega(self) -> float:
        return math.cos(self.sigma_phi) * math.cos(self.theta)


def make_cal_channel(arm_t: float, p: CalParams, sigma_phi: float = 0.0,
                     theta: float = 0.0) -> CalChannel:
    """Channel for a given per-arm effective transmittance."""
    if not 0.0 <= arm_t <= 1.0:
        raise DomainError("arm transmittance must lie in [0, 1]")
    return CalChannel(gamma=arm_t * p.mu_zeta, sigma_phi=sigma_phi, theta=theta)


def cal_gain(ch: CalChannel, p_d: float) -> float:
    """Gain of one single-click outcome when both parties pick the key basis.

    (1/2)(1-p_d)(e^{-gamma omega} + e^{gamma omega}) e^{-gamma}
    - (1-p_d)^2 e^{-2 gamma}; the two single-click outcomes are equal by
    symmetry.
    """
    if not 0.0 <= p_d <= 1.0:
        raise DomainError("dark probability must lie in [0, 1]")
    g, om = ch.gamma, ch.omega
    return float(0.5 * (1 - p_d) * (math.exp(-g * om) + math.exp(g * om))
                 * math.exp(-g) - (1 - p_d) ** 2 * math.exp(-2 * g))


def cal_bit_error(ch: CalChannel, p_d: float) -> float:
    """Bit-error rate of the single-click key outcomes.

    Grows with the phase mismatch through omega and tends to 1/2 when dark
    counts dominate.
    """
    if not 0.0 <= p_d <= 1.0:
        raise DomainError("dark probability must lie in [0, 1]")
    g, om = ch.gamma, ch.omega
    den = math.exp(-g * om) + math.exp(g * om) - 2 * (1 - p_d) * math.exp(-g)
    if den <= 0.0:
        raise DomainError("bit error undefined at zero gain")
    return float((math.exp(-g * om) - (1 - p_d) * math.exp(-g)) / den)


def _parity_weight(mu: float, j: int) -> float:
    """Squared norm of the parity-j component of a coherent state."""
    return 0.5 * (1.0 + (-1.0) ** j * math.exp(-2.0 * mu))


@lru_cache(maxsize=64)
def _cat_raw(mu: float, j: int, m_max: int) -> np.ndarray:
    """Coherent amplitudes restricted to parity j: entry m is the |2m+j>
    amplitude of |sqrt(mu)>; the squared entries sum to the parity weight.
    Cached per (mu, j, m_max), so the array is read-only."""
    ns = 2 * np.arange(m_max + 1) + j
    log_fact = np.array([math.log(math.factorial(n)) for n in ns])
    log_amp = -mu / 2.0 + 0.5 * ns * np.log(mu) - 0.5 * log_fact
    amp = np.exp(log_amp)
    amp.flags.writeable = False
    return amp


def _cat_tail(mu: float, j: int, m_max: int, last: float) -> float:
    """Geometric bound on the amplitude sum beyond m_max."""
    n = 2 * m_max + j
    q = mu / math.sqrt((n + 2) * (n + 1))
    if q >= 1.0:
        raise DomainError("m_max too small for this intensity")
    return last * q / (1.0 - q)


def cat_coefficients(mu_zeta: float, j: int, n_max: int) -> np.ndarray:
    """Photon-number amplitudes of the normalized parity-j cat state.

    Entry n is the |n> amplitude of the normalized even (j=0) or odd
    (j=1) superposition of |+/-zeta>; entries of the wrong parity are
    zero and the squares sum to 1 up to the truncation tail.
    """
    if j not in (0, 1):
        raise DomainError("parity j must be 0 or 1")
    if n_max < 3:
        raise DomainError("n_max must be >= 3")
    if mu_zeta <= 0:
        raise DomainError("intensity must be > 0")
    out = np.zeros(n_max + 1)
    m_max = (n_max - j) // 2
    out[2 * np.arange(m_max + 1) + j] = _cat_raw(mu_zeta, j, m_max)
    return out / math.sqrt(_parity_weight(mu_zeta, j))


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


@lru_cache(maxsize=1)
def _bs_table() -> tuple:
    """Splitter output distributions of every input |k_a, k_b> with
    k_a, k_b <= FOCK_INPUT_MAX: entry [k_a][k_b][m_c] is the probability of
    m_c photons at c and k_a + k_b - m_c at d, each exact value rounded
    once to the nearest float."""
    return tuple(tuple(tuple(map(float, _bs_exact(k_a, k_b)))
                       for k_b in range(FOCK_INPUT_MAX + 1))
                 for k_a in range(FOCK_INPUT_MAX + 1))


def _binomial_weights(n: int, t: float) -> list:
    """Survivor distribution of n photons through transmittance t; plain
    powers stay finite for any t in [0, 1], subnormals included."""
    return [math.comb(n, k) * t**k * (1.0 - t) ** (n - k) for k in range(n + 1)]


@dataclass(frozen=True)
class FockYield:
    """Click-pattern probabilities for a photon-number pair input."""

    none: float
    c_only: float
    d_only: float
    both: float


def fock_pair_yield(n_a: int, n_b: int, arm_t: float, p_d: float) -> FockYield:
    """Exact click-pattern probabilities when |n_a>, |n_b> cross per-arm
    loss, interfere on the balanced splitter and hit threshold detectors.

    Loss acts as a binomial on each input before the splitter; the
    splitter probabilities are exact rationals, each rounded once.
    With unlimited decoy intensities these equal the yields entering the
    phase-error bound.
    """
    if not 0 <= n_a <= FOCK_INPUT_MAX or not 0 <= n_b <= FOCK_INPUT_MAX:
        raise DomainError(f"photon numbers must lie in [0, {FOCK_INPUT_MAX}]")
    if not 0.0 <= arm_t <= 1.0 or not 0.0 <= p_d <= 1.0:
        raise DomainError("arm_t and p_d must lie in [0, 1]")
    none = c_only = d_only = both = 0.0
    pa = _binomial_weights(n_a, arm_t)
    pb = _binomial_weights(n_b, arm_t)
    table = _bs_table()
    for k_a in range(n_a + 1):
        for k_b in range(n_b + 1):
            w = pa[k_a] * pb[k_b]
            if w == 0.0:
                continue
            tot = k_a + k_b
            for m_c, p_bs in enumerate(table[k_a][k_b]):
                if p_bs == 0.0:
                    continue
                click_c = 1.0 if m_c > 0 else p_d
                click_d = 1.0 if m_c < tot else p_d
                ww = w * p_bs
                none += ww * (1 - click_c) * (1 - click_d)
                c_only += ww * click_c * (1 - click_d)
                d_only += ww * (1 - click_c) * click_d
                both += ww * click_c * click_d
    return FockYield(none=none, c_only=c_only, d_only=d_only, both=both)


def cal_phase_error(p: CalParams, ch: CalChannel, p_d: float) -> float:
    """Upper bound on the phase error of the single-click key outcomes.

    Sums, per parity sector, the coherent amplitudes times the square
    roots of the exact photon-pair yields over the configured sets, bounds
    every remaining yield by 1 inside the tail term, squares, and divides
    by the key-basis gain of the phase-aligned channel.  The bound uses
    only phase-randomized quantities, so it does not move with sigma_phi;
    it may exceed 1/2, which downstream rates clamp.
    """
    if p.mu_zeta <= 0:
        raise DomainError("intensity must be > 0")
    arm_t = ch.gamma / p.mu_zeta
    if arm_t > 1.0 + 1e-12:
        raise DomainError("channel gamma inconsistent with intensity")
    arm_t = min(arm_t, 1.0)
    gain_ref = cal_gain(replace(ch, sigma_phi=0.0), p_d)
    if gain_ref <= 0.0:
        raise DomainError("phase error undefined at zero gain")
    total = 0.0
    for j, sset in ((0, p.set_even), (1, p.set_odd)):
        raw = _cat_raw(p.mu_zeta, j, p.m_max)
        explicit = 0.0
        overlap = 0.0
        for m_a, m_b in sset:
            y = fock_pair_yield(2 * m_a + j, 2 * m_b + j, arm_t, p_d).c_only
            explicit += raw[m_a] * raw[m_b] * math.sqrt(max(y, 0.0))
            overlap += raw[m_a] * raw[m_b]
        amp_sum = float(raw.sum()) + _cat_tail(p.mu_zeta, j, p.m_max, raw[-1])
        delta = amp_sum**2 - overlap
        total += (explicit + delta) ** 2
    return total / gain_ref


def _cal_key(p_xx: float, e_x: float, e_z: float, f_ec: float) -> float:
    """2 p_xx [1 - f_ec H2(e_x) - H2(min(1/2, e_z))] floored at 0, e_x
    clamped to [0, 1]."""
    e_x = min(max(e_x, 0.0), 1.0)
    bracket = 1.0 - f_ec * binary_entropy(e_x) - binary_entropy(min(0.5, e_z))
    return max(0.0, 2.0 * p_xx * bracket)


def cal_rate(p: CalParams, ch: CalChannel, p_d: float, f_ec: float) -> float:
    """Secret key per transmitted signal, both single-click outcomes summed.

    R = 2 p_xx [1 - f_ec H2(e_x) - H2(min(1/2, e_z))], floored at 0.
    """
    _check_f_ec(f_ec)
    p_xx = cal_gain(ch, p_d)
    if p_xx <= 0.0:
        return 0.0
    return _cal_key(p_xx, cal_bit_error(ch, p_d), cal_phase_error(p, ch, p_d), f_ec)
