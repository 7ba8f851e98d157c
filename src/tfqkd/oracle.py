"""Independent brute-force validators for the analytic channel models.

Three routes that avoid the approximations they check: a seeded
Monte-Carlo simulation of threshold-detector clicks on interfering
attenuated coherent pulses, the exact combinatorial beamsplitter
distribution for photon-number inputs (the rationals behind the CAL
pair yields, rounded once), and exact Poisson-mixture gains for the
decoy-state formulas.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._fields import Checked, _checker, _scalars, spec
from .cal import _bs_exact
from .decoy import _MODEL, ChannelErrorModel
from .errors import DomainError

__all__ = [
    "UniformRandomized",
    "FixedDelta",
    "McConfig",
    "McClickStats",
    "mc_click_stats",
    "fock_bs_distribution",
    "poisson_yield_gain",
    "poisson_true_yields",
]

BIT_GENERATOR = "philox4x64"  # counter-based
# The stream is laid out in chunks of _CHUNK samples and sampled in blocks
# of _BLOCK samples; a chunk holds a whole number of blocks.
_CHUNK = 1 << 20
_BLOCK = 1 << 16
# Relative widening of the ends of the phase band of the c threshold:
# at least 4,096 ulps, where numpy's exp strays from exact by a few.
_EXP_SLACK = 2.0 ** -40
_TINY = np.finfo(float).tiny  # smallest positive normal double
_NO_WORD = 1 << 64  # above every 64-bit word


@dataclass(frozen=True)
class UniformRandomized:
    """Relative phase uniform on [0, 2 pi)."""


@dataclass(frozen=True)
class FixedDelta(Checked):
    """Deterministic relative phase (rad)."""

    delta: float = field(default=0.0, metadata=spec(float))


PhaseDistribution = Union[UniformRandomized, FixedDelta]


@dataclass(frozen=True)
class McConfig(Checked):
    """Monte-Carlo sampling plan: sample count, seed, phase law."""

    samples: int = field(default=1_000_000, metadata=spec(int, ge=1))
    seed: int = field(default=0, metadata=spec(int, ge=0))
    phase: PhaseDistribution = field(default_factory=UniformRandomized,
                                     metadata=spec((UniformRandomized, FixedDelta)))


@dataclass(frozen=True)
class McClickStats:
    """Outcome frequencies with binomial standard errors and RNG metadata."""

    none: float
    c_only: float
    d_only: float
    both: float
    se_none: float
    se_c_only: float
    se_d_only: float
    se_both: float
    samples: int
    seed: int
    bit_generator: str = BIT_GENERATOR


# the field contract's checkers of the public functions' arguments
_MU_A, _MU_B, _MU = (_checker(spec(float, ge=0), name) for name in ("mu_a", "mu_b", "mu"))
_ARM_T, _P_D = (_checker(spec(float, ge=0, le=1), name) for name in ("arm_t", "p_d"))
_N_A, _N_B, _PHOTONS = (_checker(spec(int, ge=0), name) for name in ("n_a", "n_b", "n"))
_CFG = _checker(spec(McConfig), "cfg")


def _pool_size() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _words_at(seed: int, offset: int, n: int) -> np.ndarray:
    """Raw 64-bit words offset to offset + n of the seed's Philox stream.

    One Philox counter step yields four words, so advance whole steps
    and discard the remainder.
    """
    bits = np.random.Philox(seed).advance(offset // 4)
    bits.random_raw(offset % 4)
    return bits.random_raw(n)


def _doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that numpy's random() makes of raw words."""
    return (words >> 11) * 2.0 ** -53


def _word(x: float) -> int:
    """The least word w with (w >> 11) 2^-53 >= x: 0 if x <= 0, and
    _NO_WORD if no 64-bit word reaches x (x > 1 - 2^-53).  Scaling by
    2^53 is exact, so the word is ceil(x 2^53) 2^11."""
    return min(max(math.ceil(x * 2.0 ** 53), 0), 1 << 53) << 11


def _at_least(words: np.ndarray, word: int) -> np.ndarray:
    """words >= word, for a word from _word."""
    if word == _NO_WORD:
        return np.zeros(words.shape, dtype=bool)
    return words >= np.uint64(word)


def _no_click_c(phases, base, cross, p_d):
    """In place: relative phases -> no-click probability at detector c."""
    np.cos(phases, out=phases)
    phases *= -cross
    phases -= base
    np.exp(phases, out=phases)
    phases *= 1.0 - p_d
    return phases


def _bands(base, cross, surv_prod, p_d, phase: PhaseDistribution):
    """((lowest, highest) no-click probability at detector c, the same at d)
    over every phase the law can draw, as _no_click_c and the division by
    it round them."""
    if isinstance(phase, UniformRandomized):
        # cos delta = +1 and -1, each end widened past exp's rounding
        lo_c = (1.0 - p_d) * (np.exp(-cross - base) * (1.0 - _EXP_SLACK))
        hi_c = (1.0 - p_d) * (np.exp(cross - base) * (1.0 + _EXP_SLACK))
    else:  # one phase, so the same two no-click probabilities for every sample
        lo_c = hi_c = _no_click_c(np.array([phase.delta]), base, cross, p_d)[0]
    return (lo_c, hi_c), (surv_prod / hi_c, surv_prod / lo_c)


def mc_click_stats(mu_a: float, mu_b: float, arm_t: float, p_d: float,
                   cfg: McConfig = McConfig()) -> McClickStats:
    """Sampled click statistics of two interfering attenuated pulses.

    Each sample draws a relative phase delta, forms the two detector
    intensities t (mu_a + mu_b +/- 2 sqrt(mu_a mu_b) cos delta) / 2 and
    draws threshold clicks with probability 1 - (1 - p_d) exp(-I).
    Intensity-level sampling suffices here: every analytic formula under
    test is itself an intensity-level model.

    Deterministic for a fixed seed: all draws come from one Philox
    stream, each a uniform u = (w >> 11) 2^-53 of a raw 64-bit word w,
    as numpy's Generator.random makes it.  Per chunk of 2^20 samples the
    stream holds the chunk's phases (uniform law only), then its
    uniforms for detector c, then those for detector d.  Blocks of 2^16
    samples open their slices of that stream directly and run on a
    thread pool of one worker per available core, so the counts do not
    depend on the core count.

    A detector clicks when its uniform is at or above its no-click
    probability: t_c = (1 - p_d) exp(-base - cross cos delta) at c and
    surv_prod / t_c at d, with surv_prod = (1 - p_d)^2 exp(-2 base).
    Both are monotone in cos delta in [-1, 1], so each lies in a band
    between its values at cos delta = +1 and -1 (_bands).  A uniform
    below its band cannot click and one at or above it must, whatever
    the phase.  u >= x holds exactly when w >= _word(x), so each block
    decides those on its raw words alone; only the words inside a band,
    and the phase words at their samples, become doubles, and only
    those samples have cos, exp and the division evaluated.  A block
    draws its phase slice only if it has such samples.  The counts are
    bit for bit those of evaluating every sample: the band takes the
    same rounded steps as the per-sample thresholds, and each step but
    exp (product, difference, division) rounds monotonically, while the
    ends of the c band are widened by a relative _EXP_SLACK, far above
    the few ulps by which exp may stray from monotone.  A fixed phase
    has one threshold per detector, so its band is empty.
    """
    mu_a, mu_b, arm_t, p_d = _MU_A(mu_a), _MU_B(mu_b), _ARM_T(arm_t), _P_D(p_d)
    cfg = _CFG(cfg)
    from concurrent.futures import ThreadPoolExecutor

    base = arm_t * (mu_a + mu_b) / 2.0
    cross = arm_t * np.sqrt(mu_a * mu_b)
    # survival probabilities multiply to a phase-independent constant
    surv_prod = (1.0 - p_d) ** 2 * np.exp(-2.0 * base)
    if not (_TINY <= surv_prod and cross < math.inf):
        raise DomainError("the no-click product (1 - p_d)^2 exp(-arm_t (mu_a + mu_b)) must "
                          "be a positive normal float: p_d = 1 or the pulses are too bright")

    uniform = isinstance(cfg.phase, UniformRandomized)
    bands = [(_word(low), _word(high))
             for low, high in _bands(base, cross, surv_prod, p_d, cfg.phase)]
    # (first sample of the chunk, chunk length, block start in the chunk)
    blocks = [(done, min(_CHUNK, cfg.samples - done), lo)
              for done in range(0, cfg.samples, _CHUNK)
              for lo in range(0, min(_CHUNK, cfg.samples - done), _BLOCK)]

    def count(share):  # one worker's share of blocks
        n_c = n_d = n_both = 0
        for done, m, lo in share:
            n = min(_BLOCK, m - lo)
            at = (3 if uniform else 2) * done + lo  # the block's first draw
            clicks, undecided = [], []  # (detector, its clicks, open samples, their uniforms)
            for k, (low, high) in enumerate(bands):  # detector c, then d
                # the detector's slice of the chunk, after the phases if drawn
                words = _words_at(cfg.seed, at + (k + uniform) * m, n)
                click = _at_least(words, high)
                clicks.append(click)
                if low < high:  # words in [low, high) wait for their phase
                    idx = np.flatnonzero(_at_least(words, low) ^ click)
                    undecided.append((k, click, idx, _doubles(words[idx])))
            if any(idx.size for _, _, idx, _ in undecided):
                phases = _words_at(cfg.seed, at, n)  # the block's phase words
                for k, click, idx, u_open in undecided:
                    no_click = _doubles(phases[idx])
                    no_click *= 2.0 * np.pi
                    _no_click_c(no_click, base, cross, p_d)
                    if k:
                        np.divide(surv_prod, no_click, out=no_click)
                    click[idx] = u_open >= no_click
            cc, cd = clicks
            n_c += int(np.count_nonzero(cc))
            n_d += int(np.count_nonzero(cd))
            n_both += int(np.count_nonzero(np.logical_and(cc, cd, out=cc)))
        return n_c, n_d, n_both

    workers = min(_pool_size(), len(blocks))
    with ThreadPoolExecutor(workers) as pool:
        n_c, n_d, n_both = map(sum, zip(*pool.map(
            count, (blocks[w::workers] for w in range(workers)))))
    counts = np.array([cfg.samples - n_c - n_d + n_both, n_c - n_both,
                       n_d - n_both, n_both], dtype=np.int64)  # none, c, d, both
    freq = counts / cfg.samples
    se = np.sqrt(freq * (1.0 - freq) / cfg.samples)
    return _scalars(McClickStats(
        none=freq[0], c_only=freq[1], d_only=freq[2], both=freq[3],
        se_none=se[0], se_c_only=se[1], se_d_only=se[2], se_both=se[3],
        samples=cfg.samples, seed=cfg.seed))


def fock_bs_distribution(n_a: int, n_b: int) -> np.ndarray:
    """Exact output photon-number distribution of a 50:50 beamsplitter.

    Entry k of the returned array is the probability of finding k photons
    in output port c (and n_a + n_b - k in port d) for the input
    |n_a, n_b>: the exact rational of the combinatorial amplitude sum,
    rounded once.
    """
    n_a, n_b = _N_A(n_a), _N_B(n_b)
    if n_a + n_b > 12:
        raise DomainError("fock_bs_distribution supports 0 <= n_a + n_b <= 12")
    return np.array([float(p) for p in _bs_exact(n_a, n_b)])


def poisson_true_yields(m: ChannelErrorModel, n: int) -> tuple[float, float]:
    """(Y_n, e_n Y_n) for an n-photon state under the per-photon click model.

    Y_n = 1 - (1 - p_dc)(1 - eta_hat)^n; the error share keeps dark counts
    at half error and ramps the misalignment + phase errors in with the
    detected-signal fraction, which makes the Poisson mixture reproduce
    the intensity-level gain and error-gain formulas identically.
    """
    m, n = _MODEL(m), _PHOTONS(n)
    return _yields(m, n)


def _yields(m: ChannelErrorModel, n):
    """poisson_true_yields at photon number n, or over an array of them."""
    miss = (1.0 - m.eta_hat) ** n
    return (1.0 - (1.0 - m.p_dc) * miss,
            m.p_dc / 2.0 + (m.e_total - m.p_dc / 2.0) * (1.0 - miss))


def poisson_yield_gain(mu: float, m: ChannelErrorModel) -> tuple[float, float]:
    """Exact (Q_mu, E_mu) by summing the Poisson photon-number mixture.

    The photon-number cutoff n_max doubles from 20 until the Poisson
    mass at n_max + 1 is at most 1e-15 and lies past the mode, with
    n_max + 2 > 2 mu: each later term is then less than half the one
    before, so the tail beyond n_max is below 2e-15.  Raises DomainError
    where that needs a cutoff past 10,240 (mu above about 5,100), and
    for a model that holds arrays.
    """
    mu, m = _MU(mu), _MODEL(m)
    if any(np.ndim(v) for v in (m.eta_hat, m.p_dc, m.e_total)):
        raise DomainError("m must be a ChannelErrorModel of scalars for the photon-number sum")
    n_max = 20
    while n_max + 2 <= 2.0 * mu or math.exp(
            -mu + (n_max + 1) * math.log(max(mu, 1e-300)) - math.lgamma(n_max + 2)) > 1e-15:
        if n_max >= 10_000:
            raise DomainError(f"mu = {mu} needs a photon-number cutoff past {n_max}")
        n_max *= 2
    ns = np.arange(n_max + 1)
    log_fact = np.array([math.lgamma(n + 1) for n in range(n_max + 1)])
    log_pn = -mu + ns * (np.log(mu) if mu > 0 else 0.0) - log_fact
    p_n = np.exp(log_pn)
    if mu == 0.0:
        p_n = np.zeros(n_max + 1)
        p_n[0] = 1.0
    y, ey = _yields(m, ns)
    q = float(np.dot(p_n, y))
    eq = float(np.dot(p_n, ey))
    if q <= 0.0:
        raise DomainError("gain vanished; QBER undefined")
    return q, eq / q
