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

from ._fields import Checked, spec
from .cal import _bs_exact
from .decoy import ChannelErrorModel
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
_BLOCK = 1 << 18
# Relative widening of the ends of the phase band of the c threshold:
# at least 4,096 ulps, where numpy's exp strays from exact by a few.
_EXP_SLACK = 2.0 ** -40
_TINY = np.finfo(float).tiny  # smallest positive normal double


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


def _pool_size() -> int:
    return len(os.sched_getaffinity(0))


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """Generator whose next double is double `offset` of the seed's stream.

    One Philox counter step yields four doubles, so advance whole steps
    and discard the remainder.
    """
    rng = np.random.Generator(np.random.Philox(seed).advance(offset // 4))
    rng.random(offset % 4)
    return rng


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
    stream.  Per chunk of 2^20 samples it holds the chunk's phases
    (uniform law only), then its uniforms for detector c, then those for
    detector d.  Blocks of 2^18 samples open their slices of that stream
    directly and run on a thread pool of one worker per available core,
    so the counts do not depend on the core count.

    A detector clicks when its uniform is at or above its no-click
    probability: t_c = (1 - p_d) exp(-base - cross cos delta) at c and
    surv_prod / t_c at d, with surv_prod = (1 - p_d)^2 exp(-2 base).
    Both are monotone in cos delta in [-1, 1], so each lies in a band
    between its values at cos delta = +1 and -1 (_bands).  A uniform
    below its band cannot click and one at or above it must, whatever
    the phase.  Each block decides those from its uniforms alone and
    evaluates cos, exp and the division only for the uniforms inside a
    band; it draws its phase slice only if there are any.  The counts
    are bit for bit those of evaluating every sample: the band takes
    the same rounded steps as the per-sample thresholds, and each step
    but exp (product, difference, division) rounds monotonically, while
    the ends of the c band are widened by a relative _EXP_SLACK, far
    above the few ulps by which exp may stray from monotone.  A fixed
    phase has one threshold per detector, so its band is empty.
    """
    if not (0.0 <= mu_a < math.inf and 0.0 <= mu_b < math.inf):
        raise DomainError("intensities must be >= 0 and finite")
    if not 0.0 <= arm_t <= 1.0 or not 0.0 <= p_d <= 1.0:
        raise DomainError("arm transmittance and dark probability must lie in [0, 1]")
    from concurrent.futures import ThreadPoolExecutor

    base = arm_t * (mu_a + mu_b) / 2.0
    cross = arm_t * np.sqrt(mu_a * mu_b)
    # survival probabilities multiply to a phase-independent constant
    surv_prod = (1.0 - p_d) ** 2 * np.exp(-2.0 * base)
    if not (_TINY <= surv_prod and cross < math.inf):
        raise DomainError("the no-click product (1 - p_d)^2 exp(-arm_t (mu_a + mu_b)) must "
                          "be a positive normal float: p_d = 1 or the pulses are too bright")

    uniform = isinstance(cfg.phase, UniformRandomized)
    bands = _bands(base, cross, surv_prod, p_d, cfg.phase)
    # (first sample of the chunk, chunk length, block start in the chunk)
    blocks = [(done, min(_CHUNK, cfg.samples - done), lo)
              for done in range(0, cfg.samples, _CHUNK)
              for lo in range(0, min(_CHUNK, cfg.samples - done), _BLOCK)]

    def count(share):  # one worker: its buffers serve its whole share of blocks
        size = min(_BLOCK, cfg.samples)
        u = np.empty(size)
        clicks = np.empty((2, size), dtype=bool)
        open_buf = np.empty(size, dtype=bool)
        n_c = n_d = n_both = 0
        for done, m, lo in share:
            n = min(_BLOCK, m - lo)
            at = (3 if uniform else 2) * done + lo  # the block's first draw
            un, opened = u[:n], open_buf[:n]
            undecided = []  # per detector: (its clicks, open samples, their uniforms)
            for k, (low, high) in enumerate(bands):  # detector c, then d
                click = clicks[k, :n]
                # the detector's slice of the chunk, after the phases if drawn
                _stream_at(cfg.seed, at + (k + uniform) * m).random(out=un)
                np.greater_equal(un, high, out=click)
                if low < high:  # uniforms in [low, high) wait for their phase
                    np.greater_equal(un, low, out=opened)
                    opened ^= click
                    idx = np.flatnonzero(opened)
                    undecided.append((click, idx, un[idx]))
            if any(idx.size for _, idx, _ in undecided):
                _stream_at(cfg.seed, at).random(out=un)  # the block's phases
                for k, (click, idx, u_open) in enumerate(undecided):
                    no_click = un[idx]
                    no_click *= 2.0 * np.pi
                    _no_click_c(no_click, base, cross, p_d)
                    if k:
                        np.divide(surv_prod, no_click, out=no_click)
                    click[idx] = u_open >= no_click
            cc, cd = clicks[0, :n], clicks[1, :n]
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
    return McClickStats(
        none=freq[0], c_only=freq[1], d_only=freq[2], both=freq[3],
        se_none=se[0], se_c_only=se[1], se_d_only=se[2], se_both=se[3],
        samples=cfg.samples, seed=cfg.seed)


def fock_bs_distribution(n_a: int, n_b: int) -> np.ndarray:
    """Exact output photon-number distribution of a 50:50 beamsplitter.

    Entry k of the returned array is the probability of finding k photons
    in output port c (and n_a + n_b - k in port d) for the input
    |n_a, n_b>: the exact rational of the combinatorial amplitude sum,
    rounded once.
    """
    if n_a < 0 or n_b < 0 or n_a + n_b > 12:
        raise DomainError("fock_bs_distribution supports 0 <= n_a + n_b <= 12")
    return np.array([float(p) for p in _bs_exact(n_a, n_b)])


def poisson_true_yields(m: ChannelErrorModel, n: int) -> tuple[float, float]:
    """(Y_n, e_n Y_n) for an n-photon state under the per-photon click model.

    Y_n = 1 - (1 - p_dc)(1 - eta_hat)^n; the error share keeps dark counts
    at half error and ramps the misalignment + phase errors in with the
    detected-signal fraction, which makes the Poisson mixture reproduce
    the intensity-level gain and error-gain formulas identically.
    """
    if not 0 <= n < math.inf:
        raise DomainError("photon number must be >= 0 and finite")
    return _yields(m, n)


def _yields(m: ChannelErrorModel, n):
    """poisson_true_yields at photon number n, or over an array of them."""
    miss = (1.0 - m.eta_hat) ** n
    return (1.0 - (1.0 - m.p_dc) * miss,
            m.p_dc / 2.0 + (m.e_total - m.p_dc / 2.0) * (1.0 - miss))


def poisson_yield_gain(mu: float, m: ChannelErrorModel) -> tuple[float, float]:
    """Exact (Q_mu, E_mu) by summing the Poisson photon-number mixture.

    The photon-number cutoff doubles from 20 until the Poisson tail mass
    beyond it is below 1e-14.
    """
    if not 0.0 <= mu < math.inf:
        raise DomainError("intensity must be >= 0 and finite")
    n_max = 20
    while math.exp(-mu + (n_max + 1) * math.log(max(mu, 1e-300))
                   - math.lgamma(n_max + 2)) > 1e-15 and n_max < 10_000:
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
