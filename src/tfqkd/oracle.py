"""Independent brute-force validators for the analytic channel models.

Three routes that deliberately avoid the code paths they check: a seeded
Monte-Carlo simulation of threshold-detector clicks on interfering
attenuated coherent pulses, an exact combinatorial beamsplitter
distribution for photon-number inputs, and exact Poisson-mixture gains
for the decoy-state formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import gammaln

from .decoy import ChannelErrorModel
from .errors import DomainError

__all__ = [
    "UniformRandomized",
    "FixedDelta",
    "GaussianSigma",
    "McConfig",
    "McClickStats",
    "mc_click_stats",
    "fock_bs_distribution",
    "poisson_yield_gain",
    "poisson_true_yields",
]

BIT_GENERATOR = "philox4x64"  # counter-based, jump-splittable


@dataclass(frozen=True)
class UniformRandomized:
    """Relative phase uniform on [0, 2 pi)."""

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, 2.0 * np.pi, n)


@dataclass(frozen=True)
class FixedDelta:
    """Deterministic relative phase (rad)."""

    delta: float = 0.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.delta)


@dataclass(frozen=True)
class GaussianSigma:
    """Zero-mean Gaussian relative phase with standard deviation sigma (rad)."""

    sigma: float = 0.1

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, n)


PhaseDistribution = Union[UniformRandomized, FixedDelta, GaussianSigma]


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo sampling plan: sample count, seed, phase law, stream count."""

    samples: int = 1_000_000
    seed: int = 0
    phase: PhaseDistribution = field(default_factory=UniformRandomized)
    streams: int = 1

    def __post_init__(self):
        if self.samples < 1 or self.streams < 1:
            raise DomainError("samples and streams must be >= 1")


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

    def frequency(self, outcome: str) -> float:
        return getattr(self, outcome)

    def standard_error(self, outcome: str) -> float:
        return getattr(self, "se_" + outcome)


def mc_click_stats(mu_a: float, mu_b: float, arm_t: float, p_d: float,
                   cfg: McConfig = McConfig()) -> McClickStats:
    """Sampled click statistics of two interfering attenuated pulses.

    Each sample draws a relative phase delta, forms the two detector
    intensities t (mu_a + mu_b +/- 2 sqrt(mu_a mu_b) cos delta) / 2 and
    draws threshold clicks with probability 1 - (1 - p_d) exp(-I).
    Intensity-level sampling suffices here: every analytic formula under
    test is itself an intensity-level model.  Deterministic for a fixed
    (seed, streams) pair; streams are independent Philox jumps merged by
    summation.
    """
    if mu_a < 0 or mu_b < 0:
        raise DomainError("intensities must be >= 0")
    if not 0.0 <= arm_t <= 1.0 or not 0.0 <= p_d <= 1.0:
        raise DomainError("arm transmittance and dark probability must lie in [0, 1]")
    counts = np.zeros(4, dtype=np.int64)  # none, c_only, d_only, both
    per = cfg.samples // cfg.streams
    base = arm_t * (mu_a + mu_b) / 2.0
    cross = arm_t * np.sqrt(mu_a * mu_b)
    # survival probabilities multiply to a phase-independent constant
    surv_prod = (1.0 - p_d) ** 2 * np.exp(-2.0 * base)
    chunk = 1 << 20
    for s in range(cfg.streams):
        n = per + (cfg.samples - per * cfg.streams if s == cfg.streams - 1 else 0)
        rng = np.random.Generator(np.random.Philox(cfg.seed).jumped(s))
        done = 0
        while done < n:
            m = min(chunk, n - done)
            buf = np.cos(cfg.phase.draw(rng, m))
            buf *= -cross
            buf -= base
            np.exp(buf, out=buf)
            buf *= 1.0 - p_d  # no-click probability at detector c
            click_c = rng.random(m) >= buf
            np.divide(surv_prod, buf, out=buf)  # no-click probability at d
            click_d = rng.random(m) >= buf
            n_both = np.count_nonzero(click_c & click_d)
            n_c = np.count_nonzero(click_c)
            n_d = np.count_nonzero(click_d)
            counts[3] += n_both
            counts[1] += n_c - n_both
            counts[2] += n_d - n_both
            counts[0] += m - n_c - n_d + n_both
            done += m
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
    |n_a, n_b>.  Amplitudes are summed combinatorially with log-space
    factorials to keep large n stable.
    """
    if n_a < 0 or n_b < 0 or n_a + n_b > 12:
        raise DomainError("fock_bs_distribution supports 0 <= n_a + n_b <= 12")
    n = n_a + n_b
    probs = np.zeros(n + 1)
    log_norm = -0.5 * (gammaln(n_a + 1) + gammaln(n_b + 1)) - 0.5 * n * math.log(2.0)
    for mc in range(n + 1):
        md = n - mc
        amp = 0.0
        for i in range(max(0, mc - n_b), min(n_a, mc) + 1):
            j = mc - i
            log_term = (gammaln(n_a + 1) - gammaln(i + 1) - gammaln(n_a - i + 1)
                        + gammaln(n_b + 1) - gammaln(j + 1) - gammaln(n_b - j + 1)
                        + 0.5 * (gammaln(mc + 1) + gammaln(md + 1)) + log_norm)
            amp += (-1.0) ** (n_b - j) * math.exp(log_term)
        probs[mc] = amp * amp
    return probs


def poisson_true_yields(m: ChannelErrorModel, n: int) -> tuple[float, float]:
    """(Y_n, e_n Y_n) for an n-photon state under the per-photon click model.

    Y_n = 1 - (1 - p_dc)(1 - eta_hat)^n; the error share keeps dark counts
    at half error and ramps the misalignment + phase errors in with the
    detected-signal fraction, which makes the Poisson mixture reproduce
    the intensity-level gain and error-gain formulas identically.
    """
    if n < 0:
        raise DomainError("photon number must be >= 0")
    miss = (1.0 - m.eta_hat) ** n
    y_n = 1.0 - (1.0 - m.p_dc) * miss
    ey_n = m.p_dc / 2.0 + (m.e_total - m.p_dc / 2.0) * (1.0 - miss)
    return y_n, ey_n


def poisson_yield_gain(mu: float, m: ChannelErrorModel,
                       n_max: int | None = None) -> tuple[float, float]:
    """Exact (Q_mu, E_mu) by summing the Poisson photon-number mixture.

    n_max defaults to a cutoff with Poisson tail mass below 1e-14.
    """
    if mu < 0:
        raise DomainError("intensity must be >= 0")
    if n_max is None:
        n_max = 20
        while math.exp(-mu + (n_max + 1) * math.log(max(mu, 1e-300))
                       - gammaln(n_max + 2)) > 1e-15 and n_max < 10_000:
            n_max *= 2
    ns = np.arange(n_max + 1)
    log_pn = -mu + ns * (np.log(mu) if mu > 0 else 0.0) - gammaln(ns + 1)
    p_n = np.exp(log_pn)
    if mu == 0.0:
        p_n = np.zeros(n_max + 1)
        p_n[0] = 1.0
    miss = (1.0 - m.eta_hat) ** ns
    y = 1.0 - (1.0 - m.p_dc) * miss
    ey = m.p_dc / 2.0 + (m.e_total - m.p_dc / 2.0) * (1.0 - miss)
    q = float(np.dot(p_n, y))
    eq = float(np.dot(p_n, ey))
    if q <= 0.0:
        raise DomainError("gain vanished; QBER undefined")
    return q, eq / q
