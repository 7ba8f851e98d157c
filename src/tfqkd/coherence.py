"""Phase variance, transmission time budget, duty cycle and phase-noise QBER.

The accumulated phase variance over an uninterrupted transmission window
tau_q is the PSD integral from 1/tau_q upward.  Solving for the largest
tau_q that keeps the phase standard deviation under a threshold yields the
duty cycle of the link once the periodic re-stabilization overhead is
accounted for, and the residual variance maps to a QBER contribution
under Gaussian phase statistics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DivergentIntegralError, DomainError
from .spectra import FiberParams, LaserSpec, Spectrum, TopologyConfig, interference_spectrum

__all__ = [
    "CoherenceBudget",
    "CoherenceResult",
    "SigmaMap",
    "phase_variance",
    "qber_from_variance",
    "qber_small_angle",
    "duty_cycle",
    "solve_tau_q",
    "sigma_map",
]

# Oscillatory sin^2 self-delay handling: resolve the first OSC_PERIODS
# periods with OSC_POINTS_PER_PERIOD samples, then replace sin^2 by its
# mean 1/2.  Detail beyond ~50 periods moves the variance at well under
# the 1% level.
OSC_PERIODS = 50.0
OSC_POINTS_PER_PERIOD = 1000


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows: floats as .12e, any other cell as str.

    Identical inputs produce byte-identical text; every CSV the package
    writes goes through here.
    """
    lines = [",".join(header)]
    lines += [",".join(f"{v:.12e}" if isinstance(v, (float, np.floating)) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _spectrum_of(psd) -> Spectrum:
    if isinstance(psd, Spectrum):
        return psd
    return Spectrum(psd)


def _psd_values(spec: Spectrum, f_switch: Optional[float], f: np.ndarray) -> np.ndarray:
    """The PSD on f: the exact form below f_switch, the sin^2-averaged form
    from it on.  Each form is called once, on its own points only."""
    if f.size == 0:
        return np.empty(0)
    if f_switch is None:
        return spec.func(f)
    below = f < f_switch
    if below.all():
        return spec.func(f)
    if not below.any():
        return spec.averaged_func(f)
    out = np.empty(f.shape)
    out[below] = spec.func(f[below])
    out[~below] = spec.averaged_func(f[~below])
    return out


def _lookup(grid: np.ndarray, f: np.ndarray):
    """Indices of f in the sorted grid, and whether each f is in it."""
    at = np.searchsorted(grid, f)
    found = at < grid.size
    found[found] = grid[at[found]] == f[found]
    return at, found


def _merge(grid, values, at, f, f_values):
    """Sorted union of the sorted grid and the sorted f, none of which is in
    grid, with their values in the same order; at are the insertion
    indices of f in grid."""
    at = at + np.arange(f.size)
    old = np.ones(grid.size + f.size, dtype=bool)
    old[at] = False
    merged, merged_values = np.empty(old.size), np.empty(old.size)
    merged[old], merged[at] = grid, f
    merged_values[old], merged_values[at] = values, f_values
    return merged, merged_values


def _oscillation_grid(f_lo: float, f_hi: float, spec: Spectrum,
                      f_switch: Optional[float]) -> np.ndarray:
    """OSC_POINTS_PER_PERIOD points per sin^2 period from f_lo up to the
    switch frequency (or f_hi), clipped to [f_lo, f_hi], sorted and unique."""
    if spec.oscillation_period is None:
        return np.empty(0)
    hi = min(f_hi, f_switch if f_switch is not None else f_hi)
    step = spec.oscillation_period / OSC_POINTS_PER_PERIOD
    n_osc = int(np.floor((hi - f_lo) / step)) if hi > f_lo else 0
    # f_lo + step k does not decrease with k, so the clipped points are
    # already sorted and np.unique reduces to dropping repeats
    f = np.clip(f_lo + step * np.arange(1, n_osc + 1), f_lo, f_hi)
    return f[np.concatenate(([True], f[1:] != f[:-1]))] if f.size else f


def _grid(f_lo: float, f_hi: float, points_per_decade: int, knees) -> np.ndarray:
    """Log-spaced grid on [f_lo, f_hi], refined around each knee inside it."""
    decades = np.log10(f_hi / f_lo)
    n = max(int(np.ceil(decades * points_per_decade)) + 1, 16)
    g = np.geomspace(f_lo, f_hi, n)
    knees = [k for k in knees if f_lo < k < f_hi]
    if knees:
        # local refinement around each knee
        extra = [np.geomspace(k / 3.0, min(k * 3.0, f_hi), points_per_decade)
                 for k in knees]
        g = np.concatenate([g, *extra])
    return np.unique(np.clip(g, f_lo, f_hi))


def _tail_integral(func, f_hi: float, body: float) -> float:
    """Integral of func on [f_hi, inf) via the substitution u = 1/f.

    Works for spectra decaying at least as 1/f^2; a non-integrable tail is
    reported as an error instead of being clipped silently.
    """
    u_hi = 1.0 / f_hi
    u = np.geomspace(u_hi / 1e6, u_hi, 512)
    g = func(1.0 / u) * u**-2
    remainder = g[0] * u[0]  # constant continuation below the smallest u
    if g[0] > 100.0 * max(g[-1], 1e-300) and remainder > 1e-6 * max(body, 1e-300):
        raise DivergentIntegralError(
            "PSD tail decays slower than 1/f^2; integral to infinity diverges")
    return float(np.trapezoid(g, u) + remainder)


def phase_variance(psd, tau_q: float, *, f_max: Optional[float] = None,
                   rel_tol: float = 1e-4, points_per_decade: int = 200) -> float:
    """Phase variance (rad^2) accumulated over tau_q: integral of the PSD
    on [1/tau_q, f_max].

    f_max defaults to a decade above the highest model knee of the
    spectrum, or to infinity for bare callables without knees; the
    infinite tail is handled by a 1/f change of variable.  The trapezoid
    grid is log-spaced, refined at the knees, and doubled until the
    estimate is stable to rel_tol.  An oscillatory spectrum adds a fixed
    sin^2 grid (OSC_POINTS_PER_PERIOD points per period up to the switch
    frequency OSC_PERIODS periods up), built once per call and shared by
    every doubling pass.  Each frequency is evaluated once per call, by
    the exact PSD below the switch frequency or by the sin^2-averaged one
    from it on.
    """
    if tau_q <= 0:
        raise DomainError("tau_q must be > 0")
    spec = _spectrum_of(psd)
    if f_max is None:
        f_max = spec.default_f_max()
    f_lo = 1.0 / tau_q
    if f_lo >= f_max:
        return 0.0
    # the sin^2-averaged PSD replaces the exact one from f_switch on
    f_switch = None
    if spec.oscillation_period is not None and spec.averaged_func is not None:
        f_switch = OSC_PERIODS * spec.oscillation_period

    f_body = f_max if np.isfinite(f_max) else max(f_lo * 1e4, *(k * 1e3 for k in spec.knees), 1.0)
    # Each pass integrates over the union of the fixed oscillation grid and
    # its own log grid; done holds the log-grid points evaluated by earlier
    # passes, so no frequency is evaluated twice.
    osc = _oscillation_grid(f_lo, f_body, spec, f_switch)
    osc_values = _psd_values(spec, f_switch, osc)
    done, done_values = np.empty(0), np.empty(0)
    ppd = points_per_decade
    prev = None
    for _ in range(4):
        g = _grid(f_lo, f_body, ppd, spec.knees)
        at_osc, on_osc = _lookup(osc, g)
        g, at_osc = g[~on_osc], at_osc[~on_osc]
        at, found = _lookup(done, g)
        new = ~found
        g_values = np.empty(g.size)
        g_values[found] = done_values[at[found]]
        g_values[new] = _psd_values(spec, f_switch, g[new])
        done, done_values = _merge(done, done_values, at[new], g[new], g_values[new])
        x, y = _merge(osc, osc_values, at_osc, g, g_values)
        val = float(np.trapezoid(y, x))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            break
        prev = val
        ppd *= 2
    if not np.isfinite(f_max):
        val += _tail_integral(functools.partial(_psd_values, spec, f_switch), f_body, val)
    if val < 0:
        raise DomainError("PSD integrated to a negative variance")
    return val


def qber_from_variance(sigma2: float) -> float:
    """Exact Gaussian phase-noise QBER: (1 - exp(-sigma^2/2)) / 2."""
    if sigma2 < 0:
        raise DomainError("variance must be >= 0")
    return 0.5 * -np.expm1(-0.5 * sigma2)


def qber_small_angle(sigma2: float) -> float:
    """Small-phase approximation sigma^2/4 of the phase-noise QBER."""
    if sigma2 < 0:
        raise DomainError("variance must be >= 0")
    return 0.25 * sigma2


def duty_cycle(tau_q: float, tau_ps: float) -> float:
    """Fraction of time spent transmitting: tau_q / (tau_q + tau_ps)."""
    if tau_q <= 0 or tau_ps <= 0:
        raise DomainError("tau_q and tau_ps must be > 0")
    return tau_q / (tau_q + tau_ps)


@dataclass(frozen=True)
class CoherenceBudget:
    """Phase-coherence budget: threshold, clip time and stabilization overhead."""

    sigma_threshold: float = 0.2
    tau_max: float = 0.1
    tau_ps: float = 1e-3
    tau_floor: float = 1e-6
    rel_tol_tau: float = 0.01
    f_max: Optional[float] = None

    def __post_init__(self):
        if min(self.sigma_threshold, self.tau_max, self.tau_ps, self.tau_floor) <= 0:
            raise DomainError("budget values must be > 0")
        if self.tau_floor >= self.tau_max:
            raise DomainError("tau_floor must be below tau_max")


@dataclass(frozen=True)
class CoherenceResult:
    """Solved transmission window and the derived duty cycle and QBER."""

    tau_q: float
    sigma_phi: float
    duty_cycle: float
    e_phi: float
    clipped: bool = False
    floored: bool = False


def solve_tau_q(psd, budget: CoherenceBudget = CoherenceBudget()) -> CoherenceResult:
    """Largest tau_q <= tau_max whose accumulated sigma stays at or below
    the threshold.

    If the threshold is never reached the result is clipped at tau_max
    with the (smaller) variance accumulated there; if it is exceeded even
    at tau_floor the floor is returned with the floored flag set.  The
    search is a bisection in log tau on the monotone sigma(tau).
    """
    def sigma_at(tau):
        return float(np.sqrt(phase_variance(psd, tau, f_max=budget.f_max)))

    def result(tau, sig, clipped=False, floored=False):
        return CoherenceResult(
            tau_q=tau, sigma_phi=sig, duty_cycle=duty_cycle(tau, budget.tau_ps),
            e_phi=qber_from_variance(sig * sig), clipped=clipped, floored=floored)

    sig_max = sigma_at(budget.tau_max)
    if sig_max <= budget.sigma_threshold:
        return result(budget.tau_max, sig_max, clipped=True)
    sig_floor = sigma_at(budget.tau_floor)
    if sig_floor > budget.sigma_threshold:
        return result(budget.tau_floor, sig_floor, floored=True)

    lo, hi = np.log(budget.tau_floor), np.log(budget.tau_max)
    sig_lo = None  # sigma at exp(lo), once lo has moved
    while (np.exp(hi) - np.exp(lo)) > budget.rel_tol_tau * np.exp(lo):
        mid = 0.5 * (lo + hi)
        sig = sigma_at(np.exp(mid))
        if sig <= budget.sigma_threshold:
            lo, sig_lo = mid, sig
        else:
            hi = mid
    tau = float(np.exp(lo))
    # exp(lo) is the very float sig_lo was computed at; if lo never moved,
    # exp(log(tau_floor)) may miss tau_floor by an ulp, so compute afresh
    return result(tau, sigma_at(tau) if sig_lo is None else sig_lo)


@dataclass(frozen=True)
class SigmaMap:
    """Phase standard deviation over a (mismatch, integration time) grid.

    sigma_phi has shape (len(tau_q_s), len(delta_l_km)): rows scan the
    integration time at fixed mismatch columns.
    """

    delta_l_km: np.ndarray
    tau_q_s: np.ndarray
    sigma_phi: np.ndarray

    def isoline(self, level: float = 0.2) -> np.ndarray:
        """Per-column tau_q at which sigma crosses the level.

        Log-interpolated between the bracketing grid times; NaN where the
        column never reaches the level, tau grid minimum where it is
        already above it.
        """
        taus = np.full(self.delta_l_km.shape, np.nan)
        log_tau = np.log(self.tau_q_s)
        for j in range(self.delta_l_km.size):
            col = self.sigma_phi[:, j]
            if col[0] > level:
                taus[j] = self.tau_q_s[0]
                continue
            above = np.nonzero(col > level)[0]
            if above.size == 0:
                continue
            i = above[0]
            frac = (level - col[i - 1]) / (col[i] - col[i - 1])
            taus[j] = np.exp(log_tau[i - 1] + frac * (log_tau[i] - log_tau[i - 1]))
        return taus

    def to_csv(self, path) -> None:
        """Long-format CSV: delta_l_km, tau_q_s, sigma_phi_rad."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.csv_text())

    def csv_text(self) -> str:
        """The long-format CSV of to_csv as a string."""
        return _csv_text(("delta_l_km", "tau_q_s", "sigma_phi_rad"), (
            (dl, tau, self.sigma_phi[i, j])
            for j, dl in enumerate(self.delta_l_km)
            for i, tau in enumerate(self.tau_q_s)))


def sigma_map(topo_template: TopologyConfig,
              delta_l_grid: Sequence[float],
              tau_grid: Sequence[float],
              budget: CoherenceBudget = CoherenceBudget(),
              laser: LaserSpec = LaserSpec(),
              fiber: FiberParams = FiberParams()) -> SigmaMap:
    """sigma_phi(delta_l, tau_q) map for a topology template.

    The mismatch axis drives only the self-delay term of the common-laser
    interference; the fiber-noise terms keep the template arm lengths so
    that independent-laser maps are exactly flat along the mismatch axis.
    """
    dl = np.asarray(list(delta_l_grid), dtype=float)
    taus = np.asarray(list(tau_grid), dtype=float)
    if dl.size == 0 or taus.size == 0:
        raise DomainError("grids must be non-empty")
    if np.any(np.diff(dl) <= 0) or np.any(np.diff(taus) <= 0):
        raise DomainError("grids must be strictly increasing")
    out = np.empty((taus.size, dl.size))
    for j, d in enumerate(dl):
        spec = interference_spectrum(topo_template, laser, fiber, delta_l_km=float(d))
        for i, tau in enumerate(taus):
            out[i, j] = np.sqrt(phase_variance(spec, float(tau), f_max=budget.f_max))
    return SigmaMap(delta_l_km=dl, tau_q_s=taus, sigma_phi=out)
