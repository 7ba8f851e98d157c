"""Phase variance, transmission time budget, duty cycle and phase-noise QBER.

The accumulated phase variance over an uninterrupted transmission window
tau_q is the PSD integral from 1/tau_q upward.  Solving for the largest
tau_q that keeps the phase standard deviation under a threshold yields the
duty cycle of the link once the periodic re-stabilization overhead is
accounted for, and the residual variance maps to a QBER contribution
under Gaussian phase statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._fields import Checked, _checker, _scalars, spec
from .csvtext import csv_text
from .errors import DivergentIntegralError, DomainError
from .spectra import FiberParams, LaserSpec, Spectrum, TopologyConfig, interference_spectrum

__all__ = [
    "CoherenceBudget",
    "OperatingPoint",
    "SigmaMap",
    "phase_variance",
    "qber_from_variance",
    "qber_small_angle",
    "duty_cycle",
    "solve_tau_q",
    "sigma_map",
]

# Oscillatory sin^2 self-delay handling: the exact PSD up to the switch
# frequency OSC_PERIODS periods up, then the PSD with sin^2 replaced by its
# mean 1/2.  Detail beyond ~50 periods moves the variance at well under
# the 1% level.
OSC_PERIODS = 50.0
# Resolution of the one integration grid: log-spaced nodes per decade, and
# uniform nodes per sin^2 period below the switch frequency.  Over the demo
# sigma map sigma is then within 1e-10 of an mpmath reference.
_POINTS_PER_DECADE = 400
_POINTS_PER_PERIOD = 64
# Largest relative change of any queried variance between Boole's rule
# and Simpson's rule on the same nodes; beyond it the grid does not
# resolve the spectrum.  The change is about the error of Simpson's rule,
# and the returned Boole value is much closer than that.
_GRID_RTOL = 1e-4


def _trapezoid_tail(ln_f: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Entry i is the trapezoid in ln f of f*y from node i to the last node."""
    seg = np.subtract(ln_f[1:], ln_f[:-1])
    seg *= 0.5
    seg *= np.add(fy[:-1], fy[1:])
    tail = np.empty(ln_f.size)
    tail[-1] = 0.0
    # the running sum from the last step backwards, written back to front
    np.cumsum(seg[::-1], out=tail[-2::-1])
    return tail


@np.errstate(all="ignore")  # a non-finite PSD fails the convergence check below
def _variance_curve(spec: Spectrum, f_query: np.ndarray, f_max: Optional[float]):
    """The accumulated variance on one grid: nodes f and c[i], the PSD
    integral from f[i] to f_max, i.e. sigma^2 of the window 1/f[i], with
    fy[i] = f[i] * S(f[i]) = -dc/d ln f at node i.

    f_max, finite, defaults to spec.default_f_max().  The grid spans
    [min f_query, f_max], is log-spaced, uniform over the sin^2 periods
    below the switch frequency, and has the switch frequency, the knees
    and every f_query below f_max as nodes.  The switch node is followed
    by four zero-width steps, so each node is evaluated once and has one
    value: the exact PSD up to the switch node, the sin^2-averaged one
    past it.  The trapezoid tails on every, every other and every fourth
    node, each summed once, give c on every fourth node by two Richardson
    steps (Boole's rule).  Raises DivergentIntegralError when Simpson's
    rule on the same nodes differs from c at a queried variance by more
    than _GRID_RTOL, naming the first node where the PSD is not finite
    if there is one.
    """
    f_max = spec.default_f_max() if f_max is None else f_max
    f_lo, f_top = float(np.minimum.reduce(f_query)), float(np.maximum.reduce(f_query))
    if f_lo >= f_max:
        return np.array([f_lo]), np.zeros(1), np.zeros(1)
    period = spec.oscillation_period  # and with it spec.averaged_func
    f_switch = None if period is None else OSC_PERIODS * period
    # segments between consecutive breakpoints, each in a multiple of four
    # equal steps (so breakpoints stay nodes of the every-fourth-node grid):
    # uniform in f over the sin^2 periods, from where such a step is finer
    # than a log step up to the switch frequency, and in log f elsewhere
    breaks = [f_lo, f_max, *f_query.tolist(), *spec.knees]
    step = lin_lo = lin_hi = np.inf  # no uniform segment without a switch
    inside = period is not None and f_lo <= f_switch <= f_max  # the switch is in the grid
    if period is not None:
        step = period / _POINTS_PER_PERIOD
        lin_lo = step / np.expm1(np.log(10.0) / _POINTS_PER_DECADE)
        lin_hi = min(f_switch, f_max)
        breaks += [lin_lo, lin_hi, f_switch]
    breaks = np.array(sorted([f_lo if b < f_lo else f_max if b > f_max else b for b in breaks]))
    distinct = breaks[1:] != breaks[:-1]
    if inside:  # the switch's first two copies (lin_hi is one) bound a
        # zero-width uniform segment: four steps, each node f_switch
        distinct[np.searchsorted(breaks, f_switch)] = True
    a, b = breaks[:-1][distinct], breaks[1:][distinct]
    lin = (lin_lo <= a) & (b <= lin_hi)
    n = np.where(lin, (b - a) / step / 4, np.log10(b / a) * _POINTS_PER_DECADE / 4)
    x_a, x_b = np.where(lin, a, np.log10(a)), np.where(lin, b, np.log10(b))
    count = 4 * np.maximum(np.ceil(n), 1).astype(np.intp)
    # all nodes in one pass, by the float operations of linspace and
    # geomspace: x_a + k * dx with dx = (x_b - x_a) / count, then 10**x in
    # the log segments, whose node 0 is a itself
    first = np.cumsum(count) - count
    f = np.empty(count.sum() + 1)
    x = f[:-1]
    np.multiply(np.arange(x.size) - np.repeat(first, count),
                np.repeat((x_b - x_a) / count, count), out=x)
    x += np.repeat(x_a, count)
    np.power(10.0, x, out=x, where=np.repeat(~lin, count))
    x[first] = a
    f[-1] = f_max
    # the exact PSD up to the switch node's first copy (on every node if the
    # switch is absent or above the grid, on none if it is below), then the
    # averaged PSD
    k = f.size if f_switch is None else int(np.searchsorted(f, f_switch)) + inside
    fy = np.concatenate([form(nodes) for form, nodes in (
        (spec.func, f[:k]), (spec.averaged_func, f[k:])) if nodes.size])
    fy *= f
    # a Richardson step of each tail against the next coarser one is
    # Simpson's rule on equal step pairs, and one of Simpson's rule against
    # its own next coarser one is Boole's rule on step quadruples; both
    # stay finite on zero-width steps.  c lives on every fourth node, and
    # its check is the Simpson value on the same nodes
    ln_f = np.log(f)
    t1, t2, t4 = (_trapezoid_tail(ln_f[::s], fy[::s]) for s in (1, 2, 4))
    simpson = t1[::4] + (t1[::4] - t2[::2]) / 3.0
    c = simpson + (simpson - (t2[::2] + (t2[::2] - t4) / 3.0)) / 15.0
    q = int(np.searchsorted(f[::4], f_top, side="right"))  # the queried nodes, as f is sorted
    if not np.all(np.abs(c[:q] - simpson[:q]) <= _GRID_RTOL * c[:q]):
        bad = ~np.isfinite(fy)  # an overflowed or NaN PSD fails the check too
        raise DivergentIntegralError(
            f"PSD is not finite on the integration grid (at f = {f[np.argmax(bad)]:.6g} Hz)"
            if bad.any() else "phase variance does not converge on the integration grid")
    if np.any(c < 0):
        raise DomainError("PSD integrated to a negative variance")
    return f[::4], c, fy[::4]


# the field contract's checkers of the scalar functions' arguments
_TAU_Q, _TAU_PS = (_checker(spec(float, gt=0), name) for name in ("tau_q", "tau_ps"))
_SIGMA2, _LEVEL = (_checker(spec(float, ge=0), name) for name in ("sigma2", "level"))
# and of the PSD that the variance functions integrate
_PSD = _checker(spec(Spectrum), "psd")


def phase_variance(psd: Spectrum, tau_q: float) -> float:
    """Phase variance (rad^2) accumulated over tau_q: integral of the PSD
    on [1/tau_q, f_max], with f_max = psd.default_f_max(), a decade above
    the highest model knee.  This is the single-window case of the one
    cumulative integral that sigma_map and solve_tau_q read too: one
    fixed grid, log-spaced and uniform over the sin^2 periods below the
    switch frequency, evaluated and summed once.  A grid that does not
    resolve the spectrum raises DivergentIntegralError instead of
    returning a value.
    """
    spec, tau_q = _PSD(psd), _TAU_Q(tau_q)
    return _scalars(_variance_curve(spec, np.array([1.0 / tau_q]), None)[1][0])


def qber_from_variance(sigma2: float) -> float:
    """Exact Gaussian phase-noise QBER: (1 - exp(-sigma^2/2)) / 2."""
    sigma2 = _SIGMA2(sigma2)
    return _scalars(0.5 * -np.expm1(-0.5 * sigma2))


def qber_small_angle(sigma2: float) -> float:
    """Small-phase approximation sigma^2/4 of the phase-noise QBER."""
    sigma2 = _SIGMA2(sigma2)
    return _scalars(0.25 * sigma2)


def duty_cycle(tau_q: float, tau_ps: float) -> float:
    """Fraction of time spent transmitting: tau_q / (tau_q + tau_ps)."""
    tau_q, tau_ps = _TAU_Q(tau_q), _TAU_PS(tau_ps)
    return _scalars(tau_q / (tau_q + tau_ps))


@dataclass(frozen=True)
class CoherenceBudget(Checked):
    """Phase-coherence budget: threshold, clip time and stabilization overhead."""

    sigma_threshold: float = field(default=0.2, metadata=spec(float, gt=0))
    tau_max: float = field(default=0.1, metadata=spec(float, gt=0))
    tau_ps: float = field(default=1e-3, metadata=spec(float, gt=0))
    tau_floor: float = field(default=1e-6, metadata=spec(float, gt=0))
    f_max: Optional[float] = field(default=None, metadata=spec(float, gt=0, optional=True))

    def __post_init__(self):
        super().__post_init__()
        if self.tau_floor >= self.tau_max:
            raise DomainError("tau_floor must be below tau_max")


@dataclass(frozen=True)
class OperatingPoint(Checked):
    """Transmission window, residual phase deviation, phase-noise QBER and
    stabilization overhead: what solve_tau_q returns and run_sweep reads.
    Only the solve sets clipped (window at tau_max) or floored (at tau_floor),
    never both.
    """

    tau_q: float = field(metadata=spec(float, gt=0))
    sigma_phi: float = field(metadata=spec(float, ge=0))
    e_phi: float = field(metadata=spec(float, ge=0, le=0.5))
    tau_ps: float = field(default=CoherenceBudget.tau_ps, metadata=spec(float, gt=0))
    clipped: bool = field(default=False, metadata=spec(bool))
    floored: bool = field(default=False, metadata=spec(bool))

    def __post_init__(self):
        super().__post_init__()
        if self.clipped and self.floored:
            raise DomainError("a window cannot be both clipped at tau_max and floored "
                              "at tau_floor")

    @property
    def duty_cycle(self) -> float:
        return duty_cycle(self.tau_q, self.tau_ps)


def _window(curve, tau_max: float, tau_floor: float, level: float):
    """(tau, variance, state) of the largest window up to tau_max whose
    variance on curve, a _variance_curve with 1/tau_max and 1/tau_floor
    as queries, is at most level: "clipped" at tau_max or "floored" at
    tau_floor, each with the variance there, or "solved" at the level.
    The first node within the level and the one before it bracket the
    window; inside, the variance is the cubic Hermite polynomial in ln f
    through both nodes with the integrand's own slopes there, dc/d ln f =
    -f S(f), and its root, found by bisection, gives tau.
    """
    f, c, fy = curve
    # queries below f_max are nodes, where interp returns c itself
    var_max, var_floor = np.interp((1.0 / tau_max, 1.0 / tau_floor), f, c, right=0.0)
    if var_max <= level:
        return tau_max, var_max, "clipped"
    if var_floor > level:
        return tau_floor, var_floor, "floored"
    # c falls along the nodes from above the level at 1/tau_max to at most
    # the level at 1/tau_floor (or 0 at f_max)
    i = int(np.argmax(c <= level))
    lo, hi = np.log(f[i - 1]), np.log(f[i])
    # the Hermite cubic in t = (ln f - lo) / (hi - lo) on [0, 1], less the
    # level: p(0) > 0 >= p(1), and the slopes leave node i - 1 and reach
    # node i (the exact side of a switch node: c repeats on its copies,
    # so i is the first)
    c0, c1 = float(c[i - 1]), float(c[i])
    d0, d1 = -(hi - lo) * float(fy[i - 1]), -(hi - lo) * float(fy[i])
    a2, a3 = 3.0 * (c1 - c0) - 2.0 * d0 - d1, 2.0 * (c0 - c1) + d0 + d1
    t_lo, t_hi = 0.0, 1.0
    for _ in range(53):
        t = 0.5 * (t_lo + t_hi)
        if (c0 - level) + t * (d0 + t * (a2 + t * a3)) > 0.0:
            t_lo = t
        else:
            t_hi = t
    return np.exp(-(lo + t_hi * (hi - lo))), level, "solved"


# the field contract's checkers of the window functions' record arguments
# (interference_spectrum checks sigma_map's laser and fiber)
_BUDGET = _checker(spec(CoherenceBudget), "budget")
_TOPO = _checker(spec(TopologyConfig), "topo_template")
# and of sigma_map's grids, each a non-empty list, tuple or 1-d array of numbers
_DL_GRID, _TAU_GRID = (_checker(spec(tuple, item=spec(float, **rule), nonempty=True), name)
                       for name, rule in (("delta_l_grid", {"ge": 0}), ("tau_grid", {"gt": 0})))


def solve_tau_q(psd: Spectrum, budget: CoherenceBudget = CoherenceBudget()) -> OperatingPoint:
    """Largest tau_q <= tau_max whose accumulated sigma stays at or below
    the threshold, as the operating point with the budget's tau_ps.

    If the threshold is never reached the result is clipped at tau_max
    with the (smaller) variance accumulated there; if it is exceeded even
    at tau_floor the floor is returned with the floored flag set.
    Otherwise sigma is the threshold at the window that _window solves on
    one cumulative grid over [1/tau_max, f_max] with 1/tau_floor as a
    node: the crossing that SigmaMap.isoline reads per column too.  A
    grid that does not resolve the spectrum raises DivergentIntegralError.
    """
    spec, budget = _PSD(psd), _BUDGET(budget)
    curve = _variance_curve(spec, np.array([1.0 / budget.tau_max, 1.0 / budget.tau_floor]),
                            budget.f_max)
    tau, var, state = _window(curve, budget.tau_max, budget.tau_floor,
                              budget.sigma_threshold * budget.sigma_threshold)
    sig = budget.sigma_threshold if state == "solved" else np.sqrt(var)
    return OperatingPoint(
        tau_q=float(tau), sigma_phi=float(sig), e_phi=qber_from_variance(sig * sig),
        tau_ps=float(budget.tau_ps), clipped=state == "clipped", floored=state == "floored")


@dataclass(frozen=True, eq=False)
class SigmaMap:
    """Phase standard deviation over a (mismatch, integration time) grid.

    sigma_phi has shape (len(tau_q_s), len(delta_l_km)): rows scan the
    integration time at fixed mismatch columns.
    """

    delta_l_km: np.ndarray
    tau_q_s: np.ndarray
    sigma_phi: np.ndarray
    curves: tuple = field(repr=False)  # each column's (f, c, fy) curve

    def isoline(self, level: float = CoherenceBudget.sigma_threshold) -> np.ndarray:
        """Per-column tau_q at which sigma crosses the level (rad, >= 0),
        by default the budget's sigma threshold: solve_tau_q's crossing on
        the column's variance curve, with the map's longest tau as tau_max
        and its shortest as tau_floor.  NaN where the column stays within
        the level (clipped), the shortest tau where it is above it there
        (floored).
        """
        level = _LEVEL(level)
        taus = np.full(self.delta_l_km.shape, np.nan)
        for j, curve in enumerate(self.curves):
            tau, _, state = _window(curve, self.tau_q_s[-1], self.tau_q_s[0], level * level)
            if state != "clipped":
                taus[j] = tau
        return taus

    def csv_text(self) -> str:
        """Long-format CSV: delta_l_km, tau_q_s, sigma_phi_rad."""
        n_dl, n_tau = self.delta_l_km.size, self.tau_q_s.size
        return csv_text(("delta_l_km", "tau_q_s", "sigma_phi_rad"), (
            np.repeat(self.delta_l_km, n_tau), np.tile(self.tau_q_s, n_dl),
            self.sigma_phi.T.ravel()))


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
    Each mismatch column is one pass of the cumulative integral: one grid
    over [1/max tau, f_max] with every 1/tau as a node, evaluated and
    summed once, gives the column, and the map keeps it for isoline.  A
    grid that does not resolve the spectrum raises DivergentIntegralError.
    """
    topo_template, budget = _TOPO(topo_template), _BUDGET(budget)
    dl, taus = np.array(_DL_GRID(delta_l_grid), float), np.array(_TAU_GRID(tau_grid), float)
    if not (np.all(dl[1:] > dl[:-1]) and np.all(taus[1:] > taus[:-1])):
        raise DomainError("grids must be strictly increasing")
    out = np.empty((taus.size, dl.size))
    f_query = 1.0 / taus
    curves = tuple(_variance_curve(interference_spectrum(
        topo_template, laser, fiber, delta_l_km=float(d)), f_query, budget.f_max) for d in dl)
    for j, (f, c, _) in enumerate(curves):
        out[:, j] = np.sqrt(np.interp(f_query, f, c, right=0.0))
    return SigmaMap(delta_l_km=dl, tau_q_s=taus, sigma_phi=out, curves=curves)
