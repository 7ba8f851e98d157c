"""Phase-variance integration, window solver, duty cycle and QBER mapping."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import tfqkd
import tfqkd.coherence as coherence
from reference import reference_sigma, reference_tau_q, reference_variance
from tfqkd import (
    CoherenceBudget,
    DivergentIntegralError,
    DomainError,
    OperatingPoint,
    Spectrum,
    TopologyConfig,
    TopologyKind,
    duty_cycle,
    interference_spectrum,
    phase_variance,
    qber_from_variance,
    qber_small_angle,
    sigma_map,
    solve_tau_q,
)


def flat_1_over_f2(a):
    return Spectrum(lambda f: a / np.asarray(f, float) ** 2)


def oscillatory_bare_spectrum(period):
    """A common-laser-like 1/f^2 spectrum with no knees, so f_max is infinite."""
    def exact(f):
        f = np.asarray(f, float)
        return 4.0 * np.sin(np.pi * f / period) ** 2 * 0.3 / f**2 + 1e-3 / f**2

    def averaged(f):
        f = np.asarray(f, float)
        return 2.0 * 0.3 / f**2 + 1e-3 / f**2

    return Spectrum(exact, oscillation_period=period, averaged_func=averaged)


SIGMA_RTOL = 2e-5  # certified accuracy of sigma against the mpmath reference


def _reference_simpson_tail(f, y):
    def trapezoid_tail(f, y):
        seg = 0.5 * np.diff(np.log(f)) * (f[:-1] * y[:-1] + f[1:] * y[1:])
        return np.append(np.cumsum(seg[::-1])[::-1], 0.0)

    fine = trapezoid_tail(f, y)[::2]
    return fine + (fine - trapezoid_tail(f[::2], y[::2])) / 3.0


def reference_variance_curve(spec, f_query, f_max):
    """(f, c, fy) of the integrator's original loop: one geomspace or
    linspace call per segment, four zero-width steps after a switch node,
    the Simpson tail on every other node and again on every fourth,
    Boole's rule from the two on every fourth node, and the Simpson tail
    there for the convergence check."""
    f_max = spec.default_f_max() if f_max is None else f_max
    f_lo, f_top = float(np.min(f_query)), float(np.max(f_query))
    if f_lo >= f_max:
        return np.array([f_lo]), np.zeros(1), np.zeros(1)
    f_switch = None
    if spec.oscillation_period is not None:
        f_switch = coherence.OSC_PERIODS * spec.oscillation_period
    f_hi = f_body = f_max
    if not np.isfinite(f_max):
        f_body = max(f_top * 1e4, *(k * 1e3 for k in spec.knees), f_switch or 0.0, 1.0)
        f_hi = 1e6 * f_body
    breaks = [f_lo, f_body, f_hi, *f_query, *spec.knees]
    uniform = (np.inf, np.inf)
    if f_switch is not None:
        step = spec.oscillation_period / coherence._POINTS_PER_PERIOD
        uniform = (step / np.expm1(np.log(10.0) / coherence._POINTS_PER_DECADE),
                   min(f_switch, f_body))
        breaks += uniform
    breaks = np.unique(np.clip(breaks, f_lo, f_hi))
    nodes = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if uniform[0] <= a and b <= uniform[1]:
            n = np.ceil((b - a) / step / 4)
            nodes.append(np.linspace(a, b, 4 * int(max(n, 1)) + 1)[:-1])
        else:
            n = np.ceil(np.log10(b / a) * coherence._POINTS_PER_DECADE / 4)
            nodes.append(np.geomspace(a, b, 4 * int(max(n, 1)) + 1)[:-1])
    f = np.append(np.concatenate(nodes), f_hi)
    if f_switch is None:
        y = spec.func(f)
    else:
        # the exact PSD up to the switch node, the averaged one on four
        # copies of it and past it
        head, tail = f[f <= f_switch], f[f > f_switch]
        if head.size and head[-1] == f_switch:
            tail = np.concatenate((np.full(4, f_switch), tail))
        f = np.concatenate((head, tail))
        y = np.concatenate((spec.func(head), spec.averaged_func(tail)))
    simpson = _reference_simpson_tail(f, y)[::2]
    c = simpson + (simpson - _reference_simpson_tail(f[::2], y[::2])) / 15.0
    change = np.abs(c - simpson)
    f, fy = f[::4], (f * y)[::4]
    queried = f <= f_top
    if not np.all(change[queried] <= coherence._GRID_RTOL * c[queried]):
        raise DivergentIntegralError(
            "phase variance does not converge on the integration grid")
    if not np.isfinite(f_max):
        c += fy[-1]  # the remainder F S(F) past the last node
    return f, c, fy


class TestPhaseVariance:
    def test_closed_form_1_over_f2(self):
        # S = a/f^2 integrates to a * tau from 1/tau to infinity
        a = 0.7
        spec = flat_1_over_f2(a)
        for tau in np.geomspace(1e-6, 1.0, 13):
            assert phase_variance(spec, tau) == pytest.approx(a * tau, rel=1e-3)

    def test_threshold_example(self):
        spec = flat_1_over_f2(0.04)
        sigma = np.sqrt(phase_variance(spec, 1.0))
        assert sigma == pytest.approx(0.2, rel=1e-3)

    def test_monotone_in_tau(self):
        spec = interference_spectrum(tfqkd.builtin_scenarios()[0].topology)
        taus = np.geomspace(1e-6, 0.1, 30)
        vals = np.array([phase_variance(spec, t) for t in taus])
        assert np.all(np.diff(vals) > -1e-9 * vals[1:])

    def test_finite_cutoff_truncates(self):
        spec = flat_1_over_f2(1.0)
        full = phase_variance(spec, 1e-2)
        cut = phase_variance(spec, 1e-2, f_max=1e4)
        assert cut < full
        assert cut == pytest.approx(1e-2 - 1e-4, rel=1e-3)

    def test_divergent_tail_reported(self):
        spec = Spectrum(lambda f: 1.0 / np.asarray(f, float))
        with pytest.raises(DivergentIntegralError):
            phase_variance(spec, 1e-3)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(DomainError):
            phase_variance(flat_1_over_f2(1.0), 0.0)

    def test_tail_slower_than_1_over_f2_not_called_divergent(self):
        # f^-1.5 has a finite integral to infinity, but its f^2 S grows
        # past the body, and the remainder that continues f^2 S as a
        # constant does not handle that: the error says so and does not
        # claim divergence
        with pytest.raises(DivergentIntegralError, match="slower than 1/f\\^2") as err:
            phase_variance(Spectrum(lambda f: np.asarray(f, float) ** -1.5), 1e-3)
        assert "diverge" not in str(err.value)
        with pytest.raises(DivergentIntegralError):
            phase_variance(Spectrum(lambda f: 1.0 / np.asarray(f, float)), 1e-3)
        spec = Spectrum(lambda f: np.asarray(f, float) ** -1.8)
        assert phase_variance(spec, 1e-3) == pytest.approx(
            reference_variance(spec, 1e-3), rel=2 * SIGMA_RTOL)

    def test_window_shorter_than_1_over_f_max_is_zero(self):
        # 1/tau at or above f_max (2e7 Hz here) leaves nothing to integrate
        spec = interference_spectrum(tfqkd.builtin_scenarios()[0].topology)
        assert spec.default_f_max() == 2e7
        for tau in (5e-8, 1e-8):
            assert phase_variance(spec, tau) == reference_variance(spec, tau) == 0.0

    def test_switch_below_the_shortest_window(self):
        # at 10 km the sin^2 periods end at 0.52 MHz, below 1/tau = 1 MHz:
        # the whole grid takes the averaged PSD
        spec = interference_spectrum(tfqkd.builtin_scenarios()[0].topology, delta_l_km=10.0)
        assert coherence.OSC_PERIODS * spec.oscillation_period < 1e6
        assert phase_variance(spec, 1e-6) == pytest.approx(
            reference_variance(spec, 1e-6), rel=2 * SIGMA_RTOL)

    def test_negative_variance_raises(self):
        # f^-2 - 1e-13 is negative above 3.2 MHz, so the integral down
        # from f_max = 1e7 Hz starts below 0
        spec = Spectrum(lambda f: np.asarray(f, float) ** -2.0 - 1e-13)
        with pytest.raises(DomainError, match="^PSD integrated to a negative variance$"):
            phase_variance(spec, 1e-3, f_max=1e7)

    def test_oscillatory_term_refined(self):
        # common topology with km-scale mismatch: the sin^2 periods are
        # resolved, not sampled by luck
        topo = TopologyConfig(l_a=114.0, l_b=111.5)
        spec = interference_spectrum(topo)
        assert phase_variance(spec, 5e-5) == pytest.approx(
            reference_variance(spec, 5e-5), rel=2 * SIGMA_RTOL)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -1e-3])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(DomainError):
            phase_variance(flat_1_over_f2(1.0), tau)

    @pytest.mark.parametrize("f_max", [np.nan, 0.0, -1.0, "x", True, np.array([1e6])])
    def test_rejects_bad_f_max(self, f_max):
        # a string raised a bare TypeError; f_max takes what the budget's does
        with pytest.raises(DomainError, match="^f_max must be a number > 0 or None, got"):
            phase_variance(flat_1_over_f2(1.0), 1e-3, f_max=f_max)

    # a 0.01 Hz wide Lorentzian line at a 10 kHz knee, a grid node among
    # nodes some 58 Hz apart; or, without knees, past the 1e7 Hz body end
    # at tau = 1 ms, on the log decades before the F S(F) remainder, where
    # it holds 3.1e3 rad^2.  Boole's and Simpson's rule on the grid
    # disagree, so no value is returned
    @pytest.mark.parametrize("f0, knees, height", [(1e4, (1e4,), 1e-3), (1e8, (), 1e3),
                                                   (3.7e7, (), 1e3)],
                             ids=["at_knee", "tail_10x_body", "tail_3.7x_body"])
    def test_feature_narrower_than_grid_raises(self, f0, knees, height):
        width = 1e-2

        def psd(f):
            f = np.asarray(f, float)
            return 1e-6 / f**2 + height * width / ((f - f0) ** 2 + width**2)

        spec = Spectrum(psd, knees=knees)
        with pytest.raises(DivergentIntegralError, match="does not converge"):
            phase_variance(spec, 1e-3)
        with pytest.raises(DivergentIntegralError):
            solve_tau_q(spec)

    @pytest.mark.parametrize("psd", [
        lambda f: 1.0 / np.asarray(f, float) ** 2,  # 1e400 at 1e-200 Hz: inf
        lambda f: np.where(np.asarray(f, float) < 1e-100, np.nan, 1.0)], ids=["inf", "nan"])
    def test_non_finite_psd_is_named(self, psd):
        # an overflowed or NaN PSD failed the check as a grid that does not
        # converge; the error says the PSD is not finite at the window's node,
        # and no numpy warning comes before it
        with pytest.raises(
                DivergentIntegralError,
                match=r"^PSD is not finite on the integration grid \(at f = 1e-200 Hz\)$"):
            phase_variance(Spectrum(psd), 1e200)

    def test_period_without_average_is_rejected(self):
        # sin^2 periods but no averaged PSD used to lay uniform steps up to
        # the body end: some 6.4e8 nodes for a 1 Hz period at tau = 1 ms
        with pytest.raises(DomainError, match=r"^Spectrum\.averaged_func must be given"):
            Spectrum(oscillatory_bare_spectrum(2e3).func, oscillation_period=2e3)
        with pytest.raises(DomainError, match=r"^Spectrum\.oscillation_period must be given"):
            Spectrum(oscillatory_bare_spectrum(2e3).func,
                     averaged_func=oscillatory_bare_spectrum(2e3).averaged_func)


class TestAgainstReference:
    """sigma from every caller of the one integral against mpmath."""

    # cells where the earlier doubling integrator was furthest off
    @pytest.mark.parametrize("dl, tau", [(10.0, 2.154434690031884e-06),
                                         (5.010791869084166, 1e-06),
                                         (2.510803515527999, 1e-06),
                                         (10.0, 4.641588833612779e-06)])
    def test_demo_map_cells(self, dl, tau):
        topo = tfqkd.builtin_scenarios()[0].topology
        spec = interference_spectrum(topo, delta_l_km=dl)
        ref = reference_sigma(spec, tau)
        assert np.sqrt(phase_variance(spec, tau)) == pytest.approx(ref, rel=SIGMA_RTOL)
        m = sigma_map(topo, [dl], [tau / 10, tau, tau * 10])
        assert m.sigma_phi[1, 0] == pytest.approx(ref, rel=SIGMA_RTOL)

    @pytest.mark.parametrize("sid", range(1, 8))
    def test_presets_at_their_window(self, sid):
        preset = tfqkd.builtin_scenarios()[sid - 1]
        spec = interference_spectrum(preset.topology)
        budget = CoherenceBudget()
        res = solve_tau_q(spec, budget)
        assert not res.floored
        ref = reference_variance(spec, res.tau_q)
        assert res.sigma_phi == pytest.approx(np.sqrt(ref), rel=SIGMA_RTOL)
        assert np.sqrt(ref) <= budget.sigma_threshold * (1 + SIGMA_RTOL)
        if not res.clipped:
            # the reference root, one Newton step from tau_q on
            # d sigma^2 / d tau = S(1/tau) / tau^2, lies within 1e-3 of tau_q
            slope = spec.func(np.array([1.0 / res.tau_q]))[0] / res.tau_q**2
            root = res.tau_q + (budget.sigma_threshold**2 - ref) / slope
            assert root == pytest.approx(res.tau_q, rel=1e-3)

    @pytest.mark.parametrize("sid", [1, 3, 4, 6])
    def test_preset_window_against_reference_root(self, sid):
        # the window itself, not only sigma at it: the Hermite step in the
        # bracketing segment puts tau_q within 1e-7 of the mpmath root
        spec = interference_spectrum(tfqkd.builtin_scenarios()[sid - 1].topology)
        budget = CoherenceBudget()
        res = solve_tau_q(spec, budget)
        assert not (res.clipped or res.floored)
        ref = reference_tau_q(spec, budget.sigma_threshold, res.tau_q)
        assert res.tau_q == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("dl", [0.001, 1.0, 10.0])
    def test_scenario_4_mismatch_column(self, dl):
        topo = tfqkd.builtin_scenarios()[3].topology
        taus = [1e-5, 1e-3]
        m = sigma_map(topo, [dl], taus)
        spec = interference_spectrum(topo, delta_l_km=dl)
        for i, tau in enumerate(taus):
            assert m.sigma_phi[i, 0] == pytest.approx(reference_sigma(spec, tau), rel=SIGMA_RTOL)

    @pytest.mark.parametrize("spec", [flat_1_over_f2(0.7).func, oscillatory_bare_spectrum(2e3)],
                             ids=["bare_callable", "oscillatory_no_knees"])
    def test_infinite_f_max(self, spec):
        # no knees: f_max is infinite, and the grid runs six decades past
        # its body before the F S(F) remainder
        for tau in (1e-5, 1e-2):
            assert phase_variance(spec, tau) == pytest.approx(
                reference_variance(spec, tau), rel=2 * SIGMA_RTOL)

    def test_finite_f_max(self):
        spec = interference_spectrum(tfqkd.builtin_scenarios()[2].topology)
        for tau in (1e-5, 1e-3):
            assert phase_variance(spec, tau, f_max=1e6) == pytest.approx(
                reference_variance(spec, tau, f_max=1e6), rel=2 * SIGMA_RTOL)


class TestGridAgainstLoop:
    """The one-pass grid against the per-segment loop, bit for bit."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Every integrator call, checked against the loop."""
        calls = []
        new = coherence._variance_curve

        def checked(spec, f_query, f_max):
            curve = new(spec, f_query, f_max)
            for got, want in zip(curve, reference_variance_curve(spec, f_query, f_max),
                                 strict=True):
                assert np.array_equal(got, want)
            calls.append(curve[0].size)
            return curve

        monkeypatch.setattr(coherence, "_variance_curve", checked)
        return calls

    def test_preset_solves(self, compared):
        for preset in tfqkd.builtin_scenarios():
            tfqkd.solve_scenario(preset)
        assert len(compared) == 7

    def test_demo_map_columns(self, compared):
        topo = tfqkd.builtin_scenarios()[0].topology
        sigma_map(topo, np.geomspace(0.005, 10.0, 12), np.geomspace(1e-6, 0.1, 16))
        assert len(compared) == 12

    @pytest.mark.parametrize("sid", [4, 5])
    def test_cli_default_map_columns(self, compared, sid):
        # the sigma-map command's default ranges on the stabilized-laser
        # presets: uniform segments below the switch node in most columns,
        # and columns switching inside the grid
        topo = tfqkd.builtin_scenarios()[sid - 1].topology
        dls, taus = np.geomspace(0.001, 10.0, 25), np.geomspace(1e-6, 1.0, 25)
        sigma_map(topo, dls, taus)
        assert len(compared) == 25
        switches = [coherence.OSC_PERIODS * interference_spectrum(topo, delta_l_km=d)
                    .oscillation_period for d in dls]
        f_hi = interference_spectrum(topo).default_f_max()
        assert sum(1.0 / taus[-1] < s < f_hi for s in switches) > 10

    def test_independent_lasers(self, compared):
        topo = TopologyConfig(kind=TopologyKind.INDEPENDENT_LASERS)
        spec = interference_spectrum(topo)
        assert spec.oscillation_period is None
        solve_tau_q(spec)
        sigma_map(topo, [1.0], np.geomspace(1e-6, 0.1, 9))
        assert len(compared) == 2

    def test_bare_callable_tail(self, compared):
        for tau in (1e-5, 1e-2):
            phase_variance(flat_1_over_f2(0.7).func, tau, f_max=np.inf)
        assert len(compared) == 2

    def test_query_one_ulp_above_knee(self, compared):
        spec = interference_spectrum(tfqkd.builtin_scenarios()[0].topology)
        for knee in spec.knees:
            f_query = np.array([knee / 100, np.nextafter(knee, np.inf)])
            coherence._variance_curve(spec, f_query, None)
        assert len(compared) == len(spec.knees)

    def test_segment_shorter_than_one_step(self, compared):
        # two queries closer than one log step, and two closer than one
        # uniform step below the switch frequency: each segment gets the
        # minimum of four steps
        spec = interference_spectrum(TopologyConfig(l_a=114.0, l_b=113.0))
        step = spec.oscillation_period / coherence._POINTS_PER_PERIOD
        f0 = 10 * spec.oscillation_period
        coherence._variance_curve(spec, np.array([1e5, 1e5 * (1 + 1e-6)]), None)
        coherence._variance_curve(spec, np.array([f0, f0 + step / 3]), None)
        assert len(compared) == 2

    # a bare spectrum switching at 100 Hz: on f_lo, on a query node, on
    # a finite f_max, below the grid and above it
    @pytest.mark.parametrize("f_query, f_max", [
        ([100.0, 1e3], np.inf), ([100.0, 1e3], 1e4), ([10.0, 100.0, 1e3], 1e4),
        ([10.0, 100.0], np.inf), ([1.0], 100.0), ([1e3], np.inf), ([1.0], 50.0)],
        ids=["f_lo", "f_lo_finite", "query", "query_tail", "f_max", "below", "above"])
    def test_switch_on_grid_edges(self, compared, f_query, f_max):
        spec = oscillatory_bare_spectrum(2.0)
        assert coherence.OSC_PERIODS * spec.oscillation_period == 100.0
        f = coherence._variance_curve(spec, np.array(f_query), f_max)[0]
        # a switch node and its fourth copy are on the every-fourth-node grid
        assert np.count_nonzero(f == 100.0) == (2 if f[0] <= 100.0 <= f[-1] else 0)
        assert len(compared) == 1


def test_grid_makes_no_per_segment_numpy_call(monkeypatch):
    taus = np.geomspace(1e-6, 0.1, 200)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-segment grid call")

    monkeypatch.setattr(np, "geomspace", forbidden)
    monkeypatch.setattr(np, "linspace", forbidden)
    m = sigma_map(tfqkd.builtin_scenarios()[3].topology, [2.5], taus)
    assert np.all(np.isfinite(m.sigma_phi))
    for preset in tfqkd.builtin_scenarios():
        assert np.isfinite(tfqkd.solve_scenario(preset).tau_q)


class TestOneEvaluationPerFrequency:
    @pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-2])
    def test_each_frequency_reaches_one_form_once(self, tau):
        base = interference_spectrum(TopologyConfig(l_a=114.0, l_b=113.0))
        f_switch = coherence.OSC_PERIODS * base.oscillation_period
        seen = {"exact": [], "averaged": []}

        def recorded(form, fn):
            def psd(f):
                seen[form].append(np.array(f, dtype=float, copy=True))
                return fn(f)
            return psd

        spec = dataclasses.replace(base, func=recorded("exact", base.func),
                                   averaged_func=recorded("averaged", base.averaged_func))
        assert phase_variance(spec, tau) == phase_variance(base, tau)
        exact = np.concatenate(seen["exact"])
        averaged = np.concatenate(seen["averaged"])
        assert exact.size and averaged.size
        # the switch node ends the exact piece, and its four zero-width
        # copies start the averaged one
        assert np.all(exact <= f_switch) and np.all(averaged >= f_switch)
        assert np.count_nonzero(exact == f_switch) == 1
        assert np.count_nonzero(averaged == f_switch) == 4
        both = np.concatenate([exact, averaged])
        assert np.unique(both).size == both.size - 4


class TestQber:
    def test_exact_vs_quadrature(self):
        # oracle: numerical quadrature of sin^2(phi/2) against the Gaussian
        for sigma in np.linspace(0.05, 1.0, 12):
            def integrand(phi):
                return (np.sin(phi / 2.0) ** 2
                        * np.exp(-phi**2 / (2 * sigma**2))
                        / np.sqrt(2 * np.pi * sigma**2))
            ref, _ = quad(integrand, -12 * sigma, 12 * sigma, limit=400)
            assert qber_from_variance(sigma**2) == pytest.approx(ref, abs=1e-10)

    def test_zero(self):
        assert qber_from_variance(0.0) == 0.0

    def test_threshold_values(self):
        assert qber_small_angle(0.2**2) == pytest.approx(0.01, rel=1e-12)
        exact = qber_from_variance(0.2**2)
        assert exact == pytest.approx((1 - np.exp(-0.02)) / 2, rel=1e-12)
        assert exact < 0.01  # exact is below the small-angle value

    def test_approximation_quality(self):
        for sigma in np.linspace(0.01, 0.3, 10):
            exact = qber_from_variance(sigma**2)
            approx = qber_small_angle(sigma**2)
            assert exact <= approx
            assert approx == pytest.approx(exact, rel=0.05)

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            qber_from_variance(-1e-9)
        with pytest.raises(DomainError):
            qber_small_angle(-1e-9)

    def test_saturates_below_half(self):
        assert qber_from_variance(1e6) == pytest.approx(0.5, rel=1e-9)


class TestDutyCycle:
    def test_values(self):
        assert duty_cycle(0.1, 1e-3) == pytest.approx(0.990099009901, rel=1e-10)
        assert duty_cycle(1e-3, 1e-3) == 0.5
        assert duty_cycle(700e-6, 1e-3) == pytest.approx(0.4117647058823529, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            duty_cycle(0.0, 1e-3)


class TestSolveTauQ:
    def test_zero_psd_clips(self):
        res = solve_tau_q(Spectrum(lambda f: np.zeros_like(np.asarray(f, float))))
        assert res.tau_q == 0.1
        assert res.sigma_phi == 0.0
        assert res.clipped

    def test_bracket_property(self):
        budget = CoherenceBudget()
        spec = flat_1_over_f2(0.08)  # sigma(tau) = sqrt(0.08 tau): tau* = 0.5 -> clip? 0.04/0.08=0.5>0.1 -> clipped
        res = solve_tau_q(spec, budget)
        assert res.clipped  # threshold not reached by tau_max
        spec = flat_1_over_f2(4.0)  # tau* = 0.01
        res = solve_tau_q(spec, budget)
        assert not res.clipped and not res.floored
        assert res.tau_q == pytest.approx(0.01, rel=1e-6)
        sig_here = np.sqrt(phase_variance(spec, res.tau_q))
        sig_past = np.sqrt(phase_variance(spec, res.tau_q * (1 + 1e-3)))
        assert sig_here <= budget.sigma_threshold * (1 + 1e-9) < sig_past

    def test_non_finite_psd_is_named(self):
        # tau_max = 1e200 puts the lowest grid node at 1e-200 Hz, where the
        # scenario's PSD is not finite: the typed error, with no numpy
        # warning before it
        spec = interference_spectrum(tfqkd.builtin_scenario(1).topology)
        with pytest.raises(
                DivergentIntegralError,
                match=r"^PSD is not finite on the integration grid \(at f = 1e-200 Hz\)$"):
            solve_tau_q(spec, CoherenceBudget(tau_max=1e200))

    def test_floored_flag(self):
        spec = flat_1_over_f2(1e6)  # sigma(1us) = 1 > 0.2
        res = solve_tau_q(spec)
        assert res.floored
        assert res.tau_q == 1e-6

    def test_one_grid_per_solve(self, monkeypatch):
        # the window comes from one cumulative integral, not from repeated
        # phase_variance calls
        calls = []
        orig = coherence._variance_curve

        def counted(*args, **kwargs):
            calls.append(args[1])
            return orig(*args, **kwargs)

        monkeypatch.setattr(coherence, "_variance_curve", counted)
        res = tfqkd.solve_scenario(tfqkd.builtin_scenarios()[0])
        assert len(calls) == 1
        assert not res.clipped and not res.floored
        assert res.sigma_phi == 0.2

    @pytest.mark.parametrize("field", ["sigma_threshold", "tau_max", "tau_ps", "tau_floor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_budget_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(DomainError):
            CoherenceBudget(**{field: value})

    @pytest.mark.parametrize("f_max", [np.nan, 0.0, -1.0])
    def test_budget_rejects_bad_f_max(self, f_max):
        with pytest.raises(DomainError):
            CoherenceBudget(f_max=f_max)

    def test_budget_allows_infinite_f_max(self):
        res = solve_tau_q(flat_1_over_f2(4.0), CoherenceBudget(f_max=np.inf))
        assert res.tau_q == pytest.approx(0.01, rel=1e-6)

    def test_result_fields_consistent(self):
        spec = flat_1_over_f2(4.0)
        res = solve_tau_q(spec)
        assert res.duty_cycle == pytest.approx(res.tau_q / (res.tau_q + 1e-3), rel=1e-12)
        assert res.e_phi == pytest.approx(qber_from_variance(res.sigma_phi**2), rel=1e-12)

    @pytest.mark.parametrize("sid, budget, state", [
        *((sid, CoherenceBudget(), "clipped" if sid in (2, 5, 7) else None)
          for sid in range(1, 8)),
        (2, CoherenceBudget(tau_max=1, tau_ps=1), "clipped"),
        (3, CoherenceBudget(sigma_threshold=1e-3), "floored")])
    def test_solved_point_holds_python_scalars(self, sid, budget, state):
        # one type from the solve to the sweep, with plain float and bool
        # fields also for int budget values, and the duty cycle derived
        op = tfqkd.solve_scenario(tfqkd.builtin_scenario(sid), budget=budget)
        assert isinstance(op, OperatingPoint)
        for field in dataclasses.fields(op):
            kind = bool if field.name in ("clipped", "floored") else float
            assert type(getattr(op, field.name)) is kind, field.name
        assert op.duty_cycle == duty_cycle(op.tau_q, budget.tau_ps)
        assert op.clipped == (state == "clipped") and op.floored == (state == "floored")


    def test_operating_point_is_clipped_or_floored_not_both(self):
        # a window stops at tau_max or at tau_floor, and the solve sets one flag
        for clipped, floored in ((True, False), (False, True)):
            op = OperatingPoint(tau_q=1e-3, sigma_phi=0.2, e_phi=0.01, clipped=clipped,
                                floored=floored)
            assert (op.clipped, op.floored) == (clipped, floored)
        with pytest.raises(DomainError, match="cannot be both clipped at tau_max and floored"):
            OperatingPoint(tau_q=1e-3, sigma_phi=0.2, e_phi=0.01, clipped=True, floored=True)


class TestSigmaMap:
    def test_independent_rows_constant(self):
        topo = TopologyConfig(kind=TopologyKind.INDEPENDENT_LASERS,
                              laser_stabilized=True)
        m = sigma_map(topo, [0.01, 0.1, 1.0, 10.0], [1e-5, 1e-4, 1e-3])
        for row in m.sigma_phi:
            assert np.all(row == row[0])

    def test_isoline_consistent_with_map(self):
        topo = tfqkd.builtin_scenarios()[0].topology
        taus = np.geomspace(1e-5, 1e-2, 15)
        m = sigma_map(topo, [0.02, 0.5, 2.5], taus)
        iso = m.isoline(0.2)
        for j, t_star in enumerate(iso):
            if np.isnan(t_star):
                assert m.sigma_phi[-1, j] <= 0.2
                continue
            below = taus < t_star
            above = taus > t_star
            if below.any():
                assert m.sigma_phi[below, j].max() <= 0.2 + 1e-9
            if above.any():
                assert m.sigma_phi[above, j].min() >= 0.2 - 1e-9

    def test_stabilized_everything_isoline_beyond_1s(self):
        topo = TopologyConfig(laser_stabilized=True, fiber_stabilized=True,
                              l_a=114.0, l_b=114.0)
        m = sigma_map(topo, [0.01, 0.1, 1.0, 10.0], np.geomspace(1e-3, 4.0, 10))
        iso = m.isoline(0.2)
        assert np.all(np.isnan(iso) | (iso > 1.0))

    def test_isoline_rejects_non_finite_level(self):
        topo = tfqkd.builtin_scenarios()[0].topology
        m = sigma_map(topo, [0.02, 0.5], [1e-5, 1e-4, 1e-3])
        for level in (np.nan, np.inf):
            with pytest.raises(DomainError):
                m.isoline(level)

    def test_free_running_large_mismatch_below_100us(self):
        topo = TopologyConfig(l_a=114.0, l_b=114.0)
        m = sigma_map(topo, [1.0, 2.5, 5.0], np.geomspace(1e-6, 1e-3, 16))
        iso = m.isoline(0.2)
        assert np.all(iso < 1e-4)

    def test_isoline_is_the_window_solve_of_each_column(self):
        # the crossing of solve_tau_q on each column's curve, with the
        # map's longest and shortest tau as clip and floor
        dls, taus = np.geomspace(0.001, 10.0, 4), np.geomspace(1e-6, 1.0, 25)
        for preset in tfqkd.builtin_scenarios():
            m = sigma_map(preset.topology, dls, taus)
            for level in (0.05, 0.2, 0.5):
                budget = CoherenceBudget(sigma_threshold=level, tau_max=1.0, tau_floor=1e-6)
                for d, tau in zip(dls, m.isoline(level)):
                    res = solve_tau_q(interference_spectrum(preset.topology, delta_l_km=d), budget)
                    if res.clipped:
                        assert np.isnan(tau)
                    elif res.floored:
                        assert tau == 1e-6
                    else:
                        assert tau == pytest.approx(res.tau_q, rel=1e-5)

    def test_isoline_at_the_preset_mismatch_is_the_preset_window(self):
        # on the demo's 16 windows the log-linear read was 9.8 % short
        preset = tfqkd.builtin_scenario(1)
        m = sigma_map(preset.topology, [preset.topology.delta_l], np.geomspace(1e-6, 0.1, 16))
        assert m.isoline(0.2)[0] == pytest.approx(tfqkd.solve_scenario(preset).tau_q, rel=1e-6)
        tau = m.isoline(0.2)[0]
        assert tau == pytest.approx(reference_tau_q(
            interference_spectrum(preset.topology), 0.2, tau), rel=1e-6)

    def test_isoline_clipped_and_floored_columns(self):
        # 1 m stays under 0.2 rad up to 10 us (clipped: NaN), and 2.5 km is
        # above it already at 100 us (floored: the shortest tau); the
        # deciding cells against the reference
        topo = tfqkd.builtin_scenarios()[0].topology
        clipped = sigma_map(topo, [0.001], [1e-6, 1e-5])
        floored = sigma_map(topo, [2.5], [1e-4, 1e-3])
        longest = reference_sigma(interference_spectrum(topo, delta_l_km=0.001), 1e-5)
        shortest = reference_sigma(interference_spectrum(topo, delta_l_km=2.5), 1e-4)
        assert clipped.sigma_phi[-1, 0] == pytest.approx(longest, rel=SIGMA_RTOL)
        assert floored.sigma_phi[0, 0] == pytest.approx(shortest, rel=SIGMA_RTOL)
        assert longest < 0.2 < shortest
        assert np.isnan(clipped.isoline(0.2)).all()
        assert floored.isoline(0.2).tolist() == [1e-4]

    def test_isoline_level_zero_and_negative(self):
        # a level is a phase deviation: 0 floors every column with noise,
        # and a negative one is refused as NaN is
        topo = tfqkd.builtin_scenarios()[0].topology
        m = sigma_map(topo, [0.02, 2.5], [1e-5, 1e-4, 1e-3])
        assert m.isoline(0).tolist() == m.isoline(0.0).tolist() == [1e-5, 1e-5]
        for level in (-0.2, -1e-300, "0.2", None):
            with pytest.raises(DomainError, match="^level must be a finite number >= 0"):
                m.isoline(level)

    def test_map_of_windows_shorter_than_1_over_f_max_is_zero(self):
        # every 1/tau above f_max = 2e7 Hz: zero cells, and a clipped
        # isoline, since the variance never reaches the level
        m = sigma_map(tfqkd.builtin_scenarios()[0].topology, [0.02], [1e-9, 1e-8])
        assert m.sigma_phi.tolist() == [[0.0], [0.0]]
        assert np.isnan(m.isoline(0.2)).all() and np.isnan(m.isoline(0.0)).all()

    def test_rejects_bad_grids(self):
        topo = tfqkd.builtin_scenarios()[0].topology
        with pytest.raises(DomainError):
            sigma_map(topo, [], [1e-4])
        with pytest.raises(DomainError):
            sigma_map(topo, [1.0, 0.5], [1e-4, 1e-3])

    @pytest.mark.parametrize("dl, taus", [([np.nan, 1.0], [1e-4]), ([1.0], [1e-4, np.nan]),
                                          ([1.0, np.inf], [1e-4]), ([1.0], [1e-4, np.inf]),
                                          ([1.0], [-1e-4, 1e-3])])
    def test_rejects_non_finite_grids(self, dl, taus):
        with pytest.raises(DomainError):
            sigma_map(tfqkd.builtin_scenarios()[0].topology, dl, taus)

    def test_csv_export(self):
        topo = tfqkd.builtin_scenarios()[0].topology
        m = sigma_map(topo, [0.02, 2.5], [1e-5, 1e-3])
        lines = m.csv_text().strip().split("\n")
        assert lines[0] == "delta_l_km,tau_q_s,sigma_phi_rad"
        assert len(lines) == 1 + 4

    def test_maps_compare_and_hash_by_identity(self):
        # the generated __eq__ compared the array fields, which raised
        # ValueError, and left the map unhashable
        topo = tfqkd.builtin_scenarios()[0].topology
        m, other = (sigma_map(topo, [0.1, 1.0], [1e-5, 1e-4]) for _ in range(2))
        assert m == m and m != other
        assert hash(m) == hash(m) and len({m, other}) == 2
