"""Phase-variance integration, window solver, duty cycle and QBER mapping."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import tfqkd
import tfqkd.coherence as coherence
from tfqkd import (
    CoherenceBudget,
    DivergentIntegralError,
    DomainError,
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


def reference_phase_variance(psd, tau_q, f_max=None, rel_tol=1e-4, points_per_decade=200):
    """The integrator as a plain loop: every doubling pass rebuilds the dense
    grid, oscillation points included, and evaluates both PSD forms on all
    of it before picking one per point."""
    spec = psd if isinstance(psd, Spectrum) else Spectrum(psd)
    if f_max is None:
        f_max = spec.default_f_max()
    f_lo = 1.0 / tau_q
    if f_lo >= f_max:
        return 0.0
    f_switch = None
    func = spec.func
    if spec.oscillation_period is not None and spec.averaged_func is not None:
        f_switch = coherence.OSC_PERIODS * spec.oscillation_period

        def func(f):
            f = np.asarray(f, dtype=float)
            return np.where(f < f_switch, spec.func(f), spec.averaged_func(f))

    def grid(f_hi, ppd):
        n = max(int(np.ceil(np.log10(f_hi / f_lo) * ppd)) + 1, 16)
        g = np.geomspace(f_lo, f_hi, n)
        knees = [k for k in spec.knees if f_lo < k < f_hi]
        if knees:
            g = np.concatenate([g, *(np.geomspace(k / 3.0, min(k * 3.0, f_hi), ppd)
                                     for k in knees)])
        if spec.oscillation_period is not None:
            hi = min(f_hi, f_switch if f_switch is not None else f_hi)
            if hi > f_lo:
                step = spec.oscillation_period / coherence.OSC_POINTS_PER_PERIOD
                n_osc = int(np.floor((hi - f_lo) / step))
                if n_osc > 0:
                    g = np.concatenate([g, f_lo + step * np.arange(1, n_osc + 1)])
        return np.unique(np.clip(g, f_lo, f_hi))

    f_body = f_max if np.isfinite(f_max) else max(f_lo * 1e4, *(k * 1e3 for k in spec.knees), 1.0)
    ppd, prev = points_per_decade, None
    for _ in range(4):
        g = grid(f_body, ppd)
        val = float(np.trapezoid(func(g), g))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            break
        prev = val
        ppd *= 2
    if not np.isfinite(f_max):
        val += coherence._tail_integral(func, f_body, val)
    return val


def oscillatory_bare_spectrum(period):
    """A common-laser-like 1/f^2 spectrum with no knees, so f_max is infinite."""
    def exact(f):
        f = np.asarray(f, float)
        return 4.0 * np.sin(np.pi * f / period) ** 2 * 0.3 / f**2 + 1e-3 / f**2

    def averaged(f):
        f = np.asarray(f, float)
        return 2.0 * 0.3 / f**2 + 1e-3 / f**2

    return Spectrum(exact, oscillation_period=period, averaged_func=averaged)


def hexes(values):
    return [float(v).hex() for v in values]


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

    def test_oscillatory_term_refined(self):
        # common topology with km-scale mismatch: integral must be stable
        # against grid density (oscillation handling, not luck)
        topo = TopologyConfig(l_a=114.0, l_b=111.5)
        spec = interference_spectrum(topo)
        v1 = phase_variance(spec, 5e-5, points_per_decade=200)
        v2 = phase_variance(spec, 5e-5, points_per_decade=500)
        assert v1 == pytest.approx(v2, rel=2e-3)


class TestOneEvaluationPerFrequency:
    TAUS = np.geomspace(1e-7, 1.0, 8)

    @pytest.mark.parametrize("f_max", [None, 1e6])
    @pytest.mark.parametrize("sid", range(1, 8))
    def test_presets_bit_identical_to_reference(self, sid, f_max):
        spec = interference_spectrum(tfqkd.builtin_scenarios()[sid - 1].topology)
        assert (hexes(phase_variance(spec, t, f_max=f_max) for t in self.TAUS)
                == hexes(reference_phase_variance(spec, t, f_max=f_max) for t in self.TAUS))

    @pytest.mark.parametrize("f_max", [None, 1e6])
    @pytest.mark.parametrize("dl", [0.0, *np.geomspace(0.001, 10.0, 5)])
    @pytest.mark.parametrize("sid", [1, 4])
    def test_mismatch_bit_identical_to_reference(self, sid, dl, f_max):
        topo = tfqkd.builtin_scenarios()[sid - 1].topology
        spec = interference_spectrum(topo, delta_l_km=float(dl))
        assert (hexes(phase_variance(spec, t, f_max=f_max) for t in self.TAUS)
                == hexes(reference_phase_variance(spec, t, f_max=f_max) for t in self.TAUS))

    @pytest.mark.parametrize("spec", [flat_1_over_f2(0.7).func, oscillatory_bare_spectrum(2e3)],
                             ids=["bare_callable", "oscillatory_no_knees"])
    def test_infinite_f_max_bit_identical_to_reference(self, spec):
        # no knees: f_max is infinite and the tail integral runs
        assert (hexes(phase_variance(spec, t) for t in self.TAUS)
                == hexes(reference_phase_variance(spec, t) for t in self.TAUS))

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
        assert np.all(exact < f_switch) and np.all(averaged >= f_switch)
        both = np.concatenate([exact, averaged])
        assert np.unique(both).size == both.size


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
        assert res.tau_q == pytest.approx(0.01, rel=0.02)
        sig_here = np.sqrt(phase_variance(spec, res.tau_q))
        sig_past = np.sqrt(phase_variance(spec, res.tau_q * (1 + 2 * budget.rel_tol_tau)))
        assert sig_here <= budget.sigma_threshold <= sig_past

    def test_floored_flag(self):
        spec = flat_1_over_f2(1e6)  # sigma(1us) = 1 > 0.2
        res = solve_tau_q(spec)
        assert res.floored
        assert res.tau_q == 1e-6

    def test_reuses_sigma_of_last_accepted_window(self, monkeypatch):
        # scenario 1 bisects: sigma at the two bracket ends and at 11
        # midpoints, and none after the search; fields as the search that
        # integrated once more at the returned window gave them
        calls = []
        orig = coherence.phase_variance

        def counted(*args, **kwargs):
            calls.append(args[1])
            return orig(*args, **kwargs)

        monkeypatch.setattr(coherence, "phase_variance", counted)
        res = tfqkd.solve_scenario(tfqkd.builtin_scenarios()[0])
        assert len(calls) == 13
        assert hexes([res.tau_q, res.sigma_phi, res.duty_cycle, res.e_phi]) == [
            "0x1.682684e39b5a9p-11", "0x1.982122bb9922bp-3",
            "0x1.a0fb25d56441ep-2", "0x1.421f62b9c6d02p-7"]
        assert not res.clipped and not res.floored

    def test_window_never_raised_is_integrated_afresh(self, monkeypatch):
        # threshold just above sigma(tau_floor): every midpoint fails, the
        # window stays at exp(log(tau_floor)), an ulp off tau_floor, so
        # its sigma is computed there and not taken from the floor check
        calls = []
        orig = coherence.phase_variance

        def counted(*args, **kwargs):
            calls.append(args[1])
            return orig(*args, **kwargs)

        monkeypatch.setattr(coherence, "phase_variance", counted)
        budget = CoherenceBudget(sigma_threshold=float.fromhex("0x1.b6a789c4e429ap-11"))
        res = solve_tau_q(flat_1_over_f2(0.7), budget)
        assert len(calls) == 14 and calls[-1] == res.tau_q != budget.tau_floor
        assert hexes([res.tau_q, res.sigma_phi, res.duty_cycle, res.e_phi]) == [
            "0x1.0c6f7a0b5ed8fp-20", "0x1.b6a789bd88280p-11",
            "0x1.05e1d27a3ee9ep-10", "0x1.77d0d82d5b8e2p-23"]
        assert not res.clipped and not res.floored

    def test_result_fields_consistent(self):
        spec = flat_1_over_f2(4.0)
        res = solve_tau_q(spec)
        assert res.duty_cycle == pytest.approx(res.tau_q / (res.tau_q + 1e-3), rel=1e-12)
        assert res.e_phi == pytest.approx(qber_from_variance(res.sigma_phi**2), rel=1e-12)


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

    def test_free_running_large_mismatch_below_100us(self):
        topo = TopologyConfig(l_a=114.0, l_b=114.0)
        m = sigma_map(topo, [1.0, 2.5, 5.0], np.geomspace(1e-6, 1e-3, 16))
        iso = m.isoline(0.2)
        assert np.all(iso < 1e-4)

    def test_rejects_bad_grids(self):
        topo = tfqkd.builtin_scenarios()[0].topology
        with pytest.raises(DomainError):
            sigma_map(topo, [], [1e-4])
        with pytest.raises(DomainError):
            sigma_map(topo, [1.0, 0.5], [1e-4, 1e-3])

    def test_csv_export(self, tmp_path):
        topo = tfqkd.builtin_scenarios()[0].topology
        m = sigma_map(topo, [0.02, 2.5], [1e-5, 1e-3])
        out = tmp_path / "map.csv"
        m.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "delta_l_km,tau_q_s,sigma_phi_rad"
        assert len(lines) == 1 + 4
