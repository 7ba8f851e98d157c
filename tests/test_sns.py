"""Sending-or-not-sending window statistics, pairing transform and rates."""

import numpy as np
import pytest

from tfqkd import (
    ChannelErrorModel,
    DecoySet,
    DetectorParams,
    DomainError,
    McConfig,
    SNSPD,
    SnsParams,
    SnsWindowStats,
    aopp_transform,
    decoy_bounds,
    effective_click_probability,
    mc_click_stats,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
)

P = SnsParams()
DECOYS = DecoySet()
F_EC = 1.15
NO_DARKS = DetectorParams(eta_d=0.9, dark_rate=1e-12, clock_rate=1e9)
DARK_FREE = DetectorParams(eta_d=0.9, dark_rate=0.0)


def window_stats(p, arm_t, e_phi, det=SNSPD):
    """sns_window_stats on the per-arm channel's decoy bounds."""
    m = ChannelErrorModel(eta_hat=arm_t, p_dc=det.p_dc, e_phi=e_phi)
    return sns_window_stats(p, decoy_bounds(DECOYS, m), arm_t, det.p_dc)


class TestEffectiveClickProbability:
    def test_single_sender_closed_form(self):
        # one party silent: no interference, delta drops out
        mu, t = 0.2, 0.03
        x = mu * t
        exact = 2.0 * (1.0 - np.exp(-x / 2.0)) * np.exp(-x / 2.0)
        got = effective_click_probability(mu, 0.0, t, 0.0)
        assert got == pytest.approx(exact, rel=1e-12)
        # equals the any-click probability up to the double-click share
        assert abs(got - (1.0 - np.exp(-x))) == pytest.approx(
            (1.0 - np.exp(-x / 2.0)) ** 2, rel=1e-9)

    def test_both_silent_darks_only(self):
        p_dc = 1e-8
        got = effective_click_probability(0.0, 0.0, 0.5, p_dc)
        assert got == pytest.approx(2.0 * p_dc * (1.0 - p_dc), rel=1e-9)

    def test_rejects_intensities_beyond_the_closed_form(self):
        # exp(-S) and I0(x) would under- and overflow
        effective_click_probability(500.0, 500.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            effective_click_probability(600.0, 600.0, 1.0, 0.0)

    def test_matches_monte_carlo(self):
        for seed, (mu_a, mu_b, t, p_dc) in enumerate([
                (0.2, 0.2, 0.03, 1e-8), (0.2, 5e-6, 0.1, 1e-7),
                (0.35, 0.1, 0.01, 1e-6)]):
            ana = effective_click_probability(mu_a, mu_b, t, p_dc)
            s = mc_click_stats(mu_a, mu_b, t, p_dc,
                               McConfig(samples=300_000, seed=100 + seed))
            mc = s.c_only + s.d_only
            se = float(np.hypot(s.se_c_only, s.se_d_only))
            assert abs(ana - mc) < 3.0 * se


class TestWindowStats:
    def test_rates_sum_to_total(self):
        s = window_stats(P, 0.03, e_phi=0.01)
        assert s.n_ss + s.n_sn + s.n_ns + s.n_nn == pytest.approx(s.n_t, abs=1e-15)

    def test_bit_flip_error_composition(self):
        s = window_stats(P, 0.03, e_phi=0.01)
        assert s.e_z == pytest.approx((s.n_ss + s.n_nn) / s.n_t, rel=1e-12)

    def test_e_z_invariant_in_phase_noise(self):
        ref = window_stats(P, 0.03, e_phi=0.0)
        for e_phi in (0.005, 0.01, 0.05, 0.2):
            s = window_stats(P, 0.03, e_phi=e_phi)
            assert s.e_z == ref.e_z  # exact equality, not approx
            assert s.n_t == ref.n_t

    def test_e1ph_monotone_in_phase_noise(self):
        vals = [window_stats(P, 0.03, e_phi=e).e1ph_up
                for e in (0.0, 0.01, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_untagged_bounded_by_singles(self):
        s = window_stats(P, 0.03, e_phi=0.01)
        assert 0.0 < s.n1_low <= s.n_sn + s.n_ns

    def test_rejects_bad_transmittance(self):
        b = decoy_bounds(DECOYS, ChannelErrorModel(eta_hat=0.03, p_dc=SNSPD.p_dc))
        for arm_t in (-0.1, 1.5, np.nan):
            with pytest.raises(DomainError, match="^arm_t must be"):
                sns_window_stats(P, b, arm_t, SNSPD.p_dc)

    @pytest.mark.parametrize("arm_t", [0.0, np.zeros(3)], ids=["float", "array"])
    def test_zero_transmittance_clicks_dark_counts_only(self, arm_t):
        # arm_t = 0, where a sweep's loss underflows: every send pattern
        # clicks on dark counts alone, and without them there is no decoy
        # estimate, no single photon and no key
        eps = P.epsilon
        for det in (SNSPD, DARK_FREE):
            dark = effective_click_probability(0.0, 0.0, 0.5, det.p_dc)
            s = window_stats(P, arm_t, e_phi=0.01, det=det)
            assert np.all(s.n_ss == eps**2 * dark)
            assert np.all(s.n_sn == eps * (1 - eps) * dark) and np.all(s.n_ns == s.n_sn)
            assert np.all(s.n_nn == (1 - eps) ** 2 * dark)
        assert not np.any(s.decoy_ok) and np.all(s.n1_low == 0.0) and np.all(s.n_t == 0.0)
        assert np.all(sns_rate(s, P, F_EC) == 0.0)


class TestAopp:
    def test_error_free_input_stays_error_free(self):
        s = SnsWindowStats(n_t=1e-3, n_ss=0.0, n_sn=5e-4, n_ns=5e-4, n_nn=0.0,
                           e_z=0.0, n1_low=4e-4, e1ph_up=0.03, decoy_ok=True)
        a = aopp_transform(s)
        assert a.e_z_prime == 0.0

    def test_balanced_strings_pair_everything(self):
        s = window_stats(P, 0.03, e_phi=0.01)
        a = aopp_transform(s)
        n0 = s.n_ss + s.n_ns
        n1 = s.n_sn + s.n_nn
        assert a.pair_rate == min(n0, n1)
        assert a.n_t_prime <= a.pair_rate

    def test_empty_side_no_survivors(self):
        s = SnsWindowStats(n_t=1e-3, n_ss=0.0, n_sn=1e-3, n_ns=0.0, n_nn=0.0,
                           e_z=0.0, n1_low=1e-4, e1ph_up=0.03, decoy_ok=True)
        a = aopp_transform(s)
        assert a.n_t_prime == 0.0
        assert sns_aopp_rate(a, P, F_EC) == 0.0

    def test_pairing_rejects_errors(self):
        s = window_stats(P, 0.03, e_phi=0.01)
        a = aopp_transform(s)
        assert a.e_z_prime < s.e_z / 10.0
        assert a.n1_prime == pytest.approx(s.n1_low * a.n_t_prime / s.n_t, rel=1e-12)
        assert a.e1ph_prime == s.e1ph_up

    def test_aopp_beats_plain_with_reoptimized_epsilon(self):
        # 30 dB total attenuation, defaults; pairing must beat the plain
        # protocol even when the plain sending probability is re-optimized
        arm_t = float(np.sqrt(1e-3 * 0.9))
        aopp = sns_aopp_rate(aopp_transform(
            window_stats(P, arm_t, e_phi=0.001)), P, F_EC)
        best_plain = 0.0
        for eps in np.linspace(0.01, 0.6, 40):
            p = SnsParams(epsilon=float(eps))
            r = sns_rate(window_stats(p, arm_t, e_phi=0.001), p, F_EC)
            best_plain = max(best_plain, r)
        assert aopp >= best_plain


class TestRates:
    def test_saturated_errors_zero_rate(self):
        s = SnsWindowStats(n_t=1e-3, n_ss=4e-4, n_sn=1e-4, n_ns=1e-4, n_nn=4e-4,
                           e_z=0.8, n1_low=1e-4, e1ph_up=0.6, decoy_ok=True)
        assert sns_rate(s, P, F_EC) == 0.0

    def test_decoy_failure_zero_rate(self):
        s = SnsWindowStats(n_t=1e-3, n_ss=1e-5, n_sn=5e-4, n_ns=5e-4, n_nn=1e-6,
                           e_z=0.01, n1_low=0.0, e1ph_up=1.0, decoy_ok=False)
        assert sns_rate(s, P, F_EC) == 0.0

    def test_rejects_f_ec_below_one(self):
        s = window_stats(P, 0.03, e_phi=0.01)
        with pytest.raises(DomainError):
            sns_rate(s, P, 0.99)
        with pytest.raises(DomainError):
            sns_aopp_rate(aopp_transform(s), P, 0.99)

    def test_phase_noise_hits_only_phase_error_term(self):
        arm_t = 0.03
        rates = []
        for e_phi in (0.0, 0.02, 0.05):
            s = window_stats(P, arm_t, e_phi=e_phi)
            a = aopp_transform(s)
            rates.append(sns_aopp_rate(a, P, F_EC))
            assert s.e_z == window_stats(P, arm_t, e_phi=0.0).e_z
        assert rates[0] > rates[1] > rates[2]

    def test_rate_decreases_with_attenuation(self):
        prev = np.inf
        for att in (20.0, 30.0, 40.0, 50.0, 60.0):
            arm_t = float(np.sqrt(10 ** (-att / 10.0) * 0.9))
            a = aopp_transform(window_stats(P, arm_t, e_phi=0.001))
            r = sns_aopp_rate(a, P, F_EC)
            assert 0.0 <= r < prev
            prev = r
