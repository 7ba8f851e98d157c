"""Phase-encoding protocol: gain, bit error, cat amplitudes, pair yields,
phase-error bound and rate."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import (
    CalChannel,
    CalParams,
    CalStats,
    DomainError,
    cal_bit_error,
    cal_gain,
    cal_phase_error,
    cal_rate,
    cal_stats,
    fock_bs_distribution,
    fock_pair_yield,
    make_cal_channel,
)

CAL = CalParams()
F_EC = 1.15


class TestChannel:
    @pytest.mark.parametrize("kw", [
        {"gamma": math.nan}, {"gamma": math.inf}, {"gamma": np.array([0.1, math.nan])},
        {"gamma": 0.1, "sigma_phi": math.inf}, {"gamma": 0.1, "sigma_phi": math.nan},
        {"gamma": 0.1, "theta": -math.inf}, {"gamma": 0.1, "theta": math.nan}])
    def test_rejects_non_finite(self, kw):
        with pytest.raises(DomainError):
            CalChannel(**kw)


class TestGain:
    def test_dark_free_aligned(self):
        for gamma in (1e-4, 1e-2, 0.3):
            ch = CalChannel(gamma=gamma, sigma_phi=0.0, theta=0.0)
            assert cal_gain(ch, 0.0) == pytest.approx(
                (1.0 - math.exp(-2.0 * gamma)) / 2.0, rel=1e-12)

    def test_no_light_no_darks(self):
        assert cal_gain(CalChannel(gamma=0.0), 0.0) == 0.0

    def test_no_light_darks_only(self):
        p_d = 1e-3
        assert cal_gain(CalChannel(gamma=0.0), p_d) == pytest.approx(
            p_d * (1.0 - p_d), rel=1e-12)

    def test_even_in_omega(self):
        a = CalChannel(gamma=0.01, sigma_phi=0.3, theta=0.0)
        b = CalChannel(gamma=0.01, sigma_phi=np.pi - 0.3, theta=0.0)
        assert a.omega == pytest.approx(-b.omega, rel=1e-12)
        assert cal_gain(a, 1e-8) == pytest.approx(cal_gain(b, 1e-8), rel=1e-12)


class TestBitError:
    def test_perfect_alignment_zero(self):
        ch = CalChannel(gamma=0.01, sigma_phi=0.0, theta=0.0)
        assert cal_bit_error(ch, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_in_phase_noise(self):
        vals = [cal_bit_error(CalChannel(gamma=5e-4, sigma_phi=s, theta=0.28), 1e-8)
                for s in (0.0, 0.05, 0.1, 0.2, 0.4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_dark_dominated_half(self):
        assert cal_bit_error(CalChannel(gamma=1e-12), 1e-6) == pytest.approx(
            0.5, rel=1e-4)

    def test_undefined_at_zero_gain(self):
        with pytest.raises(DomainError):
            cal_bit_error(CalChannel(gamma=0.0), 0.0)

    def test_stays_below_half(self):
        for gamma in (1e-4, 1e-2):
            for sig in (0.0, 0.2, 1.0):
                e = cal_bit_error(CalChannel(gamma=gamma, sigma_phi=sig, theta=0.28),
                                  1e-7)
                assert 0.0 <= e <= 0.5


class TestCatCoefficients:
    """_cat_raw: the parity-j amplitudes of the cat states that the
    phase-error bound sums, normalized here by the parity weight."""

    @staticmethod
    def parity_weight(mu, j):
        """Squared norm 1/2 (1 +/- e^(-2 mu)) of the parity-j component."""
        return 0.5 * (1.0 + (-1.0) ** j * math.exp(-2.0 * mu))

    def test_parity_selection(self):
        # entry m of parity j is the |2m+j> amplitude: the two parities
        # interleave into the coherent state and hold nothing else
        from tfqkd.cal import _cat_raw

        mu, n = 0.018, np.arange(13)
        coherent = np.exp(-mu / 2.0) * mu ** (n / 2.0) / np.sqrt(
            [float(math.factorial(k)) for k in n])
        np.testing.assert_allclose(_cat_raw(mu, 0)[:7], coherent[0::2], rtol=1e-14)
        np.testing.assert_allclose(_cat_raw(mu, 1)[:6], coherent[1::2], rtol=1e-14)

    def test_vacuum_limit(self):
        from tfqkd.cal import _cat_raw

        c = _cat_raw(1e-10, 0) / math.sqrt(self.parity_weight(1e-10, 0))
        assert c[0] == pytest.approx(1.0, abs=1e-9)

    def test_normalization(self):
        from tfqkd.cal import _cat_raw

        for j in (0, 1):
            c = _cat_raw(0.018, j) / math.sqrt(self.parity_weight(0.018, j))
            assert np.sum(c * c) == pytest.approx(1.0, abs=1e-10)

    def test_cached_amplitudes_read_only(self):
        from tfqkd.cal import _cat_raw

        raw = _cat_raw(0.018, 1)
        assert _cat_raw(0.018, 1) is raw
        with pytest.raises(ValueError):
            raw[0] = 0.0


def oracle_click_pattern(n_a, n_b, t, p_d):
    """Independent route: binomial loss composed with the combinatorial
    beamsplitter distribution from the oracle module."""
    res = {"none": 0.0, "c_only": 0.0, "d_only": 0.0, "both": 0.0}
    for k_a in range(n_a + 1):
        wa = math.comb(n_a, k_a) * t**k_a * (1 - t) ** (n_a - k_a)
        for k_b in range(n_b + 1):
            wb = math.comb(n_b, k_b) * t**k_b * (1 - t) ** (n_b - k_b)
            dist = fock_bs_distribution(k_a, k_b)
            for m_c, p_bs in enumerate(dist):
                m_d = k_a + k_b - m_c
                pc = 1.0 if m_c > 0 else p_d
                pd_ = 1.0 if m_d > 0 else p_d
                w = wa * wb * p_bs
                res["none"] += w * (1 - pc) * (1 - pd_)
                res["c_only"] += w * pc * (1 - pd_)
                res["d_only"] += w * (1 - pc) * pd_
                res["both"] += w * pc * pd_
    return res


@lru_cache(maxsize=None)
def exact_splitter(n_a, n_b):
    """Independent exact route: expand (x + y)^n_a (x - y)^n_b, with x and
    y the creation operators of ports c and d, in integers; the
    coefficient k of x^m_c y^m_d gives the probability
    k^2 m_c! m_d! / (2^n n_a! n_b!)."""
    poly = [1]  # poly[m] is the coefficient of x^m
    for sign in (1,) * n_a + (-1,) * n_b:  # times (x + sign y)
        poly = [(poly[m - 1] if m > 0 else 0) + sign * (poly[m] if m < len(poly) else 0)
                for m in range(len(poly) + 1)]
    n = n_a + n_b
    norm = 2**n * math.factorial(n_a) * math.factorial(n_b)
    return tuple(Fraction(k * k * math.factorial(m_c) * math.factorial(n - m_c), norm)
                 for m_c, k in enumerate(poly))


def exact_pair_yield(n_a, n_b, t, p_d):
    """(none, c_only, d_only, both) of the float inputs as exact Fractions.

    With t = a/q and p_d = b/r, every term is an integer over the common
    denominator q^n 2^12 6!^2 r^2, so the sums run in integers.
    """
    a, q = t.as_integer_ratio()
    b, r = p_d.as_integer_ratio()
    scale = 2**12 * math.factorial(6) ** 2  # a multiple of every splitter denominator
    res = [0] * 4
    for k_a in range(n_a + 1):
        for k_b in range(n_b + 1):
            w = (math.comb(n_a, k_a) * math.comb(n_b, k_b) * a ** (k_a + k_b)
                 * (q - a) ** (n_a + n_b - k_a - k_b))
            dist = exact_splitter(k_a, k_b)
            for m_c, p_bs in enumerate(dist):
                ww = w * int(p_bs * scale)
                pc = r if m_c > 0 else b
                pd_ = r if m_c < len(dist) - 1 else b
                res[0] += ww * (r - pc) * (r - pd_)
                res[1] += ww * pc * (r - pd_)
                res[2] += ww * (r - pc) * pd_
                res[3] += ww * pc * pd_
    return [Fraction(v, q ** (n_a + n_b) * scale * r * r) for v in res]


class TestFockPairYield:
    def test_vacuum_never_clicks_without_darks(self):
        y = fock_pair_yield(0, 0, 0.5, 0.0)
        assert y.c_only == 0.0 and y.d_only == 0.0 and y.both == 0.0

    def test_single_photon_routes_evenly(self):
        t = 0.37
        y = fock_pair_yield(1, 0, t, 0.0)
        assert y.c_only == pytest.approx(t / 2.0, abs=1e-14)
        assert y.d_only == pytest.approx(t / 2.0, abs=1e-14)

    def test_hong_ou_mandel_no_coincidence(self):
        t = 0.8
        y = fock_pair_yield(1, 1, t, 0.0)
        assert y.both == pytest.approx(0.0, abs=1e-12)
        assert y.c_only == pytest.approx(t * t / 2.0 + t * (1 - t), abs=1e-12)

    @given(st.integers(0, 4), st.integers(0, 4), st.floats(0.0, 1.0),
           st.floats(0.0, 0.2))
    @settings(max_examples=80, deadline=None)
    def test_completeness(self, n_a, n_b, t, p_d):
        y = fock_pair_yield(n_a, n_b, t, p_d)
        assert y.none + y.c_only + y.d_only + y.both == pytest.approx(1.0, abs=1e-12)

    def test_swap_symmetry(self):
        y = fock_pair_yield(2, 1, 0.4, 1e-3)
        ys = fock_pair_yield(1, 2, 0.4, 1e-3)
        assert y.c_only == pytest.approx(ys.d_only, abs=1e-14)
        assert y.d_only == pytest.approx(ys.c_only, abs=1e-14)
        assert y.both == pytest.approx(ys.both, abs=1e-14)

    def test_matches_combinatorial_oracle(self):
        for t in (0.0, 0.123, 0.5, 1.0):
            for p_d in (0.0, 1e-4):
                for n_a in range(0, 5):
                    for n_b in range(0, 5 - n_a):
                        y = fock_pair_yield(n_a, n_b, t, p_d)
                        ref = oracle_click_pattern(n_a, n_b, t, p_d)
                        assert y.c_only == pytest.approx(ref["c_only"], abs=1e-12)
                        assert y.both == pytest.approx(ref["both"], abs=1e-12)
                        assert y.none == pytest.approx(ref["none"], abs=1e-12)

    def test_splitter_table_is_exact_and_correctly_rounded(self):
        # the exact splitter rationals the pair yields are built from, and
        # their floats as the oracle reads them
        from tfqkd.cal import FOCK_INPUT_MAX, _bs_exact

        zeros = 0
        for k_a in range(FOCK_INPUT_MAX + 1):
            for k_b in range(FOCK_INPUT_MAX + 1):
                ref = exact_splitter(k_a, k_b)
                assert sum(ref) == 1
                assert _bs_exact(k_a, k_b) == ref
                assert fock_bs_distribution(k_a, k_b).tolist() == [float(p) for p in ref]
                zeros += sum(p == 0 for p in ref)
        assert zeros == 31  # the Hong-Ou-Mandel cancellations

    def test_splitter_table_matches_matrix_exponential(self):
        # exp[(pi/4)(a^dag b - a b^dag)] on the two-mode space of up to 12
        # photons, which the generator leaves invariant
        from scipy.linalg import expm

        from tfqkd.cal import FOCK_INPUT_MAX

        d = 2 * FOCK_INPUT_MAX + 1
        a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
        a_full, b_full = np.kron(a, np.eye(d)), np.kron(np.eye(d), a)
        u = expm((a_full.T @ b_full - a_full @ b_full.T) * (np.pi / 4.0))
        entries = 0
        for k_a in range(FOCK_INPUT_MAX + 1):
            for k_b in range(FOCK_INPUT_MAX + 1):
                col = u[:, k_a * d + k_b].reshape(d, d)
                for m_c, p in enumerate(fock_bs_distribution(k_a, k_b)):
                    assert abs(p - col[m_c, k_a + k_b - m_c] ** 2) <= 1e-14
                    entries += 1
        assert entries == 343

    def test_within_sixteen_ulp_of_exact(self):
        # the splitter is exact; what remains is the rounding of the
        # transmittance powers and the polynomial sum (at most 8.5 ulp on
        # this grid)
        for t in (0.0, 1.0, 1e-300, 5e-324, 1e-6, 0.3, 0.5, 0.9):
            for p_d in (0.0, 1.0, 1e-8, 0.5):
                for n_a in range(7):
                    for n_b in range(7):
                        y = fock_pair_yield(n_a, n_b, t, p_d)
                        got = (y.none, y.c_only, y.d_only, y.both)
                        for v, ref in zip(got, exact_pair_yield(n_a, n_b, t, p_d)):
                            assert abs(Fraction(v) - ref) <= 16 * Fraction(
                                math.ulp(float(ref))), (n_a, n_b, t, p_d)

    def test_cutoff_enforced(self):
        with pytest.raises(DomainError):
            fock_pair_yield(7, 0, 0.5, 0.0)

    def test_poisson_mixture_matches_coherent_click_model(self):
        # phase-randomized coherent inputs are Poisson mixtures of photon
        # pairs: the mixture of exact pair yields must reproduce both the
        # phase-averaged quadrature model and the Monte-Carlo oracle
        from math import exp, factorial

        from tfqkd import McConfig, effective_click_probability, mc_click_stats

        mu_a, mu_b, t, p_d = 0.25, 0.15, 0.3, 1e-6
        mix = 0.0
        for n_a in range(0, 7):
            pa = exp(-mu_a) * mu_a**n_a / factorial(n_a)
            for n_b in range(0, 7):
                pb = exp(-mu_b) * mu_b**n_b / factorial(n_b)
                y = fock_pair_yield(n_a, n_b, t, p_d)
                mix += pa * pb * (y.c_only + y.d_only)
        ana = effective_click_probability(mu_a, mu_b, t, p_d)
        assert mix == pytest.approx(ana, rel=1e-6)  # Poisson tail above 6
        s = mc_click_stats(mu_a, mu_b, t, p_d,
                           McConfig(samples=10_000_000, seed=271))
        se = math.sqrt(ana * (1 - ana) / 10_000_000)
        assert abs(mix - (s.c_only + s.d_only)) < 3.0 * se


class TestPhaseError:
    def test_invariant_in_sigma(self):
        ch0 = make_cal_channel(0.03, CAL, sigma_phi=0.0, theta=0.28)
        ref = cal_phase_error(CAL, ch0, 1e-8)
        for sig in (0.05, 0.1, 0.2, 0.5):
            ch = make_cal_channel(0.03, CAL, sigma_phi=sig, theta=0.28)
            assert cal_phase_error(CAL, ch, 1e-8) == ref  # exact

    def test_small_intensity_expansion(self):
        # hand expansion at p_d = 0, theta = 0:
        # e_z ~ exp(-2 mu) mu (3 - 2 t) / (1 - t mu)
        mu, t = 1e-4, 0.01
        p = CalParams(mu_zeta=mu)
        ch = make_cal_channel(t, p, sigma_phi=0.0, theta=0.0)
        got = cal_phase_error(p, ch, 0.0)
        pred = math.exp(-2 * mu) * mu * (3.0 - 2.0 * t) / (1.0 - t * mu)
        assert got == pytest.approx(pred, rel=1e-2)

    def test_equals_sum_over_fock_pair_yields(self):
        # the bound reads each distinct c-only yield once; every value is
        # bit for bit the sum over fock_pair_yield(...).c_only
        from tfqkd.cal import _SETS, _cat_raw, _cat_remainder

        p, t = CAL, np.array([1.0, 0.3, 0.03, 1e-4, 1e-9])
        ch = make_cal_channel(t, p, sigma_phi=0.2, theta=0.28)
        total = 0.0
        for j, sset in _SETS.items():
            raw = _cat_raw(p.mu_zeta, j)
            explicit = 0.0
            for m_a, m_b in sset:
                y = fock_pair_yield(2 * m_a + j, 2 * m_b + j, t, 1e-8).c_only
                explicit = explicit + raw[m_a] * raw[m_b] * np.sqrt(np.maximum(y, 0.0))
            total = total + np.square(explicit + _cat_remainder(p.mu_zeta, j))
        expected = total / cal_gain(make_cal_channel(t, p, theta=0.28), 1e-8)
        assert np.array_equal(cal_phase_error(p, ch, 1e-8), expected)
        assert [cal_phase_error(p, make_cal_channel(ti, p, sigma_phi=0.2, theta=0.28), 1e-8)
                for ti in t] == expected.tolist()

    def test_error_at_zero_gain(self):
        ch = CalChannel(gamma=0.0)
        with pytest.raises(DomainError):
            cal_phase_error(CAL, ch, 0.0)

    def test_cat_sum_needs_enough_terms_for_the_intensity(self):
        # past amplitude index 20 (photon number 40) the amplitude ratio is
        # mu / sqrt(42 * 41), at or above 1 from mu = 41.497: no geometric
        # tail bounds the rest
        below, above = CalParams(mu_zeta=41.4), CalParams(mu_zeta=41.5)
        assert cal_phase_error(below, make_cal_channel(0.01, below), 1e-8) > 0.0
        with pytest.raises(DomainError,
                           match=r"^mu_zeta must be below 41\.497 for the cat sums, got 41\.5$"):
            cal_phase_error(above, make_cal_channel(0.01, above), 1e-8)


class TestRate:
    def test_zero_when_bracket_negative(self):
        # heavy phase noise pushes e_x high enough to kill the bracket
        ch = make_cal_channel(1e-4, CAL, sigma_phi=1.2, theta=0.28)
        assert cal_rate(cal_stats(CAL, ch, 1e-6), F_EC) == 0.0

    def test_sigma_enters_only_via_bit_error(self):
        p_d = 1e-8
        for sig_a, sig_b in ((0.0, 0.2), (0.05, 0.3)):
            ch_a = make_cal_channel(0.03, CAL, sigma_phi=sig_a, theta=0.28)
            ch_b = make_cal_channel(0.03, CAL, sigma_phi=sig_b, theta=0.28)
            assert cal_phase_error(CAL, ch_a, p_d) == cal_phase_error(CAL, ch_b, p_d)
            assert cal_bit_error(ch_a, p_d) < cal_bit_error(ch_b, p_d)
            assert (cal_rate(cal_stats(CAL, ch_a, p_d), F_EC)
                    > cal_rate(cal_stats(CAL, ch_b, p_d), F_EC))

    def test_positive_at_moderate_loss(self):
        ch = make_cal_channel(0.03, CAL, sigma_phi=0.0632, theta=0.28)
        assert cal_rate(cal_stats(CAL, ch, 1e-8), F_EC) > 0.0

    def test_rejects_f_ec_below_one(self):
        ch = make_cal_channel(0.03, CAL, sigma_phi=0.0632, theta=0.28)
        with pytest.raises(DomainError):
            cal_rate(cal_stats(CAL, ch, 1e-8), 0.99)


class TestStats:
    def test_the_three_kernels_where_there_is_gain(self):
        ch = make_cal_channel(0.03, CAL, sigma_phi=0.0632, theta=0.28)
        assert cal_stats(CAL, ch, 1e-8) == CalStats(
            gain=cal_gain(ch, 1e-8), e_x=cal_bit_error(ch, 1e-8),
            e_z_bound=cal_phase_error(CAL, ch, 1e-8))

    @pytest.mark.parametrize("arm_t", [0.0, np.zeros(2)], ids=["float", "array"])
    def test_errors_read_0_and_1_without_gain(self, arm_t):
        # a dark-free detector at zero transmittance has no gain: both
        # errors are undefined there and read 0 and 1, and there is no key
        c = cal_stats(CAL, make_cal_channel(arm_t, CAL, sigma_phi=0.2), 0.0)
        assert type(c.e_x) is type(c.e_z_bound) is type(arm_t)
        assert np.all(c.gain == 0.0) and np.all(c.e_x == 0.0) and np.all(c.e_z_bound == 1.0)
        assert np.all(cal_rate(c, F_EC) == 0.0)
