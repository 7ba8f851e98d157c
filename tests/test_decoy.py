"""Decoy-state bounds against the exact Poisson-mixture oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import (
    ChannelErrorModel,
    DecoySet,
    DomainError,
    bb84_rate,
    binary_entropy,
    decoy_bounds,
    error_gain,
    gain,
    poisson_true_yields,
    poisson_yield_gain,
    qber,
)

DEFAULTS = DecoySet()
F_EC = 1.15


def model(eta_hat=9e-5, p_dc=1e-8, e_theta=0.02, e_phi=0.01):
    return ChannelErrorModel(eta_hat=eta_hat, p_dc=p_dc, e_theta=e_theta, e_phi=e_phi)


class TestGain:
    def test_reference_value(self):
        m = model(eta_hat=0.01, p_dc=1e-8)
        expected = 1.0 - (1.0 - 1e-8) * np.exp(-0.4 * 0.01)
        assert gain(0.4, m) == pytest.approx(expected, rel=1e-14)
        assert gain(0.4, m) == pytest.approx(3.99203e-3, rel=1e-4)

    def test_vacuum_gives_darks(self):
        m = model(p_dc=3e-7)
        assert gain(0.0, m) == pytest.approx(3e-7, rel=1e-12)

    def test_linear_regime(self):
        m = model(eta_hat=1e-6, p_dc=0.0)
        assert gain(0.2, m) == pytest.approx(0.2 * 1e-6, rel=1e-6)

    def test_rejects_negative_intensity(self):
        with pytest.raises(DomainError):
            gain(-0.1, model())


class TestQber:
    def test_dark_free_equals_error_sum(self):
        m = model(eta_hat=0.05, p_dc=0.0)
        assert qber(0.4, m) == pytest.approx(m.e_theta + m.e_phi, rel=1e-12)

    def test_signal_dominated_limit(self):
        m = model(eta_hat=1.0, p_dc=1e-8)
        assert qber(40.0, m) == pytest.approx(m.e_theta + m.e_phi, rel=1e-6)

    def test_dark_dominated_limit(self):
        m = model(eta_hat=1e-9, p_dc=1e-6)
        # with a vanishing signal the surviving errors are half the darks
        assert qber(0.4, m) == pytest.approx(0.5, rel=1e-2)

    def test_zero_errors(self):
        m = model(p_dc=0.0, e_theta=0.0, e_phi=0.0)
        assert qber(0.4, m) == 0.0

    def test_undefined_at_zero_gain(self):
        m = model(eta_hat=0.0, p_dc=0.0)
        with pytest.raises(DomainError):
            qber(0.4, m)


class TestPoissonIdentity:
    @given(st.floats(1e-6, 1.0), st.floats(0.0, 0.01), st.floats(0.0, 0.25),
           st.floats(0.0, 0.25), st.floats(1e-3, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_mixture_matches_closed_forms(self, eta, pdc, eth, eph, mu):
        m = ChannelErrorModel(eta_hat=eta, p_dc=pdc, e_theta=eth, e_phi=eph)
        q_mix, e_mix = poisson_yield_gain(mu, m)
        assert q_mix == pytest.approx(gain(mu, m), abs=1e-12)
        assert e_mix * q_mix == pytest.approx(error_gain(mu, m), abs=1e-12)

    def test_vacuum(self):
        m = model(p_dc=1e-6)
        q, _ = poisson_yield_gain(0.0, m)
        assert q == pytest.approx(1e-6, rel=1e-9)

    @pytest.mark.parametrize("mu", [100.0, 300.0])
    def test_bright_pulses_sum_past_the_mode(self, mu):
        # the cutoff stopped at 20 photons, left of the mode, and returned
        # Q = 1.7e-22 at mu = 100 and 6.9e-100 at mu = 300
        m = ChannelErrorModel(eta_hat=0.1, p_dc=1e-6)
        q_mix, e_mix = poisson_yield_gain(mu, m)
        assert q_mix == pytest.approx(gain(mu, m), rel=1e-12)
        assert e_mix == pytest.approx(qber(mu, m), rel=1e-12)

    def test_zero_gain_raises(self):
        # no light and no dark counts: the QBER is 0/0
        m = ChannelErrorModel(eta_hat=0.0, p_dc=0.0)
        with pytest.raises(DomainError, match="^gain vanished; QBER undefined$"):
            poisson_yield_gain(0.5, m)

    def test_cutoff_cap_raises(self):
        # mu = 6000 needs more than 10,240 photons; the loop returned a
        # truncated sum without a word
        with pytest.raises(DomainError, match="cutoff"):
            poisson_yield_gain(6000.0, model())


class TestBounds:
    def test_bracketing_default_point(self):
        m = model()
        b = decoy_bounds(DEFAULTS, m)
        assert b.ok
        y0_true, _ = poisson_true_yields(m, 0)
        y1_true, ey1_true = poisson_true_yields(m, 1)
        assert b.y0_low <= y0_true + 1e-15
        assert b.y1_low <= y1_true + 1e-15
        assert b.e1ph_up >= ey1_true / y1_true - 1e-15
        assert b.q1_low <= y1_true * 0.4 * np.exp(-0.4)

    @given(st.floats(1e-6, 0.9), st.floats(0.0, 0.05), st.floats(0.0, 0.25),
           st.floats(0.0, 0.25))
    @settings(max_examples=150, deadline=None)
    def test_bracketing_randomized(self, eta, pdc, eth, eph):
        m = ChannelErrorModel(eta_hat=eta, p_dc=pdc, e_theta=eth, e_phi=eph)
        b = decoy_bounds(DEFAULTS, m)
        y0_true, _ = poisson_true_yields(m, 0)
        y1_true, ey1 = poisson_true_yields(m, 1)
        assert b.y0_low <= y0_true + 1e-12
        if b.ok:
            assert b.y1_low <= y1_true + 1e-12
            e1_true = ey1 / y1_true if y1_true > 0 else 0.0
            assert b.e1ph_up >= min(e1_true, 1.0) - 1e-12

    def test_zero_wacuum_decoy(self):
        s = DecoySet(u=0.4, v=0.16, w=0.0)
        m = model(p_dc=0.0)
        b = decoy_bounds(s, m)
        assert b.y0_low == 0.0

    def test_huge_signal_intensity_fails_the_estimation(self):
        # u**2 raised OverflowError from u = 1.34e154; e^u overflows too,
        # and the single-photon estimation fails: no key
        with np.errstate(over="ignore", invalid="ignore"):
            b = decoy_bounds(DecoySet(u=1e155), model())
        assert not b.ok and b.q1_low == 0.0

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            DecoySet(u=0.1, v=0.16, w=1e-5)

    def test_single_photon_bound_needs_u_above_v_plus_w(self):
        # ordered, but u - v - w = -0.05 divides the Y1 bound by a negative
        with pytest.raises(DomainError, match="^single-photon bound requires u > v \\+ w$"):
            DecoySet(u=0.3, v=0.2, w=0.15)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestBb84Rate:
    def test_saturated_phase_error_kills_rate(self):
        m = ChannelErrorModel(eta_hat=9e-5, p_dc=1e-8, e_theta=0.0, e_phi=0.5)
        assert bb84_rate(decoy_bounds(DEFAULTS, m), F_EC) == 0.0

    def test_noise_free_positive_across_loss(self):
        for eta in np.geomspace(1e-6, 1.0, 16):
            m = ChannelErrorModel(eta_hat=eta, p_dc=0.0, e_theta=0.0, e_phi=0.0)
            assert bb84_rate(decoy_bounds(DEFAULTS, m), F_EC) > 0.0

    def test_monotone_in_darks_and_phase_noise(self):
        base = bb84_rate(decoy_bounds(DEFAULTS, model(p_dc=1e-8)), F_EC)
        for pdc in (1e-7, 1e-6, 1e-5):
            assert bb84_rate(decoy_bounds(DEFAULTS, model(p_dc=pdc)), F_EC) <= base + 1e-18
        prev = bb84_rate(decoy_bounds(DEFAULTS, model(e_phi=0.0)), F_EC)
        for eph in (0.01, 0.05, 0.1, 0.3):
            cur = bb84_rate(decoy_bounds(DEFAULTS, model(e_phi=eph)), F_EC)
            assert cur <= prev + 1e-18
            prev = cur

    def test_rejects_f_ec_below_one(self):
        with pytest.raises(DomainError):
            bb84_rate(decoy_bounds(DEFAULTS, model()), 0.99)

    def test_masked_points_mask_every_array_field(self):
        # a point without gain beside array error terms: only eta_hat was
        # masked, so the other arrays kept both points and raised ValueError
        m = ChannelErrorModel(eta_hat=np.array([0.0, 0.5]), p_dc=0.0,
                              e_phi=np.array([0.01, 0.02]))
        key = bb84_rate(decoy_bounds(DecoySet(), m), 1.15)
        assert key[0] == 0.0
        point = ChannelErrorModel(eta_hat=0.5, p_dc=0.0, e_phi=0.02)
        assert key[1] == bb84_rate(decoy_bounds(DecoySet(), point), 1.15)
        wide = ChannelErrorModel(eta_hat=0.0, p_dc=0.0, e_theta=np.array([0.01, 0.02]))
        assert bb84_rate(decoy_bounds(DecoySet(), wide), 1.15).tolist() == [0.0, 0.0]
