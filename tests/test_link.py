"""Channel budgets, detector presets and the repeaterless bound."""

import numpy as np
import pytest

from tfqkd import (
    SNSPD,
    SPAD,
    ChannelParams,
    DetectorParams,
    DomainError,
    MisalignmentParams,
    arm_transmittance,
    balanced_link,
    effective_transmittance,
    link_from_attenuation,
    plob_bound,
)


class TestBalancedLink:
    def test_symmetric_100km(self):
        lb = balanced_link(ChannelParams(alpha=0.2, a_plus=0.0, l_a=100.0, l_b=100.0))
        assert lb.eta_arm == pytest.approx(1e-2, rel=1e-12)
        assert lb.eta == pytest.approx(1e-4, rel=1e-12)
        assert lb.l_eff_km == 200.0

    def test_zero_length(self):
        lb = balanced_link(ChannelParams(l_a=0.0, l_b=0.0))
        assert lb.eta == 1.0

    def test_worst_arm_rules(self):
        lb = balanced_link(ChannelParams(alpha=0.2, l_a=125.0, l_b=122.5))
        assert lb.eta_arm == pytest.approx(10 ** (-25.0 / 10.0), rel=1e-12)

    def test_total_is_square_of_worst_arm(self):
        for la, lb_km, aplus in ((50.0, 10.0, 0.0), (80.0, 80.0, 3.0), (10.0, 0.0, 1.0)):
            lb = balanced_link(ChannelParams(l_a=la, l_b=lb_km, a_plus=aplus))
            assert lb.eta == pytest.approx(lb.eta_arm**2, rel=1e-12)

    def test_monotone_in_length_and_loss(self):
        e1 = balanced_link(ChannelParams(l_a=100.0, l_b=100.0)).eta
        e2 = balanced_link(ChannelParams(l_a=101.0, l_b=100.0)).eta
        e3 = balanced_link(ChannelParams(l_a=100.0, l_b=100.0, a_plus=1.0)).eta
        assert e2 < e1 and e3 < e1

    def test_from_attenuation(self):
        lb = link_from_attenuation(40.0)
        assert lb.eta == pytest.approx(1e-4, rel=1e-12)
        assert lb.eta_arm == pytest.approx(1e-2, rel=1e-12)


class TestDetectors:
    def test_presets(self):
        assert SNSPD.p_dc == pytest.approx(1e-8, rel=1e-12)
        assert SPAD.p_dc == pytest.approx(5e-8, rel=1e-12)
        assert SNSPD.eta_d == 0.9 and SPAD.eta_d == 0.25

    def test_effective_transmittance(self):
        assert effective_transmittance(1e-4, SNSPD) == pytest.approx(9e-5, rel=1e-12)
        det = DetectorParams(eta_d=1.0, dark_rate=0.0)
        assert effective_transmittance(0.3, det) == 0.3
        assert effective_transmittance(0.0, SNSPD) == 0.0

    def test_arm_split_convention(self):
        t = arm_transmittance(effective_transmittance(1e-4, SNSPD))
        assert t**2 == pytest.approx(9e-5, rel=1e-12)

    def test_arm_transmittance_rejects_out_of_range(self):
        for eta_hat in (-1e-3, 1.0 + 1e-9):
            with pytest.raises(DomainError):
                arm_transmittance(eta_hat)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            DetectorParams(eta_d=0.0, dark_rate=10.0)
        with pytest.raises(DomainError):
            DetectorParams(eta_d=0.9, dark_rate=2e9, clock_rate=1e9)


class TestMisalignment:
    def test_angle_roundtrip(self):
        m = MisalignmentParams(e_theta=0.02)
        assert np.sin(m.theta / 2.0) ** 2 == pytest.approx(0.02, rel=1e-12)

    def test_bounds(self):
        with pytest.raises(DomainError):
            MisalignmentParams(e_theta=0.6)


class TestPlob:
    def test_half(self):
        assert plob_bound(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_small_eta_series(self):
        assert plob_bound(1e-4) == pytest.approx(1.4427e-4, rel=1e-3)

    def test_zero(self):
        assert plob_bound(0.0) == 0.0

    def test_large_loss_ratio(self):
        eta = 1e-5
        ratio = plob_bound(eta) / eta
        assert ratio == pytest.approx(1.0 / np.log(2.0), rel=1e-3)

    def test_rejects_unit_transmittance(self):
        with pytest.raises(DomainError):
            plob_bound(1.0)
        with pytest.raises(DomainError):
            plob_bound(-0.1)
