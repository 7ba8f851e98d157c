"""Channel budgets, detector presets and the repeaterless bound."""

import numpy as np
import pytest

from tfqkd import (
    SNSPD,
    SPAD,
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
        eta = balanced_link(100.0, 0.2, 0.0)
        assert type(eta) is float
        assert eta == pytest.approx(1e-4, rel=1e-12)

    def test_zero_length(self):
        assert balanced_link(0.0, 0.2, 0.0) == 1.0

    def test_worst_arm_rules(self):
        # the lossier 125 km arm sets the pace: 2 x 25 dB
        assert balanced_link(125.0, 0.2, 0.0) == link_from_attenuation(50.0)

    def test_total_is_square_of_worst_arm(self):
        for la, aplus in ((50.0, 0.0), (80.0, 3.0), (10.0, 1.0)):
            per_arm = 10.0 ** (-(0.2 * la + aplus) / 10.0)
            assert balanced_link(la, 0.2, aplus) == pytest.approx(per_arm**2, rel=1e-12)

    def test_monotone_in_length_and_loss(self):
        e1 = balanced_link(100.0, 0.2, 0.0)
        e2 = balanced_link(101.0, 0.2, 0.0)
        e3 = balanced_link(100.0, 0.2, 1.0)
        assert e2 < e1 and e3 < e1

    def test_from_attenuation(self):
        eta = link_from_attenuation(40.0)
        assert type(eta) is float
        assert eta == pytest.approx(1e-4, rel=1e-12)

    def test_array_entries_equal_float_calls(self):
        # each array entry is the float call at that point, bit for bit
        db = np.concatenate((np.linspace(0.0, 400.0, 4001), [1e-300, 3239.9, 5000.0]))
        eta = link_from_attenuation(db)
        assert isinstance(eta, np.ndarray) and eta.shape == db.shape
        assert eta.tolist() == [link_from_attenuation(a) for a in db.tolist()]
        l_a = db / 2.0
        eta = balanced_link(l_a, 0.2, 1.5)
        assert eta.tolist() == [balanced_link(x, 0.2, 1.5) for x in l_a.tolist()]
        assert link_from_attenuation(db.reshape(-1, 1)).shape == (db.size, 1)

    @pytest.mark.parametrize("total_db", [-1e-9, -5.0, np.nan, [0.0, np.nan], [3.0, -1.0]],
                             ids=["-1e-9", "-5", "nan", "array-nan", "array-negative"])
    def test_rejects_negative_or_nan_attenuation(self, total_db):
        with pytest.raises(DomainError, match="^total_db must be"):
            link_from_attenuation(total_db)


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
