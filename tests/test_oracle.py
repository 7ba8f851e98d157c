"""The validators themselves: determinism, normalization, exact references."""

import numpy as np
import pytest

from tfqkd import (
    DomainError,
    FixedDelta,
    McConfig,
    fock_bs_distribution,
    mc_click_stats,
)


class TestMcClickStats:
    def test_deterministic_for_seed(self):
        cfg = McConfig(samples=50_000, seed=42)
        a = mc_click_stats(0.2, 0.1, 0.05, 1e-7, cfg)
        b = mc_click_stats(0.2, 0.1, 0.05, 1e-7, cfg)
        assert (a.none, a.c_only, a.d_only, a.both) == (b.none, b.c_only, b.d_only, b.both)

    def test_frequencies_normalize(self):
        s = mc_click_stats(0.3, 0.2, 0.1, 1e-6, McConfig(samples=10_000, seed=1))
        assert s.none + s.c_only + s.d_only + s.both == pytest.approx(1.0, abs=1e-12)

    def test_all_vacuum(self):
        s = mc_click_stats(0.0, 0.0, 0.5, 0.0, McConfig(samples=10_000, seed=5))
        assert s.none == 1.0 and s.both == 0.0

    def test_destructive_port_silent_at_zero_phase(self):
        cfg = McConfig(samples=100_000, seed=9, phase=FixedDelta(0.0))
        s = mc_click_stats(0.2, 0.2, 0.5, 0.0, cfg)
        assert s.d_only == 0.0 and s.both == 0.0
        assert s.c_only > 0.05

    def test_metadata(self):
        s = mc_click_stats(0.1, 0.1, 0.1, 0.0, McConfig(samples=1_000, seed=2))
        assert s.bit_generator == "philox4x64"
        assert s.samples == 1_000 and s.seed == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            mc_click_stats(-0.1, 0.1, 0.1, 0.0, McConfig(samples=10, seed=0))
        with pytest.raises(DomainError):
            McConfig(samples=0)


class TestFockBsDistribution:
    def test_hong_ou_mandel(self):
        p = fock_bs_distribution(1, 1)
        assert p[1] == pytest.approx(0.0, abs=1e-12)
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert p[2] == pytest.approx(0.5, abs=1e-12)

    def test_single_photon_splits(self):
        p = fock_bs_distribution(1, 0)
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_two_photons_one_port_binomial(self):
        p = fock_bs_distribution(2, 0)
        assert p == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)

    def test_normalization_up_to_cutoff(self):
        for n_a in range(0, 7):
            for n_b in range(0, 7):
                if n_a + n_b > 12:
                    continue
                assert fock_bs_distribution(n_a, n_b).sum() == pytest.approx(
                    1.0, abs=1e-12)

    def test_cutoff_enforced(self):
        with pytest.raises(DomainError):
            fock_bs_distribution(7, 6)


class TestSelfConsistency:
    def test_uniform_phase_matches_quadrature(self):
        # MC with uniform phase against the midpoint-rule click model
        from tfqkd import effective_click_probability
        ana = effective_click_probability(0.3, 0.25, 0.04, 1e-7)
        s = mc_click_stats(0.3, 0.25, 0.04, 1e-7, McConfig(samples=400_000, seed=17))
        mc = s.c_only + s.d_only
        se = float(np.hypot(s.se_c_only, s.se_d_only))
        assert abs(ana - mc) < 3.0 * se
