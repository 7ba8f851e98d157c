"""The validators themselves: determinism, normalization, exact references."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfqkd.oracle as oracle
from tfqkd import (
    CalParams,
    DomainError,
    FixedDelta,
    McConfig,
    UniformRandomized,
    fock_bs_distribution,
    make_cal_channel,
    mc_click_stats,
)


def reference_mc_counts(mu_a, mu_b, arm_t, p_d, cfg):
    """Counts (none, c_only, d_only, both) from one sequential Philox stream.

    The oracle's original loop: per chunk of 2^20 samples it draws the
    phases (uniform law only), then the c uniforms, then the d uniforms.
    """
    counts = np.zeros(4, dtype=np.int64)
    base = arm_t * (mu_a + mu_b) / 2.0
    cross = arm_t * np.sqrt(mu_a * mu_b)
    surv_prod = (1.0 - p_d) ** 2 * np.exp(-2.0 * base)
    chunk = 1 << 20
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    for done in range(0, cfg.samples, chunk):
        m = min(chunk, cfg.samples - done)
        if isinstance(cfg.phase, FixedDelta):
            phases = np.full(m, cfg.phase.delta)
        else:
            phases = rng.uniform(0.0, 2.0 * np.pi, m)
        buf = np.cos(phases)
        buf *= -cross
        buf -= base
        np.exp(buf, out=buf)
        buf *= 1.0 - p_d
        click_c = rng.random(m) >= buf
        np.divide(surv_prod, buf, out=buf)
        click_d = rng.random(m) >= buf
        n_both = np.count_nonzero(click_c & click_d)
        n_c = np.count_nonzero(click_c)
        n_d = np.count_nonzero(click_d)
        counts[3] += n_both
        counts[1] += n_c - n_both
        counts[2] += n_d - n_both
        counts[0] += m - n_c - n_d + n_both
    return tuple(int(c) for c in counts)


def _counts(s):
    return tuple(round(f * s.samples) for f in (s.none, s.c_only, s.d_only, s.both))


def _criterion_3_point(k):
    """(arm_t, p_dc, mu_z, mu_0, delta) of point k of acceptance criterion 3."""
    rng = np.random.Generator(np.random.Philox(2024))
    for _ in range(k + 1):
        arm_t = float(10.0 ** rng.uniform(-2.0, -0.5))
        p_dc = float(10.0 ** rng.uniform(-8.0, -5.5))
        mu_z = float(rng.uniform(0.1, 0.4))
        mu_0 = float(10.0 ** rng.uniform(-5.0, -4.0))
        ch = make_cal_channel(arm_t, CalParams(), sigma_phi=float(rng.uniform(0, 0.3)),
                              theta=0.28)
    return arm_t, p_dc, mu_z, mu_0, float(np.arccos(ch.omega))


_ARM_T, _P_DC, _MU_Z, _MU_0, _DELTA = _criterion_3_point(0)
# sample counts around 2^18 (four blocks) and the chunk (2^20) edges, with
# stream offsets that are not a multiple of the four doubles per counter
_SAMPLE_COUNTS = (1, 3, 5, (1 << 18) - 1, (1 << 18) + 1, 1 << 20, (1 << 20) + 3,
                  3_000_001)
_PHASES = (UniformRandomized(), FixedDelta(0.0), FixedDelta(np.pi),
           FixedDelta(_DELTA), FixedDelta(np.pi - _DELTA), FixedDelta(0.3),
           FixedDelta(np.pi / 2), FixedDelta(2.5), FixedDelta(-0.7))


class TestSingleStreamIdentity:
    @pytest.mark.parametrize("seed", [17_000, 17_101, 17_710])
    @pytest.mark.parametrize("phase", _PHASES)
    def test_counts_match_sequential_stream(self, phase, seed):
        # signal/near-vacuum pulses for the uniform law, equal CAL-like
        # pulses at a bright arm for the fixed phases, so both click often
        if isinstance(phase, UniformRandomized):
            args = (_MU_Z, _MU_0, _ARM_T, _P_DC)
        else:
            args = (0.3, 0.3, 0.5, 1e-3)
        for n in _SAMPLE_COUNTS:
            cfg = McConfig(samples=n, seed=seed, phase=phase)
            assert _counts(mc_click_stats(*args, cfg)) == reference_mc_counts(*args, cfg), n

    @pytest.mark.parametrize("args", [
        (_MU_Z, 0.0, _ARM_T, _P_DC),  # no cross term: the phase decides nothing
        (0.4, 0.4, 1.0, _P_DC),  # a bright arm: a wide band waits for the phase
        (_MU_Z, _MU_0, _ARM_T, 0.0),  # no dark counts
        (354.19, 354.19, 1.0, 0.0),  # the no-click product just above the least normal
    ], ids=["mu_b=0", "bright-arm", "p_d=0", "normal-limit"])
    @pytest.mark.parametrize("phase", [UniformRandomized(), FixedDelta(_DELTA)])
    def test_counts_match_sequential_stream_at_the_edges(self, phase, args):
        for n in (5, (1 << 18) + 1, (1 << 20) + 3):
            cfg = McConfig(samples=n, seed=17_000, phase=phase)
            assert _counts(mc_click_stats(*args, cfg)) == reference_mc_counts(*args, cfg), n

    @given(mu_a=st.floats(0.0, 4.0), mu_b=st.floats(0.0, 4.0), arm_t=st.floats(0.0, 1.0),
           p_d=st.floats(0.0, 0.99), seed=st.integers(0, 2**63),
           samples=st.integers(1, 300_000))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_sequential_stream_anywhere(self, mu_a, mu_b, arm_t, p_d, seed,
                                                     samples):
        cfg = McConfig(samples=samples, seed=seed)
        args = (mu_a, mu_b, arm_t, p_d)
        assert _counts(mc_click_stats(*args, cfg)) == reference_mc_counts(*args, cfg)

    @pytest.mark.parametrize("args", [
        (_MU_Z, _MU_0, _ARM_T, _P_DC), (_MU_Z, 0.0, _ARM_T, _P_DC), (0.4, 0.4, 1.0, _P_DC),
        (0.3, 0.2, 0.4, 0.0), (354.19, 354.19, 1.0, 0.0), (2.0, 1e-9, 0.7, 0.5)])
    def test_bands_hold_every_threshold(self, args):
        # every no-click probability the per-sample arithmetic gives, at
        # phases 2 pi u for uniforms u that include 0 and 1/2 (cos = +1 and
        # -1 exactly), lies in its band, so a uniform outside the band is
        # decided the same way whatever its phase
        mu_a, mu_b, arm_t, p_d = args
        base = arm_t * (mu_a + mu_b) / 2.0
        cross = arm_t * np.sqrt(mu_a * mu_b)
        surv_prod = (1.0 - p_d) ** 2 * np.exp(-2.0 * base)
        u = np.concatenate([np.random.Generator(np.random.Philox(5)).random(100_000),
                            np.nextafter(0.5, [0.0, 1.0]), [0.0, 0.5, 1.0 - 2.0**-53]])
        t_c = oracle._no_click_c(u * (2.0 * np.pi), base, cross, p_d)
        (lo_c, hi_c), (lo_d, hi_d) = oracle._bands(base, cross, surv_prod, p_d,
                                                   UniformRandomized())
        assert lo_c <= t_c.min() and t_c.max() <= hi_c
        t_d = surv_prod / t_c
        assert lo_d <= t_d.min() and t_d.max() <= hi_d

    @pytest.mark.parametrize("phase", [UniformRandomized(), FixedDelta(_DELTA)])
    def test_counts_independent_of_pool_size(self, phase, monkeypatch):
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(oracle, "_pool_size", lambda w=workers: w)
            runs.append([_counts(mc_click_stats(
                0.3, 0.2, 0.4, 1e-4, McConfig(samples=n, seed=17_000, phase=phase)))
                for n in ((1 << 20) + 3, 3_000_001)])
        assert runs[0] == runs[1]

    def test_counts_without_sched_getaffinity(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the pool then
        # takes os.cpu_count() workers, and the counts stay the same
        cfg = McConfig(samples=3_000_001, seed=17_000)
        counts = _counts(mc_click_stats(0.3, 0.2, 0.4, 1e-4, cfg))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _counts(mc_click_stats(0.3, 0.2, 0.4, 1e-4, cfg)) == counts


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
        for bad in ({"samples": 1e6}, {"samples": True}, {"seed": -1}, {"seed": 1.0},
                    {"phase": "uniform"}):
            with pytest.raises(DomainError):
                McConfig(**bad)
        with pytest.raises(DomainError):
            FixedDelta("0.3")

    @pytest.mark.parametrize("args", [
        (0.2, 0.1, 0.3, 1.0),  # p_d = 1: reported c always and d never clicking
        (600.0, 600.0, 1.0, 0.0),  # exp(-1200) = 0: reported c_only 0.42, both 0.56
        (354.2, 354.2, 1.0, 0.0),  # a subnormal no-click product
    ])
    def test_no_click_product_must_be_normal(self, args):
        with pytest.raises(DomainError):
            mc_click_stats(*args, McConfig(samples=1_000, seed=3))


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


# thresholds x at the edges of the word grid: 0, the least subnormal, the
# least nonzero uniform, an exact uniform k 2^-53 and its two neighbours,
# the greatest uniform, 1, and a band end past 1
_K = 0x1234_5678_9ABC
_THRESHOLDS = (0.0, 2.0**-1074, 2.0**-53, _K * 2.0**-53, np.nextafter(_K * 2.0**-53, 0.0),
               np.nextafter(_K * 2.0**-53, 1.0), 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-40)


class TestWordThresholds:
    @pytest.mark.parametrize("x", _THRESHOLDS)
    def test_word_decides_as_the_double(self, x):
        word = oracle._word(x)
        assert 0 <= word <= oracle._NO_WORD and word % 2**11 == 0
        # the words at and next to the threshold's word and to the grid points
        # around x, clipped to the 64-bit range
        k = int(x * 2**53)
        near = {word + d for d in (-1, 0, 1)} | {(k + j) * 2**11 + d for j in (-1, 0, 1, 2)
                                                 for d in (-1, 0)}
        words = np.array(sorted(w for w in near | {0, 2**64 - 1} if 0 <= w < 2**64),
                         dtype=np.uint64)
        assert (oracle._at_least(words, word) == (oracle._doubles(words) >= x)).all()
        assert all((w >= word) == ((w >> 11) * 2.0**-53 >= x) for w in map(int, words))

    def test_word_ends(self):
        assert oracle._word(0.0) == oracle._word(-1.0) == 0
        assert oracle._word(1.0) == oracle._word(1.0 + 2.0**-40) == oracle._NO_WORD
        assert oracle._word(1.0 - 2.0**-53) == 2**64 - 2**11

    @pytest.mark.parametrize("offset", [0, 1, 3, 4, 5, 4 * 1000 + 2, 3 * (1 << 20) + 7])
    def test_raw_words_are_the_generators_doubles(self, offset):
        # numpy's random() is (next raw word >> 11) 2^-53 on the same stream;
        # if a numpy release changes that, this fails before any count does
        seed, n = 2024, 9
        words = oracle._words_at(seed, offset, n)
        assert words.dtype == np.uint64 and words.shape == (n,)
        doubles = np.random.Generator(np.random.Philox(seed)).random(offset + n)[offset:]
        assert oracle._doubles(words).tobytes() == doubles.tobytes()

    @pytest.mark.parametrize("phase", [UniformRandomized(), FixedDelta(_DELTA)])
    def test_counts_match_sequential_stream_at_block_edges(self, phase):
        args = (0.4, 0.4, 1.0, _P_DC)  # a wide band, so most blocks have open samples
        block = oracle._BLOCK
        for n in (block - 1, block + 1, 3 * block + 5):
            cfg = McConfig(samples=n, seed=17_101, phase=phase)
            assert _counts(mc_click_stats(*args, cfg)) == reference_mc_counts(*args, cfg), n
