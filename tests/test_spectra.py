"""Noise-spectrum models: frozen hand-computed values and invariants."""

import cmath

import numpy as np
import pytest
from scipy.constants import c as SPEED_OF_LIGHT
from hypothesis import given, settings
from hypothesis import strategies as st

import tfqkd
from tfqkd import (
    CavityParams,
    DomainError,
    FiberParams,
    LaserFreeParams,
    LaserSpec,
    LoopParams,
    TopologyConfig,
    TopologyKind,
    interference_spectrum,
    loop_gain,
    psd_cavity,
    psd_fiber,
    psd_laser_free,
    psd_laser_stabilized,
)

LASER = LaserFreeParams()
CAVITY = CavityParams()
LOOP = LoopParams()
FIBER = FiberParams()


class TestLaserFree:
    def test_value_at_1hz(self):
        # oracle: independent hand arithmetic with the table coefficients
        expected = 3e6 / 1.0 + (3e2 / 1.0) * (2e6 / (1.0 + 2e6)) ** 2
        assert psd_laser_free(1.0, LASER) == pytest.approx(expected, rel=1e-15)
        assert psd_laser_free(1.0, LASER) == pytest.approx(3.0003e6, rel=1e-4)

    def test_value_at_cutoff(self):
        # r3/f^3 = 3.75e-13, r2/f^2 * (1/2)^2 = 1.875e-11
        assert psd_laser_free(2e6, LASER) == pytest.approx(1.9125e-11, rel=1e-6)

    def test_monotone_decay_at_high_f(self):
        f = np.geomspace(2e6, 1e10, 50)
        vals = psd_laser_free(f, LASER)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-20

    def test_rejects_nonpositive_frequency(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                psd_laser_free(bad, LASER)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            LaserFreeParams(r3=-1.0)
        with pytest.raises(DomainError):
            LaserFreeParams(f_c=0.0)


class TestCavity:
    def test_value_at_1hz(self):
        assert psd_cavity(1.0, CAVITY) == pytest.approx(0.502, rel=1e-12)

    def test_value_at_10hz(self):
        assert psd_cavity(10.0, CAVITY) == pytest.approx(7e-5, rel=1e-12)

    def test_zero_coefficients(self):
        p = CavityParams(c4=0.0, c3=0.0, c2=0.0)
        assert np.all(psd_cavity(np.geomspace(1e-3, 1e9, 20), p) == 0.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            psd_cavity(-2.0, CAVITY)


class TestLoopGain:
    def test_diverges_at_low_f(self):
        assert abs(loop_gain(1e-3, LOOP)) > abs(loop_gain(1.0, LOOP)) > 1e6

    def test_suppression_factor_at_bandwidth(self):
        g = loop_gain(LOOP.bandwidth, LOOP)
        s = abs(1.0 / (1.0 + g)) ** 2
        assert 0.0 < s < 1.0

    def test_high_f_asymptote(self):
        # far above the pole the zero/pole ratio tends to 1
        f = 1e9
        expected = LOOP.g0 / (2 * np.pi * f) ** 2
        assert abs(loop_gain(f, LOOP)) == pytest.approx(expected, rel=1e-2)

    def test_g0_derived(self):
        assert LOOP.g0 == pytest.approx((2 * np.pi * 3e5) ** 2 * 11.0 / 1.1, rel=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            LoopParams(gamma=1.5)
        with pytest.raises(DomainError):
            LoopParams(delta=0.5)


class TestLaserStabilized:
    def test_low_f_follows_cavity(self):
        f = 10.0
        val = psd_laser_stabilized(f, LASER, CAVITY, LOOP)
        assert val == pytest.approx(psd_cavity(f, CAVITY), rel=1e-3)

    def test_high_f_cavity_plus_free(self):
        f = 1e9
        val = psd_laser_stabilized(f, LASER, CAVITY, LOOP)
        expected = psd_cavity(f, CAVITY) + psd_laser_free(f, LASER)
        assert val == pytest.approx(expected, rel=1e-3)

    def test_brute_force_complex_arithmetic(self):
        # oracle: scalar cmath evaluation, independent of the vectorized path
        f = 1e3
        g0 = (2 * cmath.pi * 3e5) ** 2 * (1 + 10.0) / (1 + 0.1)
        g = g0 / (2 * cmath.pi * f) ** 2 * (1j * f + 3e5 * 0.1) / (1j * f + 3e5 * 10.0)
        supp = abs(1.0 / (1.0 + g)) ** 2
        free = 3e6 / f**3 + 3e2 / f**2 * (2e6 / (f + 2e6)) ** 2
        cav = 0.5 / f**4 + 2e-3 / f**2
        assert psd_laser_stabilized(f, LASER, CAVITY, LOOP) == pytest.approx(
            cav + supp * free, rel=1e-12)

    @pytest.mark.parametrize("loop", [LOOP, LoopParams(bandwidth=1e3, gamma=0.5, delta=2.0)])
    def test_real_suppression_matches_complex_loop_gain(self, loop):
        from tfqkd.spectra import _suppression
        f = np.geomspace(1e-3, 1e9, 4001)
        complex_form = np.abs(1.0 / (1.0 + loop_gain(f, loop))) ** 2
        assert np.allclose(_suppression(f * f, (2 * np.pi * f) ** 2, loop), complex_form, rtol=1e-13, atol=0)

    def test_never_below_cavity(self):
        f = np.geomspace(1e-2, 1e9, 200)
        assert np.all(psd_laser_stabilized(f, LASER, CAVITY, LOOP)
                      >= psd_cavity(f, CAVITY))


class TestFiber:
    def test_free_value(self):
        expected = 44.0 * 100.0 * (100.0 / 101.0) ** 2
        got = psd_fiber(1.0, 100.0, FIBER, stabilized=False)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(4313.3, rel=1e-4)

    def test_zero_length_free(self):
        f = np.geomspace(1e-3, 1e9, 30)
        assert np.all(psd_fiber(f, 0.0, FIBER, stabilized=False) == 0.0)

    def test_suppression_factor(self):
        assert FIBER.stabilization_suppression == pytest.approx(
            (1.19 / 1543.33) ** 2, rel=1e-9)
        assert FIBER.stabilization_suppression == pytest.approx(5.95e-7, rel=1e-2)

    @pytest.mark.parametrize("wavelengths", [{"lambda_s_nm": 1e-300}, {"lambda_q_nm": 1e300}])
    def test_suppression_past_the_largest_float_is_inf(self, wavelengths):
        # the ratio's ** 2 raised OverflowError; inf makes the stabilized
        # PSD non-finite, which the solve and the psd command refuse
        assert FiberParams(**wavelengths).stabilization_suppression == np.inf

    @given(st.floats(0.1, 1e3), st.floats(1e-2, 1e8), st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_linear_in_length(self, length, f, a):
        base = psd_fiber(f, length, FIBER, stabilized=False)
        assert psd_fiber(f, a * length, FIBER, stabilized=False) == pytest.approx(
            a * base, rel=1e-12)
        # stabilized case: the length-dependent part scales, the floor does not
        from tfqkd.spectra import psd_fiber_linear
        lin = psd_fiber_linear(f, length, FIBER, stabilized=True)
        lin_a = psd_fiber_linear(f, a * length, FIBER, stabilized=True)
        assert lin_a == pytest.approx(a * lin, rel=1e-12)
        floor = psd_fiber(f, 0.0, FIBER, stabilized=True)
        assert psd_fiber(f, length, FIBER, stabilized=True) == pytest.approx(
            lin + floor, rel=1e-12)

    def test_rejects_negative_length(self):
        with pytest.raises(DomainError):
            psd_fiber(1.0, -1.0, FIBER, stabilized=False)

    @pytest.mark.parametrize("length", [np.nan, np.inf, "x", None, True])
    def test_rejects_non_finite_or_wrong_typed_length(self, length):
        # NaN returned NaN, inf returned inf and a string raised a bare
        # TypeError, in both the whole and the linear fiber PSD
        from tfqkd.spectra import psd_fiber_linear
        for psd in (psd_fiber, psd_fiber_linear):
            with pytest.raises(DomainError, match="^length_km must be a finite number >= 0"):
                psd(1.0, length, FIBER, False)

    @pytest.mark.parametrize("stabilized", ["no", 0, 1.0, None])
    def test_rejects_non_bool_stabilized(self, stabilized):
        # "no" is truthy, and returned the stabilized PSD, six orders of
        # magnitude below the free one
        with pytest.raises(DomainError, match="^stabilized must be a bool"):
            psd_fiber(10.0, 10.0, FIBER, stabilized)
        assert psd_fiber(10.0, 10.0, FIBER, np.bool_(False)) == psd_fiber(10.0, 10.0, FIBER, False)


@pytest.mark.parametrize("cls, field", [
    (LaserFreeParams, "r3"), (LaserFreeParams, "r2"), (LaserFreeParams, "f_c"),
    (CavityParams, "c4"), (CavityParams, "c3"), (CavityParams, "c2"),
    (LoopParams, "bandwidth"), (LoopParams, "gamma"), (LoopParams, "delta"),
    (FiberParams, "noise_per_km"), (FiberParams, "f_c_free"), (FiberParams, "s0"),
    (FiberParams, "f_c_floor"), (FiberParams, "lambda_s_nm"), (FiberParams, "lambda_q_nm"),
    (TopologyConfig, "l_a"), (TopologyConfig, "refractive_index"),
    (TopologyConfig, "fiber_roundtrip_factor")])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_spectrum_coefficients_reject_non_finite(cls, field, value):
    # nan < 0 is False, so each lower-bound check also bounds the value above
    with pytest.raises(DomainError):
        cls(**{field: value})


class TestInterference:
    def test_common_zero_mismatch_is_fiber_only(self):
        topo = TopologyConfig(kind=TopologyKind.COMMON_LASER, l_a=100.0, l_b=100.0)
        f = np.geomspace(1.0, 1e7, 50)
        got = interference_spectrum(topo)(f)
        fiber_only = 4.0 * 2.0 * psd_fiber(f, 100.0, FIBER, stabilized=False)
        assert got == pytest.approx(fiber_only, rel=1e-12)

    def test_common_periodic_zeros(self):
        topo = TopologyConfig(l_a=114.0, l_b=111.5)
        dl_m = 2.5e3
        spec = interference_spectrum(topo)
        fiber_only = 4.0 * (psd_fiber(1.0, 114.0, FIBER, False)
                            + psd_fiber(1.0, 111.5, FIBER, False))
        for k in (1, 2, 5):
            f0 = k * SPEED_OF_LIGHT / (2 * topo.refractive_index * dl_m)
            fib = 4.0 * (psd_fiber(f0, 114.0, FIBER, False)
                         + psd_fiber(f0, 111.5, FIBER, False))
            # at the sine zeros only the fiber term survives
            assert spec(f0) == pytest.approx(fib, rel=1e-6)
        assert spec.oscillation_period == pytest.approx(
            SPEED_OF_LIGHT / (2 * topo.refractive_index * dl_m), rel=1e-12)

    def test_independent_identical_arms(self):
        topo = TopologyConfig(kind=TopologyKind.INDEPENDENT_LASERS,
                              laser_stabilized=True, l_a=80.0, l_b=80.0)
        laser = LaserSpec()
        f = np.geomspace(1.0, 1e7, 40)
        got = interference_spectrum(topo, laser)(f)
        expected = (2.0 * psd_laser_stabilized(f, laser.free, laser.cavity, laser.loop)
                    + 2.0 * psd_fiber(f, 80.0, FIBER, False))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_common_laser_term_bounded(self):
        topo = TopologyConfig(l_a=114.0, l_b=100.0)
        f = np.geomspace(1.0, 1e8, 300)
        laser = LaserSpec()
        composite = interference_spectrum(topo, laser)(f)
        fiber_part = 4.0 * (psd_fiber(f, 114.0, FIBER, False)
                            + psd_fiber(f, 100.0, FIBER, False))
        assert np.all(composite - fiber_part <= 4.0 * psd_laser_free(f, laser.free) + 1e-30)

    def test_floor_added_once_when_stabilized(self):
        topo = TopologyConfig(fiber_stabilized=True, l_a=114.0, l_b=114.0)
        f = 1e6
        got = interference_spectrum(topo)(f)
        lin = FIBER.stabilization_suppression * 44.0 * 114.0 / f**2
        floor = 1e-8 * (2e5 / (f + 2e5)) ** 2
        assert got == pytest.approx(4.0 * 2.0 * lin + floor, rel=1e-12)

    @pytest.mark.parametrize("dl", ["x", np.nan, np.inf, -1.0, True])
    def test_rejects_bad_mismatch(self, dl):
        # a string raised a bare TypeError
        with pytest.raises(DomainError, match="^delta_l_km must be a finite number >= 0 or None"):
            interference_spectrum(TopologyConfig(), delta_l_km=dl)

    def test_roundtrip_factor_configurable(self):
        t4 = TopologyConfig(l_a=100.0, l_b=100.0)
        t2 = TopologyConfig(l_a=100.0, l_b=100.0, fiber_roundtrip_factor=2.0)
        f = 123.0
        assert interference_spectrum(t2)(f) == pytest.approx(
            interference_spectrum(t4)(f) / 2.0, rel=1e-12)

    def test_all_models_positive_and_finite(self):
        f = np.geomspace(1e-6, 1e9, 400)
        fns = [
            psd_laser_free(f, LASER),
            psd_cavity(f, CAVITY),
            psd_laser_stabilized(f, LASER, CAVITY, LOOP),
            psd_fiber(f, 114.0, FIBER, False),
            psd_fiber(f, 114.0, FIBER, True),
        ]
        for p in tfqkd.builtin_scenarios():
            fns.append(interference_spectrum(p.topology)(f))
        for vals in fns:
            assert np.all(vals >= 0.0)
            assert np.all(np.isfinite(vals))

    def test_common_converges_to_fiber_as_mismatch_vanishes(self):
        f = np.geomspace(1.0, 1e7, 50)
        fiber_only = 8.0 * psd_fiber(f, 114.0, FIBER, False)
        topo = TopologyConfig(l_a=114.0, l_b=114.0 - 1e-9)
        near = interference_spectrum(topo)(f)
        # l_b barely differs, compare against equal-arm fiber term
        assert near == pytest.approx(fiber_only, rel=1e-4)

    def test_rejects_inverted_arms(self):
        with pytest.raises(DomainError):
            TopologyConfig(l_a=10.0, l_b=20.0)

    @pytest.mark.parametrize("dl", [np.nan, np.inf, -1.0])
    def test_rejects_bad_mismatch_override(self, dl):
        for topo in TestInputCheck.TOPOLOGIES:
            with pytest.raises(DomainError):
                interference_spectrum(topo, delta_l_km=dl)


class TestInputCheck:
    BAD = (0.0, -1.0, np.nan, np.inf, np.array([1.0, 0.0]))
    TOPOLOGIES = (
        TopologyConfig(l_a=114.0, l_b=111.5),
        TopologyConfig(l_a=114.0, l_b=111.5, laser_stabilized=True, fiber_stabilized=True),
        TopologyConfig(kind=TopologyKind.INDEPENDENT_LASERS, laser_stabilized=True),
    )

    @pytest.mark.parametrize("f, ok", [
        (np.nan, False), (np.inf, False), (-np.inf, False), (0.0, False), (-0.0, False),
        (np.array([1.0, -0.0]), False), (np.array([]), True), (1e-300, True)],
        ids=["nan", "inf", "-inf", "0", "-0", "array-with-minus-0", "empty", "tiny"])
    def test_frequency_range(self, f, ok):
        from tfqkd.spectra import _as_positive_freq
        if ok:
            assert np.array_equal(_as_positive_freq(f), f)
        else:
            with pytest.raises(DomainError,
                               match="^Fourier frequency must be positive and finite$"):
                _as_positive_freq(f)

    def test_every_model_rejects_bad_frequency(self):
        from tfqkd.spectra import psd_detection_floor, psd_fiber_linear
        models = (
            lambda f: psd_laser_free(f, LASER),
            lambda f: psd_cavity(f, CAVITY),
            lambda f: loop_gain(f, LOOP),
            lambda f: psd_laser_stabilized(f, LASER, CAVITY, LOOP),
            lambda f: psd_fiber(f, 10.0, FIBER, stabilized=True),
            lambda f: psd_fiber_linear(f, 10.0, FIBER, stabilized=False),
            lambda f: psd_detection_floor(f, FIBER),
        )
        for topo in self.TOPOLOGIES:
            spec = interference_spectrum(topo)
            models += (spec.func,) + ((spec.averaged_func,) if spec.averaged_func else ())
        for model in models:
            for bad in self.BAD:
                with pytest.raises(DomainError):
                    model(bad)

    def test_composite_checks_input_once_per_call(self, monkeypatch):
        import tfqkd.spectra as spectra_mod
        calls = []
        check = spectra_mod._as_positive_freq

        def counted(f):
            calls.append(f)
            return check(f)

        monkeypatch.setattr(spectra_mod, "_as_positive_freq", counted)
        f = np.geomspace(1.0, 1e7, 40)
        for topo in self.TOPOLOGIES:
            spec = interference_spectrum(topo)
            for psd in (spec.func, spec.averaged_func):
                if psd is None:
                    continue
                calls.clear()
                psd(f)
                assert len(calls) == 1


class TestCompositeEqualsSingleTerms:
    """The composite PSD is the docstring's sum of the public single-term
    PSDs, bit for bit, on every preset's laser and fiber path."""

    F = np.geomspace(1.0, 3e7, 2001)

    @staticmethod
    def single_terms(topo, dl, f, averaged, laser_spec=LaserSpec(), fiber=FIBER):
        from tfqkd.spectra import psd_detection_floor, psd_fiber_linear
        ls = laser_spec
        laser = (psd_laser_stabilized(f, ls.free, ls.cavity, ls.loop) if topo.laser_stabilized
                 else psd_laser_free(f, ls.free))
        fibers = (psd_fiber_linear(f, topo.l_a, fiber, topo.fiber_stabilized)
                  + psd_fiber_linear(f, topo.l_b, fiber, topo.fiber_stabilized))
        if topo.kind is TopologyKind.INDEPENDENT_LASERS:
            total = 2.0 * laser + fibers
        else:
            delay = topo.refractive_index * dl * 1e3 / SPEED_OF_LIGHT
            laser_term = 2.0 * laser if averaged else (
                4.0 * np.sin(2.0 * np.pi * f * delay) ** 2 * laser)
            total = laser_term + topo.fiber_roundtrip_factor * fibers
        if topo.fiber_stabilized:
            total = total + psd_detection_floor(f, fiber)
        return total

    @pytest.mark.parametrize("preset", tfqkd.builtin_scenarios(), ids=lambda p: str(p.id))
    @pytest.mark.parametrize("dl", [0.0, 0.02, 2.5, 10.0])
    def test_bit_identical(self, preset, dl):
        topo = preset.topology
        spec = interference_spectrum(topo, delta_l_km=dl)
        assert np.array_equal(spec.func(self.F), self.single_terms(topo, dl, self.F, False))
        common = topo.kind is TopologyKind.COMMON_LASER
        assert (spec.averaged_func is not None) == (common and dl > 0)
        if spec.averaged_func is not None:
            assert np.array_equal(spec.averaged_func(self.F),
                                  self.single_terms(topo, dl, self.F, True))

    @staticmethod
    def formulas(f, laser, fiber, length_km, stabilized):
        """Each public single-term PSD by its model formula, with the float
        operations the models had before they were built in place."""
        free, cav, loop = laser.free, laser.cavity, laser.loop
        f2, f3, w2 = f**2, f**3, (2.0 * np.pi * f) ** 2
        s_free = free.r3 / f3 + free.r2 / f2 * (free.f_c / (f + free.f_c)) ** 2
        s_cav = cav.c4 / f**4 + cav.c3 / f3 + cav.c2 / f2
        a, b = loop.bandwidth * loop.gamma, loop.bandwidth * loop.delta
        supp = w2 * w2 * (f2 + b * b) / ((w2 * b + loop.g0 * a) ** 2 + f2 * (w2 + loop.g0) ** 2)
        if stabilized:
            linear = fiber.stabilization_suppression * fiber.noise_per_km * length_km / f2
        else:
            linear = fiber.noise_per_km * length_km / f2 * (
                fiber.f_c_free / (f + fiber.f_c_free)) ** 2
        floor = fiber.s0 * (fiber.f_c_floor / (f + fiber.f_c_floor)) ** 2
        return {"laser_free": s_free, "cavity": s_cav, "laser_stabilized": s_cav + supp * s_free,
                "fiber_linear": linear, "detection_floor": floor,
                "fiber": linear + floor if stabilized else linear}

    @staticmethod
    def public(f, laser, fiber, length_km, stabilized):
        from tfqkd.spectra import psd_detection_floor, psd_fiber_linear
        return {"laser_free": psd_laser_free(f, laser.free),
                "cavity": psd_cavity(f, laser.cavity),
                "laser_stabilized": psd_laser_stabilized(f, laser.free, laser.cavity, laser.loop),
                "fiber_linear": psd_fiber_linear(f, length_km, fiber, stabilized),
                "detection_floor": psd_detection_floor(f, fiber),
                "fiber": psd_fiber(f, length_km, fiber, stabilized)}

    @pytest.mark.parametrize("stabilized", [False, True])
    def test_single_terms_equal_their_formulas(self, stabilized):
        laser = LaserSpec(cavity=CavityParams(c3=0.05))
        expected = self.formulas(self.F, laser, FIBER, 37.5, stabilized)
        for x in (1.0, 3e7, *self.F[1::97]):
            at_x = self.formulas(np.array([x]), laser, FIBER, 37.5, stabilized)
            for name, value in self.public(x, laser, FIBER, 37.5, stabilized).items():
                assert type(value) is np.float64, name
                assert value == at_x[name][0], (name, x)
        for name, value in self.public(self.F, laser, FIBER, 37.5, stabilized).items():
            assert np.array_equal(value, expected[name]), name

    @pytest.mark.parametrize("preset", tfqkd.builtin_scenarios(), ids=lambda p: str(p.id))
    @pytest.mark.parametrize("dl", [0.0, 0.02, 2.5])
    def test_zero_d_is_the_one_node_value(self, preset, dl):
        # a 0-d frequency is evaluated through a 1-element view of it
        spec = interference_spectrum(preset.topology, delta_l_km=dl)
        forms = (spec.func, spec.averaged_func) if spec.averaged_func else (spec.func,)
        for form in forms:
            nodes = form(self.F)
            for i in range(0, self.F.size, 97):
                for x in (self.F[i], float(self.F[i]), np.asarray(self.F[i])):
                    value = form(x)
                    assert type(value) is np.float64
                    assert value == nodes[i]

    @given(
        free=st.builds(LaserFreeParams, st.floats(0.0, 1e8), st.floats(0.0, 1e4),
                       st.floats(1e3, 1e8)),
        cavity=st.builds(CavityParams, st.floats(0.0, 10.0),
                         st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), st.floats(0.0, 1.0)),
        loop=st.builds(LoopParams, st.floats(1e3, 1e7), st.floats(0.01, 0.99),
                       st.floats(1.01, 100.0)),
        fiber=st.builds(FiberParams, st.floats(0.0, 1e3), st.floats(1.0, 1e4),
                        st.floats(0.0, 1e-6), st.floats(1e3, 1e7), st.floats(1500.0, 1600.0),
                        st.floats(1500.0, 1600.0)),
        preset=st.sampled_from(tfqkd.builtin_scenarios()),
        dl=st.floats(0.0, 20.0),
        x=st.floats(1e-3, 1e8))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_off_the_defaults(self, free, cavity, loop, fiber, preset, dl, x):
        laser = LaserSpec(free, cavity, loop)
        topo = preset.topology
        expected = self.formulas(self.F, laser, fiber, topo.l_a, topo.fiber_stabilized)
        for name, value in self.public(self.F, laser, fiber, topo.l_a,
                                       topo.fiber_stabilized).items():
            assert np.array_equal(value, expected[name]), name
        at_x = self.formulas(np.array([x]), laser, fiber, topo.l_a, topo.fiber_stabilized)
        for name, value in self.public(x, laser, fiber, topo.l_a, topo.fiber_stabilized).items():
            assert type(value) is np.float64 and value == at_x[name][0], name
        spec = interference_spectrum(topo, laser, fiber, delta_l_km=dl)
        for averaged, form in ((False, spec.func), (True, spec.averaged_func)):
            if form is not None:
                assert np.array_equal(form(self.F),
                                      self.single_terms(topo, dl, self.F, averaged, laser, fiber))
                assert form(x) == self.single_terms(topo, dl, np.array([x]), averaged,
                                                    laser, fiber)[0]
