"""The protocol kernels' one contract: a float transmittance gives Python
scalars (or a dataclass of them), an array gives arrays, element for element."""

import dataclasses
import warnings

import numpy as np
import pytest

from tfqkd import (
    SNSPD,
    CalChannel,
    CalParams,
    CavityParams,
    ChannelErrorModel,
    DecoySet,
    DetectorParams,
    DomainError,
    FiberParams,
    FixedDelta,
    LaserFreeParams,
    LaserSpec,
    LoopParams,
    McConfig,
    MisalignmentParams,
    ProtocolParams,
    SnsParams,
    SweepSpec,
    UniformRandomized,
    aopp_transform,
    arm_transmittance,
    balanced_link,
    bb84_rate,
    binary_entropy,
    cal_bit_error,
    cal_gain,
    cal_phase_error,
    cal_rate,
    cal_stats,
    decoy_bounds,
    duty_cycle,
    effective_click_probability,
    effective_transmittance,
    error_gain,
    fock_bs_distribution,
    fock_pair_yield,
    builtin_scenarios,
    gain,
    interference_spectrum,
    link_from_attenuation,
    loop_gain,
    make_cal_channel,
    mc_click_stats,
    phase_variance,
    plob_bound,
    poisson_true_yields,
    poisson_yield_gain,
    psd_cavity,
    psd_detection_floor,
    psd_fiber,
    psd_fiber_linear,
    psd_laser_free,
    psd_laser_stabilized,
    qber,
    qber_from_variance,
    qber_small_angle,
    run_sweep,
    sigma_map,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
    solve_scenario,
    solve_tau_q,
)

F_EC = 1.15
P_DC = SNSPD.p_dc
# transmittances from 0.9 to about 100 dB, where BB84 has long lost its key
ETAS = (0.9, 0.3, 0.05, 1e-3, 1e-6, 1e-10)


def _model(eta):
    return ChannelErrorModel(eta_hat=eta, p_dc=P_DC, e_theta=0.02, e_phi=0.01)


def _cal_channel(eta):
    return make_cal_channel(eta, CalParams(), sigma_phi=0.2, theta=0.28)


def _stats(eta):
    # the per-arm channel's bounds, as a sweep passes them
    return sns_window_stats(SnsParams(), decoy_bounds(DecoySet(), _model(eta)), eta, P_DC)


# the 18 public kernels, each as a function of one transmittance
KERNELS = {
    "binary_entropy": binary_entropy,
    "gain": lambda t: gain(0.4, _model(t)),
    "error_gain": lambda t: error_gain(0.4, _model(t)),
    "qber": lambda t: qber(0.4, _model(t)),
    "decoy_bounds": lambda t: decoy_bounds(DecoySet(), _model(t)),
    "bb84_rate": lambda t: bb84_rate(decoy_bounds(DecoySet(), _model(t)), F_EC),
    "effective_click_probability": lambda t: effective_click_probability(0.2, 5e-6, t, P_DC),
    "sns_window_stats": _stats,
    "aopp_transform": lambda t: aopp_transform(_stats(t)),
    "sns_rate": lambda t: sns_rate(_stats(t), SnsParams(), F_EC),
    "sns_aopp_rate": lambda t: sns_aopp_rate(aopp_transform(_stats(t)), SnsParams(), F_EC),
    "cal_gain": lambda t: cal_gain(_cal_channel(t), P_DC),
    "cal_bit_error": lambda t: cal_bit_error(_cal_channel(t), P_DC),
    "fock_pair_yield": lambda t: fock_pair_yield(2, 2, t, P_DC),
    "cal_phase_error": lambda t: cal_phase_error(CalParams(), _cal_channel(t), P_DC),
    "cal_stats": lambda t: cal_stats(CalParams(), _cal_channel(t), P_DC),
    "cal_rate": lambda t: cal_rate(cal_stats(CalParams(), _cal_channel(t), P_DC), F_EC),
    "plob_bound": plob_bound,
}


def _fields(value) -> dict:
    return vars(value) if dataclasses.is_dataclass(value) else {"": value}


@pytest.mark.parametrize("name", KERNELS)
def test_float_input_gives_python_scalars(name):
    for eta in ETAS:
        for v in _fields(KERNELS[name](eta)).values():
            assert type(v) in (float, bool)


@pytest.mark.parametrize("name", KERNELS)
def test_array_input_equals_per_point_calls(name):
    kernel = KERNELS[name]
    batch = _fields(kernel(np.array(ETAS)))
    points = [_fields(kernel(eta)) for eta in ETAS]
    for key, column in batch.items():
        assert isinstance(column, np.ndarray) and column.shape == (len(ETAS),)
        assert column.tolist() == [p[key] for p in points]


def test_rates_without_gain_are_zero_element_for_element():
    # a dark-free detector at zero transmittance has no clicks: the QBER
    # and the CAL errors are undefined there, and the rates must mask
    # those points rather than raise
    etas = (0.0, 1e-3, 0.0, 0.2)
    dark_free = DetectorParams(eta_d=1.0, dark_rate=0.0)
    m = ChannelErrorModel(eta_hat=np.array(etas), p_dc=dark_free.p_dc)
    ch = make_cal_channel(np.array(etas), CalParams(), sigma_phi=0.2)
    rates = {"bb84": bb84_rate(decoy_bounds(DecoySet(), m), F_EC),
             "cal": cal_rate(cal_stats(CalParams(), ch, dark_free.p_dc), F_EC)}
    points = {
        "bb84": [bb84_rate(decoy_bounds(DecoySet(), dataclasses.replace(m, eta_hat=t)), F_EC)
                 for t in etas],
        "cal": [cal_rate(cal_stats(CalParams(), make_cal_channel(t, CalParams(), sigma_phi=0.2),
                                   dark_free.p_dc), F_EC) for t in etas]}
    for name, batch in rates.items():
        assert batch.tolist() == points[name]
        assert batch[0] == batch[2] == 0.0 and batch[1] > 0.0


# every range check of the link and protocol kernels that takes a number
# or an array: the call, a value it accepts, and values it rejects
UNIT = (np.nan, np.inf, -np.inf, -0.5, 1.5)
RANGE_CHECKS = {
    "binary_entropy": (binary_entropy, 0.5, UNIT),
    "ChannelErrorModel.eta_hat": (lambda v: ChannelErrorModel(eta_hat=v, p_dc=P_DC), 0.5, UNIT),
    "ChannelErrorModel.p_dc": (lambda v: ChannelErrorModel(eta_hat=0.5, p_dc=v), 0.5, UNIT),
    "ChannelErrorModel.e_theta": (lambda v: ChannelErrorModel(0.5, P_DC, e_theta=v), 0.5, UNIT),
    "ChannelErrorModel.e_phi": (lambda v: ChannelErrorModel(0.5, P_DC, e_phi=v), 0.5, UNIT),
    "qber at zero gain": (lambda v: qber(0.4, ChannelErrorModel(eta_hat=v, p_dc=0.0)), 0.5,
                          (0.0,)),
    "link_from_attenuation": (link_from_attenuation, 10.0, (np.nan, -np.inf, -1.0)),
    "effective_transmittance": (lambda v: effective_transmittance(v, SNSPD), 0.5, UNIT),
    "arm_transmittance": (arm_transmittance, 0.5, UNIT),
    "balanced_link l_a": (lambda v: balanced_link(v, 0.2, 0.0), 1.0, UNIT[:4]),
    "plob_bound": (plob_bound, 0.5, UNIT + (1.0,)),
    "effective_click_probability": (
        lambda v: effective_click_probability(0.2, 5e-6, v, P_DC), 0.5, UNIT),
    # 600 photons per arm reach the detectors as t * 600 > 500 above t = 5/6
    "effective_click_probability photons": (
        lambda v: effective_click_probability(600.0, 600.0, v, P_DC), 0.5, (0.9, 1.0)),
    "sns_window_stats": (lambda v: sns_window_stats(
        SnsParams(), decoy_bounds(DecoySet(), _model(0.5)), v, P_DC), 0.5, UNIT),
    "CalChannel.gamma": (lambda v: CalChannel(gamma=v), 0.5, (np.nan, np.inf, -np.inf, -0.5)),
    "make_cal_channel": (lambda v: make_cal_channel(v, CalParams()), 0.5, UNIT),
    "cal_bit_error at zero gain": (lambda v: cal_bit_error(CalChannel(gamma=v), 0.0), 0.01,
                                   (0.0,)),
    "fock_pair_yield": (lambda v: fock_pair_yield(2, 2, v, P_DC), 0.5, UNIT),
    # gamma = arm_t * mu_zeta with mu_zeta = 0.018
    "cal_phase_error gamma": (lambda v: cal_phase_error(CalParams(), CalChannel(gamma=v), P_DC),
                              0.009, (0.0181, 1.0)),
    "cal_phase_error at zero gain": (
        lambda v: cal_phase_error(CalParams(), CalChannel(gamma=v), 0.0), 0.009, (0.0,)),
}


@pytest.mark.parametrize("name", RANGE_CHECKS)
def test_range_checks_reject_values_outside_as_float_and_in_array(name):
    # NaN, +-inf and out-of-range values raise DomainError, alone or
    # beside an accepted value, without a numpy warning on the way
    call, good, bad = RANGE_CHECKS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)
        call(np.array([good, good]))
        for v in bad:
            for arg in (v, np.array([good, v]), np.array([v, good])):
                with pytest.raises(DomainError):
                    call(arg)


# each kernel with an intensity, a window or a variance argument, and the
# oracle's phase and sampling plan; the intensities take a float, beside
# a float or an array transmittance
NON_FINITE_ARGS = {
    "gain": lambda v: gain(v, _model(0.5)),
    "gain array": lambda v: gain(v, _model(np.array(ETAS))),
    "error_gain": lambda v: error_gain(v, _model(0.5)),
    "error_gain array": lambda v: error_gain(v, _model(np.array(ETAS))),
    "qber": lambda v: qber(v, _model(0.5)),
    "qber array": lambda v: qber(v, _model(np.array(ETAS))),
    "effective_click_probability mu_a": lambda v: effective_click_probability(v, 0.1, 0.5, 1e-6),
    "effective_click_probability mu_b": lambda v: effective_click_probability(0.1, v, 0.5, 1e-6),
    "effective_click_probability array": lambda v: effective_click_probability(
        v, 0.1, np.array(ETAS), 1e-6),
    "mc_click_stats mu_a": lambda v: mc_click_stats(v, 0.1, 0.5, 1e-6, McConfig(samples=10)),
    "mc_click_stats mu_b": lambda v: mc_click_stats(0.1, v, 0.5, 1e-6, McConfig(samples=10)),
    "FixedDelta": FixedDelta,
    "McConfig samples": lambda v: McConfig(samples=v),
    "McConfig seed": lambda v: McConfig(seed=v),
    "poisson_yield_gain": lambda v: poisson_yield_gain(v, _model(0.5)),
    "poisson_true_yields": lambda v: poisson_true_yields(_model(0.5), v),
    "duty_cycle tau_q": lambda v: duty_cycle(v, 1e-3),
    "duty_cycle tau_ps": lambda v: duty_cycle(1e-3, v),
    "qber_from_variance": qber_from_variance,
    "qber_small_angle": qber_small_angle,
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", NON_FINITE_ARGS)
def test_non_finite_intensities_windows_and_variances_raise(name, value):
    # each passed a 'mu < 0'-style check and returned NaN (or, for the
    # Monte-Carlo sampler and a NaN FixedDelta, none = 1.0) instead of raising
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            NON_FINITE_ARGS[name](value)


_MC = (0.1, 0.1, 0.5, 1e-6, McConfig(samples=10))
_NOT_REALS = ("0.1", None, True, np.array([0.1, 0.2]))
_NOT_REALS_OR_ARRAYS = _NOT_REALS[:-1]  # for an argument that also takes an array
_NOT_COUNTS = (1.5, 1.0, -1, "1", None, True, np.array([1, 2]))
_PRESET = builtin_scenarios()[0]
_TOPO = _PRESET.topology
_LASER = (CavityParams(), LoopParams())  # the other records of psd_laser_stabilized
_SPECTRUM = interference_spectrum(_TOPO)
# the kernels' and the oracle's arguments: (call, the argument's name,
# wrong-typed values)
WRONG_TYPE_ARGS = {
    "binary_entropy p": (binary_entropy, "p", _NOT_REALS_OR_ARRAYS),
    "gain mu": (lambda v: gain(v, _model(0.5)), "mu", _NOT_REALS_OR_ARRAYS),
    "error_gain mu": (lambda v: error_gain(v, _model(0.5)), "mu", _NOT_REALS_OR_ARRAYS),
    "effective_click_probability mu_a": (
        lambda v: effective_click_probability(v, 0.1, 0.5, 1e-6), "mu_a", _NOT_REALS_OR_ARRAYS),
    "effective_click_probability mu_b": (
        lambda v: effective_click_probability(0.1, v, 0.5, 1e-6), "mu_b", _NOT_REALS_OR_ARRAYS),
    "effective_click_probability arm_t": (
        lambda v: effective_click_probability(0.1, 0.1, v, 1e-6), "arm_t", _NOT_REALS_OR_ARRAYS),
    "effective_click_probability p_dc": (
        lambda v: effective_click_probability(0.1, 0.1, 0.5, v), "p_dc", _NOT_REALS),
    "make_cal_channel arm_t": (lambda v: make_cal_channel(v, CalParams()), "arm_t",
                               _NOT_REALS_OR_ARRAYS),
    "cal_gain p_d": (lambda v: cal_gain(_cal_channel(0.5), v), "p_d", _NOT_REALS),
    "cal_bit_error p_d": (lambda v: cal_bit_error(_cal_channel(0.5), v), "p_d", _NOT_REALS),
    "fock_pair_yield arm_t": (lambda v: fock_pair_yield(2, 2, v, P_DC), "arm_t",
                              _NOT_REALS_OR_ARRAYS),
    "fock_pair_yield p_d": (lambda v: fock_pair_yield(2, 2, 0.5, v), "p_d", _NOT_REALS),
    "fock_pair_yield n_a": (lambda v: fock_pair_yield(v, 2, 0.5, P_DC), "n_a",
                            _NOT_COUNTS + (7,)),
    "fock_pair_yield n_b": (lambda v: fock_pair_yield(2, v, 0.5, P_DC), "n_b", _NOT_COUNTS),
    "bb84_rate f_ec": (lambda v: bb84_rate(decoy_bounds(DecoySet(), _model(0.5)), v), "f_ec",
                       _NOT_REALS + (0.99,)),
    "sns_rate f_ec": (lambda v: sns_rate(_stats(0.5), SnsParams(), v), "f_ec", _NOT_REALS),
    "cal_rate f_ec": (lambda v: cal_rate(cal_stats(CalParams(), _cal_channel(0.5), P_DC), v),
                      "f_ec", _NOT_REALS),
    "link_from_attenuation total_db": (link_from_attenuation, "total_db",
                                       _NOT_REALS_OR_ARRAYS + (["3"],)),
    "effective_transmittance eta": (lambda v: effective_transmittance(v, SNSPD), "eta",
                                    _NOT_REALS_OR_ARRAYS),
    "arm_transmittance eta_hat": (arm_transmittance, "eta_hat", _NOT_REALS_OR_ARRAYS),
    "plob_bound eta": (plob_bound, "eta", _NOT_REALS_OR_ARRAYS),
    "phase_variance tau_q": (lambda v: phase_variance(_SPECTRUM, v), "tau_q",
                             _NOT_REALS),
    "qber_from_variance sigma2": (qber_from_variance, "sigma2", _NOT_REALS),
    "qber_small_angle sigma2": (qber_small_angle, "sigma2", _NOT_REALS),
    "duty_cycle tau_q": (lambda v: duty_cycle(v, 1e-3), "tau_q", _NOT_REALS),
    "duty_cycle tau_ps": (lambda v: duty_cycle(1e-3, v), "tau_ps", _NOT_REALS),
    "mc_click_stats mu_a": (lambda v: mc_click_stats(v, *_MC[1:]), "mu_a", _NOT_REALS),
    "mc_click_stats mu_b": (lambda v: mc_click_stats(*_MC[:1], v, *_MC[2:]), "mu_b", _NOT_REALS),
    "mc_click_stats arm_t": (lambda v: mc_click_stats(*_MC[:2], v, *_MC[3:]), "arm_t",
                             _NOT_REALS),
    "mc_click_stats p_d": (lambda v: mc_click_stats(*_MC[:3], v, *_MC[4:]), "p_d", _NOT_REALS),
    "mc_click_stats cfg": (lambda v: mc_click_stats(*_MC[:4], v), "cfg",
                           (None, 10, UniformRandomized())),
    "poisson_yield_gain mu": (lambda v: poisson_yield_gain(v, _model(0.5)), "mu", _NOT_REALS),
    # an array model of 21 entries was summed against the 21 photon numbers
    "poisson_yield_gain m": (lambda v: poisson_yield_gain(0.5, v), "m", (
        None, 0.5, _model(np.array(ETAS)), _model(np.linspace(0.1, 0.9, 21)))),
    "poisson_true_yields n": (lambda v: poisson_true_yields(_model(0.5), v), "n", _NOT_COUNTS),
    "poisson_true_yields m": (lambda v: poisson_true_yields(v, 1), "m", (None, 0.5)),
    "fock_bs_distribution n_a": (lambda v: fock_bs_distribution(v, 1), "n_a", _NOT_COUNTS),
    "fock_bs_distribution n_b": (lambda v: fock_bs_distribution(1, v), "n_b", _NOT_COUNTS),
    # the record arguments, each also given another record
    "gain m": (lambda v: gain(0.4, v), "m", (None, 0.5, DecoySet())),
    "error_gain m": (lambda v: error_gain(0.4, v), "m", (None, 0.5, DecoySet())),
    "decoy_bounds s": (lambda v: decoy_bounds(v, _model(0.5)), "s", (None, "x", SnsParams())),
    "decoy_bounds m": (lambda v: decoy_bounds(DecoySet(), v), "m", (None, DecoySet())),
    "bb84_rate b": (lambda v: bb84_rate(v, F_EC), "b", (None, _stats(0.5))),
    "sns_window_stats p": (lambda v: sns_window_stats(
        v, decoy_bounds(DecoySet(), _model(0.5)), 0.5, P_DC), "p", (None, CalParams())),
    "sns_window_stats b": (lambda v: sns_window_stats(SnsParams(), v, 0.5, P_DC), "b",
                           (None, _stats(0.5))),
    "aopp_transform s": (aopp_transform, "s", (None, aopp_transform(_stats(0.5)))),
    "sns_rate s": (lambda v: sns_rate(v, SnsParams(), F_EC), "s",
                   (None, aopp_transform(_stats(0.5)))),
    "sns_rate p": (lambda v: sns_rate(_stats(0.5), v, F_EC), "p", (None, CalParams())),
    "sns_aopp_rate a": (lambda v: sns_aopp_rate(v, SnsParams(), F_EC), "a", (None, _stats(0.5))),
    "sns_aopp_rate p": (lambda v: sns_aopp_rate(aopp_transform(_stats(0.5)), v, F_EC), "p",
                        (None, CalParams())),
    "make_cal_channel p": (lambda v: make_cal_channel(0.5, v), "p", (None, SnsParams())),
    "cal_gain ch": (lambda v: cal_gain(v, P_DC), "ch", (None, "x", CalParams())),
    "cal_bit_error ch": (lambda v: cal_bit_error(v, P_DC), "ch", (None, CalParams())),
    "cal_phase_error p": (lambda v: cal_phase_error(v, _cal_channel(0.5), P_DC), "p",
                          (None, SnsParams())),
    "cal_phase_error ch": (lambda v: cal_phase_error(CalParams(), v, P_DC), "ch", (None, "x")),
    "cal_stats p": (lambda v: cal_stats(v, _cal_channel(0.5), P_DC), "p", (None, SnsParams())),
    "cal_stats ch": (lambda v: cal_stats(CalParams(), v, P_DC), "ch", (None, CalParams())),
    "cal_rate c": (lambda v: cal_rate(v, F_EC), "c", (None, _stats(0.5))),
    "effective_transmittance det": (lambda v: effective_transmittance(0.5, v), "det",
                                    (None, "x", McConfig())),
    "balanced_link l_a": (lambda v: balanced_link(v, 0.2, 0.0), "l_a", _NOT_REALS_OR_ARRAYS),
    "balanced_link alpha": (lambda v: balanced_link(1.0, v, 0.0), "alpha", _NOT_REALS),
    "balanced_link a_plus": (lambda v: balanced_link(1.0, 0.2, v), "a_plus", _NOT_REALS),
    # the record and grid arguments of the spectra, window and sweep functions
    "interference_spectrum topo": (interference_spectrum, "topo", (None, "x", LaserSpec())),
    "interference_spectrum laser": (lambda v: interference_spectrum(_TOPO, v), "laser",
                                    (None, FiberParams())),
    "interference_spectrum fiber": (lambda v: interference_spectrum(_TOPO, fiber=v), "fiber",
                                    (None, LaserSpec())),
    "psd_laser_free p": (lambda v: psd_laser_free(1.0, v), "p", (None, CavityParams())),
    "psd_cavity p": (lambda v: psd_cavity(1.0, v), "p", (None, LaserFreeParams())),
    "loop_gain p": (lambda v: loop_gain(1.0, v), "p", (None, CavityParams())),
    "psd_laser_stabilized laser": (lambda v: psd_laser_stabilized(1.0, v, *_LASER), "laser",
                                   (None, LaserSpec())),
    "psd_laser_stabilized cavity": (lambda v: psd_laser_stabilized(
        1.0, LaserFreeParams(), v, _LASER[1]), "cavity", (None, LoopParams())),
    "psd_laser_stabilized loop": (lambda v: psd_laser_stabilized(
        1.0, LaserFreeParams(), _LASER[0], v), "loop", (None, CavityParams())),
    "psd_fiber p": (lambda v: psd_fiber(1.0, 1.0, v, False), "p", (None, LaserSpec())),
    "psd_detection_floor p": (lambda v: psd_detection_floor(1.0, v), "p", (None, LoopParams())),
    "phase_variance psd": (lambda v: phase_variance(v, 1e-3), "psd",
                           (None, "x", 1.0, _SPECTRUM.func)),
    "solve_tau_q psd": (solve_tau_q, "psd", (None, "x", _SPECTRUM.func)),
    "solve_tau_q budget": (lambda v: solve_tau_q(_SPECTRUM, v), "budget",
                           (None, "x", _PRESET.operating_point)),
    "sigma_map topo_template": (lambda v: sigma_map(v, [1.0], [1e-3]), "topo_template",
                                (None, _PRESET)),
    "sigma_map budget": (lambda v: sigma_map(_TOPO, [1.0], [1e-3], budget=v), "budget",
                         (None, "x")),
    "sigma_map laser": (lambda v: sigma_map(_TOPO, [1.0], [1e-3], laser=v), "laser",
                        (None, FiberParams())),
    "sigma_map fiber": (lambda v: sigma_map(_TOPO, [1.0], [1e-3], fiber=v), "fiber",
                        (None, LaserSpec())),
    "sigma_map delta_l_grid": (lambda v: sigma_map(_TOPO, v, [1e-3]), "delta_l_grid",
                               (None, 1.0, "12", [], np.array([]))),
    "sigma_map delta_l_grid entry": (lambda v: sigma_map(_TOPO, [v], [1e-3]), "delta_l_grid entry",
                                     ("a", None, True, -1.0, np.nan, [1.0])),
    "sigma_map tau_grid": (lambda v: sigma_map(_TOPO, [1.0], v), "tau_grid", (None, 1e-3, ())),
    "sigma_map tau_grid entry": (lambda v: sigma_map(_TOPO, [1.0], np.array([v])),
                                 "tau_grid entry", ("a", True, 0.0, np.inf)),
    "solve_scenario preset": (solve_scenario, "preset", (None, 1, _TOPO)),
    "run_sweep spec": (lambda v: run_sweep(1, v), "spec", ("x", ProtocolParams())),
    "run_sweep prot": (lambda v: run_sweep(1, None, v), "prot", ("x", SweepSpec())),
    "run_sweep detector": (lambda v: run_sweep(1, None, None, v), "detector",
                           ("x", McConfig())),
}


@pytest.mark.parametrize("name", WRONG_TYPE_ARGS)
def test_wrong_typed_oracle_arguments_raise_naming_the_argument(name):
    # each raised a bare TypeError or ValueError (a string intensity or
    # transmittance numpy's UFuncTypeError, a missing or foreign record an
    # AttributeError or TypeError, a psd that is not callable a "not
    # callable" TypeError, a non-numeric grid entry a ValueError), a bare
    # PSD callable was integrated to an infinite f_max, or (a fractional
    # or boolean photon number, a boolean intensity, probability,
    # variance, window, inefficiency or grid entry, a string attenuation
    # or grid of digits) returned a value
    call, arg, values = WRONG_TYPE_ARGS[name]
    for v in values:
        with pytest.raises(DomainError, match=f"^{arg} must be"):
            call(v)


_F = (1.0, 3e2, 3e7)  # Fourier frequencies (Hz)
# every public numeric function that KERNELS leaves out, as a function of
# one argument: the values it is given, and whether it takes an array
NUMBER_RULE = {
    "link_from_attenuation": (link_from_attenuation, (3.0, 10.0, 40.0), True),
    "balanced_link l_a": (lambda v: balanced_link(v, 0.2, 1.0), (0.0, 50.0, 114.0), True),
    "balanced_link alpha": (lambda v: balanced_link(50.0, v, 1.0), (0.2,), False),
    "effective_transmittance": (lambda v: effective_transmittance(v, SNSPD), ETAS, True),
    "arm_transmittance": (arm_transmittance, ETAS, True),
    "make_cal_channel": (lambda v: make_cal_channel(v, CalParams()), ETAS, True),
    "psd_laser_free": (lambda f: psd_laser_free(f, LaserFreeParams()), _F, True),
    "psd_cavity": (lambda f: psd_cavity(f, CavityParams()), _F, True),
    "loop_gain": (lambda f: loop_gain(f, LoopParams()), _F, True),
    "psd_laser_stabilized": (lambda f: psd_laser_stabilized(f, LaserFreeParams(), *_LASER),
                             _F, True),
    "psd_fiber": (lambda f: psd_fiber(f, 10.0, FiberParams(), True), _F, True),
    "psd_fiber_linear": (lambda f: psd_fiber_linear(f, 10.0, FiberParams(), False), _F, True),
    "psd_detection_floor": (lambda f: psd_detection_floor(f, FiberParams()), _F, True),
    "Spectrum": (_SPECTRUM, _F, True),
    "phase_variance": (lambda v: phase_variance(_SPECTRUM, v), (1e-3,), False),
    "qber_from_variance": (qber_from_variance, (0.04,), False),
    "qber_small_angle": (qber_small_angle, (0.04,), False),
    "duty_cycle": (lambda v: duty_cycle(v, 1e-3), (1e-2,), False),
    "MisalignmentParams.theta": (lambda v: MisalignmentParams(v).theta, (0.02,), False),
    "poisson_yield_gain": (lambda v: poisson_yield_gain(v, _model(0.5)), (0.4,), False),
    "poisson_true_yields": (lambda v: poisson_true_yields(_model(v), 2), (0.5,), False),
    "mc_click_stats": (lambda v: mc_click_stats(0.1, 0.1, v, 1e-6, McConfig(samples=10)),
                       (0.5,), False),
}


def _bits(value) -> dict:
    """Each field of value as (type, dtype, bytes)."""
    return {k: (type(v), np.asarray(v).dtype, np.asarray(v).tobytes())
            for k, v in _fields(value).items()}


def test_kernels_take_numpy_and_integer_scalars_and_sequences():
    # the number rule of every public numeric function: a float gives
    # Python floats (a complex for loop_gain; ints and strings stay), a
    # list or tuple the bits of the array numpy makes of it, which
    # effective_transmittance, plob_bound and gain refused
    for name, (call, values, takes_array) in NUMBER_RULE.items():
        value = call(values[0])
        entries = value if type(value) is tuple else _fields(value).values()
        kinds = {type(v) for v in entries} - {bool, int, str}  # a record's flags and counts
        assert kinds == ({complex} if name == "loop_gain" else {float}), name
        if takes_array:
            for seq in (list(values), tuple(values)):
                assert _bits(call(seq)) == _bits(call(np.array(values))), name
    for name, kernel in KERNELS.items():
        for seq in (list(ETAS), tuple(ETAS)):
            assert _bits(kernel(seq)) == _bits(kernel(np.array(ETAS))), name
    m = _model(0.5)
    assert effective_transmittance([0.5], SNSPD).tolist() == [0.45]
    assert plob_bound([0.5]).tolist() == [1.0]
    assert gain([0.4, 0.1], m).tolist() == [gain(0.4, m), gain(0.1, m)]
    # the values the checked arguments took before, with the same bytes
    assert gain(np.float64(0.4), m) == gain(0.4, m) and gain(1, m) == gain(1.0, m)
    assert error_gain(np.array(0.4), m) == error_gain(0.4, m)
    assert binary_entropy(np.float64(0.25)) == binary_entropy(0.25)
    assert effective_click_probability(1, 0, np.float64(0.5), 0) == \
        effective_click_probability(1.0, 0.0, 0.5, 0.0)
    assert duty_cycle(np.float64(1e-3), 1) == duty_cycle(1e-3, 1.0)
    assert qber_from_variance(1) == qber_from_variance(1.0)
    assert link_from_attenuation(np.inf) == 0.0
    assert link_from_attenuation([3, 10.0]).tolist() == [link_from_attenuation(3.0),
                                                         link_from_attenuation(10.0)]
    assert arm_transmittance((0.25, 1)).tolist() == [0.5, 1.0]
    assert plob_bound(np.arange(1)).tolist() == [0.0]


def test_oracle_takes_numpy_and_integer_scalars():
    m = _model(0.5)
    assert poisson_true_yields(m, np.int64(2)) == poisson_true_yields(m, 2)
    assert (fock_bs_distribution(np.int64(1), 1) == fock_bs_distribution(1, 1)).all()
    assert poisson_yield_gain(np.float64(0.5), m) == poisson_yield_gain(0.5, m)
    assert mc_click_stats(np.float64(0.1), 0, 1, 0, McConfig(samples=10)) == mc_click_stats(
        0.1, 0.0, 1.0, 0.0, McConfig(samples=10))


@pytest.mark.parametrize("values", [[-0.0, 0.0, -1.0, 0.5, 1.0, 2.0, np.inf, -np.inf],
                                    [np.nan, -np.nan, -0.0] * 7])
def test_clamp_has_the_bytes_of_clip(values):
    # the kernels clamp to [0, 1] as np.minimum(1.0, np.maximum(0.0, x)),
    # which keeps NaN and the sign of -0.0 as np.clip(x, 0.0, 1.0) does
    for x in (np.array(values), *values, *map(np.float64, values)):
        clamped = np.asarray(np.minimum(1.0, np.maximum(0.0, x)))
        assert clamped.tobytes() == np.asarray(np.clip(x, 0.0, 1.0)).tobytes()
