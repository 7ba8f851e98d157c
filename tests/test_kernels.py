"""The protocol kernels' one contract: a float transmittance gives Python
scalars (or a dataclass of them), an array gives arrays, element for element."""

import dataclasses

import numpy as np
import pytest

from tfqkd import (
    SNSPD,
    CalParams,
    ChannelErrorModel,
    DecoySet,
    DetectorParams,
    SnsParams,
    aopp_transform,
    bb84_rate,
    binary_entropy,
    cal_bit_error,
    cal_gain,
    cal_phase_error,
    cal_rate,
    decoy_bounds,
    effective_click_probability,
    error_gain,
    fock_pair_yield,
    gain,
    make_cal_channel,
    plob_bound,
    qber,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
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
    return sns_window_stats(SnsParams(), DecoySet(), eta, SNSPD, e_phi=0.01)


# the 17 public kernels, each as a function of one transmittance
KERNELS = {
    "binary_entropy": binary_entropy,
    "gain": lambda t: gain(0.4, _model(t)),
    "error_gain": lambda t: error_gain(0.4, _model(t)),
    "qber": lambda t: qber(0.4, _model(t)),
    "decoy_bounds": lambda t: decoy_bounds(DecoySet(), _model(t)),
    "bb84_rate": lambda t: bb84_rate(DecoySet(), _model(t), F_EC),
    "effective_click_probability": lambda t: effective_click_probability(0.2, 5e-6, t, P_DC),
    "sns_window_stats": _stats,
    "aopp_transform": lambda t: aopp_transform(_stats(t)),
    "sns_rate": lambda t: sns_rate(_stats(t), SnsParams(), F_EC),
    "sns_aopp_rate": lambda t: sns_aopp_rate(aopp_transform(_stats(t)), SnsParams(), F_EC),
    "cal_gain": lambda t: cal_gain(_cal_channel(t), P_DC),
    "cal_bit_error": lambda t: cal_bit_error(_cal_channel(t), P_DC),
    "fock_pair_yield": lambda t: fock_pair_yield(2, 2, t, P_DC),
    "cal_phase_error": lambda t: cal_phase_error(CalParams(), _cal_channel(t), P_DC),
    "cal_rate": lambda t: cal_rate(CalParams(), _cal_channel(t), P_DC, F_EC),
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
    rates = {"bb84": bb84_rate(DecoySet(), m, F_EC),
             "cal": cal_rate(CalParams(), ch, dark_free.p_dc, F_EC)}
    points = {
        "bb84": [bb84_rate(DecoySet(), dataclasses.replace(m, eta_hat=t), F_EC)
                 for t in etas],
        "cal": [cal_rate(CalParams(), make_cal_channel(t, CalParams(), sigma_phi=0.2),
                         dark_free.p_dc, F_EC) for t in etas]}
    for name, batch in rates.items():
        assert batch.tolist() == points[name]
        assert batch[0] == batch[2] == 0.0 and batch[1] > 0.0
