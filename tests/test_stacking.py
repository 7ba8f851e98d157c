"""A stacked evaluation equals its per-intensity, per-channel or per-term
public calls bit for bit: the kernels are element-wise, so an entry does
not depend on what is stacked beside it."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfqkd import (
    CalChannel,
    CalParams,
    ChannelErrorModel,
    DecoySet,
    DomainError,
    SnsParams,
    aopp_transform,
    binary_entropy,
    cal_gain,
    cal_phase_error,
    decoy_bounds,
    effective_click_probability,
    error_gain,
    gain,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
)
from tfqkd import cal as cal_mod
from tfqkd import sns as sns_mod
from tfqkd.decoy import _entropies
from tfqkd.link import DetectorParams
from tfqkd.sns import MAX_DETECTED_PHOTONS

# the ends of [0, 1], subnormals and the smallest normal, beside any value
SPECIAL = (1.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5)
unit = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))
positive = st.one_of(st.sampled_from([v for v in SPECIAL if v > 0.0]),
                     st.floats(5e-324, 1.0))


def rows(values, n=st.integers(1, 12)):
    return n.flatmap(lambda k: st.lists(values, min_size=k, max_size=k).map(np.array))


@st.composite
def decoy_sets(draw):
    w = draw(st.floats(0.0, 0.1))
    v = w + draw(st.floats(1e-3, 1.0))
    u = v + w + draw(st.floats(1e-3, 3.0))
    try:
        return DecoySet(u=u, v=v, w=w)
    except DomainError:
        assume(False)


@st.composite
def sns_params(draw):
    mu_z = draw(st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 2000.0)))
    # mu_0 up to mu_z, where the three patterns' series are all long
    mu_0 = mu_z * draw(st.one_of(st.sampled_from([0.0, 1e-6, 0.9, 0.999]),
                                 st.floats(0.0, 1.0, exclude_max=True)))
    try:
        return SnsParams(epsilon=draw(st.floats(0.01, 0.99)), mu_z=mu_z, mu_0=mu_0)
    except DomainError:
        assume(False)


def outcome(fn):
    """The bytes of each array fn returns, or the DomainError it raises;
    overflow at extreme inputs is part of the value, not a failure."""
    try:
        with np.errstate(all="ignore"):
            result = fn()
    except DomainError as exc:
        return "DomainError", str(exc)
    values = vars(result).values() if hasattr(result, "__dataclass_fields__") else [result]
    return [(np.shape(v), np.asarray(v).tobytes()) for v in values]


@given(decoy_sets(), rows(unit), st.data(), st.floats(0.0, 1e-3), st.floats(0.0, 0.5),
       st.floats(0.0, 0.5))
@settings(max_examples=80, deadline=None)
def test_bounds_stacked_over_channels(s, eta_hat, data, p_dc, e_theta, e_phi):
    arm_t = data.draw(rows(unit, st.just(eta_hat.size)))
    both = ChannelErrorModel(eta_hat=np.stack((eta_hat, arm_t)), p_dc=p_dc, e_theta=e_theta,
                             e_phi=e_phi)
    stacked = decoy_bounds(s, both)
    # the intensity column decoy_bounds stacks ahead of the channels
    column = np.array([s.u, s.v, s.w])[:, None, None]
    for kernel in (gain, error_gain):
        for row, mu in zip(kernel(column, both), (s.u, s.v, s.w)):
            assert row.tobytes() == kernel(mu, both).tobytes()
    for i, t in enumerate((eta_hat, arm_t)):
        alone = decoy_bounds(s, ChannelErrorModel(eta_hat=t, p_dc=p_dc, e_theta=e_theta,
                                                  e_phi=e_phi))
        for name, value in vars(alone).items():
            row = getattr(stacked, name)[i]
            assert row.tobytes() == value.tobytes(), name


@given(sns_params(), rows(positive), st.floats(0.0, 1e-3))
@settings(max_examples=150, deadline=None)
def test_clicks_stacked_over_send_patterns(p, fractions, p_dc):
    # transmittances up to the detected-photon limit of the mu_z/mu_z pattern
    arm_t = fractions * min(1.0, MAX_DETECTED_PHOTONS / p.mu_z)
    column = (3, 1)
    stacked = outcome(lambda: effective_click_probability(
        np.reshape((p.mu_z, p.mu_z, p.mu_0), column), np.reshape((p.mu_z, p.mu_0, p.mu_0), column),
        arm_t, p_dc))
    if arm_t.min() > 0.0:  # the sweep's call, which takes arm_t in (0, 1]
        assert outcome(lambda: sns_mod._clicks(p, arm_t, p_dc)) == stacked
    alone = [outcome(lambda: effective_click_probability(mu_a, mu_b, arm_t, p_dc))
             for mu_a, mu_b in ((p.mu_z, p.mu_z), (p.mu_z, p.mu_0), (p.mu_0, p.mu_0))]
    if stacked[0] == "DomainError":
        assert stacked in alone
    else:
        (shape, data), = stacked
        width = len(data) // 3
        assert [[(shape[1:], data[i * width:(i + 1) * width])] for i in range(3)] == alone


@given(rows(unit), st.data())
@settings(max_examples=60, deadline=None)
def test_paired_entropies(a, data):
    b = data.draw(rows(unit, st.just(a.size)))
    h_a, h_b = _entropies(a, b)
    assert h_a.tobytes() == binary_entropy(a).tobytes()
    assert h_b.tobytes() == binary_entropy(b).tobytes()
    assert [float(h) for h in _entropies(float(a[0]), float(b[0]))] == [
        binary_entropy(float(a[0])), binary_entropy(float(b[0]))]


@given(sns_params(), decoy_sets(), rows(st.floats(1e-6, 1.0)), st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_plain_and_paired_rates_in_one_pass(p, s, arm_t, e_phi):
    assume(MAX_DETECTED_PHOTONS / p.mu_z >= 1.0)
    det = DetectorParams(eta_d=0.9, dark_rate=10.0)
    stats = sns_window_stats(p, s, arm_t, det, e_phi)
    aopp = aopp_transform(stats)
    keys = sns_mod._rate(*map(np.stack, zip(sns_mod._terms(stats), sns_mod._terms(aopp))),
                         p, 1.15)
    assert keys[0].tobytes() == sns_rate(stats, p, 1.15).tobytes()
    assert keys[1].tobytes() == sns_aopp_rate(aopp, p, 1.15).tobytes()


@st.composite
def cal_params(draw):
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 2)]
    return CalParams(mu_zeta=draw(st.floats(1e-3, 0.5)),
                     set_even=tuple(draw(st.lists(st.sampled_from(pairs), unique=True))),
                     set_odd=tuple(draw(st.lists(st.sampled_from(pairs), unique=True))))


def per_polynomial_phase_error(p, ch, p_d):
    """cal_phase_error with the loss weights t^k (1 - t)^(n - k) of each
    survivor polynomial taken anew, term by term."""
    arm_t = np.minimum(ch.gamma / p.mu_zeta, 1.0)
    total = 0.0
    for j, sset in ((0, p.set_even), (1, p.set_odd)):
        raw = cal_mod._cat_raw(p.mu_zeta, j, p.m_max)
        explicit = 0.0
        for m_a, m_b in sset:
            n_a, n_b = 2 * m_a + j, 2 * m_b + j
            n, poly = n_a + n_b, cal_mod._yield_coefficients(n_a, n_b)[0]
            at_c = 0.0
            for k in range(1, n + 1):
                at_c = at_c + poly[k] * (np.power(arm_t, k) * np.power(1.0 - arm_t, n - k))
            y = cal_mod._one_click(np.power(1.0 - arm_t, n), at_c, p_d)
            explicit = explicit + raw[m_a] * raw[m_b] * np.sqrt(np.maximum(y, 0.0))
        total = total + np.square(explicit + cal_mod._cat_remainder(p.mu_zeta, j, p.m_max, sset))
    return total / cal_gain(replace(ch, sigma_phi=0.0), p_d)


@given(cal_params(), rows(unit), st.floats(0.0, 1e-3), st.floats(-math.pi, math.pi),
       st.floats(-1.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_phase_error_shares_the_powers(p, arm_t, p_d, sigma_phi, theta):
    ch = CalChannel(gamma=arm_t * p.mu_zeta, sigma_phi=sigma_phi, theta=theta)
    shared = outcome(lambda: cal_phase_error(p, ch, p_d))
    if shared[0] == "DomainError":  # no gain at some point
        assert shared == ("DomainError", "phase error undefined at zero gain")
        assert not (cal_gain(replace(ch, sigma_phi=0.0), p_d) > 0.0).all()
    else:
        assert shared == outcome(lambda: per_polynomial_phase_error(p, ch, p_d))


def test_click_series_entries_do_not_depend_on_each_other():
    # each entry's I0 series stops at its own last term: a long series beside
    # it does not add terms to a short one
    x = np.array([480.875, 500.0])
    alone = [sns_mod._i0_minus_1(x[:1]), sns_mod._i0_minus_1(x[1:])]
    assert sns_mod._i0_minus_1(x).tobytes() == np.concatenate(alone).tobytes()
    with pytest.raises(DomainError, match="above 500"):
        sns_mod._clicks(SnsParams(mu_z=600.0, mu_0=1.0), np.array([1.0]), 0.0)
