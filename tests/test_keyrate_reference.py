"""The key-rate kernels against the 40-digit mpmath reference.

Each test states its tolerance as a relative error.  Key rates are a
difference of two terms, so their error is measured against the larger
term (the scale the reference returns) rather than against the rate.
"""

import math

import mpmath
import numpy as np
import pytest
from reference_keyrate import DPS, bb84_key, cal_bit_error, cal_gain, cal_key, cal_phase_error
from reference_keyrate import click, click_quadrature, decoy, plob, sns

from tfqkd import (
    DETECTORS,
    CalParams,
    ChannelErrorModel,
    DetectorParams,
    ProtocolParams,
    SweepSpec,
    aopp_transform,
    bb84_rate,
    cal_rate,
    cal_stats,
    decoy_bounds,
    effective_click_probability,
    make_cal_channel,
    plob_bound,
    qber,
    run_sweep,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
)

PROT = ProtocolParams()
# 0-105 dB in 0.5 dB steps: the golden sweeps' range and past every cut-off
ATTENUATIONS = np.arange(0.0, 105.25, 0.5)


def rel_err(value, ref, scale=None):
    with mpmath.workdps(DPS):
        scale = abs(ref) if scale is None else scale
        return float(abs(mpmath.mpf(float(value)) - ref) / scale)


def random_points(n=400, seed=400):
    """t from 1e-5 to 1, p_dc from 1e-9 to 1e-5, and the four mixes of a
    signal intensity in [0.01, 0.5] with a near-vacuum one in [1e-6, 1e-4]."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        t, p = float(10 ** rng.uniform(-5, 0)), float(10 ** rng.uniform(-9, -5))
        sig, vac = float(rng.uniform(0.01, 0.5)), float(10 ** rng.uniform(-6, -4))
        yield ((sig, sig), (sig, vac), (vac, sig), (vac, vac))[k % 4], t, p


def channel_points():
    """Every attenuation of ATTENUATIONS for both detector presets."""
    for det in DETECTORS.values():
        for att in ATTENUATIONS.tolist():
            yield det, 10.0 ** (-att / 10.0)


def test_plob_within_two_ulp():
    # 2 ulp: log1p and one division; 1 - eta no longer rounds away the
    # bound at small eta
    etas = [eta * f for _, eta in channel_points() for f in (1.0, 0.9, 0.25)]
    worst = max(rel_err(plob_bound(eta), plob(eta))
                for eta in etas + [1e-20, 1e-300] if eta < 1.0)
    assert worst <= 4.4e-16


def test_plob_rate_positive_at_200_db():
    rate = run_sweep(2, SweepSpec(start=200.0, stop=200.0)).rates["plob"][0]
    assert rate > 0.0
    assert rel_err(rate / 1e9, plob(1e-20)) <= 4.4e-16


def test_click_probability_on_random_points():
    # 2e-15: a few roundings in a sum of non-negative terms
    worst = max(rel_err(effective_click_probability(mu_a, mu_b, t, p), click(mu_a, mu_b, t, p))
                for (mu_a, mu_b), t, p in random_points())
    assert worst <= 2e-15


@pytest.mark.parametrize("mu_a, mu_b, t, p", [
    (0.2, 0.2, 0.03, 1e-8), (0.2, 5e-6, 0.9, 1e-7), (5e-6, 5e-6, 1e-5, 1e-9),
    (0.45, 0.01, 1.0, 1e-5)])
def test_click_closed_form_is_the_phase_average(mu_a, mu_b, t, p):
    # the Bessel form of the reference and the kernel against the phase
    # average itself, by 40-digit quadrature
    avg = click_quadrature(mu_a, mu_b, t, p)
    with mpmath.workdps(DPS):
        assert abs(click(mu_a, mu_b, t, p) - avg) <= 1e-30 * avg
    assert rel_err(effective_click_probability(mu_a, mu_b, t, p), avg) <= 2e-15


@pytest.mark.parametrize("mu_a, mu_b, t, p", [
    (30.0, 20.0, 1.0, 1e-6), (400.0, 400.0, 1.0, 0.0), (499.0, 499.0, 1.0, 1e-3),
    (50.0, 0.0, 1.0, 0.0)])
def test_click_probability_at_high_intensity(mu_a, mu_b, t, p):
    # 4e-15: the I0 series runs to hundreds of terms here, all positive
    assert rel_err(effective_click_probability(mu_a, mu_b, t, p), click(mu_a, mu_b, t, p)) <= 4e-15


def test_window_stats_and_pairing_on_random_points():
    # 2e-15 for the window statistics, 5e-15 for the pairing error and the
    # decoy-bounded single-photon terms (their closed forms amplify the
    # rounding of the click probabilities and gains a few times)
    rng = np.random.default_rng(401)
    tol = {"n_t": 2e-15, "e_z": 2e-15, "aopp_e_z": 5e-15, "n1": 5e-15, "e1": 5e-15}
    worst = dict.fromkeys(tol, 0.0)
    for _, t, p in random_points():
        det = DetectorParams(eta_d=1.0, dark_rate=p * 1e9, clock_rate=1e9)
        e_phi = float(rng.uniform(0.0, 0.05))
        m = ChannelErrorModel(eta_hat=t, p_dc=det.p_dc, e_phi=e_phi)
        s = sns_window_stats(PROT.sns, decoy_bounds(PROT.decoys, m), t, det.p_dc)
        a = aopp_transform(s)
        ref = sns(PROT.sns, PROT.decoys, t, det.p_dc, e_phi, 0.02, PROT.f_ec)
        got = {"n_t": s.n_t, "e_z": s.e_z, "aopp_e_z": a.e_z_prime, "n1": s.n1_low,
               "e1": s.e1ph_up}
        for k in tol:
            if ref[k] != 0:
                worst[k] = max(worst[k], rel_err(got[k], ref[k]))
        for value, (r, scale) in ((sns_rate(s, PROT.sns, PROT.f_ec), ref["rate"]),
                                  (sns_aopp_rate(a, PROT.sns, PROT.f_ec), ref["aopp_rate"])):
            assert value == r == 0 or rel_err(value, r, scale) <= 2e-14
    assert all(worst[k] <= tol[k] for k in tol), worst


def test_bb84_over_attenuation():
    # 2e-15 for the gain and QBER; 1.5e-14 for the single-photon bounds,
    # whose closed form cancels about one digit; the key within 2e-14 of
    # its larger term
    s = PROT.decoys
    for det, eta in channel_points():
        m = ChannelErrorModel(eta_hat=eta * det.eta_d, p_dc=det.p_dc, e_phi=0.01)
        b = decoy_bounds(s, m)
        ref = decoy(s, m.eta_hat, m.p_dc, m.e_theta, m.e_phi)
        assert b.ok == ref["ok"]
        assert rel_err(b.q_u, ref["q_u"]) <= 2e-15
        assert rel_err(qber(s.u, m), ref["e_u"]) <= 2e-15
        if b.ok:
            assert rel_err(b.y1_low, ref["y1"]) <= 1.5e-14
            assert rel_err(b.e1ph_up, ref["e1"]) <= 1.5e-14
        key, scale = bb84_key(ref, PROT.f_ec)
        value = bb84_rate(b, PROT.f_ec)
        assert value == key == 0 or rel_err(value, key, scale) <= 2e-14


@pytest.mark.parametrize("sigma_phi", [0.0, 0.0632, 0.2])
def test_cal_over_attenuation(sigma_phi):
    # 3e-15 for the gain, the bit error and the phase-error bound; the key
    # within 2e-14 of its larger term
    cp, theta = CalParams(), PROT.misalignment.theta
    for det, eta in channel_points():
        t = math.sqrt(eta * det.eta_d)
        ch = make_cal_channel(t, cp, sigma_phi=sigma_phi, theta=theta)
        p_xx = cal_gain(ch.gamma, sigma_phi, theta, det.p_dc)
        e_x = cal_bit_error(ch.gamma, sigma_phi, theta, det.p_dc)
        e_z = cal_phase_error(cp, ch.gamma, theta, det.p_dc)
        c = cal_stats(cp, ch, det.p_dc)
        assert rel_err(c.gain, p_xx) <= 3e-15
        assert rel_err(c.e_x, e_x) <= 3e-15
        assert rel_err(c.e_z_bound, e_z) <= 3e-15
        key, scale = cal_key(p_xx, e_x, e_z, PROT.f_ec)
        value = cal_rate(c, PROT.f_ec)
        assert value == key == 0 or rel_err(value, key, scale) <= 2e-14
