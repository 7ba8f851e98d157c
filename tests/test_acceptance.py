"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines).
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad

import tfqkd
from tfqkd import (
    CalParams,
    ChannelErrorModel,
    DecoySet,
    McConfig,
    SNSPD,
    SnsParams,
    SweepSpec,
    builtin_scenarios,
    cal_bit_error,
    cal_gain,
    cal_phase_error,
    decoy_bounds,
    effective_click_probability,
    fock_bs_distribution,
    fock_pair_yield,
    format_csv,
    make_cal_channel,
    mc_click_stats,
    plob_bound,
    poisson_true_yields,
    qber_from_variance,
    qber_small_angle,
    run_sweep,
    sns_window_stats,
    solve_scenario,
)
from tfqkd.cli import main as cli_main


def _report(n, label, elapsed):
    print(f"ACCEPTANCE {n} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_qber_mapping():
    t0 = time.time()
    assert qber_small_angle(0.2**2) == pytest.approx(0.01, abs=1e-15)
    for sigma in np.linspace(0.0, 1.0, 41):
        if sigma == 0.0:
            assert qber_from_variance(0.0) == 0.0
            continue

        def integrand(phi):
            return (np.sin(phi / 2.0) ** 2 * np.exp(-phi**2 / (2 * sigma**2))
                    / np.sqrt(2 * np.pi * sigma**2))
        ref, err = quad(integrand, -12 * sigma, 12 * sigma, limit=500,
                        epsabs=1e-13, epsrel=1e-13)
        assert abs(qber_from_variance(sigma**2) - ref) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "QBER mapping", elapsed)


def test_criterion_2_scenario_thresholds():
    t0 = time.time()
    expected = {
        1: (700e-6, None), 2: (0.1, 0.06), 3: (50e-6, None), 4: (700e-6, None),
        5: (0.1, 0.08), 6: (1.1e-3, None), 7: (0.1, 0.07),
    }
    for preset in builtin_scenarios():
        res = solve_scenario(preset)
        tau_ref, sigma_ref = expected[preset.id]
        assert res.tau_q == pytest.approx(tau_ref, rel=0.25), \
            f"scenario {preset.id}: tau {res.tau_q} vs {tau_ref}"
        if sigma_ref is not None:
            assert res.clipped
            assert abs(res.sigma_phi - sigma_ref) <= 0.02, \
                f"scenario {preset.id}: sigma {res.sigma_phi} vs {sigma_ref}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(2, "scenario thresholds", elapsed)


def _null_se(p, n):
    """Standard error of an observed frequency under the analytic null;
    stays valid in the rare-count regime where the sample estimate of the
    binomial variance degenerates."""
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n)


def test_criterion_3_analytic_vs_monte_carlo():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(2024))
    samples = 10_000_000
    n_points = 20
    # frozen seed base; every comparison draws its own stream
    base = 17_000
    for k in range(n_points):
        arm_t = float(10.0 ** rng.uniform(-2.0, -0.5))
        p_dc = float(10.0 ** rng.uniform(-8.0, -5.5))
        mu_z = float(rng.uniform(0.1, 0.4))
        mu_0 = float(10.0 ** rng.uniform(-5.0, -4.0))
        # sending-or-not-sending window rates: the four send patterns
        for j, (mu_a, mu_b) in enumerate(
                ((mu_z, mu_z), (mu_z, mu_0), (mu_0, mu_z), (mu_0, mu_0))):
            ana = effective_click_probability(mu_a, mu_b, arm_t, p_dc)
            s = mc_click_stats(mu_a, mu_b, arm_t, p_dc,
                               McConfig(samples=samples, seed=base + 100 * k + j))
            mc = s.c_only + s.d_only
            se = _null_se(ana, samples)
            assert abs(ana - mc) <= 3.0 * se, \
                f"point {k}: window rate off by {(ana - mc) / se:.2f} se"
        # phase-encoding gain and bit error from fixed-phase runs
        calp = CalParams()
        ch = make_cal_channel(arm_t, calp, sigma_phi=float(rng.uniform(0, 0.3)),
                              theta=0.28)
        delta = float(np.arccos(ch.omega))
        half = samples // 2
        eq = mc_click_stats(calp.mu_zeta, calp.mu_zeta, arm_t, p_dc,
                            McConfig(samples=half, seed=base + 100 * k + 10,
                                     phase=tfqkd.FixedDelta(delta)))
        op = mc_click_stats(calp.mu_zeta, calp.mu_zeta, arm_t, p_dc,
                            McConfig(samples=half, seed=base + 100 * k + 11,
                                     phase=tfqkd.FixedDelta(np.pi - delta)))
        # analytic per-phase single-click probabilities on the c port
        g, om = ch.gamma, ch.omega
        p_eq = float((1 - (1 - p_dc) * np.exp(-g * (1 + om)))
                     * (1 - p_dc) * np.exp(-g * (1 - om)))
        p_op = float((1 - (1 - p_dc) * np.exp(-g * (1 - om)))
                     * (1 - p_dc) * np.exp(-g * (1 + om)))
        gain_mc = 0.5 * (eq.c_only + op.c_only)
        gain_se = 0.5 * math.hypot(_null_se(p_eq, half), _null_se(p_op, half))
        ana_gain = cal_gain(ch, p_dc)
        assert abs(ana_gain - gain_mc) <= 3.0 * gain_se, \
            f"point {k}: gain off by {(ana_gain - gain_mc) / gain_se:.2f} se"
        # bit error: wrong-parity share of the single clicks on one port
        ana_ex = cal_bit_error(ch, p_dc)
        num = op.c_only
        den = eq.c_only + op.c_only
        se_num = math.sqrt((1 - ana_ex) ** 2 * p_op * (1 - p_op) / half
                           + ana_ex**2 * p_eq * (1 - p_eq) / half)
        assert abs(num - ana_ex * den) <= 3.0 * max(se_num, 1e-12), \
            f"point {k}: bit error off by {(num - ana_ex * den) / se_num:.2f} se"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, "analytic vs Monte-Carlo click statistics", elapsed)


def test_criterion_4_fock_yields():
    t0 = time.time()
    # interference removes coincidences for indistinguishable photon pairs
    for t in (0.2, 0.5, 1.0):
        assert fock_pair_yield(1, 1, t, 0.0).both <= 1e-12
    # exact agreement with the combinatorial beamsplitter oracle
    for t in (0.0, 0.31, 0.77, 1.0):
        for p_d in (0.0, 2e-4):
            for n_a in range(0, 5):
                for n_b in range(0, 5 - n_a):
                    y = fock_pair_yield(n_a, n_b, t, p_d)
                    ref = {"none": 0.0, "c_only": 0.0, "d_only": 0.0, "both": 0.0}
                    for k_a in range(n_a + 1):
                        wa = (math.comb(n_a, k_a) * t**k_a
                              * (1 - t) ** (n_a - k_a))
                        for k_b in range(n_b + 1):
                            wb = (math.comb(n_b, k_b) * t**k_b
                                  * (1 - t) ** (n_b - k_b))
                            dist = fock_bs_distribution(k_a, k_b)
                            for m_c, p_bs in enumerate(dist):
                                m_d = k_a + k_b - m_c
                                pc = 1.0 if m_c > 0 else p_d
                                pdd = 1.0 if m_d > 0 else p_d
                                w = wa * wb * p_bs
                                ref["none"] += w * (1 - pc) * (1 - pdd)
                                ref["c_only"] += w * pc * (1 - pdd)
                                ref["d_only"] += w * (1 - pc) * pdd
                                ref["both"] += w * pc * pdd
                    for key in ref:
                        assert abs(getattr(y, key) - ref[key]) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(4, "photon-pair yields vs exact oracle", elapsed)


def test_criterion_5_decoy_bracketing():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(77))
    decoys = DecoySet()
    violations = 0
    for _ in range(1000):
        m = ChannelErrorModel(
            eta_hat=float(10.0 ** rng.uniform(-6, 0)),
            p_dc=float(10.0 ** rng.uniform(-9, -1)),
            e_theta=float(rng.uniform(0.0, 0.25)),
            e_phi=float(rng.uniform(0.0, 0.25)))
        b = decoy_bounds(decoys, m)
        y0_true, _ = poisson_true_yields(m, 0)
        y1_true, ey1 = poisson_true_yields(m, 1)
        if b.y0_low > y0_true + 1e-12:
            violations += 1
        if b.ok:
            if b.y1_low > y1_true + 1e-12:
                violations += 1
            e1_true = ey1 / y1_true
            if b.e1ph_up < min(e1_true, 1.0) - 1e-12:
                violations += 1
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(5, "decoy bounds bracket the exact yields", elapsed)


def test_criterion_6_phase_noise_asymmetry():
    t0 = time.time()
    arm_t = 0.03
    p = SnsParams()
    e_phi_grid = (0.0, 0.005, 0.01, 0.05, 0.1, 0.2)
    stats = [sns_window_stats(p, decoy_bounds(DecoySet(), ChannelErrorModel(
        eta_hat=arm_t, p_dc=SNSPD.p_dc, e_phi=e)), arm_t, SNSPD.p_dc) for e in e_phi_grid]
    # bit-flip error exactly invariant in the phase-noise QBER
    assert len({s.e_z for s in stats}) == 1
    # phase-error bound strictly increasing in it
    e1 = [s.e1ph_up for s in stats]
    assert all(b > a for a, b in zip(e1, e1[1:]))

    calp = CalParams()
    sigma_grid = (0.0, 0.05, 0.1, 0.2, 0.4)
    chans = [make_cal_channel(arm_t, calp, sigma_phi=s, theta=0.28)
             for s in sigma_grid]
    ez = [cal_phase_error(calp, ch, SNSPD.p_dc) for ch in chans]
    assert len(set(ez)) == 1  # exactly invariant in sigma
    ex = [cal_bit_error(ch, SNSPD.p_dc) for ch in chans]
    assert all(b > a for a, b in zip(ex, ex[1:]))
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(6, "phase-noise asymmetry of the two protocols", elapsed)


def test_criterion_7_figure_level_properties():
    t0 = time.time()
    # (a) equivalent scenarios produce bit-identical sweeps
    spec = SweepSpec(start=0, stop=80, step=1)
    csv_by_id = {sid: format_csv(run_sweep(sid, spec)) for sid in (1, 2, 4, 7)}
    assert csv_by_id[1] == csv_by_id[4]
    assert csv_by_id[2] == csv_by_id[7]

    # (b) twin-field protocols beat the realistic repeaterless bound in the
    # stabilized scenarios (7 is bit-identical to 2 by construction)
    for sid in (2, 5):
        table = run_sweep(sid, spec)
        sns_beats = table.x[table.rates["sns_aopp"] > table.rates["plob_realistic"]]
        cal_beats = table.x[table.rates["cal"] > table.rates["plob_realistic"]]
        assert sns_beats.size, f"scenario {sid}: pairing protocol never beats the bound"
        assert cal_beats.size, f"scenario {sid}: phase encoding never beats the bound"

    # (c) direct-link decoy BB84 wins up to a crossover in [30, 50] dB
    t3 = run_sweep(3, spec)
    tf_best = np.maximum(t3.rates["sns_aopp"], t3.rates["cal"])
    crossings = t3.x[(t3.x >= 5.0) & (tf_best > t3.rates["bb84"])].tolist()
    crossover = crossings[0] if crossings else None
    assert crossover is not None
    assert 30.0 <= crossover <= 50.0, f"crossover at {crossover} dB"

    # (d) the noisier, less efficient detector always reaches less far
    for preset in builtin_scenarios():
        reach = {}
        for det in ("snspd", "spad"):
            t_d = run_sweep(preset.id, SweepSpec(start=0, stop=130, step=1,
                                                 detector=det))
            reach[det] = {
                proto: max(t_d.x[t_d.rates[proto] > 0.0].tolist(), default=-1.0)
                for proto in ("bb84", "sns_aopp", "cal")}
        for proto in ("bb84", "sns_aopp", "cal"):
            assert reach["spad"][proto] < reach["snspd"][proto], \
                f"scenario {preset.id}, {proto}: {reach}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, "figure-level sweep properties", elapsed)


def test_criterion_8_plob_large_loss_scaling():
    t0 = time.time()
    eta = 1e-5
    ratio = plob_bound(eta) / eta
    assert ratio == pytest.approx(1.0 / math.log(2.0), rel=1e-3)
    assert plob_bound(eta) == pytest.approx(1.44 * eta, rel=5e-3)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(8, "repeaterless bound large-loss scaling", elapsed)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    runner = CliRunner()
    outputs = []
    for i in range(2):
        out = tmp_path / f"scenario2_{i}.csv"
        res = runner.invoke(cli_main, ["scenario", "2", "--detector", "snspd",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.time() - t0
    _report(9, "deterministic sweep CSV", elapsed)
