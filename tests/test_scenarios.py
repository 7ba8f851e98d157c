"""Scenario presets, sweeps, configuration loading and CSV emission."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import tfqkd
from tfqkd import (
    PROTOCOL_NAMES,
    SNSPD,
    SPAD,
    ChannelErrorModel,
    ConfigError,
    DecoySet,
    DetectorParams,
    DomainError,
    FullConfig,
    ProtocolParams,
    SweepRow,
    SweepSpec,
    SweepTable,
    aopp_transform,
    arm_transmittance,
    balanced_link,
    bb84_rate,
    builtin_scenarios,
    cal_bit_error,
    cal_gain,
    cal_phase_error,
    cal_rate,
    cal_stats,
    decoy_bounds,
    dump_config,
    effective_transmittance,
    format_csv,
    interference_spectrum,
    link_from_attenuation,
    loads_config,
    load_config,
    make_cal_channel,
    plob_bound,
    qber,
    run_sweep,
    sns_aopp_rate,
    sns_rate,
    sns_window_stats,
    solve_scenario,
    solve_tau_q,
)
from tfqkd.cli import main as cli_main
from tfqkd.scenarios import builtin_scenario

CONFIG_PATH = "configs/scenario1.yaml"
# the environment of a fresh interpreter on the package source
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    os.environ.get("PYTHONPATH")))))


def scalar_point(sid, spec, x, det=None):
    """(rates, diagnostics, flags) of one sweep point from the public
    per-point functions: the per-point loop the sweep replaced."""
    op, prot = builtin_scenario(sid).operating_point, ProtocolParams()
    det = det or tfqkd.DETECTORS[spec.detector]
    if spec.x_axis == "total_attenuation_db":
        eta = link_from_attenuation(x)
    else:
        eta = balanced_link(x / 2, spec.alpha, spec.a_plus)
    eta_hat = effective_transmittance(eta, det)
    arm_t = arm_transmittance(eta_hat)
    nu, duty, p_dc = det.clock_rate, op.duty_cycle, det.p_dc
    rates, diag, flags = {}, {}, []
    if "plob" in spec.protocols:
        rates["plob"] = math.inf if eta >= 1.0 else plob_bound(eta) * nu
    if "plob_realistic" in spec.protocols:
        rates["plob_realistic"] = math.inf if eta_hat >= 1.0 else plob_bound(eta_hat) * nu
    if "bb84" in spec.protocols:
        m = ChannelErrorModel(eta_hat=eta_hat, p_dc=p_dc,
                              e_theta=prot.misalignment.e_theta, e_phi=op.e_phi)
        b = decoy_bounds(prot.decoys, m)
        rates["bb84"] = bb84_rate(b, prot.f_ec) * nu
        diag["bb84_gain_u"] = b.q_u
        diag["bb84_qber_u"] = qber(prot.decoys.u, m) if b.q_u > 0 else 0.0
        if not b.ok:
            flags.append("bb84_estimation_failed")
    if "sns" in spec.protocols or "sns_aopp" in spec.protocols:
        m = ChannelErrorModel(eta_hat=arm_t, p_dc=p_dc,
                              e_theta=prot.misalignment.e_theta, e_phi=op.e_phi)
        s = sns_window_stats(prot.sns, decoy_bounds(prot.decoys, m), arm_t, p_dc)
        diag.update(sns_n_t=s.n_t, sns_e_z=s.e_z, sns_n1_low=s.n1_low,
                    sns_e1ph_up=s.e1ph_up)
        if not s.decoy_ok:
            flags.append("sns_estimation_failed")
        if "sns" in spec.protocols:
            rates["sns"] = sns_rate(s, prot.sns, prot.f_ec) * duty * nu
        if "sns_aopp" in spec.protocols:
            a = aopp_transform(s)
            diag["sns_aopp_e_z"] = a.e_z_prime
            rates["sns_aopp"] = sns_aopp_rate(a, prot.sns, prot.f_ec) * duty * nu
    if "cal" in spec.protocols:
        ch = make_cal_channel(arm_t, prot.cal, sigma_phi=op.sigma_phi,
                              theta=prot.misalignment.theta)
        p_xx = cal_gain(ch, p_dc)
        keyed = p_xx > 0.0
        rates["cal"] = cal_rate(cal_stats(prot.cal, ch, p_dc), prot.f_ec) * duty * nu
        diag["cal_gain"] = p_xx
        diag["cal_e_x"] = cal_bit_error(ch, p_dc) if keyed else 0.0
        diag["cal_e_z_bound"] = cal_phase_error(prot.cal, ch, p_dc) if keyed else 1.0
    return rates, diag, tuple(flags)


def table_point(table, i):
    """(rates, diagnostics, flags) of point i of a sweep table, read from
    its columns, as scalar_point gives them."""
    return ({p: a[i] for p, a in table.rates.items()},
            {k: a[i] for k, a in table.diagnostics.items()},
            tuple(f for f, mask in table.flags.items() if mask[i]))


class TestPresets:
    def test_seven_scenarios(self):
        presets = builtin_scenarios()
        assert [p.id for p in presets] == [1, 2, 3, 4, 5, 6, 7]
        # built once at import, not on every sweep
        assert builtin_scenarios() is presets
        assert all(builtin_scenario(p.id) is p for p in presets)

    def test_ids_are_integers(self):
        # an id is an integer, a NumPy one too, but no bool (True used to
        # pick scenario 1) and no float (2.0 picked scenario 2 here but not
        # in run_sweep)
        assert builtin_scenario(np.int64(3)) is builtin_scenarios()[2]
        assert run_sweep(np.int64(3), SweepSpec(stop=1)).x.tolist() == [0.0, 1.0]
        for bad in (True, False, np.True_, 2.0):
            with pytest.raises(DomainError, match="unknown scenario id"):
                builtin_scenario(bad)
            with pytest.raises(DomainError):
                run_sweep(bad, SweepSpec(stop=1))

    def test_operating_point_classes(self):
        ops = {p.id: p.operating_point for p in builtin_scenarios()}
        assert ops[1] == ops[4]
        assert ops[2] == ops[7]
        assert ops[2] != ops[5]
        for sid in (1, 3, 4, 6):
            assert ops[sid].e_phi == 0.01
            assert ops[sid].sigma_phi == 0.2
        assert ops[2].e_phi == 0.001
        assert ops[5].e_phi == 0.002

    def test_clipped_scenarios_at_tau_max(self):
        for p in builtin_scenarios():
            if p.id in (2, 5, 7):
                assert p.operating_point.tau_q == 0.1

    def test_topologies(self):
        by_id = {p.id: p for p in builtin_scenarios()}
        assert by_id[6].topology.kind.value == "independent_lasers"
        assert by_id[3].topology.delta_l == pytest.approx(2.5, rel=1e-9)
        assert by_id[1].topology.delta_l == pytest.approx(0.02, rel=1e-9)


class TestSweepSpec:
    def test_grid(self):
        spec = SweepSpec(start=0.0, stop=5.0, step=1.0)
        assert list(spec.grid()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("start, stop, step, n", [
        (0.0, 1.0, 0.6, 2), (0.0, 100.0, 1.0, 101), (0.1, 0.7, 0.2, 4)])
    def test_grid_stops_at_stop(self, start, stop, step, n):
        grid = SweepSpec(start=start, stop=stop, step=step).grid()
        assert grid.size == n
        assert grid[-1] <= stop + 1e-9 * step

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(protocols=())
        with pytest.raises(DomainError):
            SweepSpec(protocols=("bb90",))
        with pytest.raises(DomainError):
            SweepSpec(step=0.0)
        with pytest.raises(DomainError):
            SweepSpec(x_axis="frequency")
        with pytest.raises(DomainError):
            SweepSpec(detector="pmt")

    def test_rejects_stop_below_start(self):
        with pytest.raises(DomainError, match="^sweep range requires 0 <= start <= stop"):
            SweepSpec(start=5, stop=1)

    @pytest.mark.parametrize("field", ["start", "stop", "step", "alpha", "a_plus"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_range(self, field, value):
        with pytest.raises(DomainError):
            SweepSpec(**{field: value})

    def test_rejects_oversized_grid(self):
        from tfqkd.scenarios import MAX_SWEEP_POINTS

        assert SweepSpec(stop=MAX_SWEEP_POINTS - 1).grid().size == MAX_SWEEP_POINTS
        for stop, step in ((MAX_SWEEP_POINTS, 1.0), (1e15, 1.0), (1.0, 1e-320)):
            with pytest.raises(DomainError):
                SweepSpec(stop=stop, step=step)


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        table = run_sweep(1, SweepSpec(start=10, stop=30, step=10))
        assert table.x.tolist() == [10.0, 20.0, 30.0]
        assert set(table.rates) == set(tfqkd.PROTOCOL_NAMES)
        assert all((v >= 0.0).all() for v in table.rates.values())

    def test_length_axis(self):
        spec = SweepSpec(x_axis="total_length_km", start=100.0, stop=100.0,
                         step=1.0, alpha=0.2)
        rate_l = run_sweep(2, spec).rates["sns_aopp"][0]
        rate_a = run_sweep(2, SweepSpec(start=20.0, stop=20.0, step=1.0)).rates["sns_aopp"][0]
        assert rate_l == rate_a

    def test_length_axis_pads_both_arms(self):
        # a balanced link of 2 x 50 km charges a_plus to each arm, as
        # balanced_link does: 0.2 * 100 + 2 * 1.5 = 23 dB
        spec = SweepSpec(x_axis="total_length_km", start=100.0, stop=100.0, a_plus=1.5)
        table = run_sweep(2, spec)
        assert balanced_link(50.0, 0.2, 1.5) == link_from_attenuation(23.0)
        assert table_point(table, 0)[0] == table_point(
            run_sweep(2, SweepSpec(start=23.0, stop=23.0)), 0)[0]

    def test_protocol_subset(self):
        table = run_sweep(2, SweepSpec(start=40, stop=40, step=1,
                                       protocols=("cal", "plob_realistic")))
        assert set(table.rates) == {"cal", "plob_realistic"}

    def test_extreme_darks_zero_rates_sweep_continues(self):
        noisy = DetectorParams(eta_d=0.9, dark_rate=5e8, clock_rate=1e9)
        table = run_sweep(2, SweepSpec(start=60, stop=62, step=1.0),
                          detector=noisy)
        assert len(table) == 3
        assert (table.rates["sns_aopp"] == 0.0).all()
        assert (table.rates["bb84"] == 0.0).all()
        assert (table.rates["plob_realistic"] > 0.0).all()

    def test_estimation_failure_flagged_not_fatal(self, monkeypatch):
        # the closed-form single-photon bound cannot fail for the Poissonian
        # click model, so force the failure path to check flag propagation
        # the sweep takes BB84's and SNS's bounds from one decoy_bounds call
        import tfqkd.decoy as decoy_mod
        import tfqkd.scenarios as scen_mod

        bounds = decoy_mod.decoy_bounds

        def failing(s, m):
            b = bounds(s, m)
            return replace(b, y1_low=0.0 * b.y1_low, q1_low=0.0 * b.q1_low,
                           e1ph_up=np.ones_like(b.e1ph_up), ok=np.zeros_like(b.ok))

        monkeypatch.setattr(scen_mod, "decoy_bounds", failing)
        table = run_sweep(2, SweepSpec(start=40, stop=42, step=1.0))
        assert len(table) == 3
        assert table.flags["sns_estimation_failed"].all()
        assert table.flags["bb84_estimation_failed"].all()
        assert (table.rates["sns_aopp"] == 0.0).all()
        assert (table.rates["bb84"] == 0.0).all()
        assert (table.rates["cal"] > 0.0).all()  # unaffected protocol keeps running

    def test_failure_flags_from_the_model(self):
        # no patched bounds: with this decoy set and a 1 MHz dark rate the
        # single-photon bounds fail on BB84's channel on [11, 28.5] dB and
        # on SNS's per-arm channel on [24.5, 60.5] dB, 9 points on both
        prot = ProtocolParams(decoys=DecoySet(u=0.9, v=0.4, w=0.3))
        det = DetectorParams(eta_d=0.5, dark_rate=1e6)
        table = run_sweep(1, SweepSpec(start=0.0, stop=120.0, step=0.5), prot=prot, detector=det)
        bb84, sns = table.flags["bb84_estimation_failed"], table.flags["sns_estimation_failed"]
        eta_hat = effective_transmittance(link_from_attenuation(table.x), det)
        for mask, t, keys in ((bb84, eta_hat, ("bb84",)),
                              (sns, arm_transmittance(eta_hat), ("sns", "sns_aopp"))):
            m = ChannelErrorModel(eta_hat=t, p_dc=det.p_dc, e_theta=prot.misalignment.e_theta,
                                  e_phi=table.operating_point.e_phi)
            assert mask.tolist() == (~decoy_bounds(prot.decoys, m).ok).tolist()
            for k in keys:
                assert table.rates[k][mask].tolist() == [0.0] * int(mask.sum())
        assert table.x[bb84].tolist() == np.arange(11.0, 28.6, 0.5).tolist()
        assert table.x[sns].tolist() == np.arange(24.5, 60.6, 0.5).tolist()
        assert (bb84.sum(), sns.sum(), (bb84 & sns).sum()) == (36, 73, 9)
        # each CSV flags cell joins the point's flags in the table's order
        cells = [line.rsplit(",", 1)[1] for line in format_csv(table).splitlines()[1:]]
        assert cells == [";".join(table_point(table, i)[2]) for i in range(len(table))]
        assert set(cells) == {"", "bb84_estimation_failed", "sns_estimation_failed",
                              "bb84_estimation_failed;sns_estimation_failed"}

    def test_kernel_calls_do_not_grow_with_points(self, monkeypatch):
        # a sweep evaluates each kernel once over a stacked (intensity or
        # channel) x grid array: every function of the link and protocol
        # modules is called as often for 11 points as for 101, and the
        # public kernels exactly as often as listed; the grid reaches the
        # losses where BB84 has no key
        import inspect

        import tfqkd._fields as fields_mod
        import tfqkd.cal as cal_mod
        import tfqkd.decoy as decoy_mod
        import tfqkd.link as link_mod
        import tfqkd.scenarios as scen_mod
        import tfqkd.sns as sns_mod

        # the sweep runs public protocol functions only: scenarios holds no
        # private name of decoy, sns or cal, nor one of those modules to
        # reach a private name through; the field contract's _checker,
        # which every module imports from _fields, is none of theirs
        protocol = (cal_mod, decoy_mod, sns_mod)
        private = [v for m in protocol for k, v in vars(m).items()
                   if k.startswith("_") and not k.startswith("__")
                   and getattr(fields_mod, k, None) is not v]
        assert [k for k, v in vars(scen_mod).items()
                if any(v is x for x in protocol + tuple(private))] == []
        holders = (cal_mod, decoy_mod, link_mod, scen_mod, sns_mod)
        calls: dict = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (cal_mod, decoy_mod, link_mod, sns_mod):
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapper = counted(f"{mod.__name__}.{name}", fn)
                    for holder in holders:
                        if getattr(holder, name, None) is fn:
                            monkeypatch.setattr(holder, name, wrapper)
        run_sweep(2, SweepSpec(start=0, stop=0))  # fill the CAL coefficient caches
        per_sweep = []
        for step in (10.0, 1.0):
            calls.clear()
            table = run_sweep(2, SweepSpec(start=0, stop=100, step=step))
            assert (table.rates["bb84"] == 0.0).any()
            per_sweep.append(dict(calls))
        assert per_sweep[0] == per_sweep[1]
        public = {f"{m.__name__}.{n}" for m in (cal_mod, decoy_mod, link_mod, sns_mod)
                  for n in m.__all__}
        assert {k: v for k, v in per_sweep[0].items() if k in public} == {
            "tfqkd.link.link_from_attenuation": 1,
            "tfqkd.link.effective_transmittance": 1, "tfqkd.link.arm_transmittance": 1,
            "tfqkd.link.plob_bound": 2,
            # one set of bounds stacked over BB84's channel and SNS's per-arm
            # channel, with one gain and one error-gain call over the
            # intensities, which carries BB84's QBER; one entropy call per
            # key: BB84, plain SNS, paired SNS and CAL
            "tfqkd.decoy.decoy_bounds": 1,
            "tfqkd.decoy.gain": 1, "tfqkd.decoy.error_gain": 1,
            "tfqkd.decoy.binary_entropy": 4, "tfqkd.decoy.bb84_rate": 1,
            # sns: the window statistics with the three send patterns in one
            # click call, and each key from them
            "tfqkd.sns.sns_window_stats": 1, "tfqkd.sns.effective_click_probability": 1,
            "tfqkd.sns.aopp_transform": 1, "tfqkd.sns.sns_rate": 1,
            "tfqkd.sns.sns_aopp_rate": 1,
            # cal: one gain, bit error and phase-error bound for the rate and
            # the diagnostics; the bound reads its c-only yields without
            # fock_pair_yield, and its aligned gain is the second cal_gain
            "tfqkd.cal.make_cal_channel": 1, "tfqkd.cal.cal_stats": 1,
            "tfqkd.cal.cal_gain": 2, "tfqkd.cal.cal_bit_error": 1,
            "tfqkd.cal.cal_phase_error": 1, "tfqkd.cal.cal_rate": 1}
        # one survivor polynomial per distinct c-only yield: the (0, 2) and
        # (2, 0) inputs share theirs; the powers of t are taken once for all
        assert per_sweep[0]["tfqkd.cal._survivors"] == 4
        assert per_sweep[0]["tfqkd.cal._powers"] == 1

    @pytest.mark.parametrize("sid, detector, protocols", [
        (2, "snspd", PROTOCOL_NAMES), (5, "spad", PROTOCOL_NAMES),
        (3, "snspd", ("cal", "plob_realistic")), (2, "spad", ("sns_aopp",)),
        (7, "snspd", ("bb84", "plob")), (5, "snspd", ("sns", "cal"))])
    def test_rows_equal_scalar_functions(self, sid, detector, protocols):
        # every value, diagnostic and flag of a sweep row equals the public
        # per-point functions composed at that point
        spec = SweepSpec(start=0.0, stop=130.0, step=2.5, detector=detector,
                         protocols=protocols)
        lengths = SweepSpec(x_axis="total_length_km", start=0.0, stop=400.0, step=25.0,
                            detector=detector, protocols=protocols, a_plus=1.5)
        for sp in (spec, lengths):
            table = run_sweep(sid, sp)
            for i, x in enumerate(table.x.tolist()):
                assert table_point(table, i) == scalar_point(sid, sp, x)

    @pytest.mark.parametrize("sid", [2, 5])
    def test_points_without_gain_equal_scalar_functions(self, sid):
        # a dark-free detector has no gain where eta underflows to 0 (from
        # about 3240 dB): the sweep takes the masked path for the CAL errors
        # there, and its shortcut on the all-gain grids; BB84's QBER reads 0
        # there, and SNS has no clicks and no key
        dark_free = DetectorParams(eta_d=0.8, dark_rate=0.0)
        protocols = PROTOCOL_NAMES
        specs = [SweepSpec(start=0.0, stop=4000.0, step=20.0, protocols=protocols),
                 SweepSpec(start=0.0, stop=3000.0, step=20.0, protocols=protocols),
                 SweepSpec(start=3300.0, stop=4000.0, step=100.0, protocols=protocols)]
        gains = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in specs:
                table = run_sweep(sid, spec, detector=dark_free)
                gains.append(table.diagnostics["cal_gain"] > 0.0)
                assert not table.diagnostics["sns_n_t"][~gains[-1]].any()
                for i, x in enumerate(table.x.tolist()):
                    assert table_point(table, i) == scalar_point(sid, spec, x, det=dark_free)
        assert not gains[0].all() and gains[0].any()
        assert gains[1].all() and not gains[2].any()

    @pytest.mark.parametrize("detector", [SNSPD, DetectorParams(eta_d=0.8, dark_rate=0.0)],
                             ids=["snspd", "dark-free"])
    def test_underflow_points_have_the_window_stats_at_zero(self, detector):
        # from about 3240 dB the arm transmittance underflows to 0: the
        # sweep's SNS columns there are sns_window_stats at arm_t = 0, as a
        # float and in an array
        table = run_sweep(2, SweepSpec(start=3250.0, stop=3300.0, step=25.0), detector=detector)
        op, prot, n = table.operating_point, ProtocolParams(), len(table)
        for arm_t in (0.0, np.zeros(n)):
            m = ChannelErrorModel(eta_hat=arm_t, p_dc=detector.p_dc,
                                  e_theta=prot.misalignment.e_theta, e_phi=op.e_phi)
            s = sns_window_stats(prot.sns, decoy_bounds(prot.decoys, m), arm_t, detector.p_dc)
            columns = {"sns_n_t": s.n_t, "sns_e_z": s.e_z, "sns_n1_low": s.n1_low,
                       "sns_e1ph_up": s.e1ph_up, "sns_aopp_e_z": aopp_transform(s).e_z_prime}
            for name, value in columns.items():
                assert table.diagnostics[name].tolist() == np.broadcast_to(value, n).tolist()
            assert table.flags["sns_estimation_failed"].tolist() == np.broadcast_to(
                np.logical_not(s.decoy_ok), n).tolist()

    def test_edge_grid(self):
        # 0 dB (eta = 1, an infinite PLOB bound) to 200 dB with warnings as
        # errors; from 3240 dB eta underflows to 0, where the sweep used to
        # abort on the SNS window statistics' zero arm transmittance: it
        # completes, every rate 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_sweep(2, SweepSpec(start=0.0, stop=200.0, step=0.5))
            far = {start: run_sweep(2, SweepSpec(start=start, stop=3250.0, step=5.0))
                   for start in (3240.0, 3230.0)}
        plob = table.rates["plob"].tolist()
        assert plob[0] == math.inf
        assert all(0.0 < v < math.inf for v in plob[1:])
        assert all((v >= 0.0).all() for v in table.rates.values())
        for start, table in far.items():
            assert table.x.tolist() == np.arange(start, 3250.1, 5.0).tolist()
            assert table_point(table, -1)[0] == dict.fromkeys(PROTOCOL_NAMES, 0.0)
            assert all((table.rates[p] == 0.0).all() for p in ("bb84", "sns", "sns_aopp"))

    def test_curves_below_physical_bounds(self):
        # direct-link protocol under the total-channel capacity; twin-field
        # protocols under the per-arm capacity (the relay acts as a repeater)
        table = run_sweep(2, SweepSpec(start=5, stop=75, step=5))
        nu_s = 1e9
        eta = link_from_attenuation(table.x)
        assert (table.rates["bb84"] <= plob_bound(eta) * nu_s * (1 + 1e-12)).all()
        arm_cap = plob_bound(np.sqrt(eta)) * nu_s
        assert (table.rates["sns_aopp"] <= arm_cap * (1 + 1e-12)).all()
        assert (table.rates["cal"] <= arm_cap * (1 + 1e-12)).all()
        assert (table.rates["sns"] <= arm_cap * (1 + 1e-12)).all()

    def test_duty_and_qber_fixed_per_scenario(self):
        # every point of the CSV carries the one operating point's values
        table = run_sweep(3, SweepSpec(start=10, stop=50, step=20))
        header, *lines = (line.split(",") for line in format_csv(table).splitlines())
        cells = dict(zip(header, zip(*lines)))
        assert len(set(cells["duty_cycle"])) == 1
        assert len(set(cells["e_phi"])) == 1


class TestSweepTable:
    def test_columns_and_rows(self):
        table = run_sweep(2, SweepSpec(start=10, stop=40, step=10))
        assert isinstance(table, SweepTable) and len(table) == 4
        assert list(table.rates) == list(PROTOCOL_NAMES)
        assert list(table.diagnostics) == sorted(table.diagnostics)
        assert table.operating_point == builtin_scenario(2).operating_point
        assert [r.x for r in table] == table.x.tolist() == [10.0, 20.0, 30.0, 40.0]
        # one record of a sweep: the columns, with rows of x and rates
        # built from them on each iteration
        assert [f.name for f in dataclasses.fields(SweepRow)] == ["x", "rates"]
        assert not hasattr(table, "__getitem__")
        assert list(table) == list(table)
        for i, row in enumerate(table):
            assert row.rates == {p: a[i] for p, a in table.rates.items()}
        with pytest.raises(DomainError, match="SweepTable"):
            format_csv(list(table))  # the rows are no table

    def test_rows_are_copies(self):
        # a row is a mutable record of Python values: assigning to its
        # fields or dicts changes neither the columns nor the CSV
        table = run_sweep(2, SweepSpec(start=10, stop=40, step=10))
        x, rates, text = table.x.copy(), {p: a.copy() for p, a in table.rates.items()}, \
            format_csv(table)
        row = list(table)[1]
        row.rates["cal"] = -1.0
        row.x = -1.0
        row.rates = {}
        assert row.x == -1.0 and list(table)[1].x == 20.0
        assert table.x.tolist() == x.tolist()
        assert all(table.rates[p].tolist() == a.tolist() for p, a in rates.items())
        assert format_csv(table) == text


class TestCsv:
    def test_deterministic(self, tmp_path):
        rows = run_sweep(2, SweepSpec(start=0, stop=20, step=5))
        a = format_csv(rows)
        b = format_csv(run_sweep(2, SweepSpec(start=0, stop=20, step=5)))
        assert a == b

    def test_header_and_shape(self):
        rows = run_sweep(1, SweepSpec(start=0, stop=3, step=1))
        text = format_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("total_attenuation_db,rate_bb84_bits_per_s,")
        assert lines[0].endswith(",flags")
        assert len(lines) == 1 + 4

    @staticmethod
    def _cell_text(table):
        """The sweep CSV of a table as the per-cell formatter wrote it, point
        by point: each value converted to float and printed with
        f"{v:.12e}", the flags joined by ';' and printed with str."""
        op = table.operating_point
        protocols = [p for p in PROTOCOL_NAMES if p in table.rates]
        diag = sorted(table.diagnostics)
        header = ([table.x_name] + [f"rate_{p}_bits_per_s" for p in protocols]
                  + ["duty_cycle", "sigma_phi_rad", "e_phi"] + diag + ["flags"])
        lines = [",".join(header)]
        for i in range(len(table)):
            rates, diagnostics, flags = table_point(table, i)
            cells = [float(v) for v in (table.x[i], *(rates[p] for p in protocols),
                                        op.duty_cycle, op.sigma_phi, op.e_phi,
                                        *(diagnostics[k] for k in diag))]
            lines.append(",".join([f"{v:.12e}" for v in cells] + [str(";".join(flags))]))
        return "\n".join(lines) + "\n"

    def test_template_equals_per_cell_formatter(self):
        # the 29 sweeps: seven scenarios x both detectors on 0-100 dB (0 dB
        # has an infinite PLOB rate) and on 0-600 km with a_plus = 1.5, and
        # SNS/CAL over 0-200 dB in 0.5 dB steps; then int bounds, a single
        # protocol, and flags set at every point
        specs = [SweepSpec(start=0.0, stop=100.0, step=1.0, detector=d) for d in ("snspd", "spad")]
        specs += [SweepSpec(x_axis="total_length_km", start=0.0, stop=600.0, step=6.0,
                            detector=d, a_plus=1.5) for d in ("snspd", "spad")]
        sweeps = [(sid, spec, None) for sid in range(1, 8) for spec in specs]
        sweeps.append((2, SweepSpec(start=0.0, stop=200.0, step=0.5, protocols=("sns", "cal")),
                       None))
        assert len(sweeps) == 29
        sweeps += [(1, SweepSpec(start=0, stop=3, step=1), None),
                   (3, SweepSpec(stop=10, protocols=("plob",)), None)]
        tables = [run_sweep(sid, spec, detector=det) for sid, spec, det in sweeps]
        t = tables[0]
        tables.append(SweepTable(t.x_name, t.x, t.rates, t.diagnostics, {
            "bb84_estimation_failed": t.x % 2 == 0, "sns_estimation_failed": t.x % 3 == 0},
            t.operating_point))
        for table in tables:
            assert format_csv(table).split("\n") == self._cell_text(table).split("\n")
        assert table_point(tables[-1], 6)[2] == ("bb84_estimation_failed", "sns_estimation_failed")
        header, first = format_csv(run_sweep(2, specs[0])).split("\n")[:2]
        assert dict(zip(header.split(","), first.split(",")))["rate_plob_bits_per_s"] == "inf"

    def test_format_csv_takes_only_a_table(self):
        for rows in ([], None, "rows", (1, 2)):
            with pytest.raises(DomainError, match="SweepTable"):
                format_csv(rows)

    def test_emit_roundtrip_stable(self):
        rows = run_sweep(1, SweepSpec(start=0, stop=2, step=1))
        assert format_csv(rows) == format_csv(rows)


class TestConfig:
    def test_default_file_reproduces_scenario_1(self):
        cfg = load_config(CONFIG_PATH)
        rows_cfg = run_sweep(cfg.resolve_operating_point(), cfg.sweep,
                             prot=cfg.protocol, detector=cfg.detector)
        rows_builtin = run_sweep(1)
        assert format_csv(rows_cfg) == format_csv(rows_builtin)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="turbo"):
            loads_config("topology: {kind: common_laser, turbo: 1}")

    def test_empty_protocol_list_rejected(self):
        text = ("scenario: {preset: 1}\n"
                "sweep: {protocols: []}\n")
        with pytest.raises(ConfigError, match="protocols"):
            loads_config(text)

    def test_preset_shorthand(self):
        cfg = loads_config("scenario: {preset: 3}")
        assert cfg.topology.delta_l == pytest.approx(2.5)
        assert cfg.operating_point.tau_q == 5e-5

    def test_round_trip(self):
        preset = builtin_scenarios()[0]
        # a config built in Python: f_ec and the decoy set are shared by all
        # protocols, so the dump holds every protocol parameter it sets
        built = FullConfig(topology=preset.topology,
                           operating_point=preset.operating_point,
                           protocol=ProtocolParams(f_ec=1.3, decoys=DecoySet(u=0.5)))
        # live solves that carry a flag: scenario 2 clipped at 0.1 s, and
        # scenario 3 floored at 1 us under a tight threshold
        clipped = solve_scenario(builtin_scenario(2))
        floored = solve_scenario(builtin_scenario(3),
                                 budget=tfqkd.CoherenceBudget(sigma_threshold=1e-3))
        assert clipped.clipped and floored.floored
        for cfg in (load_config(CONFIG_PATH),
                    loads_config("scenario: {preset: 1}\nbudget: {tau_ps_s: 2.0e-3}\n"),
                    built,
                    *(FullConfig(topology=builtin_scenario(sid).topology, operating_point=op)
                      for sid, op in ((2, clipped), (3, floored)))):
            assert loads_config(dump_config(cfg)) == cfg

    def test_operating_point_flags_are_optional(self):
        point = "operating_point: {tau_q_s: 1.0e-3, sigma_phi_rad: 0.2"
        cfg = loads_config(f"scenario: {{preset: 1}}\n{point}, e_phi: 0.01}}\n")
        assert not (cfg.operating_point.clipped or cfg.operating_point.floored)
        cfg = loads_config(f"scenario: {{preset: 1}}\n{point}, e_phi: 0.01, floored: true}}\n")
        assert cfg.operating_point.floored and not cfg.operating_point.clipped
        with pytest.raises(ConfigError, match=r"missing fields: \['e_phi'\]$"):
            loads_config(f"scenario: {{preset: 1}}\n{point}, clipped: true}}\n")

    def test_f_ec_below_one_rejected(self):
        with pytest.raises(DomainError):
            ProtocolParams(f_ec=0.99)

    @pytest.mark.parametrize("preset", builtin_scenarios(), ids=lambda p: str(p.id))
    def test_preset_equals_dataclass_defaults(self, preset):
        cfg = loads_config(f"scenario: {{preset: {preset.id}}}")
        assert cfg == FullConfig(topology=preset.topology,
                                 operating_point=preset.operating_point)

    def test_partial_decoys_checked_together(self):
        cfg = loads_config("scenario: {preset: 1}\n"
                           "protocol: {decoys: {u: 0.1, v: 0.05}}\n")
        assert (cfg.protocol.decoys.u, cfg.protocol.decoys.v) == (0.1, 0.05)

    def test_detector_without_preset_starts_from_snspd(self):
        cfg = loads_config("scenario: {preset: 1}\ndetector: {dark_rate_hz: 100}\n")
        assert cfg.detector == DetectorParams(eta_d=SNSPD.eta_d, dark_rate=100,
                                              clock_rate=SNSPD.clock_rate)

    def test_detector_section_starts_from_sweep_detector(self):
        cfg = loads_config("scenario: {preset: 1}\nsweep: {detector: spad}\n"
                           "detector: {dark_rate_hz: 100}\n")
        assert cfg.detector == DetectorParams(eta_d=SPAD.eta_d, dark_rate=100,
                                              clock_rate=SPAD.clock_rate)
        assert loads_config(dump_config(cfg)) == cfg
        # the sweep's detector is the one key that names the preset
        with pytest.raises(ConfigError, match=r"\$\.detector has unknown key 'preset'$"):
            loads_config("scenario: {preset: 1}\ndetector: {preset: spad}\n")

    @pytest.mark.parametrize("text, section", [
        ("protocol: {decoys: {u: 0.1, v: 0.2}}", "protocol.decoys"),
        ("loop: {gamma: 2.0}", "loop")])
    def test_model_check_failure_is_config_error(self, text, section):
        with pytest.raises(ConfigError, match=section):
            loads_config("scenario: {preset: 1}\n" + text)

    @pytest.mark.parametrize("text", [
        "operating_point: {tau_q_s: .nan, sigma_phi_rad: 0.2, e_phi: 0.01}",
        "operating_point: {tau_q_s: .inf, sigma_phi_rad: 0.2, e_phi: 0.01}",
        "operating_point: {tau_q_s: 7.0e-4, sigma_phi_rad: .nan, e_phi: 0.01}",
        "operating_point: {tau_q_s: 7.0e-4, sigma_phi_rad: .inf, e_phi: 0.01}",
        "protocol: {f_ec: .nan}",
        "protocol: {f_ec: .inf}",
        "protocol: {cal: {mu_zeta: .nan}}",
        "protocol: {decoys: {u: .inf}}",
        "detector: {clock_rate_hz: .inf}",
        "channel: {alpha_db_per_km: .nan}",
        "channel: {alpha_db_per_km: .inf}",
        "channel: {a_plus_db: .nan}",
        "channel: {a_plus_db: .inf}"])
    def test_non_finite_model_value_rejected(self, text):
        with pytest.raises(ConfigError):
            loads_config("scenario: {preset: 1}\n" + text)

    def test_override_coefficient(self):
        cfg = loads_config("scenario: {preset: 1}\nlaser: {r3: 1.0e+5}\n")
        assert cfg.laser.free.r3 == 1e5

    @pytest.mark.parametrize("text", [
        "laser: {r3: 3.0e+9}\ntopology: {l_b_km: 100}",
        "topology: {l_b_km: 100}",
        "topology: {fiber_stabilized: true}",
        "laser: {r3: 3.0e+9}",
        "cavity: {c2: 1.0e-2}",
        "loop: {gamma: 0.2}",
        "fiber: {noise_per_km: 10.0}",
        "budget: {sigma_threshold_rad: 0.1}",
        "budget: {tau_max_s: 0.05, tau_ps_s: 2.0e-3}",
        "budget: {f_max_hz: 1.0e+8}"],
        ids=["laser-and-arms", "arms", "fiber-stabilized", "laser", "cavity", "loop",
             "fiber", "threshold", "tau-max", "f-max"])
    def test_preset_spectrum_or_budget_override_solves_the_window(self, text):
        # the preset's canonical point belongs to its own spectrum and
        # budget, so a change to either makes the window a live solve
        cfg = loads_config("scenario: {preset: 1}\n" + text + "\n")
        assert cfg.operating_point is None
        spectrum = interference_spectrum(cfg.topology, cfg.laser, cfg.fiber)
        assert cfg.resolve_operating_point() == solve_tau_q(spectrum, cfg.budget)

    def test_preset_keeps_its_point_under_other_overrides(self):
        # values equal to the preset's, the overhead tau_ps and the protocol,
        # detector, channel and sweep sections leave the canonical point
        preset = builtin_scenario(4)
        cfg = loads_config(
            "scenario: {preset: 4}\n"
            "topology: {l_a_km: 114.0, l_b_km: 111.5, laser_stabilized: true}\n"
            "laser: {r3: 3.0e+6}\nbudget: {sigma_threshold_rad: 0.2, tau_ps_s: 2.0e-3}\n"
            "protocol: {f_ec: 1.2}\ndetector: {dark_rate_hz: 100}\n"
            "channel: {alpha_db_per_km: 0.3}\nsweep: {stop: 5}\n")
        assert cfg.operating_point == replace(preset.operating_point, tau_ps=2e-3)

    def test_needs_topology_or_preset(self):
        with pytest.raises(ConfigError):
            loads_config("laser: {r3: 1.0}")

    def test_bad_yaml_type(self):
        with pytest.raises(ConfigError):
            loads_config("- 1\n- 2\n")

    def test_bad_yaml_syntax(self):
        with pytest.raises(ConfigError, match="invalid YAML at line 1, column 15"):
            loads_config("laser: {r3: [1")

    @pytest.mark.parametrize("preset", builtin_scenarios(), ids=lambda p: str(p.id))
    def test_solved_point_sweeps_like_a_config_without_one(self, preset):
        # the solve is the operating point a configuration without one sweeps
        spec = SweepSpec(start=0, stop=60, step=5)
        cfg = loads_config(dump_config(FullConfig(topology=preset.topology)))
        assert cfg.operating_point is None
        assert format_csv(run_sweep(solve_scenario(preset), spec)) == format_csv(
            run_sweep(cfg.resolve_operating_point(), spec))


class TestCli:
    def test_scenario_deterministic(self, tmp_path):
        runner = CliRunner()
        f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for f in (f1, f2):
            res = runner.invoke(cli_main, ["scenario", "2", "--detector", "snspd",
                                           "--stop", "20", "--out", str(f)])
            assert res.exit_code == 0, res.output
        assert f1.read_bytes() == f2.read_bytes()

    def test_scenario_from_config(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "cfg.csv"
        res = runner.invoke(cli_main, ["scenario", CONFIG_PATH, "--stop", "10",
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text().startswith("total_attenuation_db,")

    def test_psd_command(self):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["psd", "--scenario", "1", "--points", "10"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().split("\n")
        assert lines[0] == "f_hz,s_phi_rad2_per_hz"
        assert len(lines) == 11

    def test_tau_solve_command(self):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["tau-solve", "--scenario", "3"])
        assert res.exit_code == 0, res.output
        header, row = res.output.strip().split("\n")
        assert header.startswith("tau_q_s,")
        tau = float(row.split(",")[0])
        assert tau == pytest.approx(50e-6, rel=0.25)

    def test_keyrate_command(self):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["keyrate", "--scenario", "2",
                                       "--attenuation-db", "40",
                                       "--protocols", "cal,plob_realistic"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().split("\n")
        assert len(lines) == 2
        assert "rate_cal_bits_per_s" in lines[0]

    @pytest.mark.parametrize("text", [
        "laser: {r3: 3.0e+9}\ntopology: {l_b_km: 100}\n",
        "budget: {sigma_threshold_rad: 0.1}\n"], ids=["laser-and-arms", "threshold"])
    def test_preset_config_override_sweeps_the_solved_window(self, tmp_path, text):
        # the sweep's operating point is the one tau-solve prints for the
        # configured spectrum and budget, not preset 1's canonical one
        path = self._config_file(tmp_path, "scenario: {preset: 1}\n" + text)
        res = CliRunner().invoke(cli_main, ["tau-solve", "--config", path])
        assert res.exit_code == 0, res.output
        _, sigma, duty, e_phi = res.output.split("\n")[1].split(",")[:4]
        canonical = format_csv(run_sweep(1, SweepSpec(stop=0))).split("\n")[1]
        res = CliRunner().invoke(cli_main, ["scenario", path, "--stop", "2"])
        assert res.exit_code == 0, res.output
        header, *rows = res.output.strip().split("\n")
        at = header.split(",").index("duty_cycle")
        assert {tuple(r.split(",")[at:at + 3]) for r in rows} == {(duty, sigma, e_phi)}
        assert (duty, sigma, e_phi) != tuple(canonical.split(",")[at:at + 3])

    @pytest.mark.parametrize("levels, expected", [((), ["0.1"]),
                                                  (("0.3", "0.05"), ["0.3", "0.05"])])
    def test_isolines_default_to_config_threshold(self, tmp_path, levels, expected):
        path = self._config_file(tmp_path, "scenario: {preset: 4}\n"
                                 "budget: {sigma_threshold_rad: 0.1}\n")
        iso = tmp_path / "iso.csv"
        res = CliRunner().invoke(cli_main, [
            "sigma-map", "--config", path, "--dl-points", "3", "--tau-points", "4",
            "--isolines-out", str(iso), *[a for lv in levels for a in ("--level", lv)]])
        assert res.exit_code == 0, res.output
        header, *rows = iso.read_text().strip().split("\n")
        assert header == "level_rad,delta_l_km,tau_q_s"
        assert [float(r.split(",")[0]) for r in rows] == [
            float(lv) for lv in expected for _ in range(3)]

    def test_sigma_map_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "map.csv"
        iso = tmp_path / "iso.csv"
        res = runner.invoke(cli_main, [
            "sigma-map", "--scenario", "1", "--dl-points", "3",
            "--tau-points", "4", "--tau-stop", "0.01",
            "--out", str(out), "--isolines-out", str(iso)])
        assert res.exit_code == 0, res.output
        assert out.read_text().startswith("delta_l_km,tau_q_s,sigma_phi_rad")
        assert iso.read_text().startswith("level_rad,delta_l_km,tau_q_s")

    def test_oracle_command(self):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["oracle", "--seed", "1", "--samples",
                                       "20000", "--points", "2"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().split("\n")
        assert lines[0].startswith("point,quantity,analytic,oracle")
        assert len(lines) == 1 + 4  # two quantities per point

    def test_oracle_without_spread_has_no_z_score(self):
        # one sample clicks nowhere: a zero standard error says nothing, so
        # the z-score is nan, not the 0 of perfect agreement
        res = CliRunner().invoke(cli_main, ["oracle", "--samples", "1", "--points", "1"])
        assert res.exit_code == 0, res.output
        header, *rows = res.output.strip().split("\n")
        cols = header.split(",")
        for row in rows:
            cells = dict(zip(cols, row.split(",")))
            assert float(cells["oracle_se"]) == 0.0 and float(cells["analytic"]) > 0.0
            assert cells["z_score"] == "nan"

    def test_scenario_argument_is_a_number_only_if_int_parses_it(self, tmp_path, monkeypatch):
        # "²" is a digit to str.isdigit, but int() refuses it: it names a
        # file, and a missing one is one error line; "٣" is scenario 3
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(cli_main, ["scenario", "²"])
        assert isinstance(res.exception, SystemExit) and res.exit_code == 1
        assert res.stdout == ""
        assert "Traceback" not in res.output
        assert res.output.startswith("Error: ²: cannot read configuration")
        res = CliRunner().invoke(cli_main, ["scenario", "٣", "--stop", "0"])
        assert res.exit_code == 0, res.output
        assert res.output == CliRunner().invoke(cli_main, ["scenario", "3", "--stop", "0"]).output

    @pytest.mark.parametrize("args", [
        ["psd", "--points", "3"], ["tau-solve"], ["sigma-map", "--dl-points", "2",
                                                  "--tau-points", "2"],
        ["keyrate", "--attenuation-db", "40"]], ids=lambda a: a[0])
    def test_scenario_and_config_are_exclusive(self, args):
        # --config used to win silently: tau-solve printed scenario 1's window
        res = CliRunner().invoke(cli_main, [*args, "--scenario", "3", "--config", CONFIG_PATH])
        assert res.exit_code == 2
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: --scenario and --config are mutually exclusive"]
        for alone in (["--scenario", "3"], ["--config", CONFIG_PATH]):
            assert CliRunner().invoke(cli_main, [*args, *alone]).exit_code == 0

    @pytest.mark.parametrize("args", [
        ["psd", "--points", "3"], ["tau-solve"], ["keyrate", "--attenuation-db", "40"],
        ["scenario", "2", "--stop", "0"], ["oracle", "--samples", "10", "--points", "1"],
        ["sigma-map", "--dl-points", "2", "--tau-points", "2"],
        ["sigma-map", "--dl-points", "2", "--tau-points", "2", "--out", "{ok}",
         "--isolines-out"]],
        ids=["psd", "tau-solve", "keyrate", "scenario", "oracle", "sigma-map", "isolines-out"])
    @pytest.mark.parametrize("bad", ["directory", "missing"])
    def test_unwritable_output_is_one_error_line(self, tmp_path, args, bad):
        # a directory or a path under a missing one printed a traceback
        path = str(tmp_path if bad == "directory" else tmp_path / "missing" / "x.csv")
        args = [a.replace("{ok}", str(tmp_path / "ok.csv")) for a in args]
        if args[-1] != "--isolines-out":
            args.append("--out")
        res = CliRunner().invoke(cli_main, [*args, path])
        assert res.exit_code == 1 and res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith(f"Error: Could not open file {path!r}: ")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("existing", [False, True])
    def test_unwritable_isolines_leave_no_map_file(self, tmp_path, existing):
        # the map file was written before the isolines path failed
        out, iso = tmp_path / "map.csv", tmp_path / "missing" / "iso.csv"
        if existing:
            out.write_text("kept\n")
        res = CliRunner().invoke(cli_main, [
            "sigma-map", "--dl-points", "2", "--tau-points", "2",
            "--out", str(out), "--isolines-out", str(iso)])
        assert res.exit_code == 1 and res.stdout == ""
        assert res.stderr.startswith(f"Error: Could not open file {str(iso)!r}: ")
        assert len(res.stderr.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == (["map.csv"] if existing else [])
        assert not existing or out.read_text() == "kept\n"

    def test_existing_output_is_rewritten(self, tmp_path):
        out, iso = tmp_path / "map.csv", tmp_path / "iso.csv"
        for path in (out, iso):
            path.write_text("x" * 100_000)
        args = ["sigma-map", "--dl-points", "2", "--tau-points", "2"]
        res = CliRunner().invoke(cli_main, [*args, "--out", str(out), "--isolines-out", str(iso)])
        assert res.exit_code == 0
        assert out.read_text() == CliRunner().invoke(cli_main, args).stdout
        lines = iso.read_text().splitlines()
        assert lines[0] == "level_rad,delta_l_km,tau_q_s" and len(lines) == 3

    @pytest.mark.parametrize("existing", [False, True])
    def test_outputs_naming_one_file_are_refused(self, tmp_path, existing):
        # the second append-mode handle truncated what the first one wrote,
        # which left only the isolines in the file, with exit 0
        out = tmp_path / "both.csv"
        if existing:
            out.write_text("kept\n")
        (tmp_path / "link.csv").symlink_to(out)
        args = ["sigma-map", "--dl-points", "2", "--tau-points", "3"]
        for other in (out, f"{tmp_path}/./both.csv", tmp_path / "link.csv"):
            res = CliRunner().invoke(cli_main, [*args, "--out", str(out),
                                                "--isolines-out", str(other)])
            assert res.exit_code == 1 and res.stdout == ""
            assert res.stderr == f"Error: two outputs name one file: {str(other)!r}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == (
                ["both.csv", "link.csv"] if existing else ["link.csv"])
            assert not existing or out.read_text() == "kept\n"

    def test_outputs_may_share_a_device(self):
        args = ["sigma-map", "--dl-points", "2", "--tau-points", "3"]
        res = CliRunner().invoke(cli_main, [*args, "--out", os.devnull,
                                            "--isolines-out", os.devnull])
        assert res.exit_code == 0 and res.output == ""

    def _config_file(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return str(path)

    def test_scenario_config_detector_applies(self, tmp_path):
        path = self._config_file(tmp_path, "scenario: {preset: 2}\n"
                                 "sweep: {detector: spad, stop: 5}\n")
        res = CliRunner().invoke(cli_main, ["scenario", path])
        assert res.exit_code == 0, res.output
        expected = format_csv(run_sweep(2, SweepSpec(stop=5, detector="spad")))
        assert res.output == expected

    def test_keyrate_config_detector_applies(self, tmp_path):
        path = self._config_file(tmp_path, "scenario: {preset: 2}\n"
                                 "sweep: {detector: spad}\n")
        res = CliRunner().invoke(cli_main, ["keyrate", "--config", path,
                                            "--attenuation-db", "30"])
        assert res.exit_code == 0, res.output
        spec = SweepSpec(start=30, stop=30, detector="spad")
        assert res.output == format_csv(run_sweep(2, spec))

    def test_keyrate_config_sweeps_as_the_one_point_scenario(self, tmp_path):
        # keyrate sets the axis, range and step and reads every other sweep
        # field, protocols included, from the configuration, as scenario does
        path = self._config_file(tmp_path, "scenario: {preset: 2}\n"
                                 "sweep: {x_axis: total_length_km, start: 5, stop: 50, "
                                 "step: 5, protocols: [bb84, plob]}\n")
        keyrate = CliRunner().invoke(cli_main, ["keyrate", "--config", path,
                                                "--attenuation-db", "40"])
        scenario = CliRunner().invoke(cli_main, [
            "scenario", path, "--start", "40", "--stop", "40", "--step", "1",
            "--x-axis", "total_attenuation_db"])
        assert keyrate.exit_code == scenario.exit_code == 0, keyrate.output
        assert keyrate.output == scenario.output
        header, row = keyrate.output.strip().split("\n")
        assert header.startswith("total_attenuation_db,rate_bb84_bits_per_s,"
                                 "rate_plob_bits_per_s,duty_cycle,")
        assert row.startswith("4.000000000000e+01,")

    def test_detector_section_overrides_sweep_detector_preset(self, tmp_path):
        # the detector section overrides fields of the preset sweep.detector
        # names; it does not start from an SNSPD
        path = self._config_file(tmp_path, "scenario: {preset: 2}\n"
                                 "sweep: {detector: spad, stop: 5}\n"
                                 "detector: {dark_rate_hz: 10}\n")
        res = CliRunner().invoke(cli_main, ["scenario", path])
        assert res.exit_code == 0, res.output
        det = DetectorParams(eta_d=SPAD.eta_d, dark_rate=10, clock_rate=SPAD.clock_rate)
        spec = SweepSpec(stop=5, detector="spad")
        assert res.output == format_csv(run_sweep(2, spec, detector=det))
        assert res.output != format_csv(run_sweep(2, spec, detector=SNSPD))

    def test_detector_flag_beats_config_detector(self, tmp_path):
        path = self._config_file(tmp_path, "scenario: {preset: 2}\n"
                                 "detector: {dark_rate_hz: 100}\n")
        res = CliRunner().invoke(cli_main, ["scenario", path, "--stop", "5",
                                            "--detector", "spad"])
        assert res.exit_code == 0, res.output
        assert res.output == format_csv(run_sweep(2, SweepSpec(stop=5, detector="spad")))
        res = CliRunner().invoke(cli_main, ["keyrate", "--config", path,
                                            "--attenuation-db", "30",
                                            "--detector", "spad"])
        assert res.exit_code == 0, res.output
        spec = SweepSpec(start=30, stop=30, detector="spad")
        assert res.output == format_csv(run_sweep(2, spec))

    @pytest.mark.parametrize("args", [
        ["keyrate", "--attenuation-db", "-5"],
        ["sigma-map", "--dl-start", "0"],
        ["psd", "--fmin", "0"],
        ["tau-solve", "--scenario", "9"],
        ["psd", "--points", "-1"],
        ["psd", "--points", "0"],
        ["sigma-map", "--tau-points", "-2"],
        ["sigma-map", "--dl-points", "0"],
        ["oracle", "--points", "0"],
        ["oracle", "--samples", "0"],
        ["oracle", "--seed", "-1"],
        ["sigma-map", "--dl-start", "nan"],
        ["sigma-map", "--tau-stop", "nan"],
        ["sigma-map", "--dl-stop", "inf"],
        ["tau-solve", "--config", "NAN_BUDGET_YAML"],
        ["keyrate", "--scenario", "2", "--attenuation-db", "nan"],
        ["keyrate", "--scenario", "2", "--attenuation-db", "inf"],
        ["scenario", "2", "--start", "nan", "--stop", "3"],
        ["scenario", "2", "--step", "nan"],
        ["scenario", "2", "--start", "0", "--stop", "inf"],
        ["sigma-map", "--scenario", "1", "--dl-points", "2", "--tau-points", "3",
         "--level", "nan", "--isolines-out", "ISOLINES_OUT"],
        ["scenario", "2", "--stop", "1e15"]])
    def test_bad_input_exits_without_traceback(self, args, tmp_path):
        nan_budget = tmp_path / "nan_budget.yaml"
        nan_budget.write_text("scenario: {preset: 1}\nbudget: {tau_max_s: .nan}\n")
        paths = {"NAN_BUDGET_YAML": str(nan_budget),
                 "ISOLINES_OUT": str(tmp_path / "isolines.csv")}
        args = [paths.get(a, a) for a in args]
        res = CliRunner().invoke(cli_main, args)
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code != 0
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command, content", [
        (["tau-solve", "--config", "{file}"], b"laser: {r3: [1\n"),
        (["scenario", "{file}"], b"\xff\xfescenario: {preset: 1}\n"),
        (["scenario", "{missing}"], None),
        (["tau-solve", "--config", "{dir}"], None)],
        ids=["yaml-syntax", "not-utf8", "missing-file", "directory"])
    def test_unreadable_config_is_one_error_line(self, tmp_path, command, content):
        path = tmp_path / "bad.yaml"
        if content is not None:
            path.write_bytes(content)
        names = {"file": str(path), "missing": str(tmp_path / "missing.yaml"),
                 "dir": str(tmp_path)}
        args = [a.format(**names) for a in command]
        res = CliRunner().invoke(cli_main, args)
        assert isinstance(res.exception, SystemExit) and res.exit_code == 1
        assert res.stdout == ""
        assert "Traceback" not in res.output
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {args[-1]}: ")

    def test_int_budget_prints_float_window(self, tmp_path):
        # a window clipped at an int tau_max prints as a float, not "1"
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: {preset: 2}\nbudget: {tau_max_s: 1}\n")
        res = CliRunner().invoke(cli_main, ["tau-solve", "--config", str(path)])
        assert res.exit_code == 0, res.output
        assert res.output.split("\n")[1].startswith("1.000000000000e+00,")

    def test_infinite_sigma_phi_exits_without_output(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: {preset: 1}\noperating_point: "
                        "{tau_q_s: 7.0e-4, sigma_phi_rad: .inf, e_phi: 0.01}\n")
        res = CliRunner().invoke(cli_main, ["keyrate", "--config", str(path),
                                            "--attenuation-db", "40"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("section, text", [
        ("laser", "laser: {r3: .inf}"), ("laser", "laser: {r3: .nan}"),
        ("fiber", "fiber: {noise_per_km: .inf}"), ("fiber", "fiber: {noise_per_km: .nan}"),
        ("topology", "topology: {refractive_index: .inf}"),
        ("topology", "topology: {fiber_roundtrip_factor: .nan}")])
    def test_non_finite_spectrum_coefficient_named_without_warning(self, tmp_path,
                                                                    section, text):
        # the config check names the leaf's path; the integrator never sees
        # the value, so no numpy warning and no divergence error blames it
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: {preset: 1}\n" + text + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(cli_main, ["tau-solve", "--config", str(path)])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert f"Error: configuration invalid: $.{section}." in res.output
        assert "finite" in res.output
        assert "Warning" not in res.output and not caught
        assert "converge" not in res.output

    @pytest.mark.parametrize("args, error", [
        (["psd", "--scenario", "1", "--fmin", "1e-300", "--fmax", "1e-299", "--points", "2"],
         "PSD is not finite at f = 1e-300 Hz"),
        (["psd", "--scenario", "1", "--fmin", "1e-120"], "PSD is not finite at f = 1e-120 Hz"),
        (["tau-solve", "--config", "BIG_TAU_MAX_YAML"],
         "PSD is not finite on the integration grid (at f = 1e-200 Hz)")],
        ids=["psd-nan", "psd-inf", "tau-solve"])
    def test_non_finite_psd_is_one_error_line(self, tmp_path, args, error):
        # the PSD overflows (inf) or overflows then cancels (nan) at these
        # frequencies; psd printed the value and tau-solve blamed the grid,
        # each after numpy's RuntimeWarnings on stderr
        path = tmp_path / "big_tau_max.yaml"
        path.write_text("scenario: {preset: 1}\nbudget: {tau_max_s: 1.0e+200}\n")
        args = [str(path) if a == "BIG_TAU_MAX_YAML" else a for a in args]
        res = subprocess.run([sys.executable, "-m", "tfqkd.cli", *args], env=SRC_ENV,
                             capture_output=True, text=True)
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"Error: {error}\n")

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_level_rejected_without_isolines_out(self, level):
        res = CliRunner().invoke(cli_main, [
            "sigma-map", "--scenario", "6", "--level", "0.2", "--level", level])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "isoline levels must be finite" in res.output

    @pytest.mark.parametrize("level", ["-1", "-1e-300"])
    def test_negative_level_writes_neither_file(self, tmp_path, level):
        # a negative level crossed no variance and read as NaN isolines
        out, iso = tmp_path / "map.csv", tmp_path / "isolines.csv"
        res = CliRunner().invoke(cli_main, [
            "sigma-map", "--scenario", "1", "--level", level, "--out", str(out),
            "--isolines-out", str(iso)])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "Error: isoline levels must be finite and >= 0" in res.output
        assert "Traceback" not in res.output
        assert not out.exists() and not iso.exists()

    def test_level_zero_floors_every_column(self, tmp_path):
        iso = tmp_path / "isolines.csv"
        res = CliRunner().invoke(cli_main, [
            "sigma-map", "--scenario", "1", "--dl-points", "3", "--tau-points", "4",
            "--level", "0", "--out", str(tmp_path / "map.csv"), "--isolines-out", str(iso)])
        assert res.exit_code == 0, res.output
        rows = np.loadtxt(iso, delimiter=",", skiprows=1)
        assert rows[:, 2].tolist() == [1e-6] * 3

    def test_bad_isoline_level_writes_no_map(self, tmp_path):
        res = CliRunner().invoke(cli_main, [
            "sigma-map", "--scenario", "1", "--dl-points", "2", "--tau-points", "3",
            "--level", "nan", "--isolines-out", str(tmp_path / "isolines.csv")])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert not (tmp_path / "isolines.csv").exists()
