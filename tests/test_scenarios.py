"""Scenario presets, sweeps, configuration loading and CSV emission."""

import numpy as np
import pytest
from click.testing import CliRunner

import tfqkd
from tfqkd import (
    SNSPD,
    ConfigError,
    DetectorParams,
    DomainError,
    FullConfig,
    SweepSpec,
    builtin_scenarios,
    dump_config,
    format_csv,
    link_from_attenuation,
    loads_config,
    load_config,
    plob_bound,
    run_sweep,
)
from tfqkd.cli import main as cli_main

CONFIG_PATH = "configs/scenario1.yaml"


class TestPresets:
    def test_seven_scenarios(self):
        presets = builtin_scenarios()
        assert [p.id for p in presets] == [1, 2, 3, 4, 5, 6, 7]

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


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        rows = run_sweep(1, SweepSpec(start=10, stop=30, step=10))
        assert [r.x for r in rows] == [10.0, 20.0, 30.0]
        for r in rows:
            assert set(r.rates) == set(tfqkd.PROTOCOL_NAMES)
            assert all(v >= 0.0 for v in r.rates.values())

    def test_length_axis(self):
        spec = SweepSpec(x_axis="total_length_km", start=100.0, stop=100.0,
                         step=1.0, alpha=0.2)
        row_l = run_sweep(2, spec)[0]
        row_a = run_sweep(2, SweepSpec(start=20.0, stop=20.0, step=1.0))[0]
        assert row_l.rates["sns_aopp"] == row_a.rates["sns_aopp"]

    def test_protocol_subset(self):
        rows = run_sweep(2, SweepSpec(start=40, stop=40, step=1,
                                      protocols=("cal", "plob_realistic")))
        assert set(rows[0].rates) == {"cal", "plob_realistic"}

    def test_extreme_darks_zero_rates_sweep_continues(self):
        noisy = DetectorParams(eta_d=0.9, dark_rate=5e8, clock_rate=1e9)
        rows = run_sweep(2, SweepSpec(start=60, stop=62, step=1.0),
                         detector=noisy)
        assert len(rows) == 3
        for r in rows:
            assert r.rates["sns_aopp"] == 0.0
            assert r.rates["bb84"] == 0.0
            assert r.rates["plob_realistic"] > 0.0

    def test_estimation_failure_flagged_not_fatal(self, monkeypatch):
        # the closed-form single-photon bound cannot fail for the Poissonian
        # click model, so force the failure path to check flag propagation
        import tfqkd.decoy as decoy_mod
        import tfqkd.scenarios as scen_mod
        import tfqkd.sns as sns_mod
        from tfqkd import DecoyBounds

        def failing(s, m):
            return DecoyBounds(y0_low=0.0, y1_low=0.0, q1_low=0.0,
                               e1ph_up=1.0, ok=False)

        for mod in (decoy_mod, scen_mod, sns_mod):
            monkeypatch.setattr(mod, "decoy_bounds", failing)
        rows = run_sweep(2, SweepSpec(start=40, stop=42, step=1.0))
        assert len(rows) == 3
        for r in rows:
            assert r.rates["sns_aopp"] == 0.0
            assert r.rates["bb84"] == 0.0
            assert "sns_estimation_failed" in r.flags
            assert "bb84_estimation_failed" in r.flags
            assert r.rates["cal"] > 0.0  # unaffected protocol keeps running

    def test_curves_below_physical_bounds(self):
        # direct-link protocol under the total-channel capacity; twin-field
        # protocols under the per-arm capacity (the relay acts as a repeater)
        rows = run_sweep(2, SweepSpec(start=5, stop=75, step=5))
        nu_s = 1e9
        for r in rows:
            eta = link_from_attenuation(r.x).eta
            assert r.rates["bb84"] <= plob_bound(eta) * nu_s * (1 + 1e-12)
            arm_cap = plob_bound(np.sqrt(eta)) * nu_s
            assert r.rates["sns_aopp"] <= arm_cap * (1 + 1e-12)
            assert r.rates["cal"] <= arm_cap * (1 + 1e-12)
            assert r.rates["sns"] <= arm_cap * (1 + 1e-12)

    def test_duty_and_qber_fixed_per_scenario(self):
        rows = run_sweep(3, SweepSpec(start=10, stop=50, step=20))
        assert len({r.duty_cycle for r in rows}) == 1
        assert len({r.e_phi for r in rows}) == 1


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

    def test_emit_roundtrip_stable(self, tmp_path):
        rows = run_sweep(1, SweepSpec(start=0, stop=2, step=1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        tfqkd.emit_csv(rows, p1)
        tfqkd.emit_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()


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
        for cfg in (load_config(CONFIG_PATH),
                    loads_config("scenario: {preset: 1}\nbudget: {tau_ps_s: 2.0e-3}\n")):
            assert loads_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("preset", builtin_scenarios(), ids=lambda p: str(p.id))
    def test_preset_equals_dataclass_defaults(self, preset):
        cfg = loads_config(f"scenario: {{preset: {preset.id}}}")
        assert cfg == FullConfig(topology=preset.topology,
                                 operating_point=preset.operating_point)

    def test_partial_decoys_checked_together(self):
        cfg = loads_config("scenario: {preset: 1}\n"
                           "protocol: {decoys: {u: 0.1, v: 0.05}}\n")
        assert cfg.protocol.decoys == cfg.protocol.sns.decoys
        assert (cfg.protocol.decoys.u, cfg.protocol.decoys.v) == (0.1, 0.05)

    def test_detector_without_preset_starts_from_snspd(self):
        cfg = loads_config("scenario: {preset: 1}\ndetector: {dark_rate_hz: 100}\n")
        assert cfg.detector == DetectorParams(eta_d=SNSPD.eta_d, dark_rate=100,
                                              clock_rate=SNSPD.clock_rate)

    @pytest.mark.parametrize("text, section", [
        ("protocol: {decoys: {u: 0.1, v: 0.2}}", "protocol.decoys"),
        ("loop: {gamma: 2.0}", "loop")])
    def test_model_check_failure_is_config_error(self, text, section):
        with pytest.raises(ConfigError, match=section):
            loads_config("scenario: {preset: 1}\n" + text)

    def test_override_coefficient(self):
        cfg = loads_config("scenario: {preset: 1}\nlaser: {r3: 1.0e+5}\n")
        assert cfg.laser.free.r3 == 1e5

    def test_needs_topology_or_preset(self):
        with pytest.raises(ConfigError):
            loads_config("laser: {r3: 1.0}")

    def test_bad_yaml_type(self):
        with pytest.raises(ConfigError):
            loads_config("- 1\n- 2\n")


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

    @pytest.mark.parametrize("args", [
        ["keyrate", "--attenuation-db", "-5"],
        ["sigma-map", "--dl-start", "0"],
        ["psd", "--fmin", "0"],
        ["tau-solve", "--scenario", "9"]])
    def test_bad_input_exits_without_traceback(self, args):
        res = CliRunner().invoke(cli_main, args)
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code != 0
        assert "Traceback" not in res.output
