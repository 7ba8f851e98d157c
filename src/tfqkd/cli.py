"""Command-line interface: spectra tables, coherence maps, key-rate sweeps,
oracle comparisons.  Every command writes CSV (stdout or --out) and runs
deterministically for fixed inputs."""

from __future__ import annotations

import sys
from dataclasses import replace

import click
import numpy as np

from . import oracle as oracle_mod
from . import sns as sns_mod
from .cal import CalParams, cal_gain, make_cal_channel
from .coherence import _csv_text, sigma_map, solve_tau_q
from .config import FullConfig, load_config
from .errors import TfqkdError
from .link import MisalignmentParams
from .scenarios import (
    DETECTORS,
    PROTOCOL_NAMES,
    builtin_scenario,
    format_csv,
    run_sweep,
)
from .spectra import interference_spectrum

# lower ends of the log-spaced grids must be > 0
_POSITIVE = click.FloatRange(min=0, min_open=True)


def _write(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _context(scenario_id: int | None, config: str | None) -> FullConfig:
    if config is not None:
        return load_config(config)
    p = builtin_scenario(1 if scenario_id is None else scenario_id)
    return FullConfig(topology=p.topology, operating_point=p.operating_point)


def _protocols_option(value: str | None) -> tuple:
    if value is None:
        return PROTOCOL_NAMES
    return tuple(s.strip() for s in value.split(",") if s.strip())


class _Group(click.Group):
    """Command group that reports simulator errors as one-line CLI errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TfqkdError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main() -> None:
    """Twin-field QKD phase-noise and key-rate simulator."""


@main.command()
@click.option("--scenario", "scenario_id", type=int, default=None,
              help="Built-in scenario id (1-7).")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--fmin", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--fmax", type=_POSITIVE, default=3e7, show_default=True)
@click.option("--points", type=int, default=2000, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def psd(scenario_id, config, fmin, fmax, points, out):
    """Tabulate the interference phase-noise PSD S(f)."""
    cfg = _context(scenario_id, config)
    spec = interference_spectrum(cfg.topology, cfg.laser, cfg.fiber)
    f = np.geomspace(fmin, fmax, points)
    _write(_csv_text(("f_hz", "s_phi_rad2_per_hz"), zip(f, spec(f))), out)


@main.command("tau-solve")
@click.option("--scenario", "scenario_id", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
def tau_solve(scenario_id, config, out):
    """Solve the largest transmission window within the phase budget."""
    cfg = _context(scenario_id, config)
    spec = interference_spectrum(cfg.topology, cfg.laser, cfg.fiber)
    res = solve_tau_q(spec, cfg.budget)
    _write(_csv_text(
        ("tau_q_s", "sigma_phi_rad", "duty_cycle", "e_phi", "clipped", "floored"),
        [(res.tau_q, res.sigma_phi, res.duty_cycle, res.e_phi,
          int(res.clipped), int(res.floored))]), out)


@main.command("sigma-map")
@click.option("--scenario", "scenario_id", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--dl-start", type=_POSITIVE, default=0.001, show_default=True,
              help="Smallest mismatch (km).")
@click.option("--dl-stop", type=_POSITIVE, default=10.0, show_default=True)
@click.option("--dl-points", type=int, default=25, show_default=True)
@click.option("--tau-start", type=_POSITIVE, default=1e-6, show_default=True)
@click.option("--tau-stop", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--tau-points", type=int, default=25, show_default=True)
@click.option("--level", type=float, multiple=True, default=(0.2,),
              show_default=True, help="Isoline level(s) in rad.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--isolines-out", type=click.Path(), default=None)
def sigma_map_cmd(scenario_id, config, dl_start, dl_stop, dl_points, tau_start,
                  tau_stop, tau_points, level, out, isolines_out):
    """Map sigma_phi over (mismatch, integration time) and extract isolines."""
    cfg = _context(scenario_id, config)
    dl = np.geomspace(dl_start, dl_stop, dl_points)
    taus = np.geomspace(tau_start, tau_stop, tau_points)
    m = sigma_map(cfg.topology, dl, taus, cfg.budget, cfg.laser, cfg.fiber)
    _write(m.csv_text(), out)
    if isolines_out is not None:
        _write(_csv_text(("level_rad", "delta_l_km", "tau_q_s"), (
            (lv, d, t) for lv in level
            for d, t in zip(m.delta_l_km, m.isoline(lv)))), isolines_out)


@main.command()
@click.option("--scenario", "scenario_id", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--detector", type=click.Choice(sorted(DETECTORS)), default=None,
              help="Detector preset; defaults to the config's sweep.detector.")
@click.option("--attenuation-db", type=float, required=True)
@click.option("--protocols", type=str, default=None,
              help="Comma-separated subset of " + ",".join(PROTOCOL_NAMES))
@click.option("--out", type=click.Path(), default=None)
def keyrate(scenario_id, config, detector, attenuation_db, protocols, out):
    """Key rates at a single total attenuation."""
    cfg = _context(scenario_id, config)
    spec = replace(cfg.sweep, start=attenuation_db, stop=attenuation_db, step=1.0,
                   detector=detector or cfg.sweep.detector,
                   x_axis="total_attenuation_db",
                   protocols=_protocols_option(protocols))
    rows = run_sweep(cfg.resolve_operating_point(), spec, prot=cfg.protocol,
                     detector=cfg.detector)
    _write(format_csv(rows), out)


@main.command()
@click.argument("scenario")
@click.option("--detector", type=click.Choice(sorted(DETECTORS)), default=None,
              help="Detector preset; defaults to the config's sweep.detector.")
@click.option("--protocols", type=str, default=None)
@click.option("--start", type=float, default=None)
@click.option("--stop", type=float, default=None)
@click.option("--step", type=float, default=None)
@click.option("--x-axis", type=click.Choice(["total_attenuation_db",
                                             "total_length_km"]), default=None)
@click.option("--out", type=click.Path(), default=None)
def scenario(scenario, detector, protocols, start, stop, step, x_axis, out):
    """Key-rate sweep for a built-in scenario (1-7) or a config file."""
    if scenario.isdigit():
        cfg = _context(int(scenario), None)
    else:
        cfg = load_config(scenario)
    updates = {"detector": detector, "start": start, "stop": stop, "step": step,
               "x_axis": x_axis}
    if protocols is not None:
        updates["protocols"] = _protocols_option(protocols)
    spec = replace(cfg.sweep, **{k: v for k, v in updates.items() if v is not None})
    rows = run_sweep(cfg.resolve_operating_point(), spec, prot=cfg.protocol,
                     detector=cfg.detector)
    _write(format_csv(rows), out)


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=1_000_000, show_default=True)
@click.option("--points", type=int, default=10, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def oracle(seed, samples, points, out):
    """Analytic click statistics vs Monte-Carlo, with z-scores."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = []
    misalign = MisalignmentParams()
    for k in range(points):
        arm_t = float(10.0 ** rng.uniform(-3, -0.5))
        p_d = float(10.0 ** rng.uniform(-9, -5))
        mu_a = float(rng.uniform(0.05, 0.4))
        mu_b = float(rng.uniform(0.0, 0.4))
        cfg = oracle_mod.McConfig(samples=samples, seed=seed + 1000 + k)
        mc = oracle_mod.mc_click_stats(mu_a, mu_b, arm_t, p_d, cfg)
        ana = sns_mod.effective_click_probability(mu_a, mu_b, arm_t, p_d)
        val = mc.c_only + mc.d_only
        se = float(np.hypot(mc.se_c_only, mc.se_d_only))
        z = (ana - val) / se if se > 0 else 0.0
        rows.append((k, "sns_effective_rate", ana, val, se, f"{z:.6f}", mc.bit_generator))

        calp = CalParams()
        ch = make_cal_channel(arm_t, calp, sigma_phi=0.1, theta=misalign.theta)
        ana_gain = cal_gain(ch, p_d)
        delta = float(np.arccos(ch.omega))
        half = max(samples // 2, 1)
        mc_eq = oracle_mod.mc_click_stats(
            calp.mu_zeta, calp.mu_zeta, arm_t, p_d,
            oracle_mod.McConfig(samples=half, seed=seed + 2000 + k,
                                phase=oracle_mod.FixedDelta(delta)))
        mc_op = oracle_mod.mc_click_stats(
            calp.mu_zeta, calp.mu_zeta, arm_t, p_d,
            oracle_mod.McConfig(samples=half, seed=seed + 3000 + k,
                                phase=oracle_mod.FixedDelta(np.pi - delta)))
        val = 0.5 * (mc_eq.c_only + mc_op.c_only)
        se = 0.5 * float(np.hypot(mc_eq.se_c_only, mc_op.se_c_only))
        z = (ana_gain - val) / se if se > 0 else 0.0
        rows.append((k, "cal_gain", ana_gain, val, se, f"{z:.6f}", mc_eq.bit_generator))
    _write(_csv_text(("point", "quantity", "analytic", "oracle", "oracle_se",
                      "z_score", "bit_generator"), rows), out)


if __name__ == "__main__":
    main()
