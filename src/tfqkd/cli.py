"""Command-line interface: spectra tables, coherence maps, key-rate sweeps,
oracle comparisons.  Every command writes CSV (stdout or --out) and runs
deterministically for fixed inputs."""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import click
import numpy as np

from . import oracle as oracle_mod
from . import sns as sns_mod
from .cal import CalParams, cal_gain, make_cal_channel
from .coherence import sigma_map, solve_tau_q
from .config import FullConfig, load_config
from .csvtext import csv_text
from .errors import DomainError, TfqkdError
from .link import MisalignmentParams
from .scenarios import (
    DETECTORS,
    PROTOCOL_NAMES,
    builtin_scenario,
    format_csv,
    run_sweep,
)
from .spectra import interference_spectrum

# log-grid ends finite and > 0 (the library rejects NaN), point counts >= 1
_POSITIVE = click.FloatRange(min=0, max=float("inf"), min_open=True, max_open=True)
_COUNT = click.IntRange(min=1)


def _write(*outputs) -> None:
    """Write each (text, out) pair to the file out, or to stdout when out
    is None.  Every file is opened, without emptying it, before any is
    written, and stdout is written last; a file that cannot be opened or
    written is one error line naming it, and the files this call created
    are removed.  Two outputs that resolve to one regular file or new
    path are refused before any is opened (a device or a pipe may take
    both)."""
    named = [out for _, out in outputs if out is not None]
    real = [os.path.realpath(out) for out in named]
    for i, path in enumerate(real):
        if path in real[:i] and (os.path.isfile(path) or not os.path.exists(path)):
            raise click.ClickException(f"two outputs name one file: {named[i]!r}")
    made, files, out = [], [], None
    try:
        try:
            for text, out in outputs:
                if out is not None:
                    new = not os.path.lexists(out)
                    files.append((text, out, open(out, "a", encoding="utf-8", newline="\n")))
                    if new:
                        made.append(out)
            for text, out, fh in files:
                if os.path.isfile(out):  # not a device or a pipe
                    fh.truncate(0)
                fh.write(text)
                fh.close()
        finally:
            for *_, fh in files:
                fh.close()
    except OSError as exc:
        for path in made:
            os.remove(path)
        raise click.FileError(out, exc.strerror or str(exc)) from exc
    sys.stdout.write("".join(text for text, out in outputs if out is None))


def _context(scenario_id: int | None, config: str | None) -> FullConfig:
    if scenario_id is not None and config is not None:
        raise click.UsageError("--scenario and --config are mutually exclusive")
    if config is not None:
        return load_config(config)
    p = builtin_scenario(1 if scenario_id is None else scenario_id)
    return FullConfig(topology=p.topology, operating_point=p.operating_point)


def _sweep(cfg: FullConfig, out, detector, protocols, **axis) -> None:
    """Write the key-rate sweep of a configuration, its sweep fields
    replaced by the flags given (those not None); an explicit --detector
    preset wins over the configuration's detector section."""
    updates = {k: v for k, v in dict(axis, detector=detector).items() if v is not None}
    if protocols is not None:
        updates["protocols"] = tuple(s.strip() for s in protocols.split(",") if s.strip())
    table = run_sweep(cfg.resolve_operating_point(), replace(cfg.sweep, **updates),
                      prot=cfg.protocol, detector=None if detector else cfg.detector)
    _write((format_csv(table), out))


class _Group(click.Group):
    """Command group that reports simulator errors as one-line CLI errors.
    A numpy floating-point warning writes nothing: the commands check what
    they print (a non-finite PSD or variance is an error)."""

    def invoke(self, ctx):
        try:
            with np.errstate(all="ignore"):
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
@click.option("--points", type=_COUNT, default=2000, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def psd(scenario_id, config, fmin, fmax, points, out):
    """Tabulate the interference phase-noise PSD S(f)."""
    cfg = _context(scenario_id, config)
    spec = interference_spectrum(cfg.topology, cfg.laser, cfg.fiber)
    f = np.geomspace(fmin, fmax, points)
    s = spec(f)
    bad = ~np.isfinite(s)
    if bad.any():
        raise DomainError(f"PSD is not finite at f = {f[np.argmax(bad)]:.6g} Hz")
    _write((csv_text(("f_hz", "s_phi_rad2_per_hz"), (f, s)), out))


@main.command("tau-solve")
@click.option("--scenario", "scenario_id", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
def tau_solve(scenario_id, config, out):
    """Solve the largest transmission window within the phase budget."""
    cfg = _context(scenario_id, config)
    spec = interference_spectrum(cfg.topology, cfg.laser, cfg.fiber)
    res = solve_tau_q(spec, cfg.budget)
    _write((csv_text(
        ("tau_q_s", "sigma_phi_rad", "duty_cycle", "e_phi", "clipped", "floored"),
        [[res.tau_q], [res.sigma_phi], [res.duty_cycle], [res.e_phi],
         [int(res.clipped)], [int(res.floored)]]), out))


@main.command("sigma-map")
@click.option("--scenario", "scenario_id", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--dl-start", type=_POSITIVE, default=0.001, show_default=True,
              help="Smallest mismatch (km).")
@click.option("--dl-stop", type=_POSITIVE, default=10.0, show_default=True)
@click.option("--dl-points", type=_COUNT, default=25, show_default=True)
@click.option("--tau-start", type=_POSITIVE, default=1e-6, show_default=True)
@click.option("--tau-stop", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--tau-points", type=_COUNT, default=25, show_default=True)
@click.option("--level", type=float, multiple=True,
              help="Isoline level(s) in rad; defaults to the budget's sigma threshold.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--isolines-out", type=click.Path(), default=None)
def sigma_map_cmd(scenario_id, config, dl_start, dl_stop, dl_points, tau_start,
                  tau_stop, tau_points, level, out, isolines_out):
    """Map sigma_phi over (mismatch, integration time) and extract isolines."""
    cfg = _context(scenario_id, config)
    level = level or (cfg.budget.sigma_threshold,)
    if not all(0.0 <= lv < np.inf for lv in level):  # phase deviations, as isoline takes
        raise DomainError("isoline levels must be finite and >= 0")
    dl = np.geomspace(dl_start, dl_stop, dl_points)
    taus = np.geomspace(tau_start, tau_stop, tau_points)
    m = sigma_map(cfg.topology, dl, taus, cfg.budget, cfg.laser, cfg.fiber)
    outputs = [(m.csv_text(), out)]
    if isolines_out is not None:
        outputs.append((csv_text(
            ("level_rad", "delta_l_km", "tau_q_s"),
            (np.repeat(level, m.delta_l_km.size), np.tile(m.delta_l_km, len(level)),
             np.concatenate([m.isoline(lv) for lv in level]))), isolines_out))
    _write(*outputs)


@main.command()
@click.option("--scenario", "scenario_id", type=int, default=None)
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--detector", type=click.Choice(sorted(DETECTORS)), default=None,
              help="Detector preset; defaults to the config's sweep.detector.")
@click.option("--attenuation-db", type=float, required=True)
@click.option("--protocols", type=str, default=None,
              help="Comma-separated subset of " + ",".join(PROTOCOL_NAMES)
              + "; defaults to the config's sweep.protocols.")
@click.option("--out", type=click.Path(), default=None)
def keyrate(scenario_id, config, detector, attenuation_db, protocols, out):
    """Key rates at a single total attenuation: every other sweep field,
    protocols included, comes from the configuration."""
    _sweep(_context(scenario_id, config), out, detector, protocols, start=attenuation_db,
           stop=attenuation_db, step=1.0, x_axis="total_attenuation_db")


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
    cfg = _context(int(scenario), None) if scenario.isdecimal() else load_config(scenario)
    _sweep(cfg, out, detector, protocols, start=start, stop=stop, step=step, x_axis=x_axis)


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--samples", type=_COUNT, default=oracle_mod.McConfig.samples,
              show_default=True)
@click.option("--points", type=_COUNT, default=10, show_default=True)
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
        z = (ana - val) / se if se > 0 else np.nan
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
        z = (ana_gain - val) / se if se > 0 else np.nan
        rows.append((k, "cal_gain", ana_gain, val, se, f"{z:.6f}", mc_eq.bit_generator))
    _write((csv_text(("point", "quantity", "analytic", "oracle", "oracle_se",
                     "z_score", "bit_generator"), zip(*rows)), out))


if __name__ == "__main__":
    main()
