"""Every value the field contract admits at its edges ends in output or
in one error line.

Each numeric YAML leaf takes the values at the edges of its spec: each
closed bound, the next float past each open bound, 5e-324, 1e-300,
1e300 and the largest float the bounds admit; of these, the ones the
leaf's own check admits.  Each value goes into a configuration on
presets 1, 4 and 5, and scenario (one sweep point), tau-solve,
sigma-map (one cell, with its isoline) and psd (one frequency) run on
it, each command on the leaves it reads past the configuration load
that all four share.  Each run must exit 0 with its output, or exit 1
with one `Error:` line on stderr: a cross-field rule, the solver or the
kernels may refuse a value, but no value may end in a traceback.
"""

import math
import os
import sys

import pytest
import yaml
from click.testing import CliRunner

from tfqkd import DomainError, builtin_scenario
from tfqkd._fields import _checker
from tfqkd.cli import main as cli_main
from tfqkd.config import _FIELDS, _field

PRESETS = (1, 4, 5)
SPECTRUM = ("topology", "laser", "cavity", "loop", "fiber")
# each command, and the YAML sections it reads (None: every section)
COMMANDS = (
    (("scenario", "{cfg}"), None),
    (("tau-solve", "--config", "{cfg}"), SPECTRUM + ("budget",)),
    (("sigma-map", "--config", "{cfg}", "--dl-points", "1", "--tau-points", "1",
      "--isolines-out", os.devnull), SPECTRUM + ("budget",)),
    (("psd", "--config", "{cfg}", "--points", "1"), SPECTRUM),
)
LEAVES = [(section, key, _field(target).metadata) for section, key, target in _FIELDS
          if target is not None and _field(target).metadata["kind"] is float]


def edges(m: dict) -> list:
    """The edge values of a number's spec m that its check admits, in order."""
    values = [float(m[k]) for k in ("ge", "le") if k in m]
    values += [math.nextafter(m[k], to) for k, to in (("gt", math.inf), ("lt", -math.inf))
               if k in m]
    top = m.get("le", math.nextafter(m["lt"], -math.inf) if "lt" in m
                else sys.float_info.max if m.get("finite", True) else math.inf)
    check = _checker(m, "edge")
    admitted = []
    for v in values + [5e-324, 1e-300, 1e300, float(top)]:
        try:
            check(v)
        except DomainError:
            continue
        if v not in admitted:
            admitted.append(v)
    return admitted


def config_text(preset: int, section: str, key: str, value: float) -> str:
    """YAML of a preset with a one-point sweep and one leaf set; an
    operating point set by a leaf takes its other fields from the preset's."""
    op = builtin_scenario(preset).operating_point
    raw = {"scenario": {"preset": preset}, "sweep": {"start": 40.0, "stop": 40.0}}
    if section == "operating_point":
        raw[section] = {"tau_q_s": op.tau_q, "sigma_phi_rad": op.sigma_phi, "e_phi": op.e_phi}
    node = raw
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    return yaml.safe_dump(raw)


def test_leaves_and_edges_are_enumerated():
    assert len(LEAVES) == 45
    # an open lower bound's next float, a closed upper bound and the largest float
    assert edges({"kind": float, "gt": 0, "le": 1}) == [1.0, 5e-324, 1e-300]
    assert edges({"kind": float, "ge": 0}) == [0.0, 5e-324, 1e-300, 1e300, sys.float_info.max]
    assert edges({"kind": float, "gt": 0, "finite": False})[-1] == math.inf


@pytest.mark.parametrize("section, key, m", LEAVES, ids=[f"{s}.{k}" for s, k, _ in LEAVES])
def test_edge_values_end_in_output_or_one_error_line(tmp_path, section, key, m):
    runner, cfg = CliRunner(), tmp_path / "edge.yaml"
    faults = []
    for preset in PRESETS:
        for value in edges(m):
            cfg.write_text(config_text(preset, section, key, value), encoding="utf-8")
            for command, reads in COMMANDS:
                if reads is not None and section not in reads:
                    continue
                res = runner.invoke(cli_main, [a.format(cfg=cfg) for a in command])
                errors = res.stderr.splitlines()
                if res.exit_code == 0 and res.stdout:
                    continue
                if (res.exit_code == 1 and isinstance(res.exception, SystemExit)
                        and len(errors) == 1 and errors[0].startswith("Error: ")):
                    continue
                faults.append(f"preset {preset}, {key}: {value!r}, {command[0]}: "
                              f"exit {res.exit_code}, {res.exception!r}")
    assert not faults, "\n".join(faults)
