"""The configuration check: each YAML leaf is checked by its field's own
checker, and every error names its YAML path."""

import pytest
import yaml

from tfqkd import ConfigError, dump_config, loads_config
from tfqkd.config import _errors

# Invalid (and a few valid) configurations: unknown keys at each depth,
# bounds, types, enums, arrays, non-mapping sections, nulls and NaN, each
# with the sorted paths of its errors.  These are the paths the JSON
# Schema validator reported (the jsonschema package's Draft 2020-12 gave
# the same), except where a comment says otherwise; a leaf that broke two
# schema keywords had two errors at its path, and has one now.
CORPUS = {
    "turbo: 1": ["$"],
    "topology: {kind: common_laser, turbo: 1}": ["$.topology"],
    "laser: {b: 1, a: 2}": ["$.laser"],
    "laser: {1: 2}": ["$.laser"],
    "protocol: {decoys: {u: 0.1, zz: 1}}": ["$.protocol.decoys"],
    "protocol: {sns: {epsilon: 0.1, q: 1}, cal: {r: 2}}": ["$.protocol.cal", "$.protocol.sns"],
    "laser: {r3: -1}": ["$.laser.r3"],
    "sweep: {start: -1.0e-9}": ["$.sweep.start"],
    "laser: {f_c_hz: 0}": ["$.laser.f_c_hz"],
    "loop: {gamma: 0.0, delta: -2}": ["$.loop.delta", "$.loop.gamma"],
    "protocol: {f_ec: 0.5}": ["$.protocol.f_ec"],
    "fiber: {s0: true}": ["$.fiber.s0"],
    "fiber: {s0: '1e-8'}": ["$.fiber.s0"],
    "scenario: {preset: 2.5}": ["$.scenario.preset"],
    "scenario: {preset: true}": ["$.scenario.preset"],
    "scenario: {preset: 8.5}": ["$.scenario.preset"],
    "scenario: {preset: 0}": ["$.scenario.preset"],
    "scenario: {preset: 2.0}": [],
    "scenario: {preset: .inf}": ["$.scenario.preset"],
    "topology: 5": ["$.topology"],
    "scenario: [1]": ["$.scenario"],
    "protocol: {decoys: [1, 2]}": ["$.protocol.decoys"],
    "sweep: hello": ["$.sweep"],
    "sweep: {protocols: []}": ["$.sweep.protocols"],
    "sweep: {protocols: [bb84, foo, 3, true]}":
        ["$.sweep.protocols[1]", "$.sweep.protocols[2]", "$.sweep.protocols[3]"],
    "sweep: {protocols: bb84}": ["$.sweep.protocols"],
    "sweep: {x_axis: 1, detector: apd}": ["$.sweep.detector", "$.sweep.x_axis"],
    "topology: {kind: ring, laser_stabilized: 1}":
        ["$.topology.kind", "$.topology.laser_stabilized"],
    "detector: {preset: null, eta_d: null}": ["$.detector", "$.detector.eta_d"],
    "laser: {r3: null}": ["$.laser.r3"],
    "topology: null": ["$.topology"],
    # JSON Schema bounds let NaN through, and the dataclass rejected it
    # later under its section's name: it is now an error at its own path
    "laser: {r3: .nan, f_c_hz: .nan}": ["$.laser.f_c_hz", "$.laser.r3"],
    "loop: {gamma: -.nan}": ["$.loop.gamma"],  # a string: YAML's NaN has no sign
    "budget: {f_max_hz: .inf, tau_ps_s: -.inf}": ["$.budget.tau_ps_s"],
    "topology: {l_a_km: 1, turbo: 2, kind: 3}\nzz: 1\nprotocol: {decoys: {u: 0}}":
        ["$", "$.protocol.decoys.u", "$.topology", "$.topology.kind"],
    # bounds that the dataclass fields declare
    "protocol: {e_theta: 0.6}": ["$.protocol.e_theta"],
    "protocol: {sns: {epsilon: 1}}": ["$.protocol.sns.epsilon"],
    "loop: {gamma: 1.0}": ["$.loop.gamma"],
    "loop: {delta: 1}": ["$.loop.delta"],
    "detector: {eta_d: 1.5}": ["$.detector.eta_d"],
    "protocol: {sns: {p_z: 1.01}}": ["$.protocol.sns.p_z"],
    "operating_point: {tau_q_s: 1.0e-3, sigma_phi_rad: 0.2, e_phi: 0.6}":
        ["$.operating_point.e_phi"],
    # the optional solve flags are booleans
    "operating_point: {tau_q_s: 1.0e-3, sigma_phi_rad: 0.2, e_phi: 0.01, clipped: 1, "
    "floored: true}": ["$.operating_point.clipped"],
}


@pytest.mark.parametrize("text", CORPUS)
def test_error_paths(text):
    errors = sorted(_errors(yaml.safe_load(text)), key=lambda e: e[0])
    assert [path for path, _ in errors] == CORPUS[text]
    for path, message in errors:
        assert message.startswith(path + " "), message
    if errors:
        with pytest.raises(ConfigError) as err:
            loads_config(text)
        assert str(err.value) == "configuration invalid: " + "; ".join(m for _, m in errors)


@pytest.mark.parametrize("text, message", [
    ("topology: {turbo: 1, kind: 3}",
     "$.topology has unknown key 'turbo'; "
     "$.topology.kind must be a TopologyKind or one of ['common_laser', 'independent_lasers'], "
     "got 3"),
    ("laser: {b: 1, a: 2}", "$.laser has unknown keys 'a', 'b'"),
    ("scenario: {preset: 8.5}", "$.scenario.preset must be a built-in scenario id 1-7, got 8.5"),
    ("laser: {f_c_hz: 0, r3: -1}",
     "$.laser.f_c_hz must be a finite number > 0, got 0; "
     "$.laser.r3 must be a finite number >= 0, got -1"),
    ("fiber: {s0: true}", "$.fiber.s0 must be a finite number >= 0, got True"),
    ("sweep: {protocols: []}", "$.sweep.protocols must be a non-empty tuple or list, got []"),
    ("sweep: {protocols: [bb84, foo]}",
     "$.sweep.protocols[1] must be one of "
     "['bb84', 'sns', 'sns_aopp', 'cal', 'plob', 'plob_realistic'], got 'foo'"),
    ("topology: null", "$.topology must be a mapping, got None"),
    ("loop: {gamma: 1.0, delta: 1}",
     "$.loop.delta must be a finite number > 1, got 1; "
     "$.loop.gamma must be a finite number > 0 and < 1, got 1.0"),
    # with a preset, a NaN passed the schema and failed in the dataclass as
    # "laser: LaserFreeParams.r3 must be ..."; it is now named by its path
    ("scenario: {preset: 1}\nlaser: {r3: .nan}",
     "$.laser.r3 must be a finite number >= 0, got nan"),
])
def test_error_message_format(text, message):
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    assert str(err.value) == "configuration invalid: " + message


def test_integer_valued_float_preset_accepted():
    assert loads_config("scenario: {preset: 2.0}") == loads_config("scenario: {preset: 2}")


@pytest.mark.parametrize("base", ["scenario: {preset: 1}", "topology: {kind: common_laser}"])
def test_null_optional_leaf_is_none(base):
    # the API takes CoherenceBudget(f_max=None); the JSON Schema rejected the null
    cfg = loads_config(base + "\nbudget: {f_max_hz: null}")
    assert cfg.budget.f_max is None
    assert cfg == loads_config(base)
    assert loads_config(dump_config(cfg)) == cfg
