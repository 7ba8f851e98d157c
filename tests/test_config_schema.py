"""The configuration schema check against the jsonschema reference validator."""

import pytest
import yaml

from tfqkd import ConfigError, loads_config
from tfqkd.config import CONFIG_SCHEMA, _schema_errors

# Invalid (and a few valid) configurations: unknown keys at each depth,
# bounds, types, enums, arrays, non-mapping sections, nulls and NaN.
CORPUS = (
    "turbo: 1",
    "topology: {kind: common_laser, turbo: 1}",
    "laser: {b: 1, a: 2}",
    "laser: {1: 2}",
    "protocol: {decoys: {u: 0.1, zz: 1}}",
    "protocol: {sns: {epsilon: 0.1, q: 1}, cal: {r: 2}}",
    "laser: {r3: -1}",
    "sweep: {start: -1.0e-9}",
    "laser: {f_c_hz: 0}",
    "loop: {gamma: 0.0, delta: -2}",
    "protocol: {f_ec: 0.5}",
    "fiber: {s0: true}",
    "fiber: {s0: '1e-8'}",
    "scenario: {preset: 2.5}",
    "scenario: {preset: true}",
    "scenario: {preset: 8.5}",
    "scenario: {preset: 0}",
    "scenario: {preset: 2.0}",
    "scenario: {preset: .inf}",
    "topology: 5",
    "scenario: [1]",
    "protocol: {decoys: [1, 2]}",
    "sweep: hello",
    "sweep: {protocols: []}",
    "sweep: {protocols: [bb84, foo, 3, true]}",
    "sweep: {protocols: bb84}",
    "sweep: {x_axis: 1, detector: apd}",
    "topology: {kind: ring, laser_stabilized: 1}",
    "detector: {preset: null, eta_d: null}",
    "laser: {r3: null}",
    "topology: null",
    "laser: {r3: .nan, f_c_hz: .nan}",
    "loop: {gamma: -.nan}",
    "budget: {f_max_hz: .inf, tau_ps_s: -.inf}",
    "topology: {l_a_km: 1, turbo: 2, kind: 3}\nzz: 1\nprotocol: {decoys: {u: 0}}",
    # bounds the schema takes from the dataclass fields, which it lacked before
    "protocol: {e_theta: 0.6}",
    "protocol: {sns: {epsilon: 1}}",
    "loop: {gamma: 1.0}",
    "loop: {delta: 1}",
    "detector: {eta_d: 1.5}",
    "protocol: {sns: {p_z: 1.01}}",
    "operating_point: {tau_q_s: 1.0e-3, sigma_phi_rad: 0.2, e_phi: 0.6}",
    # the optional solve flags are booleans
    "operating_point: {tau_q_s: 1.0e-3, sigma_phi_rad: 0.2, e_phi: 0.01, clipped: 1, floored: true}",
)


def reference_errors(raw):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    return [e.json_path for e in sorted(validator.iter_errors(raw), key=lambda e: e.json_path)]


@pytest.mark.parametrize("text", CORPUS)
def test_same_error_paths_as_draft_2020_12(text):
    raw = yaml.safe_load(text)
    paths = [path for path, _ in sorted(_schema_errors(raw, CONFIG_SCHEMA), key=lambda e: e[0])]
    assert paths == reference_errors(raw)


@pytest.mark.parametrize("text, message", [
    ("topology: {turbo: 1, kind: 3}",
     "$.topology: Additional properties are not allowed ('turbo' was unexpected); "
     "$.topology.kind: 3 is not one of ['common_laser', 'independent_lasers']"),
    ("laser: {b: 1, a: 2}",
     "$.laser: Additional properties are not allowed ('a', 'b' were unexpected)"),
    ("scenario: {preset: 8.5}",
     "$.scenario.preset: 8.5 is not of type 'integer'; "
     "$.scenario.preset: 8.5 is greater than the maximum of 7"),
    ("laser: {f_c_hz: 0, r3: -1}",
     "$.laser.f_c_hz: 0 is less than or equal to the minimum of 0; "
     "$.laser.r3: -1 is less than the minimum of 0"),
    ("fiber: {s0: true}", "$.fiber.s0: True is not of type 'number'"),
    ("sweep: {protocols: []}", "$.sweep.protocols: [] should be non-empty"),
    ("sweep: {protocols: [bb84, foo]}",
     "$.sweep.protocols[1]: 'foo' is not one of "
     "['bb84', 'sns', 'sns_aopp', 'cal', 'plob', 'plob_realistic']"),
    ("topology: null", "$.topology: None is not of type 'object'"),
    ("loop: {gamma: 1.0, delta: 1}",
     "$.loop.delta: 1 is less than or equal to the minimum of 1; "
     "$.loop.gamma: 1.0 is greater than or equal to the maximum of 1"),
])
def test_error_message_format(text, message):
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    assert str(err.value) == "configuration invalid: " + message


def test_integer_valued_float_preset_accepted():
    assert loads_config("scenario: {preset: 2.0}") == loads_config("scenario: {preset: 2}")
