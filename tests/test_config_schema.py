"""The configuration check: each YAML leaf is checked by its field's own
checker, and every error names its YAML path."""

import re

import pytest
import yaml

from tfqkd import ConfigError, loads_config
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


def test_clipped_and_floored_operating_point_names_its_section():
    # each flag passes its leaf check; the pair fails OperatingPoint's rule
    text = ("scenario: {preset: 1}\noperating_point: {tau_q_s: 1.0e-3, sigma_phi_rad: 0.2, "
            "e_phi: 0.01, clipped: true, floored: true}")
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    assert str(err.value) == ("operating_point: a window cannot be both clipped at tau_max "
                              "and floored at tau_floor")


@pytest.mark.parametrize("text", ["", "# nothing\n", "null"])
def test_empty_document_is_an_empty_mapping(text):
    # YAML reads these as None, which is checked as {}: no scenario
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    assert str(err.value) == "configuration needs a scenario preset or a topology section"


def test_integer_valued_float_preset_accepted():
    assert loads_config("scenario: {preset: 2.0}") == loads_config("scenario: {preset: 2}")


@pytest.mark.parametrize("base", ["scenario: {preset: 1}", "topology: {kind: common_laser}"])
def test_null_optional_leaf_is_none(base):
    # the API takes CoherenceBudget(f_max=None); the JSON Schema rejected the null
    cfg = loads_config(base + "\nbudget: {f_max_hz: null}")
    assert cfg.budget.f_max is None
    assert cfg == loads_config(base)


@pytest.mark.parametrize("exponent, dotted", [
    ("3e6", "3.0e+6"), ("1e-3", "1.0e-3"), ("2E+5", "2.0e+5"), ("+1_0e-8", "1.0e-7")])
def test_exponent_without_a_dot_is_a_number(exponent, dotted):
    # YAML 1.1, which PyYAML follows, reads these as strings; a
    # configuration reads them as YAML 1.2 does, and quoted ('1e-8' in
    # CORPUS) they stay strings
    def cfg(value):
        return loads_config(f"scenario: {{preset: 1}}\nlaser: {{r3: {value}}}\n"
                            f"fiber: {{s0: {value}}}\nbudget: {{tau_ps_s: {value}}}\n")

    assert cfg(exponent) == cfg(dotted)
    assert cfg(exponent).laser.free.r3 == cfg(exponent).fiber.s0 == float(dotted)
    assert yaml.safe_load(f"x: {exponent}") == {"x": exponent}  # the global loader is untouched


@pytest.mark.parametrize("number", ["1.0e6", "1.0e+6", "-2.5E-3", ".5e3"])
def test_exponent_with_a_dot_is_a_number(number):
    # YAML 1.1 reads 1.0e6 and .5e3 (an unsigned exponent) as strings,
    # and a configuration rejected them: $.laser.r3 ... got '1.0e6'
    from tfqkd.config import _loader

    assert yaml.load(f"x: {number}", Loader=_loader()) == {"x": float(number)}
    assert yaml.load(f"x: '{number}'", Loader=_loader()) == {"x": number}
    magnitude = number.lstrip("-")
    cfg = loads_config(f"scenario: {{preset: 1}}\nlaser: {{r3: {magnitude}}}\n"
                       f"fiber: {{s0: {magnitude}}}\n")
    assert cfg.laser.free.r3 == cfg.fiber.s0 == float(magnitude)
    with pytest.raises(ConfigError, match=rf"\$\.laser\.r3 must be .*, got '{re.escape(magnitude)}'$"):
        loads_config(f"scenario: {{preset: 1}}\nlaser: {{r3: '{magnitude}'}}\n")


@pytest.mark.parametrize("text, where, key", [
    ("scenario: {preset: 1}\nlaser: {r3: 1.0, r3: 2.0}\n", "line 2, column 18", "r3"),
    ("scenario: {preset: 1}\nlaser:\n  r3: 1.0\n  r2: 5.0\n  r3: 2.0\n", "line 5, column 3", "r3"),
    ("scenario: {preset: 1}\nlaser: {r3: 1.0}\nlaser: {r2: 2.0}\n", "line 3, column 1", "laser"),
], ids=["flow", "block", "section"])
def test_duplicate_key_is_invalid_yaml(text, where, key):
    # the last value won (r3 = 2.0), and a repeated section dropped the
    # first: r3 fell back to its default
    with pytest.raises(ConfigError) as err:
        loads_config(text)
    assert str(err.value) == f"configuration: invalid YAML at {where}: found duplicate key '{key}'"
    assert yaml.safe_load(text)  # the global loader is untouched


def test_merge_key_yields_to_the_mappings_own_keys():
    cfg = loads_config("scenario: {preset: 1}\nlaser:\n  <<: {r3: 1e6, r2: 200.0}\n  r3: 2e6\n")
    assert (cfg.laser.free.r3, cfg.laser.free.r2) == (2e6, 200.0)
