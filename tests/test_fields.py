"""The field contract of the input dataclasses: every init field checks
its kind and range, and the YAML configuration checks each leaf with
the checker of the field it sets."""

import dataclasses
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import tfqkd
from tfqkd import (
    CalChannel,
    CalParams,
    CavityParams,
    ChannelErrorModel,
    CoherenceBudget,
    ConfigError,
    DecoySet,
    DetectorParams,
    DomainError,
    FiberParams,
    FixedDelta,
    FullConfig,
    LaserFreeParams,
    LaserSpec,
    LoopParams,
    McConfig,
    MisalignmentParams,
    OperatingPoint,
    ProtocolParams,
    SnsParams,
    Spectrum,
    SweepSpec,
    TopologyConfig,
    TopologyKind,
    builtin_scenario,
    interference_spectrum,
    load_config,
    loads_config,
    solve_tau_q,
)
from tfqkd._fields import Checked, spec
from tfqkd.config import _FIELDS, _field

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "scenario1.yaml"

# one valid instance of each input dataclass
INPUTS = (
    LaserFreeParams(), CavityParams(), LoopParams(), FiberParams(), LaserSpec(),
    TopologyConfig(), CoherenceBudget(), OperatingPoint(tau_q=1e-3, sigma_phi=0.2, e_phi=0.01),
    DecoySet(), ChannelErrorModel(eta_hat=0.5, p_dc=1e-6), CalParams(), CalChannel(gamma=0.01),
    DetectorParams(eta_d=0.9, dark_rate=10.0), MisalignmentParams(), SnsParams(),
    ProtocolParams(), SweepSpec(), FixedDelta(), McConfig(), builtin_scenario(1),
    FullConfig(topology=TopologyConfig()),
    interference_spectrum(TopologyConfig(l_b=113.0)),
)
# records only the library builds, and the phase law without fields
UNCHECKED = {"DecoyBounds", "SnsWindowStats", "AoppStats", "FockYield", "CalStats", "McClickStats",
             "SigmaMap", "SweepRow", "SweepTable", "UniformRandomized"}

PROBES = {"str": "x", "bool": True, "None": None, "inf": math.inf, "-inf": -math.inf,
          "nan": math.nan, "nested": McConfig()}
# the probes a field accepts: a bool on a bool field, None on an optional
# one, an infinite cutoff and any string as a preset label
ACCEPTED = {
    ("TopologyConfig.laser_stabilized", "bool"), ("TopologyConfig.fiber_stabilized", "bool"),
    ("OperatingPoint.clipped", "bool"), ("OperatingPoint.floored", "bool"),
    ("CoherenceBudget.f_max", "inf"), ("CoherenceBudget.f_max", "None"),
    ("FullConfig.detector", "None"), ("FullConfig.operating_point", "None"),
    ("ScenarioPreset.label", "str"),
}


def test_the_inputs_are_every_checked_dataclass_of_the_package():
    assert len(INPUTS) == 22
    assert {type(obj) for obj in INPUTS} == {
        cls for cls in Checked.__subclasses__() if cls.__module__.startswith("tfqkd.")}
    public = {name for name, obj in vars(tfqkd).items()
              if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert public == {type(obj).__name__ for obj in INPUTS} | UNCHECKED


def test_every_field_rejects_wrong_types_and_non_finite_values():
    accepted = set()
    for obj in INPUTS:
        for f in dataclasses.fields(obj):
            where = f"{type(obj).__name__}.{f.name}"
            for probe, value in PROBES.items():
                try:
                    replace(obj, **{f.name: value})
                except DomainError as exc:
                    assert str(exc).startswith(where + " must be "), str(exc)
                else:
                    accepted.add((where, probe))
    assert accepted == ACCEPTED


@pytest.mark.parametrize("value", [np.bool_(True), np.bool_(False), False])
def test_numbers_reject_bools(value):
    for make in (lambda: LoopParams(bandwidth=value), lambda: McConfig(seed=value),
                 lambda: ChannelErrorModel(eta_hat=value, p_dc=0.0)):
        with pytest.raises(DomainError):
            make()


def test_numpy_scalars_and_arrays_where_arrays_are_taken():
    assert LoopParams(gamma=np.float32(0.5)).gamma == 0.5
    assert McConfig(samples=np.int64(10)).samples == 10
    eta = np.array([0.0, 0.5, 1.0])
    assert ChannelErrorModel(eta_hat=eta, p_dc=0.0).eta_hat is eta
    assert ChannelErrorModel(eta_hat=np.array([]), p_dc=0.0).eta_hat.size == 0
    assert CalChannel(gamma=np.arange(3)).gamma.tolist() == [0, 1, 2]
    for make in (lambda: ChannelErrorModel(eta_hat=np.array([0.1, np.nan]), p_dc=0.0),
                 lambda: ChannelErrorModel(eta_hat=np.array([0.1, 1.5]), p_dc=0.0),
                 lambda: ChannelErrorModel(eta_hat=np.array([True]), p_dc=0.0),
                 lambda: ChannelErrorModel(eta_hat=[0.1, 0.2], p_dc=0.0),
                 lambda: CalChannel(gamma=np.array([0.0, np.inf])),
                 lambda: CalChannel(gamma=0.1, sigma_phi=np.array([0.1])),
                 lambda: LoopParams(gamma=np.array(0.5))):
        with pytest.raises(DomainError):
            make()


def test_declared_defaults_are_checked():
    # a field that holds its default skips the check, so the checkers
    # check each default when they are built: a bad one fails every build
    @dataclasses.dataclass(frozen=True)
    class Probe(Checked):
        x: float = dataclasses.field(default=-1.0, metadata=spec(float, ge=0))

    message = r"^Probe\.x must be a finite number >= 0, got -1\.0$"
    for make in (Probe, Probe, lambda: Probe(x=2.0)):
        with pytest.raises(DomainError, match=message):
            make()


def test_lists_become_tuples():
    # a tuple field takes a list, and checks each entry
    spec = SweepSpec(protocols=["bb84", "cal"])
    assert spec == SweepSpec(protocols=("bb84", "cal")) and spec.protocols == ("bb84", "cal")
    for bad in (["bb84", 3], ["bb84", "nope"], "bb84"):
        with pytest.raises(DomainError, match=r"^SweepSpec\.protocols "):
            SweepSpec(protocols=bad)


class TestFaultsOfTheUncheckedApi:
    """Inputs the dataclasses took without a check before they declared
    their fields."""

    def test_string_kind_is_the_enum_member(self):
        # a string kind used to solve as independent lasers: tau_q 5.549e-5 s
        # against 4.901e-5 s on scenario 3's arms
        arms = builtin_scenario(3).topology
        by_value = TopologyConfig(kind="common_laser", l_a=arms.l_a, l_b=arms.l_b)
        by_member = TopologyConfig(kind=TopologyKind.COMMON_LASER, l_a=arms.l_a, l_b=arms.l_b)
        assert by_value == by_member and by_value.kind is TopologyKind.COMMON_LASER
        assert solve_tau_q(interference_spectrum(by_value)) == solve_tau_q(
            interference_spectrum(by_member))
        assert solve_tau_q(interference_spectrum(by_value)).tau_q == pytest.approx(
            4.901e-5, rel=1e-3)

    @pytest.mark.parametrize("make", [
        lambda: TopologyConfig(kind="ring"),
        lambda: TopologyConfig(laser_stabilized="no"),
        lambda: TopologyConfig(laser_stabilized=math.nan),
        lambda: SnsParams(mu_z=math.inf),
        lambda: LaserSpec(free="x"),
        lambda: ProtocolParams(decoys=None),
    ], ids=["kind-ring", "stabilized-no", "stabilized-nan", "mu_z-inf", "free-str",
            "decoys-none"])
    def test_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    # a knee at or below 0 integrated 1/f^2 to 0.0 (true value 1e-3 at
    # tau = 1 ms), a NaN or infinite knee or a NaN period raised a bare
    # IndexError, a string of knees or averaged form a bare TypeError, and
    # a period at or below 0 integrated the averaged form everywhere
    @pytest.mark.parametrize("field_name, hints", [
        ("knees", {"knees": (-5.0,)}), ("knees", {"knees": (0.0,)}),
        ("knees", {"knees": (math.nan,)}), ("knees", {"knees": (math.inf,)}),
        ("knees", {"knees": "ab"}), ("averaged_func", {"averaged_func": "x"}),
        ("oscillation_period", {"oscillation_period": math.nan}),
        ("oscillation_period", {"oscillation_period": 0.0}),
        ("oscillation_period", {"oscillation_period": -1.0}),
        ("averaged_func", {"oscillation_period": 1.0, "averaged_func": None}),
        ("oscillation_period", {"oscillation_period": None})])
    def test_spectrum_hints_rejected(self, field_name, hints):
        def f2(f):
            return 1.0 / np.asarray(f, float) ** 2

        with pytest.raises(DomainError, match=rf"^Spectrum\.{field_name}( entry)? must be "):
            Spectrum(f2, **{"oscillation_period": 1.0, "averaged_func": f2, **hints})

    def test_overflowing_period_gives_no_sin2_hints(self):
        # a 1e-310 km mismatch gave an infinite period; the switch frequency
        # is then infinite and the PSD exact throughout either way
        spec = interference_spectrum(TopologyConfig(), delta_l_km=1e-310)
        assert spec.oscillation_period is None and spec.averaged_func is None
        assert solve_tau_q(spec) == solve_tau_q(interference_spectrum(TopologyConfig()))

    def test_protocol_list_is_hashable(self):
        spec = SweepSpec(protocols=["bb84"])
        assert spec.protocols == ("bb84",)
        assert hash(spec) == hash(SweepSpec(protocols=("bb84",)))


# the leaves where a cross-field rule of the dataclass, with the other
# fields at the reference configuration's values, rejects a value next
# to a bound that the leaf's own check accepts: u > v > w and mu_z >
# mu_0, tau_floor < tau_max, l_a >= l_b, dark counts per signal below 1,
# and the sweep grid size
CROSS_FIELD = {"protocol.decoys.u", "protocol.decoys.v", "protocol.sns.mu_z",
               "budget.tau_max", "topology.l_a", "detector.clock_rate", "sweep.step"}


def test_yaml_bounds_are_the_dataclass_bounds():
    # the reference configuration with every key set
    base_text = _uncommented(CONFIG_PATH.read_text(encoding="utf-8"))
    base = loads_config(base_text)
    cross = set()
    leaves = 0
    for section, key, target in _FIELDS:
        m = {} if target is None else _field(target).metadata
        if m.get("kind") not in (float, int):
            continue
        leaves += 1
        *path, name = target.split(".")
        owner = base
        for part in path:
            owner = getattr(owner, part)
        bounds = [m[k] for k in ("gt", "ge", "lt", "le") if k in m]
        assert bounds or target == "budget.f_max"
        for bound in bounds:
            for value in (math.nextafter(bound, -math.inf), float(bound),
                          math.nextafter(bound, math.inf)):
                try:
                    replace(owner, **{name: value})
                except DomainError as exc:
                    in_dataclass, message = False, str(exc)
                else:
                    in_dataclass, message = True, ""
                raw = yaml.safe_load(base_text)
                node = raw
                for part in section.split("."):
                    node = node[part]
                node[key] = value
                try:
                    cfg = loads_config(yaml.safe_dump(raw))
                except ConfigError as exc:
                    error = str(exc)
                else:
                    error = ""
                    got = cfg
                    for part in target.split("."):
                        got = getattr(got, part)
                    assert got == value
                if in_dataclass:
                    assert not error, error
                elif message.startswith(f"{type(owner).__name__}.{name} "):
                    # the field's own rule: the same check, named by its YAML path
                    assert error == "configuration invalid: " + message.replace(
                        f"{type(owner).__name__}.{name}", f"$.{section}.{key}", 1)
                else:
                    # a cross-field rule: the leaf passes, and the dataclass
                    # rejects it under the sections that set it
                    sections = error.partition(": ")[0].split(", ")
                    assert section in sections and message in error, error
                    cross.add(target)
    assert leaves == 45
    assert cross == CROSS_FIELD


def _uncommented(text: str) -> str:
    """text with each commented YAML key line (`# key: ...`) made a line."""
    return re.sub(r"^(\s*)# (\s*[a-z_0-9]+:)", r"\1\2", text, flags=re.M)


def test_reference_config_documents_every_key():
    text = CONFIG_PATH.read_text(encoding="utf-8")
    raw = yaml.safe_load(_uncommented(text))
    for section, key, _ in _FIELDS:
        node = raw
        for part in section.split("."):
            node = node[part]
        assert key in node, f"{section}.{key}"
    # the commented keys hold valid values, and commenting them keeps
    # the file's behaviour
    assert loads_config(_uncommented(text)).sweep == load_config(CONFIG_PATH).sweep
    assert load_config(CONFIG_PATH).detector is None
    assert load_config(CONFIG_PATH).budget.f_max is None

