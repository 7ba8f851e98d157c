"""Structured configuration: schema-validated YAML covering every model coefficient.

A configuration file can start from a built-in scenario preset and
override any subset of the laser, cavity, loop, fiber, budget, channel,
protocol and sweep parameters, or define a topology from scratch.  An
explicit operating_point pins the coherence numbers; without one the
solver runs on the configured spectrum.  A preset brings its canonical
operating point only while the topology is the preset's and the laser,
cavity, loop, fiber and budget values are the defaults it was solved
with (budget.tau_ps_s aside, which sets only the duty cycle); any other
value there makes the window a live solve.

One table, _FIELDS, maps every YAML leaf to the one FullConfig field it
sets; the schema, the build and the dump are all generated from it, and
every default comes from the dataclasses.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

from .coherence import CoherenceBudget, OperatingPoint, solve_tau_q
from .errors import ConfigError, DomainError
from .link import DetectorParams
from .scenarios import DETECTORS, PROTOCOL_NAMES, ProtocolParams, SweepSpec, builtin_scenario
from .spectra import FiberParams, LaserSpec, TopologyConfig, TopologyKind, interference_spectrum

__all__ = ["FullConfig", "load_config", "loads_config", "dump_config"]

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_BOOL = {"type": "boolean"}

# (YAML section, key, schema fragment, dotted FullConfig path it sets).
# The scenario preset sets no path: it picks the topology and operating
# point the other sections override.
_FIELDS = (
    ("scenario", "preset", {"type": "integer", "minimum": 1, "maximum": 7}, None),
    ("topology", "kind", {"enum": [k.value for k in TopologyKind]}, "topology.kind"),
    ("topology", "laser_stabilized", _BOOL, "topology.laser_stabilized"),
    ("topology", "fiber_stabilized", _BOOL, "topology.fiber_stabilized"),
    ("topology", "l_a_km", _NONNEG, "topology.l_a"),
    ("topology", "l_b_km", _NONNEG, "topology.l_b"),
    ("topology", "refractive_index", _POS, "topology.refractive_index"),
    ("topology", "fiber_roundtrip_factor", _NONNEG, "topology.fiber_roundtrip_factor"),
    ("laser", "r3", _NONNEG, "laser.free.r3"),
    ("laser", "r2", _NONNEG, "laser.free.r2"),
    ("laser", "f_c_hz", _POS, "laser.free.f_c"),
    ("cavity", "c4", _NONNEG, "laser.cavity.c4"),
    ("cavity", "c3", _NONNEG, "laser.cavity.c3"),
    ("cavity", "c2", _NONNEG, "laser.cavity.c2"),
    ("loop", "bandwidth_hz", _POS, "laser.loop.bandwidth"),
    ("loop", "gamma", _POS, "laser.loop.gamma"),
    ("loop", "delta", _POS, "laser.loop.delta"),
    ("fiber", "noise_per_km", _NONNEG, "fiber.noise_per_km"),
    ("fiber", "f_c_free_hz", _POS, "fiber.f_c_free"),
    ("fiber", "s0", _NONNEG, "fiber.s0"),
    ("fiber", "f_c_floor_hz", _POS, "fiber.f_c_floor"),
    ("fiber", "lambda_s_nm", _POS, "fiber.lambda_s_nm"),
    ("fiber", "lambda_q_nm", _POS, "fiber.lambda_q_nm"),
    ("budget", "sigma_threshold_rad", _POS, "budget.sigma_threshold"),
    ("budget", "tau_max_s", _POS, "budget.tau_max"),
    ("budget", "tau_ps_s", _POS, "budget.tau_ps"),
    ("budget", "tau_floor_s", _POS, "budget.tau_floor"),
    ("budget", "f_max_hz", _POS, "budget.f_max"),
    ("channel", "alpha_db_per_km", _NONNEG, "sweep.alpha"),
    ("channel", "a_plus_db", _NONNEG, "sweep.a_plus"),
    ("protocol", "e_theta", _NONNEG, "protocol.misalignment.e_theta"),
    ("protocol", "f_ec", {"type": "number", "minimum": 1}, "protocol.f_ec"),
    ("protocol.decoys", "u", _POS, "protocol.decoys.u"),
    ("protocol.decoys", "v", _POS, "protocol.decoys.v"),
    ("protocol.decoys", "w", _NONNEG, "protocol.decoys.w"),
    ("protocol.sns", "epsilon", _POS, "protocol.sns.epsilon"),
    ("protocol.sns", "mu_z", _POS, "protocol.sns.mu_z"),
    ("protocol.sns", "mu_0", _NONNEG, "protocol.sns.mu_0"),
    ("protocol.sns", "p_z", _POS, "protocol.sns.p_z"),
    ("protocol.cal", "mu_zeta", _POS, "protocol.cal.mu_zeta"),
    ("operating_point", "tau_q_s", _POS, "operating_point.tau_q"),
    ("operating_point", "sigma_phi_rad", _NONNEG, "operating_point.sigma_phi"),
    ("operating_point", "e_phi", _NONNEG, "operating_point.e_phi"),
    ("detector", "eta_d", _POS, "detector.eta_d"),
    ("detector", "dark_rate_hz", _NONNEG, "detector.dark_rate"),
    ("detector", "clock_rate_hz", _POS, "detector.clock_rate"),
    ("sweep", "x_axis", {"enum": ["total_attenuation_db", "total_length_km"]},
     "sweep.x_axis"),
    ("sweep", "start", _NONNEG, "sweep.start"),
    ("sweep", "stop", _NONNEG, "sweep.stop"),
    ("sweep", "step", _POS, "sweep.step"),
    ("sweep", "detector", {"enum": sorted(DETECTORS)}, "sweep.detector"),
    ("sweep", "protocols", {"type": "array", "minItems": 1,
                            "items": {"enum": list(PROTOCOL_NAMES)}}, "sweep.protocols"),
)


def _obj(props: dict) -> dict:
    return {"type": "object", "properties": props, "additionalProperties": False}


def _schema() -> dict:
    root = _obj({})
    for section, key, fragment, _ in _FIELDS:
        node = root
        for part in section.split("."):
            node = node["properties"].setdefault(part, _obj({}))
        node["properties"][key] = fragment
    return root


CONFIG_SCHEMA = _schema()


@dataclass(frozen=True)
class FullConfig:
    """Resolved configuration ready for the sweep engine."""

    topology: TopologyConfig
    laser: LaserSpec = field(default_factory=LaserSpec)
    fiber: FiberParams = field(default_factory=FiberParams)
    budget: CoherenceBudget = field(default_factory=CoherenceBudget)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    detector: Optional[DetectorParams] = None
    operating_point: Optional[OperatingPoint] = None
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def resolve_operating_point(self) -> OperatingPoint:
        """Explicit operating point, or a live solve on the configured spectrum."""
        if self.operating_point is not None:
            return self.operating_point
        return solve_tau_q(interference_spectrum(self.topology, self.laser, self.fiber),
                           self.budget)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema types as Draft 2020-12 defines them on YAML values: bools are
# not numbers, and a float with an integer value is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
}


def _schema_errors(value, schema: dict, path: str = "$"):
    """Yield (JSON path, message) for each way value breaks schema.

    Covers the keywords CONFIG_SCHEMA uses, visited in schema order with
    the messages of the jsonschema package, so that errors sorted by path
    read as its Draft202012Validator reports them.  Each keyword other
    than type applies only to values of its own type; NaN passes the
    bounds, as every comparison with it is false.  The model dataclasses
    reject it when the configuration is built.
    """
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if value not in arg:  # string enums only: no bool/int aliasing
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS:
            breaks, text = _BOUNDS[keyword]
            if _is_number(value) and breaks(value, arg):
                yield path, f"{value!r} is {text} of {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(item, arg, f"{path}[{i}]")
        elif keyword == "properties":
            if isinstance(value, dict):
                for key, sub in arg.items():
                    if key in value:
                        yield from _schema_errors(value[key], sub, f"{path}.{key}")
        elif keyword == "additionalProperties":
            extras = sorted((k for k in value if k not in schema["properties"]), key=str) \
                if isinstance(value, dict) and not arg else []
            if extras:
                yield path, "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        else:
            raise KeyError(f"schema keyword {keyword!r} is not supported")


def _validate(raw: dict) -> None:
    errors = sorted(_schema_errors(raw, CONFIG_SCHEMA), key=lambda e: e[0])
    if errors:
        msgs = "; ".join(f"{path}: {message}" for path, message in errors)
        raise ConfigError(f"configuration invalid: {msgs}")


def _sections(path: str, raw: dict) -> str:
    """The YAML sections of raw that set fields at or below a FullConfig path."""
    return ", ".join(sorted({
        section for section, key, _, target in _FIELDS
        if key in _section(raw, section)
        and target is not None and target.startswith(path + ".")}))


def _section(raw: dict, section: str) -> dict:
    for part in section.split("."):
        raw = raw.get(part, {})
    return raw


def _apply(obj, updates: dict, raw: dict, prefix: str = ""):
    """Replace the dotted-path fields of obj, one replace per dataclass.

    Each frozen dataclass is rebuilt once with all of its overridden
    fields, so __post_init__ never checks a half-updated object.  YAML
    values take the type of the field they replace (enum members from
    their value, tuples from lists); an unset optional operating point is
    built from its fields.
    """
    nested: dict = {}
    fields: dict = {}
    for path, value in updates.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            current = getattr(obj, head, None)
            if isinstance(current, enum.Enum):
                value = type(current)(value)
            elif isinstance(current, tuple):
                value = tuple(value)
            fields[head] = value
    for head, sub in nested.items():
        fields[head] = _apply(getattr(obj, head), sub, raw, f"{prefix}{head}.")
    try:
        if obj is None:
            return OperatingPoint(**fields)
        return replace(obj, **fields)
    except DomainError as exc:
        raise ConfigError(f"{_sections(prefix.rstrip('.'), raw)}: {exc}") from exc


def _build(raw: dict) -> FullConfig:
    preset_id = _section(raw, "scenario").get("preset")
    if preset_id is None and not raw.get("topology"):
        raise ConfigError("configuration needs a scenario preset or a topology section")
    preset = builtin_scenario(preset_id) if preset_id is not None else None
    op_raw = raw.get("operating_point")
    if op_raw is not None:
        missing = {k for s, k, _, _ in _FIELDS if s == "operating_point"} - set(op_raw)
        if missing:
            raise ConfigError(f"operating_point missing fields: {sorted(missing)}")
    det_raw = raw.get("detector")
    base = FullConfig(
        topology=preset.topology if preset else TopologyConfig(),
        operating_point=None if preset is None or op_raw is not None
        else preset.operating_point,
        # a detector section overrides fields of the sweep's detector preset
        detector=DETECTORS[_section(raw, "sweep").get("detector", SweepSpec.detector)]
        if det_raw else None)

    updates = {}
    for section, key, _, target in _FIELDS:
        node = _section(raw, section)
        if target is not None and key in node:
            updates[target] = node[key]
    if base.operating_point is not None or op_raw is not None:
        # the operating point always carries the budget's stabilization overhead
        updates["operating_point.tau_ps"] = updates.get("budget.tau_ps", base.budget.tau_ps)
    cfg = _apply(base, updates, raw)
    # the preset's point holds only for the spectrum and budget it was
    # solved on; tau_ps sets its duty cycle alone
    solved_on = (base.topology, base.laser, base.fiber, base.budget)
    if base.operating_point is not None and solved_on != (
            cfg.topology, cfg.laser, cfg.fiber, replace(cfg.budget, tau_ps=base.budget.tau_ps)):
        cfg = replace(cfg, operating_point=None)
    return cfg


def _parse(text: str, source: str) -> FullConfig:
    import yaml

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ConfigError(f"{source}: invalid YAML{where}: {problem}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    _validate(raw)
    return _build(raw)


def loads_config(text: str) -> FullConfig:
    """Parse and validate a YAML configuration string."""
    return _parse(text, "configuration")


def load_config(path) -> FullConfig:
    """Load, schema-validate and resolve a YAML configuration file; one that
    cannot be read, decoded as UTF-8 or parsed raises a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse(fh.read(), str(path))
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read configuration: {reason}") from exc


def _to_dict(cfg: FullConfig) -> dict:
    d: dict = {}
    for section, key, _, target in _FIELDS:
        if target is None:
            continue
        value = cfg
        for part in target.split("."):
            value = getattr(value, part, None)
        if value is None:
            continue
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        node = d
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
    return d


def dump_config(cfg: FullConfig) -> str:
    """Serialize a configuration to YAML; loads_config(dump_config(c)) == c."""
    import yaml

    return yaml.safe_dump(_to_dict(cfg), sort_keys=True)
