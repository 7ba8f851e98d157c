"""Structured configuration: schema-validated YAML covering every model coefficient.

A configuration file can start from a built-in scenario preset and
override any subset of the laser, cavity, loop, fiber, budget, channel,
protocol and sweep parameters, or define a topology from scratch.  An
explicit operating_point pins the coherence numbers; without one the
solver runs on the configured spectrum.

One table, _FIELDS, maps every YAML leaf to the FullConfig field(s) it
sets; the schema, the build and the dump are all generated from it, and
every default comes from the dataclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

import jsonschema
import yaml

from .coherence import CoherenceBudget, solve_tau_q
from .errors import ConfigError, DomainError
from .link import DetectorParams
from .scenarios import (
    DETECTORS,
    OperatingPoint,
    PROTOCOL_NAMES,
    ProtocolParams,
    SweepSpec,
    builtin_scenario,
)
from .spectra import FiberParams, LaserSpec, TopologyConfig, TopologyKind

__all__ = ["FullConfig", "load_config", "loads_config", "dump_config"]

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_BOOL = {"type": "boolean"}

# (YAML section, key, schema fragment, dotted FullConfig paths it sets).
# The two preset keys set no path: they pick the object the other keys
# of their section override.
_FIELDS = (
    ("scenario", "preset", {"type": "integer", "minimum": 1, "maximum": 7}, ()),
    ("topology", "kind", {"enum": [k.value for k in TopologyKind]}, ("topology.kind",)),
    ("topology", "laser_stabilized", _BOOL, ("topology.laser_stabilized",)),
    ("topology", "fiber_stabilized", _BOOL, ("topology.fiber_stabilized",)),
    ("topology", "l_a_km", _NONNEG, ("topology.l_a",)),
    ("topology", "l_b_km", _NONNEG, ("topology.l_b",)),
    ("topology", "refractive_index", _POS, ("topology.refractive_index",)),
    ("topology", "fiber_roundtrip_factor", _NONNEG, ("topology.fiber_roundtrip_factor",)),
    ("laser", "r3", _NONNEG, ("laser.free.r3",)),
    ("laser", "r2", _NONNEG, ("laser.free.r2",)),
    ("laser", "f_c_hz", _POS, ("laser.free.f_c",)),
    ("cavity", "c4", _NONNEG, ("laser.cavity.c4",)),
    ("cavity", "c3", _NONNEG, ("laser.cavity.c3",)),
    ("cavity", "c2", _NONNEG, ("laser.cavity.c2",)),
    ("loop", "bandwidth_hz", _POS, ("laser.loop.bandwidth",)),
    ("loop", "gamma", _POS, ("laser.loop.gamma",)),
    ("loop", "delta", _POS, ("laser.loop.delta",)),
    ("fiber", "noise_per_km", _NONNEG, ("fiber.noise_per_km",)),
    ("fiber", "f_c_free_hz", _POS, ("fiber.f_c_free",)),
    ("fiber", "s0", _NONNEG, ("fiber.s0",)),
    ("fiber", "f_c_floor_hz", _POS, ("fiber.f_c_floor",)),
    ("fiber", "lambda_s_nm", _POS, ("fiber.lambda_s_nm",)),
    ("fiber", "lambda_q_nm", _POS, ("fiber.lambda_q_nm",)),
    ("budget", "sigma_threshold_rad", _POS, ("budget.sigma_threshold",)),
    ("budget", "tau_max_s", _POS, ("budget.tau_max",)),
    ("budget", "tau_ps_s", _POS, ("budget.tau_ps",)),
    ("budget", "tau_floor_s", _POS, ("budget.tau_floor",)),
    ("budget", "f_max_hz", _POS, ("budget.f_max",)),
    ("channel", "alpha_db_per_km", _NONNEG, ("sweep.alpha",)),
    ("channel", "a_plus_db", _NONNEG, ("sweep.a_plus",)),
    ("protocol", "e_theta", _NONNEG, ("protocol.misalignment.e_theta",)),
    ("protocol", "f_ec", {"type": "number", "minimum": 1},
     ("protocol.f_ec", "protocol.sns.f_ec", "protocol.cal.f_ec")),
    ("protocol.decoys", "u", _POS, ("protocol.decoys.u", "protocol.sns.decoys.u")),
    ("protocol.decoys", "v", _POS, ("protocol.decoys.v", "protocol.sns.decoys.v")),
    ("protocol.decoys", "w", _NONNEG, ("protocol.decoys.w", "protocol.sns.decoys.w")),
    ("protocol.sns", "epsilon", _POS, ("protocol.sns.epsilon",)),
    ("protocol.sns", "mu_z", _POS, ("protocol.sns.mu_z",)),
    ("protocol.sns", "mu_0", _NONNEG, ("protocol.sns.mu_0",)),
    ("protocol.sns", "p_z", _POS, ("protocol.sns.p_z",)),
    ("protocol.cal", "mu_zeta", _POS, ("protocol.cal.mu_zeta",)),
    ("operating_point", "tau_q_s", _POS, ("operating_point.tau_q",)),
    ("operating_point", "sigma_phi_rad", _NONNEG, ("operating_point.sigma_phi",)),
    ("operating_point", "e_phi", _NONNEG, ("operating_point.e_phi",)),
    ("detector", "preset", {"enum": sorted(DETECTORS)}, ()),
    ("detector", "eta_d", _POS, ("detector.eta_d",)),
    ("detector", "dark_rate_hz", _NONNEG, ("detector.dark_rate",)),
    ("detector", "clock_rate_hz", _POS, ("detector.clock_rate",)),
    ("sweep", "x_axis", {"enum": ["total_attenuation_db", "total_length_km"]},
     ("sweep.x_axis",)),
    ("sweep", "start", _NONNEG, ("sweep.start",)),
    ("sweep", "stop", _NONNEG, ("sweep.stop",)),
    ("sweep", "step", _POS, ("sweep.step",)),
    ("sweep", "detector", {"enum": sorted(DETECTORS)}, ("sweep.detector",)),
    ("sweep", "protocols", {"type": "array", "minItems": 1,
                            "items": {"enum": list(PROTOCOL_NAMES)}}, ("sweep.protocols",)),
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
        from .spectra import interference_spectrum
        res = solve_tau_q(interference_spectrum(self.topology, self.laser,
                                                self.fiber), self.budget)
        return OperatingPoint(tau_q=res.tau_q, sigma_phi=res.sigma_phi,
                              e_phi=res.e_phi, tau_ps=self.budget.tau_ps)


def _validate(raw: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: e.json_path)
    if errors:
        msgs = "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        raise ConfigError(f"configuration invalid: {msgs}")


def _sections(path: str, raw: dict) -> str:
    """The YAML sections of raw that set fields at or below a FullConfig path."""
    return ", ".join(sorted({
        section for section, key, _, paths in _FIELDS
        if key in _section(raw, section)
        and any(p.startswith(path + ".") for p in paths)}))


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
        detector=DETECTORS[det_raw.get("preset", "snspd")] if det_raw else None)

    updates = {}
    for section, key, _, paths in _FIELDS:
        node = _section(raw, section)
        if key in node:
            updates.update(dict.fromkeys(paths, node[key]))
    if base.operating_point is not None or op_raw is not None:
        # the operating point always carries the budget's stabilization overhead
        updates["operating_point.tau_ps"] = updates.get("budget.tau_ps", base.budget.tau_ps)
    return _apply(base, updates, raw)


def loads_config(text: str) -> FullConfig:
    """Parse and validate a YAML configuration string."""
    raw = yaml.safe_load(text)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    _validate(raw)
    return _build(raw)


def load_config(path) -> FullConfig:
    """Load, schema-validate and resolve a YAML configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def _to_dict(cfg: FullConfig) -> dict:
    d: dict = {}
    for section, key, _, paths in _FIELDS:
        if not paths:
            continue
        value = cfg
        for part in paths[0].split("."):
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
    return yaml.safe_dump(_to_dict(cfg), sort_keys=True)
