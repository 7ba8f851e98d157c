"""Structured configuration: checked YAML covering every model coefficient.

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
sets; the check and the build are both driven by it.  The dataclasses
own every default and every range, and the check runs the checker of
each leaf's target field on its YAML value, so a value the
configuration accepts is one the dataclass accepts, cross-field rules
(such as u > v + w of the decoy set) aside.  Every error is reported
at once, each at its YAML path ($.laser.r3, $.sweep.protocols[1]).
"""

from __future__ import annotations

import functools
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional

from ._fields import Checked, _checker, part, spec
from .coherence import CoherenceBudget, OperatingPoint, solve_tau_q
from .errors import ConfigError, DomainError
from .link import DetectorParams
from .scenarios import DETECTORS, ProtocolParams, SweepSpec, builtin_scenario
from .spectra import FiberParams, LaserSpec, TopologyConfig, interference_spectrum

__all__ = ["FullConfig", "load_config", "loads_config"]

# (YAML section, key, dotted FullConfig path it sets).  The scenario
# preset sets no path: it picks the topology and operating point the
# other sections override.
_FIELDS = (
    ("scenario", "preset", None),
    ("topology", "kind", "topology.kind"),
    ("topology", "laser_stabilized", "topology.laser_stabilized"),
    ("topology", "fiber_stabilized", "topology.fiber_stabilized"),
    ("topology", "l_a_km", "topology.l_a"),
    ("topology", "l_b_km", "topology.l_b"),
    ("topology", "refractive_index", "topology.refractive_index"),
    ("topology", "fiber_roundtrip_factor", "topology.fiber_roundtrip_factor"),
    ("laser", "r3", "laser.free.r3"),
    ("laser", "r2", "laser.free.r2"),
    ("laser", "f_c_hz", "laser.free.f_c"),
    ("cavity", "c4", "laser.cavity.c4"),
    ("cavity", "c3", "laser.cavity.c3"),
    ("cavity", "c2", "laser.cavity.c2"),
    ("loop", "bandwidth_hz", "laser.loop.bandwidth"),
    ("loop", "gamma", "laser.loop.gamma"),
    ("loop", "delta", "laser.loop.delta"),
    ("fiber", "noise_per_km", "fiber.noise_per_km"),
    ("fiber", "f_c_free_hz", "fiber.f_c_free"),
    ("fiber", "s0", "fiber.s0"),
    ("fiber", "f_c_floor_hz", "fiber.f_c_floor"),
    ("fiber", "lambda_s_nm", "fiber.lambda_s_nm"),
    ("fiber", "lambda_q_nm", "fiber.lambda_q_nm"),
    ("budget", "sigma_threshold_rad", "budget.sigma_threshold"),
    ("budget", "tau_max_s", "budget.tau_max"),
    ("budget", "tau_ps_s", "budget.tau_ps"),
    ("budget", "tau_floor_s", "budget.tau_floor"),
    ("budget", "f_max_hz", "budget.f_max"),
    ("channel", "alpha_db_per_km", "sweep.alpha"),
    ("channel", "a_plus_db", "sweep.a_plus"),
    ("protocol", "e_theta", "protocol.misalignment.e_theta"),
    ("protocol", "f_ec", "protocol.f_ec"),
    ("protocol.decoys", "u", "protocol.decoys.u"),
    ("protocol.decoys", "v", "protocol.decoys.v"),
    ("protocol.decoys", "w", "protocol.decoys.w"),
    ("protocol.sns", "epsilon", "protocol.sns.epsilon"),
    ("protocol.sns", "mu_z", "protocol.sns.mu_z"),
    ("protocol.sns", "mu_0", "protocol.sns.mu_0"),
    ("protocol.sns", "p_z", "protocol.sns.p_z"),
    ("protocol.cal", "mu_zeta", "protocol.cal.mu_zeta"),
    ("operating_point", "tau_q_s", "operating_point.tau_q"),
    ("operating_point", "sigma_phi_rad", "operating_point.sigma_phi"),
    ("operating_point", "e_phi", "operating_point.e_phi"),
    ("operating_point", "clipped", "operating_point.clipped"),
    ("operating_point", "floored", "operating_point.floored"),
    ("detector", "eta_d", "detector.eta_d"),
    ("detector", "dark_rate_hz", "detector.dark_rate"),
    ("detector", "clock_rate_hz", "detector.clock_rate"),
    ("sweep", "x_axis", "sweep.x_axis"),
    ("sweep", "start", "sweep.start"),
    ("sweep", "stop", "sweep.stop"),
    ("sweep", "step", "sweep.step"),
    ("sweep", "detector", "sweep.detector"),
    ("sweep", "protocols", "sweep.protocols"),
)


def _field(target: str):
    """The FullConfig field at a dotted path."""
    kind = FullConfig
    for name in target.split("."):
        found = next(f for f in fields(kind) if f.name == name)
        kind = found.metadata["kind"]
    return found


@dataclass(frozen=True)
class FullConfig(Checked):
    """Resolved configuration ready for the sweep engine."""

    topology: TopologyConfig = field(metadata=spec(TopologyConfig))
    laser: LaserSpec = part(LaserSpec)
    fiber: FiberParams = part(FiberParams)
    budget: CoherenceBudget = part(CoherenceBudget)
    protocol: ProtocolParams = part(ProtocolParams)
    detector: Optional[DetectorParams] = field(
        default=None, metadata=spec(DetectorParams, optional=True))
    operating_point: Optional[OperatingPoint] = field(
        default=None, metadata=spec(OperatingPoint, optional=True))
    sweep: SweepSpec = part(SweepSpec)

    def resolve_operating_point(self) -> OperatingPoint:
        """Explicit operating point, or a live solve on the configured spectrum."""
        if self.operating_point is not None:
            return self.operating_point
        return solve_tau_q(interference_spectrum(self.topology, self.laser, self.fiber),
                           self.budget)


def _nest(leaves) -> dict:
    """Nested YAML mappings of (dotted section, key, value) triples."""
    root: dict = {}
    for section, key, value in leaves:
        node = root
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = value
    return root


_TREE = _nest(_FIELDS)  # a key's subsection, or the FullConfig path its leaf sets


def _preset(value):
    """The built-in scenario a preset value names: 2 and 2.0 name scenario 2."""
    try:
        return builtin_scenario(int(value) if isinstance(value, float) and value.is_integer()
                                else value)
    except DomainError:
        raise DomainError(f"$.scenario.preset must be a built-in scenario id 1-7, "
                          f"got {value!r}") from None


def _errors(value, node: dict = _TREE, path: str = "$"):
    """Yield (YAML path, message) for a section that is not a mapping, a
    key its section does not know, and a leaf its field's checker rejects."""
    if not isinstance(value, dict):
        yield path, f"{path} must be a mapping, got {value!r}"
        return
    unknown = sorted((k for k in value if k not in node), key=str)
    if unknown:
        yield path, f"{path} has unknown key{'s' * (len(unknown) > 1)} " + \
            ", ".join(map(repr, unknown))
    for key in node.keys() & value.keys():
        sub, where = node[key], f"{path}.{key}"
        if isinstance(sub, dict):
            yield from _errors(value[key], sub, where)
        else:
            yield from _leaf_errors(sub and _field(sub).metadata, value[key], where)


def _leaf_errors(m, value, path: str):
    """Yield (path, message) if the field metadata m (the preset's if None)
    rejects a YAML value; each entry of a list is checked at its index."""
    if m and m["kind"] is tuple and isinstance(value, list):
        entries = [e for i, item in enumerate(value)
                   for e in _leaf_errors(m["item"], item, f"{path}[{i}]")]
        if entries:
            yield from entries
            return
    try:
        (_preset if m is None else _checker(m, path))(value)
    except DomainError as exc:
        yield path, str(exc)


def _sections(path: str, raw: dict) -> str:
    """The YAML sections of raw that set fields at or below a FullConfig path."""
    return ", ".join(sorted({
        section for section, key, target in _FIELDS
        if key in _section(raw, section)
        and target is not None and target.startswith(path + ".")}))


def _section(raw: dict, section: str) -> dict:
    for part in section.split("."):
        raw = raw.get(part, {})
    return raw


def _apply(obj, updates: dict, raw: dict, prefix: str = ""):
    """Replace the dotted-path fields of obj, one replace per dataclass.

    Each frozen dataclass is rebuilt once with all of its overridden
    fields, so __post_init__ never checks a half-updated object.  The
    YAML values go in as they are: each dataclass converts an enum's
    value to its member and a list to a tuple itself.  An unset optional
    operating point is built from its fields.
    """
    nested: dict = {}
    values: dict = {}
    for path, value in updates.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            values[head] = value
    for head, sub in nested.items():
        values[head] = _apply(getattr(obj, head), sub, raw, f"{prefix}{head}.")
    try:
        if obj is None:
            return OperatingPoint(**values)
        return replace(obj, **values)
    except DomainError as exc:
        raise ConfigError(f"{_sections(prefix.rstrip('.'), raw)}: {exc}") from exc


def _build(raw: dict) -> FullConfig:
    preset_id = _section(raw, "scenario").get("preset")
    if preset_id is None and not raw.get("topology"):
        raise ConfigError("configuration needs a scenario preset or a topology section")
    preset = None if preset_id is None else _preset(preset_id)
    op_raw = raw.get("operating_point")
    if op_raw is not None:  # the fields without a default, which a solve sets
        missing = {k for s, k, t in _FIELDS if s == "operating_point"
                   and _field(t).default is MISSING} - set(op_raw)
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
    for section, key, target in _FIELDS:
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


@functools.cache
def _loader():
    import yaml

    class Loader(yaml.SafeLoader):
        """yaml.SafeLoader that reads every number with an exponent (3e6,
        1.0e6, 1.0e+6, -2.5E-3, .5e3) as a float, as YAML 1.2 does; YAML
        1.1 reads one as a string unless it has a digit, a dot and a signed
        exponent.  A key repeated in one mapping is an error, where
        SafeLoader keeps the last value; a << merge still yields to the
        mapping's own keys."""

        def compose_mapping_node(self, anchor):
            node = super().compose_mapping_node(anchor)
            seen = set()
            for key, _ in node.value:  # the mapping's own keys, before any merge
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    if (key.tag, key.value) in seen:
                        raise yaml.composer.ComposerError(
                            "while composing a mapping", node.start_mark,
                            f"found duplicate key {key.value!r}", key.start_mark)
                    seen.add((key.tag, key.value))
            return node

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


def _parse(text: str, source: str) -> FullConfig:
    import yaml

    try:
        raw = yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ConfigError(f"{source}: invalid YAML{where}: {problem}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    errors = sorted(_errors(raw), key=lambda e: e[0])
    if errors:
        raise ConfigError("configuration invalid: " + "; ".join(m for _, m in errors))
    return _build(raw)


def loads_config(text: str) -> FullConfig:
    """Parse and validate a YAML configuration string."""
    return _parse(text, "configuration")


def load_config(path) -> FullConfig:
    """Load, check and resolve a YAML configuration file; one that
    cannot be read, decoded as UTF-8 or parsed raises a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse(fh.read(), str(path))
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: cannot read configuration: {reason}") from exc

