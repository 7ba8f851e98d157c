"""The field contract of the input dataclasses.

Each init field of an input dataclass declares what it takes once, as
dataclasses.field metadata made by spec.  Checked checks each field
against it, and the YAML configuration checks each leaf with the same
checker, so the Python API and the YAML route accept the same values.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from numbers import Integral, Real

import numpy as np

from .errors import DomainError

__all__: list = []  # private: the package exports none of it

_BOUNDS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}  # a bound's sign in messages


def spec(kind, **rules) -> dict:
    """Field metadata.  kind is float (a real number), int, bool, str,
    tuple (a tuple, or a list converted to one), an enum (a member, or
    its value converted to it), or the dataclass, or a tuple of them, of
    which the value is an instance.  A number takes the bounds gt or ge
    (an open or a closed lower end) and lt or le, and must be finite
    unless finite=False; with array=True a real may also be a numeric
    ndarray, whose min and max are checked.  A str may take values, the
    strings it must be one of; a tuple takes item, the spec of each
    entry, and may take nonempty or length.  optional=True admits None."""
    return {"kind": kind, **rules}


def part(cls):
    """A field that holds a cls, cls() by default."""
    return dataclasses.field(default_factory=cls, metadata=spec(cls))


def _within(x, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False) -> bool:
    """Whether every entry of x, a number or an array, lies between lo and
    hi, each end included unless lo_open or hi_open.  NaN lies in no
    range, and an empty array in every one."""
    if not isinstance(x, (int, float)):
        x = np.asarray(x)
        if not x.size:
            return True
        # NaN if any entry is
        x_lo, x_hi = np.minimum.reduce(x, axis=None), np.maximum.reduce(x, axis=None)
    else:
        x_lo = x_hi = x
    return bool((lo < x_lo if lo_open else lo <= x_lo) and (x_hi < hi if hi_open else x_hi <= hi))


def _number(m: dict):
    """(description, predicate, None) of a number's metadata."""
    finite, array, real = m.get("finite", True), m.get("array", False), m["kind"] is float
    lo, hi = m.get("gt", m.get("ge", -math.inf)), m.get("lt", m.get("le", math.inf))
    lo_open = "gt" in m or (finite and lo == -math.inf)
    hi_open = "lt" in m or (finite and hi == math.inf)
    fast, number = (float, Real) if real else (int, Integral)

    def ok(v):
        if type(v) is fast:  # the common case, without a call
            return (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)
        # np.bool_ is neither Real nor Integral
        return ((array and type(v) is np.ndarray and v.dtype.kind in "fiu")
                or (isinstance(v, number) and not isinstance(v, bool))) \
            and _within(v, lo, hi, lo_open, hi_open)
    what = ("a finite number" if finite else "a number") if real else "an integer"
    return what + " or numeric array" * array + " and".join(
        f" {_BOUNDS[k]} {m[k]}" for k in _BOUNDS if k in m), ok, None


def _rule(m: dict, where: str):
    """(description, predicate, conversion or None) of a field's metadata."""
    kind, values = m["kind"], m.get("values")
    if kind is float or kind is int:
        return _number(m)
    if kind is tuple:
        item, length, least = _checker(m["item"], where + " entry"), m.get("length"), \
            int(m.get("nonempty", False))

        def ok(v):
            return isinstance(v, (tuple, list)) and len(v) >= least and length in (None, len(v))
        return ("a non-empty tuple or list" if least else "a tuple or list") + (
            "" if length is None else f" of length {length}"), ok, lambda v: tuple(map(item, v))
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        values = [e.value for e in kind]

        def ok(v):
            return isinstance(v, kind) or (isinstance(v, str) and v in values)
        return f"a {kind.__name__} or one of {values}", ok, kind
    types = (bool, np.bool_) if kind is bool else kind

    def ok(v):
        return isinstance(v, types) and (values is None or v in values)
    names = " or ".join(f"a {t.__name__}" for t in (kind if isinstance(kind, tuple) else (kind,)))
    return names if values is None else f"one of {list(values)}", ok, None


def _checker(m: dict, where: str):
    """A function that returns a value that meets m, converted where m's
    kind converts, or raises DomainError naming where."""
    what, ok, convert = _rule(m, where)
    none_ok = m.get("optional", False)

    def check(v):
        if ok(v):
            return v if convert is None else convert(v)
        if v is None and none_ok:
            return v
        raise DomainError(f"{where} must be {what}{' or None' * none_ok}, got {v!r}")
    return check


def _field_checks(cls) -> tuple:
    """(name, default, checker) of each init field of cls.  A default is
    checked here, once, so a field that holds it needs no check."""
    out = []
    for f in dataclasses.fields(cls):
        if f.init:
            check = _checker(f.metadata, f"{cls.__name__}.{f.name}")
            if f.default is not dataclasses.MISSING:
                check(f.default)
            out.append((f.name, f.default, check))
    return tuple(out)


_CHECKS: dict = {}  # class -> _field_checks(class), built on first use


class Checked:
    """Base of the input dataclasses (output records, which only the
    library builds, are not checked): __post_init__ checks each init
    field against its metadata and stores the converted value where there
    is one.  A subclass with cross-field rules checks them after it."""

    def __post_init__(self):
        cls, values = type(self), self.__dict__  # written directly, as the dataclass is frozen
        checks = _CHECKS.get(cls) or _CHECKS.setdefault(cls, _field_checks(cls))
        for name, default, check in checks:
            value = values[name]
            if value is not default:
                checked = check(value)
                if checked is not value:
                    values[name] = checked

