"""The field contract: how a number enters and leaves the public API.

Each init field of an input dataclass and each argument of a public
function declares what it takes once, as metadata made by spec, and
the YAML configuration checks each leaf with that field's checker, so
all three accept the same values; _scalars is every function's exit.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import sys
from numbers import Integral, Real

import numpy as np

from .errors import DomainError

__all__: list = []  # private: the package exports none of it

_BOUNDS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}  # a bound's sign in messages


def spec(kind, **rules) -> dict:
    """Field metadata.  kind is float (a real number, checked as the float
    it converts to), int, bool, str, tuple (a tuple, or a list or 1-d
    ndarray converted to one), an enum (a member, or its value converted
    to it), or the dataclass, or a tuple of them, of which the value is
    an instance.  A number takes the bounds gt or ge (an open or a closed
    lower end) and lt or le, within +-the largest float unless
    finite=False; with array=True a real may also be a numeric ndarray,
    or a list or tuple converted to one, whose min and max are checked.
    A str may take values, the strings it must be one of; a tuple takes
    item, the spec of each entry, and may take nonempty.  optional=True
    admits None."""
    return {"kind": kind, **rules}


def part(cls):
    """A field that holds a cls, cls() by default."""
    return dataclasses.field(default_factory=cls, metadata=spec(cls))


def _scalars(obj):
    """obj with each 0-d result turned into a Python scalar: a dataclass
    field by field, or a bare array; anything of higher rank is returned
    as it is.  Every public function returns its numbers through it, so
    a number in gives Python floats out and an array in gives arrays."""
    if type(obj) is np.ndarray and obj.ndim:
        return obj
    if dataclasses.is_dataclass(obj):
        points = {k: np.asarray(v).item() for k, v in vars(obj).items()
                  if not (type(v) is np.ndarray and v.ndim) and np.ndim(v) == 0}
        return dataclasses.replace(obj, **points) if points else obj
    return np.asarray(obj).item() if np.ndim(obj) == 0 else obj


def _within(x, lo: float, hi: float, lo_open: bool = False, hi_open: bool = False) -> bool:
    """Whether every entry of x, a number or an array, lies between lo and
    hi, each end included unless lo_open or hi_open.  NaN lies in no
    range, and an empty array in every one."""
    x = np.asarray(x)
    if not x.size:
        return True
    # NaN if any entry is
    x_lo, x_hi = np.minimum.reduce(x, axis=None), np.maximum.reduce(x, axis=None)
    return bool((lo < x_lo if lo_open else lo <= x_lo) and (x_hi < hi if hi_open else x_hi <= hi))


def _number(m: dict):
    """(description, predicate, conversion or None) of a number's metadata."""
    finite, array, real = m.get("finite", True), m.get("array", False), m["kind"] is float
    end = sys.float_info.max if finite else math.inf
    lo, hi = m.get("gt", m.get("ge", -end)), m.get("lt", m.get("le", end))
    lo_open, hi_open = "gt" in m, "lt" in m
    fast, number = (float, Real) if real else (int, Integral)

    def ok(v):
        if type(v) is fast:  # the common case, without a call
            return (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)
        if array and type(v) in (np.ndarray, list, tuple):
            v = np.asarray(v)
            return v.dtype.kind in "fiu" and _within(v, lo, hi, lo_open, hi_open)
        # np.bool_ is neither Real nor Integral; a number is checked as the float
        # or int it converts to
        return isinstance(v, number) and not isinstance(v, bool) and ok(fast(v))
    what = ("a finite number" if finite else "a number") if real else "an integer"
    return what + " or numeric array" * array + " and".join(
        f" {_BOUNDS[k]} {m[k]}" for k in _BOUNDS if k in m), ok, \
        (lambda v: np.asarray(v) if type(v) in (list, tuple) else v) if array else None


def _rule(m: dict, where: str):
    """(description, predicate, conversion or None) of a field's metadata."""
    kind, values = m["kind"], m.get("values")
    if kind is float or kind is int:
        return _number(m)
    if kind is tuple:
        item, least = _checker(m["item"], where + " entry"), int(m.get("nonempty", False))

        def ok(v):
            return (isinstance(v, (tuple, list)) or type(v) is np.ndarray and v.ndim == 1) \
                and len(v) >= least
        return ("a non-empty tuple or list" if least else "a tuple or list"), ok, \
            lambda v: tuple(map(item, v.tolist() if type(v) is np.ndarray else v))
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
        try:
            met = ok(v)
        except (ValueError, OverflowError):  # a ragged list; an integer that no float holds
            met = False
        if met:
            return v if convert is None else convert(v)
        if v is None and none_ok:
            return v
        raise DomainError(f"{where} must be {what}{' or None' * none_ok}, got {v!r}")
    return check


@functools.cache
def _field_checks(cls) -> tuple:
    """(name, default, checker) of each init field of cls, built on first
    use.  A default is checked here, once, so a field that holds it needs
    no check."""
    out = []
    for f in dataclasses.fields(cls):
        if f.init:
            check = _checker(f.metadata, f"{cls.__name__}.{f.name}")
            if f.default is not dataclasses.MISSING:
                check(f.default)
            out.append((f.name, f.default, check))
    return tuple(out)


class Checked:
    """Base of the input dataclasses (output records, which only the
    library builds, are not checked): __post_init__ checks each init
    field against its metadata and stores the converted value where there
    is one.  A subclass with cross-field rules checks them after it."""

    def __post_init__(self):
        values = self.__dict__  # written directly, as the dataclass is frozen
        for name, default, check in _field_checks(type(self)):
            if values[name] is not default:
                values[name] = check(values[name])

