"""The names the benchmark's span tracer patches stay where it looks.

perfbench/tracing.py wraps each module-level function that its SPANNED
and COUNTED tuples name as "<module>.<function>" of tfqkd, and the func
and averaged_func fields of each Spectrum.  A rename would otherwise
break only the traced benchmark run, so the two tuples are read here
from the file's syntax tree, without importing it.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from tfqkd.spectra import Spectrum

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> dict:
    """The literal values of SPANNED and COUNTED in tracing.py, by name."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")}


NAMES = traced_names()


def test_both_tuples_are_read():
    assert set(NAMES) == {"SPANNED", "COUNTED"}
    assert all(isinstance(names, tuple) and names for names in NAMES.values())


@pytest.mark.parametrize("target", NAMES["SPANNED"] + NAMES["COUNTED"])
def test_each_name_is_a_function_of_its_module(target):
    mod_name, fn_name = target.split(".")
    module = importlib.import_module(f"tfqkd.{mod_name}")
    fn = getattr(module, fn_name, None)
    assert inspect.isfunction(fn), target
    assert (fn.__module__, fn.__qualname__) == (module.__name__, fn_name)


def test_spectrum_keeps_the_fields_the_tracer_wraps():
    init_fields = {f.name for f in dataclasses.fields(Spectrum) if f.init}
    assert {"func", "averaged_func"} <= init_fields
