"""The sweep rows the benchmark reads keep the fields it reads.

perfbench/workloads.py's keyrate workload iterates the table that
run_sweep returns and reads attributes of its rows.  A change to the row
view would otherwise break only the benchmark's own checks, so the
attributes are read here from the file's syntax tree, without importing
it.
"""

import ast
import dataclasses
from pathlib import Path

from tfqkd import SweepRow

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def row_attributes() -> set:
    """The attributes that KeyrateSweep._sweep reads on its row variables:
    the targets of each loop or comprehension over a name it binds to a
    run_sweep result."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "KeyrateSweep")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "_sweep")
    nodes = list(ast.walk(fn))
    tables = {t.id for n in nodes if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
              and getattr(n.value.func, "attr", None) == "run_sweep"
              for t in n.targets if isinstance(t, ast.Name)}
    rows = {n.target.id for n in nodes if isinstance(n, (ast.For, ast.comprehension))
            and isinstance(n.iter, ast.Name) and n.iter.id in tables
            and isinstance(n.target, ast.Name)}
    return {n.attr for n in nodes if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id in rows}


def test_rows_read_by_the_keyrate_workload_are_sweep_row_fields():
    attributes = row_attributes()
    assert attributes
    assert attributes <= {f.name for f in dataclasses.fields(SweepRow)}
