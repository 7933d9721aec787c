"""The names the benchmark's instrumentation wraps still exist.

``bench/instrument.py`` finds each boundary it wraps by attribute name,
as a ``"module.attribute"`` string constant, and the Tracer replaces
fields of each ``Problem`` that ``get_problem`` returns.  A boundary that
no longer resolves is reported absent and its metrics are left out, so a
refactor that renames or removes one would blind a layer of the
benchmark without failing it.  This reads the module's source, without
importing it, and fails such a refactor here.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from mgdkit import Problem

INSTRUMENT = Path(__file__).resolve().parent.parent / "bench" / "instrument.py"


def _tree():
    return ast.parse(INSTRUMENT.read_text())


def _targets() -> dict:
    """{constant name: "mgdkit.module.attribute"} of the module-level string constants."""
    return {
        node.targets[0].id: node.value.value
        for node in _tree().body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and node.value.value.startswith("mgdkit.")
    }


def _replaced_fields() -> set:
    """The string keys the Tracer puts in its ``changes`` for dataclasses.replace."""
    keys = set()
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(isinstance(t, ast.Name) and t.id == "changes" for t in node.targets):
                keys |= {k.value for k in node.value.keys if isinstance(k, ast.Constant)}
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id == "changes" and isinstance(node.slice, ast.Constant):
                keys.add(node.slice.value)
    return keys


def test_every_wrapped_boundary_resolves():
    targets = _targets()
    assert len(targets) >= 15, targets
    missing = []
    for name, target in sorted(targets.items()):
        module_name, attr = target.rsplit(".", 1)
        if not hasattr(importlib.import_module(module_name), attr):
            missing.append(f"{name} = {target!r}")
    assert missing == []


def test_replaced_problem_fields_exist():
    fields = {f.name for f in dataclasses.fields(Problem)}
    replaced = _replaced_fields()
    assert {"evaluator", "f_batch"} <= replaced
    assert replaced <= fields
