"""The library's public surface: what each module exports, and who uses it.

A public function is reached when a name-reference closure over the AST
gets to it.  The closure starts from every name that `cli.py`, the demos
and the benchmark (`perfbench/*.py`, the tracer's `TRACED` table
included) reference.  It then adds the names referenced by each
top-level definition of the library, a function, a class or an assigned
constant, that it has reached by name.  Names are matched bare, so a
collision (a local `residual` reaches `recurrence.residual`) counts as a
use: the closure can only over-count.  A public function outside it is
called only by tests: it belongs in `tests/reference_forms.py`, or in
KEPT with the reason it stays.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tridirac"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

KEPT = {
    "model.negative_energy_map": "criterion 12: the partner map Z -> -Z, kappa -> -kappa, eps -> -eps",
    "spectrum.negative_energy_levels": "criterion 12: the positronic levels through that map",
    "recurrence.residual": "the kernel's own check of a three-term recursion, with its own tests",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(node: ast.AST) -> set:
    """Every bare name and attribute name used under `node`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _definitions() -> dict:
    """name -> the library's top-level definitions of that name."""
    defs = {}
    for module in MODULES:
        for stmt in _parse(SRC / f"{module}.py").body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id != "__all__":
                        defs.setdefault(target.id, []).append(stmt)
    return defs


def _traced_names() -> set:
    """The function names of `perfbench/tracing.py`'s TRACED table, which
    the tracer resolves from strings."""
    for stmt in _parse(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in stmt.targets):
            return {name for names in ast.literal_eval(stmt.value).values() for name in names}
    raise AssertionError("perfbench/tracing.py has no TRACED table")


def _reached() -> set:
    roots = [SRC / "cli.py", *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    pending = set(_traced_names()).union(*(_referenced(_parse(path)) for path in roots))
    defs = _definitions()
    reached = set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defs.get(name, ()):
            pending |= _referenced(node) - reached
    return reached


def _public_functions() -> list:
    return [f"{module}.{stmt.name}" for module in MODULES for stmt in _parse(SRC / f"{module}.py").body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("tridirac" if module == "__init__" else f"tridirac.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_every_public_function_is_reached_or_kept():
    reached = _reached()
    unreached = [name for name in _public_functions() if name.split(".")[1] not in reached and name not in KEPT]
    assert unreached == [], f"public functions that only tests call: {unreached}"


def test_kept_names_are_public_functions():
    assert set(KEPT) <= set(_public_functions())


def _private_definitions(statements: list) -> list:
    """(name, statement) for every top-level private function and
    constant among `statements`."""
    found = []
    for stmt in statements:
        if isinstance(stmt, ast.FunctionDef):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        found += [(name, stmt) for name in names if name.startswith("_") and name != "__all__"]
    return found


def test_every_private_definition_is_referenced():
    # a private helper or constant that no other top-level definition of
    # the library names is dead code, left behind when its caller went
    statements = [stmt for module in MODULES for stmt in _parse(SRC / f"{module}.py").body]
    private = _private_definitions(statements)
    dead = [name for name, own in private
            if not any(name in _referenced(stmt) for stmt in statements if stmt is not own)]
    assert private and dead == [], f"private definitions nothing else references: {dead}"
