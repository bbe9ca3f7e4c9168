"""Mutation probe: how many one-site mutants of a module do its tests kill?

    python tools/mutation_probe.py spectrum

The probe copies `src`, `tests` and `pyproject.toml` into a temporary
directory and never writes to the repository.  For each mutation site of
`src/tridirac/<module>.py` it writes the mutant into the copy, runs the
test files (or single tests) that MODULE_TESTS names for the module
with `pytest -x -q`, and counts the mutant killed when pytest fails or
runs past ten times the unmutated run's time.  It prints every surviving
mutant and the kill count, and exits 1 when the unmutated copy fails its
own tests.

One site at a time, it flips + and -, * and /, < and <=, > and >= (in
binary operations, augmented assignments and comparisons), and nudges
numeric constants: an int by +1, a float by a factor 1.01 (0.0 to 0.01).
Each mutant is the module's `ast.unparse` with the one change, so an
unmutated unparse is run first as the baseline.  Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the test files that exercise each module directly (with the argument
# checks of every module); a mutant costs one run of these, not of the
# whole suite
MODULE_TESTS = {
    "_csvtext": ["test_cli.py"],
    "cli": ["test_cli.py"],
    "errors": ["test_cli.py"],
    "model": ["test_model.py"],
    "pollaczek": ["test_pollaczek.py", "test_scattering.py"],
    "recurrence": ["test_recurrence.py", "test_recurrence_properties.py"],
    "resolvent": ["test_resolvent.py", "test_resolvent_properties.py",
                  "test_cli_digests.py::test_outputs_match_pinned_digests"],
    "scattering": ["test_scattering.py"],
    "specfun": ["test_specfun.py"],
    "spectrum": ["test_spectrum.py", "test_acceptance.py", "test_merged_forms.py::test_minimal_solution_defect"],
    # the pinned digests only: the workflow-version test reads .github, which the copy leaves out
    "wavefunction": ["test_wavefunction.py", "test_merged_forms.py", "test_recurrence.py",
                     "test_cli_digests.py::test_outputs_match_pinned_digests"],
}
MODULE_TESTS = {module: files + ["test_argument_checks.py"] for module, files in MODULE_TESTS.items()}

FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _nudge(value):
    if isinstance(value, int):
        return value + 1
    return value * 1.01 if value else 0.01


def _sites(tree: ast.AST) -> list:
    """(node, field index or None) for every mutation site, in ast.walk order."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            sites.append((node, None))
        elif isinstance(node, ast.Compare):
            sites.extend((node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            sites.append((node, None))
    return sites


def _describe(node, index) -> str:
    if isinstance(node, ast.Compare):
        op = node.ops[index]
        return f"{type(op).__name__} -> {FLIPS[type(op)].__name__}"
    if isinstance(node, ast.Constant):
        return f"{node.value!r} -> {_nudge(node.value)!r}"
    return f"{type(node.op).__name__} -> {FLIPS[type(node.op)].__name__}"


def mutant(source: str, site: int) -> tuple:
    """(line, description, mutated source) of one site of `source`."""
    tree = ast.parse(source)
    node, index = _sites(tree)[site]
    description = _describe(node, index)
    if isinstance(node, ast.Compare):
        node.ops[index] = FLIPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value = _nudge(node.value)
    else:
        node.op = FLIPS[type(node.op)]()
    return node.lineno, description, ast.unparse(tree)


def _run(copy: Path, tests: list, timeout) -> tuple:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", choices=sorted(MODULE_TESTS))
    args = parser.parse_args(argv)
    source = (ROOT / "src" / "tridirac" / f"{args.module}.py").read_text()
    count = len(_sites(ast.parse(source)))
    tests = [f"tests/{name}" for name in MODULE_TESTS[args.module]]
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / "src" / "tridirac" / f"{args.module}.py"
        target.write_text(ast.unparse(ast.parse(source)))
        passed, baseline = _run(copy, tests, None)
        if not passed:
            print(f"the unmutated copy fails {' '.join(tests)}; no mutant run", file=sys.stderr)
            return 1
        survivors = []
        for site in range(count):
            line, description, text = mutant(source, site)
            target.write_text(text)
            passed, _ = _run(copy, tests, 10 * baseline + 10)
            if passed:
                survivors.append(f"site {site}: line {line}: {description}")
                print(f"survived: {survivors[-1]}", flush=True)
    print(f"{args.module}: {count - len(survivors)} of {count} mutants killed by {' '.join(tests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
