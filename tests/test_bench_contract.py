"""What the benchmark's tracer needs from the library.

`perfbench/tracing.py` resolves every name in its `TRACED` table with
`getattr` and binds the arguments of a few of them by parameter name, so
renaming or deleting one of those makes `perfbench/run.py --trace 1`
crash.  These checks fail first.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from tridirac import resolvent, specfun, wavefunction

ROOT = Path(__file__).resolve().parents[1]

# the parameters that the tracer's work counters read, per traced function
HOOK_PARAMETERS = [
    (specfun.laguerre, {"n", "x"}),
    (specfun.hyp2f1_terminating, {"n"}),
    (wavefunction.coefficients_bound_state, {"n_max", "guard"}),
    (resolvent.green_function_truncated, {"z", "depth"}),
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.leftover_references() == []
    finally:
        tracer.uninstall()
    assert not hasattr(specfun.laguerre, "__wrapped__")


@pytest.mark.parametrize("fn, names", HOOK_PARAMETERS, ids=[fn.__name__ for fn, _ in HOOK_PARAMETERS])
def test_hook_parameters_exist(fn, names):
    assert names <= set(inspect.signature(fn).parameters)
