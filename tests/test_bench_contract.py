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

from tridirac import cli, resolvent, specfun, wavefunction

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


def test_verify_path_reports_its_spans(tracing, capsys):
    # `verify --n 20` builds the rule of order n + 6 for its matrix and of
    # order min(n, 20) + 6 for its Gram matrix; a refactor of that path must
    # not leave the `basis` workload's per-layer counters at zero
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "1.3", "--n", "20"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().err == ""
    for name in ("specfun.gauss_laguerre_rule", "specfun.tridiag_eigen_first_row",
                 "wavefunction.verify_tridiagonal", "wavefunction.gram_matrix"):
        assert tracer.spans[name].calls > 0, name
    assert tracer.spans["specfun.tridiag_eigen_first_row"].counts["order_sum"] == 26 + 26


def test_bound_state_path_reports_its_counters(tracing, capsys):
    # the `basis` workload's bound op: one backward pass of trunc + guard
    # steps with the default guard of 40, which the tracer reads from the
    # call's arguments
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--omega", "1.0",
                         "--eps", "0.9999218352839324", "--trunc", "64", "--r-grid", "0.5", "60", "500"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().err == ""
    span = tracer.spans["wavefunction.coefficients_bound_state"]
    assert span.calls == 1
    assert span.counts["guard_steps"] == 40 and span.counts["backward_steps"] == 104


def test_closed_form_path_reports_its_spans(tracing, capsys):
    # the `sweep` workload's coefficients op forms its Pochhammer factors
    # in one specfun.pochhammer call, a running product with no log-Gamma;
    # its phase-shift op takes every Gamma phase from one array
    # specfun.log_gamma call
    desk = ["--z", "-1", "--kappa", "1"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["coefficients", *desk, "--compton", "0.05", "--eps", "1.3", "--n-max", "150"])
        assert code == 0 and capsys.readouterr().err == ""
        assert tracer.spans["specfun.pochhammer"].calls == 1
        assert "specfun.log_gamma" not in tracer.spans
        code = cli.main(["phase-shift", *desk, "--compton", "0.02", "--eps-grid", "1.01", "3.0", "2000"])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().err == ""
    assert tracer.spans["specfun.log_gamma"].calls == 1
