"""Property test of the CLI over its flag values.

Every argv drawn from the bands below ends in one of two ways: exit 0
with finite data values, or exit 1, 2 or 3 with exactly one
`error: Type: message` line on stderr (no traceback, no warning lines).
The bands are those of the model's knobs, energies that include the
thresholds +-1 and values within 1e-15 of them, and small sizes, so that
one draw runs in milliseconds.  The draws are derandomized: the same
argvs run every time.
"""

import contextlib
import io
import json
import math
import re

import pytest

from tridirac import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ERROR_LINE = re.compile(r"error: \w+: [^\n]*\n")


def _log_uniform(lo, hi):
    # 10**u for u uniform in [lo, hi]: every decade of the band gets draws
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


def _number(strategy):
    return strategy.map(lambda v: repr(float(v)))


THRESHOLD = st.sampled_from([-1.0, 1.0])
ENERGY = _number(st.one_of(
    st.floats(-4.0, 4.0),
    THRESHOLD,
    st.builds(lambda t, d: t + d, THRESHOLD, st.floats(-1e-15, 1e-15)),
))
COMMON = st.tuples(
    _number(st.floats(-3.0, 3.0)),
    st.integers(-100, 100).filter(bool).map(str),
    _number(_log_uniform(-5.0, 0.0)),
    _number(_log_uniform(-2.0, 2.0)),
    st.sampled_from(["csv", "json"]),
).map(lambda v: ["--z", v[0], "--kappa", v[1], "--compton", v[2], "--omega", v[3], "--format", v[4]])
SIZE = st.integers(0, 60).map(str)
COUNT = st.integers(1, 9).map(str)


def _grid(flag, start, stop):
    return st.tuples(start, stop, COUNT).map(lambda v: [flag, *v])


ENERGIES = st.one_of(
    ENERGY.map(lambda e: ["--eps", e]),
    st.tuples(_grid("--eps-grid", ENERGY, ENERGY), st.booleans()).map(
        lambda v: v[0] + (["--split"] if v[1] else [])),
)
RADII = _number(_log_uniform(-2.0, 2.0))

COMMANDS = {
    "spectrum": st.tuples(SIZE).map(lambda v: ["--n-max", v[0]]),
    "phase-shift": ENERGIES,
    "coefficients": st.tuples(ENERGIES, SIZE).map(lambda v: v[0] + ["--n-max", v[1]]),
    "green": st.tuples(_number(st.floats(-5.0, 60.0)), _number(st.floats(-4.0, 4.0)),
                       _number(_log_uniform(-14.0, -4.0)), st.integers(1, 20_000).map(str)).map(
        lambda v: ["--zre", v[0], "--zim", v[1], "--tol", v[2], "--depth", v[3]]),
    "density": st.tuples(ENERGY, _grid("--x-grid", _number(st.floats(-2.0, 2.0)), _number(st.floats(-2.0, 2.0))),
                         _number(_log_uniform(-3.0, 1.0))).map(
        lambda v: ["--eps", v[0], *v[1], "--eta", v[2]]),
    "wavefunction": st.tuples(ENERGY, st.integers(1, 60).map(str), _grid("--r-grid", RADII, RADII)).map(
        lambda v: ["--eps", v[0], "--trunc", v[1], *v[2]]),
    "verify": st.tuples(ENERGY, st.integers(0, 60).map(str)).map(lambda v: ["--eps", v[0], "--n", v[1]]),
}


def _data_values(text, fmt):
    if fmt == "json":
        return [v for row in json.loads(text) for v in row.values()]
    return [float(v) for line in text.splitlines()[1:] for v in line.split(",")]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_argv_ends_in_data_or_one_error_line(command):
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(common=COMMON, flags=COMMANDS[command])
    def check(common, flags):
        argv = [command, *common, *flags]
        code, out, err = _run(argv)
        assert code in (0, 1, 2, 3), argv
        if code == 0:
            assert err == "", argv
            assert all(math.isfinite(v) for v in _data_values(out, common[-1])), argv
        else:
            assert out == "", argv
            assert ERROR_LINE.fullmatch(err), (argv, err)

    check()
