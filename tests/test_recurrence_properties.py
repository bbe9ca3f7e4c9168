"""Invariants of the three-term recurrence kernel over random
parameters of the symmetrized Pollaczek recursion in its oscillatory
band |x| < 1.

Near the band edges, with a and b pushing the diagonal outward, both
solutions grow for the first levels (to ~1e3 at |x| = 0.95, a = 0.5) and
the Casoratian drifts by roundoff times that growth.  The 1e-9 check
therefore draws |x| <= 0.9; the drift bound scaled by the growth holds
out to |x| = 0.99.
"""

import mpmath as mp
import numpy as np
import pytest

from tridirac import recurrence

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


BAND = dict(
    lam=st.floats(0.5, 3.0),
    a=st.floats(0.0, 0.5),
    b=st.floats(-0.5, 0.5),
    x=st.floats(-0.9, 0.9),
)
EDGE = dict(BAND, x=st.floats(-0.99, 0.99))
N = 200


def symmetric_coefficients(lam, a, b, x, rows):
    """(A, B, C) of b_n u_{n+1} = [(n+lam+a)x + b] u_n - b_{n-1} u_{n-1}."""
    n = np.arange(rows, dtype=float)
    off = (0.5 * np.sqrt((n + 1.0) * (n + 2.0 * lam))).tolist()
    return [d * x + b for d in (n + lam + a).tolist()], off, [0.0] + off[:-1]


def pair_casoratian(lam, a, b, x):
    """The Casoratian b_n (u_n v_{n+1} - u_{n+1} v_n) of the forward pair
    u from (1, A_0/b_0) and v from (0, 1/b_0), which is 1 in exact
    arithmetic, and the largest b_n |u_n v_{n+1}| it is taken from."""
    A, B, C = symmetric_coefficients(lam, a, b, x, N)
    u = np.array(recurrence.forward(A, B, C, 1.0, A[0] / B[0], N))
    v = np.array(recurrence.forward(A, B, C, 0.0, 1.0 / B[0], N))
    return np.array(B) * (u[:-1] * v[1:] - u[1:] * v[:-1]), np.max(np.array(B) * np.abs(u[:-1] * v[1:]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**BAND)
def test_casoratian_of_forward_pair_is_constant(lam, a, b, x):
    w, _ = pair_casoratian(lam, a, b, x)
    assert w[0] == pytest.approx(1.0, rel=1e-15)
    assert np.max(np.abs(w / w[0] - 1.0)) < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**EDGE)
def test_casoratian_drift_is_roundoff_times_growth(lam, a, b, x):
    w, size = pair_casoratian(lam, a, b, x)
    assert np.max(np.abs(w / w[0] - 1.0)) <= N * np.finfo(float).eps * size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**BAND)
def test_residual_of_forward_sequence_is_roundoff(lam, a, b, x):
    A, B, C = symmetric_coefficients(lam, a, b, x, 300)
    u = recurrence.forward(A, B, C, 1.0, A[0] / B[0], 300)
    assert recurrence.residual(A, B, C, u) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(**BAND, top=st.integers(1, 60))
def test_mpmath_in_mpmath_out(lam, a, b, x, top):
    with mp.workdps(30):
        A, B, C = symmetric_coefficients(lam, a, b, mp.mpf(x), top + 1)
        ahead = recurrence.forward(A, B, C, mp.mpf(1), A[0] / B[0], top)
        back = recurrence.backward(A, B, C, top, mp.mpf(0), mp.mpf(1))
    assert len(ahead) == len(back) == top + 1
    assert all(isinstance(v, mp.mpf) for v in ahead + back)
    assert isinstance(recurrence.residual(A, B, C, ahead), float)
