"""The three-term recurrence every solution in tridirac comes from,

    B_n u_{n+1} = A_n u_n - C_n u_{n-1},

run forward from two initial values, backward from a trial tail (Miller),
or checked for its residual.  A, B and C are indexable by n (lists of
Python scalars); each family builds its coefficients once and hands them
here.  The functions only add, multiply and divide, so the arithmetic is
the caller's: doubles and complex doubles, or mpmath numbers (build the
coefficients and initial values inside the caller's `mp.workdps`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["forward", "backward", "residual"]


def forward(A, B, C, u0, u1, n_max: int) -> list:
    """u_0..u_{n_max} from the initial values (u_0, u_1); reads A, B and C
    at n = 1..n_max-1."""
    u = [u0, u1]
    for n in range(1, n_max):
        u.append((A[n] * u[n] - C[n] * u[n - 1]) / B[n])
    return u[: n_max + 1]


def backward(A, B, C, top: int, zero, one) -> list:
    """u_0..u_top of the minimal solution, up to scale, by Miller's
    backward recurrence from the trial tail u_{top+1} = zero, u_top = one;
    reads A, B and C at n = 1..top."""
    u = [zero] * (top + 2)
    u[top] = one
    for n in range(top, 0, -1):
        u[n - 1] = (A[n] * u[n] - B[n] * u[n + 1]) / C[n]
    return u[: top + 1]


def residual(A, B, C, u) -> float:
    """Max over the interior rows n = 1..len(u)-2 of
    |A_n u_n - (C_n u_{n-1} + B_n u_{n+1})| / (1 + |A_n u_n|).

    A diverged sequence scores inf, without a warning: any non-finite u_n
    (inf or NaN; v - v is 0 for every finite value, mpmath's included),
    and any row whose score is NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(v - v == 0 for v in u):
            return math.inf
        worst = 0.0
        for n in range(1, len(u) - 1):
            lhs = A[n] * u[n]
            rhs = C[n] * u[n - 1] + B[n] * u[n + 1]
            score = float(abs(lhs - rhs) / (1 + abs(lhs)))
            if score != score:
                return math.inf
            worst = max(worst, score)
    return worst
