"""Green function of a symmetric tridiagonal operator as a continued
fraction, with the spectral density recovered by Stieltjes inversion.

Sign convention, fixed once: G(z) = <0|(z - J)^{-1}|0>, so
Im G(x + i eta) <= 0 for eta > 0 and the density is
rho(x) = -Im G(x + i eta) / pi.

The production evaluator is modified Lentz (Thompson & Barnett 1986).
With real a_n and b_n^2 > 0, each level adds to Im c_n and to Im D_n
(d_n = 1/D_n) a term of the sign of Im z, and rounding cannot shrink a
sum of two terms of one sign: both keep the sign of Im z and never fall
below |Im z|.  So where |Im z| > 1e-14 (1 + |z|), the guard on a
vanishing partial denominator cannot fire, and Lentz runs a branch-free
body, settling convergence and the running product once per block of
levels.  Only inside that band (|Im z| at most 1e-14 (1 + |z|), real z
included) does each level test D_n and c_n against that bound: off the
axis a vanishing one takes a 1e-30 floor, on the axis it is reported as
spectrum contact.  The finite truncation G_depth equals the resolvent of
the depth x depth matrix truncation exactly, which is what the
Gauss-quadrature cross-check exploits.

Both evaluators give the same values, bit for bit, as level-by-level
evaluation.  They read the recursion coefficients in blocks of levels
(`RecursionCoefficients.block`), not one map call per level; both Lentz
loops walk the same blocks of 64, 128, 256 and then 512 levels.  Lentz runs
its per-level expressions on Python scalars, and settles each block with
np.hypot on the parts of ratio - 1 and one left-to-right product of the
Python ratios, both rounding as CPython's abs() and * do.  The
truncated fraction sweeps down a block with one subtract and one divide
per level over all points of z, in buffers allocated once per call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import pollaczek, recurrence
from .errors import NoConvergence, SpectrumProximity
from .model import DerivedParams, RecursionCoefficients, energy_point, eps_sq_minus_one, map_to_pollaczek

__all__ = [
    "ResolventEstimate",
    "green_function",
    "green_function_truncated",
    "solution_pair",
    "casoratian",
    "spectral_density",
    "spectral_density_grid",
    "energy_density",
]

_TINY = 1e-30
MAX_DEFAULT_DEPTH = 2_000_000  # levels; the default depth 15/eta of spectral_density_grid stops here
_FIRST_BLOCK = 64  # levels in Lentz's first block; each next block doubles, up to _BLOCK
_BLOCK = 512  # levels per coefficient block
_BLOCK_ELEMS = 16_384  # cap on the elements of one block's 2-D temporaries


@dataclass(frozen=True)
class ResolventEstimate:
    value: complex
    depth: int
    last_delta: float


def _level_blocks(coeffs: RecursionCoefficients, z: complex, max_depth: int):
    """For levels n = 1..max_depth, one (lo, pairs) per block [lo, hi):
    64 levels, then each block twice the last, up to _BLOCK, so a shallow
    fraction does little work past its convergence.  `pairs` zips the
    Python complex pairs (z - a_n, -b_{n-1}^2) of the block, read with one
    `coeffs.block` call.  Python scalars, not numpy ones, so Lentz's
    complex rounding is that of the per-level expressions; complex
    numerators, since CPython widens a float operand to complex anyway and
    complex-complex operations dispatch faster."""
    lo, size = 1, _FIRST_BLOCK
    while lo <= max_depth:
        hi = min(lo + size, max_depth + 1)
        a, b = coeffs.block(lo - 1, hi)
        yield lo, zip((z - a[1:]).tolist(), (-(b[:-1] * b[:-1])).astype(complex).tolist())
        lo, size = hi, min(2 * size, _BLOCK)


def _deltas(ratios: list, tol: float) -> np.ndarray:
    """abs(ratio - 1.0) for each ratio, as CPython computes it: np.hypot
    on the parts rounds as abs() does.  Where a finite ratio's value
    overflows, abs() raises OverflowError; the levels are then redone with
    abs() itself, up to the first that converges."""
    r = np.array(ratios, dtype=complex)
    try:
        with np.errstate(over="raise"):
            return np.hypot(r.real - 1.0, r.imag)
    except FloatingPointError:
        deltas = []
        for ratio in ratios:
            deltas.append(abs(ratio - 1.0))
            if deltas[-1] < tol:
                break
        return np.array(deltas)


def green_function(coeffs: RecursionCoefficients, z, tol: float = 1e-12,
                   max_depth: int = 200_000) -> ResolventEstimate:
    """Evaluate G(z) = 1/(z - a_0 - b_0^2/(z - a_1 - ...)) by modified
    Lentz until the running update |delta - 1| drops below tol.  The
    value, depth and last_delta are those of the level-by-level loop, bit
    for bit.  A partial denominator within 1e-14 (1 + |z|) of zero takes
    a 1e-30 floor off the axis.

    Raises ValueError unless tol is finite and positive, max_depth >= 1
    and 2 (|Re z| + |Im z|) is finite (beyond that the complex division
    1/(z - a_n) overflows inside and returns 0), NoConvergence when
    max_depth is hit first, and SpectrumProximity when a partial
    denominator vanishes (within 1e-14 of the working scale) for real z:
    the argument sits on the spectrum.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    z = complex(z)
    if not math.isfinite(2.0 * (abs(z.real) + abs(z.imag))):
        raise ValueError(f"z must be finite with |Re z| + |Im z| below half the largest double, got {z}")
    on_axis = z.imag == 0.0
    f = z - coeffs.block(0, 1)[0].item()
    small = 1e-14 * (1.0 + abs(z))
    if abs(f) <= small:
        if on_axis:
            raise SpectrumProximity(f"vanishing partial denominator at z={z}")
        f = complex(_TINY)
    c = f
    d = 0.0 + 0.0j
    one = 1.0 + 0.0j
    blocks = _level_blocks(coeffs, z, max_depth)
    if abs(z.imag) <= small:
        for lo, pairs in blocks:
            for depth, (den, num) in enumerate(pairs, lo):
                d_new = den + num * d
                c = den + num / c
                if abs(d_new) <= small or abs(c) <= small:
                    if on_axis:
                        raise SpectrumProximity(f"vanishing partial denominator at depth {depth}, z={z}")
                    d_new = complex(_TINY) if abs(d_new) <= small else d_new
                    c = complex(_TINY) if abs(c) <= small else c
                d = one / d_new
                ratio = c * d
                f = f * ratio
                delta = abs(ratio - 1.0)
                if delta < tol:
                    return ResolventEstimate(value=1.0 / f, depth=depth, last_delta=delta)
    # inside the band the loop above has used up `blocks`, so this one does not run
    for lo, pairs in blocks:
        ratios = []
        append = ratios.append
        for den, num in pairs:
            d = one / (den + num * d)
            c = den + num / c
            append(c * d)
        deltas = _deltas(ratios, tol)
        hits = np.flatnonzero(deltas < tol)
        if hits.size:
            k = int(hits[0])
            f = reduce(operator.mul, ratios[:k + 1], f)
            return ResolventEstimate(value=1.0 / f, depth=lo + k, last_delta=float(deltas[k]))
        f = reduce(operator.mul, ratios, f)
    raise NoConvergence(f"continued fraction did not reach tol={tol} within depth {max_depth}")


def green_function_truncated(coeffs: RecursionCoefficients, z, depth: int):
    """Finite continued fraction with the tail dropped after `depth`
    levels; identical to <0|(z - J_depth)^{-1}|0> for the depth x depth
    truncation J_depth.  `z` may be a scalar or an ndarray (vectorized
    backward evaluation; the result keeps the shape of `z`)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    tail = np.zeros_like(flat)
    den = np.empty_like(flat)
    levels = max(1, min(_BLOCK, _BLOCK_ELEMS // max(1, flat.size)))
    # z - a_k for one block of levels, written in place: a fresh block per
    # pass would be a fresh allocation above malloc's mmap threshold
    shifted = np.empty((min(levels, depth - 1), flat.size), dtype=complex)
    # level k (a_k, b_{k-1}) for k = depth-1 .. 1, one block of levels at a time
    for hi in range(depth, 1, -levels):
        lo = max(1, hi - levels)
        a, b = coeffs.block(lo - 1, hi)
        rows = np.subtract(flat, a[1:, None], out=shifted[:hi - lo])
        # complex numerators, so np.divide needs no cast per level
        squares = (b[:-1] * b[:-1]).astype(complex).tolist()
        for row, square in zip(rows[::-1], squares[::-1]):
            np.subtract(row, tail, out=den)
            np.divide(square, den, out=tail)
    out = 1.0 / (flat - coeffs.block(0, 1)[0] - tail)
    return complex(out[0]) if np.isscalar(z) or zs.ndim == 0 else out.reshape(zs.shape)


def solution_pair(coeffs: RecursionCoefficients, z, n_max: int):
    """The two solutions (P_n(z), P*_n(z)) of the symmetric recursion
    z u_n = a_n u_n + b_{n-1} u_{n-1} + b_n u_{n+1} with the polynomial
    initials (1, (z-a_0)/b_0) and the associated initials (0, 1/b_0).
    Their ratio P*_n/P_n tends to G(z) off the real axis.  On
    `pollaczek.jacobi_coefficients(params)` they are the orthonormal
    Pollaczek values p_n/p_0 and their associated solution."""
    z = complex(z)
    a, b = (v.tolist() for v in coeffs.block(0, max(1, n_max)))
    A = [z - an for an in a]
    C = [0.0] + b[:-1]
    p = recurrence.forward(A, b, C, 1.0 + 0.0j, A[0] / b[0], n_max)
    q = recurrence.forward(A, b, C, 0.0 + 0.0j, 1.0 / b[0], n_max)
    return np.array(p), np.array(q)


def casoratian(coeffs: RecursionCoefficients, first, second):
    """b_n (P_n P*_{n+1} - P_{n+1} P*_n) for n = 0..len-2; constant
    (equal to 1 for the solution_pair initials) when both sequences
    solve the same recursion."""
    b = coeffs.block(0, len(first) - 1)[1]
    first = np.asarray(first)
    second = np.asarray(second)
    return b * (first[:-1] * second[1:] - first[1:] * second[:-1])


def spectral_density(coeffs: RecursionCoefficients, x: float, eta: float,
                     tol: float = 1e-9, max_depth: int = 400_000) -> float:
    """rho_eta(x) = -Im G(x + i eta) / pi for eta > 0.  Raises ValueError
    for eta <= 0 and for a tol/max_depth budget that green_function
    rejects."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    est = green_function(coeffs, complex(x, eta), tol=tol, max_depth=max_depth)
    return -est.value.imag / math.pi


def spectral_density_grid(coeffs: RecursionCoefficients, xs, eta: float,
                          depth: int | None = None):
    """Vectorized fixed-depth density scan.  The default depth,
    max(4000, 15/eta) levels, keeps the truncation error of the smeared
    density below ~1e-6 for operators with bounded spectrum; pass an
    explicit depth for unbounded families.  Raises ValueError for
    eta <= 0, and when the default depth would exceed MAX_DEFAULT_DEPTH
    (eta below 7.5e-6), which would take minutes to hours; an explicit
    depth is not limited."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    xs = np.asarray(xs, dtype=float)
    if depth is None:
        levels = 15.0 / eta
        if levels > MAX_DEFAULT_DEPTH:
            raise ValueError(f"eta={eta!r} needs a default depth of {levels:.3g} levels, "
                             f"above the limit of {MAX_DEFAULT_DEPTH} levels")
        depth = max(4000, int(levels))
    g = green_function_truncated(coeffs, xs + 1j * eta, depth)
    return -np.imag(g) / math.pi


def energy_density(d: DerivedParams, eps: float, eta: float) -> tuple[float, float]:
    """Density translated to the energy variable: the x-variable density
    (Lentz to 1e-9) of the energy's own polynomial parameter set times the
    exact Jacobian of the map x = (s - beta^2)/(s + beta^2), s = eps^2 - 1,

        |dx/d eps| = 4 |eps| beta^2 / (s + beta^2)^2.

    Returns (rho_x at x(eps), rho_eps)."""
    pol = map_to_pollaczek(d, energy_point(eps))
    params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
    rho_x = spectral_density(pollaczek.jacobi_coefficients(params), pol.x, eta, tol=1e-9)
    beta_sq = d.beta * d.beta
    jac = 4.0 * abs(eps) * beta_sq / (eps_sq_minus_one(eps) + beta_sq) ** 2
    return rho_x, rho_x * jac
