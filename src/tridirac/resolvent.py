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
body.  Only inside that band (|Im z| at most 1e-14 (1 + |z|), real z
included) does each level test D_n and c_n against that bound: off the
axis a vanishing one takes a 1e-30 floor, on the axis the block stops
there, and the level is reported as spectrum contact unless an earlier
level of the block has converged.  The finite truncation G_depth equals
the resolvent of the depth x depth matrix truncation exactly, which is
what the Gauss-quadrature cross-check exploits.

Lentz gives the same value, depth and last_delta, bit for bit, as
level-by-level evaluation.  Both evaluators read the recursion
coefficients in blocks of levels (`RecursionCoefficients.block`), not one
map call per level; Lentz's blocks hold about sqrt(240 n) levels from
level n, 32 to 512.  Either loop body collects a block's ratios as
Python scalars, and one settle step serves both: np.hypot on the parts
of ratio - 1 finds the first converged level, and one left-to-right
product of the ratios up to it updates f, both rounding as CPython's
abs() and * do.

The truncated fraction is a product of 2x2 level matrices
M_k = [[0, s_k], [-1, z - a_k]], s_k = b_{k-1}^2, acting as Mobius maps
t -> s_k / (z - a_k - t) on the tail t (Jones & Thron 1980, section 2.1).
`green_function_truncated` cuts the levels into chunks and builds the
chunks' matrices side by side, a multiply-add per level and no division;
only the deepest chunk is run as one vector from the known tail.  It then
applies the chunk maps to the tail, deepest first.  It matches the
level-by-level sweep to rounding, not bit for bit.
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
    "spectral_density",
    "spectral_density_grid",
    "energy_density",
]

_TINY = 1e-30
MAX_DEFAULT_DEPTH = 2_000_000  # levels; the default depth 15/eta of spectral_density_grid stops here
_MIN_BLOCK = 32  # levels in Lentz's first block
_BLOCK = 512  # most levels in one Lentz block
_STATE_ELEMS = 8_192  # cap on rows x points of the truncated fraction's state; points are tiled to fit
_MIN_CHUNKS = 4  # a tile with room for fewer chunks than this runs the tail vector alone
_GROUP_LEVELS = 4_096  # cap on the levels of one group of chunks of the truncated fraction
_SCALE_BITS = 960  # the truncated fraction's state is rescaled before its bound passes 2**960 or 2**-960


@dataclass(frozen=True)
class ResolventEstimate:
    value: complex
    depth: int
    last_delta: float


def _level_blocks(coeffs: RecursionCoefficients, z: complex, max_depth: int):
    """For levels n = 1..max_depth, one (lo, pairs) per block [lo, hi)
    of about sqrt(240 lo) levels, at least _MIN_BLOCK and at most _BLOCK.
    Reading and settling a block costs about as much as 60 levels, and a
    fraction that converges inside a block runs on to its end: blocks of
    sqrt(4 x 60 x lo) levels keep the sum of both costs near its least,
    about sqrt(240 depth) levels.  `pairs` zips the Python complex pairs
    (z - a_n, -b_{n-1}^2) of the block, read with one `coeffs.block`
    call.  Python scalars, not numpy ones, so Lentz's complex rounding is
    that of the per-level expressions; complex numerators, since CPython
    widens a float operand to complex anyway and complex-complex
    operations dispatch faster."""
    lo = 1
    while lo <= max_depth:
        hi = min(lo + min(_BLOCK, max(_MIN_BLOCK, math.isqrt(240 * lo))), max_depth + 1)
        a, b = coeffs.block(lo - 1, hi)
        yield lo, zip((z - a[1:]).tolist(), (-(b[:-1] * b[:-1])).astype(complex).tolist())
        lo = hi


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
    band = abs(z.imag) <= small
    vanished = None
    for lo, pairs in _level_blocks(coeffs, z, max_depth):
        ratios = []
        append = ratios.append
        if band:
            for depth, (den, num) in enumerate(pairs, lo):
                d_new = den + num * d
                c = den + num / c
                if abs(d_new) <= small or abs(c) <= small:
                    if on_axis:
                        vanished = depth
                        break
                    d_new = complex(_TINY) if abs(d_new) <= small else d_new
                    c = complex(_TINY) if abs(c) <= small else c
                d = one / d_new
                append(c * d)
        else:
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
        if vanished is not None:
            raise SpectrumProximity(f"vanishing partial denominator at depth {vanished}, z={z}")
        f = reduce(operator.mul, ratios, f)
    raise NoConvergence(f"continued fraction did not reach tol={tol} within depth {max_depth}")


def _normalise(p, q):
    """Scale, per point, each chunk's matrix (rows 2j and 2j+1 of p and q)
    and the tail vector (the last row) by a power of two so that its
    largest real or imaginary part lies in [1/16, 1/8).  The scale is
    exact and leaves the Mobius map as it is; the headroom keeps one step
    finite for any finite z - a_k."""
    parts = np.abs(p.view(float))
    np.maximum(parts, np.abs(q.view(float)), out=parts)
    big = np.maximum(parts[:, 0::2], parts[:, 1::2])
    np.maximum(big[:-1:2], big[1::2], out=big[:-1:2])
    big[1::2] = big[:-1:2]
    scale = np.ldexp(1.0, -3 - np.maximum(np.frexp(big)[1], -1021))
    p *= scale
    q *= scale


def _fixed_points(w, s):
    """The two fixed points (w + d)/2 and (w - d)/2 of t -> s/(w - t),
    d = sqrt(w^2 - 4s), for the (chunks, points) array w and the per-chunk
    s.  Where they nearly coincide, or d would overflow, they are pulled
    apart to d = h/16, h = |w| + 2 sqrt(s): any two distinct points span
    the tail, and these keep the basis well conditioned."""
    h = np.abs(w)
    h += 2.0 * np.sqrt(s)[:, None]
    np.maximum(h, np.finfo(float).tiny, out=h)
    d = w / h
    d *= d
    d -= 4.0 * (s[:, None] / h) / h
    np.sqrt(d, out=d)
    d *= h
    h /= 16.0
    np.copyto(d, h, where=np.abs(d) < h)
    d *= 0.5
    w = 0.5 * w
    return w + d, w - d


def _chunk_shape(levels: int, points: int) -> tuple[int, int, int]:
    """(points per tile, levels per chunk, chunks per group) for a
    fraction of `levels` >= 1 levels below level 0 over `points` >= 1
    points.  A tile's 2 chunks - 1 rows x points stay within _STATE_ELEMS
    and a group's chunks x length levels within _GROUP_LEVELS.  Few points
    leave room for many chunks, which share each numpy call of a step, and
    a chunk of about sqrt(levels) levels balances the steps, one per level
    of a chunk, against the chunk maps folded one by one.  Where fewer
    than _MIN_CHUNKS chunks would fit (from 1,171 points on), a tile holds
    the tail vector alone: its steps then scale by one coefficient, not by
    one per row, which numpy does faster, and that outweighs the calls a
    few chunks would share."""
    width = min(points, _STATE_ELEMS)
    most = (_STATE_ELEMS // width + 1) // 2
    if most < _MIN_CHUNKS:
        most = 1
    first = min(levels, _GROUP_LEVELS)
    length = max(math.isqrt(first - 1) + 1, -(-first // most))
    return width, length, min(most, -(-levels // length), _GROUP_LEVELS // length)


def _truncated_tail(coeffs: RecursionCoefficients, z: np.ndarray, depth: int) -> np.ndarray:
    """The tail t_1 = s_1/(z - a_1 - s_2/(z - a_2 - ... s_{depth-1}/(z - a_{depth-1}))),
    0 for depth 1, at every point of the 1-D array z.

    Levels 1..depth-1 fall into groups of `chunks` chunks of `length`
    levels, taken deepest first; the deepest group holds the remainder,
    and its deepest chunk is padded with levels s = 0, which map every t
    to 0, the zero tail of the cut fraction: the tail vector enters at
    (0, 1) after them.  Within a group, each chunk but the deepest carries
    two columns, started at the fixed points of the level below it (in
    the spectrum the maps rotate about these points, and a basis far from
    them loses digits); the deepest chunk carries one vector, started at
    the group's tail.  One step moves every column up one level at once,
    (p, q) <- (s q, (z - a) q - p), then the chunk maps fold into the
    tail.  `_chunk_shape` bounds the state and the levels read per
    group, the points taken in tiles if needed, so memory does not grow
    with depth.  A level grows the state by at most 1 + s + |a| + max|z|,
    at most 4 max(1, s, |a|, max|z|) = 2**g, and shrinks it by at most s
    over that, 2**-h; with e the group's largest g or h, the state is
    rescaled every _SCALE_BITS // e steps and where the tail vector
    enters, so neither bound passes 2**_SCALE_BITS.  A power-of-two
    rescale commutes with the step, so where it happens changes no
    value."""
    tail = np.zeros_like(z)
    levels = depth - 1
    if levels == 0 or z.size == 0:
        return tail
    width, length, chunks = _chunk_shape(levels, z.size)
    span = chunks * length
    zmax = float(np.abs(z).max())
    p, q, w, zrows = (np.empty((2 * chunks - 1, width), dtype=complex) for _ in range(4))
    s = np.empty(span)
    a = np.empty(span)
    hi = depth
    lo = depth - 1 - (levels - 1) % span
    while hi > 1:
        count = hi - lo
        k = -(-count // length)
        rows = 2 * k - 1
        pad = k * length - count
        block_a, block_b = coeffs.block(lo - 1, hi)
        s[:count] = block_b[:-1] * block_b[:-1]
        a[:count] = block_a[1:]
        s[count:] = 0.0
        a[count:] = 0.0
        sk, ak = s[:k * length], a[:k * length]
        grow = np.frexp(np.maximum(np.maximum(sk, np.abs(ak)), max(zmax, 1.0)))[1] + 2
        every = max(1, _SCALE_BITS // int((grow + np.maximum(0, 1 - np.frexp(sk)[1])).max()))
        # (step, chunk): step i of chunk j is level lo + j length + length - 1 - i
        s_steps = sk.reshape(k, length)[:, ::-1].T
        a_steps = ak.reshape(k, length)[:, ::-1].T
        s_rows = np.repeat(s_steps, 2, axis=1)[:, :rows, None]
        a_rows = np.repeat(a_steps, 2, axis=1)[:, :rows, None]
        below = slice(length, k * length, length)  # the level below chunk j, j < k - 1
        for start in range(0, z.size, width):
            zt = z[start:start + width]
            tt = tail[start:start + width]
            pv, qv, wv, zv = (x[:rows, :zt.size] for x in (p, q, w, zrows))
            zv[...] = zt
            plus, minus = _fixed_points(zt - a[below, None], s[below])
            pv[:-1:2] = plus
            pv[1:-1:2] = minus
            pv[-1] = 0.0
            qv[...] = 1.0
            for i in range(length):
                if i == pad:
                    pv[-1] = tt
                    qv[-1] = 1.0
                if i == pad or i % every == 0:
                    _normalise(pv, qv)
                np.subtract(zv, a_rows[i], out=wv)
                np.multiply(wv, qv, out=wv)
                np.subtract(wv, pv, out=wv)
                np.multiply(qv, s_rows[i], out=pv)
                qv, wv = wv, qv
            _normalise(pv, qv)
            t = pv[-1] / qv[-1]
            for j in range(k - 2, -1, -1):
                # (t, 1) = (t - minus) (plus, 1) + (plus - t) (minus, 1), over plus - minus
                up, down = t - minus[j], plus[j] - t
                t = (pv[2 * j] * up + pv[2 * j + 1] * down) / (qv[2 * j] * up + qv[2 * j + 1] * down)
            tt[...] = t
        hi, lo = lo, lo - span
    return tail


def green_function_truncated(coeffs: RecursionCoefficients, z, depth: int):
    """Finite continued fraction with the tail dropped after `depth`
    levels; <0|(z - J_depth)^{-1}|0> for the depth x depth truncation
    J_depth, to rounding.  `z` may be a scalar or an ndarray of any shape
    (the result keeps the shape of `z`).  The levels are composed in
    chunks as 2x2 Mobius matrices (see `_truncated_tail`), so the result
    agrees with the level-by-level sweep t_k = s_k/(z - a_k - t_{k+1}) to
    rounding, not bit for bit."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    zs = np.asarray(z, dtype=complex)
    flat = zs.reshape(-1)
    out = 1.0 / (flat - coeffs.block(0, 1)[0] - _truncated_tail(coeffs, flat, depth))
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
