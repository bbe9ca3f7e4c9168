"""Green function of a symmetric tridiagonal operator as a continued
fraction, with the spectral density recovered by Stieltjes inversion.

Sign convention, fixed once: G(z) = <0|(z - J)^{-1}|0>, so
Im G(x + i eta) <= 0 for eta > 0 and the density is
rho(x) = -Im G(x + i eta) / pi.

The fraction is a product of 2x2 level matrices, Mobius maps of the tail
(Jones & Thron 1980, section 2.1), cut into chunks whose maps are built
side by side, a multiply-add per level, from coefficient blocks, so
memory does not grow with depth.  Both evaluators fold the row of the
deepest level back through the chunk maps to level 0 (`_fold_back`) and
form the value at the scale 2**-e0 of level 0, where the tail may pass
the largest double though G does not.

`green_function` runs to the depth at which Lentz's update |Delta_n - 1|
first falls below tol (Thompson & Barnett 1986).  One forward pass of the
convergents finds that depth from their Casoratian, with no division and
no difference of nearly equal numbers (`_depth_group`).  With real a_n
and b_n^2 > 0, each level adds to Im(A_n/A_{n-1}) and Im(B_n/B_{n-1}) a
term of the sign of Im z, and rounding cannot shrink a sum of two terms
of one sign, so off the axis no convergent vanishes against the one
before it; on the axis one that does, to within 1e-14 (1 + |z|), is
spectrum contact.  The same pass keeps its chunk maps, composed to one
per group of chunks, and the value is the stopping level's row folded
back through them to level 0: backward, as the tail is applied, since
the forward ratio B_n/A_n of the pass loses digits at depth (1e-11 to
5e-11 at 139,000 levels, where the fold loses 2e-13).  G_depth is the
resolvent of the depth x depth matrix truncation (the Gauss-quadrature
cross-check).

`green_function_truncated` evaluates at a fixed depth, with no stop
test, over an array of points (`_truncated_rows`).  It shares the fold and
the scale 2**-e0 with the depth pass but builds its chunk maps in a sweep
of its own, from each chunk's deep end in a basis near the tail, which
keeps the accuracy of the level-by-level sweep in the spectrum.
`spectral_density_grid` runs the same sweep, but closes the fraction with
the tail of the constant chain through its deepest level, the attracting
fixed point the sweep already seeds each chunk with, in place of 0
(Haydock, Heine & Kelly 1975): at finite eta the same accuracy as the
zero tail from 2.5 to 4 times fewer levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pollaczek, recurrence
from .errors import NoConvergence, SpectrumProximity
from .model import DerivedParams, RecursionCoefficients, eps_sq_minus_one, map_to_pollaczek

__all__ = [
    "ResolventEstimate",
    "green_function",
    "green_function_truncated",
    "solution_pair",
    "spectral_density",
    "spectral_density_grid",
    "energy_density",
]

MAX_DEFAULT_DEPTH = 2_000_000  # levels; the default depth 6/eta of spectral_density_grid stops here (eta 3e-6)
_STATE_ELEMS = 3_072  # cap on chunks x points of the truncated fraction's state; points are tiled to fit
_GROUP_LEVELS = 4_096  # cap on the levels of one group of chunks, in either pass
_FIRST_GROUP = 512  # levels in the depth pass's first group; each next one doubles, up to _GROUP_LEVELS
_SCALE_BITS = 960  # the truncated fraction's state is rescaled before its bound passes 2**960 or 2**-960


@dataclass(frozen=True)
class ResolventEstimate:
    value: complex
    depth: int
    last_delta: float


def _depth_group(coeffs: RecursionCoefficients, z: complex, tol: float, lo: int, hi: int, state: tuple,
                 maps: list):
    """((depth, last_delta, row) at the first level of lo..hi-1 where the
    update falls below tol, or None; `state` moved on to level hi).

    Level n is scaled by 2**-e_n < 1/(|z - a_n| + b_{n-1} + b_n): X~_n =
    X_n 2**-(e_0 + ... + e_n) solves X~_n = w_n X~_{n-1} - t_n X~_{n-2},
    w_n = (z - a_n) 2**-e_n and t_n = b_{n-1}^2 2**-(e_n + e_{n-1}) at most
    1, and |Delta_n - 1| = t_1 ... t_n 2**-e_0 / |A~_{n-1} B~_n|.  The
    levels fall into chunks of a power of two near sqrt(hi - lo) levels; a
    step moves the two basis solutions of every chunk up a level at once.
    The chunk maps fold, in Python scalars, into each chunk's entry
    (X~_{n-1}, X~_{n-2}), rescaled by a power of two, and A~, B~ at every
    level are the entry times the basis.  `state` holds A~ and B~ entering
    lo with their scale exponents, t_1 ... t_{lo-1} 2**-e_0 as mantissa
    and exponent, and e_{lo-1}.

    `maps` holds one 2x2 map per group before lo, its chunk maps composed
    from the deepest (`_fold_back`); a group that finds no stop appends
    its own.  At a stop the basis row (r1, r2) of the stopping level n,
    X~_n = r1 X~_{lo-1} + r2 X~_{lo-2} for both solutions, folds back
    through this group's earlier chunks and then through `maps`, so that
    X~_n = r1 X~_0 + r2 X~_{-1} up to a common scale, and is returned
    with the depth and update."""
    a1, a2, b1, b2, ea, eb, cas, cas_e, e_prev = state
    levels = hi - lo
    m = 1 << levels.bit_length() // 2  # divides every group but the last, which max_depth cuts
    chunks = -(-levels // m)
    a, b = coeffs.block(lo - 1, hi)
    w = np.ones(chunks * m, dtype=complex)  # the last chunk is padded with levels w = 1, t = 0
    w[:levels] = z - a[1:]
    e = -np.frexp(np.abs(w.real[:levels]) + (abs(z.imag) + b[:-1] + b[1:]))[1]
    w[:levels] *= np.ldexp(1.0, e)
    t = np.zeros(chunks * m)
    np.ldexp(b[:-1] * b[:-1], e + np.concatenate(([-e_prev], e[:-1])), out=t[:levels])
    t = t.reshape(chunks, m).T  # (step, chunk): step i of chunk j is level lo + j m + i
    steps = np.empty((m, 2, 2, chunks), dtype=complex)  # (X_{n-2}, X_{n-1}) -> (-t_n X_{n-2}, w_n X_{n-1})
    steps[:, 0] = -t[:, None]
    steps[:, 1] = w.reshape(chunks, m).T[:, None]
    cum = np.cumprod(t, axis=0)
    del a, b, w, t  # the group's memory peaks in the sweep and the test below
    basis = np.empty((m + 2, 2, chunks), dtype=complex)
    basis[:2] = [[[0.0], [1.0]], [[1.0], [0.0]]]
    terms = np.empty((2, 2, chunks), dtype=complex)
    for pair, step, out in zip([basis[i:i + 2] for i in range(m)], steps, basis[2:]):
        np.multiply(pair, step, out=terms)
        np.add(terms[0], terms[1], out=out)
    del steps, pair, step
    ent, scale, frexp = [], [], math.frexp
    chunk_maps = list(zip(*basis[-1].tolist(), *basis[-2].tolist()))
    for (pe, qe, pd, qd), tj in zip(chunk_maps, cum[-1].tolist()):
        ent += a1, a2, b1, b2
        scale.append((cas, cas_e - ea - eb))
        a1, a2 = a1 * pe + a2 * qe, a1 * pd + a2 * qd
        k = max(frexp(abs(a1) + abs(a2))[1], -1000)  # 2.0 ** -k stays finite where the sum is subnormal
        a1, a2, ea = a1 * 2.0 ** -k, a2 * 2.0 ** -k, ea + k
        b1, b2 = b1 * pe + b2 * qe, b1 * pd + b2 * qd
        k = max(frexp(abs(b1) + abs(b2))[1], -1000)
        b1, b2, eb = b1 * 2.0 ** -k, b2 * 2.0 ** -k, eb + k
        cas, k = frexp(cas * tj)
        cas_e += k
    ent = np.array(ent).reshape(chunks, 4).T
    mant, expo = np.array(scale).T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # rows i = 0..m of chunk j: X~ at level lo + j m + i - 1
        a = basis[1:, 0] * ent[0] + basis[1:, 1] * ent[1]
        b = basis[1:, 0] * ent[2] + basis[1:, 1] * ent[3]
        stop = cum < np.abs(a[:-1] * b[1:]) * np.ldexp(tol / mant, np.clip(-expo, -4000, 4000).astype(int))
        if z.imag == 0.0:  # A_n or B_n within 1e-14 (1 + |z|) of zero against its predecessor
            small = np.ldexp(1e-14 * (1.0 + abs(z)), np.concatenate((e, np.zeros(chunks * m - levels, int))))
            small, a, b = small.reshape(chunks, m).T, np.abs(a), np.abs(b)
            vanished = (a[1:] <= small * a[:-1]) | (b[1:] <= small * b[:-1])
            stop |= vanished
    first = int(np.argmax(stop.T.reshape(-1)[:levels]))
    j, i = divmod(first, m)
    if stop[i, j]:
        if z.imag == 0.0 and vanished[i, j]:
            raise SpectrumProximity(f"vanishing partial denominator at depth {lo + first}, z={z}")
        last_delta = math.ldexp(cum[i, j] / abs(a[i, j] * b[i + 1, j]) * mant[j], int(expo[j]))
        row = _fold_back(maps + chunk_maps[:j], basis[i + 2, 0, j].item(), basis[i + 2, 1, j].item())
        return (lo + first, last_delta, row[:2]), state
    maps.append(_fold_back(chunk_maps[:-1], *chunk_maps[-1]))
    return None, (a1, a2, b1, b2, ea, eb, cas, cas_e, -int(e[-1]))


def _fold_back(maps, p1, q1, p2=None, q2=None):
    """The row (p1, q1), and (p2, q2) if given, times M_k ... M_1 M_0,
    where `maps` lists M_0, ..., M_k as (pe, qe, pd, qd) for
    [[pe, qe], [pd, qd]]: the rows travel toward level 0, rescaled
    together by a power of two after each map, which leaves the ratio of
    any two entries as it is.  Returns (p1, q1, p2, q2).  The entries are
    Python complex numbers, or numpy arrays over points rescaled point by
    point."""
    scalar = isinstance(p1, complex)
    for pe, qe, pd, qd in reversed(maps):
        p1, q1 = p1 * pe + q1 * pd, p1 * qe + q1 * qd
        size = abs(p1) + abs(q1)
        if p2 is not None:
            p2, q2 = p2 * pe + q2 * pd, p2 * qe + q2 * qd
            size = size + abs(p2) + abs(q2)
        # 2**-k stays finite where the sum is subnormal
        if scalar:
            k = 2.0 ** -max(math.frexp(size)[1], -1000)
        else:
            k = np.ldexp(1.0, -np.maximum(np.frexp(size)[1], -1000))
        p1, q1 = p1 * k, q1 * k
        if p2 is not None:
            p2, q2 = p2 * k, q2 * k
    return p1, q1, p2, q2


def green_function(coeffs: RecursionCoefficients, z, tol: float = 1e-12,
                   max_depth: int = 200_000) -> ResolventEstimate:
    """Evaluate G(z) = 1/(z - a_0 - b_0^2/(z - a_1 - ...)) to the first
    depth n whose update |Delta_n - 1| = s_1 ... s_n / |A_{n-1} B_n| drops
    below tol, where A_n/B_n is the n-th convergent of 1/G, Delta_n its
    ratio to the one before and s_k = b_{k-1}^2.  The update bounds the
    last change of the value, not its error.  The value is B_n/A_n, the
    fraction cut after level n = depth, as
    green_function_truncated(coeffs, z, depth + 1) is, to rounding (both
    fold the row of that level back through chunk maps, cut and built
    differently); off the real axis it is finite, however close z is to
    the axis.

    Raises ValueError unless tol is finite and positive, max_depth >= 1
    and 2 (|Re z| + |Im z|) is finite, NoConvergence when max_depth is hit
    first, and, for real z, SpectrumProximity where z - a_0, or A_n or B_n
    against its predecessor, is within 1e-14 (1 + |z|) of zero: the
    argument sits on the spectrum.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    z = complex(z)
    if not math.isfinite(2.0 * (abs(z.real) + abs(z.imag))):
        raise ValueError(f"z must be finite with |Re z| + |Im z| below half the largest double, got {z}")
    a0, b0 = (x.item() for x in coeffs.block(0, 1))
    if z.imag == 0.0 and abs(z - a0) <= 1e-14 * (1.0 + abs(z)):
        raise SpectrumProximity(f"vanishing partial denominator at z={z}")
    e0 = math.frexp(abs(z.real - a0) + abs(z.imag) + b0)[1]
    head = (z - a0) * 2.0 ** -e0
    state = (head, 1.0 + 0j, 1.0 + 0j, 0j, 0, -e0, 1.0, -e0, e0)
    lo, size, maps = 1, _FIRST_GROUP, []
    while lo <= max_depth:
        hi = int(min(lo + size, max_depth + 1))  # a float budget counts whole levels
        found, state = _depth_group(coeffs, z, tol, lo, hi, state, maps)
        if found:
            depth, last_delta, (r1, r2) = found
            g = 1.0 / (head + r2 / r1)  # A_n / B_n = z - a0 + 2**e0 r2 / r1 at the scale 2**-e0
            value = complex(math.ldexp(g.real, -e0), math.ldexp(g.imag, -e0))
            return ResolventEstimate(value=value, depth=depth, last_delta=last_delta)
        lo, size = hi, min(2 * size, _GROUP_LEVELS)
    raise NoConvergence(f"continued fraction did not reach tol={tol} within depth {max_depth}")


def _chunk_shape(levels: int, points: int) -> tuple[int, int, int]:
    """(points per tile, levels per chunk, chunks per group) for `levels`
    >= 1 levels below level 0 over `points` >= 1 points: chunks x points
    within _STATE_ELEMS, chunks x length within _GROUP_LEVELS, and chunks
    of about sqrt(levels) levels, which balance the steps of a group
    against its chunk maps folded one by one."""
    width = min(points, _STATE_ELEMS)
    most = _STATE_ELEMS // width
    first = min(levels, _GROUP_LEVELS)
    length = max(math.isqrt(first - 1) + 1, -(-first // most))
    return width, length, min(most, -(-levels // length), _GROUP_LEVELS // length)


def _normalise(p, q):
    """Scale the two rows (p, q) of each chunk map, at each point, by one
    power of two that puts their largest part in [1/16, 1/8): exact, and
    the headroom keeps one step finite for any finite z - a_k."""
    big = np.abs(p[0].view(float))
    for v in (p[1], q[0], q[1]):
        np.maximum(big, np.abs(v.view(float)), out=big)
    big = np.maximum(big[:, 0::2], big[:, 1::2])
    scale = np.ldexp(1.0, -3 - np.maximum(np.frexp(big)[1], -1021))
    p *= scale
    q *= scale


def _attracting_fixed_point(w, s):
    """The fixed point 2s/(w + d), d = +-sqrt(w^2 - 4s), of smaller modulus
    of t -> s/(w - t), per chunk and point; 0 where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = np.sqrt(w * w - 4.0 * s)
        np.negative(d, out=d, where=w.real * d.real + w.imag * d.imag < 0.0)
        fixed = 2.0 * s / (w + d)
    fixed[~np.isfinite(fixed)] = 0.0
    return fixed


def _truncated_rows(coeffs: RecursionCoefficients, z: np.ndarray, e0: np.ndarray, depth: int,
                    terminated: bool = False) -> np.ndarray:
    """The row (r1, r2) of level depth - 1 at every point of the 1-D array
    z, X~_{depth-1} = r1 X~_0 + r2 X~_{-1} up to a scale per point, for the
    solutions X~_n = X_n 2**-e0 (n >= 0) of green_function's depth pass;
    with `terminated`, the row of X~_{depth-1} - t X~_{depth-2} instead, t
    the attracting fixed point of level depth - 1 (depth >= 2).

    Each chunk (`_chunk_shape`, deepest group first) builds its map
    (pe, qe, pd, qd) from its deep end, as the tail is applied: two rows
    move down a level at once in every chunk, c1 X_n + c2 X_{n-1} =
    (c1 (z - a_n) + c2) X_{n-1} - c1 s_n X_{n-2} (s_1 2**-e0 at level 1).
    They start at (1, -t) and (0, 1), t the attracting fixed point of the
    chunk's deepest level, near which the row of the tail runs in the
    spectrum; the row coming up from below is taken apart in that basis.
    Rows (1, 0) and (0, 1), or the forward basis of `_depth_group`, lose up
    to ten times more digits there than the level-by-level sweep.  The
    deepest chunk is padded with levels s = 0 below depth - 1, where it
    starts afresh from the basis of that level: (1, -t) and (0, 1) when
    terminated, else (1, 0) and (0, 1).  The row from below is (1, 0) in
    the deepest chunk's basis when terminated, the terminator itself, and
    X~_{depth-1} = (1, 0) taken apart in it otherwise.  A level grows the
    state by at most 8 max(1, s, |a|, |Re z|, |Im z|) = 2**g and shrinks
    it by at most s over that, 2**-h, so it is rescaled every
    _SCALE_BITS // max(g + h) steps."""
    rows = np.zeros((2, z.size), dtype=complex)
    rows[0] = 1.0
    if depth == 1 or z.size == 0:
        return rows
    width, length, chunks = _chunk_shape(depth - 1, z.size)
    span = chunks * length
    zmax = max(float(np.abs(z.real).max()), float(np.abs(z.imag).max()), 1.0)
    x = np.empty((3, 2, chunks, width), dtype=complex)
    w = np.empty((chunks, width), dtype=complex)
    for lo in range(depth - 1 - (depth - 2) % span, 0, -span):
        hi = min(lo + span, depth)
        k = -(-(hi - lo) // length)  # chunks in this group
        pad = k * length - (hi - lo)
        block_a, block_b = coeffs.block(lo - 1, hi)
        s, a = np.zeros(k * length), np.zeros(k * length)
        s[:hi - lo] = block_b[:-1] * block_b[:-1]
        a[:hi - lo] = block_a[1:]
        grow = np.frexp(np.maximum(np.maximum(s, np.abs(a)), zmax))[1] + 3
        every = max(1, _SCALE_BITS // int((grow + np.maximum(0, 1 - np.frexp(s)[1])).max()))
        # (step, chunk, 1): step i of chunk j is level lo + j length + length - 1 - i
        a_steps = a.reshape(k, length)[:, ::-1].T[:, :, None]
        s_steps = -s.reshape(k, length)[:, ::-1].T[:, :, None].astype(complex)
        for start in range(0, z.size, width):
            zt, r = z[start:start + width], rows[:, start:start + width]
            p, q, t = (v[:, :k, :zt.size] for v in x)  # the rows (p[i], q[i]) of every chunk
            wv = w[:k, :zt.size]
            wv.imag = zt.imag
            fixed = _attracting_fixed_point(zt - a_steps[0], -s_steps[0].real)
            p[0], p[1], q[0], q[1] = 1.0, 0.0, -fixed, 1.0
            s_last = s_steps[-1]
            if lo == 1:
                s_last = np.repeat(s_last.real, zt.size, axis=1)
                s_last[0] = np.ldexp(s_last[0], -e0[start:start + width])
            for i in range(length):
                if 0 < pad == i:  # the deepest chunk reaches depth - 1
                    fixed[-1] = 0.0
                    if terminated:
                        fixed[-1] = _attracting_fixed_point(zt - a_steps[i, -1], -s_steps[i, -1].real)
                    p[:, -1], q[:, -1] = [[1.0], [0.0]], [[0.0], [1.0]]
                    q[0, -1] -= fixed[-1]
                if i % every == 0:
                    _normalise(p, q)
                np.subtract(zt.real, a_steps[i], out=wv.real)
                np.multiply(p, wv, out=t)
                t += q
                np.multiply(p, s_steps[i] if i < length - 1 else s_last, out=q)
                p, t = t, p
            _normalise(p, q)
            # the basis of each chunk's deepest level: the row from below, and the maps of the chunks below;
            # the terminator's row is (1, 0) in its own basis
            if not (terminated and hi == depth):
                r[1] += fixed[-1] * r[0]
            q[:, 1:] += p[:, 1:] * fixed[:-1]
            r[0], r[1] = _fold_back(list(zip(p[0], q[0], p[1], q[1])), r[0], r[1])[:2]  # (pe, qe, pd, qd) per chunk
    return rows


def _fraction(coeffs: RecursionCoefficients, z, depth: int, terminated: bool) -> np.ndarray:
    """The fraction of `depth` levels, with the tail 0 below them or, when
    `terminated`, the attracting fixed point of level depth - 1, at every
    point of z (any shape, the result keeps it): the row of level depth - 1
    folded back to level 0 (`_truncated_rows`), formed at the scale 2**-e0
    of level 0 as green_function's value is.  Raises ValueError for
    depth < 1 and a non-finite z."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    zs = np.asarray(z, dtype=complex)
    if not np.isfinite(zs).all():
        raise ValueError("z must be finite")
    flat = zs.reshape(-1)
    a0, b0 = (x.item() for x in coeffs.block(0, 1))
    e0 = np.frexp(np.abs(flat.real - a0) + np.abs(flat.imag) + b0)[1]
    r1, r2 = _truncated_rows(coeffs, flat, e0, depth, terminated)
    scale = np.ldexp(1.0, -e0)  # 2**-e0, as in green_function
    return (scale / ((flat - a0) * scale + r2 / r1)).reshape(zs.shape)


def green_function_truncated(coeffs: RecursionCoefficients, z, depth: int):
    """Finite continued fraction with the tail dropped after `depth`
    levels; <0|(z - J_depth)^{-1}|0> for the depth x depth truncation
    J_depth.  `z` may be a scalar or an ndarray of any shape (the result
    keeps the shape of `z`).  The value is formed as green_function's, from
    the row of level depth - 1 folded back to level 0 (`_truncated_rows`,
    with chunk maps of its own sweep); it matches the level-by-level sweep
    t_k = s_k/(z - a_k - t_{k+1}) to rounding, not bit for bit.  Raises ValueError for depth < 1 and a non-finite z."""
    out = _fraction(coeffs, z, depth, terminated=False)
    return complex(out) if out.ndim == 0 else out


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


def _check_eta(eta: float) -> None:
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if eta <= 0:
        raise ValueError("eta must be positive")


def spectral_density(coeffs: RecursionCoefficients, x: float, eta: float,
                     tol: float = 1e-9, max_depth: int = 400_000) -> float:
    """rho_eta(x) = -Im G(x + i eta) / pi for eta > 0, from green_function
    stopped where its update falls below tol.  Raises ValueError unless
    eta is finite and positive, and for a tol/max_depth budget that
    green_function rejects."""
    _check_eta(eta)
    est = green_function(coeffs, complex(x, eta), tol=tol, max_depth=max_depth)
    return -est.value.imag / math.pi


def spectral_density_grid(coeffs: RecursionCoefficients, xs, eta: float,
                          depth: int | None = None):
    """Vectorized fixed-depth density scan.  The fraction is terminated:
    the tail below its deepest level is the attracting fixed point
    t = s/(z - a - t) of that level's own a and s, the tail of the
    constant chain through it (Haydock, Heine & Kelly 1975), in place of
    the 0 of green_function_truncated; on a constant chain it is exact at
    any depth >= 2.  The default depth, max(1000, 6/eta) levels, leaves an
    error below 1e-13 for operators with bounded spectrum (against the
    exact Pollaczek G on the `density` benchmark grid, relative to
    |G|/pi: 1.1e-15 at eta = 1e-2, 5.2e-15 at 1e-3, 1.5e-14 at 1e-4; at
    most 1.6e-13 off a 40/eta-level zero-tail fraction over six Pollaczek
    families at eta = 1e-2 to 1e-4); pass an explicit depth, the levels
    before the terminator, for unbounded families.  Depth 1 has no s of
    its own at level 0 and is the plain 1/(z - a_0).  Raises ValueError
    unless eta and xs are finite and eta is positive, and when the default
    depth would exceed MAX_DEFAULT_DEPTH (eta below 3e-6, minutes to
    hours); an explicit depth is not limited."""
    _check_eta(eta)
    xs = np.asarray(xs, dtype=float)
    if depth is None:
        levels = 6.0 / eta
        if levels > MAX_DEFAULT_DEPTH:
            raise ValueError(f"eta={eta!r} needs a default depth of {levels:.3g} levels, "
                             f"above the limit of {MAX_DEFAULT_DEPTH} levels")
        depth = max(1000, int(levels))
    g = _fraction(coeffs, xs + 1j * eta, depth, terminated=True)
    return -np.imag(g) / math.pi + 0.0  # + 0.0 turns the -0.0 of an underflowed Im G into +0.0


def energy_density(d: DerivedParams, eps: float, eta: float) -> tuple[float, float]:
    """Density translated to the energy variable: the x-variable density
    (`spectral_density` at tol 1e-9) of the energy's own polynomial
    parameter set times the exact Jacobian of the map
    x = (s - beta^2)/(s + beta^2), s = eps^2 - 1,

        |dx/d eps| = 4 |eps| beta^2 / (s + beta^2)^2.

    Returns (rho_x at x(eps), rho_eps)."""
    pol = map_to_pollaczek(d, eps)
    params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
    rho_x = spectral_density(pollaczek.jacobi_coefficients(params), pol.x, eta, tol=1e-9)
    beta_sq = d.beta * d.beta
    jac = 4.0 * abs(eps) * beta_sq / (eps_sq_minus_one(eps) + beta_sq) ** 2
    return rho_x, rho_x * jac
