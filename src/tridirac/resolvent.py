"""Green function of a symmetric tridiagonal operator as a continued
fraction, with the spectral density recovered by Stieltjes inversion.

Sign convention, fixed once: G(z) = <0|(z - J)^{-1}|0>, so
Im G(x + i eta) <= 0 for eta > 0 and the density is
rho(x) = -Im G(x + i eta) / pi.

The fraction is a product of 2x2 level matrices, Mobius maps of the tail
(Jones & Thron 1980, section 2.1), which both evaluators cut into chunks
and build side by side, a multiply-add per level and no division; both
read coefficient blocks, so memory does not grow with depth.

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

`green_function_truncated` applies the level matrices
M_k = [[0, s_k], [-1, z - a_k]], s_k = b_{k-1}^2, as the maps
t -> s_k / (z - a_k - t) to the tail t, from a fixed depth: only the
deepest chunk is run as one vector from the known tail, and the chunk
maps are then applied to the tail, deepest first.  It matches the
level-by-level sweep to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

MAX_DEFAULT_DEPTH = 2_000_000  # levels; the default depth 15/eta of spectral_density_grid stops here
_STATE_ELEMS = 8_192  # cap on rows x points of the truncated fraction's state; points are tiled to fit
_MIN_CHUNKS = 4  # a tile with room for fewer chunks than this runs the tail vector alone
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
        row = _fold_back(basis[i + 2, 0, j].item(), basis[i + 2, 1, j].item(), 0j, 0j, maps + chunk_maps[:j])
        return (lo + first, last_delta, row[:2]), state
    maps.append(_fold_back(*chunk_maps[-1], chunk_maps[:-1]))
    return None, (a1, a2, b1, b2, ea, eb, cas, cas_e, -int(e[-1]))


def _fold_back(p1, q1, p2, q2, maps):
    """The rows (p1, q1) and (p2, q2) times M_k ... M_1 M_0, where `maps`
    lists M_0, ..., M_k as (pe, qe, pd, qd) for [[pe, qe], [pd, qd]]: the
    rows travel toward level 0, rescaled together by a power of two after
    each map, which leaves the ratio of any two entries as it is."""
    frexp = math.frexp
    for pe, qe, pd, qd in reversed(maps):
        p1, q1, p2, q2 = p1 * pe + q1 * pd, p1 * qe + q1 * qd, p2 * pe + q2 * pd, p2 * qe + q2 * qd
        k = 2.0 ** -max(frexp(abs(p1) + abs(q1) + abs(p2) + abs(q2))[1], -1000)
        p1, q1, p2, q2 = p1 * k, q1 * k, p2 * k, q2 * k
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
    apply the levels backward, in different chunks); off the real axis it
    is finite, however close z is to the axis.

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
            # A_n / B_n = z - a0 + 2**e0 r2 / r1, formed at the scale 2**-e0 of
            # head: the tail 2**e0 r2 / r1 may pass the largest double where G
            # does not
            g = 1.0 / (head + r2 / r1)
            value = complex(math.ldexp(g.real, -e0), math.ldexp(g.imag, -e0))
            return ResolventEstimate(value=value, depth=depth, last_delta=last_delta)
        lo, size = hi, min(2 * size, _GROUP_LEVELS)
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
    value.  The fold divides as numpy does, by way of 1 / den; points where
    that comes out non-finite fold again with `_divide_direct`."""
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
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                t = _fold_chunks(pv, qv, plus, minus, np.divide)
            bad = ~np.isfinite(t)
            if bad.any():
                t[bad] = _fold_chunks(pv[:, bad], qv[:, bad], plus[:, bad], minus[:, bad], _divide_direct)
            tt[...] = t
        hi, lo = lo, lo - span
    return tail


def _fold_chunks(pv, qv, plus, minus, divide):
    """The tail entering a group's top level, at every point of a tile: the
    tail vector's value, then each chunk's map applied to it, deepest
    first, with `divide` taking every quotient."""
    t = divide(pv[-1], qv[-1])
    for j in range(len(plus) - 1, -1, -1):
        # (t, 1) = (t - minus) (plus, 1) + (plus - t) (minus, 1), over plus - minus
        up, down = t - minus[j], plus[j] - t
        t = divide(pv[2 * j] * up + pv[2 * j + 1] * down, qv[2 * j] * up + qv[2 * j + 1] * down)
    return t


def _divide_direct(num, den):
    """num / den as Python divides complex numbers (Smith 1962), with no
    reciprocal.  numpy divides by way of 1 / den, which overflows where
    den is subnormal though the quotient is finite: a chunk whose s is
    near the largest double leaves its q rows subnormal once normalised."""
    turn = np.abs(den.imag) > np.abs(den.real)  # there divide -i num by -i den
    num = np.where(turn, -1j * num, num)
    den = np.where(turn, -1j * den, den)
    ratio = den.imag / den.real
    scale = den.real + den.imag * ratio
    out = np.empty_like(num)
    out.real = (num.real + num.imag * ratio) / scale
    out.imag = (num.imag - num.real * ratio) / scale
    return out


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
    """rho_eta(x) = -Im G(x + i eta) / pi for eta > 0, from green_function
    stopped where its update falls below tol.  Raises ValueError for
    eta <= 0 and for a tol/max_depth budget that green_function rejects."""
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
    (`spectral_density` at tol 1e-9) of the energy's own polynomial
    parameter set times the exact Jacobian of the map
    x = (s - beta^2)/(s + beta^2), s = eps^2 - 1,

        |dx/d eps| = 4 |eps| beta^2 / (s + beta^2)^2.

    Returns (rho_x at x(eps), rho_eps)."""
    pol = map_to_pollaczek(d, energy_point(eps))
    params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
    rho_x = spectral_density(pollaczek.jacobi_coefficients(params), pol.x, eta, tol=1e-9)
    beta_sq = d.beta * d.beta
    jac = 4.0 * abs(eps) * beta_sq / (eps_sq_minus_one(eps) + beta_sq) ** 2
    return rho_x, rho_x * jac
