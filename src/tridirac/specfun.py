"""Self-contained special-function kernel.

Complex log-Gamma (Lanczos sum plus reflection), rising factorials,
associated Laguerre polynomials (one recurrence, yielded row by row),
terminating Gauss hypergeometric sums, and Gauss quadrature rules built
from symmetric tridiagonal (Jacobi) matrices: nodes from LAPACK, weights
and eigenvectors from one pass of the same three-term recurrence.

Everything here is a pure function of its arguments; no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BottomPoleError, PoleError
from .recurrence import _RESCALE_BITS

__all__ = [
    "QuadratureRule",
    "log_gamma",
    "pochhammer",
    "laguerre_rows",
    "laguerre",
    "hyp2f1_terminating",
    "hyp2f1_terminating_rows",
    "tridiag_eigen_first_row",
    "gauss_rule_from_jacobi",
    "gauss_laguerre_rule",
]

# Lanczos rational approximation, g = 607/128, 15 terms (Godfrey's set).
# Gives ~1e-13 relative accuracy on exp(log_gamma) over the working window
# Re z in [-50, 200], |Im z| <= 200 (validated by the identity tests).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_2 = 0.69314718055994530942
_POLE_TOL = 1e-13
_BLOCK_ELEMS = 4_096  # cap on the term ratios of one block of terminating-series rows


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: strictly increasing nodes, positive weights summing to
    the total mass of the underlying weight function (weights below the
    double range, at the far nodes of high orders, are 0), and the Jacobi
    matrix's eigenvectors vectors[n, k] = pi_n(x_k) sqrt(weights[k]), pi_n
    the orthonormal polynomials with positive leading coefficient."""

    nodes: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    order: int

    def integrate(self, f):
        """Apply the rule to a callable or to an array of node values."""
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return float(np.dot(self.weights, vals))


def _poles(z: np.ndarray) -> np.ndarray:
    # within _POLE_TOL of a non-positive integer, elementwise
    return (np.abs(z.imag) <= _POLE_TOL) & (z.real <= 0.5) & (np.abs(z.real - np.round(z.real)) <= _POLE_TOL)


def _lanczos_log_gamma(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0.5
    zm1 = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def _log_sin_pi_array(z: np.ndarray) -> np.ndarray:
    # log sin(pi z), stable for large |Im z| where sin overflows: each formula
    # sees only its own elements.  sign = +1 above the real axis, -1 below.
    out = np.empty_like(z)
    near = np.abs(z.imag) < 10.0
    out[near] = np.log(np.sin(np.pi * z[near]))
    far = z[~near]
    sign = np.where(far.imag > 0, 1.0, -1.0)
    out[~near] = (-1j * sign * np.pi * far + 0.5j * sign * np.pi - _LOG_2
                  + np.log(1.0 - np.exp(2j * sign * np.pi * far)))
    return out


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    pole = _poles(z)
    if pole.any():
        raise PoleError(f"log_gamma pole at z={complex(z[pole][0])}")
    left = z.real < 0.5
    if not left.any():
        return _lanczos_log_gamma(z)
    out = np.empty_like(z)
    out[~left] = _lanczos_log_gamma(z[~left])
    zl = z[left]
    # reflection; exact mod 2*pi*i, principal on the right half plane
    out[left] = math.log(math.pi) - _log_sin_pi_array(zl) - _lanczos_log_gamma(1.0 - zl)
    return out


def log_gamma(z):
    """Principal branch of log Gamma(z).

    Lanczos sum for Re z >= 0.5, reflection otherwise.  Raises PoleError
    when z is within 1e-13 of a non-positive integer; callers that probe
    1/Gamma = 0 (the bound-state condition) rely on that signal.

    Elementwise, with one implementation: an ndarray gives a complex
    ndarray of its shape (the first pole found is raised); a scalar runs
    as a one-element array and gives a complex.
    """
    if isinstance(z, np.ndarray):
        return _log_gamma_array(z.astype(complex))
    return complex(_log_gamma_array(np.array([z], dtype=complex))[0])


def pochhammer(c, n):
    """Rising factorial (c)_n = c (c+1) ... (c+n-1), elementwise in n.

    A scalar n gives a complex, an int ndarray a complex ndarray of its
    shape.  Orders n <= 64 (all orders when c is within 1e-13 of a
    non-positive integer, a log-Gamma pole) come from one running product
    in Python complex arithmetic, each bit for bit the product of its
    order alone; larger orders are one array log-Gamma difference,
    agreeing to ~1e-13 relative at the crossover.  Raises ValueError for
    a negative order, and OverflowError, naming the first such order,
    where (c)_n leaves the double range.
    """
    orders = np.asarray(n)
    if orders.size and orders.min() < 0:
        raise ValueError("pochhammer order must be non-negative")
    c = complex(c)
    ns = orders.reshape(-1).astype(int)
    direct = (ns <= 64) | _poles(np.array([c]))
    out = np.empty(ns.size, dtype=complex)
    if direct.any():
        products = [1.0 + 0.0j]
        for k in range(int(ns[direct].max())):
            products.append(products[-1] * (c + k))
        out[direct] = np.array(products)[ns[direct]]
    if not direct.all():
        lg = log_gamma(c + np.concatenate(([0], ns[~direct])))
        with np.errstate(over="ignore", invalid="ignore"):
            out[~direct] = np.exp(lg[1:] - lg[0])
    bad = ~np.isfinite(out)
    if bad.any():
        raise OverflowError(f"pochhammer leaves the double range at n={int(ns[bad][0])}")
    return complex(out[0]) if orders.ndim == 0 else out.reshape(orders.shape)


def laguerre_rows(n: int, nu: float, x):
    """Yield the associated Laguerre polynomials L_0^nu(x), ...,
    L_{n-1}^nu(x) in one pass of the forward three-term recurrence in the
    degree (stable for x >= 0); nothing for n <= 0.  x may be a scalar or
    an ndarray; each row has the shape of x.  The basis sum of
    `wavefunction` is one stream of these rows: its value and both
    r-derivatives come from the same L_n^nu (the first derivative by
    d/dx L_n^nu = -L_{n-1}^{nu+1} = -sum_{k<n} L_k^nu), so each degree is
    computed once per sum.  The loop is its own, not recurrence.forward: it
    streams rows instead of holding them, so memory stays O(size of x)
    at any n."""
    x = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else x
    if n <= 0:
        return
    prev = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    yield prev
    if n == 1:
        return
    cur = 1.0 + nu - x
    yield cur
    for k in range(1, n - 1):
        prev, cur = cur, ((2 * k + nu + 1 - x) * cur - (k + nu) * prev) / (k + 1)
        yield cur


def laguerre(n: int, nu: float, x):
    """Associated Laguerre polynomial L_n^nu(x): the last row of
    `laguerre_rows(n + 1, nu, x)`.  x may be a scalar or an ndarray."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    for row in laguerre_rows(n + 1, nu, x):
        pass
    return row


def hyp2f1_terminating_rows(n, b, c, z) -> np.ndarray:
    """The terminating Gauss sums 2F1(-n[i], b; c[i]; z) of one b and z,
    one row per pair (n[i], c[i]) of the non-negative ints n and the
    bottom parameters c, as a complex ndarray.

    One array pass: row i holds the term ratios
    (k-n) (b+k) z / ((c+k) (k+1)) for k < n (entries k >= n are masked
    to 0 and never divide), the cumulative product along k gives the
    terms, and the row sums give the series.  The rows run in blocks of
    at most _BLOCK_ELEMS ratios (or of one row, when a row alone is
    longer), so the temporaries stay small whatever the length.  The sums
    agree with a term-by-term scalar loop to rounding, not bit for bit:
    numpy's complex multiply and divide round differently from CPython's.

    Raises ValueError for a negative n, and BottomPoleError(n, k) for the
    first row (then the first k) at which c + k vanishes for some k < n,
    i.e. a bottom-parameter pole is hit before the series terminates; no
    row is summed then.
    """
    ns = np.asarray(n, dtype=int).reshape(-1)
    cs = np.asarray(c, dtype=complex).reshape(-1)
    b, z = complex(b), complex(z)
    out = np.ones(ns.size, dtype=complex)
    if not ns.size:
        return out
    if ns.min() < 0:
        raise ValueError("top parameter -n requires n >= 0")
    top = int(ns.max())
    k = np.arange(top)
    num = (b + k) * z
    tol = _POLE_TOL * np.maximum(1.0, np.abs(cs))
    step = max(1, _BLOCK_ELEMS // max(1, top))
    for lo in range(0, ns.size, step):
        rows = ns[lo:lo + step, None]
        width = int(rows.max())
        den = cs[lo:lo + step, None] + k[:width]
        live = k[:width] < rows
        pole = live & (np.abs(den) <= tol[lo:lo + step, None])
        if pole.any():
            row, col = np.unravel_index(np.argmax(pole), pole.shape)
            raise BottomPoleError(int(rows[row, 0]), int(col))
        den *= k[:width] + 1
        ratio = np.divide((k[:width] - rows) * num[:width], den, out=np.zeros(den.shape, dtype=complex), where=live)
        out[lo:lo + step] += np.cumprod(ratio, axis=1, out=ratio).sum(axis=1)
    return out


def hyp2f1_terminating(n: int, b, c, z) -> complex:
    """Terminating Gauss sum 2F1(-n, b; c; z) = sum_{k=0}^{n}
    (-n)_k (b)_k / ((c)_k k!) z^k: the one-row case of
    `hyp2f1_terminating_rows`.

    Raises ValueError for n < 0, and BottomPoleError if c + k vanishes
    for some k in 0..n-1, i.e. a bottom-parameter pole is hit before the
    series terminates.
    """
    return complex(hyp2f1_terminating_rows([n], b, [c], z)[0])


# --- symmetric tridiagonal eigenproblem and Gauss rules ---------------------

def tridiag_eigen_first_row(diag, offdiag):
    """Eigenvalues and orthonormal eigenvectors of the symmetric
    tridiagonal matrix with the given diagonal and off-diagonal.

    The eigenvalues come from LAPACK (`np.linalg.eigvalsh`), the vectors
    from the recurrence p_0 = 1, b_k p_{k+1}(x) = (x - a_k) p_k(x) -
    b_{k-1} p_{k-1}(x): the eigenvector of x_k is (p_n(x_k))_n over its
    norm (Golub & Welsch 1969; Gautschi 2004, section 3.1), so no entry
    exceeds 1 and tiny components keep the relative accuracy and sign
    that LAPACK's lose.  When a node's sum of squares passes 2^512, its
    stored values are scaled in place by 2^-256 (exact down to the
    subnormal range), so nothing overflows however far the node lies
    outside the bulk of the spectrum, and no exponent is stored; that
    rescaling, over all nodes at once, keeps this loop out of
    recurrence.forward.  The rows are accurate while the eigenvectors do
    not decay toward the last row (the Laguerre and wave-operator
    matrices); a random matrix's localized ones lose orthogonality, though
    their first row stays accurate.  The name is from when only that row,
    the Gauss weights, was kept; the benchmark's tracer resolves it so.

    Returns (values, vectors) sorted by eigenvalue, column k of `vectors`
    belonging to values[k] with a positive first component.  Raises
    ValueError for an empty matrix, a wrongly sized off-diagonal, or a
    zero off-diagonal entry (the matrix then splits into blocks and the
    recurrence divides by zero).
    """
    d = np.array(diag, dtype=float)
    m = d.size
    if m == 0:
        raise ValueError("empty matrix")
    off = np.asarray(offdiag, dtype=float).reshape(-1)
    if off.size != m - 1:
        raise ValueError("offdiag must have len(diag) - 1 entries")
    if np.any(off == 0.0):
        raise ValueError("off-diagonal entries must be nonzero")
    nodes = np.linalg.eigvalsh(np.diag(d) + np.diag(off, -1))
    limit = math.ldexp(1.0, _RESCALE_BITS)
    rows = np.empty((m, m))  # column k holds p_n(x_k), scaled as its sum is
    rows[0] = 1.0
    total = np.ones(m)  # sum_n rows[n]^2
    for k in range(m - 1):
        rows[k + 1] = cur = ((nodes - d[k]) * rows[k] - (off[k - 1] * rows[k - 1] if k else 0.0)) / off[k]
        total += cur * cur
        big = total > limit
        if big.any():
            rows[:k + 2, big] = np.ldexp(rows[:k + 2, big], -_RESCALE_BITS // 2)
            total[big] = np.ldexp(total[big], -_RESCALE_BITS)
    return nodes, rows / np.sqrt(total)


def gauss_rule_from_jacobi(diag, offdiag, mass: float = 1.0) -> QuadratureRule:
    """Golub-Welsch: Gauss rule from the three-term recurrence data.

    Nodes are the eigenvalues of the symmetric tridiagonal matrix; the
    weight of node k is mass times the squared first component of its
    eigenvector, `mass` being the total integral of the weight function.
    The eigenvectors are kept as the rule's `vectors`.
    """
    off = np.asarray(offdiag, dtype=float)
    if off.size and off.min() <= 0:
        raise ValueError("off-diagonal entries must be positive")
    nodes, vectors = tridiag_eigen_first_row(diag, offdiag)
    return QuadratureRule(nodes=nodes, weights=mass * vectors[0] ** 2, vectors=vectors, order=len(nodes))


def gauss_laguerre_rule(order: int, nu: float = 0.0) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight x^nu e^{-x} on
    [0, inf), built from its Jacobi matrix (a_k = 2k + nu + 1,
    b_k = sqrt((k+1)(k+nu+1)), mass = Gamma(nu+1)).  Raises ValueError
    when Gamma(nu+1) is beyond the double range (nu above ~170.6)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if nu <= -1:
        raise ValueError("weight exponent must exceed -1")
    try:
        mass = math.exp(math.lgamma(nu + 1.0))
    except OverflowError:
        raise ValueError(f"Gamma(nu+1) at nu={nu!r} is beyond the double range") from None
    k = np.arange(order, dtype=float)
    diag = 2 * k + nu + 1
    j = np.arange(1, order, dtype=float)
    offdiag = np.sqrt(j * (j + nu))
    return gauss_rule_from_jacobi(diag, offdiag, mass=mass)
