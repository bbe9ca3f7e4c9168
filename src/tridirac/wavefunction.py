"""Laguerre basis construction, expansion coefficients of the radial
spinor, wavefunction reconstruction, kinetic balance for the lower
component, tridiagonality verification of the wave-operator matrix, and
the second-order radial-equation residual check.

The basis elements are

    zeta_n(r) = A_n (w r)^{g+1} e^{-w r / 2} L_n^{2g+1}(w r),

with g the effective angular parameter (gamma for kappa > 0, -gamma-1
for kappa < 0) and A_n = sqrt(w Gamma(n+1)/Gamma(n+2g+2)).  With this
A_n the family is orthonormal under the measure dr/(w r) that the
tridiagonal construction is built on; the plain-dr overlap matrix is
itself tridiagonal (2 a_n on the diagonal, -2 b_n off it) and is what
turns the wave equation into a three-term recursion.

Every basis-side value is one sum over these elements (`_expansion`):
one stream of the rows L_n^{2g+1}(w r), A_n as the running product
A_0 prod_{k<=n} sqrt(k/(k+2g+1)), and both derivatives from the same
rows (d/dy L_n^nu = -L_{n-1}^{nu+1} = -sum_{k<n} L_k^nu).

The radial second-order equation used throughout is

    [-d^2/dr^2 + g(g+1)/r^2 + 2 Z eps / r + (1 - eps^2)/compton^2] phi = 0,

whose constant term is negative in the scattering regime (oscillatory
solutions) and positive for bound energies; it is invariant under
g -> -g-1, so either angular parameter gives the same operator.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import recurrence, specfun
from .errors import DomainError, GridError, KineticBalanceSingular
from .model import (DerivedParams, Regime, energy_point, eps_sq_minus_one, growth_rate, map_to_pollaczek,
                    recursion_coefficients, rotation_angle, spinor_rotation, theta_phi, wave_rows)

__all__ = [
    "CoefficientVector",
    "TridiagonalityReport",
    "gram_matrix",
    "coefficients_recursion",
    "coefficients_bound_state",
    "coefficients_closed_form",
    "reconstruct_upper",
    "reconstruct_derivative",
    "spinor",
    "lower_component",
    "schrodinger_residual",
    "verify_tridiagonal",
    "coupled_system_residual",
]


@dataclass(frozen=True)
class CoefficientVector:
    values: np.ndarray
    eps: float
    source: str  # "recursion" | "miller" | "closed_form"

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class TridiagonalityReport:
    offband_ratio: float
    diag_deviation: float
    offdiag_deviation: float
    matrix: np.ndarray


def _expansion(values, g: float, omega: float, r, n_trunc: int):
    """The one basis sum: (phi, phi', phi'') = sum_{n<n_trunc} f_n
    (zeta_n, zeta_n', zeta_n'')(r), from one stream of the Laguerre rows
    L_n^nu(y), y = w r, nu = 2g+1; terms whose Re f_n is zero or not
    finite are dropped.  With c_n = f_n A_n and E = y^{g+1} e^{-y/2},

        phi   = E s0,
        phi'  = w E [((g+1)/y - 1/2) s0 - s1],
        phi'' = w^2 E [(g(g+1)/y^2 + 1/4) s0 - s2/y],

    where s0, s1 and s2 sum L_n^nu(y) times c_n, the tail sums
    sum_{m>n} c_m and (n+g+1) c_n.  s1 is sum_n c_n L_{n-1}^{nu+1}(y)
    regrouped by degree, since d/dy L_n^nu = -L_{n-1}^{nu+1} =
    -sum_{k<n} L_k^nu; s2 comes from the radial equation of each element,
    zeta_n'' = w^2 zeta_n [g(g+1)/y^2 - (n+g+1)/y + 1/4].  The tail sums
    are used rather than y d/dy L_n^nu = n L_n^nu - (n+nu) L_{n-1}^nu
    (DLMF 18.9.14), whose regrouped terms cancel to O(y) before a division
    by y: at r = 1e-4 that form put phi- 1.4e-13 off (relative to its
    largest value), the tail sums 5e-15.  Each degree adds its three
    coefficients times its row to a (3, len r) accumulator, so memory
    stays O(len r) at any n_trunc.  The derivatives divide by y, so r = 0
    draws numpy's divide-by-zero warning.  Both reconstructions, spinor and
    coupled_system_residual are this sum; at a unit vector e_n it is
    zeta_n and its derivatives alone."""
    if n_trunc > len(values):
        raise ValueError("n_trunc exceeds the available coefficients")
    y = omega * np.asarray(r, dtype=float)
    nu = 2.0 * g + 1.0
    f = np.real(values[:n_trunc])
    n = np.arange(float(n_trunc))
    # A_n = sqrt(w n!/Gamma(n+nu+1)) as a running product, A_0 in log space:
    # Gamma(nu+1) leaves the double range at nu ~ 171
    steps = np.sqrt(n[1:] / (n[1:] + nu))
    norms = np.cumprod(np.concatenate(([math.exp(0.5 * (math.log(omega) - math.lgamma(nu + 1.0)))], steps)))
    c = np.append(np.where(np.isfinite(f), f, 0.0) * norms, 0.0)
    tails = np.cumsum(c[::-1])[::-1]  # sum_{m>=n} c_m, summed from the top degree down
    columns = np.stack([c[:-1], tails[1:], (n + g + 1.0) * c[:-1]], axis=1)
    sums = np.zeros((3,) + y.shape)
    for column, row in zip(columns, specfun.laguerre_rows(n_trunc, nu, y)):
        sums += np.multiply.outer(column, row)
    s0, s1, s2 = sums
    envelope = y ** (g + 1.0) * np.exp(-0.5 * y)
    first = omega * envelope * (((g + 1.0) / y - 0.5) * s0 - s1)
    second = omega**2 * envelope * ((g * (g + 1.0) / y**2 + 0.25) * s0 - s2 / y)
    return envelope * s0, first, second


def _gauss_basis(d: DerivedParams, n_basis: int):
    """(nodes, basis) of gram_matrix and verify_tridiagonal: the nodes y_k
    of the Gauss rule of order n_basis + 6 for the weight y^{2g+1} e^{-y},
    and basis[n, k] = A_n L_n^{2g+1}(y_k) sqrt(W_k / w), W_k its weights,
    so that sum_k basis[m, k] basis[n, k] f(y_k) integrates zeta_m zeta_n
    f(w r) under dr/(w r) where the rule is exact.  They are the rule's
    eigenvector rows times (-1)^n, L_n's leading sign; |entries| <= 1."""
    rule = specfun.gauss_laguerre_rule(n_basis + 6, 2.0 * d.gamma_eff + 1.0)
    sign = (-1.0) ** np.arange(n_basis)
    return rule.nodes, sign[:, None] * rule.vectors[:n_basis]


def gram_matrix(d: DerivedParams, n_basis: int) -> np.ndarray:
    """Gram matrix of the first n_basis elements under the orthonormality
    measure dr/(w r), evaluated by the generalized Gauss rule for the
    weight y^{2g+1} e^{-y}; identity up to quadrature roundoff."""
    _, basis = _gauss_basis(d, n_basis)
    return basis @ basis.T


def coefficients_recursion(d: DerivedParams, eps: float, n_max: int) -> CoefficientVector:
    """Expansion coefficients f_0..f_{n_max} by forward recursion on

        [a_n x + b] f_n = b_{n-1} f_{n-1} + b_n f_{n+1},   f_0 = 1,

    the normative source of truth.  In the bound regime (|x| > 1) the
    recursion runs in mpmath with the working precision scaled to the
    growth rate so the arithmetic itself adds nothing; note that at a
    bound energy known only to double precision the exact solution still
    contains an O(ulp) admixture of the growing branch, so this vector
    genuinely grows past n ~ |log ulp| / (2 log growth).  Use
    coefficients_bound_state for the square-summable eigenvector.
    """
    e = energy_point(eps)
    pol = map_to_pollaczek(d, e)
    extended = abs(pol.x) > 1.0
    num = mp.mpf if extended else float
    digits = 30 + int(2.2 * (n_max + 1) * math.log10(growth_rate(pol.x)))
    with mp.workdps(digits) if extended else contextlib.nullcontext():
        A, B, C = wave_rows(d, num(pol.x), num(pol.b), max(1, n_max))
        vals = [complex(v) for v in recurrence.forward(A, B, C, num(1), A[0] / B[0], n_max)]
    return CoefficientVector(values=np.asarray(vals, dtype=complex), eps=eps, source="recursion")


def coefficients_bound_state(d: DerivedParams, eps: float, n_max: int, guard: int = 40) -> CoefficientVector:
    """Square-summable coefficient vector at (or near) a bound energy by
    backward recurrence with a trial tail seeded `guard` indices above
    n_max, normalized to f_0 = 1: one `recurrence.backward` pass in
    doubles, rescaled by powers of two.

    Forward recursion cannot deliver this vector from a double-precision
    energy: an eps rounded by one ulp puts an O(ulp) admixture of the
    growing solution into the exact forward solution, which overtakes
    the decaying part after a few steps.  The backward direction damps
    that admixture instead of amplifying it and is insensitive to the
    seed beyond the guard range.  It is stable in doubles: where
    a_n x + b cancels, the rounding of x and b costs the same digits at
    any working precision.
    """
    e = energy_point(eps)
    if e.regime is not Regime.BOUND:
        raise DomainError("bound-state coefficients need |eps| < 1")
    pol = map_to_pollaczek(d, e)
    top = n_max + guard
    A, B, C = wave_rows(d, pol.x, pol.b, top + 1)
    f = np.asarray(recurrence.backward(A, B, C, top, 0.0, 1.0)[: n_max + 1], dtype=complex)
    return CoefficientVector(values=f / f[0], eps=eps, source="miller")


def coefficients_closed_form(d: DerivedParams, eps: float, n_max: int) -> CoefficientVector:
    """Hypergeometric closed form of the same coefficients,

        f_n = sqrt(Gamma(2 lam) / (Gamma(n+1) Gamma(n+2 lam)))
              (lam - i phi)_n e^{i n theta}
              2F1(-n, lam + i phi; 1 - n - lam + i phi; e^{-2 i theta}),

    the variant that reproduces the recursion to machine precision in
    both regimes (validated against coefficients_recursion; the
    recursion stays normative).  One array pass over n = 0..n_max: the
    series from one `specfun.hyp2f1_terminating_rows` call, the
    Pochhammer factors from one elementwise `specfun.pochhammer` call,
    and the prefactor as the running product of 1/sqrt((k+1)(k+2 lam)),
    k < n.  Raises BottomPoleError, with the offending (n, k), if a
    bottom Pochhammer factor of a series vanishes before termination (in
    the physical parameter range this happens only at exact quantization
    points), and OverflowError once a factor leaves the double range.
    """
    e = energy_point(eps)
    pol = map_to_pollaczek(d, e)
    ang = theta_phi(d, e)
    lam = pol.lam
    w = ang.exp_i_theta
    z = 1.0 / (w * w)
    phi = ang.phi
    ns = np.arange(n_max + 1)
    series = specfun.hyp2f1_terminating_rows(ns, lam + 1j * phi, 1.0 - ns - lam + 1j * phi, z)
    pref = np.cumprod(np.concatenate(([1.0], 1.0 / np.sqrt(ns[1:] * (ns[1:] + 2.0 * lam - 1.0)))))
    with np.errstate(over="ignore", invalid="ignore"):
        factors = pref * specfun.pochhammer(complex(lam, 0) - 1j * phi, ns) * w**ns
    bad = ~np.isfinite(factors)
    if bad.any():
        raise OverflowError(f"closed-form factor leaves the double range at n={int(np.argmax(bad))}")
    return CoefficientVector(values=factors * series, eps=eps, source="closed_form")


def reconstruct_upper(coeffs: CoefficientVector, d: DerivedParams, r_grid, n_trunc: int):
    """Truncated expansion sum_{n<n_trunc} f_n zeta_n on the grid, plus
    the tail-norm fraction sum_{n>=n_trunc}|f_n|^2 / sum|f_n|^2 (None
    when the vector holds no coefficients beyond the truncation).  Raises
    ValueError when n_trunc exceeds the vector."""
    out = _expansion(coeffs.values, d.gamma_eff, d.omega, r_grid, n_trunc)[0]
    tail = None
    if len(coeffs) > n_trunc:
        sq = np.abs(coeffs.values) ** 2
        total = float(np.sum(sq))
        if total > 0 and math.isfinite(total):
            tail = float(np.sum(sq[n_trunc:]) / total)
    return out, tail


def reconstruct_derivative(coeffs: CoefficientVector, d: DerivedParams, r_grid, n_trunc: int):
    """d/dr of the truncated expansion (analytic basis derivatives).
    Raises ValueError when n_trunc exceeds the vector."""
    return _expansion(coeffs.values, d.gamma_eff, d.omega, r_grid, n_trunc)[1]


def _kinetic_balance(d: DerivedParams, eps: float, r, phi, dphi):
    """The kinetic-balance relation of spinor and coupled_system_residual,

        [compton/(eps + gamma/kappa)] ((-Z/kappa + gamma/r) phi + dphi);

    raises KineticBalanceSingular when its denominator vanishes (within
    1e-12)."""
    denom = eps + d.gamma / d.kappa
    if abs(denom) < 1e-12:
        raise KineticBalanceSingular(f"eps + gamma/kappa = {denom:.3e}")
    return d.compton / denom * ((-d.z / d.kappa + d.gamma / r) * phi + dphi)


def spinor(coeffs: CoefficientVector, d: DerivedParams, eps: float, r_grid, n_trunc: int):
    """(phi+, phi-) on the grid from one basis pass: the truncated
    expansion phi+ = sum_{n<n_trunc} f_n zeta_n and the lower component
    from the kinetic-balance relation

        phi- = [compton/(eps + gamma/kappa)] (-Z/kappa + gamma/r + d/dr) phi+,

    applied analytically to the expansion (gamma here is the original,
    sign-carrying parameter).  Raises KineticBalanceSingular when the
    prefactor denominator vanishes, ValueError when n_trunc exceeds the
    vector.
    """
    r = np.asarray(r_grid, dtype=float)
    phi_plus, dphi, _ = _expansion(coeffs.values, d.gamma_eff, d.omega, r, n_trunc)
    return phi_plus, _kinetic_balance(d, eps, r, phi_plus, dphi)


def lower_component(coeffs: CoefficientVector, d: DerivedParams, eps: float, r_grid,
                    n_trunc: int | None = None):
    """The phi- half of spinor, over the whole vector by default; a float
    for a scalar r."""
    if n_trunc is None:
        n_trunc = len(coeffs)
    _, out = spinor(coeffs, d, eps, r_grid, n_trunc)
    return float(out) if np.ndim(r_grid) == 0 else out


def _radial_constant(d: DerivedParams, eps: float) -> float:
    # (1 - eps^2)/compton^2, stable near threshold
    return -eps_sq_minus_one(eps) / (d.compton * d.compton)


def schrodinger_residual(phi_values, r_grid, d: DerivedParams, eps: float) -> float:
    """Normalized residual of the second-order radial equation on a
    uniform grid, with the second derivative taken by fourth-order
    central differences on interior points:

        max |[-D2 + g(g+1)/r^2 + 2 Z eps/r + (1-eps^2)/compton^2] phi|
            / (||phi||_inf * max|coefficient|).
    """
    r = np.asarray(r_grid, dtype=float)
    phi = np.asarray(phi_values, dtype=float)
    if r.size < 5:
        raise GridError("need at least 5 grid points")
    h = r[1] - r[0]
    if h <= 0 or np.max(np.abs(np.diff(r) - h)) > 1e-9 * h:
        raise GridError("grid must be uniform and increasing")
    g = d.gamma_eff
    c2 = (
        -phi[:-4] + 16.0 * phi[1:-3] - 30.0 * phi[2:-2] + 16.0 * phi[3:-1] - phi[4:]
    ) / (12.0 * h * h)
    rr = r[2:-2]
    coeff = g * (g + 1.0) / rr**2 + 2.0 * d.z * eps / rr + _radial_constant(d, eps)
    resid = np.max(np.abs(-c2 + coeff * phi[2:-2]))
    scale = float(np.max(np.abs(phi)))
    if scale == 0.0:
        return 0.0
    coeff_scale = float(
        np.max(np.abs(g * (g + 1.0) / rr**2) + np.abs(2.0 * d.z * eps / rr))
        + abs(_radial_constant(d, eps))
    )
    return float(resid / (scale * coeff_scale))


def verify_tridiagonal(d: DerivedParams, eps: float, n_basis: int) -> TridiagonalityReport:
    """Wave-operator matrix in the basis by generalized Gauss-Laguerre
    quadrature, exact for the polynomial integrands.

    The second-derivative action reduces analytically to

        L zeta_n = zeta_n [ (w^2 a_n + 2 Z eps w)/y + C ],
        C = (1-eps^2)/compton^2 - w^2/4,

    so every matrix element is one integral of zeta_m zeta_n (w^2 a_n +
    2 Z eps w + C y) under dr/(w r), y = w r.  On the rows of `_gauss_basis`
    that is the Gram matrix with column n scaled by w^2 a_n + 2 Z eps w,
    plus C times the same product with y_k inside, exact up to degree
    2 n_basis - 1.  Returns the off-tridiagonal ratio and the deviation
    of the extracted diagonal/off-diagonal from the recursion coefficients.
    """
    if n_basis < 3:
        raise ValueError("n_basis must be >= 3")
    w = d.omega
    nodes, basis = _gauss_basis(d, n_basis)
    cc = _radial_constant(d, eps) - 0.25 * w * w
    a_n, b_n = recursion_coefficients(d).block(0, n_basis)
    matrix = cc * ((basis * nodes) @ basis.T) + (basis @ basis.T) * (w * w * a_n + 2.0 * d.z * eps * w)

    tri = np.triu(np.tril(matrix, 1), -1)
    offband = matrix - tri
    offband_ratio = float(np.max(np.abs(offband)) / np.max(np.abs(tri)))

    # compare with the recursion form: row scaling -2 (eps^2-1+beta^2)/compton^2
    pol = map_to_pollaczek(d, energy_point(eps))
    den = eps_sq_minus_one(eps) + d.beta * d.beta
    scale = -2.0 * den / (d.compton * d.compton)
    diag_expected = a_n * pol.x + pol.b
    diag_got = np.diag(matrix) / scale
    diag_dev = float(np.max(np.abs(diag_got - diag_expected) / (1.0 + np.abs(diag_expected))))
    b_n = b_n[:-1]
    off_got = np.diag(matrix, 1) / scale
    off_dev = float(np.max(np.abs(off_got - (-b_n)) / (1.0 + np.abs(b_n))))
    return TridiagonalityReport(
        offband_ratio=offband_ratio,
        diag_deviation=diag_dev,
        offdiag_deviation=off_dev,
        matrix=matrix,
    )


def coupled_system_residual(coeffs: CoefficientVector, d: DerivedParams, eps: float,
                            r_values, n_trunc: int | None = None) -> float:
    """Residual of the original coupled first-order radial system on the
    un-rotated spinor pair.

    The reconstructed (phi+, phi-) pair is rotated back by the inverse
    of the uncoupling rotation and inserted into both rows of

        (1 + compton^2 Z/r - eps) chi+ + compton (kappa/r - d/dr) chi- = 0
        compton (kappa/r + d/dr) chi+ + (-1 + compton^2 Z/r - eps) chi- = 0,

    with all derivatives analytic.  Returns the max row residual over
    the sample, normalized by the local |chi| scale.
    """
    if n_trunc is None:
        n_trunc = len(coeffs)
    r = np.asarray(r_values, dtype=float)
    lam = d.compton
    phi_p, dphi_p, d2phi_p = _expansion(coeffs.values, d.gamma_eff, d.omega, r, n_trunc)
    phi_m = _kinetic_balance(d, eps, r, phi_p, dphi_p)
    # d/dr of the relation: the same operator on phi_p', plus -gamma/r^2 phi_p
    dphi_m = _kinetic_balance(d, eps, r, dphi_p, d2phi_p - d.gamma / r**2 * phi_p)

    xi = rotation_angle(d)
    chi_p, chi_m = spinor_rotation(-xi, phi_p, phi_m)
    dchi_p, dchi_m = spinor_rotation(-xi, dphi_p, dphi_m)

    row1 = (1.0 + lam * lam * d.z / r - eps) * chi_p + lam * (d.kappa / r * chi_m - dchi_m)
    row2 = lam * (d.kappa / r * chi_p + dchi_p) + (-1.0 + lam * lam * d.z / r - eps) * chi_m
    scale = np.maximum(np.abs(chi_p), np.abs(chi_m)).max()
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.concatenate([row1, row2]))) / scale)
