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

The radial second-order equation used throughout is

    [-d^2/dr^2 + g(g+1)/r^2 + 2 Z eps / r + (1 - eps^2)/compton^2] phi = 0,

whose constant term is negative in the scattering regime (oscillatory
solutions) and positive for bound energies; it is invariant under
g -> -g-1, so either angular parameter gives the same operator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import specfun
from .errors import (
    DomainError,
    GridError,
    KineticBalanceSingular,
    QuadratureOrderError,
)
from .model import (
    DerivedParams,
    Regime,
    energy_point,
    eps_sq_minus_one,
    map_to_pollaczek,
    rotation_angle,
    theta_phi,
)

__all__ = [
    "BasisElement",
    "CoefficientVector",
    "TridiagonalityReport",
    "basis_value",
    "basis_derivative",
    "basis_second_derivative",
    "gram_matrix",
    "coefficients_recursion",
    "coefficients_bound_state",
    "coefficients_closed_form",
    "reconstruct_upper",
    "reconstruct_derivative",
    "lower_component",
    "schrodinger_residual",
    "verify_tridiagonal",
    "coupled_system_residual",
    "samples_to_csv",
    "matrix_to_text",
]


@dataclass(frozen=True)
class BasisElement:
    n: int
    gamma: float  # effective angular parameter of the basis
    omega: float

    @property
    def normalization(self) -> float:
        return math.exp(
            0.5 * (math.log(self.omega) + math.lgamma(self.n + 1.0) - math.lgamma(self.n + 2.0 * self.gamma + 2.0))
        )


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


def _envelope(gamma: float, omega: float, r):
    """(y, y^{g+1}, e^{-y/2}) with y = omega r: the degree-independent
    factors of every basis element.  The basis sums take them once and
    multiply them in the order basis_value does, so a sum equals the sum
    of basis_value terms bit for bit."""
    y = omega * np.asarray(r, dtype=float)
    return y, y ** (gamma + 1.0), np.exp(-0.5 * y)


def basis_value(elem: BasisElement, r):
    """zeta_n(r); r may be a scalar or an ndarray of positive radii."""
    y, power, decay = _envelope(elem.gamma, elem.omega, r)
    nu = 2.0 * elem.gamma + 1.0
    out = elem.normalization * power * decay * specfun.laguerre(elem.n, nu, y)
    return float(out) if np.ndim(r) == 0 else out


def basis_derivative(elem: BasisElement, r):
    """d zeta_n / dr, via the Laguerre derivative identity (analytic; no
    differencing)."""
    y, power, decay = _envelope(elem.gamma, elem.omega, r)
    nu = 2.0 * elem.gamma + 1.0
    lag = specfun.laguerre(elem.n, nu, y)
    dlag = specfun.laguerre_derivative(elem.n, nu, y)
    out = elem.omega * elem.normalization * power * decay * (((elem.gamma + 1.0) / y - 0.5) * lag + dlag)
    return float(out) if np.ndim(r) == 0 else out


def basis_second_derivative(elem: BasisElement, r):
    """d^2 zeta_n / dr^2 = w^2 zeta_n [g(g+1)/y^2 - (n+g+1)/y + 1/4];
    the first-derivative term drops because the basis exponent matches
    the Laguerre weight."""
    y = elem.omega * np.asarray(r, dtype=float)
    g = elem.gamma
    out = (
        elem.omega**2
        * basis_value(elem, r)
        * (g * (g + 1.0) / y**2 - (elem.n + g + 1.0) / y + 0.25)
    )
    return float(out) if np.ndim(r) == 0 else out


def gram_matrix(d: DerivedParams, n_basis: int, order: int | None = None) -> np.ndarray:
    """Gram matrix of the first n_basis elements under the orthonormality
    measure dr/(w r), evaluated by the generalized Gauss rule for the
    weight y^{2g+1} e^{-y}; identity up to quadrature roundoff."""
    g = d.gamma_eff
    nu = 2.0 * g + 1.0
    if order is None:
        order = n_basis + 6
    rule = specfun.gauss_laguerre_rule(order, nu)
    lag = np.array(list(specfun.laguerre_rows(n_basis, nu, rule.nodes)))
    norms = np.array([BasisElement(n, g, d.omega).normalization for n in range(n_basis)])
    core = lag * rule.weights  # broadcasts over nodes
    gram = core @ lag.T
    return (np.outer(norms, norms) / d.omega) * gram


def _growth_factor(x: float) -> float:
    return abs(x) + math.sqrt(x * x - 1.0) if abs(x) > 1.0 else 2.0


def _mp_to_complex(v) -> complex:
    try:
        return complex(v)
    except OverflowError:
        re = math.copysign(math.inf, float(mp.sign(mp.re(v)))) if mp.re(v) != 0 else 0.0
        im = math.copysign(math.inf, float(mp.sign(mp.im(v)))) if mp.im(v) != 0 else 0.0
        return complex(re, im)


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
    g = d.gamma_eff
    a_ = lambda n: n + g + 1.0
    b_ = lambda n: 0.5 * math.sqrt((n + 1.0) * (n + 2.0 * g + 2.0))
    if abs(pol.x) <= 1.0:
        vals = [1.0]
        prev = 0.0
        for n in range(n_max):
            nxt = ((a_(n) * pol.x + pol.b) * vals[n] - (b_(n - 1) * prev if n > 0 else 0.0)) / b_(n)
            prev = vals[n]
            vals.append(nxt)
        return CoefficientVector(values=np.asarray(vals, dtype=complex), eps=eps, source="recursion")
    digits = 30 + int(2.2 * (n_max + 1) * math.log10(_growth_factor(pol.x)))
    with mp.workdps(digits):
        x = mp.mpf(pol.x)
        b = mp.mpf(pol.b)
        vals_mp = [mp.mpf(1)]
        prev = mp.mpf(0)
        for n in range(n_max):
            nxt = ((a_(n) * x + b) * vals_mp[n] - (b_(n - 1) * prev if n > 0 else 0)) / b_(n)
            prev = vals_mp[n]
            vals_mp.append(nxt)
        vals = [_mp_to_complex(v) for v in vals_mp]
    return CoefficientVector(values=np.asarray(vals, dtype=complex), eps=eps, source="recursion")


def coefficients_bound_state(d: DerivedParams, eps: float, n_max: int, guard: int = 40) -> CoefficientVector:
    """Square-summable coefficient vector at (or near) a bound energy by
    backward recurrence with a trial tail seeded `guard` indices above
    n_max, normalized to f_0 = 1.

    Forward recursion cannot deliver this vector from a double-precision
    energy: an eps rounded by one ulp puts an O(ulp) admixture of the
    growing solution into the exact forward solution, which overtakes
    the decaying part after a few steps.  The backward direction damps
    that admixture instead of amplifying it and is insensitive to the
    seed beyond the guard range.
    """
    e = energy_point(eps)
    if e.regime is not Regime.BOUND:
        raise DomainError("bound-state coefficients need |eps| < 1")
    pol = map_to_pollaczek(d, e)
    g = d.gamma_eff
    a_ = lambda n: n + g + 1.0
    b_ = lambda n: 0.5 * math.sqrt((n + 1.0) * (n + 2.0 * g + 2.0))
    top = n_max + guard
    with mp.workdps(30):
        x = mp.mpf(pol.x)
        b = mp.mpf(pol.b)
        f = [mp.mpf(0)] * (top + 2)
        f[top + 1] = mp.mpf(0)
        f[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            f[n - 1] = ((a_(n) * x + b) * f[n] - b_(n) * f[n + 1]) / b_(n - 1)
        scale = f[0]
        vals = [_mp_to_complex(f[n] / scale) for n in range(n_max + 1)]
    return CoefficientVector(values=np.asarray(vals, dtype=complex), eps=eps, source="miller")


def coefficients_closed_form(d: DerivedParams, eps: float, n_max: int) -> CoefficientVector:
    """Hypergeometric closed form of the same coefficients,

        f_n = sqrt(Gamma(2 lam) / (Gamma(n+1) Gamma(n+2 lam)))
              (lam - i phi)_n e^{i n theta}
              2F1(-n, lam + i phi; 1 - n - lam + i phi; e^{-2 i theta}),

    the variant that reproduces the recursion to machine precision in
    both regimes (validated against coefficients_recursion; the
    recursion stays normative).  Raises BottomPoleError, with the
    offending (n, k), if a bottom Pochhammer factor vanishes before
    termination; in the physical parameter range this happens only at
    exact quantization points.
    """
    e = energy_point(eps)
    pol = map_to_pollaczek(d, e)
    ang = theta_phi(d, e)
    lam = pol.lam
    w = ang.exp_i_theta
    z = 1.0 / (w * w)
    phi = ang.phi
    vals = []
    for n in range(n_max + 1):
        pref = math.exp(0.5 * (math.lgamma(2.0 * lam) - math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * lam)))
        poch = specfun.pochhammer(complex(lam, 0) - 1j * phi, n)
        series = specfun.hyp2f1_terminating(n, lam + 1j * phi, 1.0 - n - lam + 1j * phi, z)
        vals.append(pref * poch * w**n * series)
    return CoefficientVector(values=np.asarray(vals, dtype=complex), eps=eps, source="closed_form")


def reconstruct_upper(coeffs: CoefficientVector, d: DerivedParams, r_grid, n_trunc: int):
    """Truncated expansion sum_{n<n_trunc} f_n zeta_n on the grid, plus
    the tail-norm fraction sum_{n>=n_trunc}|f_n|^2 / sum|f_n|^2 (None
    when the vector holds no coefficients beyond the truncation)."""
    if n_trunc > len(coeffs):
        raise ValueError("n_trunc exceeds the available coefficients")
    r = np.asarray(r_grid, dtype=float)
    g = d.gamma_eff
    y, power, decay = _envelope(g, d.omega, r)
    out = np.zeros_like(r)
    for n, lag in enumerate(specfun.laguerre_rows(n_trunc, 2.0 * g + 1.0, y)):
        f = coeffs.values[n].real
        if f == 0.0 or not math.isfinite(f):
            continue
        out += f * (BasisElement(n, g, d.omega).normalization * power * decay * lag)
    tail = None
    if len(coeffs) > n_trunc:
        sq = np.abs(coeffs.values) ** 2
        total = float(np.sum(sq))
        if total > 0 and math.isfinite(total):
            tail = float(np.sum(sq[n_trunc:]) / total)
    return out, tail


def reconstruct_derivative(coeffs: CoefficientVector, d: DerivedParams, r_grid, n_trunc: int):
    """d/dr of the truncated expansion (analytic basis derivatives).

    d/dy L_n^nu = -L_{n-1}^{nu+1}, so the nu+1 rows run one degree behind
    the nu rows, in lockstep."""
    r = np.asarray(r_grid, dtype=float)
    g = d.gamma_eff
    nu = 2.0 * g + 1.0
    y, power, decay = _envelope(g, d.omega, r)
    slope = (g + 1.0) / y - 0.5
    out = np.zeros_like(r)
    lowered = itertools.chain([0.0], specfun.laguerre_rows(n_trunc - 1, nu + 1.0, y))
    for n, (lag, lag_shifted) in enumerate(zip(specfun.laguerre_rows(n_trunc, nu, y), lowered)):
        f = coeffs.values[n].real
        if f == 0.0 or not math.isfinite(f):
            continue
        scale = d.omega * BasisElement(n, g, d.omega).normalization
        out += f * (scale * power * decay * (slope * lag - lag_shifted))
    return out


def lower_component(coeffs: CoefficientVector, d: DerivedParams, eps: float, r_grid,
                    n_trunc: int | None = None):
    """Lower spinor component from the kinetic-balance relation

        phi- = [compton/(eps + gamma/kappa)] (-Z/kappa + gamma/r + d/dr) phi+,

    applied analytically to the expansion (gamma here is the original,
    sign-carrying parameter).  Raises KineticBalanceSingular when the
    prefactor denominator vanishes.
    """
    denom = eps + d.gamma / d.kappa
    if abs(denom) < 1e-12:
        raise KineticBalanceSingular(f"eps + gamma/kappa = {denom:.3e}")
    if n_trunc is None:
        n_trunc = len(coeffs)
    r = np.asarray(r_grid, dtype=float)
    phi_plus, _ = reconstruct_upper(coeffs, d, r, n_trunc)
    dphi = reconstruct_derivative(coeffs, d, r, n_trunc)
    pref = d.compton / denom
    out = pref * ((-d.z / d.kappa + d.gamma / r) * phi_plus + dphi)
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


def verify_tridiagonal(d: DerivedParams, eps: float, n_basis: int,
                       order: int | None = None) -> TridiagonalityReport:
    """Wave-operator matrix in the basis by generalized Gauss-Laguerre
    quadrature, exact for the polynomial integrands.

    The second-derivative action reduces analytically to

        L zeta_n = zeta_n [ (w^2 a_n + 2 Z eps w)/y + C ],
        C = (1-eps^2)/compton^2 - w^2/4,

    so every matrix element is one integral of weight y^{2g+1} e^{-y}
    against the polynomial L_m L_n [(w^2 a_n + 2 Z eps w) + C y] of
    degree <= 2 n_basis - 1; an order >= n_basis rule integrates it
    exactly.  Returns the off-tridiagonal ratio and the deviation of the
    extracted diagonal/off-diagonal from the recursion coefficients.
    """
    if n_basis < 3:
        raise ValueError("n_basis must be >= 3")
    if order is None:
        order = n_basis + 6
    if 2 * order - 1 < 2 * n_basis - 1 + 2:
        raise QuadratureOrderError(f"order {order} cannot integrate degree {2*n_basis+1} exactly")
    g = d.gamma_eff
    nu = 2.0 * g + 1.0
    w = d.omega
    rule = specfun.gauss_laguerre_rule(order, nu)
    lag = np.array(list(specfun.laguerre_rows(n_basis, nu, rule.nodes)))
    norms = np.array([BasisElement(n, g, w).normalization for n in range(n_basis)])
    cc = _radial_constant(d, eps) - 0.25 * w * w
    a_n = np.arange(n_basis) + g + 1.0
    bracket = (w * w * a_n[None, :] + 2.0 * d.z * eps * w) + cc * rule.nodes[:, None]
    weighted = lag * rule.weights
    matrix = np.empty((n_basis, n_basis))
    for n in range(n_basis):
        matrix[:, n] = weighted @ (lag[n] * bracket[:, n])
    matrix *= np.outer(norms, norms) / w

    tri = np.triu(np.tril(matrix, 1), -1)
    offband = matrix - tri
    offband_ratio = float(np.max(np.abs(offband)) / np.max(np.abs(tri)))

    # compare with the recursion form: row scaling -2 (eps^2-1+beta^2)/compton^2
    e = energy_point(eps)
    pol = map_to_pollaczek(d, e)
    den = eps_sq_minus_one(eps) + d.beta * d.beta
    scale = -2.0 * den / (d.compton * d.compton)
    diag_expected = a_n * pol.x + pol.b
    diag_got = np.diag(matrix) / scale
    diag_dev = float(np.max(np.abs(diag_got - diag_expected) / (1.0 + np.abs(diag_expected))))
    b_n = 0.5 * np.sqrt((np.arange(n_basis - 1) + 1.0) * (np.arange(n_basis - 1) + 2.0 * g + 2.0))
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
    denom = eps + d.gamma / d.kappa
    if abs(denom) < 1e-12:
        raise KineticBalanceSingular(f"eps + gamma/kappa = {denom:.3e}")
    pref = lam / denom

    phi_p, _ = reconstruct_upper(coeffs, d, r, n_trunc)
    dphi_p = reconstruct_derivative(coeffs, d, r, n_trunc)
    g = d.gamma_eff
    y, power, decay = _envelope(g, d.omega, r)
    d2phi_p = np.zeros_like(r)
    for n, lag in enumerate(specfun.laguerre_rows(n_trunc, 2.0 * g + 1.0, y)):
        f = coeffs.values[n].real
        if f == 0.0 or not math.isfinite(f):
            continue
        zeta = BasisElement(n, g, d.omega).normalization * power * decay * lag
        d2phi_p += f * (d.omega**2 * zeta * (g * (g + 1.0) / y**2 - (n + g + 1.0) / y + 0.25))
    op = -d.z / d.kappa + d.gamma / r
    phi_m = pref * (op * phi_p + dphi_p)
    dphi_m = pref * (op * dphi_p - d.gamma / r**2 * phi_p + d2phi_p)

    xi = rotation_angle(d)
    c, s = math.cos(0.5 * xi), math.sin(0.5 * xi)
    chi_p = c * phi_p - s * phi_m
    chi_m = s * phi_p + c * phi_m
    dchi_p = c * dphi_p - s * dphi_m
    dchi_m = s * dphi_p + c * dphi_m

    row1 = (1.0 + lam * lam * d.z / r - eps) * chi_p + lam * (d.kappa / r * chi_m - dchi_m)
    row2 = lam * (d.kappa / r * chi_p + dchi_p) + (-1.0 + lam * lam * d.z / r - eps) * chi_m
    scale = np.maximum(np.abs(chi_p), np.abs(chi_m)).max()
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.concatenate([row1, row2]))) / scale)


def samples_to_csv(r_grid, phi_plus, phi_minus) -> str:
    lines = ["r,phi_plus,phi_minus"]
    for r, up, lo in zip(r_grid, phi_plus, phi_minus):
        lines.append(f"{r:.16e},{up:.16e},{lo:.16e}")
    return "\n".join(lines) + "\n"


def matrix_to_text(matrix: np.ndarray, gamma: float, eps: float) -> str:
    """Dense row-major text dump with a 3-line header (N, gamma, eps)."""
    n = matrix.shape[0]
    lines = [f"N {n}", f"gamma {gamma:.16e}", f"eps {eps:.16e}"]
    for row in matrix:
        lines.append(" ".join(f"{v:.16e}" for v in row))
    return "\n".join(lines) + "\n"
