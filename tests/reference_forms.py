"""Earlier, one-definition-per-caller forms of code that is now shared.

Each function here is the body a library function had before the basis
sums, the Gauss basis table, the kinetic balance, the spinor rotation,
the angle map in x, the wave rows and the growth rate were each written
once.  The tests compare the shared forms against these with `==`, so a
change to the order of any product shows up.  The exception is the
term-by-term Kahan loop of the terminating 2F1, which the array pass of
`specfun.hyp2f1_terminating_rows` replaced: numpy rounds complex products
and quotients differently from CPython, so the two agree to a rounding
bound, not bit for bit.  The golden-section search of the asymptotic fit,
which Brent's method replaced, is another exception: the two stop at
different points of the same minimum, so they agree to the search's
resolution.  The Gram and wave-operator matrices, which now come from the
Gauss rule's eigenvector rows instead of Laguerre values times weights,
are the last: the two sum different roundings of the same integrals.
Nothing here calls the code it is compared with.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from tridirac import specfun
from tridirac.errors import BottomPoleError, BranchError, KineticBalanceSingular, PoleError, SingularMapError
from tridirac.model import Regime, energy_point, map_to_pollaczek, recursion_coefficients, rotation_angle
from tridirac.wavefunction import BasisElement


def hyp2f1_terminating(n, b, c, z):
    """sum_{k=0}^{n} (-n)_k (b)_k / ((c)_k k!) z^k, one term at a time
    with Kahan compensation; BottomPoleError(n, k) at c + k = 0."""
    if n < 0:
        raise ValueError("top parameter -n requires n >= 0")
    b = complex(b)
    c = complex(c)
    z = complex(z)
    scale = max(1.0, abs(c))
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan carry
    term = 1.0 + 0.0j
    for k in range(n + 1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if k == n:
            break
        ck = c + k
        if abs(ck) <= 1e-13 * scale:
            raise BottomPoleError(n, k)
        term = term * (-n + k) * (b + k) * z / (ck * (k + 1))
    return total


def _envelope(gamma, omega, r):
    y = omega * np.asarray(r, dtype=float)
    return y, y ** (gamma + 1.0), np.exp(-0.5 * y)


def laguerre_derivative(n, nu, x):
    """d/dx L_n^nu(x) = -L_{n-1}^{nu+1}(x); zero for n = 0."""
    if n == 0:
        return np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0
    return -specfun.laguerre(n - 1, nu + 1.0, x)


def basis_value(elem, r):
    y, power, decay = _envelope(elem.gamma, elem.omega, r)
    nu = 2.0 * elem.gamma + 1.0
    out = elem.normalization * power * decay * specfun.laguerre(elem.n, nu, y)
    return float(out) if np.ndim(r) == 0 else out


def basis_derivative(elem, r):
    y, power, decay = _envelope(elem.gamma, elem.omega, r)
    nu = 2.0 * elem.gamma + 1.0
    lag = specfun.laguerre(elem.n, nu, y)
    dlag = laguerre_derivative(elem.n, nu, y)
    out = elem.omega * elem.normalization * power * decay * (((elem.gamma + 1.0) / y - 0.5) * lag + dlag)
    return float(out) if np.ndim(r) == 0 else out


def basis_second_derivative(elem, r):
    y = elem.omega * np.asarray(r, dtype=float)
    g = elem.gamma
    out = elem.omega**2 * basis_value(elem, r) * (g * (g + 1.0) / y**2 - (elem.n + g + 1.0) / y + 0.25)
    return float(out) if np.ndim(r) == 0 else out


def expansion(coeffs, d, r, n_trunc, element):
    """sum_{n < n_trunc} f_n element(zeta_n), one element at a time."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for n in range(n_trunc):
        f = coeffs.values[n].real
        if f != 0.0 and math.isfinite(f):
            out += f * element(BasisElement(n, d.gamma_eff, d.omega), r)
    return out


def lower_component(coeffs, d, eps, r_grid, n_trunc=None):
    denom = eps + d.gamma / d.kappa
    if abs(denom) < 1e-12:
        raise KineticBalanceSingular(f"eps + gamma/kappa = {denom:.3e}")
    if n_trunc is None:
        n_trunc = len(coeffs)
    r = np.asarray(r_grid, dtype=float)
    phi_plus = expansion(coeffs, d, r, n_trunc, basis_value)
    dphi = expansion(coeffs, d, r, n_trunc, basis_derivative)
    pref = d.compton / denom
    out = pref * ((-d.z / d.kappa + d.gamma / r) * phi_plus + dphi)
    return float(out) if np.ndim(r_grid) == 0 else out


def coupled_system_residual(coeffs, d, eps, r_values, n_trunc=None):
    if n_trunc is None:
        n_trunc = len(coeffs)
    r = np.asarray(r_values, dtype=float)
    lam = d.compton
    denom = eps + d.gamma / d.kappa
    if abs(denom) < 1e-12:
        raise KineticBalanceSingular(f"eps + gamma/kappa = {denom:.3e}")
    pref = lam / denom

    phi_p = expansion(coeffs, d, r, n_trunc, basis_value)
    dphi_p = expansion(coeffs, d, r, n_trunc, basis_derivative)
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


def tridiag_eigen_first_row(diag, offdiag):
    """(values, first components): the Christoffel-function loop that kept
    only sum_n p_n^2 at each node, before the eigenvector rows were kept."""
    d = np.array(diag, dtype=float)
    m = d.size
    off = np.asarray(offdiag, dtype=float).reshape(-1)
    nodes = np.linalg.eigvalsh(np.diag(d) + np.diag(off, -1))
    limit = math.ldexp(1.0, 512)
    prev = np.zeros(m)
    cur = np.ones(m)
    total = np.ones(m)
    exponent = np.zeros(m, dtype=int)
    for k in range(m - 1):
        prev, cur = cur, ((nodes - d[k]) * cur - (off[k - 1] * prev if k else 0.0)) / off[k]
        total += cur * cur
        big = total > limit
        if big.any():
            cur[big] = np.ldexp(cur[big], -256)
            prev[big] = np.ldexp(prev[big], -256)
            total[big] = np.ldexp(total[big], -512)
            exponent[big] += 256
    return nodes, np.ldexp(1.0 / np.sqrt(total), -exponent)


def gauss_laguerre_rule(order, nu):
    """(nodes, weights) of the generalized Gauss-Laguerre rule from the
    first-row loop above."""
    mass = math.exp(math.lgamma(nu + 1.0))
    k = np.arange(order, dtype=float)
    j = np.arange(1, order, dtype=float)
    nodes, first = tridiag_eigen_first_row(2 * k + nu + 1, np.sqrt(j * (j + nu)))
    return nodes, mass * first**2


def gram_matrix(d, n_basis):
    g = d.gamma_eff
    nu = 2.0 * g + 1.0
    rule = specfun.gauss_laguerre_rule(n_basis + 6, nu)
    lag = np.array(list(specfun.laguerre_rows(n_basis, nu, rule.nodes)))
    norms = np.array([BasisElement(n, g, d.omega).normalization for n in range(n_basis)])
    core = lag * rule.weights
    gram = core @ lag.T
    return (np.outer(norms, norms) / d.omega) * gram


def _radial_constant(d, eps):
    return -((eps - 1.0) * (eps + 1.0)) / (d.compton * d.compton)


def verify_tridiagonal(d, eps, n_basis):
    """(offband_ratio, diag_deviation, offdiag_deviation, matrix)."""
    if n_basis < 3:
        raise ValueError("n_basis must be >= 3")
    g = d.gamma_eff
    nu = 2.0 * g + 1.0
    w = d.omega
    rule = specfun.gauss_laguerre_rule(n_basis + 6, nu)
    lag = np.array(list(specfun.laguerre_rows(n_basis, nu, rule.nodes)))
    norms = np.array([BasisElement(n, g, w).normalization for n in range(n_basis)])
    cc = _radial_constant(d, eps) - 0.25 * w * w
    a_n, b_n = recursion_coefficients(d).block(0, n_basis)
    bracket = (w * w * a_n[None, :] + 2.0 * d.z * eps * w) + cc * rule.nodes[:, None]
    weighted = lag * rule.weights
    matrix = np.empty((n_basis, n_basis))
    for n in range(n_basis):
        matrix[:, n] = weighted @ (lag[n] * bracket[:, n])
    matrix *= np.outer(norms, norms) / w

    tri = np.triu(np.tril(matrix, 1), -1)
    offband = matrix - tri
    offband_ratio = float(np.max(np.abs(offband)) / np.max(np.abs(tri)))
    pol = map_to_pollaczek(d, energy_point(eps))
    den = (eps - 1.0) * (eps + 1.0) + d.beta * d.beta
    scale = -2.0 * den / (d.compton * d.compton)
    diag_expected = a_n * pol.x + pol.b
    diag_got = np.diag(matrix) / scale
    diag_dev = float(np.max(np.abs(diag_got - diag_expected) / (1.0 + np.abs(diag_expected))))
    b_n = b_n[:-1]
    off_got = np.diag(matrix, 1) / scale
    off_dev = float(np.max(np.abs(off_got - (-b_n)) / (1.0 + np.abs(b_n))))
    return offband_ratio, diag_dev, off_dev, matrix


def theta_phi(d, e):
    """(theta, phi, exp_i_theta, branch)."""
    pol = map_to_pollaczek(d, e)
    x = pol.x
    if e.regime is Regime.SCATTERING:
        theta = math.acos(max(-1.0, min(1.0, x)))
        sin_theta = math.sin(theta)
        if sin_theta == 0.0:
            raise SingularMapError(f"polynomial argument degenerate at x={x} (eps={e.eps})")
        w = cmath.exp(1j * theta)
        phi = pol.b / sin_theta
        return complex(theta), complex(phi), w, "scattering"
    w = x + math.sqrt(x * x - 1.0)
    theta = -1j * cmath.log(complex(w))
    sin_theta = -1j * math.sqrt(x * x - 1.0)
    phi = pol.b / sin_theta
    branch = "bound_right" if x > 1.0 else "bound_left"
    return theta, phi, complex(w), branch


def _bound_branch(params, x):
    if abs(x) <= 1.0:
        raise BranchError("bound-regime form needs |x| > 1")
    root = math.sqrt(x * x - 1.0)
    w = x + root
    phi_over_i = params.b / root
    if x > 1.0:
        exponent = params.lam + phi_over_i
    else:
        exponent = params.lam - phi_over_i
    return w, exponent


def asymptotic_bound_log(params, x, n):
    if n < 1:
        raise ValueError("n must be >= 1")
    w, exponent = _bound_branch(params, x)
    lam = params.lam
    try:
        lg = specfun.log_gamma(exponent)
    except PoleError:
        return -math.inf, 1.0
    if x > 1.0:
        other = 2.0 * lam - exponent
        log_mod = (exponent - 1.0) * math.log(n) + n * math.log(w) - other * math.log1p(-w ** -2) - lg.real
        return log_mod, 1.0
    other = 2.0 * lam - exponent
    log_mod = (exponent - 1.0) * math.log(n) + n * math.log(abs(1.0 / w)) - other * math.log1p(-w * w) - lg.real
    sign = 1.0 if n % 2 == 0 else -1.0
    return log_mod, sign


def minimal_solution_defect(d, eps, n_probe):
    pol = map_to_pollaczek(d, energy_point(eps))
    x, b = pol.x, pol.b
    w = abs(x) + math.sqrt(x * x - 1.0)
    guard = max(40, min(100_000, int(10.0 / math.log(max(w, 1.0 + 1e-12))) + 40))
    top = n_probe + guard
    diag, off = (v.tolist() for v in recursion_coefficients(d).block(0, top + 1))
    f_hi = 0.0
    f = 1.0
    for n in range(top, 0, -1):
        f_lo = ((diag[n] * x + b) * f - off[n] * f_hi) / off[n - 1]
        f_hi, f = f, f_lo
        if abs(f) > 1e100:
            scale = abs(f)
            f_hi /= scale
            f /= scale
    if f == 0.0:
        return math.inf
    ratio_back = f_hi / f
    ratio_forward = (diag[0] * x + b) / off[0]
    return abs(ratio_back - ratio_forward) / (1.0 + abs(ratio_forward))


def golden_section_minimize(f, lo, hi):
    """The 70-step golden-section search that `scattering.fit_asymptotics`
    ran on its theta bracket before Brent's method replaced it: the
    midpoint of the bracket left after exactly 70 steps, whatever f's
    flatness."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - inv_phi * (hi - lo)
    c2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(c1), f(c2)
    for _ in range(70):
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - inv_phi * (hi - lo)
            f1 = f(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + inv_phi * (hi - lo)
            f2 = f(c2)
    return 0.5 * (lo + hi)
