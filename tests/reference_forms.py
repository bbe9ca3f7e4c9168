"""Earlier, one-definition-per-caller forms of code that is now shared.

Each function here is the body a library function had before the Gauss
basis table, the angle map in x, the wave rows and the growth rate were
each written once.  The tests compare the shared forms against these with `==`, so a
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
The per-row CSV writer, which `cli.table_to_csv` keeps only for small
tables, is compared byte for byte with the numpy pass that replaced it
for the others, and so is the per-element relative deviation of the
`coefficients` command with its array form.  Nothing here calls the code
it is compared with.

The cmath form of log sin(pi z), which the scalar branch of
`specfun.log_gamma` used before every call went through the array kernel,
is kept as the reference of the reflection-identity tests.

The basis functions, the symmetric Pollaczek normalization, the standard
Pollaczek rows, the Casoratian and the bound-regime Darboux term are also
kept here as test references: the library reaches them only through other
paths (`wavefunction._expansion` at a unit vector, `model.wave_rows`,
`pollaczek.evaluate`, `resolvent.solution_pair`) or not at all.

The basis sums, the kinetic balance and the coupled-system residual are
checked against 40-digit mpmath instead (`mp_basis_sums`,
`mp_kinetic_balance`, `mp_coupled_residual`): the library takes the first
derivative from the L_n^{2g+1} rows by tail sums of the coefficients and
A_n as a running product, so it no longer matches the per-element forms
bit for bit, and these re-sum the per-element zeta_n, zeta_n' and
zeta_n'' of the same double coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from tridirac import specfun
from tridirac.errors import BottomPoleError, BranchError, PoleError, SingularMapError
from tridirac.model import Regime, map_to_pollaczek, recursion_coefficients, regime
from tridirac.wavefunction import CoefficientVector


@dataclass(frozen=True)
class BasisElement:
    """zeta_n of the basis, with A_n = sqrt(w n!/Gamma(n+2g+2)) from two
    log-Gamma calls: the per-degree normalization the basis sums used
    before A_n became a running product."""

    n: int
    gamma: float  # effective angular parameter of the basis
    omega: float

    @property
    def normalization(self) -> float:
        return math.exp(
            0.5 * (math.log(self.omega) + math.lgamma(self.n + 1.0) - math.lgamma(self.n + 2.0 * self.gamma + 2.0))
        )


def log_sin_pi(z):
    """log sin(pi z) of a complex z, stable for large |Im z| where sin overflows."""
    if abs(z.imag) < 10.0:
        return cmath.log(cmath.sin(cmath.pi * z))
    if z.imag > 0:
        return -1j * cmath.pi * z + 0.5j * cmath.pi - math.log(2.0) + cmath.log(1.0 - cmath.exp(2j * cmath.pi * z))
    return 1j * cmath.pi * z - 0.5j * cmath.pi - math.log(2.0) + cmath.log(1.0 - cmath.exp(-2j * cmath.pi * z))


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


def basis_value(elem, r):
    y, power, decay = _envelope(elem.gamma, elem.omega, r)
    nu = 2.0 * elem.gamma + 1.0
    out = elem.normalization * power * decay * specfun.laguerre(elem.n, nu, y)
    return float(out) if np.ndim(r) == 0 else out


def basis_second_derivative(elem, r):
    y = elem.omega * np.asarray(r, dtype=float)
    g = elem.gamma
    out = elem.omega**2 * basis_value(elem, r) * (g * (g + 1.0) / y**2 - (elem.n + g + 1.0) / y + 0.25)
    return float(out) if np.ndim(r) == 0 else out


def unit_vector(n):
    """The coefficient vector e_n, whose expansion is zeta_n alone."""
    values = np.zeros(n + 1, dtype=complex)
    values[n] = 1.0
    return CoefficientVector(values=values, eps=0.9, source="recursion")


_MP_DPS = 40


def _mp_laguerre_rows(n, nu, y):
    """L_0^nu(y)..L_{n-1}^nu(y) by the forward recurrence, in mpmath."""
    rows = [mp.mpf(1), 1 + nu - y]
    for k in range(1, n - 1):
        rows.append(((2 * k + nu + 1 - y) * rows[k] - (k + nu) * rows[k - 1]) / (k + 1))
    return rows[:n]


def mp_basis_sums(values, g, omega, r, n_trunc):
    """(phi, phi', phi'') = sum_{n<n_trunc} f_n (zeta_n, zeta_n', zeta_n'')
    at each radius of r, as three lists of 40-digit mpf.  f_n is the
    double Re values[n], skipped where zero or not finite; y is the double
    w r, as in the library; c_n = f_n A_n, A_n = sqrt(w n!/Gamma(n+2g+2)),
    and with E = y^{g+1} e^{-y/2}, nu = 2g+1,

        zeta_n   = A_n E L_n^nu(y),
        zeta_n'  = w A_n E [((g+1)/y - 1/2) L_n^nu(y) - L_{n-1}^{nu+1}(y)],
        zeta_n'' = w^2 zeta_n [g(g+1)/y^2 - (n+g+1)/y + 1/4],

    each Laguerre family by its own recurrence, and E, w and the bracket's
    n-free part taken out of the sums."""
    with mp.workdps(_MP_DPS):
        g, w = mp.mpf(g), mp.mpf(omega)
        nu = 2 * g + 1
        terms = [(n, float(values[n].real)) for n in range(n_trunc)]
        terms = [(n, f * mp.sqrt(w * mp.factorial(n) / mp.gamma(n + nu + 1)))
                 for n, f in terms if f != 0.0 and math.isfinite(f)]
        sums = ([], [], [])
        for radius in np.atleast_1d(r).tolist():
            y = mp.mpf(omega * radius)
            envelope = y ** (g + 1) * mp.exp(-y / 2)
            lag = _mp_laguerre_rows(n_trunc, nu, y)
            lowered = [0, *_mp_laguerre_rows(n_trunc - 1, nu + 1, y)]
            value = shifted = weighted = mp.mpf(0)  # sums of c_n L_n^nu, c_n L_{n-1}^{nu+1}, n c_n L_n^nu
            for n, c in terms:
                term = c * lag[n]
                value += term
                shifted += c * lowered[n]
                weighted += n * term
            sums[0].append(envelope * value)
            sums[1].append(w * envelope * (((g + 1) / y - mp.mpf(0.5)) * value - shifted))
            bracket = g * (g + 1) / y**2 - (g + 1) / y + mp.mpf(0.25)
            sums[2].append(w**2 * envelope * (bracket * value - weighted / y))
        return sums


def mp_kinetic_balance(d, eps, radius, phi, dphi):
    """[compton/(eps + gamma/kappa)] ((-Z/kappa + gamma/r) phi + dphi) in mpmath."""
    with mp.workdps(_MP_DPS):
        kappa, gamma, r = mp.mpf(d.kappa), mp.mpf(d.gamma), mp.mpf(radius)
        return d.compton / (eps + gamma / kappa) * ((-d.z / kappa + gamma / r) * phi + dphi)


def mp_coupled_residual(d, eps, r, sums):
    """(residual, largest term) of the coupled first-order system in
    40-digit mpmath, from the mp_basis_sums of r: the max row residual
    and the largest single term of either row, each over the largest
    |chi|, with chi the spinor rotated back by -xi."""
    with mp.workdps(_MP_DPS):
        lam, z, kappa, gamma = (mp.mpf(v) for v in (d.compton, d.z, d.kappa, d.gamma))
        xi = mp.atan2(lam * z / kappa, gamma / kappa)
        c, s = mp.cos(xi / 2), -mp.sin(xi / 2)
        rows, terms, chis = [], [], []
        for radius, phi, dphi, d2phi in zip(np.atleast_1d(r).tolist(), *sums):
            rr = mp.mpf(radius)
            phi_m = mp_kinetic_balance(d, eps, radius, phi, dphi)
            dphi_m = mp_kinetic_balance(d, eps, radius, dphi, d2phi - gamma / rr**2 * phi)
            chi_p, chi_m = c * phi + s * phi_m, -s * phi + c * phi_m
            dchi_p, dchi_m = c * dphi + s * dphi_m, -s * dphi + c * dphi_m
            row1 = [(1 + lam * lam * z / rr - eps) * chi_p, lam * kappa / rr * chi_m, -lam * dchi_m]
            row2 = [lam * kappa / rr * chi_p, lam * dchi_p, (-1 + lam * lam * z / rr - eps) * chi_m]
            rows += [abs(mp.fsum(row1)), abs(mp.fsum(row2))]
            terms += [abs(t) for t in row1 + row2]
            chis += [abs(chi_p), abs(chi_m)]
        scale = max(chis)
        return float(max(rows) / scale), float(max(terms) / scale)


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
    pol = map_to_pollaczek(d, eps)
    den = (eps - 1.0) * (eps + 1.0) + d.beta * d.beta
    scale = -2.0 * den / (d.compton * d.compton)
    diag_expected = a_n * pol.x + pol.b
    diag_got = np.diag(matrix) / scale
    diag_dev = float(np.max(np.abs(diag_got - diag_expected) / (1.0 + np.abs(diag_expected))))
    b_n = b_n[:-1]
    off_got = np.diag(matrix, 1) / scale
    off_dev = float(np.max(np.abs(off_got - (-b_n)) / (1.0 + np.abs(b_n))))
    return offband_ratio, diag_dev, off_dev, matrix


def theta_phi(d, eps):
    """(theta, phi, exp_i_theta, branch)."""
    pol = map_to_pollaczek(d, eps)
    x = pol.x
    if regime(eps) is Regime.SCATTERING:
        theta = math.acos(max(-1.0, min(1.0, x)))
        sin_theta = math.sin(theta)
        if sin_theta == 0.0:
            raise SingularMapError(f"polynomial argument degenerate at x={x} (eps={eps})")
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


def standard_rows(seq):
    """(A, B, C) of the standard Pollaczek recursion
    (n+1) P_{n+1} = 2[(n+lam)x + b] P_n - (n+2lam-1) P_{n-1} for the rows
    of a standard sequence, in the arithmetic of its argument x, for
    `recurrence.residual`."""
    lam, b, x = seq.params.lam, seq.params.b, seq.argument
    k = np.arange(max(1, len(seq.values) - 1), dtype=float)
    return [2 * (d * x + b) for d in (k + lam).tolist()], (k + 1.0).tolist(), (k + 2 * lam - 1).tolist()


def symmetric_values(seq):
    """Q_n = P_n sqrt(Gamma(n+1) Gamma(2lam+1) / Gamma(n+2lam)) of a
    standard sequence, the solution of the symmetrized recursion
    b_n Q_{n+1} = [(n+lam)x + b] Q_n - b_{n-1} Q_{n-1},
    b_n = sqrt((n+1)(n+2lam))/2.  Q_0 = sqrt(2 lam), not 1."""
    lam = seq.params.lam
    return [v * math.exp(0.5 * (math.lgamma(n + 1.0) + math.lgamma(2.0 * lam + 1.0) - math.lgamma(n + 2.0 * lam)))
            for n, v in enumerate(seq.values)]


def casoratian(coeffs, first, second):
    """b_n (P_n P*_{n+1} - P_{n+1} P*_n) for n = 0..len-2: constant, and 1
    for the initials of `resolvent.solution_pair`, when both sequences
    solve the recursion of `coeffs`."""
    b = coeffs.block(0, len(first) - 1)[1]
    first, second = np.asarray(first), np.asarray(second)
    return b * (first[:-1] * second[1:] - first[1:] * second[:-1])


def minimal_solution_defect(d, eps, n_probe):
    pol = map_to_pollaczek(d, eps)
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


def table_to_csv(table):
    """CSV text of the table {name: column} formatted one row at a time:
    float columns as %.16e, the others as %s."""
    columns = [np.asarray(column) for column in table.values()]
    fmt = ",".join("%.16e" if column.dtype.kind == "f" else "%s" for column in columns)
    lines = map(fmt.__mod__, zip(*(column.tolist() for column in columns)))
    return "\n".join([",".join(table), *lines]) + "\n"


def closed_rel_dev(closed, values):
    """`coefficients`' closed_rel_dev of one energy's coefficients, one
    element at a time."""
    return [abs(c - v) / max(1e-300, abs(v)) for c, v in zip(closed, values)]
