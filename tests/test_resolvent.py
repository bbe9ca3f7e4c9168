import cmath
import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms as ref
from tridirac import model, pollaczek, resolvent, specfun
from tridirac.errors import NoConvergence, SpectrumProximity
from tridirac.model import PhysicalParams


def coeffs_for_gamma(gamma):
    from tridirac.model import RecursionCoefficients

    return RecursionCoefficients(
        diag=lambda n: n + gamma + 1.0,
        offdiag=lambda n: 0.5 * np.sqrt((n + 1.0) * (n + 2.0 * gamma + 2.0)),
    )


class TestContinuedFraction:
    def test_depth_one_truncation(self):
        coeffs = coeffs_for_gamma(0.0)
        z = 3.0 + 0.5j
        assert_allclose(
            resolvent.green_function_truncated(coeffs, z, 1), 1.0 / (z - coeffs.diag(0)), rtol=1e-15
        )

    def test_depth_two_truncation(self):
        coeffs = coeffs_for_gamma(0.4)
        z = 3.0 + 0.5j
        expected = 1.0 / (z - coeffs.diag(0) - coeffs.offdiag(0) ** 2 / (z - coeffs.diag(1)))
        assert_allclose(resolvent.green_function_truncated(coeffs, z, 2), expected, rtol=1e-15)

    def test_matches_gauss_quadrature_resolvent(self):
        # depth-60 continued fraction against the eigen-decomposition of
        # the 60x60 truncation: two independent algorithms, same object
        coeffs = coeffs_for_gamma(0.0)
        diag, off = coeffs.block(0, 60)
        rule = specfun.gauss_rule_from_jacobi(diag, off[:-1], mass=1.0)
        z = 3.0 + 0.5j
        quad = np.sum(rule.weights / (z - rule.nodes))
        cf = resolvent.green_function_truncated(coeffs, z, 60)
        assert abs(cf - quad) < 1e-10

    def test_adaptive_matches_solution_ratio(self):
        # ratio-limit consistency at 20 random points with Im z >= 0.5
        rng = np.random.default_rng(13)
        coeffs = coeffs_for_gamma(0.3)
        for _ in range(20):
            z = complex(rng.uniform(-3, 25), rng.uniform(0.5, 4.0))
            est = resolvent.green_function(coeffs, z, tol=1e-12)
            p, q = resolvent.solution_pair(coeffs, z, est.depth)
            assert abs(q[-1] / p[-1] - est.value) < 10 * 1e-12 * max(1.0, abs(est.value))

    def test_truncation_differences_decrease(self):
        coeffs = coeffs_for_gamma(0.2)
        z = 4.0 + 1.0j
        depths = [10, 20, 40, 80, 160]
        vals = [resolvent.green_function_truncated(coeffs, z, d) for d in depths]
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        for a, b in zip(diffs, diffs[1:]):
            assert b < a or b < 1e-15  # monotone up to a rounding plateau

    def test_no_convergence_budget(self):
        coeffs = coeffs_for_gamma(0.0)
        with pytest.raises(NoConvergence):
            resolvent.green_function(coeffs, 5.0 + 1e-5j, tol=1e-13, max_depth=50)

    def test_real_axis_inside_spectrum_raises(self):
        coeffs = coeffs_for_gamma(0.0)
        with pytest.raises((SpectrumProximity, NoConvergence)):
            resolvent.green_function(coeffs, 2.0, tol=1e-13, max_depth=20000)

    def test_herglotz_sign(self):
        rng = np.random.default_rng(17)
        coeffs = coeffs_for_gamma(0.5)
        for _ in range(100):
            z = complex(rng.uniform(-2, 30), rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
            est = resolvent.green_function(coeffs, z, tol=1e-10)
            assert math.copysign(1.0, est.value.imag) == -math.copysign(1.0, z.imag)


class TestExactGreenFunction:
    """`green`'s matrix, a_n = n + g + 1 and b_n = sqrt((n+1)(n+2g+2))/2,
    is half the Laguerre Jacobi matrix of alpha = 2g + 1, whose spectral
    measure is the Gamma law; off [0, inf) its Stieltjes transform is
    G(z) = -2 w^alpha e^w Gamma(-alpha, w) with w = -2z (Szego 5.1,
    DLMF 8.2 and 18.9).  The oracle shares no code with the fraction."""

    @staticmethod
    def exact(gamma_eff, z):
        with mp.workdps(30):
            alpha = 2 * mp.mpf(gamma_eff) + 1
            w = -2 * mp.mpc(z)
            return complex(-2 * w ** alpha * mp.exp(w) * mp.gammainc(-alpha, w))

    @pytest.mark.parametrize("z", [3 + 0.5j, -2 + 1j, 10 + 0.2j, 5 - 3j, 0.5 + 0.3j])
    @pytest.mark.parametrize("charge, kappa, compton", [(-1.0, 1, 0.05), (-1.0, -2, 0.05), (-0.5, 2, 0.02)])
    def test_matches_closed_form(self, charge, kappa, compton, z):
        d = model.derive(PhysicalParams(z=charge, kappa=kappa, compton=compton))
        est = resolvent.green_function(model.recursion_coefficients(d), z, tol=1e-15)
        exact = self.exact(d.gamma_eff, z)
        assert abs(est.value - exact) <= 1e-10 * abs(exact)

    @pytest.mark.parametrize("z", [3 + 0.05j, 2 + 0.05j])
    def test_deep_points_at_tol_1e_12(self, z):
        # 85,036 and 58,682 levels; at tol 1e-15 they would run past the
        # 200,000-level budget.  The update stops at 1e-12, yet the value is
        # about 6e-11 off: tol bounds the last update, not the error
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.05))
        est = resolvent.green_function(model.recursion_coefficients(d), z, tol=1e-12)
        exact = self.exact(d.gamma_eff, z)
        assert est.depth > 50_000
        assert abs(est.value - exact) <= 1e-10 * abs(exact)

    @pytest.mark.parametrize("z, depth", [(3 + 0.05j, 139_274), (2 + 0.05j, 95_417)])
    def test_deep_points_at_tol_1e_15(self, z, depth):
        # the value folds the depth pass's chunk maps back from the stopping
        # level; the forward ratio B_D / A_D of the same pass is 1e-11 to
        # 5e-11 off here, the fold about 2e-13 at most
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.05))
        est = resolvent.green_function(model.recursion_coefficients(d), z, tol=1e-15)
        exact = self.exact(d.gamma_eff, z)
        assert est.depth == depth
        assert abs(est.value - exact) <= 5e-13 * abs(exact)


class TestExactPollaczekGreenFunction:
    """G(z) = <e_0|(z - J)^-1|e_0> for the Jacobi matrix J of
    `pollaczek.jacobi_coefficients` in closed form.  With e^{i theta} =
    z - sqrt(z-1) sqrt(z+1) (|e^{i theta}| < 1 off [-1, 1]) and
    Phi = b / sin(theta), the Euler integral of the generating function
    gives the minimal solution of the standard recursion,

        y_n = e^{i n theta} Gamma(n+2lam) / Gamma(n+lam+1+i Phi)
              2F1(lam+i Phi, n+2lam; n+lam+1+i Phi; e^{2 i theta}),

    psi_n = y_n sqrt(n! (lam+n) / Gamma(n+2lam)) solves the orthonormal
    one, and G = 1 / (z - a_0 - b_0 psi_1 / psi_0) (Pollaczek 1950;
    Chihara 1978, ch. VI; Ismail 2005, ch. 5).  The oracle shares no code
    with the fraction: a_0 and b_0 are written out from the docstring of
    `jacobi_coefficients`.  Tolerances: the fraction at tol 1e-14 within
    1e-12 |G|; densities at the Lentz tol 1e-9 within 1e-8 |G| / pi; the
    terminated fixed-depth grid at its default depth within 1e-12 |G| / pi
    (worst measured 3.5e-14, at eta = 1e-3)."""

    SETS = [(2.0, 8.9e-4), (1.6, -0.2), (0.6, 0.3), (1.0, -0.6), (2.3, 0.5)]
    ETAS = [0.5, 0.05, 0.01, 1e-3]  # 1e-3 is the `density` default
    XS = [-0.6, 0.1, 0.85]

    @staticmethod
    def exact(lam, b, z):
        with mp.workdps(30):
            lam, b, z = mp.mpf(lam), mp.mpf(b), mp.mpc(z)
            t = z - mp.sqrt(z - 1) * mp.sqrt(z + 1)
            assert abs(t) < 1
            ib = 1j * b / ((t - 1 / t) / 2j)  # i Phi

            def psi(n):
                y = t**n * mp.gamma(n + 2 * lam) / mp.gamma(n + lam + 1 + ib) * mp.hyp2f1(
                    lam + ib, n + 2 * lam, n + lam + 1 + ib, t * t)
                return y * mp.sqrt(mp.factorial(n) * (lam + n) / mp.gamma(n + 2 * lam))

            a0 = -b / lam
            b0 = mp.sqrt(2 * lam / (lam * (lam + 1))) / 2
            return complex(1 / (z - a0 - b0 * psi(1) / psi(0)))

    @staticmethod
    def coeffs(lam, b):
        return pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=lam, b=b))

    @pytest.mark.parametrize("z", [0.3 + 0.5j, -0.7 + 0.05j, 0.95 + 0.01j, 0.2 - 0.3j, 1.2, -1.3])
    @pytest.mark.parametrize("lam, b", SETS)
    def test_green_function(self, lam, b, z):
        exact = self.exact(lam, b, z)
        est = resolvent.green_function(self.coeffs(lam, b), z, tol=1e-14)
        assert abs(est.value - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("eta", ETAS + [1e-4])
    @pytest.mark.parametrize("lam, b", SETS)
    def test_densities(self, lam, b, eta):
        coeffs = self.coeffs(lam, b)
        grid = resolvent.spectral_density_grid(coeffs, self.XS, eta)
        for x, rho_grid in zip(self.XS, grid):
            exact = self.exact(lam, b, complex(x, eta))
            scale = abs(exact) / math.pi
            assert abs(resolvent.spectral_density(coeffs, x, eta) + exact.imag / math.pi) <= 1e-8 * scale
            assert abs(rho_grid + exact.imag / math.pi) <= 1e-12 * scale

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("charge, kappa, compton, eps", [(-1.0, 1, 0.02, 1.25), (-1.0, -2, 0.05, 1.3),
                                                             (-0.5, 2, 0.1, -1.6)])
    def test_energy_density(self, charge, kappa, compton, eps, eta):
        d = model.derive(PhysicalParams(z=charge, kappa=kappa, compton=compton))
        pol = model.map_to_pollaczek(d, model.energy_point(eps))
        rho_x, _ = resolvent.energy_density(d, eps, eta)
        exact = self.exact(pol.lam, pol.b, complex(pol.x, eta))
        assert abs(rho_x + exact.imag / math.pi) <= 1e-8 * abs(exact) / math.pi


class TestTerminatedFraction:
    """On a constant chain a_n = a, b_n = b the tail below every level is
    the attracting fixed point that `spectral_density_grid` puts below its
    deepest level, so the terminated fraction is exact at any depth >= 2:
    G = (w - sqrt(w - 2b) sqrt(w + 2b)) / (2 b^2), w = z - a, on the branch
    Im G <= 0, written 2 / (w + sqrt(w - 2b) sqrt(w + 2b)) to keep its
    digits where |w| >> b.  Tolerance 1e-13 |G| / pi, the error the
    default depth rule allows; worst measured 1.4e-14 (D = 1000, eta =
    1e-6, at the band centre)."""

    CHAINS = [(0.3, 0.5), (-1.2, 2.0)]
    OFFSETS = np.array([-3.0, -2.0, -1.9, -0.5, 0.0, 0.7, 1.99, 2.0, 5.0])  # x = a + b * offset

    @staticmethod
    def chain(a, b):
        return model.RecursionCoefficients(diag=lambda n: a + 0.0 * n, offdiag=lambda n: b + 0.0 * n)

    @pytest.mark.parametrize("eta", [0.3, 1e-3, 1e-6])
    @pytest.mark.parametrize("depth", [2, 3, 50, 1000, 4100])
    @pytest.mark.parametrize("a, b", CHAINS)
    def test_constant_chain_is_exact(self, a, b, depth, eta):
        xs = a + b * self.OFFSETS
        got = resolvent.spectral_density_grid(self.chain(a, b), xs, eta, depth=depth)
        for x, rho in zip(xs, got):
            w = complex(x, eta) - a
            exact = 2.0 / (w + cmath.sqrt(w - 2.0 * b) * cmath.sqrt(w + 2.0 * b))
            assert exact.imag <= 0.0
            assert abs(rho + exact.imag / math.pi) <= 1e-13 * abs(exact) / math.pi, (x, rho, exact)

    def test_depth_one_is_the_first_level(self):
        # level 0 has no s of its own to build a terminator from
        coeffs = self.chain(0.3, 0.5)
        xs = np.array([-0.4, 0.3, 2.0])
        want = -resolvent.green_function_truncated(coeffs, xs + 1e-3j, 1).imag / math.pi
        assert np.array_equal(resolvent.spectral_density_grid(coeffs, xs, 1e-3, depth=1), want)

    # one chunk, short padded chunks, group edges, and a group of one padded chunk below full ones
    DEPTHS = [2, 3, 4, 54, 56, 166, 513, 1000, 1500, 4100, 8001]

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_matches_per_level_sweep(self, depth):
        # families whose levels differ, so the terminator must be built
        # from level depth - 1 and no other
        grids = {"wave": (np.linspace(-3.0, 8.0, 120), 0.02), "pollaczek": (np.linspace(-0.99, 0.99, 99), 1e-3)}
        for family, coeffs in _truncation_families().items():
            xs, eta = grids[family]
            got = resolvent.spectral_density_grid(coeffs, xs, eta, depth=depth)
            want = _truncated_per_level(coeffs, xs + 1j * eta, depth, terminated=True)
            assert np.max(np.abs(got + want.imag / math.pi) / np.abs(want)) <= TRUNCATION_RTOL[family], family

    def test_underflowed_density_is_positive_zero(self):
        # far from the spectrum rho ~ eta / (pi x^2) underflows and Im G comes back +0
        coeffs = pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=1.6, b=-0.2))
        rho = resolvent.spectral_density_grid(coeffs, [1e200, 1e300, -1e300], 1e-3)
        assert np.array_equal(rho, np.zeros(3)) and not np.signbit(rho).any()


class TestCasoratian:
    def test_constancy_oscillatory_region(self):
        # z inside the essential spectrum keeps both solutions bounded,
        # so the identity is testable at strict relative tolerance
        coeffs = coeffs_for_gamma(0.5)
        p, q = resolvent.solution_pair(coeffs, 5.0, 200)
        w = ref.casoratian(coeffs, p, q)
        assert np.max(np.abs(w - w[0])) < 1e-9 * abs(w[0])
        assert_allclose(w[0], 1.0, rtol=1e-13)

    def test_pair_initials(self):
        coeffs = coeffs_for_gamma(0.1)
        p, q = resolvent.solution_pair(coeffs, 1.5 + 0.5j, 5)
        assert p[0] == 1.0
        assert q[0] == 0.0
        assert_allclose(q[1], 1.0 / coeffs.offdiag(0), rtol=1e-15)


class TestSpectralDensity:
    def test_far_outside_support(self):
        # the measure beyond x = 100 is ~ e^{-200}: what is left of the
        # smeared density there is the Lorentzian tail of the whole
        # measure, eta/pi <(x-t)^-2> ~ eta/(pi x^2), vanishing linearly
        coeffs = coeffs_for_gamma(0.0)
        rhos = [resolvent.spectral_density(coeffs, 100.0, eta, tol=1e-10) for eta in (1e-3, 1e-4, 1e-5)]
        assert abs(rhos[1]) < 1e-7
        assert abs(rhos[1] / rhos[0] - 0.1) < 0.02
        assert abs(rhos[2] / rhos[1] - 0.1) < 0.02

    def test_laguerre_weight_recovered(self):
        # gamma = 0 coefficients are half the nu = 1 Laguerre matrix, so
        # the density is 4 x e^{-2x}; the eta-smearing bias is O(eta)
        # and a two-point extrapolation in eta removes it
        coeffs = coeffs_for_gamma(0.0)
        for x in (0.5, 1.0, 2.0):
            r1 = -resolvent.green_function_truncated(coeffs, complex(x, 0.04), 40_000).imag / math.pi
            r2 = -resolvent.green_function_truncated(coeffs, complex(x, 0.02), 80_000).imag / math.pi
            extrap = 2.0 * r2 - r1
            exact = 4.0 * x * math.exp(-2.0 * x)
            assert abs(extrap - exact) / exact < 0.01

    def test_eta_stabilization_bounded_family(self):
        params = pollaczek.PollaczekParams(lam=1.6, b=-0.2)
        coeffs = pollaczek.jacobi_coefficients(params)
        vals = [
            resolvent.spectral_density_grid(coeffs, [0.3], eta)[0]
            for eta in (1e-2, 1e-3, 1e-4)
        ]
        assert abs(vals[1] - vals[0]) / vals[1] < 0.10
        assert abs(vals[2] - vals[1]) / vals[2] < 0.10

    def test_default_depth_is_limited(self):
        # the default depth is 6/eta levels: 6e9 at eta = 1e-9, hours of work
        coeffs = pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=1.6, b=-0.2))
        assert resolvent.MAX_DEFAULT_DEPTH == 2_000_000
        with pytest.raises(ValueError, match=r"eta=1e-09 needs a default depth of 6e\+09 levels"):
            resolvent.spectral_density_grid(coeffs, [0.3], 1e-9)
        limit_eta = 6.0 / resolvent.MAX_DEFAULT_DEPTH
        with pytest.raises(ValueError, match="above the limit"):
            resolvent.spectral_density_grid(coeffs, [0.3], 0.999 * limit_eta, depth=None)
        # an explicit depth is not limited by it
        small = resolvent.spectral_density_grid(coeffs, [0.3], 1e-9, depth=50)
        assert small.shape == (1,) and np.isfinite(small[0])

    def test_mass_normalization(self):
        # integral of the smeared density over a dominating window ~ 1
        params = pollaczek.PollaczekParams(lam=1.5, b=-0.1)
        coeffs = pollaczek.jacobi_coefficients(params)
        xs = np.linspace(-1.6, 1.6, 321)
        rho = resolvent.spectral_density_grid(coeffs, xs, 1e-2)
        total = np.trapezoid(rho, xs)
        assert abs(total - 1.0) < 0.02

    def test_peaks_align_with_truncation_eigenvalues(self):
        # at eta ~ level spacing the truncated-measure density peaks at
        # the truncation eigenvalues
        coeffs = coeffs_for_gamma(0.0)
        depth = 60
        diag, off = coeffs.block(0, depth)
        nodes, _ = specfun.tridiag_eigen_first_row(diag, off[:-1])
        target = nodes[3]
        spacing = 0.5 * (nodes[4] - nodes[2])
        xs = np.linspace(target - spacing, target + spacing, 201)
        g = resolvent.green_function_truncated(coeffs, xs + 1j * 0.1 * spacing, depth)
        rho = -np.imag(g) / math.pi
        assert abs(xs[np.argmax(rho)] - target) < 0.05 * spacing

    def test_energy_translation_jacobian(self):
        p = PhysicalParams(z=-1.0, kappa=1, compton=0.02)
        d = model.derive(p)
        rho_x, rho_eps = resolvent.energy_density(d, 1.25, 1e-3)
        e = model.energy_point(1.25)
        h = 1e-6
        jac = abs(
            model.map_to_pollaczek(d, model.energy_point(1.25 + h)).x
            - model.map_to_pollaczek(d, model.energy_point(1.25 - h)).x
        ) / (2 * h)
        assert_allclose(rho_eps, rho_x * jac, rtol=1e-5)  # independent step size
        assert rho_x > 0

    @pytest.mark.parametrize("eps", [1.25, 0.9, -1.7, 1.001, 3.0, -0.5])
    def test_jacobian_against_mpmath_derivative(self, eps):
        # |dx/d eps| of the map at the double beta, differentiated in mpmath
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=1.0))
        rho_x, rho_eps = resolvent.energy_density(d, eps, 1e-3)
        with mp.workdps(40):
            beta_sq = mp.mpf(d.beta) ** 2
            exact = abs(mp.diff(lambda e: (e * e - 1 - beta_sq) / (e * e - 1 + beta_sq), mp.mpf(eps)))
            assert abs(rho_eps / rho_x - exact) <= 1e-13 * exact


# --- the depth pass against Lentz's per-level loop and a 30-digit reference --

def _lentz_levels(coeffs, z):
    """The per-level modified Lentz loop, one coefficient-map call per
    level, as a generator of (depth, f, delta): the reference for the
    stopping rule, which computes delta = c d - 1 in doubles.  Within
    1e-14 (1 + |z|) of the axis a vanishing partial denominator takes a
    1e-30 floor off the axis and raises on it.  The float() calls keep
    Python scalars, as math.sqrt maps gave."""
    z = complex(z)
    on_axis = z.imag == 0.0
    a0 = float(coeffs.diag(0))
    f = z - a0
    scale = 1.0 + abs(z)
    if abs(f) <= 1e-14 * scale:
        if on_axis:
            raise SpectrumProximity(f"vanishing partial denominator at z={z}")
        f = complex(1e-30)
    c = f
    d = 0.0 + 0.0j
    depth = 0
    while True:
        depth += 1
        an = float(coeffs.diag(depth))
        bnm1 = float(coeffs.offdiag(depth - 1))
        num = -(bnm1 * bnm1)
        den = z - an
        d_new = den + num * d
        if abs(d_new) <= 1e-14 * scale:
            if on_axis:
                raise SpectrumProximity(f"vanishing partial denominator at depth {depth}, z={z}")
            d_new = complex(1e-30)
        c_new = den + num / c
        if abs(c_new) <= 1e-14 * scale:
            if on_axis:
                raise SpectrumProximity(f"vanishing partial denominator at depth {depth}, z={z}")
            c_new = complex(1e-30)
        d = 1.0 / d_new
        ratio = c_new * d
        f = f * ratio
        c = c_new
        yield depth, f, abs(ratio - 1.0)


def _lentz_per_level(coeffs, z, tol, max_depth):
    for depth, f, delta in _lentz_levels(coeffs, z):
        if delta < tol:
            return 1.0 / f, depth, delta
        if depth == max_depth:
            raise NoConvergence(f"continued fraction did not reach tol={tol} within depth {max_depth}")


def _reference_stop(coeffs, z, tol, max_depth, dps=30):
    """(depth, update) at the first level n <= max_depth where the update
    s_1 ... s_n / |A_{n-1} B_n| (s_k = b_{k-1}^2) is below tol, from the
    forward recursions of the convergents A_n/B_n of 1/G at `dps` digits
    on the double coefficients; for real z, SpectrumProximity first where
    A_n or B_n is within 1e-14 (1 + |z|) of zero against its predecessor,
    and NoConvergence past max_depth, with green_function's messages."""
    z = complex(z)
    a, b = coeffs.block(0, max_depth + 1)
    small = 1e-14 * (1.0 + abs(z))
    with mp.workdps(dps):
        zz = mp.mpc(z.real, z.imag)
        a_prev, a_cur, b_prev, b_cur, cas = mp.mpc(1), zz - mp.mpf(a[0]), mp.mpc(0), mp.mpc(1), mp.mpf(1)
        if z.imag == 0.0 and abs(a_cur) <= small:
            raise SpectrumProximity(f"vanishing partial denominator at z={z}")
        for n in range(1, max_depth + 1):
            w, s = zz - mp.mpf(a[n]), mp.mpf(b[n - 1]) ** 2
            a_prev, a_cur = a_cur, w * a_cur - s * a_prev
            b_prev, b_cur = b_cur, w * b_cur - s * b_prev
            cas *= s
            if z.imag == 0.0 and (abs(a_cur) <= small * abs(a_prev) or abs(b_cur) <= small * abs(b_prev)):
                raise SpectrumProximity(f"vanishing partial denominator at depth {n}, z={z}")
            if cas < tol * abs(a_prev * b_cur):
                return n, float(cas / abs(a_prev * b_cur))
    raise NoConvergence(f"continued fraction did not reach tol={tol} within depth {max_depth}")


def _lentz_window(depth):
    """Levels by which green_function's depth may differ from Lentz's.
    Lentz's c d - 1 carries the rounding of its running products: at
    z = 3 + 0.05i (Z = -1, kappa = 1, compton 0.05) it runs 0.27 % high
    at 85,036 levels, and Lentz stops 22 levels after the Casoratian."""
    return 1 + depth // 1000


def _check_stop(coeffs, z, tol, lentz_depth=None, max_depth=200_000):
    """green_function stops where the 30-digit reference does, with its
    update to 1e-9, within `_lentz_window` of Lentz's depth when given,
    and returns the truncated fraction one level deeper to 1e-12."""
    est = resolvent.green_function(coeffs, z, tol=tol, max_depth=max_depth)
    depth, delta = _reference_stop(coeffs, z, tol, est.depth)
    assert est.depth == depth
    assert abs(est.last_delta - delta) <= 1e-9 * delta
    truncated = resolvent.green_function_truncated(coeffs, z, est.depth + 1)
    assert abs(est.value - truncated) <= 1e-12 * abs(truncated)
    if lentz_depth is not None:
        assert abs(est.depth - lentz_depth) <= _lentz_window(lentz_depth)
    return est


def _truncated_per_level(coeffs, z, depth, terminated=False):
    """The former per-level backward sweep; when `terminated`, started from
    the tail t = s / (w - t) of level depth - 1, w = z - a_{depth-1},
    s = b_{depth-2}^2: the root of t^2 - w t + s = 0 of smaller modulus, s
    over the larger one."""
    zs = np.asarray(z, dtype=complex)
    tail = np.zeros_like(zs)
    if terminated and depth >= 2:
        w, s = zs - coeffs.diag(depth - 1), coeffs.offdiag(depth - 2) ** 2
        d = np.sqrt(w * w - 4.0 * s)
        tail = s / np.where(np.abs(w + d) >= np.abs(w - d), (w + d) / 2, (w - d) / 2)
    for k in range(depth - 1, 0, -1):
        bk = coeffs.offdiag(k - 1)
        tail = bk * bk / (zs - coeffs.diag(k) - tail)
    out = 1.0 / (zs - coeffs.diag(0) - tail)
    return complex(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def _wave_coeffs():
    return model.recursion_coefficients(model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.05)))


def _parabolic_coeffs(k):
    """z = 0 is an eigenvalue of this operator's (k+1) x (k+1) truncation,
    so at z = 0 the Lentz denominator vanishes at depth k: before it,
    D_j = 2 - 1/D_{j-1} = (j+1)/j (a parabolic orbit, so rounding does not
    build up), and at depth k, -a_k - 1/D_{k-1} = 0 up to rounding."""
    return model.RecursionCoefficients(
        diag=lambda n: np.where(n == k, -(k - 1.0) / k, np.where(n == 0, -3.0, -2.0)),
        offdiag=lambda n: 1.0 + 0.0 * n,
    )


def _target_tol(coeffs, z, target):
    """The tol at which Lentz's loop stops at `target`: one double above its
    update there."""
    deltas = {depth: delta for depth, _, delta in itertools.islice(_lentz_levels(coeffs, z), target)}
    tol = float(np.nextafter(deltas[target], np.inf))
    assert all(deltas[k] >= tol for k in range(1, target))  # `target` is the first level below tol
    return tol


class TestBlockFedLentz:
    """The depth pass against the per-level Lentz loop: the same stopping
    rule, so the depth within `_lentz_window`, and the level where the
    30-digit Casoratian reference stops exactly."""

    @pytest.mark.parametrize("target", [511, 512, 513, 1023, 1024, 1025])
    def test_converges_at_block_edges_like_per_level(self, target):
        # 512 ends the first group of the depth pass; 1024 ends a chunk
        coeffs = _wave_coeffs()
        z = 3.0 + 0.5j
        tol = _target_tol(coeffs, z, target)
        est = _check_stop(coeffs, z, tol, lentz_depth=target)
        with pytest.raises(NoConvergence):
            resolvent.green_function(coeffs, z, tol=tol, max_depth=est.depth - 1)

    def test_deep_fraction_like_per_level(self):
        # about 85k levels: Lentz stops 22 levels later, both values are
        # about 6e-11 off the fraction's limit (TestExactGreenFunction)
        coeffs = _wave_coeffs()
        est = resolvent.green_function(coeffs, 3.0 + 0.05j, 1e-12)
        value, depth, _ = _lentz_per_level(coeffs, 3.0 + 0.05j, 1e-12, 200_000)
        assert est.depth > 80_000
        assert abs(est.depth - depth) <= _lentz_window(depth)
        assert abs(est.value - value) <= 1e-10 * abs(value)
        truncated = resolvent.green_function_truncated(coeffs, 3.0 + 0.05j, est.depth + 1)
        assert abs(est.value - truncated) <= 1e-12 * abs(truncated)

    def test_bounded_family_like_per_level(self):
        coeffs = pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=1.6, b=-0.2))
        for z in (0.3 + 0.01j, -0.7 + 0.2j, 1.5 - 0.001j):
            _check_stop(coeffs, z, 1e-12, lentz_depth=_lentz_per_level(coeffs, z, 1e-12, 200_000)[1])

    @pytest.mark.parametrize("k", [1, 511, 512, 513, 1500])
    def test_spectrum_proximity_like_per_level(self, k):
        coeffs = _parabolic_coeffs(k)
        with pytest.raises(SpectrumProximity) as per_level:
            _lentz_per_level(coeffs, 0.0, 1e-13, 200_000)
        with pytest.raises(SpectrumProximity) as blocked:
            resolvent.green_function(coeffs, 0.0, tol=1e-13)
        assert str(blocked.value) == str(per_level.value) == f"vanishing partial denominator at depth {k}, z=0j"

    def test_floor_off_axis_like_per_level(self):
        # just off the axis the fraction converges at depth 223, before the
        # denominator that vanishes at depth 700 on the axis
        coeffs = _parabolic_coeffs(700)
        est = _check_stop(coeffs, 1e-20j, 1e-5, lentz_depth=223)
        assert abs(est.value - _lentz_per_level(coeffs, 1e-20j, 1e-5, 200_000)[0]) <= 1e-12

    def test_no_convergence_like_per_level(self):
        coeffs = _wave_coeffs()
        with pytest.raises(NoConvergence) as per_level:
            _lentz_per_level(coeffs, 5.0 + 1e-5j, 1e-13, 50)
        with pytest.raises(NoConvergence) as blocked:
            resolvent.green_function(coeffs, 5.0 + 1e-5j, tol=1e-13, max_depth=50)
        assert str(blocked.value) == str(per_level.value)

    @pytest.mark.parametrize("tol,max_depth", [(0.0, 100), (-1.0, 100), (math.nan, 100), (math.inf, 100),
                                               (1e-12, 0), (1e-12, -5)])
    def test_rejects_bad_budget(self, tol, max_depth):
        coeffs = _wave_coeffs()
        with pytest.raises(ValueError):
            resolvent.green_function(coeffs, 3.0 + 0.5j, tol=tol, max_depth=max_depth)
        with pytest.raises(ValueError):
            resolvent.spectral_density(coeffs, 3.0, 0.5, tol=tol, max_depth=max_depth)


class TestCasoratianStoppingLevel:
    """Both families, real and complex z, three tolerances, depths up to
    2,547: the depth, its update and the value against the 30-digit
    reference."""

    WAVE = [3 + 0.5j, 0.5 + 0.3j, -2 + 1j, 5 - 3j, 25 + 2j, 8 + 0.5j, 0.2 + 0.1j]  # depths 4 to 2,547
    POLLACZEK = [0.3 + 0.01j, -0.7 + 0.2j, 1.5 - 0.001j, 0.95 + 0.02j, -1.3 + 0.001j, 2.0 + 0.0j, 0.5 + 0.05j]

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-14])
    @pytest.mark.parametrize("family", ["wave", "pollaczek"])
    def test_depth_against_reference(self, family, tol):
        coeffs = _truncation_families()[family]
        for z in self.WAVE if family == "wave" else self.POLLACZEK:
            est = _check_stop(coeffs, z, tol, max_depth=6_000)
            assert np.isfinite(est.value)

    def test_max_depth_is_a_budget(self):
        # the levels are read in groups of at most 4,096, however large the budget
        coeffs = _wave_coeffs()
        tracemalloc.start()
        try:
            got = resolvent.green_function(coeffs, 3.0 + 0.5j, max_depth=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == resolvent.green_function(coeffs, 3.0 + 0.5j, max_depth=200_000)
        assert peak < 1e6


def _edge_coeffs():
    """a_0 = a_1 = 5, then a_n = 0, and b_n = 1/2: at z = 5 + i t the
    partial denominators f_0 and D_1 are exactly i t, and the tail's
    spectrum [-1, 1] is far from 5, so the fraction converges within a few
    levels."""
    return model.RecursionCoefficients(diag=lambda n: np.where(n <= 1, 5.0, 0.0), offdiag=lambda n: 0.5 + 0.0 * n)


def _cut_parabolic_coeffs(k, cut):
    """`_parabolic_coeffs(k)` with b_cut = 1e-200, whose square underflows
    to 0: level cut+1 then has c = D = z - a_{cut+1}, so its ratio is 1 to
    rounding and the fraction converges there."""
    return model.RecursionCoefficients(diag=_parabolic_coeffs(k).diag,
                                       offdiag=lambda n: np.where(n == cut, 1e-200, 1.0))


class TestOffAxisLentz:
    """Off the axis the depth pass needs no floor, however close z is to
    the axis: it stops where the reference stops, within a level of the
    per-level loop here, and the value is the truncated fraction, finite
    and of the sign Herglotz requires.  On the axis it raises what the
    per-level loop raises."""

    # the depth pass's chunks end at multiples of 32 up to 1,536 levels:
    # 31-33, 63-65, 191-193, 447-449, 959-961 and 1471-1473 straddle chunk
    # ends, and the rest fall inside chunks
    EDGES = [31, 32, 33, 119, 120, 121, 289, 290, 291, 553, 554, 555, 917, 918, 919, 1386, 1387, 1388]

    @pytest.mark.parametrize("target", [1, 63, 64, 65, 191, 192, 193, 447, 448, 449, 959, 960, 961, 1471, 1472, 1473,
                                        *EDGES])
    def test_converges_at_schedule_edges_like_per_level(self, target):
        coeffs = _wave_coeffs()
        z = 3.0 + 0.35j
        tol = _target_tol(coeffs, z, target)
        est = _check_stop(coeffs, z, tol, lentz_depth=target)
        if est.depth > 1:
            with pytest.raises(NoConvergence):
                resolvent.green_function(coeffs, z, tol=tol, max_depth=est.depth - 1)

    def test_band_edge_like_per_level(self):
        # |Im z| equal to 1e-14 (1 + |z|) is inside the band where Lentz
        # floors the denominators i Im z of levels 0 and 1 to 1e-30, which
        # changes its value; the depth pass gives the fraction's value both
        # there and one double above, continuous across the edge
        coeffs = _edge_coeffs()
        edge = 1e-14 * 6.0
        assert edge == 1e-14 * (1.0 + abs(complex(5.0, edge)))
        above = float(np.nextafter(edge, np.inf))
        floored = _lentz_per_level(coeffs, complex(5.0, edge), 1e-12, 200_000)
        unguarded = _lentz_per_level(coeffs, complex(5.0, above), 1e-12, 200_000)
        assert abs(floored[0].imag / unguarded[0].imag - 1.0) > 0.5  # Lentz's floor changed the value
        at_edge = _check_stop(coeffs, complex(5.0, edge), 1e-12, lentz_depth=floored[1])
        past_edge = _check_stop(coeffs, complex(5.0, above), 1e-12, lentz_depth=unguarded[1])
        assert np.isfinite(at_edge.value) and at_edge.value.imag < 0.0
        assert abs(at_edge.value - past_edge.value) <= 1e-12 * abs(past_edge.value)
        assert abs(past_edge.value - unguarded[0]) <= 1e-12 * abs(past_edge.value)

    def test_on_axis_converges_before_vanishing_denominator(self):
        # the denominator vanishes at depth 300, two or three levels after
        # the fraction converges; a pass that ran ahead would raise
        coeffs = _parabolic_coeffs(300)
        est = _check_stop(coeffs, 0.0, _target_tol(coeffs, 0.0, 297), lentz_depth=297)
        assert est.depth < 300
        with pytest.raises(SpectrumProximity, match="at depth 300"):
            resolvent.green_function(coeffs, 0.0, tol=1e-13)

    def test_floor_mid_block_then_convergence_like_per_level(self):
        # at z = 1e-20 i Lentz floors the denominator at depth 500, and the
        # fraction, cut at b_504, converges five levels later; the depth
        # pass stops there too, with the value of the cut fraction
        coeffs = _cut_parabolic_coeffs(500, 504)
        z = 1e-20j
        deltas = [delta for _, _, delta in itertools.islice(_lentz_levels(coeffs, z), 505)]
        assert deltas[499] > 1e20  # the floored level
        est = _check_stop(coeffs, z, 1e-15, lentz_depth=505)
        assert est.depth == 505
        want = _mp_truncated(coeffs, z, 506)
        assert abs(est.value - want) <= 1e-12 * abs(want)
        assert est.value.imag < 0.0

    def test_ratio_overflow_like_per_level(self):
        # ratio_1 = 1 + num/z^2 is about 1.3e308 (1 + i): both parts are
        # finite, but |ratio_1 - 1| is not, so the per-level loop raises
        # OverflowError; the depth pass scales every level and returns the
        # fraction, about 1.7e-308
        z = 0.5 * complex(math.cos(3 * math.pi / 8), math.sin(3 * math.pi / 8))
        coeffs = model.RecursionCoefficients(diag=lambda n: 0.0 * n,
                                             offdiag=lambda n: np.where(n == 0, math.sqrt(4.6e307), 0.5))
        with pytest.raises(OverflowError):
            _lentz_per_level(coeffs, z, 1e-12, 1000)
        est = _check_stop(coeffs, z, 1e-12, max_depth=1000)
        deep = resolvent.green_function_truncated(coeffs, z, 2 * est.depth + 1)
        assert np.isfinite(est.value) and abs(est.value - deep) <= 1e-10 * abs(deep)

    def test_tail_beyond_the_double_range(self):
        # s_1 = 1e308: the tail below level 0 is about 2e308, past the
        # largest double, but G is 5e-309; the value is formed at the depth
        # pass's scale 2**-e0 (it read -0 before)
        z = 0.05 + 1e-3j
        coeffs = model.RecursionCoefficients(diag=lambda n: 0.0 * n,
                                             offdiag=lambda n: np.where(n == 0, math.sqrt(1e308), 0.5))
        est = resolvent.green_function(coeffs, z)
        want = _mp_truncated(coeffs, z, est.depth + 1)
        assert est.depth == 14_490
        assert abs(est.value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [1e308 + 1e308j, 1.5e308 + 1.5e308j, complex(math.inf, 1.0), complex(1.0, math.nan),
                                   1e308 + 0j])
    def test_rejects_z_beyond_working_range(self, z):
        with pytest.raises(ValueError, match="half the largest double"):
            resolvent.green_function(_wave_coeffs(), z)


def _c_vanishing_coeffs(k):
    """a_0 = a_k = -1, else a_n = -2, and b_n = 1: at z = 0, c_j = 2 - 1/c_{j-1}
    stays 1 for j < k from c_0 = 1, and c_k = 1 - 1/c_{k-1} = 0, while
    D_k = 1 - (k-1)/k = 1/k.  b_{k+4} = 1e-200 cuts the fraction as in
    `_cut_parabolic_coeffs`."""
    return model.RecursionCoefficients(diag=lambda n: np.where((n == 0) | (n == k), -1.0, -2.0),
                                       offdiag=lambda n: np.where(n == k + 4, 1e-200, 1.0))


def _denominators_at(coeffs, z, k):
    """(D_k, c_k) of the Lentz loop at level k, with no floor before it."""
    c = z - float(coeffs.diag(0))
    d = 0j
    for n in range(1, k + 1):
        den = z - float(coeffs.diag(n))
        num = -float(coeffs.offdiag(n - 1)) ** 2
        denominator = den + num * d
        c = den + num / c
        if n < k:
            d = 1.0 / denominator
    return denominator, c


class TestMergedDenominatorCheck:
    """A level where only D_n = B_n/B_{n-1} vanishes and one where only
    c_n = A_n/A_{n-1} does: on the axis each raises, as the per-level loop
    does; just off it the fraction, cut four levels on, converges where
    the per-level loop does, with the value of the cut fraction."""

    VANISHING = {"D": lambda k: _cut_parabolic_coeffs(k, k + 4), "c": _c_vanishing_coeffs}

    def _check_premise(self, which, coeffs, z, k):
        small = 1e-14 * (1.0 + abs(z))
        denominator, c = _denominators_at(coeffs, z, k)
        assert (abs(denominator) <= small, abs(c) <= small) == (which == "D", which == "c")

    @pytest.mark.parametrize("k", [1, 300])
    @pytest.mark.parametrize("which", list(VANISHING))
    def test_on_axis_raises_like_per_level(self, which, k):
        coeffs = self.VANISHING[which](k)
        self._check_premise(which, coeffs, 0j, k)
        with pytest.raises(SpectrumProximity) as per_level:
            _lentz_per_level(coeffs, 0.0, 1e-15, 200_000)
        with pytest.raises(SpectrumProximity) as blocked:
            resolvent.green_function(coeffs, 0.0, tol=1e-15)
        assert str(blocked.value) == str(per_level.value) == f"vanishing partial denominator at depth {k}, z=0j"

    @pytest.mark.parametrize("k", [1, 300])
    @pytest.mark.parametrize("which", list(VANISHING))
    def test_off_axis_floor_like_per_level(self, which, k):
        coeffs = self.VANISHING[which](k)
        z = 1e-20j
        self._check_premise(which, coeffs, z, k)
        est = _check_stop(coeffs, z, 1e-15, lentz_depth=_lentz_per_level(coeffs, z, 1e-15, 200_000)[1])
        assert est.depth == k + 5
        want = _mp_truncated(coeffs, z, k + 6)
        assert abs(est.value - want) <= 1e-12 * abs(want)


# The truncated fraction composes chunks of levels as 2x2 matrices, so it
# matches the level-by-level sweep to rounding, not bit for bit.  Bounds,
# fixed before measuring, relative to `_truncated_per_level` point by point.
TRUNCATION_RTOL = {"wave": 1e-11, "pollaczek": 1e-13}


def _truncation_families():
    return {"wave": _wave_coeffs(),
            "pollaczek": pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=1.6, b=-0.2))}


def _max_rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.abs(want))) if want.size else 0.0


class TestBlockFedTruncation:
    DEPTHS = [1, 2, 3, 54, 55, 56, 165, 166, 167, 511, 512, 513, 514, 1500]
    POINTS = {
        "scalar": 3.0 + 0.05j,
        "numpy scalar": np.complex128(0.4 + 0.01j),
        "0-d": np.asarray(0.4 + 0.01j),
        "1-D": np.linspace(-0.99, 0.99, 99) + 1e-3j,
        "1-D long": np.linspace(-3.0, 8.0, 300) + 0.02j,
        "2-D": (np.linspace(-1.0, 4.0, 12) + 0.05j).reshape(3, 4),
        "2-D wide": (np.linspace(-1.0, 4.0, 198) + 0.05j).reshape(2, 99),
        "empty": np.zeros(0, dtype=complex),
        "2-D empty": np.zeros((2, 0), dtype=complex),
    }

    @pytest.mark.parametrize("label", list(POINTS))
    def test_matches_per_level_sweep(self, label):
        z = self.POINTS[label]
        for family, coeffs in _truncation_families().items():
            for depth in self.DEPTHS:
                got = resolvent.green_function_truncated(coeffs, z, depth)
                want = _truncated_per_level(coeffs, z, depth)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want) == np.shape(z)
                assert _max_rel(got, want) <= TRUNCATION_RTOL[family], (label, family, depth)

    def test_deep_scalar_like_per_level(self):
        coeffs = _wave_coeffs()
        got = resolvent.green_function_truncated(coeffs, 3.0 + 0.05j, 172_000)
        assert type(got) is complex
        assert _max_rel(got, _truncated_per_level(coeffs, 3.0 + 0.05j, 172_000)) <= TRUNCATION_RTOL["wave"]


class TestTruncatedBuffer:
    """The state is allocated once per call and sliced per group: depth 2
    is one level, 100 a few short chunks, 1000 and 1300 groups whose
    deepest chunk is padded."""

    @pytest.mark.parametrize("shape", [(), (1,), (3, 4)])
    @pytest.mark.parametrize("depth", [2, 100, 1000, 1300])
    def test_matches_per_level_sweep(self, shape, depth):
        z = (np.linspace(-0.9, 3.0, max(1, math.prod(shape))) + 0.02j).reshape(shape)
        for family, coeffs in _truncation_families().items():
            got = resolvent.green_function_truncated(coeffs, z, depth)
            want = _truncated_per_level(coeffs, z, depth)
            assert type(got) is type(want)
            assert np.shape(got) == shape
            assert _max_rel(got, want) <= TRUNCATION_RTOL[family]


def _mp_truncated(coeffs, z, depth, dps=30):
    """The truncated fraction at `dps` digits on the same double coefficients."""
    a, b = coeffs.block(0, depth)
    with mp.workdps(dps):
        z = mp.mpc(z.real, z.imag)
        tail = mp.mpc(0)
        for k in range(depth - 1, 0, -1):
            tail = mp.mpf(b[k - 1]) ** 2 / (z - mp.mpf(a[k]) - tail)
        return complex(1 / (z - mp.mpf(a[0]) - tail))


class TestChunkedTruncation:
    """Chunk, group and tile edges of the chunked truncated fraction, its
    accuracy against 30-digit mpmath on the benchmark's density grids, and
    its rescaling where the level matrices grow fast."""

    def _check(self, z, depth, families=None):
        for family, coeffs in _truncation_families().items():
            if families is None or family in families:
                got = resolvent.green_function_truncated(coeffs, z, depth)
                assert _max_rel(got, _truncated_per_level(coeffs, z, depth)) <= TRUNCATION_RTOL[family], (family, depth)

    @pytest.mark.parametrize("levels", [4095, 4096, 4097])
    def test_one_chunk_edges(self, levels):
        # 2,048 points leave room for fewer than four chunks, so a tile runs
        # the tail vector alone, one chunk of at most 4,096 levels: the
        # fraction is one shorter chunk, one full chunk, or a full chunk
        # below a second group of one level padded with 4,095
        z = np.linspace(-0.99, 3.0, 2048) + 0.02j
        width, length, chunks = resolvent._chunk_shape(levels, z.size)
        assert (width, chunks, length) == (2048, 1, min(levels, 4096))
        self._check(z, levels + 1)

    @pytest.mark.parametrize("levels", [4120, 7980, 7981, 7999, 8000, 8001])
    def test_group_edges_and_padding(self, levels):
        # 99 points, 4,096 levels or more: groups of 30 chunks of 133
        # levels, the deepest group taken first.  At 4120 that group holds
        # one chunk padded by 3 levels; 7980 fills two groups, 7981 adds a
        # group of one level padded by 132, and 7999 to 8001 add one of a
        # chunk padded by 114 to 112
        z = np.linspace(-0.99, 0.99, 99) + 1e-3j
        _, length, chunks = resolvent._chunk_shape(levels, z.size)
        assert (length, chunks) == (133, 30)
        self._check(z, levels + 1)

    def test_few_levels_per_chunk(self):
        # one point: 3 levels are two chunks of 2, the deepest padded by one
        assert resolvent._chunk_shape(3, 1)[1:] == (2, 2)
        for depth in range(1, 12):
            self._check(0.4 + 0.01j, depth)

    def test_points_above_the_tile(self):
        # tiles of 3,072, 3,072 and 2,856 points
        z = np.linspace(-0.99, 3.0, 9000) + 0.02j
        assert resolvent._chunk_shape(299, z.size)[0] == 3072
        self._check(z, 300)

    @pytest.mark.parametrize("z", [1.0 + 0j, -1.0 + 0j, 1.0 + 1e-9j])
    def test_coinciding_fixed_points(self, z):
        # a_n = 0, b_n = 1/2: at z = +-1, w^2 = 4s and the fixed points of
        # every level coincide, a parabolic map
        coeffs = model.RecursionCoefficients(diag=lambda n: 0.0 * n, offdiag=lambda n: 0.5 + 0.0 * n)
        for depth in (2, 50, 700):
            got = resolvent.green_function_truncated(coeffs, z, depth)
            assert _max_rel(got, _truncated_per_level(coeffs, z, depth)) <= 1e-13

    @pytest.mark.parametrize("eta,depth", [(1e-3, 15_000), (1e-2, 4_000)])
    def test_density_grid_against_mpmath(self, eta, depth):
        # the `density` op grids of the benchmark: Z = -1, kappa = 1,
        # compton 0.02, eps = 1.25, 99 points on [-0.99, 0.99]
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.02))
        pol = model.map_to_pollaczek(d, model.energy_point(1.25))
        coeffs = pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=pol.lam, b=pol.b))
        xs = np.linspace(-0.99, 0.99, 99)
        got = resolvent.green_function_truncated(coeffs, xs + 1j * eta, depth)
        for i in np.linspace(0, 98, 12).round().astype(int):
            want = _mp_truncated(coeffs, complex(xs[i], eta), depth)
            assert abs(got[i] - want) <= 1e-13 * abs(want), (i, got[i], want)

    def test_deep_grid_like_per_level(self):
        # 200,000 levels: the level matrices grow by about 2**35 per level,
        # so the state is rescaled every few dozen steps
        coeffs = _wave_coeffs()
        z = np.array([0.5 + 0.02j, 3.0 + 0.05j, 7.0 + 0.5j])
        got = resolvent.green_function_truncated(coeffs, z, 200_000)
        assert _max_rel(got, _truncated_per_level(coeffs, z, 200_000)) <= TRUNCATION_RTOL["wave"]

    @pytest.mark.parametrize("scale", [1e6, 1e150, 1.5e308])
    def test_large_z_like_per_level(self, scale):
        # 1.5e308: z - a_k and the fixed points are near the largest double
        z = scale * (np.linspace(-1.0, 1.0, 7) + 0.1j)
        want = _truncated_per_level(_wave_coeffs(), z, 3000)
        assert np.all(np.isfinite(want))
        self._check(z, 3000, families={"wave"})

    @pytest.mark.parametrize("s1, z, depth", [(4.6e307, 0.5 * cmath.exp(3j * math.pi / 8), 34),
                                              (1e308, 0.3 + 0.2j, 40), (1e308, 0.05 + 1e-3j, 14_491)],
                             ids=["s4.6e307", "s1e308", "s1e308-tail"])
    def test_subnormal_fold_denominator(self, s1, z, depth):
        # s_1 near the largest double: the tail below level 0 may pass it
        # (about 2e308 in the third case, where G is -2.5e-310 - 5.0e-309i),
        # so the value is formed at the scale 2**-e0 of level 0, and the
        # fold multiplies rows, with no division that could overflow by way
        # of 1 / q, for one point or many.  The regular point between the
        # two bad ones keeps its own value
        coeffs = model.RecursionCoefficients(diag=lambda n: 0.0 * n,
                                             offdiag=lambda n: np.where(n == 0, math.sqrt(s1), 0.5))
        zs = [z, 2.0 + 1j, z]
        results = [(resolvent.green_function_truncated(coeffs, z, depth), z),
                   *zip(resolvent.green_function_truncated(coeffs, np.array(zs), depth), zs)]
        for got, at in results:
            want = _mp_truncated(coeffs, at, depth)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("depth", [50, 3000])
    def test_points_are_independent(self, depth):
        # each point is rescaled on its own: a grid mixing |z| from 1e-3
        # to 1e150 gives every point its one-point value
        z = np.array([1e-3 + 1e-3j, 0.5 + 1e-3j, 1e150 + 1e149j, -1e100 + 1j, 3.0 + 0.05j])
        for family, coeffs in _truncation_families().items():
            got = resolvent.green_function_truncated(coeffs, z, depth)
            alone = [resolvent.green_function_truncated(coeffs, point, depth) for point in z]
            assert _max_rel(got, alone) <= 1e-13, family
            assert _max_rel(got, _truncated_per_level(coeffs, z, depth)) <= TRUNCATION_RTOL[family], family


class TestBlockFedMemory:
    """Blocks bound the temporaries: a deep fraction costs no memory that
    grows with its depth."""

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_truncated_peak(self):
        coeffs = _wave_coeffs()
        assert self._peak(lambda: resolvent.green_function_truncated(coeffs, 3.0 + 0.05j, 200_000)) < 1e6

    def test_truncated_grid_peak(self):
        coeffs = _wave_coeffs()
        xs = np.linspace(-0.99, 0.99, 2000) + 1e-3j  # the grid itself is 32 kB
        assert self._peak(lambda: resolvent.green_function_truncated(coeffs, xs, 2_000)) < 1e6

    def test_lentz_peak(self):
        coeffs = _wave_coeffs()
        assert self._peak(lambda: resolvent.green_function(coeffs, 3.0 + 0.05j, max_depth=200_000)) < 1e6

    def test_exhausted_budget_peak(self):
        # each of the 51 groups keeps its composed chunk map until the budget runs out
        coeffs = _wave_coeffs()

        def exhaust():
            with pytest.raises(NoConvergence):
                resolvent.green_function(coeffs, 2.0 + 0.02j, max_depth=200_000)

        assert self._peak(exhaust) < 1e6
