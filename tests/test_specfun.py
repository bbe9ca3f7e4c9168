import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridirac import model, specfun
from tridirac.errors import BottomPoleError, PoleError


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(specfun.log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert_allclose(specfun.log_gamma(0.5).real, math.log(math.sqrt(math.pi)), rtol=1e-14)

    def test_modulus_identity_one_plus_i(self):
        # |Gamma(1+iy)|^2 = pi y / sinh(pi y), evaluated independently
        lg = specfun.log_gamma(1 + 1j)
        expected = math.sqrt(math.pi / math.sinh(math.pi))
        assert_allclose(math.exp(lg.real), expected, rtol=1e-13)

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 5.0, 20.0])
    def test_modulus_identity_grid(self, y):
        lg = specfun.log_gamma(1 + 1j * y)
        value = math.exp(2 * lg.real) * math.sinh(math.pi * y) / (math.pi * y)
        assert abs(value - 1.0) < 1e-11

    def test_reflection_identity_mod_2pi(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            if abs(z.imag) < 1e-2 and abs(z.real - round(z.real)) < 5e-2:
                continue
            lhs = specfun.log_gamma(z) + specfun.log_gamma(1 - z)
            rhs = math.log(math.pi) - specfun._log_sin_pi(z)
            diff = lhs - rhs
            wrapped = (diff.imag + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff.real) < 1e-11
            assert abs(wrapped) < 1e-11

    def test_exp_accuracy_against_mpmath(self):
        rng = np.random.default_rng(11)
        with mp.workdps(40):
            for _ in range(300):
                z = complex(rng.uniform(-50, 200), rng.uniform(-200, 200))
                if z.real < 0.5 and abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
                    continue
                ours = specfun.log_gamma(z)
                ref = mp.loggamma(mp.mpc(z))
                diff = mp.mpc(ours) - ref
                wrapped = mp.mpc(diff.real, (mp.mpf(diff.imag) + mp.pi) % (2 * mp.pi) - mp.pi)
                assert abs(mp.expm1(wrapped)) < 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0, -3.0 + 5e-14j])
    def test_pole_detection(self, z):
        with pytest.raises(PoleError):
            specfun.log_gamma(z)

    def test_principal_arg_right_half(self):
        with mp.workdps(30):
            for z in [2 + 0.5j, 1.5 - 3j, 0.7 + 10j, 30 + 40j]:
                assert abs(specfun.log_gamma(z).imag - float(mp.im(mp.loggamma(mp.mpc(z))))) < 1e-12


class TestPochhammer:
    def test_empty_product(self):
        assert specfun.pochhammer(2.3 + 1j, 0) == 1.0

    def test_direct_product(self):
        # (3)_4 = 3*4*5*6 = 360
        assert_allclose(specfun.pochhammer(3.0, 4).real, 360.0, rtol=1e-15)

    def test_zero_factor(self):
        assert specfun.pochhammer(-2.0, 4) == 0.0

    def test_recurrence_exact(self):
        c = 1.7 - 0.3j
        for n in range(0, 63):
            lhs = specfun.pochhammer(c, n + 1)
            rhs = specfun.pochhammer(c, n) * (c + n)
            assert lhs == rhs  # same product, evaluated identically

    def test_crossover_agreement(self):
        # both branches near n = 64 must agree to 1e-12 relative
        for c in [2.5, 0.3 + 1.2j, 10.0 - 4.0j]:
            direct = 1.0 + 0.0j
            for k in range(65):
                direct *= c + k
            via_log = specfun.pochhammer(c, 65)
            assert abs(via_log - direct) / abs(direct) < 1e-12

    def test_nonpositive_integer_base_large_n(self):
        assert specfun.pochhammer(-3.0, 100) == 0.0


class TestLaguerre:
    def test_degree_zero(self):
        assert specfun.laguerre(0, 1.3, 2.0) == 1.0

    def test_degree_one(self):
        # L_1^2(3) = nu + 1 - x = 0
        assert_allclose(specfun.laguerre(1, 2.0, 3.0), 0.0, atol=1e-15)

    def test_degree_two(self):
        # L_2^0(2) = x^2/2 - 2x + 1 = -1
        assert_allclose(specfun.laguerre(2, 0.0, 2.0), -1.0, rtol=1e-14)

    def test_recurrence_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            nu = rng.uniform(-0.5, 3.0)
            x = rng.uniform(0.0, 50.0)
            vals = [specfun.laguerre(n, nu, x) for n in range(202)]
            for n in range(1, 201):
                lhs = (n + 1) * vals[n + 1] - (2 * n + nu + 1 - x) * vals[n] + (n + nu) * vals[n - 1]
                scale = max(abs(vals[n + 1]), abs(vals[n]), abs(vals[n - 1]), 1.0)
                assert abs(lhs) / scale < 1e-10

    @pytest.mark.parametrize("x", [2.5, np.linspace(0.0, 60.0, 97)], ids=["scalar", "array"])
    def test_rows_equal_single_degree(self, x):
        rows = list(specfun.laguerre_rows(40, 2.3, x))
        assert len(rows) == 40
        for n, row in enumerate(rows):
            assert np.array_equal(row, specfun.laguerre(n, 2.3, x))

    def test_rows_empty_for_nonpositive_count(self):
        assert list(specfun.laguerre_rows(0, 1.0, 2.0)) == []
        assert list(specfun.laguerre_rows(-1, 1.0, 2.0)) == []

    def test_vectorized_matches_scalar(self):
        x = np.linspace(0.1, 20.0, 11)
        vec = specfun.laguerre(7, 1.5, x)
        scal = [specfun.laguerre(7, 1.5, float(v)) for v in x]
        assert_allclose(vec, scal, rtol=1e-14)

    def test_derivative_identity(self):
        assert specfun.laguerre_derivative(0, 1.0, 5.0) == 0.0
        assert_allclose(specfun.laguerre_derivative(1, 0.0, 0.7), -1.0, rtol=1e-14)
        # (2, 1, 1.5): -L_1^2(1.5) = -(3 - 1.5) = -1.5
        assert_allclose(specfun.laguerre_derivative(2, 1.0, 1.5), -1.5, rtol=1e-14)

    def test_derivative_against_finite_differences(self):
        h = 1e-6
        for n, nu, x in [(3, 0.5, 2.0), (10, 2.0, 7.5), (25, 0.0, 0.9)]:
            fd = (specfun.laguerre(n, nu, x + h) - specfun.laguerre(n, nu, x - h)) / (2 * h)
            assert abs(specfun.laguerre_derivative(n, nu, x) - fd) < 1e-8 * max(1.0, abs(fd))


class TestHyp2F1Terminating:
    def test_n_zero(self):
        assert specfun.hyp2f1_terminating(0, 2.3, 1.1, 0.7) == 1.0

    def test_n_one(self):
        b, c, z = 1.7 + 0.2j, 2.2 - 1j, 0.4 + 0.1j
        expected = 1 - (b / c) * z
        assert_allclose(
            [specfun.hyp2f1_terminating(1, b, c, z)], [expected], rtol=1e-14
        )

    def test_direct_sum(self):
        # 2F1(-2, 1; 1; 1) = 1 - 2 + 1 = 0
        assert abs(specfun.hyp2f1_terminating(2, 1.0, 1.0, 1.0)) < 1e-14

    def test_bottom_pole(self):
        with pytest.raises(BottomPoleError) as err:
            specfun.hyp2f1_terminating(5, 1.0, -3.0, 0.5)
        assert err.value.n == 5
        assert err.value.k == 3

    def test_against_mpmath(self):
        rng = np.random.default_rng(5)
        with mp.workdps(40):
            for _ in range(40):
                n = int(rng.integers(1, 25))
                b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                c = complex(rng.uniform(1, 4), rng.uniform(0.5, 3))
                z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.5, 0.5))
                ours = specfun.hyp2f1_terminating(n, b, c, z)
                ref = complex(mp.hyp2f1(-n, mp.mpc(b), mp.mpc(c), mp.mpc(z)))
                assert abs(ours - ref) <= 1e-11 * max(1.0, abs(ref))


class TestGaussRules:
    def test_single_node(self):
        rule = specfun.gauss_rule_from_jacobi([2.5], [], mass=3.0)
        assert_allclose(rule.nodes, [2.5])
        assert_allclose(rule.weights, [3.0])

    def test_two_point_laguerre(self):
        # weight e^{-x}: diag {1, 3}, offdiag {1} -> nodes 2 -+ sqrt(2)
        rule = specfun.gauss_rule_from_jacobi([1.0, 3.0], [1.0], mass=1.0)
        assert_allclose(rule.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-14)
        assert_allclose(rule.weights.sum(), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("order", [5, 12, 25, 40])
    def test_moment_exactness_laguerre(self, order):
        # integrates x^k exactly for k <= 2*order-1 against e^{-x}; oracle
        # is the closed-form moment Gamma(k+1)
        rule = specfun.gauss_laguerre_rule(order)
        for k in range(0, 2 * order, max(1, order // 3)):
            approx = rule.integrate(rule.nodes**k)
            exact = math.exp(math.lgamma(k + 1.0))
            assert abs(approx - exact) / exact < 1e-9

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.7])
    def test_moment_exactness_generalized(self, nu):
        order = 18
        rule = specfun.gauss_laguerre_rule(order, nu)
        for k in range(0, 2 * order, 5):
            approx = rule.integrate(rule.nodes**k)
            exact = math.exp(math.lgamma(k + nu + 1.0))  # moment of x^k against x^nu e^{-x}
            assert abs(approx - exact) / exact < 1e-9

    def test_eigensolver_against_numpy(self):
        rng = np.random.default_rng(9)
        n = 30
        diag = rng.uniform(-2, 2, n)
        off = rng.uniform(0.2, 1.5, n - 1)
        vals, first = specfun.tridiag_eigen_first_row(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        ref_vals, ref_vecs = np.linalg.eigh(dense)
        assert_allclose(vals, ref_vals, rtol=1e-12, atol=1e-12)
        assert_allclose(np.abs(first), np.abs(ref_vecs[0]), rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("order", [150, 300, 600])
    def test_high_order_rules(self, order):
        # the unscaled Christoffel sum overflows from order ~300 on
        nu = 2.9
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rule = specfun.gauss_laguerre_rule(order, nu)
        mass = math.gamma(nu + 1.0)
        assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights >= 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert abs(rule.weights.sum() - mass) / mass < 1e-13
        # x^k stays finite at the largest node (~4 order) for k <= 80
        for k in range(0, 81, 8):
            approx = rule.integrate(rule.nodes**k)
            exact = math.exp(math.lgamma(k + nu + 1.0))
            assert abs(approx - exact) / exact < 1e-12

    def test_first_row_against_dense_eigh(self):
        d = model.derive(model.PhysicalParams(z=-1.0, kappa=1, compton=0.05))
        coeffs = model.recursion_coefficients(d)
        order = 150
        diag = coeffs.diag_array(order)
        off = coeffs.offdiag_array(order - 1)
        vals, first = specfun.tridiag_eigen_first_row(diag, off)
        ref_vals, ref_vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert_allclose(vals, ref_vals, rtol=1e-13)
        # eigenvector components are accurate only relative to the largest
        assert_allclose(first, np.abs(ref_vecs[0]), rtol=0, atol=1e-13)
        assert np.all(first > 0)

    def test_zero_offdiagonal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            specfun.tridiag_eigen_first_row([1.0, 2.0, 3.0], [0.5, 0.0])

    def test_nodes_strictly_increasing(self):
        rule = specfun.gauss_laguerre_rule(30, 1.2)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)


class TestOracleFuzz:
    """Cross-checks against mpmath as an independent implementation."""

    def test_pochhammer_against_mpmath(self):
        rng = np.random.default_rng(41)
        with mp.workdps(40):
            for _ in range(60):
                c = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
                n = int(rng.integers(0, 120))
                ours = specfun.pochhammer(c, n)
                ref = complex(mp.rf(mp.mpc(c), n))
                assert abs(ours - ref) <= 1e-11 * max(1e-300, abs(ref))

    def test_laguerre_against_mpmath(self):
        rng = np.random.default_rng(43)
        with mp.workdps(40):
            for _ in range(40):
                n = int(rng.integers(0, 60))
                nu = float(rng.uniform(-0.9, 4.0))
                x = float(rng.uniform(0.0, 40.0))
                ours = specfun.laguerre(n, nu, x)
                ref = float(mp.laguerre(n, nu, x))
                assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_quadrature_against_analytic_integrals(self):
        # e^{-x} integrals of smooth non-polynomial functions
        rule = specfun.gauss_laguerre_rule(60)
        cases = [
            (lambda x: np.exp(-x), 0.5),                 # int e^{-2x} = 1/2
            (lambda x: np.sin(x), 0.5),                  # int sin(x) e^{-x} = 1/2
            (lambda x: 1.0 / (1.0 + x), 0.596347362323194074),  # e*E_1(1)
        ]
        for f, exact in cases:
            assert abs(rule.integrate(f) - exact) < 1e-10


class TestPochhammerAlgebra:
    def test_splitting_identity(self):
        # (c)_{m+n} = (c)_m (c+m)_n
        rng = np.random.default_rng(53)
        for _ in range(30):
            c = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            m = int(rng.integers(0, 40))
            n = int(rng.integers(0, 40))
            lhs = specfun.pochhammer(c, m + n)
            rhs = specfun.pochhammer(c, m) * specfun.pochhammer(c + m, n)
            assert abs(lhs - rhs) <= 1e-12 * max(1e-300, abs(lhs))
