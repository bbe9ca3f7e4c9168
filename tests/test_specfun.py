import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms as ref
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
            rhs = math.log(math.pi) - ref.log_sin_pi(z)
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


def ref_log_gamma(z):
    """The scalar cmath log-Gamma that `specfun.log_gamma` kept beside
    its array kernel until every call went through the kernel."""
    z = complex(z)
    if z.real < 0.5:
        return math.log(math.pi) - ref.log_sin_pi(z) - ref_log_gamma(1.0 - z)
    zm1 = z - 1.0
    s = specfun._LANCZOS_C[0]
    for k in range(1, len(specfun._LANCZOS_C)):
        s += specfun._LANCZOS_C[k] / (zm1 + k)
    t = zm1 + specfun._LANCZOS_G + 0.5
    return specfun._LOG_SQRT_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(s)


def sample_points(seed, size):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-40, 60, size) + 1j * rng.uniform(-60, 60, size)
    z[: size // 4] = rng.uniform(-3, 3, size // 4) + 1j * rng.uniform(-12, 12, size // 4)
    keep = ~((np.abs(z.imag) < 1e-2) & (z.real < 0.5) & (np.abs(z.real - np.round(z.real)) < 5e-2))
    return z[keep]


class TestLogGammaArray:
    def test_against_cmath_reference(self):
        z = sample_points(3, 400).tolist() + [0.5, 1.0, 2.5 + 0.0j, 0.436 + 20j, -3.5 - 11j]
        want = np.array([ref_log_gamma(v) for v in z])
        scalar = [specfun.log_gamma(v) for v in z]
        assert all(type(v) is complex for v in scalar)
        # same table, same sum and same branch; numpy's complex log rounds
        # differently from cmath's
        for got in (np.array(scalar), specfun.log_gamma(np.array(z))):
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_elementwise_agrees_with_scalar(self):
        z = sample_points(5, 600)
        got = specfun.log_gamma(z)
        assert got.dtype == complex and got.shape == z.shape
        want = np.array([specfun.log_gamma(v) for v in z.tolist()])
        # a scalar runs through the same array kernel
        assert np.array_equal(got, want)

    def test_shape_and_real_input(self):
        z = np.array([[0.5, 1.0], [2.0, 3.5]])
        got = specfun.log_gamma(z)
        assert got.shape == (2, 2)
        assert_allclose(got.real, [[math.lgamma(v) for v in row] for row in z.tolist()], rtol=1e-14, atol=1e-15)
        assert specfun.log_gamma(np.array([], dtype=complex)).shape == (0,)

    def test_reflection_branch_against_mpmath(self):
        z = 0.436 + 1j * np.array([-30.0, -9.0, -0.3, 0.0, 0.4, 9.9, 10.1, 45.0])
        got = specfun.log_gamma(z)
        with mp.workdps(40):
            for g, v in zip(got.tolist(), z.tolist()):
                ref = mp.loggamma(mp.mpc(v))
                assert abs(mp.mpc(g) - ref) <= 1e-14 * max(1, abs(ref))

    def test_pole_in_array(self):
        with pytest.raises(PoleError):
            specfun.log_gamma(np.array([1.5, -2.0 + 1e-14j, 3.0]))


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
        # no order takes another path: past the old order-64 crossover to a
        # log-Gamma difference the value is still the running product
        for c in [2.5, 0.3 + 1.2j, 10.0 - 4.0j]:
            direct = 1.0 + 0.0j
            for k in range(150):
                direct *= c + k
                assert specfun.pochhammer(c, k + 1) == direct

    @pytest.mark.parametrize("c", [1.998749217771909 - 0.07825080450575013j, 1.895512137530155, 2.5, 0.3 + 1.2j,
                                   10.0 - 4.0j, 1.7 - 0.3j, -2.5 + 0.5j])
    def test_against_mpmath_rf(self, c):
        # orders <= 150, as in the closed-form coefficients of the `sweep`
        # workload (its lam - i phi at eps = 1.3 and 0.9 come first); a
        # log-Gamma difference is ~2e-13 off here
        got = specfun.pochhammer(c, np.arange(151))
        with mp.workdps(40):
            for n, value in enumerate(got.tolist()):
                ref = mp.rf(mp.mpc(c), n)
                assert abs(mp.mpc(value) - ref) <= 2e-14 * abs(ref), n

    def test_nonpositive_integer_base_large_n(self):
        assert specfun.pochhammer(-3.0, 100) == 0.0

    def test_array_orders_equal_scalar_calls(self):
        ns = np.array([[0, 1, 5, 64], [65, 66, 120, 9]])
        for c in [1.7 - 0.3j, 0.3 + 1.2j, -3.0, 2.5 + 40j]:
            got = specfun.pochhammer(c, ns)
            assert got.dtype == complex and got.shape == ns.shape
            assert got.tolist() == [[specfun.pochhammer(c, n) for n in row] for row in ns.tolist()]

    def test_overflow_names_first_order(self):
        # (1)_n = n!, and 171! is the first factorial beyond the double range
        assert abs(specfun.pochhammer(1.0, 170) / float(math.factorial(170)) - 1.0) < 1e-12
        with pytest.raises(OverflowError, match="n=171"):
            specfun.pochhammer(1.0, np.arange(200))
        with pytest.raises(OverflowError, match="n=171"):
            specfun.pochhammer(1.0, 171)
        # the running product stops at order 172, not at the order asked for
        with pytest.raises(OverflowError, match="n=1000000000000"):
            specfun.pochhammer(1.0, 10**12)


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

    # d/dx L_n^nu = -L_{n-1}^{nu+1}: the basis sums of `wavefunction` take
    # their derivative rows from the nu+1 family, one degree behind

    def test_derivative_identity(self):
        assert_allclose(-specfun.laguerre(0, 1.0, 0.7), -1.0, rtol=1e-14)  # d/dx L_1^0 = -1
        # (2, 1, 1.5): -L_1^2(1.5) = -(3 - 1.5) = -1.5
        assert_allclose(-specfun.laguerre(1, 2.0, 1.5), -1.5, rtol=1e-14)

    def test_derivative_against_finite_differences(self):
        h = 1e-6
        for n, nu, x in [(3, 0.5, 2.0), (10, 2.0, 7.5), (25, 0.0, 0.9)]:
            fd = (specfun.laguerre(n, nu, x + h) - specfun.laguerre(n, nu, x - h)) / (2 * h)
            assert abs(-specfun.laguerre(n - 1, nu + 1.0, x) - fd) < 1e-8 * max(1.0, abs(fd))


def _abs_term_sum(n, b, c, z):
    term, total = 1.0, 1.0
    for k in range(n):
        term *= abs((k - n) * (b + k) * z / ((c + k) * (k + 1)))
        total += term
    return total


class TestHyp2F1Terminating:
    def test_n_zero(self):
        assert specfun.hyp2f1_terminating(0, 2.3, 1.1, 0.7) == 1.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 0"):
            specfun.hyp2f1_terminating(-1, 2.3, 1.1, 0.7)

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
        # n < 25 to 1e-11 of max(1, |sum|); n up to 150, where the terms
        # cancel by many digits, to 8 (n+1) ulp of the sum of the term moduli
        rng = np.random.default_rng(5)
        with mp.workdps(40):
            for i in range(80):
                n = int(rng.integers(1, 25) if i < 40 else rng.integers(25, 151))
                b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                c = complex(rng.uniform(1, 4), rng.uniform(0.5, 3))
                z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.5, 0.5))
                ours = specfun.hyp2f1_terminating(n, b, c, z)
                ref = complex(mp.hyp2f1(-n, mp.mpc(b), mp.mpc(c), mp.mpc(z)))
                if n < 25:
                    assert abs(ours - ref) <= 1e-11 * max(1.0, abs(ref))
                else:
                    assert abs(ours - ref) <= 8 * (n + 1) * 2.0**-53 * _abs_term_sum(n, b, c, z), n

    def test_rows_bottom_pole_is_first_row_then_first_k(self):
        # rows 4 (k = 2) and 6 (k = 0) both hit c + k = 0
        c = [1.5, 1.5, 1.5, 1.5, -2.0, 1.5, 0.0, 1.5]
        with pytest.raises(BottomPoleError) as err:
            specfun.hyp2f1_terminating_rows(range(8), 1.0, c, 0.5)
        assert (err.value.n, err.value.k) == (4, 2)

    def test_masked_entries_never_divide(self):
        # row 1 (c = -2) meets c + k = 0 only at k = 2, past its end; any
        # division there would raise under the suite's RuntimeWarning filter
        b, z = 1.0 + 0.5j, 0.5
        rows = specfun.hyp2f1_terminating_rows(range(4), b, [-2.0, -2.0, 5.0, 5.0], z)
        assert rows[0] == 1.0
        assert_allclose(rows[1], 1 - (b / -2.0) * z, rtol=1e-15)

    def test_empty_rows(self):
        assert specfun.hyp2f1_terminating_rows([], 1.0, [], 0.5).shape == (0,)


def _closed_form_series(omega, eps):
    # b, the bottom parameters c_n and z of coefficients_closed_form at
    # Z = -1, kappa = 1, compton 0.05, for n = 0..150
    d = model.derive(model.PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=omega))
    e = model.energy_point(eps)
    lam = model.map_to_pollaczek(d, e).lam
    ang = model.theta_phi(d, e)
    c = 1.0 - np.arange(151) - lam + 1j * ang.phi
    return ang.branch, lam + 1j * ang.phi, c, 1.0 / ang.exp_i_theta**2


@pytest.mark.parametrize("omega, eps", [(1.0, 1.3), (1.0, 0.9), (3.0, 0.9994)])
def test_rows_match_reference_loop(omega, eps):
    """The array rows and the one-row call against the earlier Kahan loop,
    for n <= 150 in the scattering regime and on both bound branches, to
    8 (n+1) ulp of the sum of the term moduli (fixed before measuring)."""
    branch, b, c, z = _closed_form_series(omega, eps)
    assert branch == {1.3: "scattering", 0.9: "bound_right", 0.9994: "bound_left"}[eps]
    rows = specfun.hyp2f1_terminating_rows(range(151), b, c, z)
    for n in range(151):
        want = ref.hyp2f1_terminating(n, b, c[n], z)
        tol = 8 * (n + 1) * 2.0**-53 * _abs_term_sum(n, b, c[n], z)
        assert abs(rows[n] - want) <= tol, n
        assert abs(specfun.hyp2f1_terminating(n, b, c[n], z) - want) <= tol, n


def test_rows_do_not_depend_on_the_block_size(monkeypatch):
    _, b, c, z = _closed_form_series(1.0, 1.3)
    whole = specfun.hyp2f1_terminating_rows(range(151), b, c, z)
    for cap in (1, 150, 1000):
        monkeypatch.setattr(specfun, "_BLOCK_ELEMS", cap)
        assert_allclose(specfun.hyp2f1_terminating_rows(range(151), b, c, z), whole, rtol=1e-12)


class TestGaussRules:
    def test_mass_beyond_double_range_rejected(self):
        # Gamma(nu+1) overflows doubles above nu ~ 170.6
        with pytest.raises(ValueError, match="beyond the double range"):
            specfun.gauss_laguerre_rule(5, 171.0)
        assert specfun.gauss_laguerre_rule(5, 170.0).weights.sum() > 0

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
        vals, vectors = specfun.tridiag_eigen_first_row(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        ref_vals, ref_vecs = np.linalg.eigh(dense)
        assert_allclose(vals, ref_vals, rtol=1e-12, atol=1e-12)
        assert_allclose(np.abs(vectors[0]), np.abs(ref_vecs[0]), rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("family", ["laguerre", "wave"])
    def test_vectors_against_numpy_up_to_sign(self, family):
        # Jacobi matrices of the two families the library builds rules of;
        # each column's sign is matched on its largest components, since
        # LAPACK's tiny first components carry no sign
        order = 30
        if family == "laguerre":
            k, j = np.arange(order, dtype=float), np.arange(1, order, dtype=float)
            diag, off = 2 * k + 2.2, np.sqrt(j * (j + 1.2))
        else:
            d = model.derive(model.PhysicalParams(z=-1.0, kappa=1, compton=0.05))
            diag, off = model.recursion_coefficients(d).block(0, order)
            off = off[:-1]
        _, vectors = specfun.tridiag_eigen_first_row(diag, off)
        _, ref_vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.all(vectors[0] > 0)
        sign = np.sign(np.sum(vectors * ref_vecs, axis=0))
        assert_allclose(vectors, ref_vecs * sign, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order, nu, tol", [(5, 0.0, 1e-12), (40, 1.2, 1e-12), (150, 2.9, 1e-12),
                                                (300, 2.9987, 1e-12), (600, 2.9, 1e-11), (600, 2.9987, 1e-11)])
    def test_vectors_are_orthonormal(self, order, nu, tol):
        # the rows from the recurrence at LAPACK's nodes, far nodes included
        vectors = specfun.gauss_laguerre_rule(order, nu).vectors
        assert vectors.shape == (order, order)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(order))) <= tol
        assert np.max(np.abs(vectors)) <= 1.0

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
        diag, off = coeffs.block(0, order)
        off = off[:-1]
        vals, vectors = specfun.tridiag_eigen_first_row(diag, off)
        first = vectors[0]
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
