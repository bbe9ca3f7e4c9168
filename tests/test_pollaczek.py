import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms as ref
from tridirac import pollaczek, recurrence, resolvent
from tridirac.pollaczek import PollaczekParams


class TestEvaluate:
    def test_initial_values(self):
        params = PollaczekParams(lam=1.3, b=-0.5)
        seq = pollaczek.evaluate(params, 0.4, 3)
        assert seq.values[0] == 1.0
        assert_allclose(seq.values[1], 2 * 1.3 * 0.4 + 2 * (-0.5), rtol=1e-15)

    def test_hand_recursion_p2(self):
        # lam=1, b=0, x=0.5: P_1 = 1, P_2 = [(2)(0.5)]*1 - 1 = 0
        seq = pollaczek.evaluate(PollaczekParams(lam=1.0), 0.5, 2)
        assert_allclose(seq.values[1], 1.0, rtol=1e-15)
        assert abs(seq.values[2]) < 1e-15

    def test_recursion_residual_inside_band(self):
        params = PollaczekParams(lam=1.5, b=-0.3)
        seq = pollaczek.evaluate(params, 0.2, 500)
        assert recurrence.residual(*ref.standard_rows(seq), seq.values) < 1e-10

    @pytest.mark.parametrize("x", [-5.0, -1.5, 0.9, 2.0, 5.0])
    def test_recursion_residual_wide_range(self, x):
        # |x| > 1 runs in extended precision; residual checked there
        params = PollaczekParams(lam=0.8, b=0.4)
        seq = pollaczek.evaluate(params, x, 500)
        assert recurrence.residual(*ref.standard_rows(seq), seq.values) < 1e-10

    def test_degree_property_forward_differences(self):
        # P_n has degree n in x: the (n+1)-th forward difference vanishes
        params = PollaczekParams(lam=1.2, b=-0.4)
        h = 0.25
        for n in [3, 5, 8]:
            grid = np.array([-1.0 + k * h for k in range(n + 2)])
            vals = np.array([pollaczek.evaluate(params, float(x), n).values[n] for x in grid])
            diffs = vals.copy()
            for _ in range(n + 1):
                diffs = np.diff(diffs)
            scale = np.max(np.abs(vals))
            assert abs(diffs[0]) < 1e-8 * max(scale, 1.0)

    def test_degree_property_in_b(self):
        h = 0.3
        n = 4
        vals = [pollaczek.evaluate(PollaczekParams(lam=1.1, b=-0.2 + k * h), 0.3, n).values[n] for k in range(n + 2)]
        diffs = np.array(vals)
        for _ in range(n + 1):
            diffs = np.diff(diffs)
        assert abs(diffs[0]) < 1e-8 * max(np.max(np.abs(vals)), 1.0)


class TestNormalizations:
    def test_orthonormal_p0(self):
        # p_0 = sqrt(lam/Gamma(2 lam)); equals 1 for lam=1
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(PollaczekParams(lam=1.0), 0.3, 1))
        assert_allclose(seq.values[0], 1.0, rtol=1e-14)
        lam = 1.7
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(PollaczekParams(lam=lam), 0.3, 1))
        assert_allclose(seq.values[0], math.sqrt(lam / math.gamma(2 * lam)), rtol=1e-13)

    @pytest.mark.parametrize("lam", [0.6, 1.9998, 20.0])
    def test_orthonormal_scale_against_mpmath(self, lam):
        # s_n = sqrt(n! (lam+n) / Gamma(n+2lam)), whose Gamma factors leave
        # the double range from n ~ 170 on
        params = PollaczekParams(lam=lam)
        ones = pollaczek.PolynomialSequence(np.ones(2001), 0.5, "standard", params)
        scale = pollaczek.to_orthonormal(ones).values
        with mp.workdps(40):
            for n in (10, 100, 1000, 2000):
                want = mp.sqrt(mp.factorial(n) * (lam + n) / mp.gamma(n + 2 * mp.mpf(lam)))
                assert abs(scale[n] - want) <= 1e-13 * want

    def test_orthonormal_bounded_standard_grows(self):
        # p_n stays bounded at fixed |x| < 1 while P_n grows like n^{lam-1}
        params = PollaczekParams(lam=1.8, b=-0.2)
        seq = pollaczek.evaluate(params, 0.3, 3000)
        orth = pollaczek.to_orthonormal(seq)
        p_small = np.max(np.abs(np.asarray(orth.values[100:200])))
        p_large = np.max(np.abs(np.asarray(orth.values[2000:3000])))
        assert 0.5 < p_large / p_small < 2.0
        raw_small = np.max(np.abs(np.asarray(seq.values[100:200])))
        raw_large = np.max(np.abs(np.asarray(seq.values[2000:3000])))
        assert raw_large / raw_small > 5.0  # ~ (20)^{0.8}

    def test_amplitude_window_invariance(self):
        # running max of |p_n| over [n, 2n] varies by < 5% for n >= 500
        params = PollaczekParams(lam=1.5, b=-0.4)
        orth = pollaczek.to_orthonormal(pollaczek.evaluate(params, math.cos(1.1), 4000))
        vals = np.abs(np.asarray(orth.values))
        w1 = vals[500:1000].max()
        w2 = vals[1000:2000].max()
        w3 = vals[2000:4000].max()
        for a, b in [(w1, w2), (w2, w3), (w1, w3)]:
            assert abs(a - b) / b < 0.05


class TestSecondKind:
    """The associated solution of the family: resolvent.solution_pair on
    its Jacobi matrix."""

    def test_initials(self):
        params = PollaczekParams(lam=1.0)  # physical gamma = 0 data
        coeffs = pollaczek.jacobi_coefficients(params)
        p, q = resolvent.solution_pair(coeffs, 0.4, 3)
        assert q[0] == 0.0
        # btil_0 = sqrt(2)/(2 sqrt(2)) = 1/2 -> 1/btil_0 = 2
        assert_allclose(q[1], 2.0, rtol=1e-14)
        # the first solution is p_n/p_0 of the orthonormal normalization
        orth = pollaczek.to_orthonormal(pollaczek.evaluate(params, 0.4, 3)).values
        assert_allclose(p.real, orth / orth[0], rtol=1e-14)

    def test_casoratian_constancy(self):
        # btil_n (p_n q_{n+1} - p_{n+1} q_n) constant, equal to its n=0
        # value 1, to 1e-9 relative for n <= 200
        coeffs = pollaczek.jacobi_coefficients(PollaczekParams(lam=1.5, b=-0.3))
        p, q = resolvent.solution_pair(coeffs, 0.37, 200)
        w = ref.casoratian(coeffs, p, q)
        assert_allclose(w[0], 1.0, rtol=1e-13)
        assert np.max(np.abs(w / w[0] - 1.0)) < 1e-9

    def test_second_kind_satisfies_recursion(self):
        coeffs = pollaczek.jacobi_coefficients(PollaczekParams(lam=0.9, b=0.1))
        _, q = resolvent.solution_pair(coeffs, 0.1, 80)
        a, b = (v.tolist() for v in coeffs.block(0, 80))
        assert recurrence.residual([0.1 - an for an in a], b, [0.0] + b[:-1], q.tolist()) < 1e-10


class TestGeneratingFunction:
    """sum_n P_n(cos theta) t^n = (1 - t e^{i theta})^{-lam + i phi}
    (1 - t e^{-i theta})^{-lam - i phi}, phi = b / sin(theta), inside
    the disc |t| < 1."""

    @staticmethod
    def closed_form(params, theta, t):
        phi = params.b / math.sin(theta)
        u = (-params.lam + 1j * phi) * cmath.log(1 - t * cmath.exp(1j * theta))
        v = (-params.lam - 1j * phi) * cmath.log(1 - t * cmath.exp(-1j * theta))
        return cmath.exp(u + v)

    @staticmethod
    def partial_sum(params, theta, t, n_max):
        values = pollaczek.evaluate(params, math.cos(theta), n_max).values
        return complex(np.sum(values * t ** np.arange(n_max + 1)))

    def test_partial_sums_converge_to_closed_form(self):
        params = PollaczekParams(lam=1.2, b=-0.4)
        theta, t = 1.0, 0.3
        closed = self.closed_form(params, theta, t)
        assert abs(self.partial_sum(params, theta, t, 120) - closed) < 1e-9

    def test_geometric_error_decay(self):
        params = PollaczekParams(lam=1.2, b=-0.4)
        theta, t = 1.0, 0.3
        closed = self.closed_form(params, theta, t)
        errs = [abs(self.partial_sum(params, theta, t, n) - closed) for n in (10, 20, 30)]
        assert errs[1] < 0.1 * errs[0] or errs[1] < 1e-14
        assert errs[2] < 0.1 * errs[1] or errs[2] < 1e-14

    def test_phase_parameter_reduces_to_b_over_sin(self):
        # a = 0: phi enters only through b / sin(theta)
        params = PollaczekParams(lam=1.2, b=-0.4)
        theta = 0.8
        assert_allclose(
            complex(pollaczek.phase_parameter(params, theta)).real,
            -0.4 / math.sin(theta),
            rtol=1e-14,
        )


class TestScatteringAsymptotics:
    def test_free_case_amplitude(self):
        # phi = 0 (b = 0): psi = 0, amplitude = 2/(Gamma(lam) (2 sin theta)^lam)
        params = PollaczekParams(lam=2.0, b=0.0)
        amp, psi, phi = pollaczek.scattering_amplitude_phase(params, 1.1)
        assert phi == 0.0
        assert abs(psi) < 1e-14
        assert_allclose(amp, 2.0 / (math.gamma(2.0) * (2 * math.sin(1.1)) ** 2.0), rtol=1e-13)

    def test_windowed_error_decays(self):
        params = PollaczekParams(lam=1.5, b=-0.4)
        theta = 1.1
        orth = pollaczek.to_orthonormal(pollaczek.evaluate(params, math.cos(theta), 2150))
        amp, _, _ = pollaczek.scattering_amplitude_phase(params, theta)
        vals = np.asarray(orth.values)

        def window_error(n0):
            return max(
                abs(vals[n] - pollaczek.asymptotic_scattering(params, theta, n)) / amp
                for n in range(n0, n0 + 100)
            )

        assert window_error(2000) < window_error(200)

    def test_phase_advances_by_theta(self):
        # cos argument advances by theta per unit n, minus the slow ln drift
        params = PollaczekParams(lam=1.5, b=-0.4)
        theta = 1.1
        n = 500
        _, psi, phi = pollaczek.scattering_amplitude_phase(params, theta)
        arg_n = n * theta + pollaczek.drifting_phase(psi, params.lam, theta, phi, n)
        arg_n1 = (n + 1) * theta + pollaczek.drifting_phase(psi, params.lam, theta, phi, n + 1)
        assert_allclose(arg_n1 - arg_n, theta - phi * math.log((n + 1) / n), rtol=1e-12)


class TestBoundAsymptotics:
    """evaluate's 40-digit values at |x| > 1 against the leading
    Darboux term kept in reference_forms."""

    @pytest.mark.parametrize("x", [1.5, -1.5])
    def test_ratio_tends_to_one(self, x):
        # extended-precision recursion oracle (|x| > 1 runs in 40-digit
        # mpmath): |P_n / approximant| -> 1, within 2% at n = 100 vs 1000
        params = PollaczekParams(lam=1.0, b=-0.7)
        seq = pollaczek.evaluate(params, x, 1000)
        for n, tol in [(100, 0.02), (1000, 0.002)]:
            log_mod, sign = ref.asymptotic_bound_log(params, x, n)
            exact = seq.values[n]
            log_ratio = float(mp.log(abs(exact))) - log_mod
            assert abs(log_ratio) < tol
            assert sign == mp.sign(exact)

    def test_moderate_n_complex_value(self):
        params = PollaczekParams(lam=1.0, b=-0.7)
        seq = pollaczek.evaluate(params, 1.5, 60)
        log_mod, sign = ref.asymptotic_bound_log(params, 1.5, 60)
        assert abs(sign * math.exp(log_mod) / float(seq.values[60]) - 1.0) < 0.01


class TestJacobiCoefficients:
    def test_offdiag_limit(self):
        params = PollaczekParams(lam=1.5, b=-0.2)
        coeffs = pollaczek.jacobi_coefficients(params)
        assert abs(coeffs.offdiag(10_000) - 0.5) < 1e-3
        assert abs(coeffs.diag(10_000)) < 1e-3

    def test_orthonormal_solves_jacobi_recursion(self):
        # x p_n = atil_n p_n + btil_{n-1} p_{n-1} + btil_n p_{n+1}
        params = PollaczekParams(lam=1.4, b=0.3)
        x = 0.25
        orth = pollaczek.to_orthonormal(pollaczek.evaluate(params, x, 60))
        coeffs = pollaczek.jacobi_coefficients(params)
        p = np.asarray(orth.values)
        for n in range(1, 59):
            lhs = x * p[n]
            rhs = coeffs.diag(n) * p[n] + coeffs.offdiag(n - 1) * p[n - 1] + coeffs.offdiag(n) * p[n + 1]
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def mp_standard_values(params, x, n_max):
    """P_0..P_{n_max} by the standard recursion in 40-digit mpmath."""
    with mp.workdps(40):
        lam, b, xm = mp.mpf(params.lam), mp.mpf(params.b), mp.mpf(x)
        vals = [mp.mpf(1), 2 * lam * xm + 2 * b]
        for n in range(1, n_max):
            vals.append((2 * ((n + lam) * xm + b) * vals[n] - (n + 2 * lam - 1) * vals[n - 1]) / (n + 1))
    return vals


class TestFloatPathAccuracy:
    def test_double_recursion_against_extended(self):
        # forward recursion in doubles vs 40-digit arithmetic at |x| < 1
        rng = np.random.default_rng(51)
        for _ in range(6):
            params = PollaczekParams(lam=float(rng.uniform(0.4, 3.0)), b=float(rng.uniform(-0.8, 0.8)))
            x = float(rng.uniform(-0.95, 0.95))
            fast = pollaczek.evaluate(params, x, 300)
            assert isinstance(fast.values, np.ndarray)
            slow = mp_standard_values(params, x, 300)
            scale = max(float(abs(v)) for v in slow)
            worst = max(
                float(abs(fast.values[n] - float(slow[n]))) for n in range(301)
            )
            assert worst < 1e-12 * scale
