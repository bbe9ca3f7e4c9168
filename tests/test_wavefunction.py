import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms
from tridirac import model, specfun, spectrum, wavefunction
from tridirac.errors import BottomPoleError, GridError, KineticBalanceSingular
from tridirac.model import PhysicalParams

DESK = PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0)


def zeta(d, n, r):
    """zeta_n(r), the expansion of the unit vector e_n."""
    return wavefunction.reconstruct_upper(reference_forms.unit_vector(n), d, r, n + 1)[0]


class TestBasis:
    def test_ground_element_shape(self):
        d = model.derive(DESK)
        elem = reference_forms.BasisElement(0, d.gamma_eff, d.omega)
        r = np.array([0.5, 1.0, 2.0])
        vals = zeta(d, 0, r)
        expected = elem.normalization * (d.omega * r) ** (d.gamma_eff + 1) * np.exp(-d.omega * r / 2)
        assert_allclose(vals, expected, rtol=1e-14)

    def test_gram_identity(self):
        d = model.derive(DESK)
        gram = wavefunction.gram_matrix(d, 20)
        assert np.max(np.abs(gram - np.eye(20))) < 1e-9

    def test_gram_identity_negative_kappa(self):
        d = model.derive(PhysicalParams(z=-1.0, kappa=-2, compton=0.05, omega=0.8))
        gram = wavefunction.gram_matrix(d, 15)
        assert np.max(np.abs(gram - np.eye(15))) < 1e-9

    def test_first_two_elements_orthogonal(self):
        d = model.derive(DESK)
        gram = wavefunction.gram_matrix(d, 2)
        assert abs(gram[0, 1]) < 1e-9
        assert abs(gram[0, 0] - 1.0) < 1e-9

    def test_gram_with_subnormal_weights_is_identity(self):
        # the Gauss rule of order 206 has weights below the smallest normal
        # double at its far nodes, where the Laguerre rows are huge; the
        # eigenvector rows never form either, so nothing is lost there
        d = model.derive(DESK)
        assert specfun.gauss_laguerre_rule(206, 2.0 * d.gamma_eff + 1.0).weights.min() < np.finfo(float).tiny
        gram = wavefunction.gram_matrix(d, 200)
        assert np.max(np.abs(gram - np.eye(200))) <= 1e-13

    def test_derivative_against_finite_differences(self):
        d = model.derive(DESK)
        h = 1e-6
        for n in (0, 1, 5, 12):
            for r in (0.5, 1.0, 5.0):
                fd = float(zeta(d, n, r + h) - zeta(d, n, r - h)) / (2 * h)
                got = float(wavefunction.reconstruct_derivative(reference_forms.unit_vector(n), d, r, n + 1))
                assert abs(got - fd) < 1e-7 * max(1.0, abs(fd))

    def test_second_derivative_against_finite_differences(self):
        # the analytic zeta_n'' of reference_forms, the per-element form
        # that the one-pass sums are checked against (test_one_pass_sums_against_mpmath)
        d = model.derive(DESK)
        h = 1e-4
        for n in (0, 3, 9):
            elem = reference_forms.BasisElement(n, d.gamma_eff, d.omega)
            for r in (0.8, 2.0, 6.0):
                fd = float(zeta(d, n, r + h) - 2 * zeta(d, n, r) + zeta(d, n, r - h)) / h**2
                assert abs(reference_forms.basis_second_derivative(elem, r) - fd) < 1e-5 * max(1.0, abs(fd))


class TestCoefficients:
    def test_recursion_normalization_and_first_step(self):
        d = model.derive(DESK)
        eps = 1.4
        pol = model.map_to_pollaczek(d, eps)
        coeffs = wavefunction.coefficients_recursion(d, eps, 10)
        assert coeffs.values[0] == 1.0
        g = d.gamma_eff
        b0 = 0.5 * math.sqrt(2 * g + 2)
        expected_f1 = ((g + 1) * pol.x + pol.b) / b0
        assert_allclose(coeffs.values[1].real, expected_f1, rtol=1e-13)

    def test_recursion_residual_by_construction(self):
        d = model.derive(DESK)
        eps = 1.4
        pol = model.map_to_pollaczek(d, eps)
        vals = wavefunction.coefficients_recursion(d, eps, 60).values.real
        g = d.gamma_eff
        b = lambda n: 0.5 * math.sqrt((n + 1) * (n + 2 * g + 2))
        for n in range(1, 59):
            lhs = ((n + g + 1) * pol.x + pol.b) * vals[n]
            rhs = b(n - 1) * vals[n - 1] + b(n) * vals[n + 1]
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_recursion_overflow_is_inf(self, recwarn):
        # x = 5.55, growth rate 11: the mpmath values leave the double
        # range at n = 299, and complex() maps them to inf + 0j quietly
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.5, omega=2.0))
        vals = wavefunction.coefficients_recursion(d, 0.8, 320).values
        assert np.all(np.isfinite(vals[:299]))
        assert vals[299:].tolist() == [complex(math.inf, 0.0)] * 22
        assert len(recwarn) == 0

    def test_closed_form_f0(self):
        d = model.derive(DESK)
        closed = wavefunction.coefficients_closed_form(d, 1.4, 0)
        assert_allclose(closed.values[0], 1.0 + 0.0j, rtol=1e-13)

    def test_closed_form_pole_at_level_0(self):
        # a bottom Pochhammer factor of the series vanishes at k=6 of n=7
        with pytest.raises(BottomPoleError) as err:
            wavefunction.coefficients_closed_form(model.derive(DESK), 0.9996872555384283, 20)
        assert (err.value.n, err.value.k) == (7, 6)

    def test_closed_form_overflow_at_n_max_200(self):
        # the Pochhammer factor leaves the double range between n = 150 and 200
        with pytest.raises(OverflowError):
            wavefunction.coefficients_closed_form(model.derive(DESK), 1.3, 200)

    def test_closed_form_pole_raised_before_pochhammer(self, monkeypatch):
        # the series' pole (n = 7 at level 0) comes out of the one series
        # pass, before any Pochhammer factor is formed
        def poch(c, n):
            if n == 3:
                raise OverflowError("pochhammer")
            return 1.0
        monkeypatch.setattr(wavefunction.specfun, "pochhammer", poch)
        with pytest.raises(BottomPoleError) as err:
            wavefunction.coefficients_closed_form(model.derive(DESK), 0.9996872555384283, 20)
        assert (err.value.n, err.value.k) == (7, 6)

    @pytest.mark.parametrize("fail_at, error", [(8, BottomPoleError)])
    def test_closed_form_errors_in_per_n_order(self, monkeypatch, fail_at, error):
        # the series' pole (n = 7 at level 0) comes out; the Pochhammer
        # factor's error at a later n is never reached
        def poch(c, n):
            if n == fail_at:
                raise OverflowError("pochhammer")
            return 1.0
        monkeypatch.setattr(wavefunction.specfun, "pochhammer", poch)
        with pytest.raises(error):
            wavefunction.coefficients_closed_form(model.derive(DESK), 0.9996872555384283, 20)

    @pytest.mark.parametrize("z, kappa, compton", [(-16.0, -1, 0.05), (-1.0, 1, 0.02), (-1.0, 19, 0.05)],
                             ids=["lam0.6", "lam1.9998", "lam20"])
    def test_closed_form_prefactor_against_mpmath(self, monkeypatch, z, kappa, compton):
        # sqrt(Gamma(2 lam) / (n! Gamma(n+2 lam))) alone: the series and the
        # Pochhammer factor are ones, and e^{i n theta} is divided out.  From
        # n ~ 170 on the prefactor is below the double range
        d = model.derive(PhysicalParams(z=z, kappa=kappa, compton=compton))
        lam, w = model.map_to_pollaczek(d, 1.3).lam, model.theta_phi(d, 1.3).exp_i_theta
        monkeypatch.setattr(wavefunction.specfun, "hyp2f1_terminating_rows",
                            lambda n, b, c, z: np.ones(len(n), dtype=complex))
        monkeypatch.setattr(wavefunction.specfun, "pochhammer", lambda c, n: np.ones(np.shape(n), dtype=complex))
        f = wavefunction.coefficients_closed_form(d, 1.3, 100).values
        with mp.workdps(40):
            for n in (10, 100):
                want = mp.sqrt(mp.gamma(2 * mp.mpf(lam)) / (mp.factorial(n) * mp.gamma(n + 2 * mp.mpf(lam))))
                assert abs(f[n] / w**n - want) <= 1e-13 * want

    def test_closed_matches_recursion_scattering(self):
        rng = np.random.default_rng(23)
        count = 0
        while count < 10:
            kappa = int(rng.choice([-2, -1, 1, 2]))
            p = PhysicalParams(
                z=float(rng.uniform(-2.0, -0.3)),
                kappa=kappa,
                compton=float(rng.uniform(0.01, 0.08)),
                omega=float(rng.uniform(0.5, 2.5)),
            )
            d = model.derive(p)
            eps = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.05, 2.5))
            rec = wavefunction.coefficients_recursion(d, eps, 30).values
            closed = wavefunction.coefficients_closed_form(d, eps, 30).values
            dev = np.max(np.abs(closed / rec - 1.0))
            assert dev < 1e-8
            count += 1

    def test_closed_matches_recursion_bound(self):
        rng = np.random.default_rng(29)
        count = 0
        while count < 10:
            kappa = int(rng.choice([-1, 1, 2]))
            p = PhysicalParams(
                z=float(rng.uniform(-1.5, -0.5)),
                kappa=kappa,
                compton=float(rng.uniform(0.02, 0.08)),
                omega=float(rng.uniform(0.5, 2.5)),
            )
            d = model.derive(p)
            eps = float(rng.uniform(0.4, 0.995))
            # keep the quantization combination away from integers: at
            # those points the closed form legitimately hits its
            # bottom-parameter poles
            q = spectrum.quantization_condition(d, eps)
            if abs(q - round(q)) < 0.1:
                continue
            rec = wavefunction.coefficients_recursion(d, eps, 30).values
            closed = wavefunction.coefficients_closed_form(d, eps, 30).values
            dev = np.max(np.abs(closed / rec - 1.0))
            assert dev < 1e-8
            count += 1

    def test_bound_coefficients_decay_at_level(self):
        eps0 = spectrum.bound_energy(DESK, 0)
        d = model.derive(DESK)
        vals = np.abs(wavefunction.coefficients_bound_state(d, eps0, 40).values)
        assert len(vals) == 41 and vals[0] == 1.0
        assert vals[10] < 1e-20  # minimal solution, fast geometric decay
        assert vals[40] < vals[10]

    def test_bound_state_vector_satisfies_recursion(self):
        # backward-generated values satisfy the interior rows; the n=0
        # row holds to the minimal-solution defect of the rounded energy
        eps0 = spectrum.bound_energy(DESK, 0)
        d = model.derive(DESK)
        pol = model.map_to_pollaczek(d, eps0)
        vals = wavefunction.coefficients_bound_state(d, eps0, 30).values.real
        g = d.gamma_eff
        b = lambda n: 0.5 * math.sqrt((n + 1) * (n + 2 * g + 2))
        for n in range(1, 29):
            lhs = ((n + g + 1) * pol.x + pol.b) * vals[n]
            rhs = b(n - 1) * vals[n - 1] + b(n) * vals[n + 1]
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(vals[n - 1]) * b(n - 1), 1e-300)
        row0 = ((g + 1) * pol.x + pol.b) * vals[0] - b(0) * vals[1]
        # normalized by the uncancelled bracket scale: the bracket itself
        # is a deep cancellation at this near-degenerate basis scale
        assert abs(row0) < 1e-6 * abs((g + 1) * pol.x)

    def test_forward_recursion_grows_at_rounded_level(self):
        # documented behavior: from a double-rounded bound energy the
        # forward vector picks up the growing branch
        eps0 = spectrum.bound_energy(DESK, 0)
        d = model.derive(DESK)
        fwd = np.abs(wavefunction.coefficients_recursion(d, eps0, 40).values)
        assert fwd[40] > 1.0


class TestReconstruction:
    def test_delta_coefficient_gives_basis_element(self):
        d = model.derive(DESK)
        fake = wavefunction.CoefficientVector(
            values=np.array([1.0 + 0j, 0.0j, 0.0j]), eps=0.9, source="recursion"
        )
        r = np.linspace(0.5, 8.0, 17)
        out, tail = wavefunction.reconstruct_upper(fake, d, r, 1)
        zeta0 = reference_forms.basis_value(reference_forms.BasisElement(0, d.gamma_eff, d.omega), r)
        assert_allclose(out, zeta0, rtol=1e-14)
        assert tail == 0.0

    def test_non_finite_coefficients_are_dropped(self):
        # a NaN or infinite f_n contributes nothing, exactly as f_n = 0
        d = model.derive(DESK)
        r = np.linspace(0.5, 8.0, 17)
        sums = wavefunction._expansion(np.array([1.0, np.nan, 0.5, np.inf, -np.inf]), d.gamma_eff, d.omega, r, 5)
        want = wavefunction._expansion(np.array([1.0, 0.0, 0.5, 0.0, 0.0]), d.gamma_eff, d.omega, r, 5)
        for got, expected in zip(sums, want):
            assert np.array_equal(got, expected)

    def test_bound_state_truncation_converges(self):
        eps0 = spectrum.bound_energy(DESK, 0)
        d = model.derive(DESK)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
        r = np.linspace(0.5, 20.0, 40)
        prev, _ = wavefunction.reconstruct_upper(coeffs, d, r, 16)
        cur, _ = wavefunction.reconstruct_upper(coeffs, d, r, 32)
        final, tail = wavefunction.reconstruct_upper(coeffs, d, r, 64)
        scale = np.max(np.abs(final))
        assert np.max(np.abs(cur - prev)) / scale < 1e-2
        assert np.max(np.abs(final - cur)) / scale < 1e-2
        assert tail < 1e-30  # only the (negligible) n = 64 coefficient remains

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "scattering"])
    def test_one_pass_sums_against_mpmath(self, bound):
        # phi, phi' and phi'' at trunc 64 against a 40-digit re-sum of the
        # same coefficients, on the grid and at small radii, where a
        # regrouped derivative can cancel, to 2e-13 of the grid's largest
        # magnitude (fixed before measuring)
        d = model.derive(DESK)
        if bound:
            coeffs = wavefunction.coefficients_bound_state(d, spectrum.bound_energy(DESK, 2), 64)
        else:
            coeffs = wavefunction.coefficients_recursion(d, 1.3, 64)
        r = np.concatenate([np.linspace(0.3, 60.0, 211), [1e-3, 150.0, 1e-4, 1e-2, 0.1]])
        sums = wavefunction._expansion(coeffs.values, d.gamma_eff, d.omega, r, 64)
        for got, want in zip(sums, reference_forms.mp_basis_sums(coeffs.values, d.gamma_eff, d.omega, r, 64)):
            want = np.array([float(v) for v in want])
            assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want))
        # the reconstructions are that one pass
        assert np.array_equal(wavefunction.reconstruct_upper(coeffs, d, r, 64)[0], sums[0])
        assert np.array_equal(wavefunction.reconstruct_derivative(coeffs, d, r, 64), sums[1])

    @pytest.mark.parametrize("g", [0.9987, 19.0, 85.0])
    def test_normalization_against_mpmath(self, g):
        # A_n = sqrt(w n!/Gamma(n+2g+2)), read through the basis sum at e_n,
        # phi = A_n E L_n^{2g+1}(y), by dividing out the same E and L_n; y
        # lies where neither E nor A_n L_n leaves the double range
        omega = 0.7
        for n in (10, 1000, 2000):
            r = min(2.0 * g + 2.0 * n + 2.0, 200.0) / omega
            values = np.zeros(n + 1)
            values[n] = 1.0
            phi = wavefunction._expansion(values, g, omega, r, n + 1)[0]
            y = omega * np.asarray(r)
            got = float(phi / (y ** (g + 1.0) * np.exp(-0.5 * y) * specfun.laguerre(n, 2.0 * g + 1.0, y)))
            with mp.workdps(40):
                want = mp.sqrt(omega * mp.factorial(n) / mp.gamma(n + 2 * mp.mpf(g) + 2))
                assert abs(got / want - 1) <= 5e-14

    def test_truncation_beyond_vector_refused(self):
        d = model.derive(DESK)
        coeffs = wavefunction.coefficients_recursion(d, 1.3, 8)  # 9 coefficients
        r = np.linspace(0.5, 5.0, 4)
        with pytest.raises(ValueError, match="n_trunc"):
            wavefunction.reconstruct_upper(coeffs, d, r, 10)
        with pytest.raises(ValueError, match="n_trunc"):
            wavefunction.reconstruct_derivative(coeffs, d, r, 10)
        with pytest.raises(ValueError, match="n_trunc"):
            wavefunction.spinor(coeffs, d, r, 10)
        with pytest.raises(ValueError, match="n_trunc"):
            wavefunction.lower_component(coeffs, d, r, 10)
        with pytest.raises(ValueError, match="n_trunc"):
            wavefunction.coupled_system_residual(coeffs, d, r, 10)

    def test_tail_fraction_exact(self):
        # sum_{n>=n_trunc} |f_n|^2 / sum |f_n|^2; None with nothing past the
        # truncation or nothing to normalize by
        d = model.derive(DESK)
        r = np.array([1.0, 2.0])
        coeffs = wavefunction.CoefficientVector(values=np.array([1.0, 2.0j, -2.0]), eps=0.9, source="recursion")
        assert [wavefunction.reconstruct_upper(coeffs, d, r, n)[1] for n in (0, 1, 2, 3)] == [1.0, 8 / 9, 4 / 9, None]
        zero = wavefunction.CoefficientVector(values=np.zeros(3, dtype=complex), eps=0.9, source="recursion")
        assert wavefunction.reconstruct_upper(zero, d, r, 1)[1] is None

    def test_tail_fraction_reported(self):
        d = model.derive(DESK)
        eps0 = spectrum.bound_energy(DESK, 0)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
        _, tail = wavefunction.reconstruct_upper(coeffs, d, np.linspace(0.5, 5, 5), 8)
        assert tail is not None
        assert 0 <= tail < 1e-20


class TestLowerComponent:
    def test_singular_prefactor(self):
        d = model.derive(DESK)
        coeffs = dataclasses.replace(wavefunction.coefficients_recursion(d, 1.4, 8), eps=-d.gamma / d.kappa)
        with pytest.raises(KineticBalanceSingular):
            wavefunction.lower_component(coeffs, d, np.array([1.0]))

    def test_ground_element_action(self):
        # on zeta_0 the derivative reduces to ((g+1)/r - w/2) zeta_0
        d = model.derive(DESK)
        fake = wavefunction.CoefficientVector(values=np.array([1.0 + 0j]), eps=0.9, source="recursion")
        r = np.array([0.7, 1.3, 4.0])
        lower = wavefunction.lower_component(fake, d, r)
        zeta0 = reference_forms.basis_value(reference_forms.BasisElement(0, d.gamma_eff, d.omega), r)
        pref = d.compton / (0.9 + d.gamma / d.kappa)
        expected = pref * (
            (-d.z / d.kappa + d.gamma / r) + ((d.gamma_eff + 1) / r - d.omega / 2)
        ) * zeta0
        assert_allclose(lower, expected, rtol=1e-12)

    def test_against_finite_differences(self):
        d = model.derive(DESK)
        eps0 = spectrum.bound_energy(DESK, 0)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 32)
        h = 1e-6
        pref = d.compton / (eps0 + d.gamma / d.kappa)
        for r in (0.5 / d.omega, 1.0 / d.omega, 5.0 / d.omega):
            grid = np.array([r - h, r, r + h])
            phi, _ = wavefunction.reconstruct_upper(coeffs, d, grid, 32)
            fd = pref * ((-d.z / d.kappa + d.gamma / r) * phi[1] + (phi[2] - phi[0]) / (2 * h))
            exact = wavefunction.lower_component(coeffs, d, np.array([r]), 32)[0]
            assert abs(exact - fd) < 1e-7 * max(1.0, abs(exact))


class TestSchrodingerResidual:
    def test_zero_function(self):
        d = model.derive(DESK)
        r = np.linspace(0.5, 5.0, 21)
        assert wavefunction.schrodinger_residual(np.zeros_like(r), r, d, 0.9) == 0.0

    def test_grid_guards(self):
        d = model.derive(DESK)
        with pytest.raises(GridError):
            wavefunction.schrodinger_residual([1, 2, 3], [0.1, 0.2, 0.3], d, 0.9)
        with pytest.raises(GridError):
            wavefunction.schrodinger_residual(np.ones(6), np.array([0.1, 0.2, 0.4, 0.5, 0.6, 0.7]), d, 0.9)
        with pytest.raises(GridError):
            wavefunction.schrodinger_residual(np.ones(6), np.ones(6), d, 0.9)
        # steps that differ by 1e-8 h are not uniform; by 1e-10 h they are
        r = np.linspace(1.0, 2.0, 6)
        with pytest.raises(GridError):
            wavefunction.schrodinger_residual(np.ones(6), r + np.array([0, 0, 2e-9, 0, 0, 0]), d, 0.9)
        wavefunction.schrodinger_residual(np.ones(6), r + np.array([0, 0, 2e-11, 0, 0, 0]), d, 0.9)

    def test_exact_on_a_quartic(self):
        # the five-point second difference is exact on a quartic, so the
        # residual is the formula's value; Z = -2 and eps = 0.6 keep
        # 2 Z eps apart from 2 eps / Z and 2 Z / eps
        p = PhysicalParams(z=-2.0, kappa=-1, compton=0.3, omega=1.0)
        d = model.derive(p)
        eps, g = 0.6, d.gamma_eff
        for count in (5, 41):
            r = np.linspace(0.5, 2.5, count)
            phi = r**4 - 3.0 * r**2 + 1.0
            inner = r[2:-2]
            centrifugal, coulomb = g * (g + 1.0) / inner**2, 2.0 * p.z * eps / inner
            constant = (1.0 - eps**2) / p.compton**2
            resid = np.abs(-(12.0 * inner**2 - 6.0) + (centrifugal + coulomb + constant) * phi[2:-2])
            norm = np.max(np.abs(centrifugal) + np.abs(coulomb)) + abs(constant)
            want = np.max(resid) / (np.max(np.abs(phi)) * norm)
            assert abs(wavefunction.schrodinger_residual(phi, r, d, eps) - want) <= 1e-9 * want

    def test_bound_state_residual(self):
        eps0 = spectrum.bound_energy(DESK, 0)
        d = model.derive(DESK)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
        h = 0.01 / d.omega
        r = np.arange(0.5, 30.0, h)
        phi, _ = wavefunction.reconstruct_upper(coeffs, d, r, 64)
        assert wavefunction.schrodinger_residual(phi, r, d, eps0) <= 1e-4

    def test_off_eigenvalue_residual_larger(self):
        # same machinery at a non-eigenvalue: the residual does not drop
        # to the bound-state level (diagnostic, coarse assertion)
        eps0 = spectrum.bound_energy(DESK, 0)
        eps1 = spectrum.bound_energy(DESK, 1)
        mid = 0.5 * (eps0 + eps1)
        d = model.derive(DESK)
        coeffs = wavefunction.coefficients_recursion(d, mid, 64)
        h = 0.01 / d.omega
        r = np.arange(0.5, 30.0, h)
        phi, _ = wavefunction.reconstruct_upper(coeffs, d, r, 64)
        at_level = wavefunction.schrodinger_residual(
            *(wavefunction.reconstruct_upper(wavefunction.coefficients_bound_state(d, eps0, 64), d, r, 64)[0],),
            r, d, eps0,
        )
        off_level = wavefunction.schrodinger_residual(phi, r, d, mid)
        assert off_level > 10 * at_level


class TestTridiagonality:
    @pytest.mark.parametrize(
        "p,eps",
        [
            (PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0), 1.3),
            (PhysicalParams(z=-1.5, kappa=2, compton=0.1, omega=0.7), 0.9),
            (PhysicalParams(z=-0.5, kappa=-1, compton=0.03, omega=1.4), 1.8),
        ],
    )
    def test_offband_ratio(self, p, eps):
        d = model.derive(p)
        report = wavefunction.verify_tridiagonal(d, eps, 20)
        assert report.offband_ratio <= 1e-10
        assert report.diag_deviation <= 1e-9
        assert report.offdiag_deviation <= 1e-9

    def test_minimum_size(self):
        d = model.derive(DESK)
        with pytest.raises(ValueError):
            wavefunction.verify_tridiagonal(d, 1.3, 2)


class TestCoupledSystem:
    @pytest.mark.parametrize("kappa", [1, -1, 2])
    def test_rotation_and_kinetic_balance(self, kappa):
        p = PhysicalParams(z=-1.0, kappa=kappa, compton=0.05, omega=1.0)
        eps0 = spectrum.bound_energy(p, 0)
        d = model.derive(p)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 48)
        r = np.array([0.8, 1.5, 2.5, 5.0, 9.0])
        assert wavefunction.coupled_system_residual(coeffs, d, r, 48) < 1e-6

    @pytest.mark.parametrize("p", [PhysicalParams(z=-2.0, kappa=1, compton=0.3, omega=1.0),
                                   PhysicalParams(z=-0.5, kappa=2, compton=1.0, omega=1.0)], ids=["z-2", "z-0.5"])
    def test_other_charges(self, p):
        # at Z = -1, |kappa| = 1 and eps ~ 1, Z and 1/Z, eps Z and Z/eps,
        # and Z/kappa and Z kappa coincide; these levels (eps_0 = 0.949 and
        # 0.986) tell them apart in both residuals
        eps0 = spectrum.bound_energy(p, 0)
        d = model.derive(p)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
        r = np.arange(0.5, 30.0, 0.01)
        phi, _ = wavefunction.reconstruct_upper(coeffs, d, r, 64)
        assert wavefunction.schrodinger_residual(phi, r, d, eps0) <= 1e-4
        assert wavefunction.coupled_system_residual(coeffs, d, np.array([0.8, 1.5, 2.5, 5.0, 9.0]), 64) < 1e-6


class TestLeftBranch:
    """End-to-end checks on the x < -1 bound branch (coarse basis), where
    the expansion coefficients alternate in sign."""

    P = PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=3.0)

    def test_branch_selected(self):
        d = model.derive(self.P)
        eps0 = spectrum.bound_energy(self.P, 0)
        ang = model.theta_phi(d, eps0)
        assert ang.branch == "bound_left"

    def test_coefficients_alternate_and_decay(self):
        d = model.derive(self.P)
        eps0 = spectrum.bound_energy(self.P, 0)
        vals = wavefunction.coefficients_bound_state(d, eps0, 40).values.real
        assert vals[0] == 1.0
        signs = np.sign(vals[:20])
        assert np.all(signs[1:] * signs[:-1] < 0)
        assert abs(vals[20]) < abs(vals[5]) < abs(vals[0])

    def test_closed_form_matches_recursion(self):
        d = model.derive(self.P)
        eps = 0.9994  # generic bound-left point, away from the levels
        q = spectrum.quantization_condition(d, eps)
        assert abs(q - round(q)) > 0.1
        rec = wavefunction.coefficients_recursion(d, eps, 25).values
        closed = wavefunction.coefficients_closed_form(d, eps, 25).values
        assert np.max(np.abs(closed / rec - 1.0)) < 1e-8

    def test_radial_residual_at_level(self):
        d = model.derive(self.P)
        eps0 = spectrum.bound_energy(self.P, 0)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
        h = 0.01 / d.omega
        r = np.arange(0.4, 15.0, h)
        phi, _ = wavefunction.reconstruct_upper(coeffs, d, r, 64)
        assert wavefunction.schrodinger_residual(phi, r, d, eps0) <= 1e-4
        assert wavefunction.coupled_system_residual(coeffs, d, np.array([0.8, 2.0, 5.0]), 64) < 1e-6


class TestExactGroundStateShape:
    """The nodeless ground level has the closed-form radial solution
    C r^{g+1} e^{-q r} with q = |Z| eps_0 / (n_level + g + 1); the full
    reconstruction pipeline must reproduce it pointwise."""

    @pytest.mark.parametrize(
        "p",
        [
            PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0),
            PhysicalParams(z=-1.0, kappa=-1, compton=0.05, omega=1.0),
            PhysicalParams(z=-1.5, kappa=2, compton=0.08, omega=0.6),
            PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=3.0),  # bound-left branch
        ],
    )
    def test_reconstruction_matches_closed_form(self, p):
        d = model.derive(p)
        eps0 = spectrum.bound_energy(p, 0)
        coeffs = wavefunction.coefficients_bound_state(d, eps0, 80)
        r = np.linspace(0.4, 20.0, 60)
        phi, _ = wavefunction.reconstruct_upper(coeffs, d, r, 80)
        g = d.gamma_eff
        q = abs(p.z) * eps0 / (g + 1.0)
        exact = r ** (g + 1.0) * np.exp(-q * r)
        scale = phi[20] / exact[20]  # match normalization at one point
        dev = np.max(np.abs(phi - scale * exact)) / np.max(np.abs(phi))
        assert dev < 1e-9
