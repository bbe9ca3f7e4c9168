import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms as ref
from tridirac import model, pollaczek
from tridirac.errors import ConfigError, SingularMapError, SupercriticalError, ThresholdError
from tridirac.model import PhysicalParams, Regime


class TestDerive:
    def test_zero_charge(self):
        d = model.derive(PhysicalParams(z=0.0, kappa=2, compton=0.05))
        assert_allclose(d.gamma, 2.0, rtol=1e-15)
        assert d.alpha == 0.0

    def test_physical_electron(self):
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=1 / 137.035999))
        assert_allclose(d.gamma, math.sqrt(1 - (1 / 137.035999) ** 2), rtol=1e-15)
        assert abs(d.gamma - 0.99997338) < 1e-7

    def test_supercritical(self):
        with pytest.raises(SupercriticalError):
            model.derive(PhysicalParams(z=-2.0, kappa=1, compton=1.0))

    def test_gamma_identity(self):
        # gamma^2 + (compton Z)^2 = kappa^2
        for kappa in (1, -1, 2, -3):
            p = PhysicalParams(z=-1.4, kappa=kappa, compton=0.2)
            d = model.derive(p)
            assert_allclose(d.gamma**2 + (p.compton * p.z) ** 2, kappa**2, rtol=1e-12)

    def test_kappa_zero_rejected(self):
        with pytest.raises(ConfigError):
            PhysicalParams(z=-1, kappa=0)

    def test_kappa_beyond_exact_doubles_rejected(self):
        # every integer up to 2**53 is exactly a double; past about 1.8e308
        # kappa^2 - (compton Z)^2 would raise OverflowError
        assert model.derive(PhysicalParams(z=-1, kappa=-2**53, compton=0.05)).kappa == -2**53
        for kappa in (2**53 + 1, -2**53 - 1, 10**300, 10**309):
            with pytest.raises(ConfigError, match=r"at most 2\*\*53"):
                PhysicalParams(z=-1, kappa=kappa)

    def test_compton_squared_underflow_rejected(self):
        # the radial constant divides by compton^2, which is 0 below ~1.5e-162
        with pytest.raises(ConfigError, match="underflows"):
            PhysicalParams(z=0.05, kappa=-1, compton=1e-300)
        assert PhysicalParams(z=-1, kappa=1, compton=1e-150).compton == 1e-150

    @pytest.mark.parametrize("field", ["z", "compton", "omega"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        knobs = {"z": -1.0, "kappa": 1, "compton": 0.05, "omega": 1.0, field: value}
        with pytest.raises(ConfigError, match="finite"):
            PhysicalParams(**knobs)


class TestPollaczekMap:
    def test_forced_zero_numerator(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        eps = math.sqrt(1 + d.beta**2)
        pol = model.map_to_pollaczek(d, model.energy_point(eps))
        assert abs(pol.x) < 1e-12

    def test_large_energy_limit(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        pol = model.map_to_pollaczek(d, model.energy_point(1e6))
        assert abs(pol.x - 1.0) < 1e-11

    def test_documented_point(self):
        # compton=0.01, omega=1, Z=-1, eps=1.5: beta=0.005,
        # b = 1.5e-4 / 1.250025 = +1.19998e-4
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.01, omega=1.0))
        assert_allclose(d.beta, 0.005, rtol=1e-15)
        pol = model.map_to_pollaczek(d, model.energy_point(1.5))
        assert_allclose(pol.b, 1.5e-4 / 1.250025, rtol=1e-12)
        assert pol.b > 0

    def test_singular_denominator(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        eps = math.sqrt(1 - d.beta**2)
        with pytest.raises(SingularMapError):
            model.map_to_pollaczek(d, model.energy_point(eps))

    def test_regime_x_correspondence(self):
        # |eps| > 1 <-> x in (-1, 1);  |eps| < 1 <-> |x| > 1
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in np.concatenate([np.linspace(1.01, 3.0, 17), -np.linspace(1.01, 3.0, 17)]):
            x = model.map_to_pollaczek(d, model.energy_point(float(eps))).x
            assert -1 < x < 1
        for eps in np.linspace(0.05, 0.995, 17):
            x = model.map_to_pollaczek(d, model.energy_point(float(eps))).x
            assert abs(x) > 1


class TestThetaPhi:
    def test_threshold_refused(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        with pytest.raises(ThresholdError):
            model.theta_phi(d, model.energy_point(1.0))

    @pytest.mark.parametrize("p,eps,x", [
        # bound: beta^2 far below |eps^2 - 1| (this raised ZeroDivisionError)
        (PhysicalParams(z=-1, kappa=1, compton=1e-9), 0.5, 1.0),
        (PhysicalParams(z=-1, kappa=1, compton=0.05, omega=400.0), 1.0 - 2e-15, -1.0),
        # scattering: beta^2 far above eps^2 - 1 (this gave theta = pi and phi = b / 1.2e-16)
        (PhysicalParams(z=-1, kappa=1, compton=0.05, omega=400.0), 1.000000000000002, -1.0),
    ])
    def test_band_edge_argument_refused(self, p, eps, x):
        d = model.derive(p)
        e = model.energy_point(eps)
        assert model.map_to_pollaczek(d, e).x == x
        with pytest.raises(SingularMapError, match=f"degenerate at x={x}"):
            model.theta_phi(d, e)

    def test_x_zero_gives_right_angle(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        eps = math.sqrt(1 + d.beta**2)
        ang = model.theta_phi(d, model.energy_point(eps))
        pol = model.map_to_pollaczek(d, model.energy_point(eps))
        assert_allclose(ang.theta.real, math.pi / 2, rtol=1e-12)
        assert_allclose(ang.phi.real, pol.b, rtol=1e-12)

    def test_scattering_unit_modulus(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        for eps in (1.2, 2.5, -1.7):
            ang = model.theta_phi(d, model.energy_point(eps))
            w = ang.exp_i_theta
            assert abs(abs(w) - 1.0) < 1e-13
            assert abs(w * (1 / w) - 1.0) < 1e-13
            assert ang.branch == "scattering"

    def test_bound_branch_modulus(self):
        # hydrogenic ground value: |e^{i theta}| = (sqrt(1-eps^2)+beta)/(sqrt(1-eps^2)-beta) > 1
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=1 / 137.035999, omega=1.0))
        eps = 0.9999933
        ang = model.theta_phi(d, model.energy_point(eps))
        root = math.sqrt((1 - eps) * (1 + eps))
        assert root > d.beta  # x > 1 branch for this configuration
        assert ang.branch == "bound_right"
        assert_allclose(abs(ang.exp_i_theta), (root + d.beta) / (root - d.beta), rtol=1e-9)
        assert abs(ang.exp_i_theta) > 1

    def test_bound_left_branch(self):
        # large omega pushes x below -1; the exchanged branch has |e^{i theta}| < 1
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=4.0))
        ang = model.theta_phi(d, model.energy_point(0.997))
        assert ang.branch == "bound_left"
        assert abs(ang.exp_i_theta) < 1

    def test_cos_sin_identity_both_regimes(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in (1.4, -2.0, 0.7, 0.998):
            ang = model.theta_phi(d, model.energy_point(eps))
            c = cmath.cos(ang.theta)
            s = cmath.sin(ang.theta)
            assert abs(c * c + s * s - 1.0) < 1e-12

    def test_phi_times_sin_equals_b(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in (1.4, -2.0, 0.7, 0.998):
            e = model.energy_point(eps)
            ang = model.theta_phi(d, e)
            pol = model.map_to_pollaczek(d, e)
            assert abs(ang.phi * cmath.sin(ang.theta) - pol.b) < 1e-12 * (1 + abs(pol.b))

    def test_bound_phi_matches_closed_expression(self):
        # phi = i alpha eps / (2 beta sqrt(1 - eps^2)) on the x > 1 branch
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=0.6))
        eps = 0.9993
        ang = model.theta_phi(d, model.energy_point(eps))
        expected = d.alpha * eps / (2 * d.beta * math.sqrt((1 - eps) * (1 + eps)))
        assert abs(ang.phi.real) < 1e-12
        assert_allclose(ang.phi.imag, expected, rtol=1e-11)


class TestIdentificationConsistency:
    def test_mapped_values_satisfy_wave_recursion(self):
        # the symmetric Pollaczek values solve the physical three-term
        # recursion [a_n x + b] f = b_{n-1} f_- + b_n f_+ after the map
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 8:
            kappa = int(rng.choice([-2, -1, 1, 2]))
            p = PhysicalParams(
                z=float(rng.uniform(-2.5, -0.4)),
                kappa=kappa,
                compton=float(rng.uniform(0.01, 0.08)),
                omega=float(rng.uniform(0.5, 2.0)),
            )
            d = model.derive(p)
            eps = float(rng.uniform(1.05, 2.5)) if checked % 2 == 0 else float(rng.uniform(0.4, 0.99))
            try:
                pol = model.map_to_pollaczek(d, model.energy_point(eps))
            except SingularMapError:
                continue
            params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
            vals = ref.symmetric_values(pollaczek.evaluate(params, pol.x, 100))
            coeffs = model.recursion_coefficients(d)
            worst = 0.0
            for n in range(1, 99):
                lhs = (coeffs.diag(n) * pol.x + pol.b) * vals[n]
                rhs = coeffs.offdiag(n - 1) * vals[n - 1] + coeffs.offdiag(n) * vals[n + 1]
                worst = max(worst, float(abs(lhs - rhs) / (1 + abs(lhs))))
            assert worst < 1e-10
            checked += 1


class TestRecursionCoefficients:
    def test_gamma_zero_values(self):
        d = model.derive(PhysicalParams(z=-1e-12, kappa=1, compton=0.01))  # gamma ~ 1
        # force the documented gamma = 0 data through a direct build
        from tridirac.model import RecursionCoefficients

        coeffs = RecursionCoefficients(
            diag=lambda n: n + 1.0, offdiag=lambda n: 0.5 * math.sqrt((n + 1.0) * (n + 2.0))
        )
        assert coeffs.diag(0) == 1.0
        assert_allclose(coeffs.offdiag(0), math.sqrt(2.0) / 2.0, rtol=1e-15)

    def test_structure_identities(self):
        d = model.derive(PhysicalParams(z=-1.2, kappa=-2, compton=0.06))
        coeffs = model.recursion_coefficients(d)
        g = d.gamma_eff
        for n in range(1, 30):
            assert_allclose(coeffs.diag(n) - coeffs.diag(n - 1), 1.0, rtol=1e-13)
            assert_allclose(coeffs.offdiag(n) ** 2, 0.25 * (n + 1) * (n + 2 * g + 2), rtol=1e-13)


class TestCoefficientBlocks:
    """`block(lo, hi)` equals one scalar call per level, and both builders
    keep the values of their former math.sqrt definitions bit for bit."""

    @staticmethod
    def builders():
        d = model.derive(PhysicalParams(z=-1.2, kappa=-2, compton=0.06))
        g = d.gamma_eff
        params = pollaczek.PollaczekParams(lam=1.6, b=-0.2)
        lam, b = params.lam, params.b
        return [
            (model.recursion_coefficients(d),
             lambda n: n + g + 1.0,
             lambda n: 0.5 * math.sqrt((n + 1.0) * (n + 2.0 * g + 2.0))),
            (pollaczek.jacobi_coefficients(params),
             lambda n: -b / (n + lam),
             lambda n: 0.5 * math.sqrt((n + 1.0) * (n + 2.0 * lam) / ((n + lam) * (n + lam + 1.0)))),
        ]

    @pytest.mark.parametrize("lo,hi", [(0, 1), (0, 600), (511, 1025), (99_990, 100_000), (7, 7)])
    def test_block_equals_scalar_calls(self, lo, hi):
        for coeffs, old_diag, old_offdiag in self.builders():
            diag, offdiag = coeffs.block(lo, hi)
            assert diag.dtype == offdiag.dtype == np.float64
            assert diag.shape == offdiag.shape == (hi - lo,)
            assert diag.tolist() == [coeffs.diag(n) for n in range(lo, hi)]
            assert offdiag.tolist() == [coeffs.offdiag(n) for n in range(lo, hi)]
            assert diag.tolist() == [old_diag(n) for n in range(lo, hi)]
            assert offdiag.tolist() == [old_offdiag(n) for n in range(lo, hi)]


class TestSpinorRotation:
    def test_identity(self):
        assert model.spinor_rotation(0.0, 1.2, -0.7) == (1.2, -0.7)

    def test_half_turn(self):
        u, l = model.spinor_rotation(math.pi, 0.3, 0.9)
        assert_allclose([u, l], [0.9, -0.3], rtol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi, a, b = rng.uniform(-3, 3, 3)
            u, l = model.spinor_rotation(float(xi), float(a), float(b))
            assert abs((u * u + l * l) - (a * a + b * b)) < 1e-14 * (1 + a * a + b * b)


class TestNegativeEnergyMap:
    def test_involution(self):
        p = PhysicalParams(z=-1, kappa=2, compton=0.05, omega=1.1)
        e = model.energy_point(0.5)
        p2, e2 = model.negative_energy_map(p, e)
        p3, e3 = model.negative_energy_map(p2, e2)
        assert p3 == p
        assert e3.eps == e.eps

    def test_documented_example(self):
        p = PhysicalParams(z=-1, kappa=1, compton=0.05)
        mapped, e2 = model.negative_energy_map(p, model.energy_point(0.5))
        assert (mapped.z, mapped.kappa, e2.eps) == (1.0, -1, -0.5)


class TestEnergyPoint:
    def test_regimes(self):
        assert model.energy_point(0.5).regime is Regime.BOUND
        assert model.energy_point(-1.5).regime is Regime.SCATTERING
        assert model.energy_point(1.0).regime is Regime.THRESHOLD
        assert model.energy_point(-1.0).regime is Regime.THRESHOLD
