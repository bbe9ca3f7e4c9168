import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms as ref
from tridirac import cli, model, pollaczek, scattering, spectrum, wavefunction
from tridirac.errors import ConfigError, DomainError, SingularMapError, SupercriticalError, ThresholdError
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

    @pytest.mark.parametrize("z", [-1.0, -1.005])
    def test_critical_coupling_refused(self, z):
        # |compton Z / kappa| = 1, where gamma = 0, and just above it
        with pytest.raises(SupercriticalError):
            model.derive(PhysicalParams(z=z, kappa=1, compton=1.0))

    def test_defaults(self):
        # the physical Compton length in Bohr radii is the fine-structure constant
        p = PhysicalParams(z=-1.0, kappa=1)
        assert_allclose(p.compton, 1 / 137.035999084, rtol=1e-10)
        assert p.omega == 1.0

    def test_derived_constants(self):
        d = model.derive(PhysicalParams(z=-1.5, kappa=-2, compton=0.06, omega=1.7))
        assert_allclose(d.alpha, 0.06 * 0.06 * 1.7 * -1.5, rtol=1e-15)
        assert_allclose(d.beta, 0.06 * 1.7 / 2, rtol=1e-15)
        # gamma_eff + 1 = -gamma = sqrt(kappa^2 - (compton Z)^2) for kappa < 0
        assert_allclose(d.gamma_eff + 1.0, math.sqrt(4.0 - (0.06 * 1.5) ** 2), rtol=1e-15)

    @pytest.mark.parametrize("kappa", [1, -2])
    def test_rotation_angle(self, kappa):
        # sin(xi) = compton Z / kappa, cos(xi) = gamma / kappa
        d = model.derive(PhysicalParams(z=-1.5, kappa=kappa, compton=0.06))
        xi = model.rotation_angle(d)
        assert_allclose([math.sin(xi), math.cos(xi)], [-0.09 / kappa, d.gamma / kappa], rtol=1e-14)

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
        pol = model.map_to_pollaczek(d, eps)
        assert abs(pol.x) < 1e-12

    def test_large_energy_limit(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        pol = model.map_to_pollaczek(d, 1e6)
        assert abs(pol.x - 1.0) < 1e-11

    def test_documented_point(self):
        # compton=0.01, omega=1, Z=-1, eps=1.5: beta=0.005,
        # b = 1.5e-4 / 1.250025 = +1.19998e-4
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.01, omega=1.0))
        assert_allclose(d.beta, 0.005, rtol=1e-15)
        pol = model.map_to_pollaczek(d, 1.5)
        assert_allclose(pol.b, 1.5e-4 / 1.250025, rtol=1e-12)
        assert pol.b > 0

    def test_singular_denominator(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        eps = math.sqrt(1 - d.beta**2)
        with pytest.raises(SingularMapError):
            model.map_to_pollaczek(d, eps)

    def test_singular_cutoff_is_relative(self):
        # eps^2 - 1 + beta^2 is refused at or below 1e-12 of |eps^2 - 1| +
        # beta^2: it is 2e-10 of it 1e-13 past the pole, and 1.006e-12 of
        # it at the eps below, which the map still answers
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        model.map_to_pollaczek(d, math.sqrt(1 - d.beta**2) + 1e-13)
        model.map_to_pollaczek(d, 0.9996874511566096)
        with pytest.raises(SingularMapError):
            model.map_to_pollaczek(d, math.nextafter(0.9996874511566096, 2.0))

    def test_underflowed_beta_at_threshold(self):
        # beta^2 underflows to 0, so at eps = 1 the denominator and its
        # cutoff are both 0: refused, not a division by zero
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=1e-100, omega=1e-100))
        assert d.beta * d.beta == 0.0
        with pytest.raises(SingularMapError):
            model.map_to_pollaczek(d, 1.0)

    def test_regime_x_correspondence(self):
        # |eps| > 1 <-> x in (-1, 1);  |eps| < 1 <-> |x| > 1
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in np.concatenate([np.linspace(1.01, 3.0, 17), -np.linspace(1.01, 3.0, 17)]):
            x = model.map_to_pollaczek(d, float(eps)).x
            assert -1 < x < 1
        for eps in np.linspace(0.05, 0.995, 17):
            x = model.map_to_pollaczek(d, float(eps)).x
            assert abs(x) > 1


class TestThetaPhi:
    def test_threshold_refused(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        with pytest.raises(ThresholdError):
            model.theta_phi(d, 1.0)

    @pytest.mark.parametrize("p,eps,x", [
        # bound: beta^2 far below |eps^2 - 1| (this raised ZeroDivisionError)
        (PhysicalParams(z=-1, kappa=1, compton=1e-9), 0.5, 1.0),
        (PhysicalParams(z=-1, kappa=1, compton=0.05, omega=400.0), 1.0 - 2e-15, -1.0),
        # scattering: beta^2 far above eps^2 - 1 (this gave theta = pi and phi = b / 1.2e-16)
        (PhysicalParams(z=-1, kappa=1, compton=0.05, omega=400.0), 1.000000000000002, -1.0),
    ])
    def test_band_edge_argument_refused(self, p, eps, x):
        d = model.derive(p)
        assert model.map_to_pollaczek(d, eps).x == x
        with pytest.raises(SingularMapError, match=f"degenerate at x={x}"):
            model.theta_phi(d, eps)

    def test_x_zero_gives_right_angle(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        eps = math.sqrt(1 + d.beta**2)
        ang = model.theta_phi(d, eps)
        pol = model.map_to_pollaczek(d, eps)
        assert_allclose(ang.theta.real, math.pi / 2, rtol=1e-12)
        assert_allclose(ang.phi.real, pol.b, rtol=1e-12)

    def test_exp_i_theta_is_x_plus_i_sin_theta(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in (1.4, -2.0, 0.7, 0.998):
            ang = model.theta_phi(d, eps)
            x = model.map_to_pollaczek(d, eps).x
            assert abs(ang.exp_i_theta - (x + 1j * cmath.sin(ang.theta))) < 1e-12

    def test_scattering_unit_modulus(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05))
        for eps in (1.2, 2.5, -1.7):
            ang = model.theta_phi(d, eps)
            w = ang.exp_i_theta
            assert abs(abs(w) - 1.0) < 1e-13
            assert abs(w * (1 / w) - 1.0) < 1e-13
            assert ang.branch == "scattering"

    def test_bound_branch_modulus(self):
        # hydrogenic ground value: |e^{i theta}| = (sqrt(1-eps^2)+beta)/(sqrt(1-eps^2)-beta) > 1
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=1 / 137.035999, omega=1.0))
        eps = 0.9999933
        ang = model.theta_phi(d, eps)
        root = math.sqrt((1 - eps) * (1 + eps))
        assert root > d.beta  # x > 1 branch for this configuration
        assert ang.branch == "bound_right"
        assert_allclose(abs(ang.exp_i_theta), (root + d.beta) / (root - d.beta), rtol=1e-9)
        assert abs(ang.exp_i_theta) > 1

    def test_bound_right_branch_next_to_the_band(self):
        # beta^2 << 1 - eps^2 puts x just above 1: 1 + 6.7e-5 here
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.01))
        assert 1.0 < model.map_to_pollaczek(d, 0.5).x < 1.0001
        assert model.theta_phi(d, 0.5).branch == "bound_right"

    def test_bound_left_branch(self):
        # large omega pushes x below -1; the exchanged branch has |e^{i theta}| < 1
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=4.0))
        ang = model.theta_phi(d, 0.997)
        assert ang.branch == "bound_left"
        assert abs(ang.exp_i_theta) < 1

    def test_cos_sin_identity_both_regimes(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in (1.4, -2.0, 0.7, 0.998):
            ang = model.theta_phi(d, eps)
            c = cmath.cos(ang.theta)
            s = cmath.sin(ang.theta)
            assert abs(c * c + s * s - 1.0) < 1e-12

    def test_phi_times_sin_equals_b(self):
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        for eps in (1.4, -2.0, 0.7, 0.998):
            ang = model.theta_phi(d, eps)
            pol = model.map_to_pollaczek(d, eps)
            assert abs(ang.phi * cmath.sin(ang.theta) - pol.b) < 1e-12 * (1 + abs(pol.b))

    def test_bound_phi_matches_closed_expression(self):
        # phi = i alpha eps / (2 beta sqrt(1 - eps^2)) on the x > 1 branch
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=0.6))
        eps = 0.9993
        ang = model.theta_phi(d, eps)
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
                pol = model.map_to_pollaczek(d, eps)
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


class TestScatteringAngles:
    def test_closed_forms_match_theta_phi(self):
        # phi = b / sin(theta) = -compton Z eps / sqrt(eps^2 - 1) in the scattering regime
        d = model.derive(PhysicalParams(z=-1, kappa=1, compton=0.05, omega=1.3))
        energies = np.array([1.4, -2.0, 1.05, 3.0])
        ang = model.scattering_angles(d, energies)
        for k, eps in enumerate(energies.tolist()):
            want = model.theta_phi(d, eps)
            assert abs(ang.theta[k] - want.theta) < 1e-12
            assert abs(ang.exp_i_theta[k] - want.exp_i_theta) < 1e-12
            assert abs(ang.phi[k] - want.phi) < 1e-12 * abs(want.phi)

    def test_free_case_phi_is_positive_zero(self):
        phi = model.scattering_angles(model.derive(PhysicalParams(z=0.0, kappa=1, compton=0.05)), 1.5).phi
        assert phi == 0.0 and math.copysign(1.0, phi) == 1.0


class TestGrowthRate:
    def test_values(self):
        for x in (-3.0, 1.005, 2.5):
            assert_allclose(model.growth_rate(x), abs(x) + math.sqrt(x * x - 1.0), rtol=1e-15)
        assert [model.growth_rate(x) for x in (-1.0, -0.999, 0.3, 1.0)] == [1.0] * 4


class TestRecursionCoefficients:
    def test_gamma_eff_of_minus_one_refused(self):
        # gamma = 0, which derive refuses, puts gamma_eff at -1 for kappa < 0
        d = model.DerivedParams(z=-1.0, kappa=-1, compton=1.0, omega=1.0, gamma=0.0, alpha=-1.0, beta=0.5)
        with pytest.raises(ConfigError, match="exceed -1"):
            model.recursion_coefficients(d)

    def test_wave_rows(self):
        # (A, B, C) of b_n f_{n+1} = (a_n x + b) f_n - b_{n-1} f_{n-1}
        d = model.derive(PhysicalParams(z=-1.2, kappa=-2, compton=0.06))
        coeffs = model.recursion_coefficients(d)
        x, b = 0.3, -0.2
        A, B, C = model.wave_rows(d, x, b, 6)
        assert A == [coeffs.diag(n) * x + b for n in range(6)]
        assert B == [coeffs.offdiag(n) for n in range(6)]
        assert C == [0.0] + B[:-1]

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
        p2, eps2 = model.negative_energy_map(p, 0.5)
        p3, eps3 = model.negative_energy_map(p2, eps2)
        assert p3 == p
        assert eps3 == 0.5

    def test_documented_example(self):
        p = PhysicalParams(z=-1, kappa=1, compton=0.05)
        mapped, eps = model.negative_energy_map(p, 0.5)
        assert (mapped.z, mapped.kappa, eps) == (1.0, -1, -0.5)


# the band |eps| = 1 +- 1e-15 and its neighbours on both sides of it
EDGE = [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.0 - 2e-15, 1.0 + 2e-15, 0.5, 1.5]
EDGE_REGIMES = [Regime.THRESHOLD] * 3 + [Regime.BOUND, Regime.SCATTERING] * 2
EDGE_BOTH_SIGNS = EDGE + [-eps for eps in EDGE]


class TestRegime:
    def test_regimes(self):
        assert model.regime(0.5) is Regime.BOUND
        assert model.regime(-1.5) is Regime.SCATTERING
        assert model.regime(1.0) is Regime.THRESHOLD
        assert model.regime(-1.0) is Regime.THRESHOLD

    def test_edge_regimes(self):
        assert [model.regime(eps) for eps in EDGE] == EDGE_REGIMES
        assert [model.regime(-eps) for eps in EDGE] == EDGE_REGIMES
        assert model.regime(0.0) is Regime.BOUND
        assert model.regime(math.nan) is Regime.SCATTERING


class TestRegimeConsumers:
    """Every operation that needs a bound or a scattering energy refuses
    or accepts it as `model.regime` classifies it: ThresholdError in the
    threshold band, DomainError in the other regime, a result in its own.
    The coupling is weak (Z = -1e-4) so that the phase shift stays a
    finite double next to the band, where phi grows as 1/sqrt(eps^2 - 1)."""

    P = PhysicalParams(z=-1e-4, kappa=1, compton=0.05)

    @staticmethod
    def outcome(call):
        """THRESHOLD for a ThresholdError, "refused" for a plain
        DomainError, "accepted" for a result."""
        try:
            call()
        except ThresholdError:
            return Regime.THRESHOLD
        except DomainError as exc:
            assert type(exc) is DomainError, exc
            return "refused"
        return "accepted"

    @pytest.mark.parametrize("eps", EDGE_BOTH_SIGNS, ids=repr)
    def test_library(self, eps):
        d = model.derive(self.P)
        consumers = {
            "theta_phi": (None, lambda: model.theta_phi(d, eps)),
            "coefficients_bound_state": (Regime.BOUND, lambda: wavefunction.coefficients_bound_state(d, eps, 10)),
            "quantization_condition": (Regime.BOUND, lambda: spectrum.quantization_condition(d, eps)),
            "minimal_solution_defect": (Regime.BOUND, lambda: spectrum.minimal_solution_defect(d, eps, 10)),
            "phase_shift": (Regime.SCATTERING, lambda: scattering.phase_shift(self.P, eps)),
        }
        regime = model.regime(eps)
        for name, (wanted, call) in consumers.items():
            expected = (regime if regime is Regime.THRESHOLD
                        else "accepted" if wanted in (None, regime) else "refused")
            assert self.outcome(call) == expected, name

    @pytest.mark.parametrize("eps", EDGE_BOTH_SIGNS, ids=repr)
    def test_single_energy_commands(self, capsys, eps):
        # exit 2 with ThresholdError inside the band, as the README states
        regime = model.regime(eps)
        desk = ["--z", "-1e-4", "--kappa", "1", "--compton", "0.05", "--eps", repr(eps)]
        for command, extra in [("wavefunction", ["--trunc", "8"]), ("density", ["--x-grid", "-0.5", "0.5", "3"]),
                               ("coefficients", ["--n-max", "5"]), ("phase-shift", [])]:
            code = cli.main([command, *desk, *extra])
            err = capsys.readouterr().err
            if regime is Regime.THRESHOLD:
                assert (code, err.split(":")[:2]) == (2, ["error", " ThresholdError"]), command
            elif command == "phase-shift" and regime is Regime.BOUND:
                assert (code, err) == (2, "error: DomainError: phase shift needs |eps| > 1\n")
            else:
                assert (code, err) == (0, ""), command
