"""Every argument check of the library raises its documented exception, or
returns its documented value, on an input that reaches it.  The CLI reaches
only some of these; the rest guard direct library calls."""

import math

import numpy as np
import pytest

from tridirac import model, pollaczek, recurrence, resolvent, scattering, specfun, spectrum, wavefunction
from tridirac.errors import BranchError, ConfigError, DomainError, FitError, ThresholdError
from tridirac.model import PhysicalParams

DESK = PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0)
PARAMS = pollaczek.PollaczekParams(lam=1.6, b=-0.2)


class TestModel:
    @pytest.mark.parametrize("field", ["compton", "omega"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_scale(self, field, value):
        with pytest.raises(ConfigError, match="must be positive"):
            PhysicalParams(z=-1.0, kappa=1, **{field: value})

    @pytest.mark.parametrize("kappa", [1.5, math.nan, math.inf, 2.0])
    def test_kappa_not_an_integer(self, kappa):
        with pytest.raises(ConfigError, match="nonzero integer"):
            PhysicalParams(z=-1.0, kappa=kappa, compton=0.05)

    @pytest.mark.parametrize("kappa", [np.int64(-2), np.int32(3)])
    def test_numpy_integer_kappa(self, kappa):
        assert model.derive(PhysicalParams(z=-1.0, kappa=kappa, compton=0.05)).kappa == kappa

    def test_recursion_coefficients_need_gamma_above_minus_one(self):
        # derive() cannot give gamma_eff <= -1, so build the record by hand
        d = model.derive(DESK)
        hand = model.DerivedParams(z=d.z, kappa=1, compton=d.compton, omega=d.omega, gamma=-1.5,
                                   alpha=d.alpha, beta=d.beta)
        with pytest.raises(ConfigError, match="effective gamma"):
            model.recursion_coefficients(hand)


class TestPollaczek:
    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_non_positive_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be positive"):
            pollaczek.PollaczekParams(lam=lam)

    @pytest.mark.parametrize("lam, b", [(math.inf, 0.0), (1.6, math.nan), (1.6, math.inf)])
    def test_non_finite_parameters(self, lam, b):
        with pytest.raises(ValueError, match="must be finite"):
            pollaczek.PollaczekParams(lam=lam, b=b)

    def test_negative_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            pollaczek.evaluate(PARAMS, 0.3, -1)

    def test_wrong_normalization(self):
        orthonormal = pollaczek.to_orthonormal(pollaczek.evaluate(PARAMS, 0.3, 10))
        with pytest.raises(ValueError, match="standard normalization"):
            pollaczek.to_orthonormal(orthonormal)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.5, 4.0])
    def test_scattering_form_outside_the_band(self, theta):
        with pytest.raises(BranchError):
            pollaczek.scattering_amplitude_phase(PARAMS, theta)

    def test_asymptotic_index_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            pollaczek.asymptotic_scattering(PARAMS, 1.0, 0)


def test_recurrence_residual_scores_a_nan_row_inf():
    # every value is finite, but the row's lhs is inf, so its score is inf/inf
    assert recurrence.residual([1.0, math.inf, 1.0], [1.0] * 3, [1.0] * 3, [1.0, 1.0, 1.0]) == math.inf


class TestResolvent:
    def test_truncated_depth_below_one(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            resolvent.green_function_truncated(pollaczek.jacobi_coefficients(PARAMS), 0.3 + 0.1j, 0)

    @pytest.mark.parametrize("eta", [0.0, -1e-3])
    def test_density_needs_positive_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            resolvent.spectral_density(pollaczek.jacobi_coefficients(PARAMS), 0.3, eta)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_density_needs_finite_eta(self, eta):
        coeffs = pollaczek.jacobi_coefficients(PARAMS)
        for density in (resolvent.spectral_density, resolvent.spectral_density_grid):
            with pytest.raises(ValueError, match="eta must be finite"):
                density(coeffs, 0.3, eta)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.1), complex(0.3, math.inf), complex(-math.inf, 0.0),
                                   np.array([0.3 + 0.1j, complex(math.nan, math.nan)])])
    def test_truncated_needs_finite_z(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            resolvent.green_function_truncated(pollaczek.jacobi_coefficients(PARAMS), z, 10)

    def test_density_grid_needs_finite_x(self):
        with pytest.raises(ValueError, match="z must be finite"):
            resolvent.spectral_density_grid(pollaczek.jacobi_coefficients(PARAMS), [0.3, math.inf], 1e-2)


def _sequence(values, normalization="orthonormal"):
    return pollaczek.PolynomialSequence(values=np.asarray(values, dtype=float), argument=0.3,
                                        normalization=normalization, params=PARAMS)


class TestFitAsymptotics:
    WINDOW = (100, 400)
    OSCILLATING = np.cos(1.2 * np.arange(600))

    def test_normalization(self):
        with pytest.raises(ValueError, match="orthonormal normalization"):
            scattering.fit_asymptotics(_sequence(self.OSCILLATING, "standard"), self.WINDOW)

    def test_window_past_the_sequence(self):
        with pytest.raises(ValueError, match="window exceeds"):
            scattering.fit_asymptotics(_sequence(self.OSCILLATING[:500]), self.WINDOW)

    def test_divergence(self):
        values = self.OSCILLATING.copy()
        values[300] = math.inf
        with pytest.raises(FitError, match="diverges"):
            scattering.fit_asymptotics(_sequence(values), self.WINDOW)

    def test_no_oscillation(self):
        with pytest.raises(FitError, match="not oscillatory"):
            scattering.fit_asymptotics(_sequence(np.ones(600)), self.WINDOW)

    def test_too_few_usable_points(self):
        # alternating signs at 1e-3 with one spike in each end quarter: it
        # oscillates with a flat envelope, but only two points exceed 0.2
        # of the largest
        values = 1e-3 * (-1.0) ** np.arange(600)
        values[150] = 1.0
        values[450] = -1.0
        with pytest.raises(FitError, match="too few usable points"):
            scattering.fit_asymptotics(_sequence(values), self.WINDOW)


class TestSpecfun:
    def test_negative_orders(self):
        with pytest.raises(ValueError, match="pochhammer order"):
            specfun.pochhammer(0.5, -1)
        with pytest.raises(ValueError, match="degree must be non-negative"):
            specfun.laguerre(-1, 0.5, 1.0)

    def test_tridiagonal_shapes(self):
        with pytest.raises(ValueError, match="empty matrix"):
            specfun.tridiag_eigen_first_row([], [])
        with pytest.raises(ValueError, match="len\\(diag\\) - 1"):
            specfun.tridiag_eigen_first_row([1.0, 2.0, 3.0], [1.0])

    @pytest.mark.parametrize("offdiag", [[1.0, 0.0], [1.0, -0.5]])
    def test_gauss_rule_needs_positive_offdiagonal(self, offdiag):
        with pytest.raises(ValueError, match="must be positive"):
            specfun.gauss_rule_from_jacobi([1.0, 2.0, 3.0], offdiag)

    def test_gauss_laguerre_rule_ranges(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            specfun.gauss_laguerre_rule(0, 0.5)
        with pytest.raises(ValueError, match="weight exponent"):
            specfun.gauss_laguerre_rule(5, -1.0)


class TestSpectrum:
    def test_quantization_condition_is_bound_only(self):
        for eps in (1.3, 1.005):
            with pytest.raises(DomainError, match="needs \\|eps\\| < 1"):
                spectrum.quantization_condition(model.derive(DESK), eps)

    @pytest.mark.parametrize("eps", [1.0, -1.3, 1.005])
    def test_minimal_solution_defect_is_bound_only(self, eps):
        # the threshold band is refused as quantization_condition refuses it
        at_threshold = eps == 1.0
        with pytest.raises(ThresholdError if at_threshold else DomainError,
                           match="undefined at" if at_threshold else "needs \\|eps\\| < 1"):
            spectrum.minimal_solution_defect(model.derive(DESK), eps, 10)

    def test_minimal_solution_defect_with_vanishing_f0(self, monkeypatch):
        # no physical row set was found whose backward value f_0 is exactly
        # 0, so rows with A_1 = B_1 = 0 force it: the defect is then inf
        def rows(d, x, b, count):
            a = [1.0] * count
            off = [1.0] * count
            a[1] = off[1] = 0.0
            return a, off, [1.0] * count
        monkeypatch.setattr(spectrum, "wave_rows", rows)
        assert spectrum.minimal_solution_defect(model.derive(DESK), 0.9, 10) == math.inf

    @pytest.mark.parametrize("z", [-1.0, 0.0])
    def test_negative_energy_levels_need_repulsion(self, z):
        with pytest.raises(DomainError, match="Z > 0"):
            spectrum.negative_energy_levels(PhysicalParams(z=z, kappa=1, compton=0.05), 3)


class TestWavefunction:
    @pytest.mark.parametrize("eps", [1.3, -2.0])
    def test_bound_state_coefficients_need_the_bound_regime(self, eps):
        with pytest.raises(DomainError, match="\\|eps\\| < 1"):
            wavefunction.coefficients_bound_state(model.derive(DESK), eps, 10)

    def test_coupled_residual_of_a_zero_spinor(self):
        zero = wavefunction.CoefficientVector(values=np.zeros(8, dtype=complex), eps=1.3, source="recursion")
        assert wavefunction.coupled_system_residual(zero, model.derive(DESK), np.array([0.5, 1.0, 2.0])) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("call", [
        lambda c, d, r: wavefunction.reconstruct_upper(c, d, r, 8),
        lambda c, d, r: wavefunction.reconstruct_derivative(c, d, r, 8),
        lambda c, d, r: wavefunction.spinor(c, d, r, 8),
        lambda c, d, r: wavefunction.lower_component(c, d, r),
        lambda c, d, r: wavefunction.coupled_system_residual(c, d, r),
    ], ids=["reconstruct_upper", "reconstruct_derivative", "spinor", "lower_component", "coupled_system_residual"])
    def test_basis_sums_refuse_bad_radii(self, call, bad):
        # the basis derivatives divide by r: r = 0 once gave nan with only
        # numpy's warning, and r < 0 a nan power
        d = model.derive(DESK)
        coeffs = wavefunction.coefficients_recursion(d, 1.3, 8)
        with pytest.raises(ValueError, match="finite and > 0"):
            call(coeffs, d, np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite and > 0"):
            call(coeffs, d, bad)
