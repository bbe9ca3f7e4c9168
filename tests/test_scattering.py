import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridirac import model, pollaczek, scattering
from tridirac.errors import DomainError, FitError, ThresholdError
from tridirac.model import PhysicalParams

P_WEAK = PhysicalParams(z=-1.0, kappa=1, compton=0.02)


def orthonormal_sequence(p, eps, n_max):
    d = model.derive(p)
    pol = model.map_to_pollaczek(d, model.energy_point(eps))
    params = pollaczek.PollaczekParams(lam=pol.lam, a=pol.a, b=pol.b)
    return pollaczek.to_orthonormal(pollaczek.evaluate(params, pol.x, n_max))


class TestPhaseShift:
    def test_free_case(self):
        r = scattering.phase_shift(PhysicalParams(z=0.0, kappa=1, compton=0.02), 1.5)
        assert r.phi == 0.0
        assert abs(r.psi) < 1e-14
        # psi_n has no n-dependence when phi = 0
        assert_allclose(r.psi_n(10), r.psi_n(1000), rtol=0, atol=1e-15)
        assert_allclose(r.psi_n(10), r.lam * (r.theta - math.pi / 2), rtol=1e-13)

    def test_threshold_and_bound_rejected(self):
        with pytest.raises(ThresholdError):
            scattering.phase_shift(P_WEAK, 1.0)
        with pytest.raises(DomainError):
            scattering.phase_shift(P_WEAK, 0.5)

    def test_log_drift_of_psi_n(self):
        r = scattering.phase_shift(P_WEAK, 1.25)
        # psi_{2n} - psi_n = -phi ln 2, exactly as computed
        for n in (10, 100, 5000):
            assert abs((r.psi_n(2 * n) - r.psi_n(n)) + r.phi * math.log(2.0)) < 1e-13
        # general ratio law
        assert abs((r.psi_n(300) - r.psi_n(70)) + r.phi * math.log(300 / 70)) < 1e-13

    def test_amplitude_positive_and_continuous(self):
        # steep near threshold but continuous: halving the grid step
        # roughly halves the largest relative jump
        def max_jump(count):
            grid = np.linspace(1.05, 2.0, count)
            amps = np.array([r.amplitude for r in scattering.phase_shift_sweep(P_WEAK, grid)])
            assert np.all(amps > 0)
            return np.max(np.abs(np.diff(amps)) / amps[:-1])

        coarse, fine = max_jump(60), max_jump(119)
        assert fine < 0.65 * coarse

    def test_sweep_psi_continuous(self):
        grid = np.linspace(1.02, 3.0, 80)
        results = scattering.phase_shift_sweep(P_WEAK, grid)
        psis = np.array([r.psi for r in results])
        assert np.max(np.abs(np.diff(psis))) < 0.5

    def test_agreement_band(self):
        # |p_n - amplitude cos(n theta + psi_n)| <= C/n over [2000, 4000]:
        # C fitted on the first half must keep bounding the second half
        eps = 1.25
        r = scattering.phase_shift(P_WEAK, eps)
        seq = orthonormal_sequence(P_WEAK, eps, 4000)
        vals = np.asarray(seq.values)
        ns = np.arange(2000, 4000)
        devs = np.array(
            [abs(vals[n] - r.amplitude * math.cos(n * r.theta + r.psi_n(n))) for n in ns]
        )
        first = ns < 3000
        c_fit = np.max(devs[first] * ns[first])
        assert np.all(devs <= 1.05 * c_fit / ns)
        # the band is tight on the amplitude scale, not vacuous
        assert c_fit / r.amplitude < 200.0


class TestFitAsymptotics:
    def test_free_case_recovers_theta(self):
        # omega chosen so theta is O(1): ~100 oscillation periods in the
        # window pin theta far below the contract tolerance
        p = PhysicalParams(z=0.0, kappa=1, compton=0.02, omega=30.0)
        eps = 1.4
        d = model.derive(p)
        pol = model.map_to_pollaczek(d, model.energy_point(eps))
        seq = orthonormal_sequence(p, eps, 2100)
        fit = scattering.fit_asymptotics(seq, (1000, 1000))
        assert abs(fit.theta - math.acos(pol.x)) < 1e-6

    @pytest.mark.parametrize("eps", [1.15, 1.25, 1.5, 2.0, -1.4])
    def test_recovers_analytic_quantities(self, eps):
        # basis scale chosen so theta is O(1): the window then holds
        # hundreds of oscillation periods and the phase fit is coherent
        p = PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=30.0)
        r = scattering.phase_shift(p, eps)
        seq = orthonormal_sequence(p, eps, 2100)
        fit = scattering.fit_asymptotics(seq, (1000, 1000))
        assert abs(fit.theta - r.theta) < 1e-4
        assert abs(fit.amplitude - r.amplitude) / r.amplitude < 1e-3
        assert abs(fit.psi - r.psi) < 1e-3 * max(1.0, abs(r.psi))

    def test_residual_shrinks_with_window_start(self):
        eps = 1.25
        p = PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=30.0)
        seq = orthonormal_sequence(p, eps, 6300)
        fits = [scattering.fit_asymptotics(seq, (n0, 300)) for n0 in (300, 1200, 4800)]
        res = [f.residual for f in fits]
        assert res[1] < res[0]
        assert res[2] < res[1]
        # roughly 1/n0 scaling from the next-order term
        assert res[2] < 0.5 * res[0]

    def test_bound_regime_rejected(self):
        d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=0.6))
        pol = model.map_to_pollaczek(d, model.energy_point(0.9993))
        params = pollaczek.PollaczekParams(lam=pol.lam, a=pol.a, b=pol.b)
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, pol.x, 1400))
        with pytest.raises(FitError):
            scattering.fit_asymptotics(seq, (1000, 300))

    def test_window_validation(self):
        seq = orthonormal_sequence(P_WEAK, 1.25, 1400)
        with pytest.raises(ValueError):
            scattering.fit_asymptotics(seq, (50, 300))
        with pytest.raises(ValueError):
            scattering.fit_asymptotics(seq, (100, 100))
