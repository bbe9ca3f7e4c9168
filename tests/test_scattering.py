import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_forms
from tridirac import model, pollaczek, scattering
from tridirac.errors import DomainError, FitError, SingularMapError, ThresholdError
from tridirac.model import FINE_STRUCTURE, PhysicalParams

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs the `test` extra
    given = None

P_WEAK = PhysicalParams(z=-1.0, kappa=1, compton=0.02)
# criterion 6's parameters
P_CRIT6 = PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=30.0)


def orthonormal_sequence(p, eps, n_max):
    d = model.derive(p)
    pol = model.map_to_pollaczek(d, model.energy_point(eps))
    params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
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
            amps = scattering.phase_shift_sweep(P_WEAK, grid).amplitude
            assert np.all(amps > 0)
            return np.max(np.abs(np.diff(amps)) / amps[:-1])

        coarse, fine = max_jump(60), max_jump(119)
        assert fine < 0.65 * coarse

    def test_sweep_psi_continuous(self):
        grid = np.linspace(1.02, 3.0, 80)
        psis = scattering.phase_shift_sweep(P_WEAK, grid).psi
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
        params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, pol.x, 1400))
        with pytest.raises(FitError):
            scattering.fit_asymptotics(seq, (1000, 300))

    def test_window_validation(self):
        seq = orthonormal_sequence(P_WEAK, 1.25, 1400)
        with pytest.raises(ValueError):
            scattering.fit_asymptotics(seq, (50, 300))
        with pytest.raises(ValueError):
            scattering.fit_asymptotics(seq, (100, 100))

    # the `sweep` benchmark's fit band (lam ~ 2.0, b ~ 0.023, x in
    # [0.71, 0.74]), and the b ~ 9e-4 of the `resolvent` density family
    @pytest.mark.parametrize("window", [(200, 600), (1000, 1000), (1200, 300)])
    @pytest.mark.parametrize("b", [0.023, 9e-4])
    @pytest.mark.parametrize("x", [0.71, 0.725, 0.74])
    def test_matches_golden_section_reference(self, monkeypatch, x, b, window):
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(pollaczek.PollaczekParams(lam=1.9998, b=b), x, 2000))
        fit = scattering.fit_asymptotics(seq, window)
        monkeypatch.setattr(scattering, "_brent_minimize",
                            lambda f, lo, hi: (reference_forms.golden_section_minimize(f, lo, hi), 0.0))
        ref = scattering.fit_asymptotics(seq, window)
        assert abs(fit.theta - ref.theta) <= 1e-11
        assert abs(fit.amplitude - ref.amplitude) <= 1e-10 * ref.amplitude
        assert abs(fit.psi - ref.psi) <= 1e-8

    def test_search_stops_once_theta_is_resolved(self, monkeypatch):
        # the `sweep` benchmark's fit op at seed 1; the 70-step golden
        # section took 73 fits here
        params = pollaczek.PollaczekParams(lam=1.9997953503415098, b=0.02328829699464521)
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, 0.7249993417381775, 1000))
        calls = []
        linear_fit = scattering._linear_fit

        def counted(*args):
            calls.append(args)
            return linear_fit(*args)

        monkeypatch.setattr(scattering, "_linear_fit", counted)
        scattering.fit_asymptotics(seq, (200, 600))
        assert len(calls) <= 25

    def test_fields_are_floats(self):
        fit = scattering.fit_asymptotics(orthonormal_sequence(P_CRIT6, 1.25, 2100), (1000, 1000))
        assert all(type(value) is float for value in vars(fit).values())

    def test_minimum_outside_the_bracket_raises(self):
        # a short window at lam = 20 biases the ratio estimate of theta by
        # 0.08, so the residual falls all the way to the bracket's end
        params = pollaczek.PollaczekParams(lam=20.0, b=2.0)
        seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, 0.98, 400))
        with pytest.raises(FitError, match="did not bracket a minimum"):
            scattering.fit_asymptotics(seq, (100, 200))


# --- exact angles against mpmath ---------------------------------------------


def mpmath_phase_shift(p, eps, dps=40):
    """(theta, phi, psi, amplitude) at 40 digits: theta = 2 atan2(beta,
    sqrt(eps^2-1)), phi the Sommerfeld parameter, psi = Im loggamma."""
    with mp.workdps(dps):
        eps, compton, z = mp.mpf(eps), mp.mpf(p.compton), mp.mpf(p.z)
        ratio = compton * z / p.kappa
        gamma = p.kappa * mp.sqrt(1 - ratio**2)
        lam = gamma + 1 if p.kappa > 0 else -gamma
        beta = compton * mp.mpf(p.omega) / 2
        root = mp.sqrt(eps**2 - 1)
        theta = 2 * mp.atan2(beta, root)
        phi = -compton * z * eps / root
        lg = mp.loggamma(lam + 1j * phi)
        amplitude = 2 * mp.exp((mp.pi / 2 - theta) * phi - mp.re(lg)) / (2 * mp.sin(theta)) ** lam
        return theta, phi, mp.im(lg), amplitude


def assert_matches_mpmath(p, eps):
    r = scattering.phase_shift(p, eps)
    theta, phi, psi, amplitude = mpmath_phase_shift(p, eps)
    for got, want in ((r.theta, theta), (r.phi, phi), (r.amplitude, amplitude)):
        assert abs(got - want) <= 1e-14 * abs(want)
    assert abs(r.psi - psi) <= 1e-14


class TestExactAngles:
    @pytest.mark.parametrize("omega", [1.0, 1e-2, 1e-3])
    @pytest.mark.parametrize("eps", [1.001, 3.0, -1.4])
    def test_physical_compton_length(self, omega, eps):
        # acos(x) lost up to 1.4e-5 relative here as compton*omega/2 shrank
        assert_matches_mpmath(PhysicalParams(z=-1.0, kappa=1, compton=FINE_STRUCTURE, omega=omega), eps)

    @pytest.mark.parametrize("eps", [1.001, 3.0, -1.4])
    def test_reflection_branch(self, eps):
        # lam = sqrt(1 - 0.9^2) ~ 0.436 < 0.5: log_gamma reflects
        p = PhysicalParams(z=-18.0, kappa=-1, compton=0.05)
        assert scattering.phase_shift(p, eps).lam < 0.5
        assert_matches_mpmath(p, eps)

    def test_array_equals_pointwise(self):
        grid = np.linspace(1.01, 3.0, 37)
        sweep = scattering.phase_shift(P_WEAK, grid)
        for i, eps in enumerate(grid):
            r = scattering.phase_shift(P_WEAK, float(eps))
            assert (r.theta, r.phi, r.psi, r.amplitude) == (
                sweep.theta[i], sweep.phi[i], sweep.psi[i], sweep.amplitude[i])

    def test_free_case_phi_is_positive_zero(self):
        for eps in (1.5, -1.5):
            r = scattering.phase_shift(PhysicalParams(z=0.0, kappa=1, compton=0.02), eps)
            assert math.copysign(1.0, r.phi) == 1.0

    def test_first_offending_energy_decides_the_error(self):
        with pytest.raises(ThresholdError):
            scattering.phase_shift_sweep(P_WEAK, [1.5, 1.0, 0.5])
        with pytest.raises(DomainError) as info:
            scattering.phase_shift_sweep(P_WEAK, [1.5, 0.5, 1.0])
        assert not isinstance(info.value, ThresholdError)

    def test_large_energy_is_finite(self):
        r = scattering.phase_shift(P_WEAK, 1e150)
        assert all(math.isfinite(v) for v in (r.theta, r.phi, r.psi, r.amplitude))
        assert 0.0 < r.theta < math.pi

    @pytest.mark.parametrize("eps", [1e160, -1e200])
    def test_overflowing_energy_raises(self, eps):
        with pytest.raises(SingularMapError, match="theta"):
            scattering.phase_shift(P_WEAK, eps)
        with pytest.raises(SingularMapError, match="theta"):
            scattering.phase_shift_sweep(P_WEAK, [1.5, eps, 2.0])

    def test_amplitude_overflow_raises(self):
        # (2 sin theta)^-lam with lam ~ 7: the amplitude leaves the double range
        with pytest.raises(SingularMapError, match="amplitude"):
            scattering.phase_shift(PhysicalParams(z=-1.0, kappa=6, compton=0.02), 1e150)


if given is not None:

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        omega=st.floats(1e-3, 30.0),
        eps=st.one_of(st.floats(1.001, 5.0), st.floats(-5.0, -1.001)),
    )
    def test_angles_obey_closed_forms_at_every_omega(omega, eps):
        base = scattering.phase_shift(PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=1.0), eps)
        p = PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=omega)
        r = scattering.phase_shift(p, eps)
        # phi and psi do not depend on omega: not even in the last bit
        assert (r.phi, r.psi) == (base.phi, base.psi)
        beta = 0.5 * p.compton * p.omega
        assert abs(math.tan(r.theta / 2) * math.sqrt((eps - 1) * (eps + 1)) - beta) <= 1e-14 * beta


# --- branch continuation against the loop it replaced -----------------------


def ref_phase_shift_sweep(p, eps_values):
    """The per-energy continuation loop of the earlier phase_shift_sweep,
    on one-energy phase_shift results: (eps, theta, phi, psi, amplitude)
    columns."""
    out = []
    offset = 0.0
    prev = None
    for eps in eps_values:
        r = scattering.phase_shift(p, eps)
        psi = r.psi + offset
        if prev is not None:
            while psi - prev > math.pi:
                psi -= 2.0 * math.pi
                offset -= 2.0 * math.pi
            while prev - psi > math.pi:
                psi += 2.0 * math.pi
                offset += 2.0 * math.pi
        out.append((r.eps, r.theta, r.phi, psi, r.amplitude))
        prev = psi
    return np.array(out).T


def ref_continue(psis):
    """The same loop on given raw phases."""
    out = []
    offset = 0.0
    prev = None
    for raw in psis:
        psi = raw + offset
        if prev is not None:
            while psi - prev > math.pi:
                psi -= 2.0 * math.pi
                offset -= 2.0 * math.pi
            while prev - psi > math.pi:
                psi += 2.0 * math.pi
                offset += 2.0 * math.pi
        out.append(psi)
        prev = psi
    return np.array(out)


class TestBranchContinuation:
    @pytest.mark.parametrize("grid", [np.linspace(1.15, 2.0, 120), np.linspace(-2.0, -1.15, 120),
                                      np.array([1.15, 1.25, 1.5, 2.0, -1.4])])
    def test_sweep_equals_reference_loop(self, grid):
        sweep = scattering.phase_shift_sweep(P_CRIT6, grid)
        ref = ref_phase_shift_sweep(P_CRIT6, grid)
        for got, want in zip((sweep.eps, sweep.theta, sweep.phi, sweep.psi, sweep.amplitude), ref):
            np.testing.assert_array_equal(got, want)

    def test_wrapping_sweep_takes_the_same_turns(self):
        # strong coupling near threshold: psi runs over many multiples of
        # 2 pi and single steps span several turns
        p = PhysicalParams(z=-18.0, kappa=-1, compton=0.05)
        grid = np.linspace(1.0001, 1.2, 300)
        raw = scattering.phase_shift(p, grid).psi
        got = scattering.phase_shift_sweep(p, grid).psi
        want = ref_phase_shift_sweep(p, grid)[3]
        np.testing.assert_array_equal(np.round((got - raw) / (2 * math.pi)), np.round((want - raw) / (2 * math.pi)))
        assert np.any(got != raw)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("step,turns", [
        (math.pi, 0), (-math.pi, 0), (1.5 * 2 * math.pi, -1), (3 * math.pi, -1), (-5 * math.pi, 2),
        (math.pi + 1e-9, -1), (-math.pi - 1e-9, 1), (7.0, -1), (0.5, 0),
    ])
    def test_synthetic_steps(self, step, turns):
        psis = np.array([0.0, step, step + 0.25])
        got = scattering._continue_branch(psis)
        np.testing.assert_array_equal(got, ref_continue(psis))
        assert round((got[1] - step) / (2 * math.pi)) == turns

    def test_short_inputs(self):
        assert scattering._continue_branch(np.array([])).size == 0
        np.testing.assert_array_equal(scattering._continue_branch(np.array([5.0])), [5.0])
