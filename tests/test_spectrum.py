import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from tridirac import model, spectrum
from tridirac.errors import RepulsiveError, ThresholdError
from tridirac.model import PhysicalParams

PHYSICAL = PhysicalParams(z=-1.0, kappa=1, compton=1 / 137.035999)
DESK = PhysicalParams(z=-1.0, kappa=1, compton=0.05)


class TestBoundEnergy:
    def test_ground_state_value(self):
        # gamma ~ 0.99997338; independent arithmetic:
        # eps_0 = 1/sqrt(1 + (compton/(1+gamma))^2) = 0.9999933435...
        eps0 = spectrum.bound_energy(PHYSICAL, 0)
        lam = 1 / 137.035999
        expected = 1.0 / math.sqrt(1.0 + (lam / (1.0 + math.sqrt(1 - lam * lam))) ** 2)
        assert_allclose(eps0, expected, rtol=1e-14)
        assert abs(eps0 - 0.9999933435) < 1e-9

    def test_weak_coupling_limit(self):
        p = PhysicalParams(z=-1e-8, kappa=1, compton=0.01)
        for n in range(4):
            assert abs(spectrum.bound_energy(p, n) - 1.0) < 1e-15

    def test_repulsive_refused(self):
        with pytest.raises(RepulsiveError):
            spectrum.bound_energy(PhysicalParams(z=1.0, kappa=1, compton=0.01), 0)
        with pytest.raises(RepulsiveError):
            spectrum.bound_energy(PhysicalParams(z=0.0, kappa=1, compton=0.01), 0)

    def test_monotone_increasing_in_window(self):
        for kappa in (1, -1, 2, -2, 3):
            p = PhysicalParams(z=-1.0, kappa=kappa, compton=0.02)
            levels = [spectrum.bound_energy(p, n) for n in range(12)]
            assert all(0 < e < 1 for e in levels)
            assert all(b > a for a, b in zip(levels, levels[1:]))

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_oracle_equivalence_positive_kappa(self, kappa):
        p = PhysicalParams(z=-1.0, kappa=kappa, compton=1 / 137.035999)
        for n in range(11):
            ours = spectrum.bound_energy(p, n)
            oracle = spectrum.sommerfeld_energy(p.z, kappa, p.compton, n + 1)
            assert abs(ours - oracle) / oracle < 1e-12

    @pytest.mark.parametrize("kappa", [-1, -2, -3])
    def test_oracle_equivalence_negative_kappa(self, kappa):
        # the gamma -> -gamma-1 branch lands on the partner levels with
        # radial number n (not n+1); recorded as data, not interpreted
        p = PhysicalParams(z=-1.0, kappa=kappa, compton=1 / 137.035999)
        for n in range(11):
            ours = spectrum.bound_energy(p, n)
            oracle = spectrum.sommerfeld_energy(p.z, kappa, p.compton, n)
            assert abs(ours - oracle) / oracle < 1e-12

    def test_even_in_z(self):
        pa = PhysicalParams(z=-1.3, kappa=1, compton=0.02)
        eps = spectrum.bound_energy(pa, 2)
        # formula uses Z^2; parity asserted via the oracle with |Z|
        oracle = spectrum.sommerfeld_energy(1.3, 1, 0.02, 3)
        assert_allclose(eps, oracle, rtol=1e-14)


class TestQuantizationCondition:
    def test_roots_at_levels(self):
        d = model.derive(DESK)
        for n in range(11):
            eps_n = spectrum.bound_energy(DESK, n)
            assert abs(spectrum.quantization_condition(d, eps_n) + n) < 1e-9

    def test_monotone_between_levels(self):
        d = model.derive(DESK)
        e0 = spectrum.bound_energy(DESK, 0)
        e1 = spectrum.bound_energy(DESK, 1)
        grid = np.linspace(e0, e1, 41)
        vals = [spectrum.quantization_condition(d, float(e)) for e in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))  # strictly decreasing
        interior = vals[1:-1]
        assert all(-1 < v < 0 for v in interior)  # crosses no integer inside

    def test_divergence_at_threshold(self):
        d = model.derive(DESK)
        assert spectrum.quantization_condition(d, 0.999999999) < -100

    def test_threshold_error(self):
        d = model.derive(DESK)
        with pytest.raises(ThresholdError):
            spectrum.quantization_condition(d, 1.0)

    @pytest.mark.parametrize("z", [-2.0, -0.5])
    @pytest.mark.parametrize("kappa", [1, -2])
    def test_value_against_mpmath(self, z, kappa):
        # gamma_eff + 1 + compton Z eps / sqrt(1 - eps^2) away from Z = -1
        compton = 0.05
        d = model.derive(PhysicalParams(z=z, kappa=kappa, compton=compton))
        with mp.workdps(40):
            gamma = kappa * mp.sqrt(1 - (mp.mpf(compton) * z / kappa) ** 2)
            lam = gamma + 1 if kappa > 0 else -gamma
            for eps in (0.3, 0.9, 0.9999):
                want = lam + mp.mpf(compton) * z * eps / mp.sqrt(1 - mp.mpf(eps) ** 2)
                assert abs(spectrum.quantization_condition(d, eps) - want) <= 1e-13 * abs(want)


class TestNonrelativisticLimit:
    def test_documented_value(self):
        # Z=-1, kappa=1, n=0, compton=1e-4: the 2p-like level, N = 2
        p = PhysicalParams(z=-1.0, kappa=1, compton=1e-4)
        assert abs(spectrum.nonrelativistic_limit_check(p, 0) + 0.125) < 1e-7

    def test_quartic_convergence(self):
        # halving compton quarters the deviation from -Z^2/(2 N^2)
        devs = []
        for lam in (1e-3, 5e-4, 2.5e-4):
            p = PhysicalParams(z=-1.0, kappa=1, compton=lam)
            devs.append(abs(spectrum.nonrelativistic_limit_check(p, 0) + 0.125))
        assert 3.0 < devs[0] / devs[1] < 5.0
        assert 3.0 < devs[1] / devs[2] < 5.0

    def test_charge_scaling(self):
        p = PhysicalParams(z=-2.0, kappa=1, compton=1e-4)
        assert abs(spectrum.nonrelativistic_limit_check(p, 0) + 0.5) < 2e-6

    @pytest.mark.parametrize("compton", [0.05, 0.5])
    @pytest.mark.parametrize("z, kappa, n", [(-1.0, 1, 0), (-1.5, -1, 3)])
    def test_against_mpmath_level(self, compton, z, kappa, n):
        # (eps_n - 1)/compton^2 in 40 digits pins the O(compton^2) term
        p = PhysicalParams(z=z, kappa=kappa, compton=compton)
        with mp.workdps(40):
            c = mp.mpf(compton)
            gamma = kappa * mp.sqrt(1 - (c * z / kappa) ** 2)
            u = c * z / (n + (gamma + 1 if kappa > 0 else -gamma))
            want = (1 / mp.sqrt(1 + u * u) - 1) / c**2
            assert abs(spectrum.nonrelativistic_limit_check(p, n) - want) <= 1e-13 * abs(want)


class TestMinimalSolutionDefect:
    def test_small_at_levels(self):
        d = model.derive(DESK)
        for n in range(3):
            eps_n = spectrum.bound_energy(DESK, n)
            assert spectrum.minimal_solution_defect(d, eps_n, 60) < 1e-6

    def test_large_between_levels(self):
        d = model.derive(DESK)
        mid = 0.5 * (spectrum.bound_energy(DESK, 0) + spectrum.bound_energy(DESK, 1))
        assert spectrum.minimal_solution_defect(d, mid, 60) > 1e-2

    def test_dips_exactly_at_levels(self):
        # the defect, scanned over an eps window, dips at each level
        d = model.derive(DESK)
        e0 = spectrum.bound_energy(DESK, 0)
        e1 = spectrum.bound_energy(DESK, 1)
        offsets = np.linspace(-1.0, 1.0, 9)
        span = 0.2 * (e1 - e0)
        for center in (e0, e1):
            vals = [spectrum.minimal_solution_defect(d, float(center + o * span), 60) for o in offsets]
            assert np.argmin(vals) == 4  # the center of the window


def ref_build_table(p, n_max):
    """The per-level loop build_table replaced: (eps, oracle_residual)
    lists from scalar calls."""
    eps_values, residuals = [], []
    for n in range(n_max + 1):
        u = p.compton * p.z / (n + model.derive(p).gamma_eff + 1.0)
        eps = 1.0 / math.sqrt(1.0 + u * u)
        zc = p.z * p.compton
        n_r = n + 1 if p.kappa > 0 else n
        oracle = 1.0 / math.sqrt(1.0 + (zc / (n_r + math.sqrt(p.kappa**2 - zc * zc))) ** 2)
        eps_values.append(eps)
        residuals.append(abs(eps - oracle) / oracle)
    return eps_values, residuals


class TestSpectrumTable:
    def test_residual_column(self):
        table = spectrum.build_table(PHYSICAL, 5)
        assert table.eps.shape == table.oracle_residual.shape == (6,)
        assert np.all(table.oracle_residual < 1e-12)

    @pytest.mark.parametrize("kappa", [1, -1, -2, 3])
    def test_arrays_equal_the_scalar_loop(self, kappa):
        p = PhysicalParams(z=-1.0, kappa=kappa, compton=7.297e-3)
        table = spectrum.build_table(p, 2000)
        eps_values, residuals = ref_build_table(p, 2000)
        assert table.eps.tolist() == eps_values
        assert table.oracle_residual.tolist() == residuals

    def test_bound_energy_is_elementwise(self):
        n = np.arange(50, dtype=float)
        levels = spectrum.bound_energy(DESK, n)
        assert isinstance(levels, np.ndarray) and levels.shape == (50,)
        assert levels.tolist() == [spectrum.bound_energy(DESK, k) for k in range(50)]
        assert type(spectrum.bound_energy(DESK, 3)) is float
        oracle = spectrum.sommerfeld_energy(DESK.z, DESK.kappa, DESK.compton, n + 1.0)
        assert oracle.tolist() == [spectrum.sommerfeld_energy(DESK.z, DESK.kappa, DESK.compton, k + 1)
                                   for k in range(50)]
        with pytest.raises(ValueError):
            spectrum.bound_energy(DESK, np.array([0.0, -1.0]))


class TestNegativeEnergyLevels:
    def test_mapped_spectrum_negates(self):
        p = PhysicalParams(z=-1.0, kappa=2, compton=0.03, omega=1.2)
        mapped, _ = model.negative_energy_map(p)
        negatives = spectrum.negative_energy_levels(mapped, 8)
        originals = [spectrum.bound_energy(p, n) for n in range(9)]
        assert negatives == [-e for e in originals]
