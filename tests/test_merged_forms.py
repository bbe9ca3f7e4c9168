"""The shared definitions against the forms they replaced, with `==`.

The basis sums, the kinetic balance and spinor rotation, the Gauss basis
table, the angle map in x and the wave rows are each written once in the
library; `reference_forms` keeps the earlier per-caller bodies.  Every
comparison is exact, except these, which agree to a bound:
- the basis sums (zeta_n and its derivatives at a unit vector, phi-, the
  coupled-system residual), which take the derivative from the same rows
  by tail sums and A_n as a running product: against a 40-digit mpmath
  re-sum of the per-element forms, to 2e-13 of the grid's largest
  magnitude (spinor still equals reconstruct_upper and lower_component
  bit for bit);
- the Gram and wave-operator matrices, which now sum the Gauss rule's
  eigenvector rows, not Laguerre values times weights;
- the minimal-solution defect, whose backward pass now rescales by powers
  of two at 2^512, not by |f| at 1e100.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import reference_forms as ref
from tridirac import model, specfun, spectrum, wavefunction
from tridirac.errors import KineticBalanceSingular
from tridirac.model import PhysicalParams

# (params, energy): bound levels and scattering energies at kappa = 1, -1, 2,
# and the bound-left branch at omega = 3
CASES = {
    "bound.k1": (PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0), ("level", 2)),
    "bound.k-1": (PhysicalParams(z=-1.0, kappa=-1, compton=0.05, omega=1.0), ("level", 1)),
    "bound.k2": (PhysicalParams(z=-1.5, kappa=2, compton=0.08, omega=0.6), ("level", 0)),
    "bound-left.k1": (PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=3.0), ("level", 0)),
    "scattering.k1": (PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0), ("eps", 1.3)),
    "scattering.k-1": (PhysicalParams(z=-0.5, kappa=-1, compton=0.03, omega=1.4), ("eps", 1.8)),
    "scattering.k2": (PhysicalParams(z=-1.0, kappa=2, compton=0.05, omega=0.7), ("eps", -1.6)),
}

R = np.concatenate([np.linspace(0.3, 60.0, 211), [1e-3, 150.0]])
# and small radii, where a regrouped derivative can cancel
R_SMALL = np.concatenate([R, [1e-4, 1e-2, 0.1]])
# the basis sums against their 40-digit re-sum, relative to the largest
# magnitude on the grid (fixed before measuring)
TOL = 2e-13


def _state(name, n_max=48):
    p, (kind, value) = CASES[name]
    d = model.derive(p)
    if kind == "level":
        eps = spectrum.bound_energy(p, value)
        return d, eps, wavefunction.coefficients_bound_state(d, eps, n_max)
    return d, value, wavefunction.coefficients_recursion(d, value, n_max)


def _same(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(a, b)


def _close(got, want):
    """got within TOL of the mpmath values want, relative to max |want|."""
    want = np.array([float(v) for v in want])
    assert np.max(np.abs(np.ravel(got) - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(CASES))
class TestBasisSide:
    def test_basis_functions(self, name):
        # the basis sums at the unit vector e_n are zeta_n, zeta_n' and
        # zeta_n'' alone, on the grid and at one radius
        d, _, _ = _state(name, 1)
        for n in (0, 1, 2, 7, 30):
            values = ref.unit_vector(n).values
            for r in (R_SMALL, 2.5):
                sums = wavefunction._expansion(values, d.gamma_eff, d.omega, r, n + 1)
                for got, want in zip(sums, ref.mp_basis_sums(values, d.gamma_eff, d.omega, r, n + 1)):
                    assert np.shape(got) == np.shape(r)
                    _close(got, want)

    def test_lower_component(self, name):
        d, eps, coeffs = _state(name)
        r = np.append(R_SMALL, 1.7)
        for n_trunc in (1, 17, None):
            count = n_trunc or len(coeffs)
            phi, dphi, _ = ref.mp_basis_sums(coeffs.values, d.gamma_eff, d.omega, r, count)
            want = [ref.mp_kinetic_balance(d, eps, *point) for point in zip(r.tolist(), phi, dphi)]
            _close(wavefunction.lower_component(coeffs, d, r, n_trunc), want)
            phi_plus, phi_minus = wavefunction.spinor(coeffs, d, R, count)
            _same(phi_plus, wavefunction.reconstruct_upper(coeffs, d, R, count)[0])
            _same(phi_minus, wavefunction.lower_component(coeffs, d, R, n_trunc))
        # the whole vector by default, a float at a scalar radius
        scalar = wavefunction.lower_component(coeffs, d, 1.7)
        assert isinstance(scalar, float)
        assert abs(scalar - float(want[-1])) <= TOL * max(abs(float(v)) for v in want)

    def test_coupled_system_residual(self, name):
        d, eps, coeffs = _state(name)
        r = np.array([0.8, 1.5, 2.5, 5.0, 9.0, 20.0])
        for n_trunc in (5, 48, None):
            sums = ref.mp_basis_sums(coeffs.values, d.gamma_eff, d.omega, r, n_trunc or len(coeffs))
            want, largest_term = ref.mp_coupled_residual(d, eps, r, sums)
            got = wavefunction.coupled_system_residual(coeffs, d, r, n_trunc)
            assert abs(got - want) <= TOL * largest_term

    def test_gram_matrix(self, name):
        d, _, _ = _state(name, 1)
        for n_basis in (2, 15, 20):
            gram = wavefunction.gram_matrix(d, n_basis)
            want = ref.gram_matrix(d, n_basis)
            assert gram.shape == want.shape
            assert np.max(np.abs(gram - want)) <= 1e-13

    def test_verify_tridiagonal(self, name):
        d, eps, _ = _state(name, 1)
        for n_basis in (3, 20, 60):
            report = wavefunction.verify_tridiagonal(d, eps, n_basis)
            offband, diag_dev, off_dev, matrix = ref.verify_tridiagonal(d, eps, n_basis)
            assert report.matrix.shape == matrix.shape
            assert np.max(np.abs(report.matrix - matrix)) <= 1e-12 * np.max(np.abs(matrix))
            # the deviations stay at the rounding level of the earlier form
            for got, want in zip((report.offband_ratio, report.diag_deviation, report.offdiag_deviation),
                                 (offband, diag_dev, off_dev)):
                assert got <= 2.0 * want + 1e-14

    def test_theta_phi(self, name):
        d, eps, _ = _state(name, 1)
        ang = model.theta_phi(d, eps)
        assert (ang.theta, ang.phi, ang.exp_i_theta, ang.branch) == ref.theta_phi(d, eps)


@pytest.mark.parametrize("nu", [0.0, 1.2, 2.9, 2.9987])
@pytest.mark.parametrize("order", [5, 40, 150, 600])
def test_gauss_rule_from_the_eigenvector_rows(order, nu):
    # the weights are mass times the squared first row of the vectors:
    # the first-row loop's values, bit for bit
    rule = specfun.gauss_laguerre_rule(order, nu)
    nodes, weights = ref.gauss_laguerre_rule(order, nu)
    _same(rule.nodes, nodes)
    _same(rule.weights, weights)


def test_kinetic_balance_singular_in_both_users():
    d, _, coeffs = _state("scattering.k1", 8)
    coeffs = dataclasses.replace(coeffs, eps=-d.gamma / d.kappa)
    r = np.array([1.0])
    with pytest.raises(KineticBalanceSingular):
        wavefunction.spinor(coeffs, d, r, 8)
    with pytest.raises(KineticBalanceSingular):
        wavefunction.lower_component(coeffs, d, r)
    with pytest.raises(KineticBalanceSingular):
        wavefunction.coupled_system_residual(coeffs, d, r)


def test_theta_phi_on_energy_sweeps():
    for p in (CASES["bound.k1"][0], CASES["bound-left.k1"][0], CASES["scattering.k-1"][0],
              PhysicalParams(z=0.0, kappa=1, compton=0.05, omega=1.0),
              PhysicalParams(z=-1.0, kappa=-2, compton=0.05, omega=0.8)):
        d = model.derive(p)
        for eps in np.concatenate([np.linspace(-0.999, 0.999, 41), np.linspace(1.001, 30.0, 41),
                                   -np.linspace(1.001, 30.0, 11)]).tolist():
            try:
                old = ref.theta_phi(d, eps)
            except Exception as exc:  # the map's singular point
                with pytest.raises(type(exc)):
                    model.theta_phi(d, eps)
                continue
            ang = model.theta_phi(d, eps)
            assert (ang.theta, ang.phi, ang.exp_i_theta, ang.branch) == old
            assert [math.copysign(1.0, v) for v in (ang.phi.real, ang.phi.imag)] == [
                math.copysign(1.0, v) for v in (old[1].real, old[1].imag)]


def test_minimal_solution_defect():
    for p in (CASES["bound.k1"][0], CASES["bound-left.k1"][0], CASES["bound.k-1"][0], CASES["bound.k2"][0]):
        d = model.derive(p)
        levels = spectrum.bound_energy(p, np.arange(4.0))
        for eps in [*levels.tolist(), *(0.5 * (levels[1:] + levels[:-1])).tolist(), 0.3, 0.9]:
            for n_probe in (5, 60):
                want = ref.minimal_solution_defect(d, eps, n_probe)
                assert abs(spectrum.minimal_solution_defect(d, eps, n_probe) - want) <= 1e-10 * (1.0 + want)
