"""The shared definitions against the forms they replaced, with `==`.

The basis sums, the basis functions, the kinetic balance and spinor
rotation, the Gauss basis table, the angle map in x and the wave rows are
each written once in the library; `reference_forms` keeps the earlier
per-caller bodies.  Every comparison is exact, except the Gram and
wave-operator matrices, which now sum the Gauss rule's eigenvector rows,
not Laguerre values times weights, and the minimal-solution defect, whose
backward pass now rescales by powers of two at 2^512, not by |f| at 1e100:
those agree to a rounding bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference_forms as ref
from tridirac import model, pollaczek, specfun, spectrum, wavefunction
from tridirac.errors import KineticBalanceSingular
from tridirac.model import PhysicalParams
from tridirac.wavefunction import BasisElement

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


@pytest.mark.parametrize("name", sorted(CASES))
class TestBasisSide:
    def test_basis_functions(self, name):
        d, _, _ = _state(name, 1)
        for n in (0, 1, 2, 7, 30):
            elem = BasisElement(n, d.gamma_eff, d.omega)
            for new, old in ((wavefunction.basis_value, ref.basis_value),
                             (wavefunction.basis_derivative, ref.basis_derivative),
                             (wavefunction.basis_second_derivative, ref.basis_second_derivative)):
                _same(new(elem, R), old(elem, R))
                got = new(elem, 2.5)
                assert type(got) is float and got == old(elem, 2.5)

    def test_lower_component(self, name):
        d, eps, coeffs = _state(name)
        for n_trunc in (1, 17, 48):
            lower = wavefunction.lower_component(coeffs, d, eps, R, n_trunc)
            _same(lower, ref.lower_component(coeffs, d, eps, R, n_trunc))
            phi_plus, phi_minus = wavefunction.spinor(coeffs, d, eps, R, n_trunc)
            _same(phi_plus, wavefunction.reconstruct_upper(coeffs, d, R, n_trunc)[0])
            _same(phi_minus, lower)
        assert wavefunction.lower_component(coeffs, d, eps, 1.7) == ref.lower_component(coeffs, d, eps, 1.7)

    def test_coupled_system_residual(self, name):
        d, eps, coeffs = _state(name)
        r = np.array([0.8, 1.5, 2.5, 5.0, 9.0, 20.0])
        for n_trunc in (5, 48, None):
            assert (wavefunction.coupled_system_residual(coeffs, d, eps, r, n_trunc)
                    == ref.coupled_system_residual(coeffs, d, eps, r, n_trunc))

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
        e = model.energy_point(eps)
        ang = model.theta_phi(d, e)
        assert (ang.theta, ang.phi, ang.exp_i_theta, ang.branch) == ref.theta_phi(d, e)


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
    eps = -d.gamma / d.kappa
    r = np.array([1.0])
    with pytest.raises(KineticBalanceSingular):
        wavefunction.spinor(coeffs, d, eps, r, 8)
    with pytest.raises(KineticBalanceSingular):
        wavefunction.lower_component(coeffs, d, eps, r)
    with pytest.raises(KineticBalanceSingular):
        wavefunction.coupled_system_residual(coeffs, d, eps, r)


def test_theta_phi_on_energy_sweeps():
    for p in (CASES["bound.k1"][0], CASES["bound-left.k1"][0], CASES["scattering.k-1"][0],
              PhysicalParams(z=0.0, kappa=1, compton=0.05, omega=1.0),
              PhysicalParams(z=-1.0, kappa=-2, compton=0.05, omega=0.8)):
        d = model.derive(p)
        for eps in np.concatenate([np.linspace(-0.999, 0.999, 41), np.linspace(1.001, 30.0, 41),
                                   -np.linspace(1.001, 30.0, 11)]).tolist():
            e = model.energy_point(eps)
            try:
                old = ref.theta_phi(d, e)
            except Exception as exc:  # the map's singular point
                with pytest.raises(type(exc)):
                    model.theta_phi(d, e)
                continue
            ang = model.theta_phi(d, e)
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


@pytest.mark.parametrize("side", ["right", "left"])
def test_asymptotic_bound_log_random(side):
    rng = np.random.default_rng(71 if side == "right" else 73)
    for _ in range(1500):
        lam = float(rng.uniform(0.05, 6.0))
        b = float(rng.uniform(-4.0, 4.0))
        x = float(rng.uniform(1.0 + 1e-9, 1.0 + 10.0 ** rng.uniform(-6, 1.5)))
        x = x if side == "right" else -x
        n = int(rng.integers(1, 2000))
        params = pollaczek.PollaczekParams(lam=lam, b=b)
        assert pollaczek.asymptotic_bound_log(params, x, n) == ref.asymptotic_bound_log(params, x, n)


def test_asymptotic_bound_log_at_quantization_points():
    # exponent lam -+ i phi a non-positive integer: the reciprocal Gamma kills the term
    for x, sign in ((1.7, 1.0), (-1.7, -1.0)):
        root = math.sqrt(x * x - 1.0)
        for k in range(4):
            lam = 1.25
            b = -sign * (lam + k) * root  # lam + sign * b / root = -k
            params = pollaczek.PollaczekParams(lam=lam, b=b)
            got = pollaczek.asymptotic_bound_log(params, x, 40)
            assert got == ref.asymptotic_bound_log(params, x, 40) == (-math.inf, 1.0)
