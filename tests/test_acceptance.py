"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure so a `pytest -s tests/test_acceptance.py` run
reads as a checklist.  Tolerances are fixed here, not calibrated.
"""

import math

import numpy as np

import reference_forms as ref
from tridirac import cli, model, pollaczek, resolvent, scattering, specfun, spectrum, wavefunction
from tridirac.model import PhysicalParams

PHYS_COMPTON = 1 / 137.035999
DESK = PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0)


def report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_spectrum_oracle_equivalence():
    worst = 0.0
    for kappa in (1, 2, 3):
        p = PhysicalParams(z=-1.0, kappa=kappa, compton=PHYS_COMPTON)
        for n in range(11):
            ours = spectrum.bound_energy(p, n)
            oracle = spectrum.sommerfeld_energy(p.z, kappa, p.compton, n + 1)
            worst = max(worst, abs(ours - oracle) / oracle)
    assert worst <= 1e-12
    report(1, f"fine-structure oracle equivalence, worst relative dev {worst:.2e}")


def test_criterion_02_quantization_roots_and_minimal_solution():
    d = model.derive(DESK)
    worst_root = 0.0
    for n in range(11):
        eps_n = spectrum.bound_energy(DESK, n)
        worst_root = max(worst_root, abs(spectrum.quantization_condition(d, eps_n) + n))
    assert worst_root <= 1e-9
    worst_at = 0.0
    best_mid = math.inf
    levels = [spectrum.bound_energy(DESK, n) for n in range(12)]
    for n in range(11):
        worst_at = max(worst_at, spectrum.minimal_solution_defect(d, levels[n], 60))
        mid = 0.5 * (levels[n] + levels[n + 1])
        best_mid = min(best_mid, spectrum.minimal_solution_defect(d, mid, 60))
    assert worst_at < 1e-6
    assert best_mid > 1e-2
    report(2, f"roots dev {worst_root:.2e}; defect at levels {worst_at:.2e}, at midpoints > {best_mid:.2e}")


def test_criterion_03_nonrelativistic_limit():
    devs = []
    for lam in (1e-3, 5e-4, 2.5e-4):
        p = PhysicalParams(z=-1.0, kappa=1, compton=lam)
        devs.append(abs(spectrum.nonrelativistic_limit_check(p, 0) + 0.125))
    r1 = devs[0] / devs[1]
    r2 = devs[1] / devs[2]
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0
    report(3, f"Rydberg-limit deviation ratios per compton halving: {r1:.3f}, {r2:.3f}")


def test_criterion_04_recursion_identification_consistency():
    rng = np.random.default_rng(2024)
    worst = {"scattering": 0.0, "bound": 0.0}
    for regime in ("scattering", "bound"):
        done = 0
        while done < 20:
            p = PhysicalParams(
                z=float(rng.uniform(-2.5, -0.3)),
                kappa=int(rng.choice([-3, -2, -1, 1, 2, 3])),
                compton=float(rng.uniform(0.01, 0.09)),
                omega=float(rng.uniform(0.4, 2.5)),
            )
            d = model.derive(p)
            if regime == "scattering":
                eps = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.02, 3.0))
            else:
                eps = float(rng.uniform(0.3, 0.998))
            try:
                pol = model.map_to_pollaczek(d, eps)
            except Exception:
                continue
            params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
            vals = ref.symmetric_values(pollaczek.evaluate(params, pol.x, 100))
            coeffs = model.recursion_coefficients(d)
            for n in range(1, 99):
                lhs = (coeffs.diag(n) * pol.x + pol.b) * vals[n]
                rhs = coeffs.offdiag(n - 1) * vals[n - 1] + coeffs.offdiag(n) * vals[n + 1]
                worst[regime] = max(worst[regime], float(abs(lhs - rhs) / (1 + abs(lhs))))
            done += 1
        assert worst[regime] <= 1e-10
    report(4, f"identification residuals: scattering {worst['scattering']:.2e}, bound {worst['bound']:.2e}")


def test_criterion_05_darboux_scattering_error_decay():
    params = pollaczek.PollaczekParams(lam=1.5, b=-0.4)
    theta = 1.1
    orth = pollaczek.to_orthonormal(pollaczek.evaluate(params, math.cos(theta), 2150))
    amp, _, _ = pollaczek.scattering_amplitude_phase(params, theta)
    vals = np.asarray(orth.values)

    def window_error(n0):
        return max(
            abs(vals[n] - pollaczek.asymptotic_scattering(params, theta, n)) / amp
            for n in range(n0, n0 + 100)
        )

    e200 = window_error(200)
    e2000 = window_error(2000)
    assert e2000 <= 0.25 * e200
    report(5, f"windowed approximant error {e200:.2e} (n0=200) -> {e2000:.2e} (n0=2000)")


def test_criterion_06_phase_shift_extraction():
    p = PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=30.0)
    worst_theta = worst_amp = worst_psi = 0.0
    for eps in (1.15, 1.25, 1.5, 2.0, -1.4):
        r = scattering.phase_shift(p, eps)
        d = model.derive(p)
        pol = model.map_to_pollaczek(d, eps)
        seq = pollaczek.to_orthonormal(
            pollaczek.evaluate(pollaczek.PollaczekParams(lam=pol.lam, b=pol.b), pol.x, 2100)
        )
        fit = scattering.fit_asymptotics(seq, (1000, 1000))
        worst_theta = max(worst_theta, abs(fit.theta - r.theta))
        worst_amp = max(worst_amp, abs(fit.amplitude - r.amplitude) / r.amplitude)
        worst_psi = max(worst_psi, abs(fit.psi - r.psi) / max(1.0, abs(r.psi)))
    assert worst_theta <= 1e-4
    assert worst_amp <= 1e-3
    assert worst_psi <= 1e-3
    report(6, f"extraction: d_theta {worst_theta:.2e}, d_amp {worst_amp:.2e}, d_psi {worst_psi:.2e}")


def test_criterion_07_green_function():
    d = model.derive(PhysicalParams(z=-1.0, kappa=1, compton=0.05))
    coeffs = model.recursion_coefficients(d)
    diag, off = coeffs.block(0, 60)
    rule = specfun.gauss_rule_from_jacobi(diag, off[:-1], mass=1.0)
    rng = np.random.default_rng(7)
    worst_cf = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-2, 20), rng.uniform(0.5, 3.0))
        quad = np.sum(rule.weights / (z - rule.nodes))
        cf = resolvent.green_function_truncated(coeffs, z, 60)
        worst_cf = max(worst_cf, abs(cf - quad))
    assert worst_cf <= 1e-10

    herglotz_ok = 0
    for _ in range(100):
        z = complex(rng.uniform(-2, 25), rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        est = resolvent.green_function(coeffs, z, tol=1e-10)
        if math.copysign(1.0, est.value.imag) == -math.copysign(1.0, z.imag):
            herglotz_ok += 1
    assert herglotz_ok == 100

    p_sol, q_sol = resolvent.solution_pair(coeffs, 5.0, 200)
    w = ref.casoratian(coeffs, p_sol, q_sol)
    worst_w = float(np.max(np.abs(w / w[0] - 1.0)))
    assert worst_w <= 1e-9
    report(7, f"CF vs quadrature {worst_cf:.2e}; Herglotz 100/100; Casoratian drift {worst_w:.2e}")


def test_criterion_08_closed_form_coefficients():
    rng = np.random.default_rng(31)
    worst = 0.0
    for regime in ("scattering", "bound"):
        done = 0
        while done < 10:
            p = PhysicalParams(
                z=float(rng.uniform(-2.0, -0.4)),
                kappa=int(rng.choice([-2, -1, 1, 2])),
                compton=float(rng.uniform(0.015, 0.08)),
                omega=float(rng.uniform(0.5, 2.2)),
            )
            d = model.derive(p)
            if regime == "scattering":
                eps = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.05, 2.5))
            else:
                eps = float(rng.uniform(0.4, 0.99))
                q = spectrum.quantization_condition(d, eps)
                if abs(q - round(q)) < 0.1:
                    continue  # bottom-parameter poles live exactly there
            rec = wavefunction.coefficients_recursion(d, eps, 30).values
            closed = wavefunction.coefficients_closed_form(d, eps, 30).values
            worst = max(worst, float(np.max(np.abs(closed / rec - 1.0))))
            done += 1
    assert worst <= 1e-8
    report(8, f"closed form / recursion worst deviation {worst:.2e} (n <= 30, both regimes)")


def test_criterion_09_tridiagonality():
    settings = [
        (PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0), 1.3),
        (PhysicalParams(z=-1.5, kappa=2, compton=0.1, omega=0.7), 0.9),
        (PhysicalParams(z=-0.5, kappa=-1, compton=0.03, omega=1.4), 1.8),
    ]
    worst = 0.0
    for p, eps in settings:
        report_obj = wavefunction.verify_tridiagonal(model.derive(p), eps, 20)
        worst = max(worst, report_obj.offband_ratio)
    assert worst <= 1e-10
    report(9, f"off-tridiagonal ratio {worst:.2e} at N=20 over three settings")


def test_criterion_10_wavefunction():
    d = model.derive(DESK)
    gram = wavefunction.gram_matrix(d, 20)
    gram_dev = float(np.max(np.abs(gram - np.eye(20))))
    assert gram_dev <= 1e-9

    eps0 = spectrum.bound_energy(DESK, 0)
    coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
    h = 0.01 / d.omega
    r = np.arange(0.5, 30.0, h)
    phi, _ = wavefunction.reconstruct_upper(coeffs, d, r, 64)
    residual = wavefunction.schrodinger_residual(phi, r, d, eps0)
    assert residual <= 1e-4
    report(10, f"Gram deviation {gram_dev:.2e}; ground-state radial residual {residual:.2e}")


def test_criterion_11_special_functions():
    rng = np.random.default_rng(3)
    worst_refl = 0.0
    for _ in range(200):
        z = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        if abs(z.imag) < 5e-2 and abs(z.real - round(z.real)) < 5e-2:
            continue
        lhs = specfun.log_gamma(z) + specfun.log_gamma(1 - z)
        rhs = math.log(math.pi) - ref.log_sin_pi(z)
        diff = lhs - rhs
        wrapped = (diff.imag + math.pi) % (2 * math.pi) - math.pi
        worst_refl = max(worst_refl, abs(diff.real), abs(wrapped))
    assert worst_refl <= 1e-11

    worst_mod = 0.0
    for y in (0.1, 0.5, 1.0, 5.0, 20.0):
        lg = specfun.log_gamma(1 + 1j * y)
        worst_mod = max(worst_mod, abs(math.exp(2 * lg.real) * math.sinh(math.pi * y) / (math.pi * y) - 1))
    assert worst_mod <= 1e-11

    worst_q = 0.0
    for order in (8, 20, 40):
        rule = specfun.gauss_laguerre_rule(order)
        for k in range(0, 2 * order, 3):
            approx = rule.integrate(rule.nodes ** k)
            exact = math.exp(math.lgamma(k + 1.0))
            worst_q = max(worst_q, abs(approx - exact) / exact)
    assert worst_q <= 1e-9
    report(11, f"reflection {worst_refl:.2e}; modulus identity {worst_mod:.2e}; moments {worst_q:.2e}")


def test_criterion_12_symmetry_maps():
    p = PhysicalParams(z=-1.0, kappa=2, compton=0.04, omega=1.1)
    p2, eps2 = model.negative_energy_map(p, 0.6)
    p3, eps3 = model.negative_energy_map(p2, eps2)
    assert p3 == p and eps3 == 0.6

    mapped, _ = model.negative_energy_map(p)
    negatives = spectrum.negative_energy_levels(mapped, 10)
    worst = max(
        abs(neg + spectrum.bound_energy(p, n)) / spectrum.bound_energy(p, n)
        for n, neg in enumerate(negatives)
    )
    assert worst <= 1e-12
    report(12, f"involution exact; mapped spectrum negation dev {worst:.2e}")


def test_criterion_13_cli_determinism(capsys):
    examples = [
        ["spectrum", "--z", "-1", "--kappa", "1", "--compton", "7.2973525693e-3", "--n-max", "5"],
        ["phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25"],
        ["phase-shift", "--z", "0", "--kappa", "1", "--compton", "0.02", "--eps", "1.5"],
        ["coefficients", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "1.3", "--n-max", "10"],
        ["green", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--zre", "3.0", "--zim", "0.5"],
        ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25",
         "--x-grid", "-0.9", "0.9", "7", "--eta", "1e-2"],
        ["wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05",
         "--eps", "0.9996872555384283", "--trunc", "32", "--r-grid", "0.5", "20", "12"],
        ["verify", "--z", "-1", "--kappa", "1", "--compton", "0.05",
         "--eps", "0.9996872555384283", "--n", "12"],
    ]
    for argv in examples:
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first
    report(13, f"byte-identical repeated runs across {len(examples)} subcommand examples")
