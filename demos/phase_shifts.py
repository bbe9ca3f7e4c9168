"""Scattering phases from polynomial asymptotics.

The orthonormal polynomial solutions oscillate at large degree as
amplitude * cos(n theta + psi_n); the energy-dependent amplitude and the
Gamma phase inside psi_n are the scattering observables.  This demo
sweeps them over energy, checks the approximant against exact recursion
values, and recovers all quantities empirically with the fitting
extractor.

Run:  python3 demos/phase_shifts.py
"""

import numpy as np

from tridirac import model, pollaczek, scattering
from tridirac.model import PhysicalParams

p = PhysicalParams(z=-1.0, kappa=1, compton=0.02, omega=30.0)

print("=" * 72)
print("Energy sweep of the scattering quantities (Z = -1, kappa = 1)")
print("=" * 72)
grid = np.linspace(1.1, 2.4, 8)
sweep = scattering.phase_shift_sweep(p, grid)  # one result of arrays
print(f"\n  {'eps':>6} {'theta':>10} {'Phi':>10} {'psi':>12} {'amplitude':>12}")
for eps, theta, phi, psi, amp in zip(sweep.eps, sweep.theta, sweep.phi, sweep.psi, sweep.amplitude):
    print(f"  {eps:>6.2f} {theta:>10.6f} {phi:>10.6f} {psi:>12.3e} {amp:>12.6f}")
print("\n  psi_n drifts logarithmically, the long-range Coulomb fingerprint:")
r = scattering.phase_shift(p, float(grid[2]))
for n in (10, 100, 1000, 10000):
    print(f"    n = {n:>6}:  psi_n = {r.psi_n(n):+.6f}")

print("\n" + "=" * 72)
print("Asymptotic approximant vs exact recursion values")
print("=" * 72)
eps = float(grid[2])
d = model.derive(p)
pol = model.map_to_pollaczek(d, model.energy_point(eps))
params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, pol.x, 4100))
vals = np.asarray(seq.values)
theta = float(np.arccos(pol.x))
amp, _, _ = pollaczek.scattering_amplitude_phase(params, theta)
print(f"\n  eps = {eps:.4f}: windowed max |exact - approximant| / amplitude")
for n0 in (100, 400, 1600, 4000):
    err = max(abs(vals[n] - pollaczek.asymptotic_scattering(params, theta, n)) for n in range(n0, n0 + 64))
    print(f"    window start {n0:>5}: {err / amp:.3e}")
print("  The error falls like 1/n: the leading Darboux term is in charge.")

print("\n" + "=" * 72)
print("Empirical extraction from the raw sequence (no closed forms used)")
print("=" * 72)
fit = scattering.fit_asymptotics(seq, (1000, 1000))
r = scattering.phase_shift(p, eps)
print(f"\n  {'quantity':>10} {'fitted':>18} {'analytic':>18} {'abs dev':>12}")
for name, got, want in (
    ("theta", fit.theta, r.theta),
    ("amplitude", fit.amplitude, r.amplitude),
    ("psi", fit.psi, r.psi),
):
    print(f"  {name:>10} {got:>18.12f} {want:>18.12f} {abs(got - want):>12.2e}")
print(f"\n  fit rms residual: {fit.residual:.3e}  (next-order term, ~1/window start)")
