"""Radial spinor reconstruction and operator diagnostics.

Builds the ground bound state from its expansion coefficients in the
Laguerre basis, derives the lower spinor component by kinetic balance,
verifies the second-order radial equation on a grid, and shows the
wave-operator matrix is tridiagonal to quadrature exactness.

Run:  python3 demos/radial_wavefunction.py
"""

import numpy as np

from tridirac import cli, model, spectrum, wavefunction
from tridirac.model import PhysicalParams

p = PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=1.0)
d = model.derive(p)
eps0 = spectrum.bound_energy(p, 0)

print("=" * 72)
print(f"Ground bound state at eps_0 = {eps0:.12f}  (Z=-1, kappa=1, Compton=0.05)")
print("=" * 72)

coeffs = wavefunction.coefficients_bound_state(d, eps0, 64)
mags = np.abs(coeffs.values)
print("\n  Expansion coefficients decay geometrically (minimal solution):")
for n in (0, 1, 2, 3, 5, 8):
    print(f"    |f_{n}| = {mags[n]:.3e}")

r = np.arange(0.5, 30.0, 0.01)
phi_plus, phi_minus = wavefunction.spinor(coeffs, d, r, 64)
peak = r[np.argmax(np.abs(phi_plus))]
ratio = np.max(np.abs(phi_minus)) / np.max(np.abs(phi_plus))
print(f"\n  Upper component peaks near r = {peak:.2f} Bohr radii")
print(f"  Lower/upper amplitude ratio: {ratio:.4f}  (~ Compton scale, as it should)")

residual = wavefunction.schrodinger_residual(phi_plus, r, d, eps0)
print(f"\n  Second-order radial equation residual on the grid: {residual:.3e}")

coupled = wavefunction.coupled_system_residual(coeffs, d, np.array([0.8, 1.5, 3.0, 6.0]), 64)
print(f"  Original coupled first-order system residual (after un-rotating): {coupled:.3e}")

print("\n" + "=" * 72)
print("Sampled spinor (CSV-ready)")
print("=" * 72)
sample = slice(0, len(r), 590)
print("\n" + cli.table_to_csv({"r": r[sample], "phi_plus": phi_plus[sample], "phi_minus": phi_minus[sample]}))

print("=" * 72)
print("Tridiagonality of the wave-operator matrix (N = 20)")
print("=" * 72)
for eps in (eps0, 1.3):
    rep = wavefunction.verify_tridiagonal(d, eps, 20)
    kind = "bound " if model.regime(eps) is model.Regime.BOUND else "scatt."
    print(
        f"\n  eps = {eps:.6f} ({kind}): off-band ratio {rep.offband_ratio:.2e}, "
        f"diagonal dev {rep.diag_deviation:.2e}, off-diagonal dev {rep.offdiag_deviation:.2e}"
    )
print("\n  Off-band elements vanish to quadrature exactness: the wave equation")
print("  really is a three-term recursion in this basis.")
