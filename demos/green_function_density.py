"""Green function and spectral density.

The ratio of the two recursion solutions defines the Green function,
evaluated in practice as a continued fraction; its finite truncations
are exactly the Gauss-quadrature resolvents of the truncated operator,
and its boundary values invert to the spectral density.

Run:  python3 demos/green_function_density.py
"""

import math

import numpy as np

from tridirac import model, pollaczek, resolvent, specfun
from tridirac.model import PhysicalParams

p = PhysicalParams(z=-1.0, kappa=1, compton=0.05)
d = model.derive(p)
coeffs = model.recursion_coefficients(d)

print("=" * 72)
print("Continued fraction vs Gauss-quadrature resolvent (same truncation)")
print("=" * 72)
diag, off = coeffs.block(0, 60)
rule = specfun.gauss_rule_from_jacobi(diag, off[:-1], mass=1.0)
print(f"\n  {'z':>12} {'CF depth 60':>28} {'|CF - quadrature|':>20}")
for z in (3 + 0.5j, 1 + 1j, 10 + 2j, -2 + 0.7j):
    quad = complex(np.sum(rule.weights / (z - rule.nodes)))
    cf = resolvent.green_function_truncated(coeffs, z, 60)
    print(f"  {z!s:>12} {cf!s:>28.28} {abs(cf - quad):>20.3e}")

print("\n  Adaptive evaluation agrees with the solution ratio P*/P:")
est = resolvent.green_function(coeffs, 3 + 0.5j, tol=1e-12)
p_sol, q_sol = resolvent.solution_pair(coeffs, 3 + 0.5j, est.depth)
print(f"    G = {est.value}   (depth {est.depth}, last delta {est.last_delta:.1e})")
print(f"    P*_N/P_N - G = {abs(q_sol[-1] / p_sol[-1] - est.value):.3e}")

print("\n  Herglotz property: Im G flips sign against Im z")
for z in (2 + 1j, 2 - 1j):
    est = resolvent.green_function(coeffs, z, tol=1e-10)
    print(f"    z = {z}:  Im G = {est.value.imag:+.6f}")

print("\n" + "=" * 72)
print("Spectral density of the energy-form operator (unbounded support)")
print("=" * 72)
print("\n  gamma = 0 family has the closed-form density 4 x e^{-2x}; the")
print("  eta-smeared inversion recovers it after extrapolating eta -> 0:")
flat = model.RecursionCoefficients(
    diag=lambda n: n + 1.0, offdiag=lambda n: 0.5 * np.sqrt((n + 1.0) * (n + 2.0))
)
print(f"  {'x':>6} {'extrapolated':>14} {'exact':>14} {'rel dev':>10}")
for x in (0.5, 1.0, 2.0, 4.0):
    r1 = -resolvent.green_function_truncated(flat, complex(x, 0.04), 40_000).imag / math.pi
    r2 = -resolvent.green_function_truncated(flat, complex(x, 0.02), 80_000).imag / math.pi
    extrap = 2 * r2 - r1
    exact = 4 * x * math.exp(-2 * x)
    print(f"  {x:>6.2f} {extrap:>14.8f} {exact:>14.8f} {abs(extrap / exact - 1):>10.1e}")

print("\n" + "=" * 72)
print("Density over the polynomial argument at fixed energy (bounded band)")
print("=" * 72)
eps = 1.25
pol = model.map_to_pollaczek(d, eps)
params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
xj = pollaczek.jacobi_coefficients(params)
xs = np.linspace(-0.98, 0.98, 197)
rho = resolvent.spectral_density_grid(xj, xs, 1e-3)
mass = np.trapezoid(rho, xs)
print(f"\n  eps = {eps}: band density sampled on ({xs[0]:.2f}, {xs[-1]:.2f})")
print(f"  integrated mass over the band: {mass:.4f}  (total measure = 1)")
rho_x, rho_eps = resolvent.energy_density(d, eps, 1e-3)
print(f"  translated to the energy variable at eps = {eps}:")
print(f"    rho_x(x(eps)) = {rho_x:.6f},  rho_eps = rho_x |dx/deps| = {rho_eps:.6f}")
