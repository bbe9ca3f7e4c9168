"""Independent oracles for every benchmark op.

Each check takes the bytes an op produced and returns the worst relative
error against its oracle.  It raises `OracleError` when the output is
malformed or holds a non-finite value.  The formulas here are written
out again from the paper's definitions (Sommerfeld levels, the energy
map, the Darboux amplitude, the three-term recursion, the Laguerre
basis) and evaluated in mpmath, so they share no code path with the
numerical kernels they check.  Two oracles deliberately reuse library
routines, as the benchmark's specification asks: `green` is checked
against the truncated continued fraction at twice the reported depth,
and `density` against the adaptive Lentz evaluation at the same eta.

Every check runs once per op, on the op's first output, outside the
timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp

_DPS = 40


class OracleError(Exception):
    """An op produced output the oracle cannot accept."""


# --- parsing -----------------------------------------------------------------


def table(data: bytes) -> list[dict]:
    """Rows of a CSV or JSON table as dicts of floats; every value must be
    finite."""
    text = data.decode()
    if text.lstrip().startswith("["):
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise OracleError("empty table")
    out = []
    for row in rows:
        values = {k: float(v) for k, v in row.items()}
        if not all(math.isfinite(v) for v in values.values()):
            raise OracleError(f"non-finite value in row {row}")
        out.append(values)
    return out


def _rel(got, want) -> float:
    return float(abs(got - want) / abs(want))


# --- the model, restated -----------------------------------------------------


def gamma_eff(z, kappa, compton):
    """Effective angular parameter of the recursion (gamma for kappa > 0,
    -gamma - 1 for kappa < 0)."""
    gamma = kappa * mp.sqrt(1 - (mp.mpf(compton) * z / kappa) ** 2)
    return gamma if kappa > 0 else -gamma - 1


def pollaczek_map(z, kappa, compton, omega, eps):
    """(x, b, lam) of the energy-to-Pollaczek identification."""
    compton = mp.mpf(compton)
    eps = mp.mpf(eps)
    beta = compton * omega / 2
    alpha = compton**2 * omega * z
    s = (eps - 1) * (eps + 1)
    den = s + beta**2
    return (s - beta**2) / den, -alpha * eps / den, gamma_eff(z, kappa, compton) + 1


def level_energy(z, kappa, compton, n):
    """Bound level n from the closed-form level formula, in doubles."""
    zc = compton * z
    g = kappa * math.sqrt(1.0 - (zc / kappa) ** 2)
    g_eff = g if kappa > 0 else -g - 1.0
    u = zc / (n + g_eff + 1.0)
    return 1.0 / math.sqrt(1.0 + u * u)


def quantization_value(z, kappa, compton, eps):
    """gamma_eff + 1 + compton Z eps / sqrt(1 - eps^2); the closed form has
    a bottom-parameter pole where this is a non-positive integer."""
    zc = compton * z
    g = kappa * math.sqrt(1.0 - (zc / kappa) ** 2)
    g_eff = g if kappa > 0 else -g - 1.0
    return g_eff + 1.0 + zc * eps / math.sqrt((1.0 - eps) * (1.0 + eps))


def _wrap(phase):
    return (phase + mp.pi) % (2 * mp.pi) - mp.pi


# --- per-op checks -----------------------------------------------------------


def spectrum(data, *, z, kappa, compton, n_max):
    """Levels against the Sommerfeld fine-structure formula in mpmath; the
    program's own oracle_residual column must agree too."""
    rows = table(data)
    if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
        raise OracleError("spectrum rows are not n = 0..n_max")
    worst = 0.0
    with mp.workdps(_DPS):
        zc = mp.mpf(compton) * z
        root = mp.sqrt(kappa * kappa - zc * zc)
        for r in rows:
            n_r = int(r["n"]) + 1 if kappa > 0 else int(r["n"])
            want = 1 / mp.sqrt(1 + (zc / (n_r + root)) ** 2)
            worst = max(worst, _rel(r["eps"], want), r["oracle_residual"])
    return worst


def phase_shift(data, *, z, kappa, compton, omega, grid):
    """theta, Phi, amplitude and psi (mod 2 pi) against mpmath's loggamma of
    lam + i Phi, all re-derived from the energy."""
    rows = table(data)
    start, stop, count = grid
    if len(rows) != count:
        raise OracleError(f"expected {count} rows, got {len(rows)}")
    worst = 0.0
    with mp.workdps(_DPS):
        for r in rows:
            x, b, lam = pollaczek_map(z, kappa, compton, omega, r["eps"])
            theta = mp.acos(x)
            phi = b / mp.sin(theta)
            lg = mp.loggamma(lam + 1j * phi)
            amp = 2 * mp.exp((mp.pi / 2 - theta) * phi) / (mp.exp(mp.re(lg)) * (2 * mp.sin(theta)) ** lam)
            psi = mp.im(lg)
            worst = max(
                worst,
                _rel(r["theta"], theta),
                _rel(r["Phi"], phi),
                _rel(r["amplitude"], amp),
                float(abs(_wrap(r["psi"] - psi)) / max(1, abs(psi))),
            )
    return worst


def coefficients(data, *, n_max):
    """The closed_rel_dev column: closed-form 2F1 coefficients against the
    recursion, row by row."""
    rows = table(data)
    if len(rows) != n_max + 1:
        raise OracleError(f"expected {n_max + 1} rows, got {len(rows)}")
    return max(r["closed_rel_dev"] for r in rows)


def green(data, *, z, kappa, compton):
    """Lentz value against the truncated continued fraction at twice the
    reported depth."""
    from tridirac import model, resolvent

    (row,) = table(data)
    coeffs = model.recursion_coefficients(model.derive(model.PhysicalParams(z=z, kappa=kappa, compton=compton)))
    want = resolvent.green_function_truncated(coeffs, complex(row["z_re"], row["z_im"]), 2 * int(row["depth"]))
    return _rel(complex(row["G_re"], row["G_im"]), want)


def density(data, *, z, kappa, compton, eps, eta, points):
    """Fixed-depth grid density at the given row indices against the
    adaptive Lentz `spectral_density` at the same eta."""
    from tridirac import pollaczek, resolvent

    rows = table(data)
    with mp.workdps(_DPS):
        x0, b, lam = pollaczek_map(z, kappa, compton, 1.0, eps)
    coeffs = pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=float(lam), b=float(b)))
    worst = 0.0
    for i in points:
        want = resolvent.spectral_density(coeffs, rows[i]["x"], eta)
        worst = max(worst, _rel(rows[i]["rho"], want))
    return worst


def _coefficients_mp(z, kappa, compton, omega, eps, n_terms, bound):
    """Expansion coefficients f_0..f_{n_terms-1} (f_0 = 1) of the radial
    recursion [a_n x + b] f_n = b_{n-1} f_{n-1} + b_n f_{n+1}: forward in
    the scattering regime, backward (Miller, long guard) at a bound level."""
    x, b, lam = pollaczek_map(z, kappa, compton, omega, eps)
    g = lam - 1

    def a_(n):
        return n + g + 1

    def b_(n):
        return mp.sqrt((n + 1) * (n + 2 * g + 2)) / 2

    if not bound:
        f = [mp.mpf(1), (a_(0) * x + b) / b_(0)]
        for n in range(1, n_terms - 1):
            f.append(((a_(n) * x + b) * f[n] - b_(n - 1) * f[n - 1]) / b_(n))
        return f[:n_terms]
    top = n_terms + 400
    f = [mp.mpf(0)] * (top + 2)
    f[top] = mp.mpf(1)
    for n in range(top, 0, -1):
        f[n - 1] = ((a_(n) * x + b) * f[n] - b_(n) * f[n + 1]) / b_(n - 1)
    return [v / f[0] for v in f[:n_terms]]


def wavefunction(data, *, z, kappa, compton, omega, eps, trunc, points):
    """phi+ at the given row indices, re-summed from mpmath coefficients with
    mpmath.laguerre; error relative to the largest |phi+| among them."""
    rows = table(data)
    got, want = [], []
    with mp.workdps(_DPS):
        f = _coefficients_mp(z, kappa, compton, omega, eps, trunc, bound=abs(eps) < 1)
        g = gamma_eff(z, kappa, compton)
        nu = 2 * g + 1
        norms = [mp.sqrt(omega * mp.gamma(n + 1) / mp.gamma(n + 2 * g + 2)) for n in range(trunc)]
        for i in points:
            y = omega * mp.mpf(rows[i]["r"])
            envelope = y ** (g + 1) * mp.exp(-y / 2)
            want.append(envelope * mp.fsum(f[n] * norms[n] * mp.laguerre(n, nu, y) for n in range(trunc)))
            got.append(rows[i]["phi_plus"])
        scale = max(abs(w) for w in want)
        return max(float(abs(a - b) / scale) for a, b in zip(got, want))


def verify(data):
    """The op's own diagonal, off-diagonal and Gram deviations."""
    (row,) = table(data)
    return max(row["diag_deviation"], row["offdiag_deviation"], row["gram_deviation"])


def fit(data, *, theta):
    """Fitted theta against acos(x)."""
    got = json.loads(data)["theta"]
    if not math.isfinite(got):
        raise OracleError("non-finite theta")
    return abs(got - theta) / theta
