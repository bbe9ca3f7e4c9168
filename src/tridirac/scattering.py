"""Relativistic phase shifts and amplitudes from the oscillatory
asymptotics of the orthonormal polynomial solutions, plus an empirical
extractor that fits the asymptotic form to exact recursion output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pollaczek
from .errors import DomainError, FitError, ThresholdError
from .model import PhysicalParams, Regime, derive, energy_point, map_to_pollaczek, theta_phi

__all__ = [
    "PhaseShiftResult",
    "FitResult",
    "phase_shift",
    "phase_shift_sweep",
    "fit_asymptotics",
]


@dataclass(frozen=True)
class PhaseShiftResult:
    """Scattering quantities at one energy: the angle theta in (0, pi),
    the phase parameter phi, the Gamma phase psi = arg Gamma(lam + i phi),
    the positive amplitude, and the drifting phase psi_n of the
    cos(n theta + psi_n) asymptotic form."""

    eps: float
    theta: float
    phi: float
    psi: float
    amplitude: float
    lam: float

    def psi_n(self, n: int) -> float:
        """pollaczek.drifting_phase at this result's psi, lam, theta and
        phi."""
        return pollaczek.drifting_phase(self.psi, self.lam, self.theta, self.phi, n)


@dataclass(frozen=True)
class FitResult:
    theta: float
    amplitude: float
    psi: float
    residual: float


def phase_shift(p: PhysicalParams, eps: float) -> PhaseShiftResult:
    """Amplitude and phases of the oscillatory asymptotics at |eps| > 1."""
    e = energy_point(eps)
    if e.regime is Regime.THRESHOLD:
        raise ThresholdError("phase shift undefined at |eps| = 1")
    if e.regime is not Regime.SCATTERING:
        raise DomainError("phase shift needs |eps| > 1")
    d = derive(p)
    pol = map_to_pollaczek(d, e)
    angles = theta_phi(d, e)
    theta = angles.theta.real
    params = pollaczek.PollaczekParams(lam=pol.lam, a=pol.a, b=pol.b)
    amplitude, psi, phi = pollaczek.scattering_amplitude_phase(params, theta)
    return PhaseShiftResult(eps=eps, theta=theta, phi=phi, psi=psi, amplitude=amplitude, lam=pol.lam)


def phase_shift_sweep(p: PhysicalParams, eps_values) -> list:
    """Phase shifts along an energy sweep with the Gamma phase kept on a
    continuous branch: a 2 pi correction is applied only when the
    discrete step between neighbors exceeds pi."""
    out = []
    offset = 0.0
    prev = None
    for eps in eps_values:
        r = phase_shift(p, eps)
        psi = r.psi + offset
        if prev is not None:
            while psi - prev > math.pi:
                psi -= 2.0 * math.pi
                offset -= 2.0 * math.pi
            while prev - psi > math.pi:
                psi += 2.0 * math.pi
                offset += 2.0 * math.pi
        out.append(PhaseShiftResult(eps=r.eps, theta=r.theta, phi=r.phi, psi=psi,
                                    amplitude=r.amplitude, lam=r.lam))
        prev = psi
    return out


def _drift(params: pollaczek.PollaczekParams, theta: float, n: np.ndarray) -> np.ndarray:
    phi = (params.a * math.cos(theta) + params.b) / math.sin(theta)
    return n * theta - phi * np.log(2.0 * n)


def _linear_fit(values: np.ndarray, g: np.ndarray, n: np.ndarray):
    # leading cosine pair plus 1/n-modulated pair: the second pair soaks
    # up the next-order term so its phase does not bias the leading one
    design = np.column_stack([np.cos(g), np.sin(g), np.cos(g) / n, np.sin(g) / n])
    sol, res, *_ = np.linalg.lstsq(design, values, rcond=None)
    model = design @ sol
    return sol[:2], float(np.sqrt(np.mean((values - model) ** 2)))


def fit_asymptotics(seq: pollaczek.PolynomialSequence, window) -> FitResult:
    """Recover (theta, amplitude, psi) empirically from exact orthonormal
    values, without using arccos of the argument.

    Steps: a drift-corrected three-point ratio gives a first theta (the
    ratio (p_{n+1}+p_{n-1})/(2 p_n) equals cos(theta - phi/n) up to
    higher order, so a least-squares line in 1/n removes the slow
    logarithmic drift); theta is then refined by minimizing the residual
    of a two-parameter cosine fit, whose coherence over the window
    sharpens theta far below the contract tolerance; amplitude and
    residual phase come from that final fit.

    `window` is (start, length) with start >= 100 and length >= 200.
    Raises FitError when the sequence is not oscillatory (bound-regime
    input or too few sign changes).
    """
    start, length = window
    if start < 100 or length < 200:
        raise ValueError("window must satisfy start >= 100, length >= 200")
    if seq.normalization != "orthonormal":
        raise ValueError("fit expects the orthonormal normalization")
    x = seq.argument
    if isinstance(x, complex) or abs(x) >= 1.0:
        raise FitError("sequence argument outside the oscillatory band")
    vals = np.asarray(seq.values, dtype=float)
    if start + length + 1 > len(vals):
        raise ValueError("window exceeds the available sequence")
    n = np.arange(start, start + length)
    p = vals[n]
    if not np.all(np.isfinite(p)):
        raise FitError("sequence diverges over the window")
    signs = np.sign(p)
    flips = int(np.sum(signs[1:] * signs[:-1] < 0))
    quarter = length // 4
    envelope_growth = np.mean(np.abs(p[-quarter:])) / max(np.mean(np.abs(p[:quarter])), 1e-300)
    if flips < 3 or envelope_growth > 10.0 or envelope_growth < 0.1:
        raise FitError("sequence is not oscillatory over the window")

    # stage 1: drift-corrected ratio estimate of theta
    interior = n[1:-1]
    keep = np.abs(vals[interior]) > 0.2 * np.max(np.abs(p))
    interior = interior[keep]
    if interior.size < 10:
        raise FitError("too few usable points for the ratio estimate")
    ratio = (vals[interior + 1] + vals[interior - 1]) / (2.0 * vals[interior])
    ratio = np.clip(ratio, -1.0, 1.0)
    ninv = 1.0 / interior
    theta_eff = np.arccos(ratio)
    design = np.column_stack([np.ones_like(ninv), ninv])
    (theta0, _), *_ = np.linalg.lstsq(design, theta_eff, rcond=None)

    # stage 2: refine theta by golden-section on the cosine-fit residual
    def cost(th):
        _, r = _linear_fit(p, _drift(seq.params, th, n), n)
        return r

    lo, hi = theta0 - 2e-3, theta0 + 2e-3
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - inv_phi * (hi - lo)
    c2 = lo + inv_phi * (hi - lo)
    f1, f2 = cost(c1), cost(c2)
    for _ in range(70):
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - inv_phi * (hi - lo)
            f1 = cost(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + inv_phi * (hi - lo)
            f2 = cost(c2)
    theta_est = 0.5 * (lo + hi)

    (coef_c, coef_s), residual = _linear_fit(p, _drift(seq.params, theta_est, n), n)
    amplitude_est = math.hypot(coef_c, coef_s)
    delta = math.atan2(-coef_s, coef_c)
    phi_est = (seq.params.a * math.cos(theta_est) + seq.params.b) / math.sin(theta_est)
    psi_est = (
        delta
        - seq.params.lam * (theta_est - 0.5 * math.pi)
        + phi_est * math.log(math.sin(theta_est))
    )
    psi_est = (psi_est + math.pi) % (2.0 * math.pi) - math.pi
    return FitResult(theta=float(theta_est), amplitude=amplitude_est, psi=psi_est, residual=residual)
