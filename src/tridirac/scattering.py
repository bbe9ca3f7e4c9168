"""Relativistic phase shifts and amplitudes from the oscillatory
asymptotics of the orthonormal polynomial solutions, plus an empirical
extractor that fits the asymptotic form to exact recursion output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import pollaczek
from .errors import DomainError, FitError, SingularMapError, ThresholdError
from .model import PhysicalParams, Regime, derive, energy_point, scattering_angles

__all__ = [
    "PhaseShiftResult",
    "FitResult",
    "phase_shift",
    "phase_shift_sweep",
    "fit_asymptotics",
]


@dataclass(frozen=True)
class PhaseShiftResult:
    """Scattering quantities at one energy, or at each energy of an
    array: the angle theta in (0, pi), the phase parameter phi, the Gamma
    phase psi = arg Gamma(lam + i phi), the positive amplitude, and the
    drifting phase psi_n of the cos(n theta + psi_n) asymptotic form.
    Fields are floats for one energy and ndarrays (lam excepted) for an
    array of energies."""

    eps: object
    theta: object
    phi: object
    psi: object
    amplitude: object
    lam: float

    def psi_n(self, n: int) -> float:
        """pollaczek.drifting_phase at this one-energy result's psi, lam,
        theta and phi."""
        return pollaczek.drifting_phase(self.psi, self.lam, self.theta, self.phi, n)


@dataclass(frozen=True)
class FitResult:
    theta: float
    amplitude: float
    psi: float
    residual: float


def _check_regime(energies: np.ndarray) -> None:
    # the first energy (in order) outside the scattering regime raises;
    # only |eps| <= 1 + 1e-14, a superset of the threshold band, can be one
    for eps in energies[~(np.abs(energies) > 1.0 + 1e-14)].tolist():
        regime = energy_point(eps).regime
        if regime is Regime.THRESHOLD:
            raise ThresholdError("phase shift undefined at |eps| = 1")
        if regime is not Regime.SCATTERING:
            raise DomainError("phase shift needs |eps| > 1")


def _check_finite(name: str, values: np.ndarray, energies: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise SingularMapError(f"{name} is not finite at eps={float(energies[bad][0])!r}")


def phase_shift(p: PhysicalParams, eps) -> PhaseShiftResult:
    """Amplitude and phases of the oscillatory asymptotics at |eps| > 1.

    theta and phi come from the closed forms of model.scattering_angles:
    tan(theta/2) = beta/sqrt(eps^2-1) and phi = -compton Z eps /
    sqrt(eps^2-1), the Sommerfeld parameter (independent of omega).
    Amplitude and psi come from one pollaczek.scattering_amplitude_phase
    call, and so from one log_gamma call, for all energies.

    Elementwise: a float eps gives a result of floats; a float ndarray of
    energies gives one result of ndarrays, from one `derive`.  Raises
    ThresholdError or DomainError for the first energy at |eps| = 1 or
    below it, and SingularMapError when theta leaves (0, pi) or phi, psi
    or the amplitude is not finite (|eps| so large that eps^2 or the
    amplitude overflows).
    """
    energies = np.atleast_1d(np.asarray(eps, dtype=float))
    _check_regime(energies)
    d = derive(p)
    angles = scattering_angles(d, energies)
    inside = (0.0 < angles.theta) & (angles.theta < math.pi)
    if not inside.all():
        bad = float(energies[~inside][0])
        raise SingularMapError(f"theta degenerates at eps={bad!r}: eps^2 - 1 is not a finite double")
    _check_finite("phi", angles.phi, energies)
    params = pollaczek.PollaczekParams(lam=d.gamma_eff + 1.0)
    amplitude, psi, phi = pollaczek.scattering_amplitude_phase(params, angles)
    _check_finite("psi", psi, energies)
    _check_finite("amplitude", amplitude, energies)
    if np.ndim(eps) == 0:
        return PhaseShiftResult(eps=eps, theta=float(angles.theta[0]), phi=float(phi[0]), psi=float(psi[0]),
                                amplitude=float(amplitude[0]), lam=params.lam)
    return PhaseShiftResult(eps=energies, theta=angles.theta, phi=phi, psi=psi, amplitude=amplitude,
                            lam=params.lam)


def _continue_branch(psi: np.ndarray) -> np.ndarray:
    """psi shifted by multiples of 2 pi onto a continuous branch: a step
    d between neighbours with |d| > pi is corrected by
    ceil((|d| - pi)/(2 pi)) turns against its sign, so it ends in
    [-pi, pi]; a step of exactly +-pi is left alone.  Each shifted value
    is (psi + earlier shifts) + its own shift, rounded in the order of
    the per-energy loop this replaced, so single-turn steps match it bit
    for bit."""
    if psi.size < 2:
        return psi + 0.0
    step = np.diff(psi)
    shift = -2.0 * math.pi * np.sign(step) * np.ceil((np.abs(step) - math.pi) / (2.0 * math.pi))
    earlier = np.concatenate(([0.0, 0.0], np.cumsum(shift)[:-1]))
    return psi + earlier + np.concatenate(([0.0], shift))


def phase_shift_sweep(p: PhysicalParams, eps_values) -> PhaseShiftResult:
    """Phase shifts along an energy sweep, as one PhaseShiftResult of
    ndarrays, with the Gamma phase kept on a continuous branch: a 2 pi
    correction is applied only when the step between neighbours exceeds
    pi."""
    r = phase_shift(p, np.asarray(eps_values, dtype=float).reshape(-1))
    return replace(r, psi=_continue_branch(r.psi))


def _drift(params: pollaczek.PollaczekParams, theta: float, n: np.ndarray) -> np.ndarray:
    return n * theta - pollaczek.phase_parameter(params, theta) * np.log(2.0 * n)


def _linear_fit(values: np.ndarray, g: np.ndarray, n: np.ndarray):
    # leading cosine pair plus 1/n-modulated pair: the second pair soaks
    # up the next-order term so its phase does not bias the leading one
    design = np.column_stack([np.cos(g), np.sin(g), np.cos(g) / n, np.sin(g) / n])
    sol, res, *_ = np.linalg.lstsq(design, values, rcond=None)
    model = design @ sol
    return sol[:2], float(np.sqrt(np.mean((values - model) ** 2)))


def _brent_minimize(f, a: float, b: float):
    """Brent's bounded minimizer (Algorithms for Minimization without
    Derivatives, 1973, ch. 5) of f on [a, b]: a parabola through the three
    best points x, w, v gives the next step when it lands inside the
    bracket and is shorter than half the step before last, a golden-section
    step into the larger side otherwise.  No two evaluations are closer
    than tol = 2 eps |x| + 5e-14.  Stops when every point of the bracket
    lies within 2 tol of x, or after 100 evaluations (golden section alone
    needs about 50 on the fit's bracket); returns x and 2 tol."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    eps = np.finfo(float).eps
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    step = before_last = 0.0
    evals = 1
    while True:
        mid = 0.5 * (a + b)
        tol = 2.0 * eps * abs(x) + 5e-14
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a) or evals == 100:
            return x, 2.0 * tol
        parabolic = False
        if abs(before_last) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            limit, before_last = before_last, step
            if abs(p) < abs(0.5 * q * limit) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if x < mid else -tol
        if not parabolic:
            before_last = (a if x >= mid else b) - x
            step = golden * before_last
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit_asymptotics(seq: pollaczek.PolynomialSequence, window) -> FitResult:
    """Recover (theta, amplitude, psi) empirically from exact orthonormal
    values, without using arccos of the argument.

    Steps: a drift-corrected three-point ratio gives a first theta (the
    ratio (p_{n+1}+p_{n-1})/(2 p_n) equals cos(theta - phi/n) up to
    higher order, so a least-squares line in 1/n removes the slow
    logarithmic drift); theta is then refined within 2e-3 of it by
    Brent's bounded search on the squared residual of the cosine fit,
    whose coherence over the window sharpens theta far below the contract
    tolerance.  Near its minimum that squared residual is close to a
    parabola in theta, so the parabolic steps converge in a few fits; the
    search stops once theta is resolved to 4 eps |theta| + 1e-13, or
    after 100 fits.  Amplitude and residual phase come from a final fit
    at that theta.

    `window` is (start, length) with start >= 100 and length >= 200.
    Raises FitError when the sequence is not oscillatory (bound-regime
    input or too few sign changes), and when the search ends within its
    stop tolerance of either end of the bracket: the residual's minimum
    then lies outside it (a short window biases the first theta by more
    than 2e-3), and a bracket end is no estimate of theta.
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

    # stage 2: refine theta by Brent's search on the squared cosine-fit residual
    def cost(th):
        _, r = _linear_fit(p, _drift(seq.params, th, n), n)
        return r * r

    lo, hi = theta0 - 2e-3, theta0 + 2e-3
    theta_est, tol = _brent_minimize(cost, lo, hi)
    if theta_est - lo <= tol or hi - theta_est <= tol:
        raise FitError("theta search did not bracket a minimum")

    (coef_c, coef_s), residual = _linear_fit(p, _drift(seq.params, theta_est, n), n)
    amplitude_est = math.hypot(coef_c, coef_s)
    delta = math.atan2(-coef_s, coef_c)
    phi_est = float(pollaczek.phase_parameter(seq.params, theta_est))
    psi_est = (
        delta
        - seq.params.lam * (theta_est - 0.5 * math.pi)
        + phi_est * math.log(math.sin(theta_est))
    )
    psi_est = (psi_est + math.pi) % (2.0 * math.pi) - math.pi
    return FitResult(theta=float(theta_est), amplitude=amplitude_est, psi=float(psi_est), residual=residual)
