"""Pollaczek polynomial family at a = 0 (the shift the physical map
produces): evaluation in the standard and orthonormal normalizations, the
large-degree Darboux approximant of the oscillatory regime (|x| < 1), and
the Jacobi matrix of the orthonormal recursion.  The associated (second)
solution of the recursion is `resolvent.solution_pair` on
`jacobi_coefficients`.

Forward recursion is the normative evaluator for |x| <= 1 where the
polynomials are the dominant solution.  For |x| > 1 the sequences grow
geometrically and overflow doubles quickly, and near quantization points
the wanted solution is minimal, so the evaluator switches to 40-digit
mpmath floats there.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import recurrence, specfun
from .errors import BranchError
from .model import AngleParameters, RecursionCoefficients

__all__ = [
    "PollaczekParams",
    "PolynomialSequence",
    "evaluate",
    "to_orthonormal",
    "phase_parameter",
    "scattering_amplitude_phase",
    "drifting_phase",
    "asymptotic_scattering",
    "jacobi_coefficients",
]

@dataclass(frozen=True)
class PollaczekParams:
    """Family parameters (lam > 0) of the a = 0 family.  At one argument x
    a shift a would only move b to b + a x."""

    lam: float
    b: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and np.isfinite(self.b).all()):
            raise ValueError("lam and b must be finite")
        if not self.lam > 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True)
class PolynomialSequence:
    """Values of one normalization at a fixed argument.  `values` is an
    ndarray in double precision or a list of mpmath numbers when the
    evaluation ran in extended precision."""

    values: object
    argument: object
    normalization: str
    params: PollaczekParams


def evaluate(params: PollaczekParams, x, n_max: int) -> PolynomialSequence:
    """Values P_0..P_{n_max} of the standard normalization by forward
    recursion:

        (n+1) P_{n+1} = 2[(n+lam)x + b] P_n - (n+2lam-1) P_{n-1},
        P_0 = 1,  P_1 = 2 lam x + 2b.

    Runs in 40-digit mpmath for real |x| > 1 (values: a list of mpf) and
    in doubles otherwise (values: an ndarray); complex arguments always
    use plain complex arithmetic.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    extended = not isinstance(x, complex) and abs(x) > 1.0
    with mp.workdps(40) if extended else contextlib.nullcontext():
        if extended:
            xw, one = mp.mpmathify(x), mp.mpf(1)
        else:
            xw, one = x, complex(1.0) if isinstance(x, complex) else 1.0
        lam, b = params.lam, params.b
        k = np.arange(max(1, n_max), dtype=float)
        A = [2 * (d * xw + b) for d in (k + lam).tolist()]
        vals = recurrence.forward(A, (k + 1.0).tolist(), (k + 2 * lam - 1).tolist(), one, 2 * lam * xw + 2 * b, n_max)
    return PolynomialSequence(vals if extended else np.asarray(vals), x, "standard", params)


def to_orthonormal(seq: PolynomialSequence) -> PolynomialSequence:
    """Rescale a standard sequence to the orthonormal normalization,
    p_n = s_n P_n with s_n = sqrt(n! (lam+n) / Gamma(n+2lam)): s_0 =
    exp((ln lam - lgamma(2lam)) / 2) times the running product of
    sqrt(k (lam+k) / ((lam+k-1) (k+2lam-1))), k = 1..n, so no factor
    overflows at large degrees or large lam."""
    if seq.normalization != "standard":
        raise ValueError("to_orthonormal expects the standard normalization")
    lam = seq.params.lam
    k = np.arange(1.0, len(seq.values))
    steps = np.sqrt(k * (lam + k) / ((lam + k - 1.0) * (k + 2.0 * lam - 1.0)))
    scale = math.exp(0.5 * (math.log(lam) - math.lgamma(2.0 * lam)))
    factors = np.cumprod(np.concatenate(([scale], steps)))
    if isinstance(seq.values, np.ndarray):
        values = seq.values * factors
    else:
        values = [v * f for v, f in zip(seq.values, factors.tolist())]
    return PolynomialSequence(values, seq.argument, "orthonormal", seq.params)


def phase_parameter(params: PollaczekParams, theta):
    """phi(theta) = b / sin(theta), elementwise: theta
    real or complex, a scalar or an ndarray.  The phi of
    scattering_amplitude_phase and scattering.fit_asymptotics
    (model.theta_phi gives it from x)."""
    return params.b / np.sin(theta)


# --- Darboux approximants ----------------------------------------------------


def scattering_amplitude_phase(params: PollaczekParams, theta):
    """Energy-dependent amplitude and Gamma phase of the oscillatory
    approximant, returned as (amplitude, psi, phi):

        amplitude = 2 e^{(pi/2-theta) phi} / (|Gamma(lam+i phi)| (2 sin theta)^lam),
        psi = arg Gamma(lam+i phi),

    the amplitude summed in log space, so only a result beyond the double
    range overflows (to inf, without a warning).

    `theta` is either the angle in (0, pi), with phi and sin(theta) taken
    from it (phi = phase_parameter(params, theta)), or a scattering
    AngleParameters (model.scattering_angles), whose theta, phi and
    sin theta = Im e^{i theta} are used as given and params supplies lam
    only; the closed forms keep their digits where theta nears 0 or pi.

    Elementwise: a float theta gives floats; an ndarray theta (params.b a
    float or an ndarray of the same shape), or an AngleParameters of
    ndarrays, gives ndarrays.  Either way specfun.log_gamma runs once.
    """
    angle = theta.theta if isinstance(theta, AngleParameters) else theta
    if not np.all((0.0 < angle) & (angle < math.pi)):
        raise BranchError("scattering form needs theta in (0, pi)")
    if isinstance(theta, AngleParameters):
        phi, sin_theta = theta.phi, theta.exp_i_theta.imag
    else:
        phi, sin_theta = phase_parameter(params, theta), np.sin(theta)
    lam = params.lam
    lg = specfun.log_gamma(lam + 1j * phi)
    with np.errstate(over="ignore"):
        amplitude = 2.0 * np.exp((0.5 * math.pi - angle) * phi - lg.real - lam * np.log(2.0 * sin_theta))
    return amplitude, lg.imag, phi


def drifting_phase(psi: float, lam: float, theta: float, phi: float, n):
    """Slowly drifting phase psi_n of the cos(n theta + psi_n)
    approximant, given the Gamma phase psi:

        psi_n = psi + lam (theta - pi/2) - phi ln(2 n sin theta).

    The n-dependence is exactly -phi ln n.  The ln(sin theta) constant
    comes from the (2 e^{-i pi/2} sin theta)^{-(lam - i phi)} factor of
    the singular expansion; dropping it leaves an O(1) phase offset that
    does not decay with n.  Elementwise in n: an int gives a float, an
    ndarray of degrees an ndarray (scattering.fit_asymptotics fits its
    window with psi = 0 and reads psi off as the fitted offset).
    """
    return psi + lam * (theta - 0.5 * math.pi) - phi * np.log(2.0 * n * np.sin(theta))


def asymptotic_scattering(params: PollaczekParams, theta: float, n: int) -> float:
    """Oscillatory-regime approximant of the orthonormal value p_n at
    x = cos(theta): amplitude * cos(n theta + psi_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    amplitude, psi, phi = scattering_amplitude_phase(params, theta)
    return amplitude * math.cos(n * theta + drifting_phase(psi, params.lam, theta, phi, n))


def jacobi_coefficients(params: PollaczekParams) -> RecursionCoefficients:
    """Jacobi-matrix coefficients of the orthonormal recursion in the
    polynomial argument:

        x p_n = atil_n p_n + btil_{n-1} p_{n-1} + btil_n p_{n+1},
        atil_n = -b / (n+lam),
        btil_n = sqrt((n+1)(n+2lam)) / (2 sqrt((n+lam)(n+lam+1))).

    This is the operator whose spectral measure is the orthogonality
    measure of the family (continuous on [-1, 1] plus any discrete
    points outside).
    """
    lam, b = params.lam, params.b

    def diag(n):
        return -b / (n + lam)

    def offdiag(n):
        return 0.5 * np.sqrt((n + 1.0) * (n + 2.0 * lam) / ((n + lam) * (n + lam + 1.0)))

    return RecursionCoefficients(diag=diag, offdiag=offdiag)
