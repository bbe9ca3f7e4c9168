"""Pollaczek polynomial family at a = 0 (the shift the physical map
produces): evaluation in the standard, symmetric and orthonormal
normalizations, generating-function partial sums, and the large-degree
Darboux approximants for the oscillatory (|x| < 1) and exponential
(|x| > 1) regimes.  The associated (second) solution of the recursion is
`resolvent.solution_pair` on `jacobi_coefficients`.

Forward recursion is the normative evaluator for |x| <= 1 where the
polynomials are the dominant solution.  For |x| > 1 the sequences grow
geometrically and overflow doubles quickly, and near quantization points
the wanted solution is minimal, so the evaluator switches to 40-digit
mpmath floats there.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import recurrence, specfun
from .errors import BranchError, PoleError, RadiusError
from .model import AngleParameters, RecursionCoefficients, angle_map

__all__ = [
    "PollaczekParams",
    "PolynomialSequence",
    "evaluate",
    "to_symmetric",
    "to_orthonormal",
    "recursion_residual",
    "generating_partial_sum",
    "generating_closed_form",
    "phase_parameter",
    "scattering_amplitude_phase",
    "drifting_phase",
    "asymptotic_scattering",
    "asymptotic_bound",
    "asymptotic_bound_log",
    "jacobi_coefficients",
]

@dataclass(frozen=True)
class PollaczekParams:
    """Family parameters (lam > 0) of the a = 0 family.  At one argument x
    a shift a would only move b to b + a x."""

    lam: float
    b: float = 0.0

    def __post_init__(self):
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


def _recursion(params: PollaczekParams, x, n_max: int, symmetric: bool):
    """(A, B, C) for rows 0..max(1, n_max)-1 of the standard recursion

        (n+1) P_{n+1} = 2[(n+lam)x + b] P_n - (n+2lam-1) P_{n-1}

    or of the symmetrized one,

        b_n Q_{n+1} = [(n+lam)x + b] Q_n - b_{n-1} Q_{n-1},
        b_n = sqrt((n+1)(n+2lam))/2,

    in the arithmetic of x (a double, a complex or an mpmath number)."""
    lam, b = params.lam, params.b
    k = np.arange(max(1, n_max), dtype=float)
    diag = (k + lam).tolist()
    if symmetric:
        off = (0.5 * np.sqrt((k + 1.0) * (k + 2.0 * lam))).tolist()
        return [d * x + b for d in diag], off, [0.0] + off[:-1]
    return [2 * (d * x + b) for d in diag], (k + 1.0).tolist(), (k + 2 * lam - 1).tolist()


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
        A, B, C = _recursion(params, xw, n_max, False)
        vals = recurrence.forward(A, B, C, one, 2 * params.lam * xw + 2 * params.b, n_max)
    return PolynomialSequence(vals if extended else np.asarray(vals), x, "standard", params)


def _symmetric_scale(params: PollaczekParams, n: int) -> float:
    # P_n = sqrt(Gamma(n+2lam) / (Gamma(n+1) Gamma(2lam+1))) Q_n
    lam = params.lam
    return math.exp(0.5 * (math.lgamma(n + 1.0) + math.lgamma(2.0 * lam + 1.0) - math.lgamma(n + 2.0 * lam)))


def _orthonormal_scale(params: PollaczekParams, n: int) -> float:
    # p_n = sqrt(Gamma(n+1)(lam+n) / Gamma(n+2lam)) P_n
    lam = params.lam
    return math.exp(0.5 * (math.lgamma(n + 1.0) + math.log(lam + n) - math.lgamma(n + 2.0 * lam)))


def _rescaled(seq: PolynomialSequence, scale, name: str) -> PolynomialSequence:
    vals = seq.values
    if isinstance(vals, np.ndarray):
        factors = np.array([scale(seq.params, n) for n in range(len(vals))])
        return PolynomialSequence(vals * factors, seq.argument, name, seq.params)
    out = [v * scale(seq.params, n) for n, v in enumerate(vals)]
    return PolynomialSequence(out, seq.argument, name, seq.params)


def to_symmetric(seq: PolynomialSequence) -> PolynomialSequence:
    """Rescale a standard sequence to the symmetric normalization
    Q_n = P_n sqrt(Gamma(n+1) Gamma(2lam+1) / Gamma(n+2lam)).  Note
    Q_0 = sqrt(2 lam), not 1: the transformation is kept verbatim and
    only ratios and recursion residuals carry meaning."""
    if seq.normalization != "standard":
        raise ValueError("to_symmetric expects the standard normalization")
    return _rescaled(seq, _symmetric_scale, "symmetric")


def to_orthonormal(seq: PolynomialSequence) -> PolynomialSequence:
    """Rescale a standard sequence to the orthonormal normalization;
    ratios go through log-Gamma so large degrees do not overflow."""
    if seq.normalization != "standard":
        raise ValueError("to_orthonormal expects the standard normalization")
    return _rescaled(seq, _orthonormal_scale, "orthonormal")


def recursion_residual(seq: PolynomialSequence) -> float:
    """Max over n of |LHS - RHS| / (1 + |LHS|) of the recursion the
    sequence is supposed to satisfy (standard or symmetric form)."""
    if seq.normalization not in ("standard", "symmetric"):
        raise ValueError(f"no recursion residual for normalization {seq.normalization!r}")
    A, B, C = _recursion(seq.params, seq.argument, len(seq.values) - 1, seq.normalization == "symmetric")
    return recurrence.residual(A, B, C, seq.values)


# --- generating function -----------------------------------------------------


def phase_parameter(params: PollaczekParams, theta):
    """phi(theta) = b / sin(theta), elementwise: theta
    real or complex, a scalar or an ndarray.  The phi of
    generating_closed_form, scattering_amplitude_phase and
    scattering.fit_asymptotics (model.angle_map gives it from x)."""
    return params.b / np.sin(theta)


def generating_partial_sum(params: PollaczekParams, theta, t, n_max: int) -> complex:
    """Partial sum sum_{n=0}^{n_max} P_n(cos theta) t^n.  Requires |t|
    at least 5% inside the convergence disc bounded by the nearer of the
    two singularities e^{+-i theta}."""
    theta = complex(theta)
    t = complex(t)
    radius = min(abs(cmath.exp(1j * theta)), abs(cmath.exp(-1j * theta)))
    if abs(t) > radius / 1.05:
        raise RadiusError(f"|t| = {abs(t):.6g} outside 0.95 * radius {radius:.6g}")
    seq = evaluate(params, cmath.cos(theta), n_max)
    powers = t ** np.arange(n_max + 1)
    return complex(np.sum(np.asarray(seq.values) * powers))


def generating_closed_form(params: PollaczekParams, theta, t) -> complex:
    """(1 - t e^{i theta})^{-lam + i phi} (1 - t e^{-i theta})^{-lam - i phi}."""
    theta = complex(theta)
    t = complex(t)
    lam = params.lam
    phi = phase_parameter(params, theta)
    u = (-lam + 1j * phi) * cmath.log(1 - t * cmath.exp(1j * theta))
    v = (-lam - 1j * phi) * cmath.log(1 - t * cmath.exp(-1j * theta))
    return cmath.exp(u + v)


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


def drifting_phase(psi: float, lam: float, theta: float, phi: float, n: int) -> float:
    """Slowly drifting phase psi_n of the cos(n theta + psi_n)
    approximant, given the Gamma phase psi:

        psi_n = psi + lam (theta - pi/2) - phi ln(2 n sin theta).

    The n-dependence is exactly -phi ln n.  The ln(sin theta) constant
    comes from the (2 e^{-i pi/2} sin theta)^{-(lam - i phi)} factor of
    the singular expansion; dropping it leaves an O(1) phase offset that
    does not decay with n.
    """
    return psi + lam * (theta - 0.5 * math.pi) - phi * math.log(2.0 * n * math.sin(theta))


def asymptotic_scattering(params: PollaczekParams, theta: float, n: int) -> float:
    """Oscillatory-regime approximant of the orthonormal value p_n at
    x = cos(theta): amplitude * cos(n theta + psi_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    amplitude, psi, phi = scattering_amplitude_phase(params, theta)
    return amplitude * math.cos(n * theta + drifting_phase(psi, params.lam, theta, phi, n))


def asymptotic_bound_log(params: PollaczekParams, x: float, n: int):
    """(log modulus, sign) of the leading bound-regime term; sign is the
    real phase factor (+-1).  Returns (-inf, 1.0) at quantization points
    where the reciprocal Gamma kills the leading term.  w = e^{i theta}
    and phi = i q come from model.angle_map; the exponent lam -+ i phi =
    lam +- q has its Gamma poles at the branch's quantization points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(x) <= 1.0:
        raise BranchError("bound-regime form needs |x| > 1")
    ang = angle_map(x, params.b)
    w = ang.exp_i_theta.real
    exponent = params.lam + ang.phi.imag if x > 1.0 else params.lam - ang.phi.imag
    lam = params.lam
    try:
        lg = specfun.log_gamma(exponent)
    except PoleError:
        return -math.inf, 1.0
    if x > 1.0:
        # n^{lam - i phi - 1} e^{i n theta} (1 - e^{-2 i theta})^{-(lam + i phi)} / Gamma(lam - i phi)
        other = 2.0 * lam - exponent      # lam + i phi
        log_mod = (exponent - 1.0) * math.log(n) + n * math.log(w) - other * math.log1p(-w ** -2) - lg.real
        return log_mod, 1.0
    # x < -1: n^{lam + i phi - 1} e^{-i n theta} (1 - e^{+2 i theta})^{-(lam - i phi)} / Gamma(lam + i phi)
    other = 2.0 * lam - exponent
    log_mod = (exponent - 1.0) * math.log(n) + n * math.log(abs(1.0 / w)) - other * math.log1p(-w * w) - lg.real
    sign = 1.0 if n % 2 == 0 else -1.0    # e^{-i n theta} = (1/w)^n with 1/w < -1
    return log_mod, sign


def asymptotic_bound(params: PollaczekParams, x: float, n: int) -> complex:
    """Leading Darboux term of P_n for |x| > 1; exactly zero when the
    branch exponent lam -+ i phi is a non-positive integer (the
    quantization condition).  Overflows to inf when the term exceeds
    double range; use asymptotic_bound_log for ratio tests at large n."""
    log_mod, sign = asymptotic_bound_log(params, x, n)
    if log_mod == -math.inf:
        return 0.0 + 0.0j
    if log_mod > 709.0:
        return complex(sign * math.inf)
    return complex(sign * math.exp(log_mod))


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
