"""Physical parameterization of the relativistic Coulomb problem.

Holds the experiment's knobs (charge coupling Z, spin-orbit number kappa,
Compton length, Laguerre scale omega), the derived constants, the regime
of an energy, the map from an energy to the Pollaczek parameter set, the
angle/phase pair that controls the polynomial asymptotics, the spinor
rotation that uncouples the radial system, and the discrete symmetry
maps.

Units: energies are eps = E/mc^2 (dimensionless), lengths are Bohr radii,
so the physical Compton length equals the fine-structure constant.
Energies are plain floats.  `regime` is the one place that compares
|eps| with 1: every operation that needs a bound or a scattering energy
asks it, so all of them put the threshold band |eps| = 1 +- 1e-15 on the
same side.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    SingularMapError,
    SupercriticalError,
    ThresholdError,
)

__all__ = [
    "PhysicalParams",
    "DerivedParams",
    "Regime",
    "RecursionCoefficients",
    "PollaczekMap",
    "AngleParameters",
    "FINE_STRUCTURE",
    "THRESHOLD_TOL",
    "derive",
    "regime",
    "check_regime",
    "eps_sq_minus_one",
    "map_to_pollaczek",
    "theta_phi",
    "scattering_angles",
    "recursion_coefficients",
    "wave_rows",
    "growth_rate",
    "spinor_rotation",
    "negative_energy_map",
]

FINE_STRUCTURE = 7.2973525693e-3  # CODATA alpha; the physical Compton length in Bohr radii

THRESHOLD_TOL = 1e-15  # half-width of the threshold band around |eps| = 1


@dataclass(frozen=True)
class PhysicalParams:
    """Model knobs. Z < 0 is attractive; kappa is a nonzero integer (an
    int or a numpy integer, not a float) of magnitude at most 2**53,
    below which every integer is exactly a double; compton and omega are
    positive; z, compton and omega are finite, and compton^2 (the radial
    constant's divisor) does not underflow to 0."""

    z: float
    kappa: int
    compton: float = FINE_STRUCTURE
    omega: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.z, self.compton, self.omega)):
            raise ConfigError("z, compton and omega must be finite")
        if not isinstance(self.kappa, numbers.Integral) or self.kappa == 0:
            raise ConfigError(f"kappa must be a nonzero integer, got {self.kappa!r}")
        if abs(self.kappa) > 2**53:
            raise ConfigError(f"|kappa| must be at most 2**53, got {self.kappa}")
        if self.compton <= 0 or self.omega <= 0:
            raise ConfigError("compton and omega must be positive")
        if self.compton * self.compton == 0.0:
            raise ConfigError(f"compton^2 underflows to 0 at compton={self.compton!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from PhysicalParams.

    gamma carries the sign of kappa; gamma_eff is the coefficient-map
    parameter actually used in the recursion (gamma for kappa > 0,
    -gamma - 1 for kappa < 0).
    """

    z: float
    kappa: int
    compton: float
    omega: float
    gamma: float
    alpha: float
    beta: float

    @property
    def gamma_eff(self) -> float:
        return self.gamma if self.kappa > 0 else -self.gamma - 1.0


class Regime(Enum):
    BOUND = "bound"
    SCATTERING = "scattering"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class RecursionCoefficients:
    """Coefficient maps of a symmetric three-term recursion: diag(n) and
    offdiag(n) > 0.

    Both maps are elementwise: given an int they return that level's
    coefficient, and given a float ndarray of indices they return the
    array of coefficients at those indices, each value equal to the
    scalar call's.  Write them with numpy functions (np.sqrt, not
    math.sqrt), and a constant map as e.g. `lambda n: 0.5 + 0.0 * n`.
    Evaluators read coefficients through `block`, a few hundred levels
    per call, never one map call per level.
    """

    diag: object
    offdiag: object

    def block(self, lo, hi):
        """(diag, offdiag) float arrays over the levels lo..hi-1."""
        n = np.arange(lo, hi, dtype=float)
        return self.diag(n), self.offdiag(n)


@dataclass(frozen=True)
class PollaczekMap:
    """Energy point mapped to the Pollaczek parameter set (a = 0); x is
    the polynomial argument, b the linear-shift parameter,
    lam = gamma_eff + 1."""

    x: float
    b: float
    lam: float


@dataclass(frozen=True)
class AngleParameters:
    """theta/phi pair of the polynomial asymptotics at one energy (or,
    from `scattering_angles`, at each energy of an array).

    Scattering: theta real in (0, pi), phi real.  Bound: theta purely
    imaginary up to a possible real part pi (x < -1 branch), phi purely
    imaginary; the branch is fixed so that |e^{i theta}| > 1 for x > 1
    and |e^{i theta}| < 1 for x < -1.
    """

    theta: complex
    phi: complex
    exp_i_theta: complex
    branch: str  # "scattering" | "bound_right" | "bound_left"


def derive(params: PhysicalParams) -> DerivedParams:
    """Derived constants; raises SupercriticalError when the coupling is
    too strong for a real gamma (|compton*Z/kappa| >= 1)."""
    lam = params.compton
    ratio = lam * params.z / params.kappa
    if abs(ratio) >= 1.0:
        raise SupercriticalError(f"|compton*Z/kappa| = {abs(ratio):.6g} >= 1")
    gamma = params.kappa * math.sqrt(1.0 - ratio * ratio)
    alpha = lam * lam * params.omega * params.z
    beta = 0.5 * lam * params.omega
    return DerivedParams(
        z=params.z,
        kappa=params.kappa,
        compton=lam,
        omega=params.omega,
        gamma=gamma,
        alpha=alpha,
        beta=beta,
    )


def regime(eps: float) -> Regime:
    """The regime of a dimensionless energy: THRESHOLD within 1e-15 of
    |eps| = 1, BOUND below that band and SCATTERING above it (a NaN is
    SCATTERING)."""
    if abs(abs(eps) - 1.0) <= THRESHOLD_TOL:
        return Regime.THRESHOLD
    return Regime.BOUND if abs(eps) < 1.0 else Regime.SCATTERING


def check_regime(eps: float, wanted: Regime, what: str) -> None:
    """Refuse an energy outside the regime `wanted` (BOUND or SCATTERING)
    of the operation `what`: ThresholdError in the threshold band,
    DomainError in the other regime."""
    energy_regime = regime(eps)
    if energy_regime is Regime.THRESHOLD:
        raise ThresholdError(f"{what} undefined at |eps| = 1")
    if energy_regime is not wanted:
        raise DomainError(f"{what} needs |eps| {'<' if wanted is Regime.BOUND else '>'} 1")


def eps_sq_minus_one(eps: float) -> float:
    # factored form keeps full precision when eps is close to +-1
    return (eps - 1.0) * (eps + 1.0)


def map_to_pollaczek(d: DerivedParams, eps: float) -> PollaczekMap:
    """The energy-to-Pollaczek identification:
    x = (eps^2-1-beta^2)/(eps^2-1+beta^2),
    b = -alpha*eps/(eps^2-1+beta^2), lam = gamma_eff + 1."""
    s = eps_sq_minus_one(eps)
    den = s + d.beta * d.beta
    # relative cutoff: below it the map loses all significant digits
    if abs(den) <= 1e-12 * (abs(s) + d.beta * d.beta):
        raise SingularMapError(f"eps^2 = 1 - beta^2 at eps={eps}")
    x = (s - d.beta * d.beta) / den
    b = -d.alpha * eps / den
    return PollaczekMap(x=x, b=b, lam=d.gamma_eff + 1.0)


def theta_phi(d: DerivedParams, eps: float) -> AngleParameters:
    """theta with cos(theta) = x, e^{i theta} and phi = b/sin(theta) at
    the energy's Pollaczek argument x and shift b.  |x| < 1:
    theta = acos(x).  |x| > 1: e^{i theta} = x + sqrt(x^2-1) (positive
    root), so |e^{i theta}| > 1 for x > 1 ("bound_right") and < 1 for
    x < -1 ("bound_left"), and sin(theta) = -i sqrt(x^2-1) on both.

    Raises ThresholdError in the threshold band of `regime` and
    SingularMapError where x rounds onto the band edge |x| = 1 (eps
    extreme), where sin(theta) = 0 and the phase decomposition
    degenerates.
    """
    if regime(eps) is Regime.THRESHOLD:
        raise ThresholdError("theta/phi undefined at |eps| = 1")
    pol = map_to_pollaczek(d, eps)
    x, b = pol.x, pol.b
    if abs(x) == 1.0:
        raise SingularMapError(f"polynomial argument degenerate at x={x} (eps={eps})")
    if abs(x) > 1.0:
        root = math.sqrt(x * x - 1.0)
        w = x + root  # real; in (-1,0) for x < -1, above 1 for x > 1
        theta = -1j * cmath.log(complex(w))
        phi = b / (-1j * root)
        return AngleParameters(theta=theta, phi=phi, exp_i_theta=complex(w),
                               branch="bound_right" if x > 1.0 else "bound_left")
    theta = math.acos(x)
    phi = b / math.sin(theta)
    return AngleParameters(theta=complex(theta), phi=complex(phi), exp_i_theta=cmath.exp(1j * theta),
                           branch="scattering")


def scattering_angles(d: DerivedParams, eps) -> AngleParameters:
    """The scattering-regime theta/phi pair from its closed forms, with
    s = (eps-1)(eps+1) > 0:

        tan(theta/2) = beta / sqrt(s),  i.e. theta = 2 atan2(beta, sqrt(s)),
        e^{i theta} = (s - beta^2 + 2i beta sqrt(s)) / (s + beta^2),
        phi = -compton Z eps / sqrt(s),

    the last being the Sommerfeld parameter, which does not depend on
    omega.  No step subtracts nearly equal numbers, whereas acos(x) of
    x = (s - beta^2)/(s + beta^2) loses digits as beta = compton*omega/2
    shrinks and x tends to 1.  (`theta_phi` keeps acos(x): there the
    angle must match the recursion's own rounded x.)

    Elementwise in eps, a float or a float ndarray of scattering
    energies; the caller checks the regime.  Beyond |eps| ~ 1.3e154,
    where s overflows, theta comes out 0 and e^{i theta} NaN, without a
    warning; callers reject such values.
    """
    beta = d.beta
    with np.errstate(over="ignore", invalid="ignore"):
        s = (eps - 1.0) * (eps + 1.0)
        root = np.sqrt(s)
        theta = 2.0 * np.arctan2(beta, root)
        exp_i_theta = (s - beta * beta + 2j * beta * root) / (s + beta * beta)
        # + 0.0 turns the -0.0 of the free case (Z = 0, eps > 1) into 0.0
        phi = -(d.compton * d.z) * eps / root + 0.0
    return AngleParameters(theta=theta, phi=phi, exp_i_theta=exp_i_theta, branch="scattering")


def recursion_coefficients(d: DerivedParams) -> RecursionCoefficients:
    """Coefficient maps a_n = n + gamma_eff + 1 and
    b_n = sqrt((n+1)(n+2*gamma_eff+2))/2 of the tridiagonal wave-operator
    representation (the kappa < 0 replacement already applied)."""
    g = d.gamma_eff
    if g <= -1.0:
        raise ConfigError("effective gamma must exceed -1")
    return RecursionCoefficients(
        diag=lambda n: n + g + 1.0,
        offdiag=lambda n: 0.5 * np.sqrt((n + 1.0) * (n + 2.0 * g + 2.0)),
    )


def wave_rows(d: DerivedParams, x, b, rows: int):
    """(A, B, C) for rows 0..rows-1 of b_n f_{n+1} = (a_n x + b) f_n -
    b_{n-1} f_{n-1}, the expansion-coefficient recursion of `wavefunction`
    and `spectrum.minimal_solution_defect`, in the arithmetic of x and b
    (a_n, b_n stay Python floats, so mpmath x and b give mpf products)."""
    diag, off = (v.tolist() for v in recursion_coefficients(d).block(0, rows))
    return [an * x + b for an in diag], off, [0.0] + off[:-1]


def growth_rate(x: float) -> float:
    """Per-step ratio |x| + sqrt(x^2-1) of the dominant to the minimal
    recursion solution for |x| >= 1, 1 inside the band, where both
    oscillate: the mpmath precision of wavefunction.coefficients_recursion
    and the guard of spectrum.minimal_solution_defect."""
    return abs(x) + math.sqrt(x * x - 1.0) if abs(x) >= 1.0 else 1.0


def spinor_rotation(xi: float, upper, lower):
    """Rotate a spinor pair by the real 2x2 matrix
    [[cos xi/2, sin xi/2], [-sin xi/2, cos xi/2]]; upper and lower are
    floats or ndarrays of one shape.

    With sin(xi) = compton*Z/kappa this maps the coupled radial pair onto
    the uncoupled (phi+, phi-) pair, and -xi maps it back; norm is
    preserved exactly.
    """
    c = math.cos(0.5 * xi)
    s = math.sin(0.5 * xi)
    return c * upper + s * lower, -s * upper + c * lower


def rotation_angle(d: DerivedParams) -> float:
    """The uncoupling angle xi with sin(xi) = compton*Z/kappa and
    cos(xi) = gamma/kappa (positive-energy choice)."""
    return math.atan2(d.compton * d.z / d.kappa, d.gamma / d.kappa)


def negative_energy_map(p: PhysicalParams, eps: float | None = None):
    """Map to the partner problem: Z -> -Z, kappa -> -kappa, eps -> -eps;
    the partner's spinor components are exchanged.  Returns the partner's
    (PhysicalParams, eps), eps None when none is given.  Applying the map
    twice is the identity."""
    mapped = PhysicalParams(z=-p.z, kappa=-p.kappa, compton=p.compton, omega=p.omega)
    return mapped, None if eps is None else -eps
