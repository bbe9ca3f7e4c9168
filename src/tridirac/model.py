"""Physical parameterization of the relativistic Coulomb problem.

Holds the experiment's knobs (charge coupling Z, spin-orbit number kappa,
Compton length, Laguerre scale omega), the derived constants, the map
from an energy to the Pollaczek parameter set, the angle/phase pair that
controls the polynomial asymptotics, the spinor rotation that uncouples
the radial system, and the discrete symmetry maps.

Units: energies are eps = E/mc^2 (dimensionless), lengths are Bohr radii,
so the physical Compton length equals the fine-structure constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    SingularMapError,
    SupercriticalError,
    ThresholdError,
)

__all__ = [
    "PhysicalParams",
    "DerivedParams",
    "EnergyPoint",
    "Regime",
    "RecursionCoefficients",
    "PollaczekMap",
    "AngleParameters",
    "FINE_STRUCTURE",
    "derive",
    "energy_point",
    "eps_sq_minus_one",
    "map_to_pollaczek",
    "theta_phi",
    "recursion_coefficients",
    "spinor_rotation",
    "negative_energy_map",
    "params_to_config",
    "params_from_config",
]

FINE_STRUCTURE = 7.2973525693e-3  # CODATA alpha; the physical Compton length in Bohr radii

_THRESHOLD_TOL = 1e-15


@dataclass(frozen=True)
class PhysicalParams:
    """Model knobs. Z < 0 is attractive; kappa is a nonzero integer;
    compton and omega are positive; z, compton and omega are finite."""

    z: float
    kappa: int
    compton: float = FINE_STRUCTURE
    omega: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.z, self.compton, self.omega)):
            raise ConfigError("z, compton and omega must be finite")
        if self.kappa == 0:
            raise ConfigError("kappa must be a nonzero integer")
        if self.compton <= 0 or self.omega <= 0:
            raise ConfigError("compton and omega must be positive")


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from PhysicalParams.

    gamma carries the sign of kappa; gamma_eff is the coefficient-map
    parameter actually used in the recursion (gamma for kappa > 0,
    -gamma - 1 for kappa < 0).  ell is metadata only: ell = |kappa| - 1
    for kappa > 0 and ell = |kappa| for kappa < 0.
    """

    z: float
    kappa: int
    compton: float
    omega: float
    gamma: float
    alpha: float
    beta: float
    ell: int

    @property
    def gamma_eff(self) -> float:
        return self.gamma if self.kappa > 0 else -self.gamma - 1.0

    @property
    def lambda_pol(self) -> float:
        return self.gamma_eff + 1.0


class Regime(Enum):
    BOUND = "bound"
    SCATTERING = "scattering"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class EnergyPoint:
    eps: float
    regime: Regime


@dataclass(frozen=True)
class RecursionCoefficients:
    """Callable coefficient maps of a symmetric three-term recursion:
    diag(n) and offdiag(n) > 0."""

    diag: object
    offdiag: object

    def diag_array(self, n):
        return np.array([self.diag(k) for k in range(n)])

    def offdiag_array(self, n):
        return np.array([self.offdiag(k) for k in range(n)])


@dataclass(frozen=True)
class PollaczekMap:
    """Energy point mapped to the Pollaczek parameter set; x is the
    polynomial argument, b the linear-shift parameter, lam = gamma_eff + 1."""

    x: float
    a: float
    b: float
    lam: float


@dataclass(frozen=True)
class AngleParameters:
    """theta/phi pair of the polynomial asymptotics at one energy.

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
    ell = abs(params.kappa) - 1 if params.kappa > 0 else abs(params.kappa)
    return DerivedParams(
        z=params.z,
        kappa=params.kappa,
        compton=lam,
        omega=params.omega,
        gamma=gamma,
        alpha=alpha,
        beta=beta,
        ell=ell,
    )


def energy_point(eps: float) -> EnergyPoint:
    """Classify a dimensionless energy into its regime."""
    if abs(abs(eps) - 1.0) <= _THRESHOLD_TOL:
        return EnergyPoint(eps=eps, regime=Regime.THRESHOLD)
    regime = Regime.BOUND if abs(eps) < 1.0 else Regime.SCATTERING
    return EnergyPoint(eps=eps, regime=regime)


def eps_sq_minus_one(eps: float) -> float:
    # factored form keeps full precision when eps is close to +-1
    return (eps - 1.0) * (eps + 1.0)


def map_to_pollaczek(d: DerivedParams, e: EnergyPoint) -> PollaczekMap:
    """The energy-to-Pollaczek identification:
    x = (eps^2-1-beta^2)/(eps^2-1+beta^2), a = 0,
    b = -alpha*eps/(eps^2-1+beta^2), lam = gamma_eff + 1."""
    s = eps_sq_minus_one(e.eps)
    den = s + d.beta * d.beta
    # relative cutoff: below it the map loses all significant digits
    if abs(den) <= 1e-12 * (abs(s) + d.beta * d.beta):
        raise SingularMapError(f"eps^2 = 1 - beta^2 at eps={e.eps}")
    x = (s - d.beta * d.beta) / den
    b = -d.alpha * e.eps / den
    return PollaczekMap(x=x, a=0.0, b=b, lam=d.gamma_eff + 1.0)


def theta_phi(d: DerivedParams, e: EnergyPoint) -> AngleParameters:
    """Angle theta with cos(theta) = x and phase phi = b / sin(theta).

    The bound-regime branch is resolved by e^{i theta} = x + sqrt(x^2-1)
    with the positive real square root, which lands on |e^{i theta}| > 1
    for x > 1 and on the exchanged branch for x < -1.  In both bound
    branches sin(theta) = -i sqrt(x^2-1).
    """
    if e.regime is Regime.THRESHOLD:
        raise ThresholdError("theta/phi undefined at |eps| = 1")
    pol = map_to_pollaczek(d, e)
    x = pol.x
    if e.regime is Regime.SCATTERING:
        theta = math.acos(max(-1.0, min(1.0, x)))
        sin_theta = math.sin(theta)
        if sin_theta == 0.0:
            # |x| rounded onto the band edge (eps extreme); the phase
            # decomposition degenerates there
            raise SingularMapError(f"polynomial argument degenerate at x={x} (eps={e.eps})")
        w = cmath.exp(1j * theta)
        phi = pol.b / sin_theta
        return AngleParameters(theta=complex(theta), phi=complex(phi), exp_i_theta=w, branch="scattering")
    w = x + math.sqrt(x * x - 1.0)  # real; in (-1,0) for x < -1, above 1 for x > 1
    theta = -1j * cmath.log(complex(w))
    sin_theta = -1j * math.sqrt(x * x - 1.0)
    phi = pol.b / sin_theta
    branch = "bound_right" if x > 1.0 else "bound_left"
    return AngleParameters(theta=theta, phi=phi, exp_i_theta=complex(w), branch=branch)


def recursion_coefficients(d: DerivedParams) -> RecursionCoefficients:
    """Coefficient maps a_n = n + gamma_eff + 1 and
    b_n = sqrt((n+1)(n+2*gamma_eff+2))/2 of the tridiagonal wave-operator
    representation (the kappa < 0 replacement already applied)."""
    g = d.gamma_eff
    if g <= -1.0:
        raise ConfigError("effective gamma must exceed -1")
    return RecursionCoefficients(
        diag=lambda n: n + g + 1.0,
        offdiag=lambda n: 0.5 * math.sqrt((n + 1.0) * (n + 2.0 * g + 2.0)),
    )


def spinor_rotation(xi: float, upper: float, lower: float) -> tuple[float, float]:
    """Rotate a spinor pair by the real 2x2 matrix
    [[cos xi/2, sin xi/2], [-sin xi/2, cos xi/2]].

    With sin(xi) = compton*Z/kappa this maps the coupled radial pair onto
    the uncoupled (phi+, phi-) pair; norm is preserved exactly.
    """
    c = math.cos(0.5 * xi)
    s = math.sin(0.5 * xi)
    return c * upper + s * lower, -s * upper + c * lower


def rotation_angle(d: DerivedParams) -> float:
    """The uncoupling angle xi with sin(xi) = compton*Z/kappa and
    cos(xi) = gamma/kappa (positive-energy choice)."""
    return math.atan2(d.compton * d.z / d.kappa, d.gamma / d.kappa)


def negative_energy_map(p: PhysicalParams, e: EnergyPoint | None = None):
    """Map to the partner problem: Z -> -Z, kappa -> -kappa, eps -> -eps,
    plus a flag instructing wavefunction assembly to exchange the spinor
    components.  Applying the map twice is the identity."""
    mapped = PhysicalParams(z=-p.z, kappa=-p.kappa, compton=p.compton, omega=p.omega)
    mapped_e = None if e is None else EnergyPoint(eps=-e.eps, regime=e.regime)
    return mapped, mapped_e, True


# --- flat key-value config round trip ---------------------------------------

_CONFIG_KEYS = ("z", "kappa", "compton", "omega")


def params_to_config(p: PhysicalParams) -> str:
    """Serialize to `key = value` lines; values are shortest round-trip
    decimal strings, so parsing reproduces the exact floats."""
    vals = {"z": repr(p.z), "kappa": repr(p.kappa), "compton": repr(p.compton), "omega": repr(p.omega)}
    return "".join(f"{k} = {vals[k]}\n" for k in _CONFIG_KEYS)


def params_from_config(text: str) -> PhysicalParams:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    missing = [k for k in _CONFIG_KEYS if k not in fields]
    if missing:
        raise ConfigError(f"config missing keys: {missing}")
    return PhysicalParams(
        z=float(fields["z"]),
        kappa=int(fields["kappa"]),
        compton=float(fields["compton"]),
        omega=float(fields["omega"]),
    )
