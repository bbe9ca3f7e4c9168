"""Exception hierarchy shared by all tridirac modules.

Three families, mirrored by the CLI exit codes: configuration problems
(exit 1), domain/physics violations (exit 2), and iterative-method
failures (exit 3).
"""


class TridiracError(Exception):
    """Base class for all package errors."""


class ConfigError(TridiracError):
    """Invalid run configuration (bad flags, inconsistent options)."""


class DomainError(TridiracError):
    """Input violates a documented precondition of an operation."""


class ConvergenceFailure(TridiracError):
    """An iterative method exhausted its budget without converging."""


# --- special-function kernel ------------------------------------------------

class PoleError(DomainError):
    """Gamma evaluated at a non-positive integer (1/Gamma = 0 there)."""


class BottomPoleError(DomainError):
    """A bottom Pochhammer factor of a terminating 2F1 vanished before
    the series terminated."""

    def __init__(self, n, k, message=None):
        self.n = n
        self.k = k
        super().__init__(message or f"bottom parameter pole at k={k} before termination at n={n}")


# --- polynomial machinery ---------------------------------------------------

class BranchError(DomainError):
    """Asymptotic form requested outside its regime: the scattering
    approximant at theta outside (0, pi)."""


# --- physical parameter map -------------------------------------------------

class SupercriticalError(DomainError):
    """|compton * Z / kappa| >= 1: the effective angular parameter turns
    imaginary and the model is outside its validity window."""


class SingularMapError(DomainError):
    """Energy-to-polynomial parameter map hit its singular denominator
    (eps^2 = 1 - beta^2)."""


class ThresholdError(DomainError):
    """Operation undefined exactly at |eps| = 1."""


class RepulsiveError(DomainError):
    """Bound-state query for Z >= 0 (no positive-energy bound states)."""


# --- resolvent --------------------------------------------------------------

class NoConvergence(ConvergenceFailure):
    """Continued fraction did not reach tolerance within max_depth."""


class SpectrumProximity(DomainError):
    """Continued-fraction denominator vanished for real argument: the
    evaluation point sits (numerically) on the spectrum."""


# --- wavefunction -----------------------------------------------------------

class KineticBalanceSingular(DomainError):
    """Kinetic-balance prefactor 1/(eps + gamma/kappa) singular."""


class GridError(DomainError):
    """Radial grid too short or not uniform."""


# --- scattering -------------------------------------------------------------

class FitError(DomainError):
    """Asymptotic fit attempted on a non-oscillatory sequence."""
