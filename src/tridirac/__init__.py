"""tridirac: the relativistic Coulomb problem through its tridiagonal
matrix representation.

A complete square-integrable Laguerre basis turns the radial wave
operator into a symmetric three-term recursion solved by Pollaczek
polynomials.  Their large-degree asymptotics carry the physics: the
bound spectrum sits where the leading term dies (a reciprocal-Gamma
zero), scattering amplitudes and phase shifts read off the oscillatory
envelope, and the ratio of the two recursion solutions builds the Green
function as a continued fraction whose boundary values invert to the
spectral density.
"""

__version__ = "0.1.0"

from . import model, pollaczek, recurrence, resolvent, scattering, specfun, spectrum, wavefunction
from .model import (
    FINE_STRUCTURE,
    DerivedParams,
    PhysicalParams,
    Regime,
    derive,
    regime,
)

__all__ = [
    "__version__",
    "FINE_STRUCTURE",
    "DerivedParams",
    "PhysicalParams",
    "Regime",
    "derive",
    "regime",
    "model",
    "pollaczek",
    "recurrence",
    "resolvent",
    "scattering",
    "specfun",
    "spectrum",
    "wavefunction",
]
