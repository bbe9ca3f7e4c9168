"""Bound-state spectrum from the quantization condition, validated
against the classical fine-structure formula, plus the numerical
minimal-solution (square-summability) detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import recurrence
from .errors import DomainError, RepulsiveError
from .model import (DerivedParams, PhysicalParams, Regime, check_regime, derive, growth_rate, map_to_pollaczek,
                    negative_energy_map, wave_rows)

__all__ = [
    "SpectrumTable",
    "sommerfeld_energy",
    "bound_energy",
    "quantization_condition",
    "nonrelativistic_limit_check",
    "minimal_solution_defect",
    "build_table",
    "negative_energy_levels",
]


@dataclass(frozen=True)
class SpectrumTable:
    """Levels n = 0..len(eps)-1 of one kappa as arrays: the energies and
    their fine-structure oracle residuals."""

    kappa: int
    eps: np.ndarray
    oracle_residual: np.ndarray


def _elementwise(value):
    # a float for a scalar argument, the ndarray for an array argument
    return value if isinstance(value, np.ndarray) else float(value)


def sommerfeld_energy(z: float, kappa: int, compton: float, n_r):
    """Independent fine-structure oracle:
    eps = [1 + (z*compton / (n_r + sqrt(kappa^2 - (z*compton)^2)))^2]^{-1/2}.

    Elementwise in n_r (an int, or an ndarray of radial quantum numbers);
    IEEE +, -, *, / and sqrt only, so each array element equals the
    scalar call bit for bit."""
    zc = z * compton
    gamma_s = math.sqrt(kappa * kappa - zc * zc)
    u = zc / (n_r + gamma_s)
    return _elementwise(1.0 / np.sqrt(1.0 + u * u))


def _check_attractive(z: float):
    if z >= 0:
        raise RepulsiveError("bound states require Z < 0")


def bound_energy(p: PhysicalParams, n):
    """n-th positive bound level (n = 0, 1, ...):

        eps_n = [1 + (compton*Z / (n + gamma_eff + 1))^2]^{-1/2},

    where gamma_eff + 1 equals gamma + 1 for kappa > 0 and -gamma for
    kappa < 0 (gamma carries the sign of kappa).

    Elementwise in n, like `sommerfeld_energy`: an int gives a float, an
    ndarray of levels an ndarray, each element bit for bit the scalar
    call's.
    """
    _check_attractive(p.z)
    if np.any(np.asarray(n) < 0):
        raise ValueError("level index must be >= 0")
    d = derive(p)
    u = p.compton * p.z / (n + d.gamma_eff + 1.0)
    return _elementwise(1.0 / np.sqrt(1.0 + u * u))


def quantization_condition(d: DerivedParams, eps: float) -> float:
    """The real combination lam -+ i*phi whose values at the
    non-positive integers -n mark the bound levels.  On both bound
    branches it reduces to

        gamma_eff + 1 + compton*Z*eps / sqrt(1 - eps^2),

    monotone decreasing in eps on (0, 1) and diverging to -inf at the
    threshold.  The 1 - eps^2 factor is evaluated as (1-eps)(1+eps) so
    levels exponentially close to threshold keep full precision.
    """
    _check_attractive(d.z)
    check_regime(eps, Regime.BOUND, "quantization condition")
    root = math.sqrt((1.0 - eps) * (1.0 + eps))
    return d.gamma_eff + 1.0 + d.compton * d.z * eps / root


def nonrelativistic_limit_check(p: PhysicalParams, n: int) -> float:
    """(eps_n - 1)/compton^2, evaluated in the cancellation-free form

        -(Z/(n+gamma_eff+1))^2 / (sqrt(1+u^2) (1+sqrt(1+u^2))),

    which tends to -Z^2/(2 N^2) as the Compton length goes to zero.
    Naive subtraction of 1 loses the O(compton^2) correction this
    operation exists to expose.
    """
    _check_attractive(p.z)
    d = derive(p)
    ratio = p.z / (n + d.gamma_eff + 1.0)
    u = p.compton * ratio
    s = math.sqrt(1.0 + u * u)
    return -(ratio * ratio) / (s * (1.0 + s))


def minimal_solution_defect(d: DerivedParams, eps: float, n_probe: int) -> float:
    """Backward-recurrence (Miller) consistency defect of the expansion
    coefficients at one energy.

    A trial tail (0, 1) is seeded above `n_probe` and recurred down; the
    resulting first-step ratio f_1/f_0 is compared with the ratio the
    n = 0 row of the recursion forces on the polynomial solution.  Both
    agree (defect ~ 0) exactly when the minimal, square-summable
    solution also satisfies the initial row, i.e. at the bound levels;
    away from them the defect is O(1).

    At least 40 tail indices are discarded; near the threshold the
    dominant/minimal growth ratio approaches 1 and a fixed guard no
    longer purifies the seed, so the actual guard scales with
    the local growth rate (capped at 100000 steps, which resolves levels
    whose growth ratio exceeds ~1 + 1e-4; energies even closer to the
    threshold are outside the detector's resolvable range).  The pass is
    `recurrence.backward` in doubles; a vanishing f_0 scores inf.  Raises
    ThresholdError in the threshold band of `model.regime` and DomainError
    above it, as `quantization_condition` does.
    """
    check_regime(eps, Regime.BOUND, "minimal-solution probing")
    pol = map_to_pollaczek(d, eps)
    w = growth_rate(pol.x)  # per-step solution ratio is w^2
    guard = max(40, min(100_000, int(10.0 / math.log(max(w, 1.0 + 1e-12))) + 40))
    top = n_probe + guard
    A, B, C = wave_rows(d, pol.x, pol.b, top + 1)
    f = recurrence.backward(A, B, C, top, 0.0, 1.0)
    if f[0] == 0.0:
        return math.inf
    ratio_back = f[1] / f[0]
    ratio_forward = A[0] / B[0]
    return abs(ratio_back - ratio_forward) / (1.0 + abs(ratio_forward))


def build_table(p: PhysicalParams, n_max: int) -> SpectrumTable:
    """Levels n = 0..n_max with their fine-structure oracle residuals,
    from one `bound_energy` call over the level array.  The oracle's
    radial quantum number is n+1 for kappa > 0 and n for kappa < 0 (the
    branch bookkeeping of the gamma -> -gamma-1 replacement; recorded,
    not interpreted)."""
    n = np.arange(n_max + 1, dtype=float)
    eps = bound_energy(p, n)
    oracle = sommerfeld_energy(p.z, p.kappa, p.compton, n + 1.0 if p.kappa > 0 else n)
    return SpectrumTable(kappa=p.kappa, eps=eps, oracle_residual=np.abs(eps - oracle) / oracle)


def negative_energy_levels(p: PhysicalParams, n_max: int) -> list:
    """Negative-energy bound levels of a repulsive (Z > 0) configuration,
    obtained through the partner map Z -> -Z, kappa -> -kappa,
    eps -> -eps.  They are exactly the negatives of the partner
    problem's positive levels."""
    if p.z <= 0:
        raise DomainError("negative-energy levels live on the Z > 0 side")
    partner, _ = negative_energy_map(p)
    return (-bound_energy(partner, np.arange(n_max + 1, dtype=float))).tolist()
