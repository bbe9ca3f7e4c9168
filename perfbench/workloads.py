"""Seeded workload generator.

A workload is a fixed, closed-loop cycle of ops, each either a `tridirac`
subcommand called in-process through `cli.main` or one library call.  The
seed draws only physical parameters, from narrow bands around the
acceptance examples; sizes (truncations, grid lengths, n-max, eta) are
fixed per workload, so the work per cycle does not depend on the seed.

Sizes are time choices.  `coefficients` stops at `--n-max 150` because
larger sizes hit a known defect: the closed form overflows between n-max
150 and 200 (`coefficients --eps 1.3 --n-max 200` raises OverflowError out
of `cli.main`).  The benchmark does not hide it; its self-test runs that
input and checks that it is counted as one failed op.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import oracles

WORKLOADS = ("basis", "resolvent", "sweep")

# Each band is (low, high); a draw is uniform and rounded to 6 significant
# digits so the argv stays short.  The bands sit around the acceptance
# examples (Z = -1, kappa = 1, compton 0.05 or 0.02, omega 1 or 30).
BANDS = {
    "basis": {
        "z": (-1.05, -0.95),
        "compton": (0.048, 0.052),
        "omega": (0.95, 1.05),
        "eps_scattering": (1.28, 1.32),
    },
    "resolvent": {
        "z": (-1.05, -0.95),
        "compton": (0.048, 0.052),
        "zre": (2.95, 3.05),
        "density_compton": (0.019, 0.021),
        "density_eps": (1.24, 1.26),
    },
    "sweep": {
        "z": (-1.05, -0.95),
        "compton": (0.048, 0.052),
        "phase_compton": (0.019, 0.021),
        "eps_scattering": (1.28, 1.32),
        "eps_bound": (0.88, 0.92),
        "fit_omega": (29.0, 31.0),
        "fit_eps": (1.24, 1.26),
    },
}

BOUND_LEVEL = 2  # level index of the bound wavefunction in `basis`
# Truncation 64, not 128, and `verify --n 100`, not 150: the wavefunction
# cost grows as the square of the truncation (each basis function recomputes
# its Laguerre polynomial from degree 0), and short ops let a run catch
# enough fast calls on a host whose speed changes from second to second.
TRUNC = 64
R_GRID = ("0.5", "60", "500")
R_POINTS = (4, 63, 122, 247, 415)  # rows of the r grid the oracle re-sums (r ~ 1, 8, 15, 30, 50)
X_POINTS = (24, 49, 74)  # rows of a 99-point x grid the density oracle checks


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    `argv` runs through `cli.main`; `call` is a library call returning the
    bytes to compare.  `suffix` is set when the CLI op writes its table to a
    file via --output (and the .meta.json sidecar next to it); otherwise the
    op's stdout is its output.  `check` maps the first output to its
    relative error against the oracle; the op passes when it is <= `tol`.
    """

    name: str
    check: Callable[[bytes], float]
    tol: float
    argv: tuple = ()
    suffix: str | None = None
    call: Callable[[], bytes] | None = None

    @property
    def subcommand(self) -> str | None:
        return self.argv[0] if self.argv else None


@dataclass
class Workload:
    ops: list
    params: dict  # the drawn parameters, recorded in the output


def _draw(rng: random.Random, band) -> float:
    lo, hi = band
    return float(f"{rng.uniform(lo, hi):.6g}")


def _phys(z, compton, omega=None):
    args = ["--z", repr(z), "--kappa", "1", "--compton", repr(compton)]
    return args + (["--omega", repr(omega)] if omega is not None else [])


def _basis(p) -> list:
    z, compton, omega = p["z"], p["compton"], p["omega"]
    eps_b = oracles.level_energy(z, 1, compton, BOUND_LEVEL)
    p["eps_bound"] = eps_b
    eps_s = p["eps_scattering"]
    phys = _phys(z, compton, omega)
    sizes = ["--trunc", str(TRUNC), "--r-grid", *R_GRID]
    wf = partial(oracles.wavefunction, z=z, kappa=1, compton=compton, omega=omega, trunc=TRUNC, points=R_POINTS)
    return [
        Op("wavefunction.bound", partial(wf, eps=eps_b), 1e-9,
           argv=("wavefunction", *phys, "--eps", repr(eps_b), *sizes)),
        Op("wavefunction.scattering", partial(wf, eps=eps_s), 1e-9,
           argv=("wavefunction", *phys, "--eps", repr(eps_s), *sizes)),
        Op("verify.n100", oracles.verify, 1e-9, argv=("verify", *phys, "--eps", repr(eps_b), "--n", "100")),
        Op("verify.n60", oracles.verify, 1e-9, argv=("verify", *phys, "--eps", repr(eps_s), "--n", "60")),
    ]


def _resolvent(p) -> list:
    z, compton, zre = p["z"], p["compton"], p["zre"]
    dz, dc, de = p["z"], p["density_compton"], p["density_eps"]
    g = partial(oracles.green, z=z, kappa=1, compton=compton)
    dens = partial(oracles.density, z=dz, kappa=1, compton=dc, eps=de, points=X_POINTS)
    phys = _phys(z, compton)
    dphys = _phys(dz, dc)
    return [
        Op("green.zim0.5", g, 1e-10, argv=("green", *phys, "--zre", repr(zre), "--zim", "0.5")),
        Op("green.zim0.05", g, 1e-10, argv=("green", *phys, "--zre", repr(zre), "--zim", "0.05")),
        Op("density.eta1e-3", partial(dens, eta=1e-3), 1e-6,
           argv=("density", *dphys, "--eps", repr(de), "--eta", "1e-3")),
        Op("density.eta1e-2", partial(dens, eta=1e-2), 1e-6,
           argv=("density", *dphys, "--eps", repr(de), "--eta", "1e-2", "--x-grid", "-0.99", "0.99", "99")),
    ]


def _fit_call(lam: float, b: float, x: float) -> bytes:
    from tridirac import pollaczek, scattering

    params = pollaczek.PollaczekParams(lam=lam, b=b)
    seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, x, 1000))
    res = scattering.fit_asymptotics(seq, (200, 600))
    fields = {"theta": res.theta, "amplitude": res.amplitude, "psi": float(res.psi), "residual": res.residual}
    return json.dumps(fields).encode()


def _sweep(p) -> list:
    import mpmath as mp

    z, compton, pc = p["z"], p["compton"], p["phase_compton"]
    eps_s, eps_b = p["eps_scattering"], p["eps_bound"]
    grid = (1.01, 3.0, 2000)
    with mp.workdps(30):
        x, b, lam = oracles.pollaczek_map(z, 1, pc, p["fit_omega"], p["fit_eps"])
        theta = float(mp.acos(x))
    x, b, lam = float(x), float(b), float(lam)
    return [
        Op("spectrum.n2000", partial(oracles.spectrum, z=z, kappa=1, compton=7.297e-3, n_max=2000), 1e-12,
           argv=("spectrum", *_phys(z, 7.297e-3), "--n-max", "2000", "--format", "json"), suffix="json"),
        Op("phase-shift.grid2000",
           partial(oracles.phase_shift, z=z, kappa=1, compton=pc, omega=1.0, grid=grid), 1e-11,
           argv=("phase-shift", *_phys(z, pc), "--eps-grid", *map(repr, grid)), suffix="csv"),
        Op("coefficients.scattering", partial(oracles.coefficients, n_max=150), 1e-8,
           argv=("coefficients", *_phys(z, compton), "--eps", repr(eps_s), "--n-max", "150"), suffix="csv"),
        Op("coefficients.bound", partial(oracles.coefficients, n_max=150), 1e-8,
           argv=("coefficients", *_phys(z, compton), "--eps", repr(eps_b), "--n-max", "150", "--format", "json"),
           suffix="json"),
        Op("fit.window200-600", partial(oracles.fit, theta=theta), 1e-4 / theta,
           call=partial(_fit_call, lam, b, x)),
    ]


_BUILDERS = {"basis": _basis, "resolvent": _resolvent, "sweep": _sweep}


def build(name: str, seed: int) -> Workload:
    """The op cycle of workload `name` for `seed`; the same seed gives the
    same ops."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    params = {key: _draw(rng, band) for key, band in BANDS[name].items()}
    if name == "sweep":
        # keep the bound energy away from closed-form poles (as in the
        # acceptance suite's criterion 8)
        while True:
            q = oracles.quantization_value(params["z"], 1, params["compton"], params["eps_bound"])
            if abs(q - round(q)) >= 0.1:
                break
            params["eps_bound"] = _draw(rng, BANDS[name]["eps_bound"])
    ops = _BUILDERS[name](params)
    return Workload(ops=ops, params=params)
