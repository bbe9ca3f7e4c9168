"""Command-line surface: every computation as a reproducible, scriptable
run with machine-readable CSV or JSON output.

Exit codes: 0 success, 1 configuration error (a flag value that is not
finite or out of range, or a ValueError from the library), 2 domain error
(threshold / supercritical / repulsive / singular map), 3 convergence
failure.  Every non-zero exit writes one `error: Type: message` line to
stderr.  Identical inputs produce byte-identical data files; run
metadata goes to a separate `.meta.json` sidecar next to --output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, model, pollaczek, resolvent, scattering, spectrum, wavefunction
from .errors import ConfigError, ConvergenceFailure, DomainError

_FMT = "{:.16e}"


def _physical_params(args) -> model.PhysicalParams:
    return model.PhysicalParams(z=args.z, kappa=args.kappa, compton=args.compton, omega=args.omega)


def _check_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


def _check_args(args) -> None:
    """Flag checks that no library function makes.  The ranges of --eta
    and --n are the library's own (a ValueError, also exit 1)."""
    for name in ("eps", "zre", "zim", "eta"):
        value = getattr(args, name, None)
        if value is not None:
            _check_finite("--" + name, value)
    if getattr(args, "n_max", 0) < 0:
        raise ConfigError(f"--n-max must be >= 0, got {args.n_max}")
    if getattr(args, "trunc", 1) < 1:
        raise ConfigError(f"--trunc must be >= 1, got {args.trunc}")


def _grid(flag: str, spec, positive: bool = False) -> np.ndarray:
    """The uniform grid START STOP COUNT given to `flag`."""
    start, stop, count = spec
    _check_finite(flag + " START", start)
    _check_finite(flag + " STOP", stop)
    if not (math.isfinite(count) and count == int(count) and count >= 1):
        raise ConfigError(f"{flag} COUNT must be a positive integer, got {count}")
    if positive and min(start, stop) <= 0:
        raise ConfigError(f"{flag} bounds must be positive, got {start} and {stop}")
    return np.linspace(start, stop, int(count))


def _eps_grid(args):
    if getattr(args, "eps", None) is not None:
        return [args.eps]
    start, stop, _ = args.eps_grid
    grid = list(_grid("--eps-grid", args.eps_grid))
    crossings = [t for t in (-1.0, 1.0) if (start - t) * (stop - t) < 0]
    if crossings and not args.split:
        raise DomainError(f"energy grid crosses |eps| = 1 at {crossings}; rerun with --split")
    return grid


def _rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FMT.format(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _emit(args, header, rows) -> None:
    text = _rows_to_json(header, rows) if args.format == "json" else _rows_to_csv(header, rows)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
        sidecar = {"command": " ".join(args.invocation), "version": __version__}
        with open(args.output + ".meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> None:
    p = _physical_params(args)
    table = spectrum.build_table(p, args.n_max)
    rows = [(e.n, e.kappa, e.eps, e.oracle_residual) for e in table.entries]
    _emit(args, ["n", "kappa", "eps", "oracle_residual"], rows)


def _cmd_phase_shift(args) -> None:
    p = _physical_params(args)
    grid = _eps_grid(args)
    if getattr(args, "split", False):
        # an explicitly split grid keeps only the points in the valid
        # regime; rows stay deterministic, just fewer
        grid = [eps for eps in grid if abs(eps) > 1.0]
    results = scattering.phase_shift_sweep(p, grid)
    rows = [(r.eps, r.theta, r.phi, r.psi, r.amplitude) for r in results]
    _emit(args, ["eps", "theta", "Phi", "psi", "amplitude"], rows)


def _cmd_coefficients(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    rows = []
    for eps in _eps_grid(args):
        rec = wavefunction.coefficients_recursion(d, eps, args.n_max)
        closed = wavefunction.coefficients_closed_form(d, eps, args.n_max)
        for n in range(args.n_max + 1):
            fr = rec.values[n]
            fc = closed.values[n]
            dev = abs(fc - fr) / max(1e-300, abs(fr))
            rows.append((eps, n, fr.real, fr.imag, dev))
    _emit(args, ["eps", "n", "f_re", "f_im", "closed_rel_dev"], rows)


def _cmd_green(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    coeffs = model.recursion_coefficients(d)
    est = resolvent.green_function(coeffs, complex(args.zre, args.zim), tol=args.tol, max_depth=args.depth)
    rows = [(args.zre, args.zim, est.value.real, est.value.imag, est.depth, float(est.last_delta))]
    _emit(args, ["z_re", "z_im", "G_re", "G_im", "depth", "last_delta"], rows)


def _cmd_density(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    e = model.energy_point(args.eps)
    pol = model.map_to_pollaczek(d, e)
    params = pollaczek.PollaczekParams(lam=pol.lam, a=pol.a, b=pol.b)
    coeffs = pollaczek.jacobi_coefficients(params)
    xs = _grid("--x-grid", args.x_grid)
    rho = resolvent.spectral_density_grid(coeffs, xs, args.eta)
    rows = [(float(x), args.eta, float(r)) for x, r in zip(xs, rho)]
    _emit(args, ["x", "eta", "rho"], rows)


def _cmd_wavefunction(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    r = _grid("--r-grid", args.r_grid, positive=True)
    # bound regime: the square-summable vector (backward generator), so a
    # user-rounded level energy still yields the physical state; the
    # forward recursion is the scattering-regime evaluator
    if abs(args.eps) < 1.0:
        coeffs = wavefunction.coefficients_bound_state(d, args.eps, args.trunc)
    else:
        coeffs = wavefunction.coefficients_recursion(d, args.eps, args.trunc)
    phi_plus, _ = wavefunction.reconstruct_upper(coeffs, d, r, args.trunc)
    phi_minus = wavefunction.lower_component(coeffs, d, args.eps, r, args.trunc)
    rows = [(float(rr), float(up), float(lo)) for rr, up, lo in zip(r, phi_plus, phi_minus)]
    _emit(args, ["r", "phi_plus", "phi_minus"], rows)


def _cmd_verify(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    report = wavefunction.verify_tridiagonal(d, args.eps, args.n)
    gram = wavefunction.gram_matrix(d, min(args.n, 20))
    gram_dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    rows = [(report.offband_ratio, report.diag_deviation, report.offdiag_deviation, gram_dev)]
    _emit(args, ["offband_ratio", "diag_deviation", "offdiag_deviation", "gram_deviation"], rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main() call: an argparse parser is a graph of ~1,000 objects held in
    reference cycles, which only the cyclic collector frees."""
    parser = argparse.ArgumentParser(prog="tridirac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, energy=None, n_max=None):
        sp.add_argument("--z", type=float, required=True, help="charge coupling (Z < 0 attractive)")
        sp.add_argument("--kappa", type=int, required=True, help="spin-orbit integer, nonzero")
        sp.add_argument("--compton", type=float, default=model.FINE_STRUCTURE,
                        help="Compton length in Bohr radii (default: fine-structure constant)")
        sp.add_argument("--omega", type=float, default=1.0, help="Laguerre basis scale")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="write data here (plus .meta.json sidecar)")
        if energy == "single":
            sp.add_argument("--eps", type=float, required=True, help="dimensionless energy E/mc^2")
        elif energy == "grid":
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--eps", type=float, help="single dimensionless energy")
            group.add_argument("--eps-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                               help="uniform energy grid")
            sp.add_argument("--split", action="store_true",
                            help="allow grids crossing |eps| = 1; out-of-regime points are dropped")
        if n_max is not None:
            sp.add_argument("--n-max", type=int, default=n_max)

    sp = sub.add_parser("spectrum", help="bound levels with fine-structure oracle residuals")
    common(sp, n_max=10)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("phase-shift", help="scattering amplitude and phases at |eps| > 1")
    common(sp, energy="grid")
    sp.set_defaults(func=_cmd_phase_shift)

    sp = sub.add_parser("coefficients", help="expansion coefficients, recursion vs closed form")
    common(sp, energy="grid", n_max=30)
    sp.set_defaults(func=_cmd_coefficients)

    sp = sub.add_parser("green", help="continued-fraction Green function at one complex point")
    common(sp)
    sp.add_argument("--zre", type=float, required=True)
    sp.add_argument("--zim", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--depth", type=int, default=200_000)
    sp.set_defaults(func=_cmd_green)

    sp = sub.add_parser("density", help="spectral density over the polynomial argument")
    common(sp, energy="single")
    sp.add_argument("--x-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                    default=(-0.99, 0.99, 99))
    sp.add_argument("--eta", type=float, default=1e-3)
    sp.set_defaults(func=_cmd_density)

    sp = sub.add_parser("wavefunction", help="radial spinor samples at one energy")
    common(sp, energy="single")
    sp.add_argument("--trunc", type=int, default=64)
    sp.add_argument("--r-grid", nargs=3, type=float, metavar=("START", "STOP", "COUNT"),
                    default=(0.5, 30.0, 60))
    sp.set_defaults(func=_cmd_wavefunction)

    sp = sub.add_parser("verify", help="tridiagonality and orthonormality diagnostics")
    common(sp, energy="single")
    sp.add_argument("--n", type=int, default=20, help="matrix size")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    invocation = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
        return 1 if exc.code not in (0, None) else 0
    args.invocation = invocation
    try:
        _check_args(args)
        args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
