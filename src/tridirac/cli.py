"""Command-line surface: every computation as a reproducible, scriptable
run with machine-readable CSV or JSON output.

Exit codes: 0 success, 1 configuration error (a flag value that is not
finite or out of range, such as a --kappa beyond 2**53 in magnitude or a
grid whose STOP - START is not finite, a ValueError from the library, a
MemoryError from a size too large to allocate, or an OSError from writing
--output or its sidecar), 2 domain error (threshold / supercritical /
repulsive / singular map, or a result that is not finite), 3 convergence
failure.  Every non-zero exit writes one `error: Type: message` line to
stderr and no data.  Identical inputs produce byte-identical data files;
run metadata goes to a separate `.meta.json` sidecar next to --output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, _csvtext, model, pollaczek, resolvent, scattering, spectrum, wavefunction
from .errors import BottomPoleError, ConfigError, ConvergenceFailure, DomainError, SingularMapError, ThresholdError

_CSV_ARRAY_VALUES = 200  # below this many values, per-row %-formatting is faster than the array passes
_JSON_ARRAY_VALUES = 400  # the same for repr, whose array pass costs more per table


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
    if not math.isfinite(stop - start):
        raise ConfigError(f"{flag} STOP - START must be finite, got {start} and {stop}")
    if not (math.isfinite(count) and count == int(count) and count >= 1):
        raise ConfigError(f"{flag} COUNT must be a positive integer, got {count}")
    if positive and min(start, stop) <= 0:
        raise ConfigError(f"{flag} bounds must be positive, got {start} and {stop}")
    return np.linspace(start, stop, int(count))


def _off_threshold(args) -> float:
    """--eps of a single-energy command that is undefined at |eps| = 1
    (density, wavefunction): ThresholdError where `model.regime` puts it
    at the threshold, as coefficients and phase-shift raise."""
    if model.regime(args.eps) is model.Regime.THRESHOLD:
        raise ThresholdError(f"{args.command} undefined at |eps| = 1")
    return args.eps


def _eps_grid(args, regimes=(model.Regime.BOUND, model.Regime.SCATTERING)):
    """The energies of --eps, or of --eps-grid.  A grid that crosses
    |eps| = 1, or has an end that `model.regime` puts at the
    threshold, needs --split, and --split drops every grid point whose
    regime is not in `regimes` (the threshold points always)."""
    if getattr(args, "eps", None) is not None:
        return [args.eps]
    start, stop, _ = args.eps_grid
    grid = list(_grid("--eps-grid", args.eps_grid))
    ends = {math.copysign(1.0, v) for v in (start, stop)
            if model.regime(v) is model.Regime.THRESHOLD}
    crossings = sorted(ends.union(t for t in (-1.0, 1.0) if (start - t) * (stop - t) < 0))
    if crossings and not args.split:
        raise DomainError(f"energy grid crosses or ends at |eps| = 1 at {crossings}; rerun with --split")
    if args.split:
        grid = [eps for eps in grid if model.regime(eps) in regimes]
    return grid


def _columns(table: dict) -> list:
    """The columns of the table {name: column} as arrays; ValueError
    unless they have one length."""
    columns = [np.asarray(column) for column in table.values()]
    if len({len(column) for column in columns}) > 1:
        lengths = ", ".join(f"{name}: {len(column)}" for name, column in zip(table, columns))
        raise ValueError(f"table columns differ in length ({lengths})")
    return columns


def table_to_csv(table: dict) -> str:
    """CSV text of the table {name: column}: the header line, then one
    line per row, float columns as %.16e and integer columns as %s; the
    one CSV writer of the package.  A table of at least _CSV_ARRAY_VALUES
    values, all float or integer, is formatted by numpy array passes
    (`_csvtext.csv_rows`) with the same bytes: exact 17-digit decimals
    from a double-double product, and Python's '%.16e' for the values
    within 2**-40 of a rounding tie and the non-finite ones.  A smaller
    table, or one with another kind of column, is formatted row by row."""
    columns = _columns(table)
    header = ",".join(table) + "\n"
    if sum(map(len, columns)) >= _CSV_ARRAY_VALUES and all(column.dtype.kind in "fiu" for column in columns):
        return header + _csvtext.csv_rows(columns)
    fmt = ",".join("%.16e" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
    return header + "".join(map(fmt.__mod__, zip(*(column.tolist() for column in columns))))


def table_to_json(table: dict) -> str:
    """JSON text of the table {name: column}: a list of {name: value}
    objects, indent 2, byte for byte what `json.dumps(..., indent=2)`
    gives for finite float and integer columns of the same length; a NaN
    or an infinity, which JSON cannot hold, is a ValueError naming its
    column and row.  A table of at least _JSON_ARRAY_VALUES values, all
    float or integer, is formatted by numpy array passes
    (`_csvtext.json_rows`) with the same bytes: the shortest digits that
    read back, from the rounding interval of each value in double-double
    arithmetic, and Python's float.__repr__ for the values a test within
    2**-40 decides and the subnormal ones.  A smaller table, or one with
    another kind of column, is formatted row by row."""
    columns = _columns(table)
    message = _non_finite(table, columns)
    if message:
        raise ValueError(message)
    keys = [json.dumps(name) for name in table]
    if sum(map(len, columns)) >= _JSON_ARRAY_VALUES and all(column.dtype.kind in "fiu" for column in columns):
        return _csvtext.json_rows(keys, columns)
    fields = ",\n".join("    %s: %%s" % key.replace("%", "%%") for key in keys)
    template = "  {\n" + fields + "\n  }"
    values = (map(float.__repr__ if column.dtype.kind == "f" else int.__repr__, column.tolist()) for column in columns)
    objects = list(map(template.__mod__, zip(*values)))
    if not objects:
        return "[]\n"
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _non_finite(names, columns: list) -> str | None:
    """'<name> is not finite at row <k>' for the first float column that
    holds a NaN or an infinity, else None."""
    for name, column in zip(names, columns):
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            return f"{name} is not finite at row {int(np.argmin(np.isfinite(column)))}"
    return None


def _emit(args, table: dict) -> None:
    """Write the table {name: column}, or refuse it (DomainError, nothing
    written) when a float column holds a NaN or an infinity.  An OSError
    while writing --output or its sidecar removes the data file again."""
    table = {name: np.asarray(column) for name, column in table.items()}
    message = _non_finite(table, list(table.values()))
    if message:
        raise DomainError(message)
    text = table_to_json(table) if args.format == "json" else table_to_csv(table)
    if not args.output:
        sys.stdout.write(text)
        return
    data = open(args.output, "w", newline="")  # an OSError here has created nothing
    try:
        with data:
            data.write(text)
        sidecar = {"command": " ".join(args.invocation), "version": __version__}
        with open(args.output + ".meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    except OSError:
        os.remove(args.output)
        raise


def _cmd_spectrum(args) -> None:
    p = _physical_params(args)
    table = spectrum.build_table(p, args.n_max)
    levels = np.arange(len(table.eps))
    _emit(args, {"n": levels, "kappa": np.full_like(levels, table.kappa), "eps": table.eps,
                 "oracle_residual": table.oracle_residual})


def _cmd_phase_shift(args) -> None:
    p = _physical_params(args)
    grid = _eps_grid(args, (model.Regime.SCATTERING,))
    r = scattering.phase_shift_sweep(p, grid)
    _emit(args, {"eps": r.eps, "theta": r.theta, "Phi": r.phi, "psi": r.psi, "amplitude": r.amplitude})


def _cmd_coefficients(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    grid = _eps_grid(args)
    levels = np.arange(args.n_max + 1)
    f = np.empty((len(grid), len(levels)), dtype=complex)
    dev = np.full(f.shape, -1.0)  # -1 where the closed form is undefined
    for row, dev_row, eps in zip(f, dev, grid):
        row[:] = wavefunction.coefficients_recursion(d, eps, args.n_max).values
        try:
            closed = wavefunction.coefficients_closed_form(d, eps, args.n_max).values
        except (BottomPoleError, SingularMapError):
            continue
        dev_row[:] = _relative_deviation(closed, row)
    _emit(args, {"eps": np.repeat(grid, len(levels)), "n": np.tile(levels, len(grid)),
                 "f_re": f.real.ravel(), "f_im": f.imag.ravel(), "closed_rel_dev": dev.ravel()})


def _relative_deviation(closed: np.ndarray, values: np.ndarray) -> np.ndarray:
    """|closed - values| / max(1e-300, |values|) per element, with the
    bytes of Python's abs and max on each pair: np.hypot of the real and
    imaginary parts is the scalar abs of a complex (np.abs of an array is
    not, in the last bit), and a NaN |values| takes the 1e-300 floor."""
    diff = closed - values
    magnitude = np.hypot(values.real, values.imag)
    return np.hypot(diff.real, diff.imag) / np.where(magnitude > 1e-300, magnitude, 1e-300)


def _cmd_green(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    coeffs = model.recursion_coefficients(d)
    est = resolvent.green_function(coeffs, complex(args.zre, args.zim), tol=args.tol, max_depth=args.depth)
    _emit(args, {"z_re": [args.zre], "z_im": [args.zim], "G_re": [est.value.real], "G_im": [est.value.imag],
                 "depth": [est.depth], "last_delta": [est.last_delta]})


def _cmd_density(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    pol = model.map_to_pollaczek(d, _off_threshold(args))
    params = pollaczek.PollaczekParams(lam=pol.lam, b=pol.b)
    coeffs = pollaczek.jacobi_coefficients(params)
    xs = _grid("--x-grid", args.x_grid)
    rho = resolvent.spectral_density_grid(coeffs, xs, args.eta)
    _emit(args, {"x": xs, "eta": np.full_like(xs, args.eta), "rho": rho})


def _cmd_wavefunction(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    r = _grid("--r-grid", args.r_grid, positive=True)
    eps = _off_threshold(args)
    # bound regime: the square-summable vector (backward generator), so a
    # user-rounded level energy still yields the physical state; the
    # forward recursion is the scattering-regime evaluator
    if model.regime(eps) is model.Regime.BOUND:
        coeffs = wavefunction.coefficients_bound_state(d, eps, args.trunc)
    else:
        coeffs = wavefunction.coefficients_recursion(d, eps, args.trunc)
    phi_plus, phi_minus = wavefunction.spinor(coeffs, d, r, args.trunc)
    _emit(args, {"r": r, "phi_plus": phi_plus, "phi_minus": phi_minus})


def _cmd_verify(args) -> None:
    p = _physical_params(args)
    d = model.derive(p)
    report = wavefunction.verify_tridiagonal(d, args.eps, args.n)
    gram = wavefunction.gram_matrix(d, min(args.n, 20))
    _emit(args, {"offband_ratio": [report.offband_ratio], "diag_deviation": [report.diag_deviation],
                 "offdiag_deviation": [report.offdiag_deviation],
                 "gram_deviation": [np.max(np.abs(gram - np.eye(gram.shape[0])))]})


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
                            help="allow grids crossing or ending at |eps| = 1; out-of-regime points are dropped")
        if n_max is not None:
            sp.add_argument("--n-max", type=int, default=n_max)

    sp = sub.add_parser("spectrum", help="bound levels with fine-structure oracle residuals")
    common(sp, n_max=10)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("phase-shift", help="scattering amplitude and phases at |eps| > 1")
    common(sp, energy="grid")
    sp.set_defaults(func=_cmd_phase_shift)

    about = ("expansion coefficients, recursion vs closed form; closed_rel_dev = -1 where the closed "
             "form is undefined (a bottom Pochhammer pole, or x rounding to -1 or 1)")
    sp = sub.add_parser("coefficients", help=about, description=about)
    common(sp, energy="grid", n_max=30)
    sp.set_defaults(func=_cmd_coefficients)

    sp = sub.add_parser("green", help="continued-fraction Green function at one complex point")
    common(sp)
    sp.add_argument("--zre", type=float, required=True)
    sp.add_argument("--zim", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="stop once the last update falls below TOL, which bounds that update, not the error (Z -1, "
                         "kappa 1, compton 0.05, z 3+0.05i: 1e-12 stops at depth 85036, 6.0e-11 off depth 500000)")
    sp.add_argument("--depth", type=int, default=200_000, help="most levels to try (a budget, not an allocation)")
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


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _numbers_as_values(argv) -> list:
    """argv with a space before each negative number (-1e-1, -inf) that
    is not an --output path.  argparse takes -1e-1 for an option (it
    passes only forms like -1 and -1.5), but any version takes a token
    that starts with a space for a value, and float() skips the space."""
    return [" " + token if token.startswith("-") and _is_number(token) and prev != "--output" else token
            for prev, token in zip([None, *argv], argv)]


def main(argv=None) -> int:
    parser = build_parser()
    invocation = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(_numbers_as_values(invocation))
    except SystemExit as exc:  # argparse reports its own message
        return 1 if exc.code not in (0, None) else 0
    args.invocation = invocation
    try:
        _check_args(args)
        # numpy's floating-point warnings stay off: a NaN or an infinity
        # they would flag cannot reach the output, since _emit refuses it
        with np.errstate(all="ignore"):
            args.func(args)
    except (ConfigError, ValueError, OSError, MemoryError, OverflowError, ConvergenceFailure, DomainError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceFailure) else 2 if isinstance(exc, DomainError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
