"""Per-layer metrics of a traced run.

Counts and self times are per cycle of the traced phase; every cycle runs
the same ops, so counts are exact.  Ratios are over all calls of the
traced phase.  `cli.<subcommand>.p50_ms` comes from the untraced phase of
the same run, and `trace.overhead_frac` compares the fastest cycles of the
two phases in which no op failed.
"""

from __future__ import annotations

import statistics

from . import runner
from .tracing import COEFF_SPAN, Span

SUBCOMMANDS = ("spectrum", "phase-shift", "coefficients", "green", "density", "wavefunction", "verify")

# (metric, span, stat, unit).  A stat is "calls", "self_ms", a work count
# recorded by the span, or "<count>/<count or calls>" for a ratio.
SPAN_METRICS = (
    ("specfun.laguerre.calls", "specfun.laguerre", "calls", "count"),
    ("specfun.laguerre.self_ms", "specfun.laguerre", "self_ms", "ms"),
    ("specfun.laguerre.degree_steps", "specfun.laguerre", "degree_steps", "count"),
    ("specfun.gauss_laguerre_rule.calls", "specfun.gauss_laguerre_rule", "calls", "count"),
    ("specfun.gauss_laguerre_rule.self_ms", "specfun.gauss_laguerre_rule", "self_ms", "ms"),
    ("specfun.tridiag_eigen_first_row.self_ms", "specfun.tridiag_eigen_first_row", "self_ms", "ms"),
    ("specfun.tridiag_eigen_first_row.order_sum", "specfun.tridiag_eigen_first_row", "order_sum", "count"),
    ("specfun.log_gamma.calls", "specfun.log_gamma", "calls", "count"),
    ("specfun.log_gamma.self_ms", "specfun.log_gamma", "self_ms", "ms"),
    ("specfun.pochhammer.self_ms", "specfun.pochhammer", "self_ms", "ms"),
    ("specfun.hyp2f1_terminating.self_ms", "specfun.hyp2f1_terminating", "self_ms", "ms"),
    ("specfun.hyp2f1_terminating.terms", "specfun.hyp2f1_terminating", "terms", "count"),
    ("pollaczek.evaluate.calls", "pollaczek.evaluate", "calls", "count"),
    ("pollaczek.evaluate.self_ms", "pollaczek.evaluate", "self_ms", "ms"),
    ("pollaczek.evaluate.extended_frac", "pollaczek.evaluate", "extended/calls", "ratio"),
    ("pollaczek.to_orthonormal.self_ms", "pollaczek.to_orthonormal", "self_ms", "ms"),
    ("pollaczek.scattering_amplitude_phase.calls", "pollaczek.scattering_amplitude_phase", "calls", "count"),
    ("model.coeff_evals", COEFF_SPAN, "calls", "count"),
    ("model.coeff_self_ms", COEFF_SPAN, "self_ms", "ms"),
    ("model.map_to_pollaczek.calls", "model.map_to_pollaczek", "calls", "count"),
    ("model.theta_phi.calls", "model.theta_phi", "calls", "count"),
    ("model.derive.calls", "model.derive", "calls", "count"),
    ("spectrum.build_table.self_ms", "spectrum.build_table", "self_ms", "ms"),
    ("spectrum.bound_energy.calls", "spectrum.bound_energy", "calls", "count"),
    ("scattering.phase_shift.calls", "scattering.phase_shift", "calls", "count"),
    ("scattering.phase_shift_sweep.self_ms", "scattering.phase_shift_sweep", "self_ms", "ms"),
    ("scattering.fit_asymptotics.self_ms", "scattering.fit_asymptotics", "self_ms", "ms"),
    ("resolvent.green_function.calls", "resolvent.green_function", "calls", "count"),
    ("resolvent.green_function.self_ms", "resolvent.green_function", "self_ms", "ms"),
    ("resolvent.green_function.depth_sum", "resolvent.green_function", "depth_sum", "count"),
    ("resolvent.green_function_truncated.self_ms", "resolvent.green_function_truncated", "self_ms", "ms"),
    ("resolvent.green_function_truncated.levels", "resolvent.green_function_truncated", "levels", "count"),
    ("resolvent.spectral_density_grid.self_ms", "resolvent.spectral_density_grid", "self_ms", "ms"),
    ("wavefunction.coefficients_recursion.self_ms", "wavefunction.coefficients_recursion", "self_ms", "ms"),
    ("wavefunction.coefficients_recursion.mp_frac", "wavefunction.coefficients_recursion", "mp/calls", "ratio"),
    ("wavefunction.coefficients_bound_state.self_ms", "wavefunction.coefficients_bound_state", "self_ms", "ms"),
    ("wavefunction.coefficients_bound_state.guard_frac", "wavefunction.coefficients_bound_state",
     "guard_steps/backward_steps", "ratio"),
    ("wavefunction.coefficients_closed_form.self_ms", "wavefunction.coefficients_closed_form", "self_ms", "ms"),
    ("wavefunction.reconstruct_upper.self_ms", "wavefunction.reconstruct_upper", "self_ms", "ms"),
    ("wavefunction.reconstruct_derivative.self_ms", "wavefunction.reconstruct_derivative", "self_ms", "ms"),
    ("wavefunction.lower_component.self_ms", "wavefunction.lower_component", "self_ms", "ms"),
    ("wavefunction.verify_tridiagonal.self_ms", "wavefunction.verify_tridiagonal", "self_ms", "ms"),
    ("wavefunction.gram_matrix.self_ms", "wavefunction.gram_matrix", "self_ms", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms", "ms"),
)

OTHER_METRICS = (
    ("cli.output_bytes", "bytes"),
    *((f"cli.{sub}.p50_ms", "ms") for sub in SUBCOMMANDS),
    ("trace.overhead_frac", "ratio"),
)


def names_and_units():
    """Every per-layer metric, in report order, with its unit."""
    return [(m, unit) for m, _, _, unit in SPAN_METRICS] + list(OTHER_METRICS)


def _stat(span: Span, stat: str, cycles: int) -> float:
    if stat == "calls":
        return span.calls / cycles
    if stat == "self_ms":
        return span.self_ns / cycles / 1e6
    if "/" in stat:
        num, den = stat.split("/")
        base = span.calls if den == "calls" else span.counts.get(den, 0)
        return span.counts.get(num, 0) / base if base else 0.0
    return span.counts.get(stat, 0) / cycles


def metrics(spans: dict, ops, refs: dict, untraced, traced) -> dict:
    out = {}
    for name, span_name, stat, unit in SPAN_METRICS:
        out[name] = {"value": _stat(spans.get(span_name, Span()), stat, traced.cycles), "unit": unit}
    cli_bytes = 0
    for op in ops:
        if op.argv and refs[op.name].output:
            data, sidecar = refs[op.name].output
            cli_bytes += len(data) + len(sidecar)
    out["cli.output_bytes"] = {"value": cli_bytes, "unit": "bytes"}
    for sub in SUBCOMMANDS:
        times = [t for op in ops if op.subcommand == sub for t in untraced.op_seconds[op.name]]
        out[f"cli.{sub}.p50_ms"] = {"value": 1000.0 * statistics.median(times) if times else 0.0, "unit": "ms"}
    # rates as in the info line ops_per_s: the fastest clean cycle of each phase
    rates = runner.fastest_rate(ops, untraced), runner.fastest_rate(ops, traced)
    if None not in rates:
        out["trace.overhead_frac"] = {"value": 1.0 - rates[1] / rates[0], "unit": "ratio"}
    return out
