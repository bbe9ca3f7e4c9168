"""Per-layer tracing from outside the program.

`Tracer.install()` replaces selected public functions of the `tridirac`
modules with timing wrappers.  Several modules bind functions of other
modules by name (`from .model import map_to_pollaczek`), so a wrapper
replaces the function object in every `tridirac.*` namespace that holds
it; `uninstall()` puts the originals back.  The coefficient callables that
`model.recursion_coefficients` and `pollaczek.jacobi_coefficients` return
are wrapped as well, under the span `model.coeff`, and so is
`mpmath.workdps`, to see which calls raise the working precision.

Spans nest: a span's self time is its duration minus the time its child
spans cover.  Work counts are taken from the arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

import mpmath
import time
from dataclasses import dataclass, field

# The functions traced, per layer.  Functions not listed here (for example
# `wavefunction.basis_value`) are not spans: their time is self time of the
# nearest traced caller.
TRACED = {
    "specfun": ("laguerre", "gauss_laguerre_rule", "tridiag_eigen_first_row", "log_gamma", "pochhammer",
                "hyp2f1_terminating"),
    "pollaczek": ("evaluate", "to_orthonormal", "scattering_amplitude_phase", "jacobi_coefficients"),
    "model": ("map_to_pollaczek", "theta_phi", "derive", "recursion_coefficients"),
    "spectrum": ("build_table", "bound_energy"),
    "scattering": ("phase_shift", "phase_shift_sweep", "fit_asymptotics"),
    "resolvent": ("green_function", "green_function_truncated", "spectral_density_grid"),
    "wavefunction": ("coefficients_recursion", "coefficients_bound_state", "coefficients_closed_form",
                     "reconstruct_upper", "reconstruct_derivative", "lower_component", "verify_tridiagonal",
                     "gram_matrix"),
    "cli": ("main",),
}

COEFF_SPAN = "model.coeff"
RECURSION_SPAN = "wavefunction.coefficients_recursion"


@dataclass
class Span:
    calls: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _binder(fn):
    """Maps (args, kwargs) of a call to `fn` onto its parameter names."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _namespaces() -> list:
    """The loaded `tridirac` package and its submodules."""
    return [m for n, m in list(sys.modules.items()) if n == "tridirac" or n.startswith("tridirac.")]


class Tracer:
    """Timing wrappers around the functions in TRACED; spans accumulate
    until `reset()`."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._child_ns = [0]
        self._active: list[str] = []  # names of the open spans, innermost last
        self._raised_precision = False  # set when the open recursion call enters mpmath.workdps
        self._patched: list = []  # (namespace, attribute, original)
        self._originals: dict[str, object] = {}

    def reset(self) -> None:
        self.spans.clear()

    def span(self, name: str) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        return span

    def _wrap(self, name, fn, after=None):
        stack = self._child_ns
        active = self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            active.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active.pop()
                child = stack.pop()
                stack[-1] += elapsed
                span = self.span(name)
                span.calls += 1
                span.self_ns += elapsed - child
            if after is not None:
                # the hook's own time counts as child time of the caller, so
                # it inflates no span's self time
                hook_start = clock()
                result = after(span, args, kwargs, result)
                stack[-1] += clock() - hook_start
            return result

        return wrapper

    # --- work counters, one per traced function that reports one -------------

    def _after_hooks(self):
        orig = self._originals
        laguerre_args = _binder(orig["specfun.laguerre"])
        hyp2f1_args = _binder(orig["specfun.hyp2f1_terminating"])
        bound_state_args = _binder(orig["wavefunction.coefficients_bound_state"])
        truncated_args = _binder(orig["resolvent.green_function_truncated"])

        def laguerre(span, args, kwargs, result):
            a = laguerre_args(args, kwargs)
            size = a["x"].size if hasattr(a["x"], "size") else 1
            span.add("degree_steps", a["n"] * size)
            return result

        def eigen(span, args, kwargs, result):
            span.add("order_sum", len(result[0]))
            return result

        def hyp2f1(span, args, kwargs, result):
            span.add("terms", hyp2f1_args(args, kwargs)["n"] + 1)
            return result

        def evaluate(span, args, kwargs, result):
            span.add("extended", 0 if hasattr(result.values, "dtype") else 1)
            return result

        def coefficients_recursion(span, args, kwargs, result):
            span.add("mp", 1 if self._raised_precision else 0)
            self._raised_precision = False
            return result

        def coefficients_bound_state(span, args, kwargs, result):
            a = bound_state_args(args, kwargs)
            span.add("guard_steps", a["guard"])
            span.add("backward_steps", a["n_max"] + a["guard"])
            return result

        def green_function(span, args, kwargs, result):
            span.add("depth_sum", result.depth)
            return result

        def green_function_truncated(span, args, kwargs, result):
            a = truncated_args(args, kwargs)
            points = a["z"].size if hasattr(a["z"], "size") else 1
            span.add("levels", a["depth"] * points)
            return result

        def coefficient_maps(span, args, kwargs, result):
            return type(result)(diag=self._wrap(COEFF_SPAN, result.diag),
                                offdiag=self._wrap(COEFF_SPAN, result.offdiag))

        return {
            "specfun.laguerre": laguerre,
            "specfun.tridiag_eigen_first_row": eigen,
            "specfun.hyp2f1_terminating": hyp2f1,
            "pollaczek.evaluate": evaluate,
            RECURSION_SPAN: coefficients_recursion,
            "wavefunction.coefficients_bound_state": coefficients_bound_state,
            "resolvent.green_function": green_function,
            "resolvent.green_function_truncated": green_function_truncated,
            "model.recursion_coefficients": coefficient_maps,
            "pollaczek.jacobi_coefficients": coefficient_maps,
        }

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, names in TRACED.items():
            module = importlib.import_module(f"tridirac.{layer}")
            for fname in names:
                self._originals[f"{layer}.{fname}"] = getattr(module, fname)
        hooks = self._after_hooks()
        namespaces = _namespaces()
        for span_name, original in self._originals.items():
            wrapper = self._wrap(span_name, original, hooks.get(span_name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        workdps = mpmath.workdps

        @functools.wraps(workdps)
        def observed_workdps(*args, **kwargs):
            if self._active and self._active[-1] == RECURSION_SPAN:
                self._raised_precision = True
            return workdps(*args, **kwargs)

        mpmath.workdps = observed_workdps
        self._patched.append((mpmath, "workdps", workdps))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def leftover_references(self) -> list[str]:
        """`module.attribute` names in tridirac namespaces that still hold an
        unwrapped traced function; empty while installed."""
        originals = {id(f) for f in self._originals.values()}
        return [f"{ns.__name__}.{attr}" for ns in _namespaces()
                for attr, value in vars(ns).items() if id(value) in originals]
