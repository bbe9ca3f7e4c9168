"""Closed-loop op runner with failure accounting.

One client thread runs the ops of a cycle back to back and starts the next
cycle only after the last op returns.  An op fails when it exits non-zero,
lets an exception escape `cli.main`, wrote a non-finite value or missed
its oracle tolerance (both judged once, on its first output), or produces
output bytes that differ from its first output in the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field


def scratch_dir(root):
    """A temporary directory for op outputs under `root`/.bench_build,
    removed on exit."""
    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="perfbench-", dir=scratch)


class OpFailed(Exception):
    """The op exited non-zero."""


def invoke(op, workdir: str) -> tuple[bytes, bytes]:
    """Run one op; returns (data, sidecar) bytes, the sidecar empty unless
    the op wrote its table to a file."""
    if op.call is not None:
        return op.call(), b""
    from tridirac import cli

    argv = list(op.argv)
    path = None
    if op.suffix:
        path = os.path.join(workdir, f"{op.name}.{op.suffix}")
        argv += ["--output", path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    if path is None:
        return out.getvalue().encode(), b""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path + ".meta.json", "rb") as fh:
        return data, fh.read()


@dataclass
class Reference:
    """An op's first output and its oracle verdict."""

    output: tuple | None
    error: float = math.inf
    ok: bool = False
    reason: str = ""


def reference(op, workdir: str) -> Reference:
    """Run `op` once and judge the output against its oracle; never raises
    for a failing op."""
    try:
        produced = invoke(op, workdir)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        return Reference(None, reason=f"{type(exc).__name__}: {exc}")
    try:
        error = float(op.check(produced[0]))
    except Exception as exc:
        return Reference(produced, reason=f"oracle rejected output: {type(exc).__name__}: {exc}")
    if not error <= op.tol:
        return Reference(produced, error, reason=f"error {error:.3e} above tolerance {op.tol:.3e}")
    return Reference(produced, error, ok=True)


@dataclass
class Phase:
    """Timings and failures of one timed phase."""

    elapsed: float = 0.0
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    op_seconds: dict = field(default_factory=dict)  # op name -> wall times of successful ops
    clean_cycle_seconds: list = field(default_factory=list)  # wall time of each cycle in which no op failed
    failures: dict = field(default_factory=dict)  # op name -> first failure reason

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_phase(ops, refs: dict, seconds: float, workdir: str, phase: Phase | None = None) -> Phase:
    """Run whole cycles until `seconds` have passed; adds to `phase` when
    one is given."""
    if phase is None:
        phase = Phase(op_seconds={op.name: [] for op in ops})
    clock = time.perf_counter
    start = clock()
    while True:
        cycle_start = clock()
        failed_before = phase.failed
        for op in ops:
            t0 = clock()
            try:
                produced = invoke(op, workdir)
                reason = None
            except Exception as exc:  # an escaped exception is a failed op, not a crash
                produced, reason = None, f"{type(exc).__name__}: {exc}"
            took = clock() - t0
            phase.attempted += 1
            ref = refs[op.name]
            if reason is None and not ref.ok:
                reason = ref.reason
            if reason is None and produced != ref.output:
                reason = "output bytes differ from the first output"
            if reason is None:
                phase.op_seconds[op.name].append(took)
            else:
                phase.failed += 1
                phase.failures.setdefault(op.name, reason)
        phase.cycles += 1
        if phase.failed == failed_before:
            phase.clean_cycle_seconds.append(clock() - cycle_start)
        if clock() - start >= seconds:
            break
    phase.elapsed += clock() - start
    return phase


def fastest_rate(ops, phase: Phase) -> float | None:
    """Ops per second of the fastest cycle in which every op succeeded;
    None when no cycle did."""
    return len(ops) / min(phase.clean_cycle_seconds) if phase.clean_cycle_seconds else None


def mean_min_ms(phase: Phase) -> float | None:
    """The fastest successful call of each op in milliseconds, averaged over
    every op of the mix; None when some op never succeeded."""
    per_op = phase.op_seconds.values()
    return 1000.0 * statistics.fmean(min(ts) for ts in per_op) if all(per_op) else None


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(q * len(xs) / 100)) - 1]


def tail(samples):
    """(value, percentile) of the highest whole percentile with at least
    ten samples above it (nearest rank), or (max, 100) for fewer than 11."""
    n = len(samples)
    for q in range(99, 0, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return percentile(samples, q), q
    return max(samples), 100


def accuracy_digits(refs: dict) -> float:
    """min over ops of -log10(relative error), capped at 16."""
    return min(min(16.0, -math.log10(max(r.error, 1e-16))) for r in refs.values())


def median_ms(samples) -> float:
    return 1000.0 * statistics.median(samples) if samples else 0.0


def report_failures(phase: Phase) -> None:
    for name, reason in phase.failures.items():
        print(f"perfbench: op {name} failed: {reason}", file=sys.stderr)
