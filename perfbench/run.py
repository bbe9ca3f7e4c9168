"""tridirac benchmark: seeded closed-loop workloads timed end to end, with a
separate traced mode that reports per-layer work and self time.

    python3 perfbench/run.py --workload basis|resolvent|sweep --seed N \
        --seconds S --trace 0|1

Run it from the root of a source tree; it imports `tridirac` from `src/`.
With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md next
to this file for the workloads, the metric definitions and what each
per-layer metric is expected to move.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools to one thread before numpy is imported, here
# and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_RUNS = 7  # set-up is measured this many times per run; the median is reported
PROBE_TIMEOUT_S = 150


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree, not a clone
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(args, workload) -> dict:
    import mpmath
    import numpy

    from perfbench import workloads

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if args.trace else "timed",
        "seconds": args.seconds,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "params": workload.params,
        "bands": workloads.BANDS[args.workload],
    }


def _setup_probe(args) -> int:
    """Child process: import tridirac, run one untimed cycle, report the
    monotonic clock at that point."""
    import tridirac  # noqa: F401  (the import is part of what is measured)
    from perfbench import runner, workloads

    wl = workloads.build(args.workload, args.seed)
    with runner.scratch_dir(ROOT) as workdir:
        for op in wl.ops:
            try:
                runner.invoke(op, workdir)
            except Exception:  # failures are counted by the measuring process
                pass
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


def _measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to the end of its import
    and warm-up cycle."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    lines = out.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return float(lines[1]) - start


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed(args, wl, refs, workdir):
    from perfbench import runner

    # The set-up probes alternate with equal slices of the timed phase, so
    # that both sample the host over the whole run, not over one stretch of
    # it; the probes never run while ops are timed.
    setup, phase = [], None
    for _ in range(SETUP_RUNS):
        setup.append(_measure_setup(args))
        gc.collect()
        phase = runner.run_phase(wl.ops, refs, args.seconds / SETUP_RUNS, workdir, phase)
    per_op = [ts for ts in phase.op_seconds.values() if ts]
    samples = [t for ts in per_op for t in ts]
    tail_s, tail_q = runner.tail(samples) if samples else (0.0, 0)
    # The best call of each op, not a median: the host's speed changes from
    # second to second, so a median (and even a 10th percentile) jumps
    # between its states from run to run.  The fastest cycle needs every op
    # of a cycle fast at once and spreads more; it, the median and the tail
    # are printed, not declared.  See README.md.  A failed op must not make
    # a timing look better: op_min_ms leaves failed calls out and is omitted
    # (the run is then not correct) when some op never succeeded.
    op_min_ms = runner.mean_min_ms(phase)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        **({"op_min_ms": _metric(op_min_ms, "ms")} if op_min_ms is not None else {}),
        "accuracy_digits": _metric(runner.accuracy_digits(refs), "digits"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"setup runs (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"timed phase: {phase.cycles} cycles, {phase.attempted} ops in {phase.elapsed:.3f} s")
    print(f"info fail_frac = {phase.failed / phase.attempted:.6g} ratio ({phase.failed} of {phase.attempted})")
    rate = runner.fastest_rate(wl.ops, phase)
    if rate is not None:
        print(f"info ops_per_s = {rate:.6g} 1/s (fastest cycle in which no op failed)")
    print(f"info mean_ops_per_s = {phase.completed / phase.elapsed:.6g} 1/s")
    if per_op:
        print(f"info op_p50_ms = {statistics.fmean(runner.median_ms(ts) for ts in per_op):.6g} ms "
              "(per-op medians, averaged over the mix)")
        print(f"info op_tail_ms = {1000.0 * tail_s:.6g} ms (p{tail_q} of {len(samples)} op samples)")
    return [phase], metrics


def _traced(args, wl, refs, workdir):
    from perfbench import layers, runner, tracing

    gc.collect()
    untraced = runner.run_phase(wl.ops, refs, args.seconds / 2, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.collect()
        tracer.reset()
        traced = runner.run_phase(wl.ops, refs, args.seconds / 2, workdir)
    finally:
        tracer.uninstall()
    metrics = layers.metrics(tracer.spans, wl.ops, refs, untraced, traced)
    print(f"untraced phase: {untraced.cycles} cycles in {untraced.elapsed:.3f} s; "
          f"traced phase: {traced.cycles} cycles in {traced.elapsed:.3f} s")
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tridirac" / "__init__.py").is_file():
        print(f"perfbench: no tridirac sources under {SRC}; run from a tridirac source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import runner, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)

    import tridirac

    if Path(tridirac.__file__).resolve().parent != SRC / "tridirac":
        print(f"perfbench: imported tridirac from {tridirac.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    print("env " + json.dumps(_environment(args, wl), sort_keys=True))
    with runner.scratch_dir(ROOT) as workdir:
        refs = {op.name: runner.reference(op, workdir) for op in wl.ops}
        for name, ref in refs.items():
            print(f"oracle {name}: relative error {ref.error:.3e}" + ("" if ref.ok else f" FAILED ({ref.reason})"))
        phases, metrics = (_traced if args.trace else _timed)(args, wl, refs, workdir)
    for phase in phases:
        runner.report_failures(phase)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and all(r.ok for r in refs.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
