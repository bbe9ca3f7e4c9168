"""Self-tests of the benchmark itself (not of tridirac).

    python3 perfbench/selftest.py

They check that tracing misses no calls and changes no output, that the
runner counts a failing op and carries on, that the generator is seeded,
and that the command reports exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import unittest  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers, oracles, runner, tracing, workloads  # noqa: E402

# Which workload must call each traced span: the "On" column of the
# interaction table in README.md, plus the ops each workload runs.
EXERCISED_ON = {
    "specfun.laguerre": ("basis",),
    "specfun.gauss_laguerre_rule": ("basis",),
    "specfun.tridiag_eigen_first_row": ("basis",),
    "specfun.log_gamma": ("sweep",),
    "specfun.pochhammer": ("sweep",),
    "specfun.hyp2f1_terminating": ("sweep",),
    "pollaczek.evaluate": ("sweep",),
    "pollaczek.to_orthonormal": ("sweep",),
    "pollaczek.scattering_amplitude_phase": ("sweep",),
    tracing.COEFF_SPAN: ("resolvent",),
    "model.map_to_pollaczek": ("basis", "resolvent", "sweep"),
    "model.theta_phi": ("sweep",),
    "model.derive": ("basis", "resolvent", "sweep"),
    "spectrum.build_table": ("sweep",),
    "spectrum.bound_energy": ("sweep",),
    "scattering.phase_shift": ("sweep",),
    "scattering.phase_shift_sweep": ("sweep",),
    "scattering.fit_asymptotics": ("sweep",),
    "resolvent.green_function": ("resolvent",),
    "resolvent.green_function_truncated": ("resolvent",),
    "resolvent.spectral_density_grid": ("resolvent",),
    "wavefunction.coefficients_recursion": ("basis", "sweep"),
    "wavefunction.coefficients_bound_state": ("basis",),
    "wavefunction.coefficients_closed_form": ("sweep",),
    "wavefunction.reconstruct_upper": ("basis",),
    "wavefunction.reconstruct_derivative": ("basis",),
    "wavefunction.lower_component": ("basis",),
    "wavefunction.verify_tridiagonal": ("basis",),
    "wavefunction.gram_matrix": ("basis",),
    "cli.main": ("basis", "resolvent", "sweep"),
}


class TracingTest(unittest.TestCase):
    """One untraced reference cycle and one traced cycle per workload."""

    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, seed=7)
            with runner.scratch_dir(ROOT) as workdir:
                refs = {op.name: runner.reference(op, workdir) for op in wl.ops}
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    leftovers = tracer.leftover_references()
                    phase = runner.run_phase(wl.ops, refs, 0.0, workdir)
                finally:
                    tracer.uninstall()
            cls.results[name] = (refs, phase, dict(tracer.spans), leftovers)

    def test_no_unwrapped_reference_left(self):
        for name, (_, _, _, leftovers) in self.results.items():
            self.assertEqual(leftovers, [], name)

    def test_every_span_is_exercised_where_expected(self):
        span_names = {span for _, span, _, _ in layers.SPAN_METRICS}
        self.assertEqual(span_names, set(EXERCISED_ON))
        for span, names in EXERCISED_ON.items():
            for name in names:
                spans = self.results[name][2]
                self.assertGreater(spans[span].calls if span in spans else 0, 0, f"{span} on {name}")

    def test_mpmath_path_is_observed(self):
        # sweep runs `coefficients` at a bound energy, where the forward
        # recursion switches to mpmath, and at a scattering energy, where it
        # stays in double precision
        span = self.results["sweep"][2][tracing.RECURSION_SPAN]
        self.assertGreater(span.counts["mp"], 0)
        self.assertLess(span.counts["mp"], span.calls)

    def test_traced_outputs_are_byte_identical(self):
        for name, (refs, phase, _, _) in self.results.items():
            self.assertTrue(all(r.ok for r in refs.values()), {k: r.reason for k, r in refs.items()})
            self.assertEqual(phase.failed, 0, f"{name}: {phase.failures}")
            self.assertEqual(phase.attempted, len(refs))

    def test_uninstall_restores_originals(self):
        from tridirac import resolvent, specfun

        self.assertFalse(hasattr(specfun.laguerre, "__wrapped__"))
        self.assertFalse(hasattr(resolvent.map_to_pollaczek, "__wrapped__"))


class FailureAccountingTest(unittest.TestCase):
    def test_overflow_counts_as_one_failed_op(self):
        # Known defect: the closed form overflows between n-max 150 and 200.
        phys = ("--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "1.3")
        ops = [
            workloads.Op("coefficients.n200", partial(oracles.coefficients, n_max=200), 1e-8,
                         argv=("coefficients", *phys, "--n-max", "200")),
            workloads.Op("coefficients.n30", partial(oracles.coefficients, n_max=30), 1e-8,
                         argv=("coefficients", *phys, "--n-max", "30")),
        ]
        with runner.scratch_dir(ROOT) as workdir:
            refs = {op.name: runner.reference(op, workdir) for op in ops}
            phase = runner.run_phase(ops, refs, 0.0, workdir)
        self.assertIn("OverflowError", refs["coefficients.n200"].reason)
        self.assertTrue(refs["coefficients.n30"].ok)
        self.assertEqual((phase.attempted, phase.failed), (2, 1))
        self.assertIn("OverflowError", phase.failures["coefficients.n200"])
        self.assertEqual(len(phase.op_seconds["coefficients.n30"]), 1)
        # the failed op makes no timing look better: both are left out
        self.assertIsNone(runner.fastest_rate(ops, phase))
        self.assertIsNone(runner.mean_min_ms(phase))


class GeneratorTest(unittest.TestCase):
    def test_seeded(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 3), workloads.build(name, 3)
            c = workloads.build(name, 4)
            self.assertEqual([op.argv for op in a.ops], [op.argv for op in b.ops])
            self.assertEqual(a.params, b.params)
            self.assertNotEqual(a.params, c.params)

    def test_sizes_do_not_depend_on_seed(self):
        def sizes(wl):
            return [tuple(v for k, v in zip(op.argv, op.argv[1:])
                          if k in ("--n-max", "--trunc", "--n", "--eta", "--zim")) for op in wl.ops]

        for name in workloads.WORKLOADS:
            self.assertEqual(sizes(workloads.build(name, 1)), sizes(workloads.build(name, 2)))


class CommandTest(unittest.TestCase):
    """The command prints exactly the metrics BENCHMARK.json declares."""

    def run_command(self, trace):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_metrics_match_declaration(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_command(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(reported, declared)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.names_and_units())


if __name__ == "__main__":
    unittest.main()
