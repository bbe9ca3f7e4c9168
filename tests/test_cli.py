import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tridirac import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_six_row_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--z", "-1", "--kappa", "1",
            "--compton", "7.2973525693e-3", "--n-max", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,kappa,eps,oracle_residual"
        assert len(lines) == 7
        residuals = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(r < 1e-12 for r in residuals)

    def test_repulsive_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--z", "1", "--kappa", "1")
        assert code == 2
        assert "RepulsiveError" in err

    def test_supercritical_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--z", "-2", "--kappa", "1", "--compton", "1.0")
        assert code == 2
        assert "SupercriticalError" in err


class TestPhaseShiftCommand:
    def test_free_case_phi_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-shift", "--z", "0", "--kappa", "1", "--compton", "0.02", "--eps", "1.5",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == 0.0  # Phi column

    def test_threshold_crossing_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02",
            "--eps-grid", "0.9", "1.5", "7",
        )
        assert code == 2
        assert "split" in err

    def test_split_flag_drops_bound_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02",
            "--eps-grid", "0.9", "1.5", "7", "--split",
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        eps_values = [float(r.split(",")[0]) for r in rows]
        assert eps_values and all(e > 1.0 for e in eps_values)

    def test_grid_matches_single_runs(self, capsys):
        base = ["--z", "-1", "--kappa", "1", "--compton", "0.02"]
        code, grid_out, _ = run_cli(capsys, "phase-shift", *base, "--eps-grid", "1.2", "1.4", "3")
        assert code == 0
        grid_rows = grid_out.strip().split("\n")[1:]
        for eps, row in zip(np.linspace(1.2, 1.4, 3), grid_rows):
            code, single_out, _ = run_cli(capsys, "phase-shift", *base, "--eps", repr(float(eps)))
            assert code == 0
            assert single_out.strip().split("\n")[1] == row


class TestDeterminism:
    EXAMPLES = [
        ["spectrum", "--z", "-1", "--kappa", "1", "--compton", "7.2973525693e-3", "--n-max", "5"],
        ["phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25"],
        ["coefficients", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "1.3", "--n-max", "10"],
        ["green", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--zre", "3.0", "--zim", "0.5"],
        ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25",
         "--x-grid", "-0.9", "0.9", "7", "--eta", "1e-2"],
        ["wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "0.9996872555384283",
         "--trunc", "32", "--r-grid", "0.5", "20", "12"],
        ["verify", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "0.9996872555384283", "--n", "12"],
    ]

    @pytest.mark.parametrize("argv", EXAMPLES, ids=[e[0] for e in EXAMPLES])
    def test_byte_identical_repeat(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1  # produced something

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_both_formats(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "spectrum", "--z", "-1", "--kappa", "1", "--format", fmt, "--n-max", "2",
        )
        assert code == 0
        if fmt == "json":
            rows = json.loads(out)
            assert rows[0]["n"] == 0
        else:
            assert out.startswith("n,kappa,eps")


class TestRepeatedCalls:
    def test_no_cyclic_garbage_per_call(self, capsys):
        # in-process callers run main() in a loop; a parser rebuilt per call
        # leaves ~1,000 objects in reference cycles each time
        argv = ["wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "1.3",
                "--trunc", "8", "--r-grid", "0.5", "5", "4"]
        assert cli.main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOutputFiles:
    def test_writes_data_and_sidecar(self, tmp_path, capsys):
        target = tmp_path / "levels.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "--z", "-1", "--kappa", "1", "--n-max", "2",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        data = target.read_text()
        assert data.startswith("n,kappa,eps")
        meta = json.loads((tmp_path / "levels.csv.meta.json").read_text())
        assert meta["version"]
        assert "spectrum" in meta["command"]

    def test_repeat_writes_identical_bytes(self, tmp_path, capsys):
        target1 = tmp_path / "a.csv"
        target2 = tmp_path / "b.csv"
        args = ["wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                "--eps", "0.9996872555384283", "--trunc", "16", "--r-grid", "0.5", "10", "8"]
        assert cli.main(args + ["--output", str(target1)]) == 0
        assert cli.main(args + ["--output", str(target2)]) == 0
        assert target1.read_bytes() == target2.read_bytes()


class TestDensityCommand:
    def test_band_mass_near_unity(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--z", "-1", "--kappa", "1", "--compton", "0.02",
            "--eps", "1.25", "--x-grid", "-0.99", "0.99", "99", "--eta", "1e-2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        xs = np.array([float(r[0]) for r in rows])
        rho = np.array([float(r[2]) for r in rows])
        assert abs(np.trapezoid(rho, xs) - 1.0) < 0.02


class TestVerifyCommand:
    def test_tridiagonality_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--z", "-1", "--kappa", "1",
            "--eps", "0.9999933", "--n", "20",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[0]) < 1e-10  # offband ratio
        assert float(row[3]) < 1e-9  # gram deviation


class TestConfigErrors:
    def test_unknown_command(self, capsys):
        assert cli.main(["no-such-command"]) == 1

    def test_bad_kappa(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--z", "-1", "--kappa", "0")
        assert code == 1
        assert "ConfigError" in err


def _case_id(argv):
    """The subcommand and the last flag with its values."""
    last_flag = max(i for i, token in enumerate(argv) if token.startswith("--"))
    return " ".join(argv[:1] + argv[last_flag:])


class TestInvalidInput:
    WAVE = ["wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--eps", "1.3"]
    DENSITY = ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25"]
    CASES = [
        (["spectrum", "--kappa", "1", "--n-max", "1", "--z", "nan"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--compton", "inf"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--omega", "nan"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--n-max", "-3"], "ConfigError"),
        (["coefficients", "--z", "-1", "--kappa", "1", "--eps", "1.3", "--n-max", "-1"], "ConfigError"),
        (["phase-shift", "--z", "-1", "--kappa", "1", "--eps", "nan"], "ConfigError"),
        (["phase-shift", "--z", "-1", "--kappa", "1", "--eps-grid", "1.1", "inf", "3"], "ConfigError"),
        (["phase-shift", "--z", "-1", "--kappa", "1", "--eps-grid", "1.1", "2", "2.5"], "ConfigError"),
        (["green", "--z", "-1", "--kappa", "1", "--zre", "3", "--zim", "nan"], "ConfigError"),
        (["green", "--z", "-1", "--kappa", "1", "--zim", "0.5", "--zre", "inf"], "ConfigError"),
        (WAVE + ["--trunc", "0"], "ConfigError"),
        (WAVE + ["--r-grid", "0.5", "2", "nan"], "ConfigError"),
        (WAVE + ["--r-grid", "0", "2", "3"], "ConfigError"),
        (DENSITY + ["--eta", "nan"], "ConfigError"),
        (DENSITY + ["--x-grid", "-0.5", "0.5", "0"], "ConfigError"),
        # ranges the library itself checks: its ValueError is exit 1 too
        (DENSITY + ["--eta", "-1"], "ValueError"),
        (["verify", "--z", "-1", "--kappa", "1", "--eps", "0.99", "--n", "2"], "ValueError"),
    ]

    @pytest.mark.parametrize("argv,kind", CASES, ids=[_case_id(a) for a, _ in CASES])
    def test_documented_exit(self, capsys, argv, kind):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {kind}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestConvergenceExit:
    def test_green_budget_exhaustion_exits_3(self, capsys):
        # near-axis point with a tiny depth budget cannot converge
        code, _, err = run_cli(
            capsys, "green", "--z", "-1", "--kappa", "1", "--compton", "0.05",
            "--zre", "5.0", "--zim", "1e-6", "--depth", "40", "--tol", "1e-13",
        )
        assert code == 3
        assert "NoConvergence" in err


class TestEntryPoint:
    """The `tridirac` console script declared in pyproject.toml, run as its
    own process.

    The child does what a generated console script does,
    ``sys.exit(<entry point>())``, with the entry point read from
    ``[project.scripts]``. So no installed script is needed, and the child
    runs the package imported here rather than whatever `tridirac` comes
    first on PATH.
    """

    @staticmethod
    def run_script(tmp_path, *argv):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["tridirac"]
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"sys.exit(EntryPoint('tridirac', {target!r}, 'console_scripts').load()())\n"
        )
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", launcher, *argv],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
        )

    def test_console_script(self, tmp_path):
        proc = self.run_script(
            tmp_path, "spectrum", "--z", "-1", "--kappa", "1", "--n-max", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("n,kappa,eps")

        # the documented exit codes must reach the shell through sys.exit
        proc = self.run_script(tmp_path, "spectrum", "--z", "1", "--kappa", "1")
        assert proc.returncode == 2
        assert "RepulsiveError" in proc.stderr


class TestWavefunctionCommand:
    def test_rounded_bound_energy_gives_normalizable_state(self, capsys):
        # a user-rounded level energy must still produce the physical
        # square-summable state, not the exponentially growing branch
        code, out, _ = run_cli(
            capsys, "wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05",
            "--eps", "0.99968725", "--trunc", "48", "--r-grid", "1", "20", "10",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        phi = np.array([float(r[1]) for r in rows])
        assert np.all(np.abs(phi) < 10.0)
        assert np.max(np.abs(phi)) > 1e-3
