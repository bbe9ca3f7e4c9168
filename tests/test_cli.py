import gc
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference_forms
from tridirac import _csvtext, cli, model, specfun, wavefunction


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
        assert row[2] == "0.0000000000000000e+00"  # Phi column: 0.0, not -0.0

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


    def test_large_energy_gives_finite_row(self, capsys):
        code, out, _ = run_cli(capsys, "phase-shift", "--z", "-1", "--kappa", "1", "--eps", "1e150")
        assert code == 0
        assert all(np.isfinite(float(v)) for v in out.strip().split("\n")[1].split(","))

    @pytest.mark.parametrize("energy", [
        ["--eps", "1e160"], ["--eps", "1e200"], ["--eps=-1e200"], ["--eps-grid", "1.5", "1e160", "3"],
    ], ids=lambda a: "_".join(a))
    def test_overflowing_energy_exits_2(self, capsys, energy):
        code, out, err = run_cli(capsys, "phase-shift", "--z", "-1", "--kappa", "1", *energy)
        assert code == 2
        assert out == ""
        assert err.startswith("error: SingularMapError: theta degenerates at eps=")
        assert err.count("\n") == 1


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

    UNWRITABLE = {  # case -> (directory made first, error type)
        "missing_directory": (None, "FileNotFoundError"),
        "directory_as_path": ("x.csv", "IsADirectoryError"),
        "directory_as_sidecar": ("x.csv.meta.json", "IsADirectoryError"),
    }

    @pytest.mark.parametrize("case", sorted(UNWRITABLE))
    def test_unwritable_output_exits_1_and_leaves_no_file(self, tmp_path, capsys, case):
        made, error = self.UNWRITABLE[case]
        if made:
            (tmp_path / made).mkdir()
        target = tmp_path / ("x.csv" if made else "missing/x.csv")
        code, out, err = run_cli(capsys, "spectrum", "--z", "-1", "--kappa", "1", "--output", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
        # nothing but the directory the case made, so no data file
        assert [p.name for p in tmp_path.iterdir()] == ([made] if made else [])


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

    def test_underflowed_density_is_positive_zero(self, capsys):
        # far from the spectrum rho ~ eta / (pi x^2) underflows and Im G
        # comes back +0: the data file says 0, not -0
        base = ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25", "--eta", "1e-3"]
        code, out, _ = run_cli(capsys, *base, "--x-grid", "1e300", "1e300", "1")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[2] == "0.0000000000000000e+00"
        code, out, _ = run_cli(capsys, *base, "--x-grid", "1e200", "1e200", "1", "--format", "json")
        assert code == 0
        assert '"rho": 0.0' in out and "-0.0" not in out


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
    GREEN = ["green", "--z", "-1", "--kappa", "1", "--zre", "3", "--zim", "0.5"]
    CASES = [
        (["spectrum", "--kappa", "1", "--n-max", "1", "--z", "nan"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--compton", "inf"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--omega", "nan"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--compton", "-1"], "ConfigError"),
        (["spectrum", "--z", "-1", "--kappa", "1", "--omega", "0"], "ConfigError"),
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
        # finite bounds whose span overflows: np.linspace would make NaN or inf points
        (DENSITY + ["--x-grid", "-1e308", "1e308", "3"], "ConfigError"),
        (["phase-shift", "--z", "-1", "--kappa", "1", "--eps-grid", "-1.7e308", "1.7e308", "3"], "ConfigError"),
        (["coefficients", "--z", "-1", "--kappa", "1", "--eps-grid", "-1.7e308", "1.7e308", "3", "--split"],
         "ConfigError"),
        # ranges the library itself checks: its ValueError is exit 1 too
        (DENSITY + ["--eta", "-1"], "ValueError"),
        (GREEN + ["--depth", "-5"], "ValueError"),
        (GREEN + ["--depth", "0"], "ValueError"),
        (GREEN + ["--tol", "0"], "ValueError"),
        (GREEN + ["--tol", "-1"], "ValueError"),
        (GREEN + ["--tol", "nan"], "ValueError"),
        (GREEN + ["--tol", "inf"], "ValueError"),
        # |Re z| + |Im z| past half the largest double: 1/(z - a_n) would be 0
        (["green", "--z", "-1", "--kappa", "1", "--zre", "1e308", "--zim", "1e308"], "ValueError"),
        (["green", "--z", "-1", "--kappa", "1", "--zre", "1.5e308", "--zim", "1.5e308"], "ValueError"),
        (["verify", "--z", "-1", "--kappa", "1", "--eps", "0.99", "--n", "2"], "ValueError"),
        # |kappa| past 2**53: kappa^2 would overflow a double from 1.8e308 on
        (["spectrum", "--z", "-1", "--kappa", str(10**300), "--n-max", "3"], "ConfigError"),
        (["phase-shift", "--z", "-1", "--eps", "1.3", "--kappa", str(10**300)], "ConfigError"),
        (["green", "--z", "-1", "--zre", "3", "--zim", "0.5", "--kappa", str(10**309)], "ConfigError"),
        # 8e15 bytes, past the 47-bit address space: the allocation fails
        # before any page is touched
        (["spectrum", "--z", "-1", "--kappa", "1", "--n-max", str(10**15)], "MemoryError"),
    ]

    @pytest.mark.parametrize("argv,kind", CASES, ids=[_case_id(a) for a, _ in CASES])
    def test_documented_exit(self, capsys, argv, kind):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {kind}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_below_the_weight_bound_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                                 "--eps", "1.3", "--n", "180")
        assert (code, err) == (0, "")
        assert float(data_rows(out)[0][0]) < 1e-12

    @pytest.mark.parametrize("n", [184, 200, 400])
    def test_verify_at_large_n_exits_0(self, capsys, n):
        # the Gauss rule of order n + 6 has subnormal weights from n = 184
        # on; the rows of the verify matrix are its eigenvectors, not
        # Laguerre values times those weights
        code, out, err = run_cli(capsys, "verify", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                                 "--eps", "1.3", "--n", str(n))
        assert (code, err) == (0, "")
        (row,) = data_rows(out)
        assert all(float(v) <= 1e-12 for v in row)


class TestConvergenceExit:
    def test_green_budget_exhaustion_exits_3(self, capsys):
        # near-axis point with a tiny depth budget cannot converge
        code, _, err = run_cli(
            capsys, "green", "--z", "-1", "--kappa", "1", "--compton", "0.05",
            "--zre", "5.0", "--zim", "1e-6", "--depth", "40", "--tol", "1e-13",
        )
        assert code == 3
        assert "NoConvergence" in err

    def test_green_depth_is_a_budget(self, capsys):
        # --depth bounds the levels tried; it allocates nothing up front
        argv = ["green", "--z", "-1", "--kappa", "1", "--compton", "0.05", "--zre", "3.0", "--zim", "0.5"]
        code, out, err = run_cli(capsys, *argv, "--depth", "1000000000000")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv)[1]


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


class TestNegativeExponentValues:
    """Negative flag values written with an exponent, which argparse alone
    reads as options; each must give what the same value in another
    spelling gives."""

    DENSITY = ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25"]
    CASES = {
        "spectrum --z": (["spectrum", "--z", "-1e-1", "--kappa", "1", "--n-max", "1"],
                         ["spectrum", "--z=-0.1", "--kappa", "1", "--n-max", "1"]),
        "phase-shift --eps-grid": (["phase-shift", "--z", "-1", "--kappa", "1", "--eps-grid", "-3e0", "-1.5", "3"],
                                   ["phase-shift", "--z", "-1", "--kappa", "1", "--eps-grid", "-3", "-1.5", "3"]),
        "density --x-grid": (DENSITY + ["--x-grid", "-9e-1", "0.9", "3"], DENSITY + ["--x-grid", "-0.9", "0.9", "3"]),
        "green --zre": (["green", "--z", "-1E0", "--kappa", "1", "--zre", "-3e0", "--zim", "5e-1"],
                        ["green", "--z", "-1", "--kappa", "1", "--zre", "-3", "--zim", "0.5"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_output_as_plain_spelling(self, capsys, name):
        argv, plain = self.CASES[name]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out and (code, out, err) == run_cli(capsys, *plain)

    def test_overflowing_negative_energy_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "phase-shift", "--z", "-1", "--kappa", "1", "--eps", "-1e200")
        assert (code, out) == (2, "")
        assert err == "error: SingularMapError: theta degenerates at eps=-1e+200: eps^2 - 1 is not a finite double\n"

    def test_negative_infinity_gets_the_finite_value_message(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--z", "-inf", "--kappa", "1")
        assert (code, out, err) == (1, "", "error: ConfigError: z, compton and omega must be finite\n")
        code, out, err = run_cli(capsys, *self.DENSITY, "--eta", "-1e-3")
        assert (code, out, err) == (1, "", "error: ValueError: eta must be positive\n")

    def test_output_path_is_not_rewritten(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--z", "-1", "--kappa", "1", "--output", "-1e5")
        assert (code, out) == (1, "")
        assert "--output: expected one argument" in err


def data_rows(out):
    return [line.split(",") for line in out.strip().split("\n")[1:]]


def test_band_edge_argument_keeps_recursion_rows(capsys):
    # x = (eps^2-1-beta^2)/(eps^2-1+beta^2) rounds to 1 at compton 1e-9,
    # where the closed form's angle map is undefined (it once raised
    # ZeroDivisionError, then SingularMapError); the recursion rows stay
    code, out, err = run_cli(capsys, "coefficients", "--z", "-1", "--kappa", "1", "--compton", "1e-9",
                             "--eps", "0.5", "--n-max", "3")
    assert (code, err) == (0, "")
    rows = data_rows(out)
    assert [r[1] for r in rows] == ["0", "1", "2", "3"]
    assert {r[4] for r in rows} == {"-1.0000000000000000e+00"}


class TestClosedFormUndefined:
    """coefficients writes the recursion rows with closed_rel_dev = -1 at
    an energy where the closed form raises BottomPoleError or
    SingularMapError."""

    CASES = {
        # level 0: a bottom Pochhammer factor vanishes at k=6, n=7
        "bottom_pole": (["--eps", "0.9996872555384283", "--n-max", "20"], 0.9996872555384283, 20),
        # x rounds to -1 at omega 400
        "singular_map": (["--omega", "400", "--eps", "1.000000000000002", "--n-max", "2"], 1.000000000000002, 2),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_recursion_rows_kept(self, capsys, name):
        flags, eps, n_max = self.CASES[name]
        code, out, err = run_cli(capsys, "coefficients", "--z", "-1", "--kappa", "1", "--compton", "0.05", *flags)
        assert (code, err) == (0, "")
        p = model.PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=400.0 if "--omega" in flags else 1.0)
        want = wavefunction.coefficients_recursion(model.derive(p), eps, n_max).values
        rows = data_rows(out)
        assert [float(r[2]) for r in rows] == want.real.tolist()
        assert [float(r[3]) for r in rows] == want.imag.tolist()
        assert {r[4] for r in rows} == {"-1.0000000000000000e+00"}

    def test_grid_keeps_the_other_energies_deviations(self, capsys):
        code, out, _ = run_cli(capsys, "coefficients", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                               "--eps-grid", "0.9996872555384283", "1.3", "2", "--split", "--n-max", "8")
        assert code == 0
        devs = {float(r[0]): float(r[4]) for r in data_rows(out) if r[1] == "8"}
        assert devs[0.9996872555384283] == -1.0
        assert 0.0 <= devs[1.3] < 1e-10


class TestSplitDropsOutOfRegimePoints:
    def test_coefficients_drops_the_threshold_point(self, capsys):
        # the grid point eps = 1 once reached the closed form: ThresholdError, exit 2
        code, out, err = run_cli(capsys, "coefficients", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                                 "--eps-grid", "0.5", "1.5", "3", "--split", "--n-max", "2")
        assert (code, err) == (0, "")
        assert sorted({float(r[0]) for r in data_rows(out)}) == [0.5, 1.5]

    def test_phase_shift_drops_points_in_the_threshold_band(self, capsys):
        # the middle point 1.0000000000000004 passed the old |eps| > 1
        # filter but lies within 1e-15 of the threshold
        code, out, err = run_cli(capsys, "phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                                 "--eps-grid", "0.5", "1.5000000000000009", "3", "--split")
        assert (code, err) == (0, "")
        assert [float(r[0]) for r in data_rows(out)] == [1.5000000000000009]


class TestThresholdEnergy:
    """|eps| = 1 (to `model.energy_point`'s 1e-15) is refused with
    ThresholdError by every command that takes one energy or a grid."""

    DESK = ("--z", "-1", "--kappa", "1", "--compton", "0.05")

    @pytest.mark.parametrize("argv", [
        ("density", "--eps", "1.0", "--x-grid", "-0.5", "0.5", "2"),
        ("density", "--eps", "-1.0"),
        ("wavefunction", "--eps", "1.0"),
        ("wavefunction", "--eps", "-1.0000000000000002", "--trunc", "8"),
    ])
    def test_single_energy_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, *self.DESK)
        assert (code, out) == (2, "")
        assert err == f"error: ThresholdError: {argv[0]} undefined at |eps| = 1\n"

    @pytest.mark.parametrize("command", ["phase-shift", "coefficients"])
    @pytest.mark.parametrize("grid, end", [(("1.0", "2.0", "3"), 1.0), (("-2.0", "-1.0", "3"), -1.0)])
    def test_grid_ending_at_threshold_asks_for_split(self, capsys, command, grid, end):
        code, out, err = run_cli(capsys, command, *self.DESK, "--eps-grid", *grid)
        assert (code, out) == (2, "")
        assert err == f"error: DomainError: energy grid crosses or ends at |eps| = 1 at [{end}]; rerun with --split\n"

    @pytest.mark.parametrize("command", ["phase-shift", "coefficients"])
    def test_grid_ending_at_threshold_runs_with_split(self, capsys, command):
        code, out, err = run_cli(capsys, command, *self.DESK, "--eps-grid", "1.0", "2.0", "3", "--split",
                                 *(("--n-max", "2") if command == "coefficients" else ()))
        assert (code, err) == (0, "")
        assert sorted({float(r[0]) for r in data_rows(out)}) == [1.5, 2.0]


class TestNoTracebackAtExtremeParameters:
    CASES = [
        # Gamma(nu+1) of the Gauss rule overflows (nu ~ 171)
        (["verify", "--z", "-1", "--kappa", "85", "--compton", "0.05", "--eps", "0.5", "--n", "5"],
         1, "error: ValueError: Gamma(nu+1) at nu="),
        (["wavefunction", "--z", "2.93284", "--kappa", "-88", "--compton", "6.11681e-05", "--omega", "97.5833",
          "--eps", "0.0145481", "--trunc", "23", "--r-grid", "0.156211", "59.6239", "2"],
         2, "error: DomainError: phi_plus is not finite at row 1\n"),
        # compton^2 underflows to 0
        (["verify", "--z", "0.05", "--kappa", "-1", "--compton", "1e-300", "--omega", "0.05", "--eps", "3",
          "--n", "3"],
         1, "error: ConfigError: compton^2 underflows to 0 at compton=1e-300\n"),
    ]

    @pytest.mark.parametrize("argv,code,message", CASES, ids=[c[0][0] + "_" + c[0][4] for c in CASES])
    def test_documented_exit(self, capsys, argv, code, message):
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [["--omega", "1", "--eps", "1.3", "--n-max", "200"],
                                       ["--eps", "0.9", "--n-max", "600"]], ids=["eps1.3_n200", "eps0.9_n600"])
    def test_closed_form_overflow_exits_1(self, capsys, extra):
        # the closed-form column's Pochhammer ratio overflows (ROADMAP item 16);
        # the run ends with one error line, not a traceback
        code, out, err = run_cli(capsys, "coefficients", "--z", "-1", "--kappa", "1", "--compton", "0.05", *extra)
        assert (code, out, err) == (1, "", "error: OverflowError: pochhammer leaves the double range at n=170\n")

    def test_verify_at_kappa_minus_79_is_finite(self, capsys):
        # nu = 2g + 1 ~ 157: Gauss weights up to 2e277 times two Laguerre
        # values once overflowed to a non-finite matrix (exit 2); the
        # rule's eigenvector rows are bounded by 1
        code, out, err = run_cli(capsys, "verify", "--z", "-2.90749", "--kappa", "-79", "--compton", "0.101984",
                                 "--omega", "6.58698", "--eps", "5.97473", "--n", "28")
        assert (code, err) == (0, "")
        (row,) = data_rows(out)
        assert all(float(v) <= 1e-12 for v in row)

    def test_non_finite_table_writes_no_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *self.CASES[1][0], "--output", str(target))
        assert code == 2 and err == self.CASES[1][2]
        assert not target.exists() and not Path(str(target) + ".meta.json").exists()


class TestDensityDepthLimit:
    def test_tiny_eta_exits_1(self, capsys):
        for eta in ("1e-9", "5e-324"):
            code, out, err = run_cli(capsys, "density", "--z", "-1", "--kappa", "1", "--compton", "0.02",
                                     "--eps", "1.25", "--eta", eta)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: ValueError: eta={float(eta)!r} needs a default depth of ")
            assert err.endswith("above the limit of 2000000 levels\n")
            assert "Traceback" not in err


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

    @pytest.mark.parametrize("eps", ["0.99968725", "1.3"])
    def test_one_basis_pass(self, capsys, monkeypatch, eps):
        # phi+ and phi- come from one sum over the basis, bound or scattering,
        # and that sum from one stream of Laguerre rows
        calls = []
        expansion, rows = wavefunction._expansion, specfun.laguerre_rows

        def counted(name, function):
            def wrapped(*args):
                calls.append(name)
                return function(*args)
            return wrapped

        monkeypatch.setattr(wavefunction, "_expansion", counted("expansion", expansion))
        monkeypatch.setattr(specfun, "laguerre_rows", counted("rows", rows))
        code, _, _ = run_cli(capsys, "wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                             "--eps", eps, "--trunc", "16")
        assert code == 0 and calls == ["expansion", "rows"]

    def test_kinetic_balance_singular_energy_exits_2(self, tmp_path, capsys):
        # eps = -gamma/kappa zeroes the kinetic-balance denominator
        d = model.derive(model.PhysicalParams(z=-1.0, kappa=1, compton=0.05))
        target = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "wavefunction", "--z", "-1", "--kappa", "1", "--compton", "0.05",
                                 "--eps", repr(-d.gamma / d.kappa), "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: KineticBalanceSingular: ") and err.count("\n") == 1
        assert not target.exists() and not Path(str(target) + ".meta.json").exists()


# --- the serializers against the json.dumps-based writers they replaced -----


def ref_rows_to_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("{:.16e}".format(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_rows_to_json(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]
FINITE = [-0.0, 5e-324, 1e300, np.float64(0.1), -2.5, np.float64(-1e-300)]


def _rows(table):
    return list(zip(*table.values()))


class TestSerializers:
    # every column has one kind, float (np.float64 included) or integer;
    # JSON tables are finite, since _emit refuses the others
    FINITE_TABLES = {
        "finite_floats": {"a": FINITE, "b": FINITE[::-1]},
        "floats_and_ints": {"n": list(range(len(FINITE))), "x": FINITE, "kappa": [-3] * len(FINITE)},
        "one_column": {"x": [1.0, -0.0, np.float64(3.5)]},
        "int_columns": {"n": list(range(5)), "kappa": [-1] * 5},
        "empty": {"eps": [], "theta": []},
    }
    TABLES = {
        **FINITE_TABLES,
        "special_values": {"v": SPECIAL, "w": [np.float64(v) for v in SPECIAL]},
        "special_values_one_type": {"v": SPECIAL, "w": SPECIAL[::-1]},
        "one_column_floats": {"x": SPECIAL},
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_csv_matches_reference(self, name):
        table = self.TABLES[name]
        assert cli.table_to_csv(table) == ref_rows_to_csv(list(table), _rows(table))

    @pytest.mark.parametrize("name", sorted(FINITE_TABLES))
    def test_json_matches_reference(self, name):
        table = self.FINITE_TABLES[name]
        assert cli.table_to_json(table) == ref_rows_to_json(list(table), _rows(table))

    def test_header_needing_escapes(self):
        table = {"a%s": [1.0], 'q"uote': [2], "\u00e9": [3.5]}
        assert cli.table_to_csv(table) == ref_rows_to_csv(list(table), _rows(table))
        assert cli.table_to_json(table) == ref_rows_to_json(list(table), _rows(table))

    def test_random_finite_columns_match_reference(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        floats = st.floats(allow_nan=False, allow_infinity=False)
        kinds = st.sampled_from([(floats, float), (st.integers(-2**63, 2**63 - 1), np.int64)])

        @st.composite
        def tables(draw):
            names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
            length = draw(st.integers(0, 6))
            return {name: np.array(draw(st.lists(values, min_size=length, max_size=length)), dtype=dtype)
                    for name, (values, dtype) in zip(names, [draw(kinds) for _ in names])}

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(tables())
        def check(table):
            rows = list(zip(*(column.tolist() for column in table.values())))
            assert cli.table_to_csv(table) == ref_rows_to_csv(list(table), rows)
            assert cli.table_to_json(table) == ref_rows_to_json(list(table), rows)

        check()


def test_csv_refuses_unequal_columns():
    with pytest.raises(ValueError, match=r"a: 2, b: 1"):
        cli.table_to_csv({"a": [1.0, 2.0], "b": [3.0]})


def test_json_refuses_unequal_columns():
    with pytest.raises(ValueError, match=r"a: 2, b: 1"):
        cli.table_to_json({"a": [1.0, 2.0], "b": [3.0]})


# --- the array passes of table_to_csv against '%.16e' % v, byte for byte ---


def _powers_and_neighbours(powers):
    return [x for p in powers for x in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]
TIES = [1000000000000000.25, -1000000000000000.25, 1000000000000000.75]


class TestArrayCsvPass:
    @staticmethod
    def assert_formats(values):
        values = np.asarray(values)
        expected = "".join("%.16e\n" % v for v in values.tolist())
        assert _csvtext.csv_rows([values]) == expected

    def test_extremes(self):
        self.assert_formats(EXTREMES)

    def test_every_power_of_ten_and_its_neighbours(self):
        self.assert_formats(_powers_and_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_both_ends_of_every_binade(self):
        # each binary exponent sets the first guess of the decimal exponent
        self.assert_formats(_powers_and_neighbours([math.ldexp(1.0, k) for k in range(-1074, 1024)]))

    def test_rounding_that_carries_into_the_exponent(self):
        assert Fraction(1e-305) < Fraction(1, 10**305)  # below 1e-305, yet written as 1.0...e-305
        self.assert_formats([9.9999999999999995e22, 1e-305, -1e-305, 1e-243])

    def test_ties_round_half_to_even_through_the_fallback(self):
        values = np.array(TIES + [2.0**53 + 2])
        assert _csvtext._decimal(values)[3].tolist() == [True, True, True, False]
        self.assert_formats(values)
        assert _csvtext.csv_rows([values[:1]]) == "1.0000000000000002e+15\n"

    def test_non_finite_values_fall_back(self):
        values = np.array([math.nan, math.inf, -math.inf, 1.5])
        assert _csvtext._decimal(values)[3].tolist() == [True, True, True, False]
        self.assert_formats(values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, ">f8"])
    def test_other_float_types(self, dtype):
        rng = np.random.default_rng(7)
        column = (rng.standard_normal(300) * 10.0 ** rng.integers(-4, 4, 300)).astype(dtype)
        table = {"x": column, "y": column[::-1]}
        assert cli.table_to_csv(table) == reference_forms.table_to_csv(table)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20240601).integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False)
        self.assert_formats(bits.view(np.float64))

    def test_integer_columns(self):
        ints = [0, -1, 1, 9999, 10000, -10000, 123456789, 2**63 - 1, -(2**63)]
        table = {
            "i": np.array(ints * 30, dtype=np.int64),
            "u": np.array([0, 1, 10**4, 2**64 - 1] * 68, dtype=np.uint64)[:270],
            "small": (np.arange(270) % 256 - 128).astype(np.int8),
            "x": np.linspace(-1.0, 1.0, 270)[::-1],
        }
        assert cli.table_to_csv(table) == reference_forms.table_to_csv(table)

    def test_table_of_2000_rows_and_5_columns(self):
        rng = np.random.default_rng(11)
        table = {name: rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)
                 for name in ("eps", "theta", "Phi", "psi", "amplitude")}
        table["theta"] = table["theta"][::-1]  # a strided column
        assert cli.table_to_csv(table) == reference_forms.table_to_csv(table)

    def test_small_tables_use_the_per_row_writer(self, monkeypatch):
        monkeypatch.setattr(_csvtext, "csv_rows", None)
        assert cli.table_to_csv({"a": [1.0], "b": [2]}) == "a,b\n1.0000000000000000e+00,2\n"


# --- the array pass of table_to_json against float.__repr__, byte for byte --


def _objects(values):
    return "[\n" + ",\n".join('  {\n    "x": %s\n  }' % float.__repr__(v) for v in values) + "\n]\n"


def _written(values):
    """The value texts of the one-column JSON table of float64 `values`."""
    text = _csvtext.json_rows(['"x"'], [np.array(values, dtype=np.float64)])
    return [line[len('    "x": '):] for line in text.splitlines() if line.startswith('    "x": ')]


class TestArrayJsonPass:
    @staticmethod
    def assert_formats(values):
        values = np.asarray(values, dtype=np.float64)
        assert _csvtext.json_rows(['"x"'], [values]) == _objects(values.tolist())

    def test_extremes(self):
        self.assert_formats(EXTREMES)

    def test_both_ends_of_the_positional_range(self):
        ends = _powers_and_neighbours([1e-4, 1e16])
        self.assert_formats(ends + [-v for v in ends])
        assert _written(ends) == ["9.999999999999999e-05", "0.0001", "0.00010000000000000002",
                                  "9999999999999998.0", "1e+16", "1.0000000000000002e+16"]

    def test_every_power_of_ten_and_its_neighbours(self):
        self.assert_formats(_powers_and_neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_every_power_of_two_and_its_neighbours(self):
        # a mantissa of 2**52 has a lower neighbour half as far as the upper
        self.assert_formats(_powers_and_neighbours([math.ldexp(1.0, k) for k in range(-1074, 1024)]))

    def test_short_values(self):
        values = [0.1, 0.3, 123.0, 1e16, 1e-05, -0.0, 0.0, 1.5, 100.0, 1e22, 5e-324]
        assert _written(values) == ["0.1", "0.3", "123.0", "1e+16", "1e-05", "-0.0", "0.0", "1.5", "100.0",
                                    "1e+22", "5e-324"]

    def test_integers_whose_half_width_is_five_units(self):
        # 2**52 <= v < 2**53: an interval exactly 10 units of the 17th digit wide
        values = [2.0**52, 2.0**52 + 1, 4503599627370505.0, 5e15, 6e15 + 5, 9007199254740991.0, 8e15 + 3]
        self.assert_formats(values + [-v for v in values])

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, ">f8"])
    def test_other_float_types(self, dtype):
        rng = np.random.default_rng(7)
        column = (rng.standard_normal(300) * 10.0 ** rng.integers(-4, 4, 300)).astype(dtype)
        table = {"x": column, "y": column[::-1]}
        assert cli.table_to_json(table) == ref_rows_to_json(list(table), _rows({k: v.tolist() for k, v in table.items()}))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20240601).integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        self.assert_formats(values[np.isfinite(values)])

    def test_the_fallback_runs_where_a_test_is_too_close_to_call(self):
        # a tie between the two nearest 17-digit candidates, a subnormal,
        # and a value the pass decides
        values = np.array([1974014629615873.75, 2.0**-1074 * 3, 1.5])
        assert _csvtext._shortest(values.copy())[3].tolist() == [True, True, False]
        self.assert_formats(values)

    def test_integer_columns(self):
        ints = [0, -1, 1, 9999, 10000, -10000, 123456789, 2**63 - 1, -(2**63)]
        table = {
            "i": np.array(ints * 30, dtype=np.int64),
            "u": np.array([0, 1, 10**4, 2**64 - 1] * 68, dtype=np.uint64)[:270],
            "small": (np.arange(270) % 256 - 128).astype(np.int8),
            "x": np.linspace(-1.0, 1.0, 270)[::-1],
        }
        assert cli.table_to_json(table) == ref_rows_to_json(list(table), _rows({k: v.tolist() for k, v in table.items()}))

    def test_spectrum_shaped_table(self):
        p = model.PhysicalParams(z=-1.0, kappa=1, compton=7.297e-3)
        levels = np.arange(2001)
        eps = np.sort(np.random.default_rng(3).uniform(0.99999, 1.0, 2001))
        table = {"n": levels, "kappa": np.full_like(levels, p.kappa), "eps": eps,
                 "oracle_residual": np.abs(np.random.default_rng(4).standard_normal(2001)) * 1e-15}
        assert table["n"].dtype == np.int64
        assert cli.table_to_json(table) == ref_rows_to_json(list(table), _rows({k: v.tolist() for k, v in table.items()}))

    def test_small_tables_use_the_per_row_writer(self, monkeypatch):
        monkeypatch.setattr(_csvtext, "json_rows", lambda keys, columns: "array pass")
        assert cli.table_to_json({"a": np.ones(cli._JSON_ARRAY_VALUES)}) == "array pass"
        table = {"a": [1.5] * (cli._JSON_ARRAY_VALUES - 1)}
        assert cli.table_to_json(table) == ref_rows_to_json(list(table), _rows(table))


@pytest.mark.parametrize("rows", [1, 300])
def test_json_refuses_non_finite_values(rows):
    # JSON has no NaN or Infinity; the row-by-row and the array writer both refuse
    for bad in (math.nan, math.inf, -math.inf):
        x = np.zeros(rows)
        x[rows // 2] = bad
        with pytest.raises(ValueError, match=rf"^x is not finite at row {rows // 2}$"):
            cli.table_to_json({"n": np.arange(rows), "x": x})


class TestClosedRelativeDeviation:
    """closed_rel_dev as one array pass has the bytes of the per-element
    abs and max it replaced."""

    @staticmethod
    def assert_same(closed, values):
        with np.errstate(all="ignore"):
            got = cli._relative_deviation(closed, values)
            want = np.array(reference_forms.closed_rel_dev(closed, values))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.9, 1.3, 2.0])
    def test_recursion_rows(self, eps):
        d = model.derive(model.PhysicalParams(z=-1.0, kappa=1, compton=0.05))
        row = wavefunction.coefficients_recursion(d, eps, 150).values
        self.assert_same(wavefunction.coefficients_closed_form(d, eps, 150).values, row)

    def test_non_finite_and_tiny_entries(self):
        nan, inf = math.nan, math.inf
        values = np.array([complex(nan, 0), complex(inf, 1), complex(1, nan), complex(1, nan), 1e-310, 0,
                           complex(-inf, nan), 3 + 4j])
        closed = np.array([1, complex(inf, 0), complex(2, 2), complex(inf, 0), 2e-310, 1e-300, 1, complex(nan, inf)])
        self.assert_same(closed, values)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(11)
        closed, values = (np.exp(rng.uniform(-300, 300, 10**4) + 1j * rng.uniform(0, 7, 10**4)) for _ in range(2))
        self.assert_same(closed, values)
