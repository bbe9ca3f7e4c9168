"""Pinned output bytes.

Each entry below is one CLI argv (or the asymptotic-fit library call of
the benchmark's `sweep` workload) whose output is pinned by its SHA-256
digest in `tests/data/cli_digests.json`.  A change that is meant to keep
every output byte for byte (a refactor, a speedup) must leave the digests
unchanged.  The list holds the criterion-13 examples, one argv per
benchmark op shape at fixed acceptance parameters, the `sweep` fit call,
the bound-left branch (omega = 3) and kappa = -2 cases, the JSON output
of every subcommand, and empty and mixed-regime `--split` tables.

Digests depend on the Python, numpy and mpmath versions (libm and SIMD
kernels round differently), so the recorded versions are checked first
and the comparison is skipped on others.

Regenerate, when a change alters output digits on purpose, with

    PYTHONPATH=src python tests/test_cli_digests.py

which prints each entry whose digest changed (old -> new) before it
rewrites the file, and list every changed entry, with its reason, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from tridirac import cli, pollaczek, scattering

DIGESTS = Path(__file__).with_name("data") / "cli_digests.json"
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"

_DESK = ["--z", "-1", "--kappa", "1", "--compton", "0.05"]
_EPS_LEVEL0 = "0.9996872555384283"  # level 0 at Z = -1, kappa = 1, compton 0.05
_EPS_LEVEL2 = "0.9999218352839324"  # level 2, the bound op of the `basis` workload
_R_GRID = ["--r-grid", "0.5", "60", "500"]

CLI_CASES = {
    # criterion 13
    "c13.spectrum": ["spectrum", "--z", "-1", "--kappa", "1", "--compton", "7.2973525693e-3", "--n-max", "5"],
    "c13.phase-shift": ["phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25"],
    "c13.phase-shift-free": ["phase-shift", "--z", "0", "--kappa", "1", "--compton", "0.02", "--eps", "1.5"],
    "c13.coefficients": ["coefficients", *_DESK, "--eps", "1.3", "--n-max", "10"],
    "c13.green": ["green", *_DESK, "--zre", "3.0", "--zim", "0.5"],
    "c13.density": ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25",
                    "--x-grid", "-0.9", "0.9", "7", "--eta", "1e-2"],
    "c13.wavefunction": ["wavefunction", *_DESK, "--eps", _EPS_LEVEL0, "--trunc", "32", "--r-grid", "0.5", "20", "12"],
    "c13.verify": ["verify", *_DESK, "--eps", _EPS_LEVEL0, "--n", "12"],
    # benchmark op shapes: basis
    "basis.wavefunction.bound": ["wavefunction", *_DESK, "--omega", "1.0", "--eps", _EPS_LEVEL2,
                                 "--trunc", "64", *_R_GRID],
    "basis.wavefunction.scattering": ["wavefunction", *_DESK, "--omega", "1.0", "--eps", "1.3",
                                      "--trunc", "64", *_R_GRID],
    "basis.verify.n100": ["verify", *_DESK, "--omega", "1.0", "--eps", _EPS_LEVEL2, "--n", "100"],
    "basis.verify.n60": ["verify", *_DESK, "--omega", "1.0", "--eps", "1.3", "--n", "60"],
    # benchmark op shapes: resolvent
    "resolvent.green.zim0.5": ["green", *_DESK, "--zre", "2.97", "--zim", "0.5"],
    "resolvent.green.zim0.05": ["green", *_DESK, "--zre", "3.0", "--zim", "0.05"],
    "resolvent.density.eta1e-3": ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02",
                                  "--eps", "1.25", "--eta", "1e-3"],
    "resolvent.density.eta1e-2": ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02",
                                  "--eps", "1.25", "--eta", "1e-2", "--x-grid", "-0.99", "0.99", "99"],
    # benchmark op shapes: sweep
    "sweep.spectrum.n2000": ["spectrum", "--z", "-1", "--kappa", "1", "--compton", "7.297e-3",
                             "--n-max", "2000", "--format", "json"],
    "sweep.phase-shift.grid2000": ["phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02",
                                   "--eps-grid", "1.01", "3.0", "2000"],
    "sweep.coefficients.scattering": ["coefficients", *_DESK, "--eps", "1.3", "--n-max", "150"],
    "sweep.coefficients.bound": ["coefficients", *_DESK, "--eps", "0.9", "--n-max", "150", "--format", "json"],
    # the x < -1 bound branch, and kappa = -2
    "bound-left.wavefunction": ["wavefunction", *_DESK, "--omega", "3", "--eps", _EPS_LEVEL0,
                                "--trunc", "64", "--r-grid", "0.4", "15", "40"],
    "bound-left.coefficients": ["coefficients", *_DESK, "--omega", "3", "--eps", "0.9994", "--n-max", "25"],
    "kappa-2.wavefunction": ["wavefunction", "--z", "-1", "--kappa", "-2", "--compton", "0.05", "--omega", "0.8",
                             "--eps", "0.999", "--trunc", "48", "--r-grid", "0.5", "30", "40"],
    "kappa-2.verify": ["verify", "--z", "-1", "--kappa", "-2", "--compton", "0.05", "--omega", "0.8",
                       "--eps", "1.2", "--n", "30"],
    # JSON output of every subcommand (green has the one integer column, depth)
    "json.green": ["green", *_DESK, "--zre", "3.0", "--zim", "0.5", "--format", "json"],
    "json.verify": ["verify", *_DESK, "--eps", _EPS_LEVEL0, "--n", "12", "--format", "json"],
    "json.density": ["density", "--z", "-1", "--kappa", "1", "--compton", "0.02", "--eps", "1.25",
                     "--x-grid", "-0.9", "0.9", "7", "--eta", "1e-2", "--format", "json"],
    "json.wavefunction": ["wavefunction", *_DESK, "--eps", _EPS_LEVEL0, "--trunc", "32",
                          "--r-grid", "0.5", "20", "12", "--format", "json"],
    "json.phase-shift": ["phase-shift", "--z", "-1", "--kappa", "1", "--compton", "0.02",
                         "--eps-grid", "1.01", "3.0", "20", "--format", "json"],
    # an empty --split table, and a --split grid holding both regimes
    "split.coefficients.empty": ["coefficients", *_DESK, "--eps-grid", "1.0", "1.0", "1", "--split"],
    "split.coefficients.empty-json": ["coefficients", *_DESK, "--eps-grid", "1.0", "1.0", "1", "--split",
                                      "--format", "json"],
    "split.coefficients.grid": ["coefficients", *_DESK, "--eps-grid", "0.9", "1.3", "5", "--split",
                                "--n-max", "20"],
}


def _fit_output() -> bytes:
    # the `sweep` workload's fit op at Z = -1, kappa = 1, compton 0.02,
    # omega 30, eps 1.25 (its x, b and lam, rounded to doubles)
    params = pollaczek.PollaczekParams(lam=1.999799979995999, b=0.022988505747126436)
    seq = pollaczek.to_orthonormal(pollaczek.evaluate(params, 0.7241379310344828, 1000))
    res = scattering.fit_asymptotics(seq, (200, 600))
    fields = {"theta": res.theta, "amplitude": res.amplitude, "psi": float(res.psi), "residual": res.residual}
    return json.dumps(fields).encode()


def _cli_output(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue().encode()


def _outputs() -> dict:
    outputs = {name: _cli_output(argv) for name, argv in CLI_CASES.items()}
    outputs["sweep.fit.window200-600"] = _fit_output()
    return outputs


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "mpmath": mpmath.__version__}


def test_outputs_match_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    if pinned["versions"] != _versions():
        pytest.skip(f"digests were recorded with {pinned['versions']}, this is {_versions()}")
    got = {name: hashlib.sha256(data).hexdigest() for name, data in _outputs().items()}
    assert sorted(got) == sorted(pinned["sha256"])
    changed = [name for name in got if got[name] != pinned["sha256"][name]]
    assert not changed, f"output bytes changed: {changed}"


def test_workflow_runs_on_the_digests_versions():
    # on other versions the digest test above skips, so a workflow pinned
    # elsewhere would pass without comparing a single digest
    text = WORKFLOW.read_text()
    found = {"python": re.findall(r"python-version:\s*[\"']?([\w.]+)", text),
             "numpy": re.findall(r"\bnumpy==([\w.]+)", text),
             "mpmath": re.findall(r"\bmpmath==([\w.]+)", text)}
    pinned = json.loads(DIGESTS.read_text())["versions"]
    assert found == {name: [version] for name, version in pinned.items()}
    # the test tools are pinned as well, to the versions Tier-1 was last run on
    tools = {name: re.findall(rf"\b{name}==([\w.]+)", text) for name in ("pytest", "hypothesis")}
    assert tools == {"pytest": ["9.0.3"], "hypothesis": ["6.155.2"]}


if __name__ == "__main__":
    record = {
        "versions": _versions(),
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in _outputs().items()},
    }
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"versions": None, "sha256": {}}
    if old["versions"] != record["versions"]:
        sys.stdout.write(f"versions: {old['versions']} -> {record['versions']}\n")
    for name in sorted(set(old["sha256"]) | set(record["sha256"])):
        before, after = old["sha256"].get(name), record["sha256"].get(name)
        if before != after:
            sys.stdout.write(f"changed: {name}: {before} -> {after}\n")
    DIGESTS.write_text(json.dumps(record, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(record['sha256'])} digests to {DIGESTS}\n")
