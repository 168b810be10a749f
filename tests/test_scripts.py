"""The experiment scripts run to completion at their smallest settings, so a
script whose config the parser rejects fails the suite; the CSV drift report
finds the repo identical to itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_truncation_study.py", ["--orders", "1", "--trials", "1"]),
        ("run_estimation_sweep.py", ["--trials", "1", "-o", "{tmp}"]),
        ("run_anc_experiment.py", ["-o", "{tmp}/anc.csv"]),
        ("run_synthesis_experiment.py", ["-o", "{tmp}/synth.csv"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(tmp=tmp_path) for a in args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_csv_drift_of_the_repo_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "csv_drift.py"), str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert {line.split(" ", 1)[0] for line in lines} == {
        "anc", "synth", *(f"{name}-{cmd}" for name in
                          ("sweep_first_order", "sweep_kernel", "sweep_rigid")
                          for cmd in ("sweep", "field", "forbidden"))}
    assert all(line.endswith(": identical") for line in lines), proc.stdout
