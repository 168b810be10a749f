"""The experiment scripts run to completion at their smallest settings, so a
script whose config the parser rejects fails the suite, and a bad flag exits
2 naming the config key; the CSV drift report finds the repo identical to
itself."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_truncation_study.py", ["--orders", "1", "--trials", "1"]),
        ("run_estimation_sweep.py", ["--trials", "1", "-o", "{tmp}"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    proc = _run_script(script, [a.format(tmp=tmp_path) for a in args])
    assert proc.returncode == 0, proc.stderr


def test_truncation_study_order_beyond_the_budget_exits_2():
    # order_n0 = 181 on the 64 mics exceeds the fit budget; every order is
    # parsed before the first sweep, so nothing is printed
    proc = _run_script("run_truncation_study.py", ["--orders", "181", "--trials", "1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: order_n0: must be at most 180"), proc.stderr
    assert proc.stdout == ""


def test_csv_drift_of_the_repo_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "csv_drift.py"), str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert {line.split(" ", 1)[0] for line in lines} == {
        "anc", "synth", "translate", "rotate", "translation_matrix", "harmonics", "fxlms",
        "region_weighting", "sph_jn_all", "sph_hn_all", "sph_jn_all_one_by_one",
        "sph_hn_all_one_by_one", "radial_response", "kernel_first_order_field",
        "bm_first_100_frequencies", "tikhonov_overdetermined", "extract_expansion",
        "dm_finite_radial_chunks", "forbidden-many-roots",
        *(f"{name}-{cmd}" for name in
          ("sweep_explicit", "sweep_finite", "sweep_first_order",
           "sweep_kernel", "sweep_omni", "sweep_rigid")
          for cmd in ("sweep", "field", "field-flags", "field-truth", "forbidden"))}
    assert all(line.endswith(": identical") for line in lines), proc.stdout


def test_csv_drift_of_equal_numbers_in_other_text_is_zero():
    # "-0.0" and "0.0" differ as text, not as numbers
    spec = importlib.util.spec_from_file_location("csv_drift", ROOT / "scripts" / "csv_drift.py")
    drift = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drift)
    assert drift.column_drift(["1.5", "0.0"], ["1.5", "-0.0"]) == "drift 0"
    assert drift.column_drift(["2.0", ""], ["2.5", ""]) == "drift 0.25"
