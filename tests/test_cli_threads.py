"""Each CLI command runs OpenBLAS on one thread and restores the old count after.

Where OpenBLAS runs its own thread pool and exports ``blas_thread_shutdown_``,
its worker threads are also gone inside the command and after it, until the
next threaded BLAS call.

Every test runs in a fresh interpreter, so the thread count of the test
process is never touched, with every ``*_NUM_THREADS`` variable removed
unless the test sets it.  The counts are read through OpenBLAS's own getter,
found here independently of the CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r'''
import ctypes, json, os, sys
import numpy  # loads numpy's OpenBLAS

def openblas():
    """(get, set) of each loaded OpenBLAS that exports both."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    out, stops = [], []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                    out.append((get, put))
                    parallel = getattr(lib, f"{prefix}_get_parallel{suffix}", None)
                    stops.append(hasattr(lib, "blas_thread_shutdown_")
                                 and parallel is not None and parallel() == 1)
    return out, all(stops)

libs, can_stop = openblas()
if not libs:
    print(json.dumps({"skip": True}))
    sys.exit(0)
counts = lambda: [get() for get, _ in libs]
tasks = lambda: len(os.listdir("/proc/self/task"))
scenario, preset = sys.argv[1], int(sys.argv[2])
if preset:
    for _, put in libs:
        put(preset)
result = {"before": counts(), "can_stop": can_stop, "tasks_before": tasks()}

from soundfield import cli
result["imported"] = counts()
inside = []

def recording(error):
    def cmd(args):
        inside.extend(counts())
        result["tasks_inside"] = tasks()
        if error:
            raise error
        return 0
    return cmd

errors = {"ok": None, "config_error": cli.ConfigError("probe"), "raises": RuntimeError("probe")}
if scenario != "import":
    cli.cmd_forbidden = recording(errors[scenario])
    try:
        result["rc"] = cli.main(["forbidden", "--radius", "1", "--numax", "2", "--fmax", "100"])
    except RuntimeError as exc:
        result["raised"] = str(exc)
result.update(inside=inside, after=counts(), tasks_after=tasks())
numpy.ones((512, 512)) @ numpy.ones((512, 512))  # a threaded BLAS call
result["tasks_rerun"] = tasks()
print(json.dumps(result))
'''


def _probe(scenario, preset=3, **env_set):
    """Run PROBE in a fresh interpreter; `preset` threads (0: OpenBLAS's own) before."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(env_set)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE, scenario, str(preset)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if result.get("skip"):
        pytest.skip("no OpenBLAS thread setter in this process")
    return result


@pytest.mark.parametrize("scenario, outcome", [
    ("ok", {"rc": 0}),
    ("config_error", {"rc": 2}),
    ("raises", {"raised": "probe"}),
])
def test_command_runs_single_threaded_and_restores_count(scenario, outcome):
    result = _probe(scenario)
    n = len(result["before"])
    assert result["before"] == [3] * n
    assert result["inside"] == [1] * n
    assert result["after"] == [3] * n
    for key, value in outcome.items():
        assert result[key] == value
    if result["can_stop"]:
        assert result["tasks_before"] > 1
        assert result["tasks_inside"] == result["tasks_after"] == 1
        assert result["tasks_rerun"] == result["tasks_before"]


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_count_wins(var):
    result = _probe("ok", preset=0, **{var: "2"})
    n = len(result["before"])
    assert result["before"] == result["inside"] == result["after"] == [2] * n
    assert result["rc"] == 0
    assert result["tasks_before"] == result["tasks_inside"] == result["tasks_after"]


def test_import_leaves_thread_count():
    result = _probe("import")
    assert result["before"] == result["imported"] == result["after"]
    assert result["inside"] == []
