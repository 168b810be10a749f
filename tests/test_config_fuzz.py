"""One-key fuzz of the CLI configs, keys drawn from the parser's tables.

A cheap valid `sweep`, `synth` or `anc` config gets one key (or an unknown
one) set to an awkward value.  The CLI must then run (exit 0) or exit 2
naming the key and write no output, and raise nothing else on the way,
RuntimeWarning included.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundfield import harness
from soundfield.cli import main as cli_main
from soundfield.observation import load_t_design

VALUES = [0, -0.0, 1e-308, -1, 1.5, 6.7e153, -6.7e153, 1e308, float("inf"), True, "x", None,
          [1, 2, 3], {}, 10**30]
UNKNOWN = "unknown_key"

SWEEP = {"frequencies": [200.0], "array": {"type": "spherical", "t": 7},
         "field": {"type": "plane_wave"}, "trials": 1,
         "eval_grid": {"radius": 0.5, "spacing": 0.25}}
SYNTH = {"frequencies": [300.0], "eval_spacing": 0.25, "quad_spacing": 0.25,
         "control_spacing": 0.5}
ANC = {"iterations": 100, "eval_spacing": 0.25}


def _explicit_sweep(estimator):
    """SWEEP on the 12 mics of the t = 5 design at radius 0.5, listed one by
    one in the form `estimator` models, with a point source."""
    kind = "first_order" if estimator in ("BM-first", "DM-finite") else "omni"
    mics = []
    for d in load_t_design(5).tolist():
        mic = {"pos": [0.5 * v for v in d]}
        if kind != "omni":
            mic.update(kind=kind, y=d, a=0.5)
        mics.append(mic)
    mount = "rigid" if estimator == "BM-rigid" else "open"
    return dict(SWEEP, array={"mount": mount, "radius": 0.5, "mics": mics},
                field={"type": "point_source", "position": [2.0, 1.0, 0.5]})


def _config(command, estimator):
    """The valid config that `command` of CASES mutates."""
    if command == "sweep-explicit":
        return dict(_explicit_sweep(estimator), estimator=estimator)
    return {"sweep": dict(SWEEP, estimator=estimator), "synth": SYNTH, "anc": ANC}[command]


def _paths(rows, prefix=()):
    """The path of each key of a table, and of an unknown key."""
    return [prefix + (key,) for key, _, _ in rows] + [prefix + (UNKNOWN,)]


SPHERICAL_PATHS = (_paths(harness._SCENARIO) + [("frequencies", 0)]
                   + _paths(harness._EVAL_GRID, ("eval_grid",))
                   + _paths(harness._SPHERICAL, ("array",))
                   + _paths(harness._FIELDS["plane_wave"], ("field",)))
EXPLICIT_PATHS = (_paths(harness._EXPLICIT, ("array",))
                  + _paths(harness._MIC, ("array", "mics", 0))
                  + _paths(harness._FIELDS["point_source"], ("field",)))
# (command, estimator, key path) of each config form, drawn form first
CASES = {
    "sweep": [("sweep", e, p) for e in harness.ESTIMATORS for p in SPHERICAL_PATHS],
    "sweep-explicit": [("sweep-explicit", e, p) for e in harness.ESTIMATORS
                       for p in EXPLICIT_PATHS],
    "synth": [("synth", None, p) for p in _paths(harness._SYNTH) + [("frequencies", 0)]],
    "anc": [("anc", None, p) for p in _paths(harness._ANC)],
}


def _key_path(path):
    """The dotted path of the table key in `path`: a trailing list index,
    as in frequencies[0], belongs to its key."""
    out = ""
    for p in path[:-1] if isinstance(path[-1], int) else path:
        out += f"[{p}]" if isinstance(p, int) else ("." if out else "") + p
    return out


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(st.sampled_from(sorted(CASES)).flatmap(lambda form: st.sampled_from(CASES[form])),
       st.sampled_from(VALUES))
# the fit-size budgets on the 64-mic t = 7 array; running the accepted side
# of the order_n0 and trials budgets takes 0.5-1.5 s, so
# test_fit_sizes_at_the_budget_are_accepted parses those instead
@example(("sweep", "BM-omni", ("order",)), 180)
@example(("sweep", "BM-omni", ("order",)), 181)
@example(("sweep", "DM-finite", ("order_n0",)), 181)
@example(("sweep", "DM-infinite", ("trials",)), 32769)
def test_one_key_runs_or_exits_2_naming_it(case, value):
    command, estimator, path = case
    obj = config = copy.deepcopy(_config(command, estimator))
    for p in path[:-1]:
        obj = obj[p]
    obj[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "cfg.json"), Path(tmp, "out.csv")
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli_main([command.split("-")[0], str(cfg), "-o", str(out)])
        written = out.exists()
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("config error: ")
        assert _key_path(path) in err.getvalue()
        assert not written
