"""The library has no test-only surface.

Each public function and class of a ``soundfield`` module is named in
another library module, in its own module beyond its definition, in an
experiment script or in the benchmark, or else is one of the paper's
features that the tests alone verify.  A helper that only the tests use
belongs in ``tests/oracles.py``.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "soundfield"
CALLERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# Paper features verified by tests: rotation, the Dirichlet Green's function
# of a sphere, the ANC gradient, FxLMS, the plane-wave basis and the gap
# between the finite and infinite models (criterion 3).
PAPER_FEATURES = {
    "wavefuncs.rotate_coeffs", "boundary.dirichlet_green_sphere", "applications.anc_gradient",
    "applications.fxlms_weighted_run", "applications.weighting_taps",
    "discrete.PlaneWaveBasis", "discrete.finite_to_infinite_gap",
}
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _public(module):
    mod = importlib.import_module(f"soundfield.{module}")
    return [name for name, obj in vars(mod).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__]


def test_paper_features_exist():
    for full in PAPER_FEATURES:
        module, name = full.split(".")
        assert name in _public(module), full


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_a_caller_outside_the_tests(module):
    texts = {p: p.read_text(encoding="utf-8") for p in list(SRC.glob("*.py")) + CALLERS}
    own = SRC / f"{module}.py"
    unused = []
    for name in _public(module):
        word = re.compile(rf"\b{name}\b")
        named = len(word.findall(texts[own])) > 1 or any(
            word.search(text) for path, text in texts.items() if path != own)
        if not named and f"{module}.{name}" not in PAPER_FEATURES:
            unused.append(name)
    assert not unused, f"{module}: only the tests use {unused}; move them to tests/oracles.py"
