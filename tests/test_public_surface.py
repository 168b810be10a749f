"""The library has no test-only surface.

Each public function and class of a ``soundfield`` module is named in
another library module, in its own module beyond its definition, in an
experiment script or in the benchmark, or else is one of the paper's
features that the tests alone verify.  A helper that only the tests use
belongs in ``tests/oracles.py``.

Likewise each parameter with a default, of a public function, class or
method, is passed by some call outside the tests; a default that no caller
overrides is the only behaviour, not an option.  A call inside a library
function that only the tests reach is a call from the tests.  The check reads calls by
name, so it does not catch an option that its callers pass with one value
only (a flag that every call sets to True): that one needs a reader.
"""

import ast
import functools
import importlib
import inspect
import math
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "soundfield"
CALLERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# Paper features verified by tests: rotation, the Dirichlet Green's function
# of a sphere, the ANC gradient, FxLMS and the gap between the finite and
# infinite models (criterion 3).  translation_matrix is the paper's addition
# theorem as a matrix: no library code calls it since extract_expansion is
# B^H alpha, and the benchmark's tracer wraps it.
PAPER_FEATURES = {
    "wavefuncs.rotate_coeffs", "wavefuncs.translation_matrix",
    "boundary.dirichlet_green_sphere", "applications.anc_gradient",
    "applications.fxlms_weighted_run", "applications.weighting_taps",
    "discrete.finite_to_infinite_gap",
}
# Whose parameters with defaults need no caller outside the tests.
OPTION_EXEMPT = PAPER_FEATURES | {
    # test-only, but the benchmark's tracer wraps it; it leaves with its tracing
    "boundary.estimate_coeffs",
}
# Library functions and classes that only the tests reach: the calls made
# inside them are not calls from outside the tests.
TEST_ONLY = OPTION_EXEMPT | {
    # the benchmark's tracer wraps them
    "observation.observe_plane_wave", "observation.observe_point_source",
    "discrete.representer_matrix", "discrete.extract_expansion",
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


def _record(passed, call):
    """Add the positions and keywords that `call` passes: ``*args`` passes
    every position from its own on, and ``**kwargs`` every keyword."""
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    passed["positions"] = max(passed["positions"], math.inf if starred else len(call.args))
    passed["keywords"] |= {kw.arg for kw in call.keywords}  # None for **kwargs


def _record_calls(passed, tree, skipped=()):
    """Record in `passed` the calls in `tree` outside its top-level functions
    and classes named in `skipped`.

    ``f(...)`` and ``x.f(...)`` count for the name f, and ``cls(...)`` in a
    classmethod for its class.
    """
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in skipped:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                _record(passed[name], node)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and any(
                            isinstance(d, ast.Name) and d.id == "classmethod"
                            for d in fn.decorator_list):
                        for call in ast.walk(fn):
                            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                                    and call.func.id == "cls"):
                                _record(passed[node.name], call)


def _call_record():
    """An empty {called name: {"positions": int, "keywords": set}}."""
    return defaultdict(lambda: {"positions": 0, "keywords": set()})


@functools.cache
def _calls_outside_the_tests():
    """{called name: {"positions": int, "keywords": set}} over the calls in
    the library, outside its :data:`TEST_ONLY` names, the scripts and the
    benchmark."""
    passed = _call_record()
    for path in list(SRC.glob("*.py")) + CALLERS:
        skipped = {name.split(".")[1] for name in TEST_ONLY
                   if path.parent == SRC and name.split(".")[0] == path.stem}
        _record_calls(passed, ast.parse(path.read_text(encoding="utf-8")), skipped)
    return passed


def test_calls_inside_test_only_functions_do_not_count():
    passed = _call_record()
    _record_calls(passed, ast.parse(
        "def observe_plane_wave(m):\n    return f(m, x=1)\n\n"
        "class PlaneWaveBasis:\n    def g(self):\n        return f(1, 2, y=3)\n\n"
        "def kept():\n    return f(1)\n"), {"observe_plane_wave", "PlaneWaveBasis"})
    assert dict(passed) == {"f": {"positions": 1, "keywords": set()}}


def _callables(module):
    """(qualified name, called name, parameters) of each public function,
    class and method of `module`; a method's parameters omit self or cls."""
    mod = importlib.import_module(f"soundfield.{module}")
    out = []
    for name in _public(module):
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            out.append((name, name, list(inspect.signature(obj).parameters.values())))
            continue
        for attr, member in vars(obj).items():
            if attr != "__init__" and attr.startswith("_"):
                continue
            func = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
            if not inspect.isfunction(func):
                continue
            params = list(inspect.signature(func).parameters.values())
            if not isinstance(member, staticmethod):
                params = params[1:]
            out.append((name if attr == "__init__" else f"{name}.{attr}",
                        name if attr == "__init__" else attr, params))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_parameters_with_defaults_are_passed_outside_the_tests(module):
    calls = _calls_outside_the_tests()
    unused = []
    for qualname, called, params in _callables(module):
        if f"{module}.{qualname.split('.')[0]}" in OPTION_EXEMPT:
            continue
        passed = calls.get(called, {"positions": 0, "keywords": set()})
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            by_position = p.kind is not p.KEYWORD_ONLY and i < passed["positions"]
            if not (by_position or p.name in passed["keywords"] or None in passed["keywords"]):
                unused.append(f"{qualname}({p.name})")
    assert not unused, f"{module}: only the tests pass {unused}; make the default the behaviour"
