"""The benchmark tracer (perfbench/tracing.py) wraps library functions by
name and reads two lru_caches; every name it lists must stay bound, or
``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()


@pytest.mark.parametrize("module, names", sorted(TRACER.TRACED.items()))
def test_traced_names_are_bound(module, names):
    mod = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("full, attr", sorted(TRACER.CACHES.items()))
def test_traced_caches_are_bound(full, attr):
    module = full.split(".")[0]
    mod = importlib.import_module(f"{TRACER.PACKAGE}.{module}")
    assert callable(getattr(getattr(mod, attr, None), "cache_info", None)), full
