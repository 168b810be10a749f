"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = json.dumps(workloads.generate(workload, 5), sort_keys=True)
    assert json.dumps(workloads.generate(workload, 5), sort_keys=True) == a
    folded = 5 + workloads.N_VARIANTS
    assert json.dumps(workloads.generate(workload, folded), sort_keys=True) == a
    assert json.dumps(workloads.generate(workload, 6), sort_keys=True) != a


def test_self_times_of_a_synthetic_span_tree():
    #  root [0, 10]
    #    kernel_matrix [1, 6]                                      ball_grid [7, 9]
    #      translation_matrix [2, 3]  translation_matrix [3.5, 5]
    #                                   regular_swf_matrix [4, 4.5]
    names = ["trace.root", "discrete.kernel_matrix", "wavefuncs.translation_matrix",
             "wavefuncs.regular_swf_matrix", "harness.ball_grid"]
    tracer = tracing.Tracer()
    for name in names:
        tracer._name_id(name)
    tracer.name_of = [0, 1, 2, 2, 3, 4]
    tracer.start = [0.0, 1.0, 2.0, 3.5, 4.0, 7.0]
    tracer.end = [10.0, 6.0, 3.0, 5.0, 4.5, 9.0]
    tracer.parent = [-1, 0, 1, 1, 3, 0]
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert selfs == pytest.approx([3.0, 2.5, 1.0, 1.0, 0.5, 2.0])

    info = type("Info", (), {"hits": 0, "misses": 0, "currsize": 0})
    caches = {"specfun.gaunt": info, "specfun.wigner_3j": info}
    m = tracing.layer_metrics(tracer, caches, caches, cost_per_call=1e-3)
    assert m["discrete.kernel_matrix.self_s"] == pytest.approx(2.5)
    assert m["wavefuncs.translation_matrix.calls"] == 2
    assert m["wavefuncs.translation_matrix.self_s"] == pytest.approx(2.0)
    assert m["wavefuncs.regular_swf_matrix.self_s"] == pytest.approx(0.5)
    assert m["harness.ball_grid.self_s"] == pytest.approx(2.0)
    assert m["trace.unattributed_s"] == pytest.approx(3.0)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)
    assert m["trace.overhead_s"] == pytest.approx(5e-3)  # 5 wrapped calls, root excluded


def test_probe_ticks_attach_to_the_innermost_span():
    tracer = tracing.Tracer()
    for name in ("trace.root", "discrete.kernel_matrix"):
        tracer._name_id(name)
    tracer.name_of, tracer.parent = [0, 1], [-1, 0]
    tracer.start, tracer.end = [0.0, 1.0], [10.0, 6.0]
    tracer.attach("speed.probe", [0.5, 2.0, 7.0], [0.6, 2.2, 7.5])
    assert tracer.parent[2:] == [0, 1, 0]
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert sum(selfs) == pytest.approx(10.0)
    assert selfs[:2] == pytest.approx([10.0 - 5.0 - 0.1 - 0.5, 5.0 - 0.2])


def test_wrapper_cost_is_positive_and_small():
    cost = tracing.wrapper_cost(calls=2000, repeats=3)
    assert 0.0 < cost < 1e-3


def test_nested_library_calls_form_parent_child_spans():
    from soundfield import discrete, observation

    mics = [observation.Microphone(pos=p, kind="first_order", axis=[0, 0, 1], a=0.5)
            for p in ([0.0, 0.0, 0.0], [0.1, 0.2, 0.0])]
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        discrete.kernel_matrix(mics, 2.0)
    finally:
        tracing.uninstall(patched)
    names = [tracer.names[i] for i in tracer.name_of]
    assert names.count("discrete.kernel_matrix") == 1
    assert names.count("wavefuncs.translation_matrix") == 4
    for i, name in enumerate(names):
        if name == "wavefuncs.translation_matrix":
            assert names[tracer.parent[i]] == "discrete.kernel_matrix"
        if name == "wavefuncs.regular_swf_matrix":
            assert names[tracer.parent[i]] == "wavefuncs.translation_matrix"
    assert not hasattr(discrete.translation_matrix, "__wrapped__")


def test_perturbed_output_counts_as_failed():
    refs = workloads.load_refs("estimate-suite", 0)
    good = {name: dict(out) for name, out in refs.items()}
    bad = {name: dict(out) for name, out in refs.items()}
    nmse = bad["sweep-BM-first"]["nmse_db"].copy()
    nmse[3] *= 1.0 + 1e-4
    bad["sweep-BM-first"]["nmse_db"] = nmse

    def ops(outputs):
        return [(name, lambda out=out: out) for name, out in outputs.items()]

    assert workloads.run_operations(ops(good), refs) == (len(refs), [])
    attempted, failures = workloads.run_operations(ops(bad), refs)
    assert attempted == len(refs)
    assert [name for name, _ in failures] == ["sweep-BM-first"]

    def raises():
        raise RuntimeError("boom")

    attempted, failures = workloads.run_operations([("field", raises)], refs)
    assert (attempted, len(failures)) == (1, 1)


def test_last_bit_drift_is_within_tolerance():
    ref = {"x": np.array([1.0, -2.5e-3, np.nan, 300.0])}
    drift = {"x": ref["x"] * (1.0 + 4e-16)}
    assert workloads.mismatches(drift, ref) == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_spec()


def test_speed_probe_converts_to_reference_seconds():
    probe = speed.SpeedProbe()
    half = speed.REFERENCE_S * 2.0  # machine at half the reference speed
    probe.starts = [float(t) for t in range(1, 21)]
    probe.ends = [t + 0.1 for t in probe.starts]
    probe.cal = [half] * 10 + [speed.REFERENCE_S] * 10
    # [0.5, 2.5]: work 0.5 + 0.9 + 0.4 s, all at half speed
    ref, measured = probe.convert(0.5, 2.5)
    assert measured == pytest.approx(1.8)
    assert ref == pytest.approx(0.9)
    # [15.05, 17.5] starts inside a tick; full speed from there on
    ref, measured = probe.convert(15.05, 17.5)
    assert measured == pytest.approx(0.9 + 0.9 + 0.4)
    assert ref == pytest.approx(measured)
    assert probe.probe_seconds(15.05, 17.5) == pytest.approx(0.05 + 0.1 + 0.1)


def test_speed_probe_skips_a_tick_inside_a_tick():
    probe = speed.SpeedProbe()
    probe._tick(None, None)
    assert len(probe.cal) == 1
    probe._busy = True
    probe._tick(None, None)
    assert len(probe.cal) == 1
