"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyperchrome import constructions  # noqa: E402


def span(sid, name, start, end, parent=None, task=("t",), note=None):
    return (sid, name, start, end, parent, task, note)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(1, "mid", 1.0, 5.0, parent=0),
        span(3, "mid2", 6.0, 7.5, parent=0),
        span(0, "root", 0.0, 10.0),
    ]
    own = tracing.self_times(spans)
    assert own[2] == pytest.approx(1.0)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.5)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.5)


def test_tracer_nests_spans_and_restores_originals():
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules["fake_layer"] = mod
    original_inner = mod.inner
    try:
        tracer = tracing.Tracer()
        tracer.install((("fake_layer", "outer", "layer.outer", None),
                        ("fake_layer", "inner", "layer.inner",
                         tracing._result_note(lambda r: r)),
                        ("fake_layer", "gone", "layer.gone", None),
                        ("no_such_module_here", "f", "x.f", None)))
        assert mod.outer(1) == 4
        tracer.uninstall()
    finally:
        del sys.modules["fake_layer"]
    assert mod.inner is original_inner
    assert tracer.absent == ["fake_layer.gone", "no_such_module_here.f"]
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["layer.inner"][4] == by_name["layer.outer"][0]
    assert by_name["layer.outer"][4] is None
    assert by_name["layer.inner"][6] == 2
    own = tracing.self_times(tracer.spans)
    outer = by_name["layer.outer"]
    inner = by_name["layer.inner"]
    assert own[outer[0]] == pytest.approx(
        (outer[3] - outer[2]) - (inner[3] - inner[2]))


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer()
    f = tracer.wrap("f", lambda: 7)
    tracer.enabled = False
    assert f() == 7
    assert tracer.spans == []


def test_layer_metrics_counts_and_ratios():
    spans = [
        span(0, "core.canonical_form", 0, 1, task=(1, "a"), note="k1"),
        span(1, "core.canonical_form", 1, 2, task=(1, "a"), note="k1"),
        span(2, "core.canonical_form", 2, 3, task=(1, "b"), note="k1"),
        span(3, "containment.contains", 3, 4, note=True),
        span(4, "containment.contains", 4, 5, note=False),
        span(5, "kernels.kcolor_search", 5, 6, note="pure"),
        span(6, "kernels.mis_search", 6, 7, note="native"),
        span(7, "cache.get", 7, 8, note=True),
        span(8, "fileio.parse_hypergraph", 8, 9, note=100),
        span(9, "fileio.serialize_hypergraph", 9, 10, note=None),
    ]
    m = tracing.layer_metrics(spans)
    assert m["core.canonical_form.calls"] == 3
    assert m["extremal.dedup_ratio"] == pytest.approx(2 / 3)
    assert m["containment.contains.found_ratio"] == pytest.approx(0.5)
    assert m["kernels.native_share"] == pytest.approx(0.5)
    assert (m["cache.get.hits"], m["cache.get.misses"]) == (1, 0)
    assert m["fileio.bytes"] == 100
    assert tracing.layer_metrics([])["extremal.dedup_ratio"] == 0.0


def test_percentiles_interpolate_and_count_samples():
    values = list(range(1, 11))
    assert run.percentile(values, 50) == pytest.approx(5.5)
    assert run.percentile(values, 90) == pytest.approx(9.1)
    assert run.percentile(values, 0) == 1
    assert run.percentile(values, 100) == 10
    assert run.percentile([4.0], 90) == 4.0
    passes = [{"a": 0.001, "b": 0.010, "c": 0.100},
              {"a": 0.003, "b": 0.020, "c": 0.300},
              {"a": 0.002, "b": 0.030, "c": 0.200}]
    summary = run.latency_summary(passes)
    assert summary["n"] == 9
    assert summary["p50"] == pytest.approx(20.0)   # median of b
    assert summary["p90"] == pytest.approx(20.0 + 0.8 * 180.0)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_passes_until_meets_the_minimum_per_kind():
    calls = []
    out = run.passes_until(0.0, ("plain", "traced"),
                           lambda i, kind: calls.append((i, kind)) or {"t": i})
    assert [len(out["plain"]), len(out["traced"])] == [run.MIN_PASSES] * 2
    assert calls[:2] == [(0, "plain"), (1, "traced")]


def test_rejection_sampler_is_seeded_and_distinct():
    a = workloads.sample_triples(50, 400, seed=3)
    assert a == workloads.sample_triples(50, 400, seed=3)
    assert a != workloads.sample_triples(50, 400, seed=4)
    assert len(a) == 400 == len(set(a))
    assert all(0 <= x < y < z < 50 for x, y, z in a)
    assert len(workloads.sample_triples(6, comb(6, 3), 0)) == comb(6, 3)
    with pytest.raises(ValueError):
        workloads.sample_triples(5, comb(5, 3) + 1, 0)


def test_relabel_keeps_the_isomorphism_class():
    from hyperchrome.core import canonical_form
    fano = constructions.named("fano")
    copy = workloads.relabel(fano, 12345)
    assert canonical_form(copy) == canonical_form(fano)


def test_kernel_agreement_compares_both_backends():
    G = constructions.named("fano")
    assert workloads.kernel_agreement(G, 3, None) == "native: not built"
    from hyperchrome._kernels import pure
    assert workloads.kernel_agreement(G, 3, pure) == "native agrees"
    liar = types.SimpleNamespace(kcolor_search=lambda *a: ("x", None),
                                 mis_search=pure.mis_search)
    with pytest.raises(workloads.CheckFailed):
        workloads.kernel_agreement(G, 3, liar)


def test_recorded_random_answers_hold():
    from hyperchrome import exact
    for n, m, seed, value in workloads.RANDOM_CHI:
        assert exact.chromatic_number(workloads.random_graph(n, m, seed)) == value
    for n, m, seed, value in workloads.RANDOM_ALPHA:
        assert exact.independence_number(workloads.random_graph(n, m, seed)) == value


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
