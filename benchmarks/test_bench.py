"""Tests for the benchmark's own logic: python3 -m pytest benchmarks/test_bench.py"""

import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import cardl  # noqa: E402
import pace  # noqa: E402
from checks import Ledger, compare_topk, reference_topk, tail  # noqa: E402
from layers import LAYER_METRICS, TRACE_OVERHEAD, layer_values  # noqa: E402
from spans import Span, Tracer, layer_stats, subtree_work  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def tied_index():
    # i1 and i2 tie on every query; ties rank by ascending id
    return cardl.build_index([
        ("i1", "image", [1.0, 0.0]),
        ("i2", "image", [1.0, 0.0]),
        ("i3", "image", [0.6, 0.8]),
        ("t1", "text", [1.0, 0.0]),
    ])


def test_comparator_accepts_the_program_output(tied_index):
    q = np.array([1.0, 0.0])
    results = cardl.query_topk(tied_index, q, 3, "image")
    assert compare_topk(results, reference_topk(tied_index, q, 3, "image")) is None


def test_comparator_rejects_a_swapped_tie(tied_index):
    q = np.array([1.0, 0.0])
    reference = reference_topk(tied_index, q, 3, "image")
    assert [id_ for id_, _ in reference[:2]] == ["i1", "i2"]
    results = cardl.query_topk(tied_index, q, 3, "image")
    swapped = [
        cardl.RetrievalResult(id=results[1].id, score=results[1].score, rank=1),
        cardl.RetrievalResult(id=results[0].id, score=results[0].score, rank=2),
        results[2],
    ]
    assert "rank 1" in compare_topk(swapped, reference)


def test_comparator_rejects_a_score_one_ulp_off(tied_index):
    q = np.array([1.0, 0.0])
    reference = reference_topk(tied_index, q, 3, "image")
    results = cardl.query_topk(tied_index, q, 3, "image")
    last = results[2]
    nudged = results[:2] + [
        cardl.RetrievalResult(id=last.id, score=math.nextafter(last.score, 2.0), rank=last.rank)
    ]
    assert "rank 3" in compare_topk(nudged, reference)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0, {"flop": 5.0}),
        Span("c", 2.0, 3.0, 1, {"flop": 2.0}),
        Span("b", 5.0, 9.0, 0, {"flop": 1.0}),
        Span("r", 20.0, 24.0, None),
        Span("r", 21.0, 22.0, 4),  # nested repeat of the same name
        Span("c", 30.0, 31.0, None, {"flop": 100.0}),
    ]
    stats = layer_stats(spans)
    assert (stats["a"].calls, stats["a"].busy_s, stats["a"].self_s) == (1, 10.0, 3.0)
    assert (stats["b"].calls, stats["b"].busy_s, stats["b"].self_s) == (2, 7.0, 6.0)
    assert (stats["c"].calls, stats["c"].busy_s, stats["c"].self_s) == (2, 2.0, 2.0)
    assert (stats["r"].calls, stats["r"].busy_s, stats["r"].self_s) == (2, 4.0, 4.0)
    assert stats["b"].work == {"flop": 6.0}
    assert subtree_work(spans, "a", "flop") == 8.0  # the root-level c is outside a


def test_tracer_wraps_every_binding_and_restores_them():
    originals = [cardl.nn.adam_step, cardl.alignment.adam_step, cardl.pairhead.adam_step, cardl.adam_step]
    assert len({id(f) for f in originals}) == 1
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [cardl.nn.adam_step, cardl.alignment.adam_step, cardl.pairhead.adam_step, cardl.adam_step]
        assert len({id(f) for f in wrapped}) == 1 and wrapped[0] is not originals[0]
        index = cardl.build_index([("i1", "image", [1.0, 0.0]), ("t1", "text", [0.0, 1.0])])
        cardl.query_topk(index, np.array([1.0, 1.0]), 1, filter_modality="image")
    finally:
        tracer.uninstall()
    assert cardl.pairhead.adam_step is originals[0] and cardl.adam_step is originals[0]
    names = [s.name for s in tracer.spans]
    assert names[0] == "retrieval.build_index" and "retrieval.query_topk" in names
    values = layer_values(tracer.spans)
    assert values["retrieval.candidates_scored"] == 1.0
    assert values["retrieval.score_gflop"] == pytest.approx(4e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_follow_the_seed(name, tmp_path):
    def inputs(seed):
        return json.dumps(WORKLOADS[name](seed, tmp_path, Ledger()).inputs(), sort_keys=True)

    first = inputs(5)
    assert inputs(5) == first
    assert inputs(6) != first


def test_paced_clock_scales_wall_time_by_the_probes_around_a_group(monkeypatch):
    probes = iter([pace.REFERENCE_PROBE_S, 3 * pace.REFERENCE_PROBE_S])  # the mean is twice the reference
    ticks = iter([10.0, 10.5, 20.0, 21.0])  # the two calls take 0.5 s and 1 s of wall time
    monkeypatch.setattr(pace, "probe", lambda: next(probes))
    monkeypatch.setattr(pace.time, "perf_counter", lambda: next(ticks))
    clock = pace.PacedClock()
    assert clock.each(lambda x: x * 2, [1, 2]) == [(2, 0.25), (4, 0.5)]
    assert clock.speed()["probes"] == 2


def test_tail_needs_ten_samples_beyond():
    assert tail([float(i) for i in range(19)]) is None
    assert tail([float(i) for i in range(20)]) == (50.0, 9.0)
    assert tail([float(i) for i in range(100)])[0] == 90.0
    assert tail([float(i) for i in range(200)])[0] == 95.0


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in LAYER_METRICS] + [TRACE_OVERHEAD]
