import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardl import retrieval
from cardl.alignment import linear_model, random_projection_model
from cardl.dataio import SyntheticConfig, generate_synthetic, oracle_model, unified_records
from cardl.errors import DataError, NumericError, UsageError
from cardl.evaluation import (
    AP_CONVENTION,
    EvalReport,
    average_precision,
    evaluate_retrieval,
    mean_average_precision,
)
from cardl.records import FeatureRecord
from cardl.retrieval import DIRECTION_SIDES, build_index, cross_media_search
from kept import spy_kept_blocks


def ap_oracle(flags, total_relevant):
    """Reference AP: sum over ranks of P(r)*delta(r), divided by R'.

    delta(r) is 1 exactly at relevant ranks, so this walks positions rather
    than counting hits; an independent formulation of the same quantity.
    """
    r_prime = min(total_relevant, len(flags))
    if r_prime == 0:
        return 0.0
    acc = 0.0
    for r in range(1, len(flags) + 1):
        delta = 1.0 if flags[r - 1] else 0.0
        p_r = sum(flags[:r]) / r
        acc += p_r * delta
    return acc / r_prime


def ap_loop(flags, total_relevant):
    """Reference AP in the order of its definition: hits / r added at each
    relevant rank r in turn, then one division by R'."""
    r_prime = min(total_relevant, len(flags))
    if r_prime == 0:
        return 0.0
    hits, total = 0, 0.0
    for r, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / r
    return total / r_prime


# ------------------------------------------------------- average_precision --

def test_ap_stepwise_example():
    got = average_precision([True, False, True], total_relevant=2)
    assert abs(got - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_ap_perfect_run():
    assert average_precision([True, True, True], 3) == 1.0


def test_ap_no_hits():
    assert average_precision([False, False], 2) == 0.0


def test_ap_unjudged_returns_zero():
    assert average_precision([True, False], 0) == 0.0


def test_ap_truncation_normalizes_by_run_length():
    # 5 relevant exist but the run only has room for 2
    assert average_precision([True, True], total_relevant=5) == 1.0


def test_ap_validation():
    with pytest.raises(UsageError):
        average_precision([], 1)
    with pytest.raises(UsageError):
        average_precision([True], -1)


def test_ap_exhaustive_matches_oracle():
    for length in range(1, 7):
        for flags in itertools.product([False, True], repeat=length):
            for total in range(0, 7):
                got = average_precision(list(flags), total)
                want = ap_oracle(list(flags), total)
                assert abs(got - want) < 1e-12, (flags, total)


def test_ap_has_the_bits_of_a_sequential_loop():
    for length in range(1, 11):
        for flags in itertools.product([False, True], repeat=length):
            for total in range(0, 13):
                assert average_precision(flags, total).hex() == ap_loop(flags, total).hex(), (flags, total)


@given(st.lists(st.booleans(), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_ap_bounds_and_prepend_monotonicity(flags):
    total = sum(flags)  # consistent instance: judged count == hits in run
    if total == 0:
        assert average_precision(flags, total) == 0.0
        return
    base = average_precision(flags, total)
    assert 0.0 <= base <= 1.0
    better = average_precision([True] + flags, total + 1)
    assert better >= base - 1e-12


# --------------------------------------------------------------------- map --

def test_map_is_plain_mean():
    assert mean_average_precision([1.0, 0.5, 0.0]) == 0.5


def test_map_empty_rejected():
    with pytest.raises(DataError):
        mean_average_precision([])


def test_report_validates_map_range():
    with pytest.raises(DataError):
        EvalReport(
            direction="txt2img",
            map_at={1: 1.5},
            ap_per_query={1: {}},
            evaluated=1,
            skipped=0,
        )


def test_report_carries_convention_string():
    rep = EvalReport(
        direction="txt2img", map_at={1: 1.0}, ap_per_query={1: {"q": 1.0}},
        evaluated=1, skipped=0,
    )
    assert rep.ap_convention == AP_CONVENTION
    assert "min(total_relevant, R)" in rep.ap_convention


# ------------------------------------------------------ evaluate_retrieval --

def planted_scenario():
    """Identity-projection corpus where every ranking is known by construction.

    Text t0 sits exactly on image i0's direction, t1 on i1's, and t2 is
    closer to i1 than to its own partner i2, so t2's AP@1 is 0.
    """
    e = np.eye(3)
    texts = [
        FeatureRecord("t0", "text", e[0].copy()),
        FeatureRecord("t1", "text", e[1].copy()),
        FeatureRecord("t2", "text", np.array([0.0, 0.8, 0.6])),
    ]
    images = [
        FeatureRecord("i0", "image", e[0].copy()),
        FeatureRecord("i1", "image", e[1].copy()),
        FeatureRecord("i2", "image", e[2].copy()),
    ]
    model = linear_model(np.eye(3), np.eye(3))
    index = build_index([(r.id, r.modality, r.vector) for r in texts + images])
    qrels = {"t0": {"i0"}, "t1": {"i1"}, "t2": {"i2"}}
    return model, index, texts, qrels


def test_evaluate_planted_rankings():
    model, index, texts, qrels = planted_scenario()
    rep = evaluate_retrieval(model, index, texts, qrels, k_list=(1, 3), direction="txt2img")
    assert rep.evaluated == 3 and rep.skipped == 0
    assert rep.ap_per_query[1]["t0"] == 1.0
    assert rep.ap_per_query[1]["t1"] == 1.0
    assert rep.ap_per_query[1]["t2"] == 0.0  # partner i2 ranks second for t2
    assert rep.ap_per_query[3]["t2"] == 0.5
    assert abs(rep.map_at[1] - 2.0 / 3.0) < 1e-12
    assert abs(rep.map_at[3] - (1.0 + 1.0 + 0.5) / 3.0) < 1e-12


def test_evaluate_skips_unjudged_queries():
    model, index, texts, qrels = planted_scenario()
    del qrels["t2"]
    rep = evaluate_retrieval(model, index, texts, qrels, k_list=(1,), direction="txt2img")
    assert rep.evaluated == 2
    assert rep.skipped == 1
    assert rep.map_at[1] == 1.0  # t2 no longer drags the mean down


@pytest.mark.parametrize("judged", [False, True], ids=["unjudged", "judged"])
@pytest.mark.parametrize("record, message", [
    (FeatureRecord("i9", "image", np.array([1.0, 0.0])), "record 'i9': image vector where the model expects text"),
    (FeatureRecord("t9", "text", np.ones(3)), "record 't9': text vector has dim 3, model expects 2"),
], ids=["other modality", "other dim"])
def test_a_query_record_that_does_not_fit_is_refused_whether_or_not_it_is_judged(judged, record, message):
    index = build_index([("i0", "image", [1.0, 0.0]), ("t0", "text", [1.0, 0.0])])
    queries = [FeatureRecord("t0", "text", np.array([1.0, 0.0])), record]
    qrels = {"t0": {"i0"}, **({record.id: {"i0"}} if judged else {})}
    with pytest.raises(DataError, match=f"^{message}$"):
        evaluate_retrieval(linear_model(np.eye(2), np.eye(2)), index, queries, qrels, k_list=(1,), direction="txt2img")


def test_evaluate_all_unjudged_is_an_error():
    model, index, texts, _ = planted_scenario()
    with pytest.raises(DataError):
        evaluate_retrieval(model, index, texts, {}, k_list=(1,), direction="txt2img")


def test_evaluate_judged_but_absent_docs_score_zero():
    model, index, texts, qrels = planted_scenario()
    qrels = {"t0": {"i999"}}
    rep = evaluate_retrieval(model, index, [texts[0]], qrels, k_list=(3,), direction="txt2img")
    assert rep.map_at[3] == 0.0
    assert rep.evaluated == 1


def test_evaluate_query_order_is_canonical():
    model, index, texts, qrels = planted_scenario()
    a = evaluate_retrieval(model, index, texts, qrels, k_list=(1,), direction="txt2img")
    b = evaluate_retrieval(model, index, list(reversed(texts)), qrels, k_list=(1,), direction="txt2img")
    assert a.map_at == b.map_at
    assert list(a.ap_per_query[1]) == list(b.ap_per_query[1])


def test_evaluate_k_list_validation_and_direction():
    model, index, texts, qrels = planted_scenario()
    with pytest.raises(UsageError):
        evaluate_retrieval(model, index, texts, qrels, k_list=(), direction="txt2img")
    with pytest.raises(UsageError):
        evaluate_retrieval(model, index, texts, qrels, k_list=(0,), direction="txt2img")
    with pytest.raises(UsageError):
        evaluate_retrieval(model, index, texts, qrels, k_list=(1,), direction="upward")


def test_evaluate_img2txt_uses_image_queries():
    model, index, texts, _ = planted_scenario()
    images = [
        FeatureRecord("i0", "image", np.eye(3)[0].copy()),
        FeatureRecord("i1", "image", np.eye(3)[1].copy()),
    ]
    qrels = {"i0": {"t0"}, "i1": {"t1"}}
    rep = evaluate_retrieval(model, index, images, qrels, k_list=(1,), direction="img2txt")
    assert rep.map_at[1] == 1.0


@pytest.mark.parametrize("direction", ["txt2img", "img2txt"])
def test_evaluate_equals_per_query_cross_media_search(direction):
    ds = generate_synthetic(
        SyntheticConfig(clusters=4, pairs_per_cluster=30, text_dim=12, image_dim=16,
                        latent_dim=4, noise_sigma=0.5, seed=3, same_cluster_relevant=True)
    )
    model = random_projection_model(12, 16, unified_dim=6, seed=1)
    # 6 images, fewer than max(k_list): txt2img runs are shorter than some cutoffs
    index = build_index(unified_records(model, ds.text_records + ds.image_records[:6]))
    queries = ds.text_records if direction == "txt2img" else ds.image_records
    k_list = (1, 5, 10)
    candidates = len(index.sides[DIRECTION_SIDES[direction][1]].rows)
    # a score block of 7 rows: 120 queries run as 17 full blocks and one short one;
    # and no result object is built on the way
    with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * candidates * 7), \
         mock.patch.object(retrieval, "RetrievalResult", side_effect=AssertionError("a RetrievalResult")):
        rep = evaluate_retrieval(model, index, queries, ds.qrels, k_list=k_list, direction=direction)
        with pytest.raises(AssertionError, match="a RetrievalResult"):
            cross_media_search(model, index, queries[0], 1, direction)
    assert rep.evaluated == len(queries)
    assert all(len(ds.qrels[record.id]) > 1 for record in queries)
    for record in queries:
        results = cross_media_search(model, index, record, max(k_list), direction)
        relevant = ds.qrels[record.id]
        flags = [r.id in relevant for r in results]
        for k in k_list:
            assert rep.ap_per_query[k][record.id].hex() == ap_loop(flags[:k], len(relevant)).hex()


@pytest.mark.parametrize("direction", ["txt2img", "img2txt"])
def test_evaluate_on_a_blocked_index_equals_per_query_cross_media_search(direction, monkeypatch):
    # ids run cluster by cluster, so blocks of 12 queries in id order keep the blocks of
    # one or two of the 10 clusters and screen the rows they gather
    monkeypatch.setattr(retrieval, "BOUND_MIN_ROWS", retrieval.BOUND_BLOCK_ROWS)
    ds = generate_synthetic(SyntheticConfig(clusters=10, pairs_per_cluster=48, text_dim=12, image_dim=16,
                                            latent_dim=8, seed=4))
    model = oracle_model(ds)
    index = build_index(unified_records(model, ds.text_records + ds.image_records))
    queries = ds.text_records if direction == "txt2img" else ds.image_records
    candidates = len(index.sides[DIRECTION_SIDES[direction][1]].rows)
    kept = []
    with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * candidates * 12), \
         mock.patch.object(retrieval, "_kept_blocks", spy_kept_blocks(kept)):
        rep = evaluate_retrieval(model, index, queries, ds.qrels, k_list=(1, 5, 10), direction=direction)
    assert len(kept) == len(queries) // 12 and all(rows is not None and len(rows) < candidates // 2 for rows in kept)
    for record in queries:
        flags = [r.id in ds.qrels[record.id] for r in cross_media_search(model, index, record, 10, direction)]
        for k in (1, 5, 10):
            assert rep.ap_per_query[k][record.id].hex() == ap_loop(flags[:k], len(ds.qrels[record.id])).hex()


def test_a_projection_that_overflows_is_a_numeric_error_naming_the_record_with_no_warning():
    model = linear_model(np.array([[1e308, 0.0], [0.0, 1.0]]), np.eye(2))
    index = build_index([("i0", "image", [1.0, 0.0]), ("t0", "text", [1.0, 0.0])])
    texts = [FeatureRecord("t0", "text", np.array([1.0, 0.0])), FeatureRecord("t1", "text", np.array([2.0, 0.0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"non-finite projection \(t1\)"):
            evaluate_retrieval(model, index, texts, {"t0": {"i0"}, "t1": {"i0"}}, k_list=(1,))
        with pytest.raises(NumericError, match=r"non-finite projection \(t1\)"):
            unified_records(model, texts)
