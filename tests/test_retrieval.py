import dataclasses
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cardl import retrieval
from cardl.alignment import linear_model, project
from cardl.dataio import load_index, save_index
from cardl.errors import DataError, DimensionError, NumericError, UsageError
from cardl.records import FeatureRecord
from cardl.retrieval import (
    IMG2TXT,
    TXT2IMG,
    UnifiedIndex,
    build_index,
    cosine_sim,
    cross_media_search,
    l2_normalize,
    query_topk,
)
from kept import spy_kept_blocks


def full_sort_hex(index, q, modality):
    """Per-row brute force: one np.dot per candidate, clipped, full sort by (-score, id)."""
    qn = np.asarray(q, dtype=np.float64)
    qn = qn / np.linalg.norm(qn)
    scored = sorted(
        (
            (min(max(float(np.dot(index.vectors[i], qn)), -1.0), 1.0), index.ids[i])
            for i in range(len(index))
            if index.modalities[i] == modality
        ),
        key=lambda t: (-t[0], t[1]),
    )
    return [(rank, id_, score.hex()) for rank, (score, id_) in enumerate(scored, start=1)]


def make_items(n, dim, seed, modality_cycle=("text", "image")):
    rng = np.random.default_rng(seed)
    return [
        (f"v{k:04d}", modality_cycle[k % len(modality_cycle)], rng.normal(size=dim))
        for k in range(n)
    ]


# ---------------------------------------------------------------- similarity --

def test_l2_normalize_worked_example():
    assert np.array_equal(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])


def test_l2_normalize_rejects_zero():
    with pytest.raises(NumericError):
        l2_normalize(np.zeros(3))


@pytest.mark.parametrize("size", [1e200, 1e-160, 1e-200])
def test_vectors_whose_norm_overflows_or_underflows_rank_like_their_direction(size, tmp_path):
    # ||v||**2 overflows to inf (1e200), is subnormal and inexact (1e-160) or
    # underflows to 0 (1e-200) although v is finite
    items = make_items(30, 3, seed=9)
    reference = query_topk(build_index(items), np.full(3, 1.0), 5, "image")
    with np.errstate(over="ignore"):  # numpy warns that ||v||**2 overflowed
        got = query_topk(build_index(items), np.full(3, size), 5, "image")
    assert [(r.id, r.score.hex()) for r in got] == [(r.id, r.score.hex()) for r in reference]
    idx = build_index([("big", "image", np.full(3, size)), ("one", "image", np.full(3, 1.0))])
    assert idx.vectors[0].tobytes() == idx.vectors[1].tobytes() == l2_normalize(np.ones(3)).tobytes()
    save_index(idx, tmp_path / "index.json")
    assert load_index(tmp_path / "index.json").vectors.tobytes() == idx.vectors.tobytes()


@pytest.mark.parametrize("size", [1e200, 1e-160, 1e-200])
def test_projections_whose_norm_overflows_or_underflows_equal_their_direction(size):
    model = linear_model(np.eye(3), np.eye(3))
    ones = project(model.text_head, np.ones((1, 3)))
    with np.errstate(over="ignore"):  # numpy warns that ||v||**2 overflowed
        got = project(model.text_head, np.full((1, 3), size))
        mixed = project(model.text_head, np.array([[size] * 3, [3.0, 4.0, 0.0]]))
    assert got.tobytes() == ones.tobytes()
    # rows with an ordinary norm keep the bits of the plain division
    assert mixed[0].tobytes() == ones[0].tobytes() and mixed[1].tobytes() == bytes(np.array([0.6, 0.8, 0.0]))
    index = build_index(make_items(30, 3, seed=9))
    reference = cross_media_search(model, index, FeatureRecord("q", "text", np.ones(3)), 5, TXT2IMG)
    with np.errstate(over="ignore"):
        hits = cross_media_search(model, index, FeatureRecord("q", "text", np.full(3, size)), 5, TXT2IMG)
    assert [(r.id, r.score.hex()) for r in hits] == [(r.id, r.score.hex()) for r in reference]


def test_cosine_worked_value_exact():
    assert cosine_sim(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == 0.8


def test_cosine_self_similarity_exact():
    v = np.random.default_rng(0).normal(size=16)
    assert cosine_sim(v, v) == 1.0


def test_cosine_antipodal_and_orthogonal():
    x = np.array([1.0, 0.0])
    assert cosine_sim(x, -x) == -1.0
    assert cosine_sim(x, np.array([0.0, 5.0])) == 0.0


@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.001, 1000.0),
)
@settings(max_examples=50, deadline=None)
def test_cosine_scale_invariance_and_symmetry(seed, alpha):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    base = cosine_sim(x, y)
    assert abs(cosine_sim(alpha * x, y) - base) < 1e-12
    assert abs(cosine_sim(x, alpha * y) - base) < 1e-12
    assert cosine_sim(y, x) == cosine_sim(x, y)
    assert -1.0 <= base <= 1.0


def test_cosine_validation():
    with pytest.raises(DimensionError):
        cosine_sim(np.zeros(2), np.zeros(3))
    with pytest.raises(NumericError):
        cosine_sim(np.zeros(2), np.ones(2))


# ---------------------------------------------------------------- index build --

def test_build_index_sorts_and_normalizes():
    items = [
        ("b", "image", np.array([0.0, 2.0])),
        ("a", "text", np.array([3.0, 4.0])),
        ("c", "text", np.array([1.0, 0.0])),
    ]
    idx = build_index(items)
    assert idx.ids == ("a", "b", "c")
    assert idx.modalities == ("text", "image", "text")
    assert np.allclose(idx.vectors[0], [0.6, 0.8], atol=1e-15)
    assert np.allclose(np.linalg.norm(idx.vectors, axis=1), 1.0, atol=1e-12)


def test_build_index_input_order_irrelevant():
    items = make_items(20, 8, seed=3)
    a = build_index(items)
    b = build_index(list(reversed(items)))
    assert a.ids == b.ids
    assert np.array_equal(a.vectors, b.vectors)


def test_build_index_accepts_feature_records():
    recs = [
        FeatureRecord("x1", "text", np.array([1.0, 1.0])),
        FeatureRecord("x0", "image", np.array([2.0, 0.0])),
    ]
    idx = build_index(recs)
    assert idx.ids == ("x0", "x1")
    assert idx.dimension == 2


def test_build_index_rejections():
    with pytest.raises(DataError, match="dup"):
        build_index([("dup", "text", np.ones(2)), ("dup", "image", np.ones(2))])
    with pytest.raises(DimensionError):
        build_index([("a", "text", np.ones(2)), ("b", "text", np.ones(3))])
    # numpy refuses these stacks as ragged: the walk names the middle entry
    for middle, shape in ((np.ones(3), r"\(3,\)"), (np.ones((1, 2)), r"\(1, 2\)"), (1.0, r"\(\)")):
        with pytest.raises(DimensionError, match=rf"^entry 'b': vector shape {shape}, index dim 2$"):
            build_index([("c", "text", np.ones(2)), ("b", "image", middle), ("a", "text", np.ones(2))])
    # numpy stacks these, but not as (n, dim): the walk names the first entry
    for row, shape, dim in ((np.ones((1, 2)), r"\(1, 2\)", 2), (1.0, r"\(\)", 1)):
        with pytest.raises(DimensionError, match=rf"^entry 'a': vector shape {shape}, index dim {dim}$"):
            build_index([(name, "text", row) for name in "abc"])
    with pytest.raises(ValueError, match="could not convert"):  # well shaped, but no numbers
        build_index([("a", "text", ["x", "y"]), ("b", "text", np.ones(2)), ("c", "text", np.ones(2))])
    with pytest.raises(NumericError):
        build_index([("a", "text", np.zeros(2))])
    with pytest.raises(DataError):
        build_index([("a", "audio", np.ones(2))])


def test_empty_index():
    idx = build_index([])
    assert len(idx) == 0
    assert idx.dimension is None
    assert query_topk(idx, np.ones(3), 5, "text") == []


def test_index_vectors_immutable():
    idx = build_index(make_items(4, 3, seed=0))
    with pytest.raises(ValueError):
        idx.vectors[0, 0] = 99.0


# --------------------------------------------------------------------- query --

def test_query_topk_matches_brute_force_with_ties():
    # duplicate directions force exact score ties; id breaks them
    items = [
        ("m2", "image", np.array([1.0, 0.0])),
        ("m1", "image", np.array([2.0, 0.0])),
        ("m3", "image", np.array([0.0, 1.0])),
        ("t1", "text", np.array([1.0, 1.0])),
    ]
    idx = build_index(items)
    res = query_topk(idx, np.array([1.0, 0.0]), 3, "image")
    assert [(r.rank, r.id) for r in res] == [(1, "m1"), (2, "m2"), (3, "m3")]
    assert res[0].score == res[1].score == 1.0
    oracle = full_sort_hex(idx, np.array([1.0, 0.0]), "image")
    assert [(r.rank, r.id, r.score.hex()) for r in res] == oracle[:3]


@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_query_topk_equals_full_sort_prefix(seed, n, k):
    items = make_items(n, 6, seed=seed)
    idx = build_index(items)
    rng = np.random.default_rng(seed + 1)
    q = rng.normal(size=6)
    for modality in ("text", "image"):
        res = query_topk(idx, q, k, modality)
        oracle = full_sort_hex(idx, q, modality)
        assert [(r.rank, r.id, r.score.hex()) for r in res] == oracle[:k]
        assert [r.rank for r in res] == list(range(1, len(res) + 1))
        assert all(-1.0 <= r.score <= 1.0 for r in res)


def test_query_topk_scale_invariant_in_query():
    idx = build_index(make_items(12, 5, seed=7))
    q = np.random.default_rng(8).normal(size=5)
    a = query_topk(idx, q, 5, "text")
    b = query_topk(idx, 10.0 * q, 5, "text")
    assert [(r.id, r.rank) for r in a] == [(r.id, r.rank) for r in b]
    assert max(abs(x.score - y.score) for x, y in zip(a, b)) < 1e-12


def test_query_topk_validation():
    # one query, 1-D, and the same query as a 1-row batch meet each check in one definition
    idx = build_index(make_items(4, 3, seed=1))
    cases = [
        (np.ones(3), 0, "text", UsageError),
        (np.ones(3), 3, "video", UsageError),
        (np.ones(5), 3, "text", DimensionError),
        (np.array([1.0, np.nan, 1.0]), 3, "text", NumericError),
        (np.array([1.0, 1.0, np.inf]), 3, "text", NumericError),
        (np.array([-np.inf, 1.0, 1.0]), 3, "text", NumericError),
        (np.zeros(3), 3, "text", NumericError),
    ]
    for q, k, modality, error in cases:
        with pytest.raises(error) as one:
            query_topk(idx, q, k, modality)
        with pytest.raises(error) as batch:
            retrieval._topk_arrays(idx, q[None], k, modality)
        assert str(one.value) == str(batch.value)


def test_query_topk_k_exceeding_candidates():
    idx = build_index(make_items(6, 4, seed=2))  # 3 text, 3 image
    res = query_topk(idx, np.ones(4), 50, "text")
    assert len(res) == 3


# -------------------------------------------------------- cross-media search --

def _identity_model(dim):
    return linear_model(np.eye(dim), np.eye(dim))


def test_cross_media_search_reaches_other_modality():
    dim = 4
    model = _identity_model(dim)
    rng = np.random.default_rng(5)
    records = [FeatureRecord(f"t{k}", "text", rng.normal(size=dim)) for k in range(3)]
    records += [FeatureRecord(f"i{k}", "image", rng.normal(size=dim)) for k in range(3)]
    idx = build_index(
        [(r.id, r.modality, project(model.head_for(r.modality), r.vector[None, :])[0]) for r in records]
    )
    res = cross_media_search(model, idx, records[0], k=10, direction=TXT2IMG)
    assert {r.id[0] for r in res} == {"i"}
    res_back = cross_media_search(model, idx, records[3], k=10, direction=IMG2TXT)
    assert {r.id[0] for r in res_back} == {"t"}


def test_cross_media_search_agrees_with_manual_projection():
    dim = 6
    model = _identity_model(dim)
    rng = np.random.default_rng(9)
    images = [FeatureRecord(f"i{k}", "image", rng.normal(size=dim)) for k in range(8)]
    idx = build_index([(r.id, r.modality, r.vector) for r in images])
    q = FeatureRecord("q", "text", rng.normal(size=dim))
    got = cross_media_search(model, idx, q, k=4, direction=TXT2IMG)
    manual = query_topk(idx, project(model.text_head, q.vector[None, :])[0], 4, "image")
    assert [(r.id, r.score, r.rank) for r in got] == [(r.id, r.score, r.rank) for r in manual]


def test_cross_media_search_direction_validation():
    model = _identity_model(3)
    idx = build_index([("i0", "image", np.ones(3))])
    text_query = FeatureRecord("q", "text", np.ones(3))
    with pytest.raises(UsageError):
        cross_media_search(model, idx, text_query, 5, "sideways")
    with pytest.raises(UsageError, match="txt2img"):
        cross_media_search(
            model, idx, FeatureRecord("q", "image", np.ones(3)), 5, TXT2IMG
        )


def test_unified_index_len_and_dimension():
    idx = build_index(make_items(5, 7, seed=0))
    assert len(idx) == 5
    assert idx.dimension == 7
    assert isinstance(idx, UnifiedIndex)


# ------------------------------------------------------ batched top-k kernel --

def topk_hex(index, queries, k, modality):
    """`_topk_arrays` for a block of queries, as one (rank, id, score hex) list per query."""
    rows, scores = retrieval._topk_arrays(index, queries, k, modality)
    return [
        [(rank, index.ids[row], score.hex()) for rank, (row, score) in enumerate(zip(run, run_scores), start=1)]
        for run, run_scores in zip(rows.tolist(), scores.tolist())
    ]


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2000, 2400),
    dim=st.sampled_from([1, 2, 3, 8, 64, 257]),
    interleaved=st.booleans(),
    k=st.integers(1, 30),
    block_rows=st.integers(1, 4),
    n_queries=st.integers(1, 7),
    hostile=st.sampled_from(["none", "near ties", "underflow", "rounding", "floors", "blocks"]),
    delta=st.sampled_from([1e-9, 1e-12, 1e-15]),
)
@settings(max_examples=40, deadline=None)
def test_batched_topk_equals_per_row_full_sort(
    seed, n, dim, interleaved, k, block_rows, n_queries, hostile, delta
):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    # forced exact ties: power-of-two rescalings normalize to identical rows
    for src in rng.choice(n, 20, replace=False):
        for dst, scale in zip(rng.choice(n, 2, replace=False), (2.0, 0.5)):
            vectors[dst] = vectors[src] * scale
    queries = rng.normal(size=(n_queries, dim))
    queries[0] = vectors[int(rng.integers(n))]  # on an indexed direction: a score near 1
    group = rng.choice(n, 60, replace=False)
    if hostile == "near ties":
        # x + delta * e_j around the query x: float32 cannot tell these rows
        # apart, and rows sharing (j, sign) are exact ties the re-score must
        # order by id in a band far wider than k
        coords = rng.choice(dim, min(dim, 3), replace=False)
        vectors[group] = queries[0]
        vectors[group, rng.choice(coords, 60)] += delta * rng.choice([-1.0, 1.0], 60)
    elif hostile == "underflow":
        # entries in [1e-46, 1e-39], which float32 rounds to subnormals or
        # flushes to 0, in every row and in the queries; the first query
        # sees nothing else, so the reference ranks by them alone
        tiny = rng.choice(dim, max(1, dim // 2), replace=False)
        size = (n_queries + n, len(tiny))
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-46, -39, size)
        queries[:, tiny], vectors[:, tiny] = values[:n_queries], values[n_queries:]
        queries[0] = 0.0
        queries[0, tiny] = rng.normal(size=len(tiny))
    elif hostile == "rounding":
        # from a pool of directions so close to the query that float32
        # cannot resolve their float64 scores, the 30 the screen rounds
        # furthest up and the 30 it rounds furthest down: the band must hold
        # the widest gaps that rounding makes
        q = queries[0] / np.linalg.norm(queries[0])
        pool = q + 3e-6 * rng.normal(size=(max(60, 2**20 // dim), dim))
        pool /= np.linalg.norm(pool, axis=1)[:, None]
        error = (pool.astype(np.float32) @ q.astype(np.float32)) - pool @ q
        order = np.argsort(error)
        vectors[group] = pool[np.concatenate([order[:30], order[-30:]])]
    elif hostile == "blocks":
        # rows in id order run cluster by cluster, so most blocks of a modality lie in one
        # cluster, and the queries are rows of one cluster, so they keep few blocks; around
        # the first row of the cluster after theirs, k + 4 rows are copies of the first
        # query, exact ties (power-of-two rescalings) and near ties (+ delta * e_j): the
        # block they start must be kept
        labels = np.arange(n) * int(rng.integers(8, 17)) // n
        vectors = rng.normal(size=(labels[-1] + 1, dim))[labels] + 1e-3 * rng.normal(size=(n, dim))
        at = rng.choice(np.flatnonzero(labels == rng.integers(labels[-1] + 1)), n_queries)
        queries[:] = vectors[at]
        at = int(at[0])
        edge = int(np.searchsorted(labels, min(labels[at] + 1, labels[-1])))  # a first row of a cluster
        ties = np.arange(max(0, edge - k // 2 - 2), min(n, edge + k // 2 + 2))
        vectors[ties] = queries[0] * rng.choice([2.0, 0.5, 1.0], (len(ties), 1))
        near = ties[rng.random(len(ties)) < 0.5]
        vectors[near, rng.integers(dim, size=len(near))] += delta * rng.choice([-1.0, 1.0], len(near))
    if interleaved:
        modalities = rng.choice(["text", "image"], size=n)
    else:  # one contiguous run per modality, and a text side of only 3 entries
        modalities = np.array(["text" if i < 3 else "image" for i in range(n)])
    images = np.flatnonzero(modalities == "image")
    if hostile == "blocks" and len(images) % retrieval.BOUND_BLOCK_ROWS == 0:
        modalities[images[-1]] = "text"  # a remainder for the last block of images
    widen = 0.0
    if hostile == "floors":
        # k image rows near the first query put its k-th screen in [0.5, 1), where float32 steps
        # by 2^-24: a margin 3/4 step wider (a wider band is always exact) leaves its floor
        # 1/4 step above a float32, so rounding to nearest would round it down
        vectors[group] = queries[0] + 1e-3 * rng.normal(size=(60, dim))
        widen = 0.75 * 2.0**-24
        # a text side of fewer than k rows, each -q for the first query: its
        # k-th screen clips at -1, so its floor falls to -1 or below
        k = max(k, 2)
        text = rng.choice(n, int(rng.integers(1, k)), replace=False) if interleaved else np.arange(k - 1)
        modalities = np.full(n, "image")
        modalities[text] = "text"
        vectors[text] = -queries[0] * rng.choice([2.0, 0.5, 1.0], (len(text), 1))
    real_ceil32, real_margin = retrieval._ceil32, retrieval._screen_margin
    floors, kept = [], []

    def margin(*args):
        return real_margin(*args) + widen

    def ceil32(values):  # a float64 array from a block of queries, a float from one query
        floors.append((values, real_ceil32(values)))
        return floors[-1][1].copy()  # the kernel writes to the one it gets

    with mock.patch.object(retrieval, "BOUND_MIN_ROWS", retrieval.BOUND_BLOCK_ROWS):  # blocks for ~2,000 rows
        index = build_index([(f"e{i:05d}", modalities[i], vectors[i]) for i in range(n)])
    for modality in ("text", "image"):
        candidates = len(index.sides[modality].rows)
        # shrink the score block so query blocks straddle the block boundary
        with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * max(1, candidates) * block_rows), \
             mock.patch.object(retrieval, "_screen_margin", margin), mock.patch.object(retrieval, "_ceil32", ceil32), \
             mock.patch.object(retrieval, "_kept_blocks", spy_kept_blocks(kept)):
            batched = topk_hex(index, queries, k, modality)
        assert len(batched) == n_queries
        for q, got in zip(queries, batched):
            expected = full_sort_hex(index, q, modality)[:k]
            assert got == expected
            single = query_topk(index, q, k, modality)
            assert [(r.rank, r.id, r.score.hex()) for r in single] == expected
    with pytest.raises(dataclasses.FrozenInstanceError):  # slots leave results frozen
        single[0].score = 0.0
    values, ceilings = (np.concatenate([np.ravel(part) for part in parts]) for parts in zip(*floors))
    # each floor rounds up to the next float32, never to the nearest one below
    assert ceilings.dtype == np.float32 and (ceilings >= values).all()
    assert (np.nextafter(ceilings, np.float32(-np.inf)) < values).all()
    if hostile == "floors":
        assert (values <= -1.0).any() and (values.astype(np.float32) < values).any()
    if hostile == "blocks" and dim > 1:  # some block of queries dropped rows
        assert any(rows is not None for rows in kept)
    if hostile == "none" and dim > 1:  # no cluster structure: every search screened the whole side
        assert all(rows is None for rows in kept) and all(side.blocks is None for side in index.sides.values())


def test_a_band_floor_at_or_below_minus_one_admits_every_candidate():
    idx = build_index(make_items(8, 5, seed=2))
    unit = l2_normalize(np.random.default_rng(2).normal(size=(1, 5)))
    m = retrieval._screen_margin(idx.dimension, idx.max_norm, retrieval._dot_norms(unit))[0]
    # k-th screens below -1, at -1, above -1 by less than m, and by more than m
    kth = np.array([-1.5, -1.0, -1.0 + m / 2, -1.0 + 4 * m, 0.5], dtype=np.float32)
    floors = retrieval._floor32(kth.clip(-1.0, 1.0).astype(np.float64) - m)
    # one query's floor, from floats, is the same float32
    assert [retrieval._floor32(min(max(float(t), -1.0), 1.0) - m) for t in kth] == floors.tolist()
    assert floors.dtype == np.float32
    assert (floors[:3] == np.finfo(np.float32).min).all()
    ceilings = retrieval._ceil32(np.clip(kth[3:], -1.0, 1.0).astype(np.float64) - m)
    assert np.array_equal(floors[3:], ceilings) and (-1.0 < floors[3:]).all() and (floors[3:] <= kth[3:]).all()
    # the keep rule's floor L, for an array of need-th best lower bounds and one float at a time:
    # -inf at or below -1, the bound itself between -1 and 1, and 1 at or above 1
    best = np.array([-1.5, -1.0, np.nextafter(-1.0, 0.0), 0.25, np.nextafter(1.0, 0.0), 1.0, 1.5])
    block_floors = retrieval._block_floor(best)
    assert block_floors.tolist() == [retrieval._block_floor(float(b)) for b in best]
    assert block_floors.tolist() == [-np.inf, -np.inf, *best[2:5].tolist(), 1.0, 1.0]


@pytest.fixture()
def small_blocks(monkeypatch):
    """Bound blocks for a modality of any size, so that small indexes take step 0."""
    monkeypatch.setattr(retrieval, "BOUND_MIN_ROWS", retrieval.BOUND_BLOCK_ROWS)


def test_a_modality_of_fewer_than_bound_min_rows_keeps_no_blocks():
    rows = [[1.0, j / retrieval.BOUND_MIN_ROWS] for j in range(retrieval.BOUND_MIN_ROWS)]
    for n, kept in ((len(rows) - 1, False), (len(rows), True)):
        index = build_index([(f"i{j:05d}", "image", row) for j, row in enumerate(rows[:n])])
        assert (index.sides["image"].blocks is not None) == kept


def exact_gamma(n, v):
    return n * v / (1 - n * v)


def exact_relative_error(d, gamma_d_u):
    """E of the module docstring over ||r|| * ||q||, in exact arithmetic, with gamma_d_u for gamma_d(u)."""
    u, eps = Fraction(1, 2**24), Fraction(1, 2**53)
    return (2 * u + u * u) + gamma_d_u * (1 + u) ** 2 + exact_gamma(d, eps)


@pytest.mark.parametrize("d", [1, 3, 64, 257, 4096, 2**20])
def test_margins_are_at_least_their_closed_forms(d):
    """m = 2E (step 2) and M (step 0), recomputed from the docstring in exact
    arithmetic: each float64 margin is at least its closed form with
    gamma_{d+1}(u), up to the float64 rounding of its few terms, and at least
    what the proofs need with gamma_d(u) plus the slack they leave for rounding."""
    u, eps, tiny = Fraction(1, 2**24), Fraction(1, 2**53), 4 * d * Fraction(1, 2**150)
    rounding = 1 - Fraction(1, 2**50)
    q_norms = np.array([1e-40, 1 - 2**-52, 1.0, 1 + 2**-52, 3.0])
    radii = np.array([0.0, 1e-3, 0.118, 1.5])
    for max_norm in (1 - 1e-9, 1.0, 1 + 1e-9):
        screen = retrieval._screen_margin(d, max_norm, q_norms)
        centre_norm = (1 + 2.0**-24) * max_norm
        block = retrieval._block_margin(d, retrieval._block_widths(d, max_norm, centre_norm, radii), q_norms[:, None])
        n, c = Fraction(max_norm), Fraction(centre_norm)
        for i, q in enumerate(map(Fraction, q_norms)):
            closed = 2 * (exact_relative_error(d, exact_gamma(d + 1, u)) * n * q + tiny)
            needed = 2 * (exact_relative_error(d, exact_gamma(d, u)) * n * q + tiny) + u * n * q
            assert Fraction(screen[i]) >= closed * rounding and Fraction(screen[i]) >= needed
            for j, rho in enumerate(map(Fraction, radii)):
                closed = q * (exact_relative_error(d, exact_gamma(d + 1, u)) * c + (1 + u) * rho
                              + exact_gamma(d, eps) * n) + tiny
                needed = (exact_relative_error(d, exact_gamma(d, u)) * c * q + tiny + rho * q
                          + exact_gamma(d, eps) * n * q + u * (c + rho) * q)
                assert Fraction(block[i, j]) >= closed * rounding and Fraction(block[i, j]) >= needed


@pytest.mark.parametrize("spread", [0.0, 1e-200, 1e-12, 1e-3, 0.3])
def test_block_radii_bound_every_float64_row(spread, small_blocks):
    """rho >= ||x - c|| in exact arithmetic, for the float64 rows of each block,
    with rows that repeat one direction, differ in their last bits or spread out,
    a remainder for the last block whose last row is opposite the others, and
    rows of the other modality between them."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=8)
    rows = base + spread * rng.normal(size=(53, 8))
    rows[::7] = base * 2.0  # exact repeats of one direction
    rows[-1] = -base  # the furthest row of the last block lies in its remainder
    items = [(f"i{j:03d}", "image", row) for j, row in enumerate(rows)] + [("i010x", "text", -base)]
    index = build_index(items)
    side = index.sides["image"]
    blocks = side.blocks
    assert blocks is not None and len(blocks.centres) == 3  # 16 + 16 + 21 rows
    for b, (centre, rho) in enumerate(zip(blocks.centres, blocks.radii)):
        members = side.rows[16 * b: 16 * b + 16] if b < 2 else side.rows[32:]
        c = [Fraction(float(v)) for v in centre]
        for row in members:
            assert index.modalities[row] == "image"
            assert Fraction(rho) ** 2 >= sum((Fraction(float(v)) - cj) ** 2 for v, cj in zip(index.vectors[row], c))


def test_a_block_radius_covers_the_float32_dots_that_round_furthest_up(small_blocks):
    """Rows so near the centre that float32 cannot resolve x.c: the rows whose
    stacked float32 dot with c rounds furthest above the float64 one make the
    computed spread smallest, and rho must still bound ||x - c||."""
    rng = np.random.default_rng(2)
    d = 257
    pool = rng.normal(size=d) + 1e-7 * rng.normal(size=(2**12 + 1, d))
    pool /= np.linalg.norm(pool, axis=1)[:, None]
    c = pool[-1].astype(np.float32)
    # each row's dot as the blocks compute it, one stacked GEMV over blocks of 16 rows
    up = (pool[:-1].astype(np.float32).reshape(-1, 16, d) @ np.tile(c, (2**8, 1))[:, :, None]).ravel() - pool[:-1] @ c
    rows = pool[np.argsort(up)[-15:]]
    # the rows as they are, with no normalization that could move their bits
    index = UnifiedIndex(ids=tuple(f"i{j:02d}" for j in range(16)), modalities=("image",) * 16,
                         vectors=np.array([*rows[:8], pool[-1], *rows[8:]]))
    blocks = index.sides["image"].blocks
    assert blocks is not None and (blocks.centres[0] == c).all()
    rho = Fraction(float(blocks.radii[0]))
    for x in index.vectors:
        assert rho**2 >= sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(x, c))


def separate_derived_state(vectors, modalities):
    """An index's derived state from one whole-array pass per quantity, as built
    before the chunked pass: max_norm, and each side's rows, float32 rows and
    blocks with centres, least x.c over each block (the remainder against the
    last centre), radii and widths."""
    size = retrieval.BOUND_BLOCK_ROWS
    norms = np.sqrt(vectors[:, None, :] @ vectors[:, :, None]).reshape(len(vectors))
    max_norm = float(norms.max(initial=0.0))
    sides = {}
    for modality in ("text", "image"):
        rows = np.flatnonzero([m == modality for m in modalities])
        x = vectors[rows].astype(np.float32)
        sides[modality] = retrieval.Side(rows, x, None)
        n, d = len(rows), vectors.shape[1]
        if n < max(retrieval.BOUND_MIN_ROWS, size):
            continue
        whole = n - n % size
        block_rows = x[:whole].reshape(-1, size, d)
        centres = block_rows[:, size // 2]
        lowest = (block_rows @ centres[:, :, None])[:, :, 0].T.copy().min(axis=0)
        if whole < n:
            lowest[-1] = min(lowest[-1], (x[whole:] @ centres[-1]).min())
        centre_norm = (1 + 2.0**-24) * max_norm
        spread = max_norm**2 - 2 * lowest.astype(np.float64) + centre_norm**2
        slack = (2 * retrieval._screen_relative_error(d) + retrieval._gamma(d + 8, 2.0**-53)) * (max_norm + centre_norm) ** 2
        radii = np.sqrt(np.maximum(spread, 0.0) + slack + 8 * d * 2.0**-150)
        if radii.min() < centre_norm:
            widths = retrieval._block_widths(d, max_norm, centre_norm, radii)
            sides[modality] = retrieval.Side(rows, x, retrieval.BoundBlocks(centres.copy(), radii, widths))
    return max_norm, sides


@pytest.mark.parametrize(
    "layout",
    [
        [("text", 5), ("image", 70)],  # the image side starts off a block and a chunk boundary, and straddles chunks
        [("image", 69), ("text", 3)],  # 64 whole rows fill two chunks; the last chunk takes the 5-row remainder
        [("image", 96)],  # whole chunks, no remainder
        [("text", 20)],  # fewer rows than one chunk
        [("image", 3)],  # fewer rows than one block
        [("text", 7), ("image", 1), ("text", 30), ("image", 40), ("text", 2)],  # interleaved modalities
        [],  # the empty index
    ],
    ids=["offset side", "remainder after whole chunks", "whole chunks", "under one chunk", "under one block",
         "interleaved", "empty"],
)
def test_the_chunked_pass_equals_separate_passes(layout, small_blocks, monkeypatch):
    """max_norm and every side's rows, float32 rows and BoundBlocks fields, bit
    for bit, with chunks of two blocks, rows that keep their blocks, and rows in
    their last bits off the unit norm."""
    monkeypatch.setattr(retrieval, "INDEX_CHUNK_ROWS", 2 * retrieval.BOUND_BLOCK_ROWS)
    rng = np.random.default_rng(len(layout))
    modalities = [m for m, count in layout for _ in range(count)]
    d = 8
    rows = rng.normal(size=d) + 0.05 * rng.normal(size=(len(modalities), d))
    vectors = rows / np.linalg.norm(rows, axis=1)[:, None]
    index = UnifiedIndex(tuple(f"e{j:03d}" for j in range(len(modalities))), tuple(modalities), vectors)
    max_norm, sides = separate_derived_state(vectors, modalities)
    assert index.max_norm.hex() == max_norm.hex()
    for modality in ("text", "image"):
        got, expected = index.sides[modality], sides[modality]
        assert got.rows.tolist() == expected.rows.tolist()
        assert got.vectors32.dtype == np.float32 and got.vectors32.shape == expected.vectors32.shape
        assert got.vectors32.tobytes() == expected.vectors32.tobytes() and not got.vectors32.flags.writeable
        assert (got.blocks is None) == (expected.blocks is None)
        if expected.blocks is not None:
            for field_, a, b in zip(expected.blocks._fields, got.blocks, expected.blocks):
                assert (field_, a.dtype, a.shape, a.tobytes()) == (field_, b.dtype, b.shape, b.tobytes())
        # a modality of at least one block's rows keeps its blocks, so its minima are compared
        assert (expected.blocks is not None) == (modalities.count(modality) >= retrieval.BOUND_BLOCK_ROWS)


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({40: 1e39}, NumericError, "entry 'e040': vector is not unit-norm"),  # overflows the float32 cast
        ({40: 1e200}, NumericError, "entry 'e040': vector is not unit-norm"),  # its norm overflows
        ({40: np.nan}, DataError, "entry 'e040': vector is not finite"),
        ({40: -np.inf}, DataError, "entry 'e040': vector is not finite"),
        ({24: 1e39, 56: 1e200}, NumericError, "entry 'e024': vector is not unit-norm"),
        ({24: np.nan, 56: np.inf}, DataError, "entry 'e024': vector is not finite"),
        ({24: 1e39, 56: np.nan}, DataError, "entry 'e056': vector is not finite"),  # the finiteness check comes first
    ],
    ids=["cast overflow", "norm overflow", "nan", "-inf", "two off the norm", "two non-finite", "off the norm, then nan"],
)
def test_refused_rows_raise_as_before_and_never_warn(bad, error, message, small_blocks, monkeypatch):
    """A row that the pass casts, takes the norm of and dots with a block centre
    before the checks refuse it: row 40 is the centre of the image side's second
    block and lies in its second chunk."""
    monkeypatch.setattr(retrieval, "INDEX_CHUNK_ROWS", retrieval.BOUND_BLOCK_ROWS)
    vectors = np.tile(np.array([0.6, 0.8, 0.0]), (70, 1))
    for row, value in bad.items():
        vectors[row] = value
    modalities = ("text",) * 16 + ("image",) * 54
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            UnifiedIndex(tuple(f"e{j:03d}" for j in range(70)), modalities, vectors)


def test_an_index_of_mismatched_lengths_is_refused():
    with pytest.raises(DimensionError, match="2 ids, 1 modalities and vectors of shape \\(2, 2\\)"):
        UnifiedIndex(ids=("a", "b"), modalities=("text",), vectors=np.eye(2))
    with pytest.raises(DimensionError, match="1 ids, 1 modalities and vectors of shape \\(2, 2\\)"):
        UnifiedIndex(ids=("a",), modalities=("text",), vectors=np.eye(2))


@pytest.mark.parametrize("spread, kept", [(58, True), (62, False)])
def test_blocks_are_kept_only_where_one_could_be_dropped(spread, kept, small_blocks):
    # the rows of each block lie within `spread` degrees of its middle row, so its radius
    # is 2 sin(spread / 2): below the centres' norm at 58 degrees, above it at 62
    angles = np.radians(np.concatenate([base + np.linspace(-spread, spread, 16) for base in (0, 180)]))
    angles[[8, 24]] = np.radians([0, 180])  # the middle rows
    index = build_index([(f"i{j:02d}", "image", [np.cos(a), np.sin(a)]) for j, a in enumerate(angles)])
    assert (index.sides["image"].blocks is not None) == kept


def test_a_screen_equal_to_its_floor_stays_in_the_band():
    # with no margin a query's band floor is its k-th screen itself; the k-th row must stay
    idx = build_index([(f"i{j}", "image", [np.cos(j / 4), np.sin(j / 4)]) for j in range(6)])
    with mock.patch.object(retrieval, "_screen_margin", lambda d, max_norm, q_norms: 0.0 * q_norms):
        got = query_topk(idx, np.array([1.0, 0.0]), 3, "image")
    assert [r.id for r in got] == ["i0", "i1", "i2"]


@pytest.fixture()
def kept(monkeypatch):
    """The side offsets of the blocks that each block of queries searched keeps, or None, in order."""
    kept = []
    monkeypatch.setattr(retrieval, "_kept_blocks", spy_kept_blocks(kept))
    return kept


def test_a_block_whose_upper_bound_equals_the_floor_is_kept(small_blocks, kept):
    # with no block margin the two blocks of e1 rows have lower = upper = L = 1 for the query
    # e1; they hold its top-k and must stay, while the three blocks of e2 rows are dropped
    rows = [[1.0, 0.0]] * 32 + [[0.0, 1.0]] * 48
    idx = build_index([(f"i{j:02d}", "image", row) for j, row in enumerate(rows)])
    with mock.patch.object(retrieval, "_block_margin", lambda d, widths, q_norms: 0.0 * q_norms * widths):
        got = query_topk(idx, np.array([1.0, 0.0]), 20, "image")
    assert kept[0].tolist() == list(range(32))
    assert [r.id for r in got] == [f"i{j:02d}" for j in range(20)]


def test_the_floor_is_the_need_th_best_lower_bound(small_blocks, kept):
    # blocks of equal rows at 0, 0.5, 2 and 2.5 radians: the top 20 for e1 take the first block
    # and 4 rows of the second, whose upper bound lies below the first block's lower bound
    angles = np.repeat([0.0, 0.5, 2.0, 2.5], 16)
    idx = build_index([(f"i{j:02d}", "image", [np.cos(a), np.sin(a)]) for j, a in enumerate(angles)])
    got = query_topk(idx, np.array([1.0, 0.0]), 20, "image")
    assert kept[0].tolist() == list(range(32))
    assert [(r.rank, r.id, r.score.hex()) for r in got] == full_sort_hex(idx, [1.0, 0.0], "image")[:20]


@pytest.mark.parametrize("k", [10, 40])
def test_blocks_of_many_queries_take_the_bound_unless_they_keep_most_blocks(k, small_blocks, kept):
    # 16 clusters of 64 rows in id order, 4 blocks each: queries from one or two clusters keep
    # a few blocks, while one query per cluster keeps them all and screens the span
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(16), 64)
    vectors = rng.normal(size=(16, 16))[labels] + 1e-3 * rng.normal(size=(len(labels), 16))
    index = build_index([(f"i{j:04d}", "image", v) for j, v in enumerate(vectors)])
    coherent = vectors[rng.choice(np.flatnonzero(labels == 3), 12)]
    scattered = vectors[[rng.choice(np.flatnonzero(labels == c)) for c in range(16)]]
    # 12 queries from cluster 3, then 8 from cluster 4: with 10 queries a score block,
    # the second block straddles the two clusters
    straddling = np.concatenate([coherent, vectors[rng.choice(np.flatnonzero(labels == 4), 8)]])
    for queries, block in ((coherent, len(coherent)), (scattered, len(scattered)), (straddling, 10)):
        kept.clear()
        with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * len(index) * block):
            got = topk_hex(index, queries, k, "image")
        for q, results in zip(queries, got):
            assert results == full_sort_hex(index, q, "image")[:k]
        if queries is scattered:
            assert kept == [None]
        else:
            assert len(kept) == len(queries) // block and all(0 < len(rows) < len(index) // 4 for rows in kept)


def test_ceil32_leaves_a_float32_value_as_it_is():
    values = np.array([0.5, -1.0, 1.0, 2.0**-149, -(2.0**-126), float(np.float32(0.1)), float(np.finfo(np.float32).max)])
    assert retrieval._ceil32(values).tobytes() == values.astype(np.float32).tobytes()
    above = np.nextafter(values[:-1], np.inf)  # just above each: the next float32 up
    assert (retrieval._ceil32(above) == np.nextafter(values[:-1].astype(np.float32), np.float32(np.inf))).all()
    # one float at a time, as the one-query kernel rounds its floor, gives the same float32s
    both = np.concatenate([values, above])
    singles = [retrieval._ceil32(float(v)) for v in both]
    assert all(type(c) is np.float32 for c in singles)
    assert np.array(singles).tobytes() == retrieval._ceil32(both).tobytes()


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(40, 400),
    clusters=st.integers(2, 6),
    interleaved=st.booleans(),
    few=st.integers(1, 15),
    k=st.integers(1, 40),
    n_queries=st.integers(2, 6),
    delta=st.sampled_from([1e-9, 1e-12, 1e-15]),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_each_row_of_a_batched_search_equals_the_one_query_kernel(
    small_blocks, seed, n, clusters, interleaved, few, k, n_queries, delta
):
    """The batched kernel's answer for each row of a block of queries, its answer for a
    block of that row alone, and the one-query kernel's (`query_topk`), bit for bit: on sides of rows in clusters by id and of no
    multiple of BOUND_BLOCK_ROWS, a side of `few` rows and no blocks where ids do not
    interleave, k above 16 (the floor is a lower need-th best bound) or above the
    candidates, and exact and near ties of the first query around it."""
    rng = np.random.default_rng(seed)
    dim, size = 8, retrieval.BOUND_BLOCK_ROWS
    labels = np.arange(n) * clusters // n
    vectors = rng.normal(size=(clusters, dim))[labels] + 1e-3 * rng.normal(size=(n, dim))
    modalities = rng.choice(["text", "image"], size=n) if interleaved else np.where(np.arange(n) < few, "text", "image")
    while any(count >= size and count % size == 0 for count in np.unique(modalities, return_counts=True)[1]):
        modalities[rng.integers(few if not interleaved else 0, n)] = rng.choice(["text", "image"])
    queries = vectors[rng.choice(np.flatnonzero(labels == rng.integers(clusters)), n_queries)]
    queries[-1] = vectors[-1]  # the last row of its side, in the remainder of the last block
    ties = rng.choice(n, min(n, k + 4), replace=False)
    vectors[ties] = queries[0] * rng.choice([2.0, 0.5, 1.0], (len(ties), 1))
    near = ties[rng.random(len(ties)) < 0.5]
    vectors[near, rng.integers(dim, size=len(near))] += delta * rng.choice([-1.0, 1.0], len(near))
    index = build_index([(f"e{j:04d}", modalities[j], vectors[j]) for j in range(n)])
    with mock.patch.object(retrieval, "_topk_one", wraps=retrieval._topk_one) as one, \
         mock.patch.object(retrieval, "_topk_block", wraps=retrieval._topk_block) as block:
        for modality in ("text", "image"):
            candidates = len(index.sides[modality].rows)
            # one block of every query, then each query as a block of one, then each query alone
            with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * max(1, candidates) * n_queries):
                batched = topk_hex(index, queries, k, modality)
                single = [topk_hex(index, q[None], k, modality)[0] for q in queries]
            alone = [[(r.rank, r.id, r.score.hex()) for r in query_topk(index, q, k, modality)] for q in queries]
            assert batched == single == alone
            assert all(len(run) == min(k, candidates) for run in alone)
            assert alone[0] == full_sort_hex(index, queries[0], modality)[:k]
    assert one.call_count == 2 * n_queries and block.call_count == 2 + 2 * n_queries


def test_the_one_query_kernel_gathers_a_kept_last_block_with_its_remainder(small_blocks, kept):
    # 4 clusters of 25 rows in id order: 6 blocks, the last (rows 80-99) holding 4 rows of
    # remainder; the last row keeps that block and is its own best match, while a row of
    # the third cluster keeps neither; `_topk_block` shares the gather, so blocks of three
    # queries of either cluster keep the same blocks and give each query's exact top-k
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(4), 25)
    vectors = rng.normal(size=(4, 8))[labels] + 1e-3 * rng.normal(size=(len(labels), 8))
    index = build_index([(f"i{j:03d}", "image", v) for j, v in enumerate(vectors)])
    assert len(index.sides["image"].blocks.centres) == 6
    for q, last_kept in ((vectors[-1], True), (vectors[50], False)):
        kept.clear()
        got = query_topk(index, q, 10, "image")
        assert [(r.rank, r.id, r.score.hex()) for r in got] == full_sort_hex(index, q, "image")[:10]
        assert kept[0] is not None and (set(range(80, 100)) <= set(kept[0].tolist())) == last_kept
        assert last_kept == (got[0].id == "i099") and (last_kept or kept[0].max() < 80)
    with mock.patch.object(retrieval, "_topk_block", wraps=retrieval._topk_block) as block:
        for queries, last_kept in ((vectors[[99, 96, 82]], True), (vectors[[50, 61, 74]], False)):
            kept.clear()
            assert topk_hex(index, queries, 10, "image") == [full_sort_hex(index, q, "image")[:10] for q in queries]
            assert kept[0] is not None and (set(range(80, 100)) <= set(kept[0].tolist())) == last_kept
            assert last_kept or kept[0].max() < 80
    assert block.call_count == 2


def test_batched_topk_on_a_modality_with_no_entries():
    idx = build_index([(f"i{k}", "image", v) for k, v in enumerate(np.eye(3))])
    assert topk_hex(idx, np.ones((2, 3)), 10, "text") == [[], []]


@pytest.mark.parametrize(
    "layout",
    ["", "t", "i", "tttiii", "iiittt", "titititi", "ttitiiit", "iiii", "ttti", "itttttti"],
    ids=["empty index", "one text", "one image", "text then image", "image then text",
         "alternating", "interleaved", "no text", "one image last", "image at both ends"],
)
def test_index_sides_equal_a_row_by_row_scan(layout):
    modalities = ["text" if c == "t" else "image" for c in layout]
    idx = build_index([(f"e{k:02d}", m, [1.0, float(k)]) for k, m in enumerate(modalities)])
    for modality in ("text", "image"):
        side = idx.sides[modality]
        assert side.rows.dtype == np.intp
        assert side.rows.tolist() == [i for i, m in enumerate(modalities) if m == modality]
        assert side.vectors32.tobytes() == idx.vectors[side.rows].astype(np.float32).tobytes()
        assert side.vectors32.shape == (len(side.rows), 0 if not layout else 2)


def test_an_interleaved_index_with_blocks_is_exact_on_both_sides(small_blocks, kept):
    # 8 clusters of 160 entries in id order, each entry's modality drawn at random: each
    # side's rows still run cluster by cluster, so both keep blocks and drop some of them
    rng = np.random.default_rng(11)
    labels = np.repeat(np.arange(8), 160)
    vectors = rng.normal(size=(8, 16))[labels] + 1e-3 * rng.normal(size=(len(labels), 16))
    modalities = rng.choice(["text", "image"], size=len(labels))
    index = build_index([(f"e{j:04d}", m, v) for j, (m, v) in enumerate(zip(modalities, vectors))])
    queries = vectors[rng.choice(np.flatnonzero(labels == 5), 4)]
    for modality in ("text", "image"):
        assert index.sides[modality].blocks is not None
        kept.clear()
        got = topk_hex(index, queries, 10, modality)
        assert kept and all(rows is not None for rows in kept)
        for q, results in zip(queries, got):
            assert results == full_sort_hex(index, q, modality)[:10]
            assert [(r.rank, r.id, r.score.hex()) for r in query_topk(index, q, 10, modality)] == results


def test_non_finite_query_is_a_numeric_error():
    idx = build_index(make_items(6, 3, seed=4))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="non-finite"):
            query_topk(idx, np.array([1.0, bad, 0.0]), 3, "text")
    queries = np.ones((3, 3))
    queries[2, 1] = np.nan
    with pytest.raises(NumericError, match="row 2"):
        retrieval._topk_arrays(idx, queries, 3, "image")


def test_build_index_rejects_non_finite_vectors_by_id():
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="'b'"):
            build_index([("a", "text", np.ones(2)), ("b", "image", np.array([bad, 1.0]))])
    with pytest.raises(DataError, match="'b'"):
        UnifiedIndex(ids=("a", "b"), modalities=("text", "image"),
                     vectors=np.array([[1.0, 0.0], [np.nan, 0.0]]))


@pytest.mark.parametrize(
    "ids, modalities, row, error, message",
    [
        (("b", "a"), ("text", "image"), [0.0, 1.0], DataError, "'a': not in canonical"),
        (("a", "a"), ("text", "image"), [0.0, 1.0], DataError, "'a': duplicate id"),
        (("a", "b"), ("text", "audio"), [0.0, 1.0], DataError, "'b': unknown modality 'audio'"),
        (("a", "b"), ("text", "image\0"), [0.0, 1.0], DataError, "'b': unknown modality 'image\\\\x00'"),
        (("a", "b"), ("text", "image"), [0.0, 2.0], NumericError, "'b': vector is not unit-norm"),
    ],
    ids=["unsorted ids", "duplicate ids", "unknown modality", "modality with a trailing NUL", "norm 2 row"],
)
def test_unified_index_refuses_what_its_docstring_rules_out(ids, modalities, row, error, message):
    with pytest.raises(error, match=message):
        UnifiedIndex(ids=ids, modalities=modalities, vectors=np.array([[1.0, 0.0], row]))


@pytest.mark.parametrize("seed", range(4))
def test_batched_topk_resolves_rounding_near_ties_exactly(seed):
    # permutations of one vector score the same in exact arithmetic against
    # the all-ones query; the screen and the per-row reference round them
    # differently, so only a wide enough band returns the reference's order
    rng = np.random.default_rng(seed)
    x = rng.normal(size=64)
    idx = build_index([(f"p{j:03d}", "image", rng.permutation(x)) for j in range(300)])
    q = np.ones(64)
    expected = full_sort_hex(idx, q, "image")
    for k in (1, 3, 10):
        for got in topk_hex(idx, np.tile(q, (3, 1)), k, "image"):
            assert got == expected[:k]
