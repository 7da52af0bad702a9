from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    query_topk_batch,
)


def brute_force_ranking(index, q, filter_modality):
    """Independent oracle: full sort of all candidate scores, id ascending on ties."""
    qn = np.asarray(q, dtype=np.float64)
    qn = qn / np.linalg.norm(qn)
    scored = []
    for i, (id_, mod) in enumerate(zip(index.ids, index.modalities)):
        if mod != filter_modality:
            continue
        s = float(np.clip(index.vectors[i] @ qn, -1.0, 1.0))
        scored.append((id_, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


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
    oracle = brute_force_ranking(idx, np.array([1.0, 0.0]), "image")
    assert [(r.id, r.score) for r in res] == oracle[:3]


@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_query_topk_equals_full_sort_prefix(seed, n, k):
    items = make_items(n, 6, seed=seed)
    idx = build_index(items)
    rng = np.random.default_rng(seed + 1)
    q = rng.normal(size=6)
    for modality in ("text", "image"):
        res = query_topk(idx, q, k, modality)
        oracle = brute_force_ranking(idx, q, modality)
        assert [(r.id, r.score) for r in res] == oracle[:k]
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
    idx = build_index(make_items(4, 3, seed=1))
    with pytest.raises(UsageError):
        query_topk(idx, np.ones(3), 0, "text")
    with pytest.raises(UsageError):
        query_topk(idx, np.ones(3), 3, "video")
    with pytest.raises(DimensionError):
        query_topk(idx, np.ones(5), 3, "text")
    with pytest.raises(NumericError):
        query_topk(idx, np.zeros(3), 3, "text")


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


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2000, 2400),
    dim=st.sampled_from([1, 2, 3, 8, 64, 257]),
    interleaved=st.booleans(),
    k=st.integers(1, 30),
    block_rows=st.integers(1, 4),
    n_queries=st.integers(1, 7),
    hostile=st.sampled_from(["none", "near ties", "underflow", "rounding"]),
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
    if interleaved:
        modalities = rng.choice(["text", "image"], size=n)
    else:  # one contiguous run per modality, and a text side of only 3 entries
        modalities = ["text" if i < 3 else "image" for i in range(n)]
    index = build_index([(f"e{i:05d}", modalities[i], vectors[i]) for i in range(n)])
    for modality in ("text", "image"):
        lo, hi, _ = index.spans[modality]
        # shrink the score block so query blocks straddle the block boundary
        with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 8 * max(1, hi - lo) * block_rows):
            batched = query_topk_batch(index, queries, k, modality)
        assert len(batched) == n_queries
        for q, got in zip(queries, batched):
            expected = full_sort_hex(index, q, modality)[:k]
            assert [(r.rank, r.id, r.score.hex()) for r in got] == expected
            single = query_topk(index, q, k, modality)
            assert [(r.rank, r.id, r.score.hex()) for r in single] == expected


def test_batched_topk_on_a_modality_with_no_entries():
    idx = build_index([(f"i{k}", "image", v) for k, v in enumerate(np.eye(3))])
    assert query_topk_batch(idx, np.ones((2, 3)), 10, "text") == [[], []]


def test_index_spans_cover_each_modality():
    idx = build_index([("a", "text", [1.0, 0.0]), ("b", "image", [0.0, 1.0]), ("c", "text", [1.0, 1.0])])
    lo, hi, others = idx.spans["text"]
    assert (lo, hi, others.tolist()) == (0, 3, [1])
    lo, hi, others = idx.spans["image"]
    assert (lo, hi, others.tolist()) == (1, 2, [])


def reference_span(modalities, modality):
    """A modality's (lo, hi, other-modality offsets), found row by row."""
    rows = [i for i, m in enumerate(modalities) if m == modality]
    lo, hi = (rows[0], rows[-1] + 1) if rows else (0, 0)
    return lo, hi, [i - lo for i in range(lo, hi) if modalities[i] != modality]


@pytest.mark.parametrize(
    "layout",
    ["", "t", "i", "tttiii", "iiittt", "titititi", "ttitiiit", "iiii", "ttti", "itttttti"],
    ids=["empty index", "one text", "one image", "text then image", "image then text",
         "alternating", "interleaved", "no text", "one image last", "image at both ends"],
)
def test_index_spans_equal_a_row_by_row_scan(layout):
    modalities = ["text" if c == "t" else "image" for c in layout]
    idx = build_index([(f"e{k:02d}", m, [1.0, float(k)]) for k, m in enumerate(modalities)])
    for modality in ("text", "image"):
        lo, hi, others = idx.spans[modality]
        assert others.dtype == np.intp
        assert (lo, hi, others.tolist()) == reference_span(modalities, modality)


def test_non_finite_query_is_a_numeric_error():
    idx = build_index(make_items(6, 3, seed=4))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="non-finite"):
            query_topk(idx, np.array([1.0, bad, 0.0]), 3, "text")
    queries = np.ones((3, 3))
    queries[2, 1] = np.nan
    with pytest.raises(NumericError, match="row 2"):
        query_topk_batch(idx, queries, 3, "image")


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
        for got in query_topk_batch(idx, np.tile(q, (3, 1)), k, "image"):
            assert [(r.rank, r.id, r.score.hex()) for r in got] == expected[:k]
