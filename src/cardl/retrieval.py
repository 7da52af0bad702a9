"""Exact cosine-similarity search over an immutable index of unified vectors.

No approximate structures: every query is scored against all entries of
the requested modality, and the top-k come back in descending score with
ties broken by ascending id.  Results equal a brute-force reference (one
float64 `np.dot` per candidate, clipped to [-1, 1], then a full sort) in
ids, tie order and score bits.

One kernel, `query_topk_batch`, answers a block of queries in three steps,
the "score cheaply, then re-rank exactly" of ScaNN (Guo et al., ICML 2020)
made exact by a rounding bound:

1. Screen: one float32 BLAS product scores the modality's row span for the
   whole block against `UnifiedIndex.vectors32`, the float32 copy of the
   index; the clip to [-1, 1], the -inf for rows of the other modality
   inside the span and the partition all stay in float32.
2. Band: the k-th largest screened score t is found with a partition, and
   every candidate whose screened score, compared in float64, is at least
   t - m is kept.  With u = 2^-24 (float32) and gamma_n(v) = n*v / (1 -
   n*v) (Higham, Accuracy and Stability of Numerical Algorithms, section
   3.1), the screen of a row r against a query q differs from the
   reference's float64 r.q by at most
       E = [(2u + u^2) + gamma_d(u) * (1 + u)^2 + gamma_d(2^-53)] * ||r|| * ||q||
           + 4 * d * 2^-150:
   rounding q and r to float32 changes each product by a factor within
   (1 +- u)^2; the float32 dot adds gamma_d(u) of sum |r^_j * q^_j|, which
   the rounded norms bound by (1 + u)^2 * ||r|| * ||q||; the reference's own
   dot is within gamma_d(2^-53) of the exact value; and below about
   1.2e-38 (float32's smallest normal) entries and products round with an
   absolute error of up to 2^-150 each, three per coordinate, which
   4 * d * 2^-150 bounds with the entries of unit vectors at most 1 (it
   also covers float64 underflow in the reference).  Clipping never widens
   a gap.  k rows screen at least t, so the k-th reference score is at
   least t - E and every row scoring it or more screens at least t - 2E:
   with m = 2E, no true top-k row, exact ties at the k-th score included,
   falls outside the band.  gamma_{d+1}(u) in place of gamma_d(u) leaves
   u * ||r|| * ||q|| of slack for the float64 rounding of m and of t - m.
   The comparison is made in float64 on purpose: numpy 1.x would cast a
   float64 floor to a float32 array's dtype and could round it up.
3. Re-score: the band alone is scored again in float64 with one stacked
   dot per row (`vectors[rows][:, None, :] @ q[:, None]`, which has the
   bits of the reference's `np.dot(row, q)`), clipped, and ordered by a
   stable argsort of -score: band rows ascend by id, so ties keep id order.
   The first k are the result.

`query_topk` is the single-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import AlignmentModel, _dot_norms, l2_normalize, project
from .errors import DataError, DimensionError, NumericError, UsageError
from .records import IMAGE, MODALITIES, TEXT, FeatureRecord

TXT2IMG = "txt2img"
IMG2TXT = "img2txt"
DIRECTIONS = (TXT2IMG, IMG2TXT)

# direction -> (query modality, result modality)
DIRECTION_SIDES = {TXT2IMG: (TEXT, IMAGE), IMG2TXT: (IMAGE, TEXT)}

# Cap on one block's screened score matrix (queries x span rows, counted at
# 8 bytes a score), so that memory does not grow with the number of queries
# searched at once.
SCORE_BLOCK_BYTES = 2 << 20

_F32_ROUNDOFF = 2.0**-24
_F64_ROUNDOFF = 2.0**-53
_F32_UNDERFLOW = 2.0**-150  # absolute rounding error of a float32 result below its smallest normal


def cosine_sim(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine similarity sum(x_i*y_i) / sqrt((x.x)*(y.y)), clamped to [-1, 1].

    The denominator is one sqrt of the norm-squared product, so rational
    cases like ([1,2], [2,1]) -> 0.8 and self-similarity -> 1.0 come out
    exact instead of off by a final-bit rounding of ||x||*||y||.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"vector dims differ: {x.shape} vs {y.shape}")
    xx = float(np.sum(x * x))
    yy = float(np.sum(y * y))
    if xx == 0.0 or yy == 0.0:
        raise NumericError("cosine similarity undefined for the zero vector")
    return float(np.clip(np.sum(x * y) / np.sqrt(xx * yy), -1.0, 1.0))


@dataclass(frozen=True)
class RetrievalResult:
    id: str
    score: float
    rank: int


@dataclass(frozen=True)
class UnifiedIndex:
    """Unit-norm vectors in canonical (ascending id) order; immutable.

    Construction refuses, naming the id, unsorted or duplicate ids, unknown
    modalities and rows holding NaN or +-inf (DataError), and rows whose norm
    is off 1 by more than 1e-9, a finite row whose norm overflows included
    (NumericError), however the index was made.

    `vectors32` is a read-only float32 copy of `vectors` derived at
    construction for the search screen: it costs 4 bytes per coordinate in
    memory and is never serialized."""

    ids: tuple[str, ...]
    modalities: tuple[str, ...]
    vectors: np.ndarray  # shape (len(ids), dimension), rows unit-norm
    # modality -> (lo, hi, offsets in [0, hi - lo) of the other modality's
    # rows): the row span a search of that modality screens
    spans: dict[str, tuple[int, int, np.ndarray]] = field(init=False, repr=False, compare=False)
    max_norm: float = field(init=False, repr=False, compare=False)
    vectors32: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = np.array(self.ids, dtype=object)
        unsorted = np.flatnonzero(ids[:-1] >= ids[1:])
        if unsorted.size:
            prev, id_ = self.ids[unsorted[0]], self.ids[unsorted[0] + 1]
            problem = "duplicate id" if prev == id_ else "not in canonical (ascending id) order"
            raise DataError(f"entry {id_!r}: {problem}")
        modalities = np.array(self.modalities, dtype=object)  # a str dtype would drop trailing NULs
        masks = {modality: modalities == modality for modality in MODALITIES}
        unknown = np.flatnonzero(~np.any(list(masks.values()), axis=0))
        if unknown.size:
            raise DataError(f"entry {self.ids[unknown[0]]!r}: unknown modality {self.modalities[unknown[0]]!r}")
        self.vectors.setflags(write=False)
        with np.errstate(over="ignore"):  # a finite row whose norm overflows is only off the unit norm
            norms = _dot_norms(self.vectors)
        suspect = np.flatnonzero(~np.isfinite(norms))
        nonfinite = suspect[~np.isfinite(self.vectors[suspect]).all(axis=1)]
        if nonfinite.size:
            raise DataError(f"entry {self.ids[int(nonfinite[0])]!r}: vector is not finite")
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
        if off.size:
            raise NumericError(f"entry {self.ids[int(off[0])]!r}: vector is not unit-norm")
        spans = {}
        for modality, mask in masks.items():
            rows = np.flatnonzero(mask)
            lo, hi = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
            spans[modality] = (lo, hi, np.flatnonzero(~mask[lo:hi]))
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "max_norm", float(norms.max(initial=0.0)))
        vectors32 = self.vectors.astype(np.float32)
        vectors32.setflags(write=False)
        object.__setattr__(self, "vectors32", vectors32)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int | None:
        return None if len(self.ids) == 0 else self.vectors.shape[1]


def build_index(items) -> UnifiedIndex:
    """Sort by id, normalize, and freeze a list of (id, modality, vector).

    Input order never matters: the same item set always produces the same
    index, so serialization is deterministic.
    """
    triples = sorted(
        ((i.id, i.modality, i.vector) if isinstance(i, FeatureRecord) else tuple(i) for i in items),
        key=lambda t: t[0],
    )
    if not triples:
        return UnifiedIndex(ids=(), modalities=(), vectors=np.zeros((0, 0)))
    ids, modalities, rows = zip(*triples)
    try:
        vectors = np.array(rows, dtype=np.float64)  # a fresh copy, normalized in place
    except ValueError:  # a ragged stack is named by entry; any other refusal stands as it is
        _refuse_other_shapes(ids, rows)
        raise
    if vectors.shape != (len(rows), np.size(rows[0])):
        _refuse_other_shapes(ids, rows)
    # a non-finite entry yields a non-finite row, which UnifiedIndex refuses by id
    with np.errstate(over="ignore", invalid="ignore"):
        l2_normalize(vectors, ids, out=vectors)
    return UnifiedIndex(ids=ids, modalities=modalities, vectors=vectors)


def _refuse_other_shapes(ids: tuple[str, ...], rows: tuple) -> None:
    """A DimensionError naming the first entry whose vector is not 1-D of the first one's size."""
    dim = np.size(rows[0])
    wrong = next((row for row, vec in enumerate(rows) if np.shape(vec) != (dim,)), None)
    if wrong is not None:
        raise DimensionError(f"entry {ids[wrong]!r}: vector shape {np.shape(rows[wrong])}, index dim {dim}")


def query_topk(
    index: UnifiedIndex, q: np.ndarray, k: int, filter_modality: str
) -> list[RetrievalResult]:
    """Exact top-k among entries of one modality, ties broken by ascending id."""
    return query_topk_batch(index, np.asarray(q, dtype=np.float64)[None], k, filter_modality)[0]


def query_topk_batch(
    index: UnifiedIndex, queries: np.ndarray, k: int, filter_modality: str
) -> list[list[RetrievalResult]]:
    """`query_topk` for every row of `queries`, screened in blocks of rows;
    each row's results equal its single-row search."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if filter_modality not in MODALITIES:
        raise UsageError(f"unknown modality filter {filter_modality!r}")
    queries = np.asarray(queries, dtype=np.float64)
    if len(index) == 0:
        return [[] for _ in queries]
    if queries.ndim != 2 or queries.shape[1] != index.dimension:
        raise DimensionError(
            f"query dim {queries.shape[1:]} does not match index dim ({index.dimension},)"
        )
    finite = np.isfinite(queries).all(axis=1)
    if not finite.all():
        raise NumericError(f"query row {int(np.flatnonzero(~finite)[0])} has non-finite values")
    unit = l2_normalize(queries)
    lo, hi, _ = index.spans[filter_modality]
    block = max(1, SCORE_BLOCK_BYTES // (8 * max(1, hi - lo)))
    results = []
    for start in range(0, len(unit), block):
        results += _topk_block(index, unit[start:start + block], k, filter_modality)
    return results


def _gamma(n: int, u: float) -> float:
    """Bound on the relative rounding error of an n-term dot product with unit roundoff u."""
    return n * u / (1 - n * u)


def _screen_margin(d: int, max_norm: float, q_norms: np.ndarray) -> np.ndarray:
    """m = 2E of the module docstring, per query."""
    u = _F32_ROUNDOFF
    relative = (2 * u + u * u) + _gamma(d + 1, u) * (1 + u) ** 2 + _gamma(d, _F64_ROUNDOFF)
    return 2 * (relative * max_norm * q_norms + 4 * d * _F32_UNDERFLOW)


def _topk_block(
    index: UnifiedIndex, unit: np.ndarray, k: int, filter_modality: str
) -> list[list[RetrievalResult]]:
    """Screen, band and re-score one block of finite unit queries (module docstring)."""
    lo, hi, others = index.spans[filter_modality]
    candidates = hi - lo - len(others)
    if candidates == 0:
        return [[] for _ in unit]
    screened = unit.astype(np.float32) @ index.vectors32[lo:hi].T  # a view of the span: no copy
    np.clip(screened, -1.0, 1.0, out=screened)
    screened[:, others] = -np.inf
    kk = min(k, candidates)
    kth = np.partition(screened, -kk, axis=1)[:, -kk]
    floors = kth.astype(np.float64) - _screen_margin(index.dimension, index.max_norm, _dot_norms(unit))
    results = []
    for q, row_scores, floor in zip(unit, screened, floors):
        rows = lo + np.flatnonzero(row_scores.astype(np.float64) >= floor)
        # the reference's np.dot per row, as one stacked product, then its clip
        scores = np.clip((index.vectors[rows][:, None, :] @ q[:, None])[:, 0, 0], -1.0, 1.0)
        order = np.argsort(-scores, kind="stable")[:k]
        results.append(
            [RetrievalResult(id=index.ids[rows[j]], score=float(scores[j]), rank=rank)
             for rank, j in enumerate(order, start=1)]
        )
    return results


def cross_media_search(
    model: AlignmentModel,
    index: UnifiedIndex,
    query: FeatureRecord,
    k: int,
    direction: str,
) -> list[RetrievalResult]:
    """Project a raw query through the matching head and search the other modality."""
    unified = _project_queries(model, [query], direction)[0]
    return query_topk(index, unified, k, filter_modality=DIRECTION_SIDES[direction][1])


def _project_queries(model: AlignmentModel, queries: list[FeatureRecord], direction: str) -> np.ndarray:
    """The unified vectors of raw queries for a direction, one row per query, in order."""
    if direction not in DIRECTIONS:
        raise UsageError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    source = DIRECTION_SIDES[direction][0]
    wrong = next((q for q in queries if q.modality != source), None)
    if wrong is not None:
        raise UsageError(
            f"direction {direction} takes a {source} query, got modality "
            f"{wrong.modality!r} (id {wrong.id!r})"
        )
    if len({q.dim for q in queries}) > 1:  # one dim that is wrong is named by mlp_forward
        raise DimensionError(f"{source} queries mix dims {sorted({q.dim for q in queries})}")
    return project(model.head_for(source), np.array([q.vector for q in queries]), ids=[q.id for q in queries])
