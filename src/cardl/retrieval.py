"""Exact cosine-similarity search over an immutable index of unified vectors.

No approximate structures: every query is scored against all entries of
the requested modality, and the top-k come back in descending score with
ties broken by ascending id.  Results equal a brute-force reference (one
float64 `np.dot` per candidate, clipped to [-1, 1], then a full sort) in
ids, tie order and score bits.

A search reads one side of the index, `UnifiedIndex.sides[modality]`: the
modality's rows in id order, their float32 copy and their blocks.
`_topk_arrays` answers queries in blocks of rows, each in four steps: the
"score cheaply, then re-rank exactly" of ScaNN (Guo et al., ICML 2020)
made exact by a rounding bound, after a ball bound drops rows that cannot
reach the top-k.  Steps 0-3 are written for `_topk_block`, the kernel of a
block of two or more queries; a block of one takes `_topk_one` (step 4):

0. Blocks: `UnifiedIndex` cuts each side's rows, in id order, into
   blocks of BOUND_BLOCK_ROWS, the last also holding the remainder.  A
   block's centre c is its row at offset BOUND_BLOCK_ROWS // 2 as stored
   in the side's float32 copy, so ||c|| <= C = (1 + u) * N, with u as in
   step 2 and N the largest row norm.
   Its radius rho bounds ||x - c|| for each of its float64 rows x:
   ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 is at most
   N^2 - 2 * min fl32(x.c) + C^2 plus what rounding can hide, which is
   2e * (N + C)^2 for the float32 dots (e is E of step 2 over ||r|| * ||q||,
   with c for q), 8 * d * 2^-150 for their underflow, and
   gamma_{d+8}(2^-53) * (N + C)^2 for the float64 arithmetic, the computed
   norms and the square root (helped by e's gamma_d(2^-53), which is for a
   reference dot these dots do not have).  By Cauchy-Schwarz x.q lies
   within rho * ||q|| of c.q: the ball bound of Ram & Gray, "Maximum
   Inner-Product Search using Cone Trees", KDD 2012.  One float32 product
   screens the centres for the whole block of queries, giving s, and with
       M = ||q|| * [e * C + (1 + u) * rho + gamma_d(2^-53) * N] + 4 * d * 2^-150
   (E of step 2 with ||c|| in place of ||r||, plus ||q|| * rho and the
   reference dot's gamma_d(2^-53) * ||x|| * ||q||) the reference score of
   every row of the block lies in [lo, hi] = clip([s - M, s + M], -1, 1).
   The E part holds more than the screen of an exact float32 c needs, and
   with the (1 + u) that leaves u * (||c|| + rho) * ||q|| >= u * ||x|| * ||q||
   of slack for the float64 rounding of M and of s +- M.  Every block holds
   at least BOUND_BLOCK_ROWS rows, so the need = ceil(kk / BOUND_BLOCK_ROWS)
   best blocks by lo hold at least kk rows, each scoring at least the
   need-th largest lo, L: a query's k-th reference score is at least L.  A
   block whose hi is below L for every query of the block holds only rows
   that score below each query's k-th score, none in a top-k or tied with
   its k-th, so it is dropped.  The code (`_kept_blocks`, `_block_floor`)
   keeps a block where s + M >= min(l, 1), l being the need-th largest
   s - M, and keeps every block where l <= -1: the same test, with no clip
   of the (queries, blocks) bounds.  Steps 1-3 then run on the float32
   rows of the kept blocks and their index rows, gathered in id order by
   `_kept_rows`, the one gather of both kernels; they hold every row
   scoring at least the k-th score, and at least kk rows, which is all
   that the argument of step 2 needs.
   A drop needs hi_b < lo_b' for some blocks b and b', so rho_b + rho_b' <
   ||c_b|| + ||c_b'|| <= 2C.  Where every radius is at least C (rows with no
   cluster structure in id order) no block could ever be dropped, and the
   side's `blocks` is None, as it is for a side of fewer than
   BOUND_MIN_ROWS rows, whose whole screen costs about what the bound's
   bookkeeping does.  Steps 1-3 screen the whole side then, and also where
   a block of queries keeps more than 3/4 of the blocks, since gathering
   that many rows costs more than screening the side.  The gain needs the
   rows, and the queries, of a block to lie near one another, as in the
   benchmark's synthetic corpora, whose ids run cluster by cluster: with
   k = 10 one query keeps 4.8% of the `query_stream` rows and 10.2% of the
   `eval_batch` ones, about half of them in the blocks that span a cluster
   boundary, which every query keeps (30 of its 60-61 kept blocks and 17 of
   its 31-32), and 25 `evaluate_retrieval` queries, which run in id
   order, 24-43%, against a median of 76% for 25 random queries and 95%
   for 52.  The centres cost a screen of 1/BOUND_BLOCK_ROWS of the rows'
   bytes and bookkeeping on one score per query and block; an index
   without blocks (the trained `cli_pipeline` one, random unit rows) pays
   nothing.
1. Screen: one float32 BLAS product scores the rows for the whole block
   against the side's float32 copy, or the kept rows of it.  The screen
   itself is not clipped.
2. Band: a partition finds each query's k-th largest screened score, and
   only that score is clipped to [-1, 1], giving t; clipping is monotone,
   so it is the k-th of the clipped screen.  Every candidate whose screened
   score is at least t - m is kept.  With u = 2^-24 (float32) and
   gamma_n(v) = n*v / (1 - n*v) (Higham, Accuracy and Stability of
   Numerical Algorithms, section 3.1), the screen of a row r against a
   query q differs from the reference's float64 r.q by at most
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
   least t - E and every row scoring it or more screens at least t - 2E
   once clipped: with m = 2E, no true top-k row, exact ties at the k-th
   score included, falls outside the band.  gamma_{d+1}(u) in place of
   gamma_d(u) leaves u * ||r|| * ||q|| of slack for the float64 rounding of
   m and of t - m.  The float64 floor t - m is rounded up to the least
   float32 at or above it (`_ceil32`): a float32 score s is >= a value
   exactly when it is >= that ceiling, so the float32 screen is compared
   with it directly, with no float64 copy of the screen, and the result is
   the same under NEP 50 and legacy casting.  A floor at or below -1
   admits every candidate, since every clipped screen is at least -1; and
   where the floor is above -1, a screen is at least the floor exactly
   when its clipped value is.
3. Re-score and order: one `np.flatnonzero` over the block's band mask,
   split by `divmod` into (query, column) pairs, finds every band row of
   the block, query by query and by ascending id within a query; the index
   rows that `_kept_rows` gives with the screened rows map each column to
   its index row.  They are scored again in float64 by
   `alignment._row_dots`, one dot per band row with the bits of the
   reference's `np.dot(row, q)`, and clipped.  One stable
   `np.lexsort` by query, then -score, orders the whole block, so ties keep
   id order.  A band holds at least kk = min(k, candidates) rows, so one
   fancy index, `order[starts[:, None] + arange(kk)]` with `searchsorted`
   run starts, gives the results as (queries, kk) arrays of rows and scores.
4. One query: the size of a block alone selects its kernel.  A block of one
   query (a batch's last block when one query is left for it) takes
   `_topk_one`, and so does every `query_topk` and `cross_media_search`
   call, directly; a block of more keeps `_topk_block`, whose one matrix
   product per screen serves the whole block faster than a `_topk_one`
   call per row.  `_topk_one` shares every bound and rule of steps 0-3
   with `_topk_block` through the same helpers: m (`_screen_margin`), M
   (`_block_widths`, `_block_margin`), the float32 ceiling and the floor
   at or below -1 (`_ceil32`, `_floor32`), the keep rule and the 3/4 rule
   (`_kept_blocks`, `_block_floor`), and the gather (`_kept_rows`).  It
   differs only in form.  Its norm, L, k-th screened score and band floor
   are Python floats, and its centre screen and row screen are 1-D float32
   products.  Its band is one boolean index of the gathered index rows,
   `rows[screened >= floor]`.  Those rows ascend by id, so one stable
   argsort by -score orders them with ties in id order: it needs no
   divmod, query key or searchsorted.

A single query stays one 1-D vector from its raw feature to its
`RetrievalResult`s.  `cross_media_search` checks its side with the rule of
`cardl query` (`_check_query_side`) and projects it through one GEMV per
layer and `alignment._unit_vector`, whose norm is one float; `query_topk`
runs the checks of `_topk_arrays` (`_checked_search`, one definition for
both), normalizes it again with `_unit_vector` and calls `_topk_one`.
Both normalizations stay: dividing `project`'s unit output by its own norm
changes bits on about a third of the rows, and the brute-force reference
renormalizes too.  `evaluate_retrieval` takes the arrays of `_topk_arrays`
for a batch and scores AP from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .alignment import AlignmentModel, _dot_norms, _row_dots, _unit_vector, l2_normalize, project
from .errors import DataError, DimensionError, NumericError, UsageError
from .records import IMAGE, MODALITIES, TEXT, FeatureRecord, check_fits

TXT2IMG = "txt2img"
IMG2TXT = "img2txt"
DIRECTIONS = (TXT2IMG, IMG2TXT)

# direction -> (query modality, result modality)
DIRECTION_SIDES = {TXT2IMG: (TEXT, IMAGE), IMG2TXT: (IMAGE, TEXT)}

# Cap on one block's screened score matrix (queries x side rows, counted at
# 8 bytes a score), so that memory does not grow with the number of queries
# searched at once.
SCORE_BLOCK_BYTES = 2 << 20

# Rows of one modality, in id order, that share a centre and radius, and the fewest rows a
# modality needs for blocks, below which one query's screen costs no more than their bookkeeping.
BOUND_BLOCK_ROWS = 16
BOUND_MIN_ROWS = 4096

# Rows per chunk, a multiple of BOUND_BLOCK_ROWS, of the pass that derives an
# index's norms, float32 copy and block minima: at d = 64, 512 KiB of float64
# rows and their float32 copy, which the cache holds until the blocks' dots.
INDEX_CHUNK_ROWS = 1024

_F32_ROUNDOFF = 2.0**-24
_F64_ROUNDOFF = 2.0**-53
_F32_UNDERFLOW = 2.0**-150  # absolute rounding error of a float32 result below its smallest normal
_F32_LOWEST = np.finfo(np.float32).min


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


@dataclass(frozen=True, slots=True)
class RetrievalResult:
    id: str
    score: float
    rank: int


class BoundBlocks(NamedTuple):
    """A side's rows cut into blocks of BOUND_BLOCK_ROWS (the last also holds
    the remainder), with each block's centre and radius (module docstring, step 0)."""

    centres: np.ndarray  # c, (blocks, dimension) float32 in F order, so that the screen's centres.T is C-contiguous
    radii: np.ndarray  # rho >= ||x - c|| for every row x of the block
    widths: np.ndarray  # W: the block's margin M is ||q|| * W + 4 * d * 2^-150


class Side(NamedTuple):
    """The rows of one modality, all that a search of it reads."""

    rows: np.ndarray  # the modality's index rows, ascending
    vectors32: np.ndarray  # read-only float32 copy of those rows, in that order
    blocks: BoundBlocks | None


@dataclass(frozen=True, eq=False)
class UnifiedIndex:
    """Unit-norm vectors in canonical (ascending id) order; immutable.

    Construction refuses, naming the id, unsorted or duplicate ids, unknown
    modalities and rows holding NaN or +-inf (DataError), and rows whose norm
    is off 1 by more than 1e-9, a finite row whose norm overflows included
    (NumericError), however the index was made.

    `sides` maps each modality to the `Side` that a search of it reads,
    derived at construction and never serialized: its index rows, their
    float32 copy for the screen (4 bytes per coordinate in memory) and its
    `BoundBlocks` or None (a centre per BOUND_BLOCK_ROWS rows).  The row
    norms that the checks read, each side's float32 rows and each block's
    least x.c come from one pass per side over its rows, in chunks of
    INDEX_CHUNK_ROWS; the checks run after it, in row order, and a row they
    refuse makes the pass raise no floating-point warning."""

    ids: tuple[str, ...]
    modalities: tuple[str, ...]
    vectors: np.ndarray  # shape (len(ids), dimension), rows unit-norm
    sides: dict[str, Side] = field(init=False, repr=False)
    max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.ids)
        if len(self.modalities) != n or self.vectors.ndim != 2 or len(self.vectors) != n:
            raise DimensionError(
                f"{n} ids, {len(self.modalities)} modalities and vectors of shape {self.vectors.shape}")
        ids = np.fromiter(self.ids, dtype=object, count=n)
        unsorted = np.flatnonzero(ids[:-1] >= ids[1:])
        if unsorted.size:
            prev, id_ = self.ids[unsorted[0]], self.ids[unsorted[0] + 1]
            problem = "duplicate id" if prev == id_ else "not in canonical (ascending id) order"
            raise DataError(f"entry {id_!r}: {problem}")
        modalities = np.fromiter(self.modalities, dtype=object, count=n)  # a str dtype would drop trailing NULs
        masks = {modality: modalities == modality for modality in MODALITIES}
        unknown = np.flatnonzero(~np.any(list(masks.values()), axis=0))
        if unknown.size:
            raise DataError(f"entry {self.ids[unknown[0]]!r}: unknown modality {self.modalities[unknown[0]]!r}")
        self.vectors.setflags(write=False)
        norms, rows = np.empty(n), {m: np.flatnonzero(mask) for m, mask in masks.items()}
        # a row that overflows the cast or its norm, or holds NaN or +-inf, is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            passes = {m: _row_pass(self.vectors, rows[m], norms) for m in MODALITIES}
        suspect = np.flatnonzero(~np.isfinite(norms))
        nonfinite = suspect[~np.isfinite(self.vectors[suspect]).all(axis=1)]
        if nonfinite.size:
            raise DataError(f"entry {self.ids[int(nonfinite[0])]!r}: vector is not finite")
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
        if off.size:
            raise NumericError(f"entry {self.ids[int(off[0])]!r}: vector is not unit-norm")
        max_norm = float(norms.max(initial=0.0))
        sides = {m: Side(rows[m], x32, _bound_blocks(x32, max_norm, lowest)) for m, (x32, lowest) in passes.items()}
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "max_norm", max_norm)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int | None:
        return None if len(self.ids) == 0 else self.vectors.shape[1]


def _row_pass(vectors: np.ndarray, rows: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Write the norms of the index rows `rows` into `norms`, and return their
    read-only float32 copy and each block's least x.c (module docstring, step 0)
    where the rows take blocks, else None: one pass over the rows in chunks of
    INDEX_CHUNK_ROWS, each block's dots taken while its chunk is in the cache."""
    n, d, size = len(rows), vectors.shape[1], BOUND_BLOCK_ROWS
    whole = n - n % size  # the last block also holds the n % size rows after it
    side32 = np.empty((n, d), np.float32)
    lowest = np.empty(whole // size, np.float32) if n >= max(BOUND_MIN_ROWS, size) else None
    contiguous = n > 0 and rows[-1] - rows[0] == n - 1
    for start in range(0, whole or n, INDEX_CHUNK_ROWS):  # the last chunk takes the remainder
        stop = start + INDEX_CHUNK_ROWS if start + INDEX_CHUNK_ROWS < whole else n
        at = slice(rows[0] + start, rows[0] + stop) if contiguous else rows[start:stop]
        x = vectors[at]
        norms[at] = _dot_norms(x)
        side32[start:stop] = x
        if lowest is None:
            continue
        x32 = side32[start:stop]
        blocks = x32[: min(stop, whole) - start].reshape(-1, size, d)
        centres, first = blocks[:, size // 2], start // size  # each block's row at offset size // 2
        # one stacked GEMV, then a minimum over each block's rows, laid out as (rows, blocks)
        # since numpy reduces a short last axis one row at a time
        lowest[first : first + len(blocks)] = (blocks @ centres[:, :, None])[:, :, 0].T.copy().min(axis=0)
        if stop > whole:
            lowest[-1] = min(lowest[-1], (x32[whole - start :] @ centres[-1]).min())
    side32.setflags(write=False)
    return side32, lowest


def _bound_blocks(side32: np.ndarray, max_norm: float, lowest: np.ndarray | None) -> BoundBlocks | None:
    """The `BoundBlocks` of a side's float32 rows, whose blocks' least x.c are
    `lowest`, or None where they take no blocks or could never drop one
    (module docstring, step 0)."""
    if lowest is None:
        return None
    d, size = side32.shape[1], BOUND_BLOCK_ROWS
    centre_norm = (1 + _F32_ROUNDOFF) * max_norm  # at least ||c||: c is a row rounded to float32
    spread = max_norm**2 - 2 * lowest.astype(np.float64) + centre_norm**2
    slack = (2 * _screen_relative_error(d) + _gamma(d + 8, _F64_ROUNDOFF)) * (max_norm + centre_norm) ** 2
    radii = np.sqrt(np.maximum(spread, 0.0) + slack + 8 * d * _F32_UNDERFLOW)
    if radii.min() >= centre_norm:  # no block can ever be dropped
        return None
    # a gather, then F order: cheaper than the F-order copy of a strided slice
    centres = np.asfortranarray(side32[np.arange(size // 2, len(lowest) * size, size)])
    return BoundBlocks(centres, radii, _block_widths(d, max_norm, centre_norm, radii))


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
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():  # input data, refused as UnifiedIndex refuses it, before normalizing
        raise DataError(f"entry {ids[int(np.argmin(finite))]!r}: vector is not finite")
    with np.errstate(over="ignore"):  # a finite row whose norm overflows is rescued
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
    """Exact top-k among entries of one modality, ties broken by ascending id: one query kept
    1-D through the checks of `_topk_arrays`, its `_unit_vector` and `_topk_one`."""
    q = np.asarray(q, dtype=np.float64)
    searched = _checked_search(index, q[None], k, filter_modality)
    if searched is None:
        return []
    side, kk = searched
    unit = _unit_vector(q)
    if kk == 0:
        return []
    rows, scores = _topk_one(index, side, unit, kk)
    ids = index.ids
    return [RetrievalResult(ids[row], score, rank)
            for rank, row, score in zip(range(1, kk + 1), rows.tolist(), scores.tolist())]


def _topk_arrays(
    index: UnifiedIndex, queries: np.ndarray, k: int, filter_modality: str
) -> tuple[np.ndarray, np.ndarray]:
    """`query_topk` for every row of `queries`, screened in blocks of rows, as (queries,
    min(k, candidates)) arrays of index rows, best first, and scores; each row's results
    equal its single-row search."""
    queries = np.asarray(queries, dtype=np.float64)
    searched = _checked_search(index, queries, k, filter_modality)
    if searched is None:
        return np.zeros((len(queries), 0), dtype=np.intp), np.zeros((len(queries), 0))
    side, kk = searched
    unit = l2_normalize(queries)
    if kk == 0:  # no candidates: every run is empty
        return np.zeros((len(unit), 0), dtype=np.intp), np.zeros((len(unit), 0))
    step = max(1, SCORE_BLOCK_BYTES // (8 * len(side.rows)))
    # a block's size selects its kernel: one query takes `_topk_one`, more take `_topk_block`
    runs = [_topk_block(index, side, block, kk) if len(block) > 1 else
            tuple(run[None] for run in _topk_one(index, side, block[0], kk))
            for block in (unit[start:start + step] for start in range(0, len(unit), step))]
    if len(runs) == 1:
        return runs[0]
    rows, scores = zip(*runs)
    return np.concatenate(rows), np.concatenate(scores)


def _checked_search(
    index: UnifiedIndex, queries: np.ndarray, k: int, filter_modality: str
) -> tuple[Side, int] | None:
    """Every check of a search for the k best of `filter_modality` for each row of `queries`,
    which both `query_topk` and `_topk_arrays` run first, and the side it reads with
    kk = min(k, candidates), or None where the index is empty and every search finds nothing."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if filter_modality not in MODALITIES:
        raise UsageError(f"unknown modality filter {filter_modality!r}")
    if len(index) == 0:
        return None
    if queries.ndim != 2 or queries.shape[1] != index.dimension:
        raise DimensionError(
            f"query dim {queries.shape[1:]} does not match index dim ({index.dimension},)"
        )
    if not np.isfinite(queries).all():
        row = np.flatnonzero(~np.isfinite(queries).all(axis=1))[0]
        raise NumericError(f"query row {row} has non-finite values")
    side = index.sides[filter_modality]
    return side, min(k, len(side.rows))


def _gamma(n: int, u: float) -> float:
    """Bound on the relative rounding error of an n-term dot product with unit roundoff u."""
    return n * u / (1 - n * u)


@functools.cache  # one float per dimension, which every query's margin reads
def _screen_relative_error(d: int) -> float:
    """The factor of ||r|| * ||q|| in E of the module docstring."""
    u = _F32_ROUNDOFF
    return (2 * u + u * u) + _gamma(d + 1, u) * (1 + u) ** 2 + _gamma(d, _F64_ROUNDOFF)


def _screen_margin(d: int, max_norm: float, q_norms: np.ndarray | float) -> np.ndarray | float:
    """m = 2E of the module docstring, per query, or for one query's float norm."""
    return 2 * (_screen_relative_error(d) * max_norm * q_norms + 4 * d * _F32_UNDERFLOW)


def _block_widths(d: int, max_norm: float, centre_norm: float, radii: np.ndarray) -> np.ndarray:
    """The bracket of M, step 0 of the module docstring, per block."""
    return _screen_relative_error(d) * centre_norm + (1 + _F32_ROUNDOFF) * radii + _gamma(d, _F64_ROUNDOFF) * max_norm


def _block_margin(d: int, widths: np.ndarray, q_norms: np.ndarray | float) -> np.ndarray:
    """M of the module docstring, step 0: per block for one query's norm, or per query and block
    for a column of norms."""
    return q_norms * widths + 4 * d * _F32_UNDERFLOW


def _ceil32(values: np.ndarray | float) -> np.ndarray | np.float32:
    """The least float32 at or above each float64 value, or at or above one float: a float32 s
    is >= v exactly when s >= _ceil32(v), under NEP 50 and legacy casting alike."""
    up = np.float32(values)  # the nearest float32, which may lie below
    if isinstance(values, float):
        return up if float(up) >= values else np.nextafter(up, np.float32(np.inf))
    np.nextafter(up, np.float32(np.inf), out=up, where=up < values)
    return up


def _floor32(floors: np.ndarray | float) -> np.ndarray | np.float32:
    """The float32 band floor of each float64 floor t - m, or of one float (module docstring,
    step 2): its `_ceil32`, or the lowest float32, admitting every candidate, where it is at
    most -1, since every clipped screen is at least -1."""
    floors32 = _ceil32(floors)
    if isinstance(floors, float):
        return floors32 if floors > -1.0 else _F32_LOWEST
    floors32[floors <= -1.0] = _F32_LOWEST
    return floors32


def _block_floor(best: np.ndarray | float) -> np.ndarray | float:
    """The floor that a block's upper bound s + M must reach to stay, for each query's need-th
    best lower bound in `best`, or for one float (module docstring, step 0): L = min(best, 1), or
    -inf, keeping every block, where best is at most -1."""
    if isinstance(best, float):
        return min(best, 1.0) if best > -1.0 else -math.inf
    return np.where(best > -1.0, np.minimum(best, 1.0), -np.inf)


def _kept_blocks(side: Side, unit32: np.ndarray, q_norms: np.ndarray | float, kk: int) -> np.ndarray | None:
    """The blocks of the side, ascending, whose upper bound reaches some query's floor (module
    docstring, step 0), for one query (1-D `unit32`, a float norm) or a block of them, or None to
    screen the whole side: where there are no blocks or over 3/4 of them stay."""
    blocks = side.blocks
    need = -(-kk // BOUND_BLOCK_ROWS)  # `need` blocks of at least BOUND_BLOCK_ROWS rows hold kk rows
    if blocks is None or need > len(blocks.centres):
        return None
    one = unit32.ndim == 1
    centre = unit32 @ blocks.centres.T
    margin = _block_margin(unit32.shape[-1], blocks.widths, q_norms if one else q_norms[:, None])
    lower = centre - margin
    best = np.maximum.reduce(lower, axis=-1) if need == 1 else np.partition(lower, -need, axis=-1)[..., -need]
    reach = centre + margin >= (_block_floor(float(best)) if one else _block_floor(best)[:, None])
    keep = (reach if one else reach.any(axis=0)).nonzero()[0]
    if 4 * len(keep) > 3 * len(blocks.centres):  # gathering more costs more than screening the whole side
        return None
    return keep


def _kept_rows(side: Side, keep: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The float32 rows and index rows of the side's blocks `keep`, in id order with the remainder of
    a kept last block, or the whole side for None: one gather through (blocks, BOUND_BLOCK_ROWS) views."""
    if keep is None:
        return side.vectors32, side.rows
    count, size = len(side.blocks.centres), BOUND_BLOCK_ROWS
    whole = count * size
    rows32 = side.vectors32[:whole].reshape(count, size, -1).take(keep, axis=0).reshape(len(keep) * size, -1)
    rows = side.rows[:whole].reshape(count, size).take(keep, axis=0).reshape(-1)
    if keep[-1] == count - 1:  # the last block also holds the remainder
        return np.concatenate([rows32, side.vectors32[whole:]]), np.concatenate([rows, side.rows[whole:]])
    return rows32, rows


def _topk_block(index: UnifiedIndex, side: Side, unit: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """Screen, band and re-score one block of finite unit queries against a side (module docstring)
    for their kk best."""
    unit32, q_norms = unit.astype(np.float32), _dot_norms(unit)
    candidates, kept = _kept_rows(side, _kept_blocks(side, unit32, q_norms, kk))
    screened = unit32 @ candidates.T
    kth = np.partition(screened, -kk, axis=1)[:, -kk].clip(-1.0, 1.0).astype(np.float64)
    floors32 = _floor32(kth - _screen_margin(index.dimension, index.max_norm, q_norms))
    query, col = divmod(np.flatnonzero(screened >= floors32[:, None]), screened.shape[1])
    rows = kept[col]
    scores = _row_dots(index.vectors.take(rows, axis=0), unit[query]).clip(-1.0, 1.0)
    # query ascends, and within a query rows ascend by id, so a stable sort keeps ties in id order
    order = np.lexsort((-scores, query))
    # each query's run in `order` starts where its rows start in `query`
    best = order[query.searchsorted(np.arange(len(unit)))[:, None] + np.arange(kk)]
    return rows[best], scores[best]


def _topk_one(index: UnifiedIndex, side: Side, unit: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """`_topk_block` for a single finite unit query, as 1-D arrays of kk rows and scores: the same
    bounds and rules, with its norm, floors and k-th screen as floats and 1-D screens (module
    docstring)."""
    unit32, q_norm = unit.astype(np.float32), math.sqrt(unit @ unit)  # see `_row_dots`
    candidates, rows = _kept_rows(side, _kept_blocks(side, unit32, q_norm, kk))
    screened = candidates @ unit32
    kth = float(np.partition(screened, -kk)[-kk])
    floor32 = _floor32(min(max(kth, -1.0), 1.0) - _screen_margin(index.dimension, index.max_norm, q_norm))
    rows = rows[screened >= floor32]  # the band, still in id order
    scores = _row_dots(index.vectors.take(rows, axis=0), unit).clip(-1.0, 1.0)
    best = (-scores).argsort(kind="stable")[:kk]  # rows ascend by id, so ties keep id order
    return rows[best], scores[best]


def cross_media_search(
    model: AlignmentModel,
    index: UnifiedIndex,
    query: FeatureRecord,
    k: int,
    direction: str,
) -> list[RetrievalResult]:
    """Project a raw query through the matching head and search the other modality, the query
    1-D from its feature to its results.  A projection that overflows is a NumericError, but
    numpy warns first unless the caller sets `np.errstate`."""
    source, target = _check_query_side(direction, query.id, query.modality)
    head = model.head_for(source)
    check_fits([query], source, head.input_dim)
    return query_topk(index, project(head, query.vector, [query.id])[0], k, target)


def _direction_sides(direction: str) -> tuple[str, str]:
    """(query modality, result modality) of a direction; an unknown one is a UsageError."""
    if direction not in DIRECTIONS:
        raise UsageError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    return DIRECTION_SIDES[direction]


def _check_query_side(direction: str, query_id: str, modality: str, path=None) -> tuple[str, str]:
    """The direction's (query modality, result modality), after the one rule for a query's side: a
    UsageError of `path` unless the query's `modality` is the direction's source."""
    source, target = _direction_sides(direction)
    if modality != source:
        raise UsageError(f"direction {direction} takes a {source} query, but id {query_id!r} is {modality}", path=path)
    return source, target
