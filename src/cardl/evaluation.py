"""Ranked-retrieval scoring: average precision over a run, and mean average
precision per direction.

Convention: AP over a run of length R divides by R' = min(total relevant, R),
the standard normalization for truncated runs.  Queries with no judged
relevant documents are skipped and counted, never averaged in as zero.
Every report records this convention.

AP is scored for a (queries x k) matrix of relevance flags at every cutoff
at once: AP@k is column k - 1 of cumsum(where(flags, cumsum(flags) / rank,
0)) over min(total relevant, k).  `np.cumsum` adds in rank order and adding
0.0 is exact, so each AP has the bits of a loop adding hits / r at each
relevant rank r.  `average_precision` is the single-run case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .alignment import AlignmentModel, project
from .errors import DataError, UsageError
from .records import FeatureRecord, check_fits
from .retrieval import UnifiedIndex, _direction_sides, _topk_arrays

# mapping query_id -> set of relevant doc ids
RelevanceJudgments = dict[str, set[str]]

AP_CONVENTION = (
    "AP@R = sum_r P(r)*delta(r) / min(total_relevant, R); "
    "queries with no judged relevant documents are skipped, not scored 0"
)

DEFAULT_K_LIST = (1, 5, 10)


def average_precision(relevance_flags: Sequence[bool], total_relevant: int) -> float:
    """AP over one run: sum of precision at each relevant rank, over R'.

    R' = min(total_relevant, run length).  Returns 0 when R' == 0; callers
    should flag queries with total_relevant == 0 as unjudged rather than
    score them.
    """
    if total_relevant < 0:
        raise UsageError(f"total_relevant must be >= 0, got {total_relevant}")
    if len(relevance_flags) == 0:
        raise UsageError("run must contain at least one result")
    return float(_ap_at_every_cutoff(np.array([relevance_flags], dtype=bool), np.array([total_relevant]))[0, -1])


def _ap_at_every_cutoff(flags: np.ndarray, total_relevant: np.ndarray) -> np.ndarray:
    """AP@j (column j - 1) of each run (row of `flags`) at every cutoff j, 0 where R' == 0."""
    rank = np.arange(1, flags.shape[1] + 1)
    precision = np.where(flags, np.cumsum(flags, axis=1) / rank, 0.0)
    r_prime = np.minimum(total_relevant[:, None], rank)
    return np.divide(np.cumsum(precision, axis=1), r_prime, out=np.zeros(flags.shape), where=r_prime > 0)


def mean_average_precision(ap_values: Sequence[float]) -> float:
    if len(ap_values) == 0:
        raise DataError("no judged queries: cannot average an empty AP list")
    return float(np.mean(ap_values))


@dataclass
class EvalReport:
    """Per-direction MAP at each cutoff, plus the per-query APs behind it."""

    direction: str
    map_at: dict[int, float]
    ap_per_query: dict[int, dict[str, float]]
    evaluated: int  # judged queries that entered the mean
    skipped: int  # queries with no judged relevant documents
    ap_convention: str = AP_CONVENTION

    def __post_init__(self):
        for k, value in self.map_at.items():
            if not 0.0 <= value <= 1.0:
                raise DataError(f"MAP@{k} = {value} outside [0, 1]")


def evaluate_retrieval(
    model: AlignmentModel,
    index: UnifiedIndex,
    queries: Sequence[FeatureRecord],
    qrels: Mapping[str, set[str]],
    k_list: Sequence[int] = DEFAULT_K_LIST,
    direction: str = "txt2img",
) -> EvalReport:
    """Run cross-media search for every judged query at each k and aggregate.

    Every query record, judged or not, must fit the direction's head: the
    first that does not is a DataError naming it.  Queries are processed in
    ascending id order so the reduction is deterministic regardless of input
    order.  All are projected and searched in one batch each, and every run
    equals that query's `cross_media_search` result.
    """
    source, target = _direction_sides(direction)
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise UsageError(f"k_list must contain positive cutoffs, got {k_list}")
    head = model.head_for(source)
    check_fits(queries, source, head.input_dim)

    ordered = sorted(queries, key=lambda r: r.id)
    judged = [(record, qrels[record.id]) for record in ordered if qrels.get(record.id)]
    skipped = len(ordered) - len(judged)
    if not judged:
        raise DataError(f"zero judged queries for direction {direction}")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as the NumericError alone
        unified = project(head, np.array([record.vector for record, _ in judged]),
                          ids=[record.id for record, _ in judged])
    rows, _ = _topk_arrays(index, unified, max(k_list), target)
    if rows.shape[1] == 0:
        raise DataError(f"index has no candidates for direction {direction}")
    ids = index.ids
    flags = np.array([[ids[row] in relevant for row in run] for run, (_, relevant) in zip(rows.tolist(), judged)])
    ap = _ap_at_every_cutoff(flags, np.array([len(relevant) for _, relevant in judged]))
    ap_at = {k: ap[:, min(k, ap.shape[1]) - 1] for k in k_list}
    query_ids = [record.id for record, _ in judged]
    return EvalReport(
        direction=direction,
        map_at={k: mean_average_precision(column) for k, column in ap_at.items()},
        ap_per_query={k: dict(zip(query_ids, column.tolist())) for k, column in ap_at.items()},
        evaluated=len(judged),
        skipped=skipped,
    )
