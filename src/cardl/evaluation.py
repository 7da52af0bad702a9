"""Ranked-retrieval scoring: average precision over a run, and mean average
precision per direction.

Convention: AP over a run of length R divides by R' = min(total relevant, R),
the standard normalization for truncated runs.  Queries with no judged
relevant documents are skipped and counted, never averaged in as zero.
Every report records this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .alignment import AlignmentModel
from .errors import DataError, UsageError
from .records import FeatureRecord
from .retrieval import (
    DIRECTION_SIDES,
    DIRECTIONS,
    UnifiedIndex,
    _project_queries,
    query_topk_batch,
)

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
    r_prime = min(total_relevant, len(relevance_flags))
    if r_prime == 0:
        return 0.0
    hits = 0
    total = 0.0
    for r, flag in enumerate(relevance_flags, start=1):
        if flag:
            hits += 1
            total += hits / r
    return total / r_prime


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

    Queries are processed in ascending id order so the reduction is
    deterministic regardless of input order.  All are projected and searched
    in one batch each, and every run equals that query's `cross_media_search`
    result.
    """
    if direction not in DIRECTIONS:
        raise UsageError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise UsageError(f"k_list must contain positive cutoffs, got {k_list}")

    ordered = sorted(queries, key=lambda r: r.id)
    judged = [(record, qrels[record.id]) for record in ordered if qrels.get(record.id)]
    skipped = len(ordered) - len(judged)
    if not judged:
        raise DataError(f"zero judged queries for direction {direction}")

    unified = _project_queries(model, [record for record, _ in judged], direction)
    runs = query_topk_batch(index, unified, max(k_list), DIRECTION_SIDES[direction][1])
    ap_per_query: dict[int, dict[str, float]] = {k: {} for k in k_list}
    for (record, relevant), results in zip(judged, runs):
        if not results:
            raise DataError(f"index has no candidates for direction {direction}")
        flags = [r.id in relevant for r in results]
        for k in k_list:
            ap_per_query[k][record.id] = average_precision(flags[:k], len(relevant))
    map_at = {k: mean_average_precision(list(ap_per_query[k].values())) for k in k_list}
    return EvalReport(
        direction=direction,
        map_at=map_at,
        ap_per_query=ap_per_query,
        evaluated=len(judged),
        skipped=skipped,
    )
