"""Output checks and summary statistics shared by the workloads.

The reference search is the brute-force definition of exact top-k: one
`np.dot` per candidate row, clipped to [-1, 1], then a full sort by
(-score, id).  The program's results must equal it exactly, ids, tie order
and score bits alike.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

import numpy as np

# Percentiles a tail latency may be reported at; the highest one with at
# least TAIL_BEYOND samples above it is used.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def reference_topk(index, query_vector, k: int, modality: str) -> list[tuple[str, float]]:
    """Exact top-k (id, score) of one modality by per-row dot products and a full sort."""
    q = np.asarray(query_vector, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [
        (min(max(float(np.dot(index.vectors[row], q)), -1.0), 1.0), index.ids[row])
        for row, m in enumerate(index.modalities)
        if m == modality
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(id_, score) for score, id_ in scored[:k]]


def compare_topk(results, reference: list[tuple[str, float]]) -> str | None:
    """None when `results` equal `reference` exactly, else the first difference.

    Scores are compared bit for bit (via float.hex), so an error of one ulp
    or a swapped pair of tied ids is a mismatch.
    """
    if len(results) != len(reference):
        return f"{len(results)} results, reference has {len(reference)}"
    for rank, (got, (ref_id, ref_score)) in enumerate(zip(results, reference), start=1):
        if got.rank != rank:
            return f"result {rank} carries rank {got.rank}"
        if got.id != ref_id:
            return f"rank {rank}: id {got.id!r}, reference {ref_id!r}"
        if float(got.score).hex() != float(ref_score).hex():
            return f"rank {rank} ({got.id}): score {got.score!r}, reference {ref_score!r}"
    return None


def reference_ap(flags: list[bool], total_relevant: int) -> float:
    """Average precision of one ranked run, divided by min(total_relevant, len(run))."""
    hits, total = 0, 0.0
    for r, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / r
    r_prime = min(total_relevant, len(flags))
    return total / r_prime if r_prime else 0.0


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest TAIL_PERCENTILES entry with at least
    TAIL_BEYOND samples above it, by the nearest-rank rule; None if none has."""
    n = len(samples)
    usable = [p for p in TAIL_PERCENTILES if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND]
    return (usable[-1], percentile(samples, usable[-1])) if usable else None


def latency_summary(samples_ms: list[float]) -> tuple[dict, dict]:
    """Median and tail latency over every timed query of a run."""
    p, value = tail(samples_ms) or (None, float("nan"))
    metrics = {"query_p50_ms": percentile(samples_ms, 50.0)}
    detail = {"query_tail_ms": value, "query_tail_percentile": p, "query_samples": len(samples_ms)}
    return metrics, detail


@dataclass
class Ledger:
    """Counts attempted and failed operations; each failed check is a failed op."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation and return its result; an exception counts as a
        failed op, and the result is then None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=3).strip()}")
            return None
