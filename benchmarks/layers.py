"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Each entry names a metric, how it is read from the spans, the end-to-end
metric and workloads it should move, and the workloads on which its span
must fire; units are in BENCHMARK.json.  A span that never fires on such a
workload is named in the coverage report instead of passing as a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import NameStats, Span, layer_stats, subtree_work

CLI, EVAL, STREAM = "cli_pipeline", "eval_batch", "query_stream"
ALL = (CLI, EVAL, STREAM)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    span: str  # span name the value is read from
    stat: str  # calls | busy_s | self_s | work:<counter> | subtree:<counter>
    moves: str  # end-to-end metric (and workload) it should move
    expected: tuple[str, ...]  # workloads on which the span must fire
    scale: float = 1.0


CLI_STEPS = ("train", "pairhead-train", "embed", "index", "query", "eval")

TRAIN = "pipeline_s (train) on cli_pipeline"
PAIRHEAD = "pipeline_s (pairhead-train) on cli_pipeline"
SEARCH = "pipeline_s and query_p50_ms on eval_batch and query_stream"
EVALUATE = "pipeline_s on eval_batch"
LOADS = "setup_s and peak_rss_mb on query_stream, pipeline_s (query, eval) on cli_pipeline"
RECORDS = "setup_s on eval_batch, pipeline_s (embed) on cli_pipeline"

LAYER_METRICS = (
    LayerMetric("cli.synth.wall_s", "cli.synth", "busy_s", "setup_s on cli_pipeline", (CLI,)),
    *(LayerMetric(f"cli.{step}.wall_s", f"cli.{step}", "busy_s", "pipeline_s on cli_pipeline", (CLI,))
      for step in CLI_STEPS),
    LayerMetric("alignment.fit.busy_s", "alignment.fit", "busy_s", TRAIN, (CLI,)),
    LayerMetric("alignment.fit.self_s", "alignment.fit", "self_s", TRAIN, (CLI,)),
    LayerMetric("alignment.fit.steps", "alignment.alignment_gradients", "calls", TRAIN, (CLI,)),
    LayerMetric("alignment.alignment_gradients.calls", "alignment.alignment_gradients", "calls", TRAIN, (CLI,)),
    LayerMetric("alignment.alignment_gradients.self_s", "alignment.alignment_gradients", "self_s", TRAIN, (CLI,)),
    LayerMetric("alignment.batch_targets.busy_s", "alignment.batch_targets", "busy_s", TRAIN, (CLI,)),
    LayerMetric("alignment.fit.gemm_gflop", "alignment.fit", "subtree:gemm_flop", TRAIN, (CLI,), 1e-9),
    *(LayerMetric(f"alignment.project.{stat.split(':')[-1]}", "alignment.project", stat,
                  "pipeline_s and query_p50_ms on eval_batch and query_stream, pipeline_s (embed) on "
                  "cli_pipeline", ALL)
      for stat in ("calls", "work:rows", "busy_s")),
    *(LayerMetric(f"nn.{fn}.{stat}", f"nn.{fn}", stat, moves, expected)
      for fn, moves, expected in (
          ("mlp_forward", TRAIN, ALL),
          ("mlp_backward", TRAIN, (CLI,)),
          ("adam_step", "pipeline_s (train, pairhead-train) on cli_pipeline", (CLI,)))
      for stat in ("calls", "busy_s")),
    LayerMetric("pairhead.fit_pair_head.busy_s", "pairhead.fit_pair_head", "busy_s", PAIRHEAD, (CLI,)),
    LayerMetric("pairhead.pair_loss_and_grads.calls", "pairhead.pair_loss_and_grads", "calls", PAIRHEAD, (CLI,)),
    LayerMetric("pairhead.pair_loss_and_grads.busy_s", "pairhead.pair_loss_and_grads", "busy_s", PAIRHEAD, (CLI,)),
    LayerMetric("retrieval.query_topk.calls", "retrieval.query_topk", "calls", SEARCH, ALL),
    LayerMetric("retrieval.query_topk.busy_s", "retrieval.query_topk", "busy_s", SEARCH, ALL),
    LayerMetric("retrieval.candidates_scored", "retrieval.query_topk", "work:candidates", SEARCH, ALL),
    LayerMetric("retrieval.score_gflop", "retrieval.query_topk", "work:score_flop", SEARCH, ALL, 1e-9),
    LayerMetric("retrieval.cross_media_search.self_s", "retrieval.cross_media_search", "self_s", SEARCH, ALL),
    LayerMetric("retrieval.build_index.busy_s", "retrieval.build_index", "busy_s", "setup_s on eval_batch",
                (CLI, EVAL)),
    *(LayerMetric(f"evaluation.{fn}.{stat}", f"evaluation.{fn}", stat, EVALUATE, (CLI, EVAL))
      for fn, stat in (("evaluate_retrieval", "self_s"), ("average_precision", "calls"),
                       ("average_precision", "busy_s"))),
    LayerMetric("dataio.load_index.busy_s", "dataio.load_index", "busy_s", LOADS, (CLI, STREAM)),
    LayerMetric("dataio.load_index.bytes", "dataio.load_index", "work:bytes", LOADS, (CLI, STREAM)),
    LayerMetric("dataio.load_model.busy_s", "dataio.load_model", "busy_s", LOADS, (CLI, STREAM)),
    *(LayerMetric(f"dataio.{fn}.busy_s", f"dataio.{fn}", "busy_s", "pipeline_s on cli_pipeline", (CLI,))
      for fn in ("save_index", "save_model", "save_features", "load_features", "save_report")),
    LayerMetric("dataio.save_index.bytes", "dataio.save_index", "work:bytes", "pipeline_s on cli_pipeline", (CLI,)),
    LayerMetric("dataio.unified_records.rows", "dataio.unified_records", "work:rows", RECORDS, (CLI, EVAL)),
    LayerMetric("dataio.unified_records.busy_s", "dataio.unified_records", "busy_s", RECORDS, (CLI, EVAL)),
    LayerMetric("dataio.generate_synthetic.busy_s", "dataio.generate_synthetic", "busy_s",
                "setup_s on eval_batch and cli_pipeline", (CLI, EVAL)),
)

TRACE_OVERHEAD = "trace.overhead_s"  # traced minus untraced wall time of one job


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric's value for one traced run (0 where a span never fired)."""
    stats = layer_stats(spans)
    values = {}
    for m in LAYER_METRICS:
        s = stats.get(m.span, NameStats())
        kind, _, counter = m.stat.partition(":")
        if kind == "work":
            value = s.work.get(counter, 0.0)
        elif kind == "subtree":
            value = subtree_work(spans, m.span, counter)
        else:
            value = getattr(s, m.stat)
        values[m.name] = float(value) * m.scale
    return values


def coverage(spans: list[Span], wrapped: set[str], workload: str) -> list[str]:
    """Expected spans that never fired on this workload, one line each."""
    fired = {s.name for s in spans}
    missing = []
    for span in sorted({m.span for m in LAYER_METRICS if workload in m.expected}):
        if span in fired:
            continue
        why = "never fired" if span in wrapped else "not found in the package, so never wrapped"
        missing.append(f"{span}: expected on {workload}, {why}")
    return missing
