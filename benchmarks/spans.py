"""In-memory span recorder that wraps the public functions of each cardl layer.

The program itself has no tracing.  `Tracer.install` replaces every public
function of the layer modules, wherever the package binds it (the defining
module, modules that import it by name, and the package namespace), with a
wrapper that records one span per call: name, start, end, parent and an
optional dict of work counts.  `Tracer.uninstall` puts the originals back.
Spans stay in memory; `layer_stats` turns them into busy and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# The package's layers.  `records` and `errors` hold only types; their cost
# shows inside the spans of the functions that build them.
LAYERS = ("cli", "dataio", "alignment", "nn", "pairhead", "retrieval", "evaluation")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None at the root
    work: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mlp_forward_flop(params, batch) -> float:
    rows = len(batch)
    return float(sum(2 * rows * l.weight.size for l in params.layers))


def _mlp_backward_flop(params, grad_out) -> float:
    # weight gradients for every layer, input gradients for all but the first
    rows = len(grad_out)
    sizes = [l.weight.size for l in params.layers]
    return float(2 * rows * (sum(sizes) + sum(sizes[1:])))


def _topk_work(index, filter_modality) -> dict[str, float]:
    candidates = index.modalities.count(filter_modality)
    return {
        "candidates": float(candidates),
        "score_flop": 2.0 * (index.dimension or 0) * candidates,
    }


# Work counted at a layer boundary from the call's bound arguments and its
# result.  Each entry returns {counter: value} and changes nothing it reads.
WORK = {
    "alignment.project": lambda a, r: {"rows": float(len(r))},
    # logits, and the two gradients through them: three n*m*d products
    "alignment.alignment_gradients": lambda a, r: {
        "gemm_flop": 6.0 * len(a["text_batch"]) * len(a["image_batch"]) * a["model"].unified_dim
    },
    "nn.mlp_forward": lambda a, r: {"gemm_flop": _mlp_forward_flop(a["params"], a["batch"])},
    "nn.mlp_backward": lambda a, r: {"gemm_flop": _mlp_backward_flop(a["params"], a["grad_out"])},
    "retrieval.query_topk": lambda a, r: _topk_work(a["index"], a["filter_modality"]),
    "dataio.load_index": lambda a, r: {"bytes": float(os.path.getsize(a["path"]))},
    "dataio.save_index": lambda a, r: {"bytes": float(os.path.getsize(a["path"]))},
    "dataio.unified_records": lambda a, r: {"rows": float(len(r))},
}


def span_name(layer: str, function_name: str) -> str | None:
    """Span name for a function of a layer module, or None if it is not traced.

    Public functions are traced; in `cli` the subcommand handlers `_cmd_*`
    are the public surface and are named after their subcommand.
    """
    if layer == "cli" and function_name.startswith("_cmd_"):
        return "cli." + function_name[len("_cmd_"):].replace("_", "-")
    if function_name.startswith("_"):
        return None
    return f"{layer}.{function_name}"


class Tracer:
    """Records spans for calls into the cardl layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()  # span names of the wrapped functions
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cardl.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = span_name(layer, attr)
                    if name is not None:
                        targets[id(obj)] = (obj, self._wrap(name, obj))
                        self.wrapped.add(name)
        package_modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cardl" or key.startswith("cardl."))
        ]
        for module in package_modules:
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(signature.bind(*args, **kwargs).arguments, result)
                return result
            finally:
                stack.pop()
                span.end = clock()

        return traced


@dataclass
class NameStats:
    calls: int = 0
    busy_s: float = 0.0  # union of this name's spans (nested repeats counted once)
    self_s: float = 0.0  # busy time not covered by child spans
    work: dict[str, float] = field(default_factory=dict)


def layer_stats(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, busy time, self time and summed work counts per span name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    stats: dict[str, NameStats] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span.name, NameStats())
        s.calls += 1
        s.self_s += span.duration - child_time[i]
        if not _has_ancestor_named(spans, i, span.name):
            s.busy_s += span.duration
        for key, value in span.work.items():
            s.work[key] = s.work.get(key, 0.0) + value
    return stats


def subtree_work(spans: list[Span], root_name: str, key: str) -> float:
    """Sum of work counter `key` over every span inside a span named root_name."""
    total = 0.0
    for i, span in enumerate(spans):
        if key in span.work and (span.name == root_name or _has_ancestor_named(spans, i, root_name)):
            total += span.work[key]
    return total


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
