"""Relevance scoring for a pair of same-space embeddings.

Two embeddings X and Y are joined into the feature [X, Y, |X-Y|, max(X, Y)]
and a small sigmoid-output MLP scores how likely the pair is a true match.
This runs over frozen embeddings from any external encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, NumericError, UsageError
# adam_step is not called here: benchmarks/test_bench.py checks that the tracer wraps this binding
from .nn import MlpParams, adam_step, init_mlp, mlp_backward, mlp_forward, sigmoid
from .alignment import TrainConfig, _train, seeded_rng


def combine_pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Joint pair feature: [x || y || |x-y| || max(x, y)], dimension 4d, of
    two vectors or of each pair of rows of two matrices."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise DimensionError(f"x and y must be vectors or rows of equal dim, got {x.shape} and {y.shape}")
    return np.concatenate([x, y, np.abs(x - y), np.maximum(x, y)], axis=-1)


@dataclass(eq=False)
class PairExample:
    """Two embeddings and whether they match; it owns float64 copies of them, as a FeatureRecord does."""

    x: np.ndarray
    y: np.ndarray
    relevant: bool

    def __post_init__(self):
        self.x = np.array(self.x, dtype=np.float64)
        self.y = np.array(self.y, dtype=np.float64)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise DimensionError(
                f"pair vectors must be 1-D and equal dim, got {self.x.shape} and {self.y.shape}"
            )
        if self.x.size == 0 or not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise DataError("pair vectors must be nonempty and finite")


@dataclass(eq=False)
class PairHead:
    """Sigmoid-output MLP over the 4d joint feature."""

    mlp: MlpParams

    def __post_init__(self):
        if self.mlp.input_dim % 4 != 0:
            raise DimensionError(
                f"pair head input dim must be 4*d, got {self.mlp.input_dim}"
            )
        if self.mlp.output_dim != 1:
            raise DimensionError(f"pair head must output a scalar, got {self.mlp.output_dim}")

    @property
    def embedding_dim(self) -> int:
        return self.mlp.input_dim // 4


def pair_loss_and_grads(mlp: MlpParams, features: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy on sigmoid scores, plus analytic gradients.

    Uses the logits form of BCE (never exponentiates a large positive value),
    whose gradient w.r.t. the logits is (sigmoid(z) - t) / N.
    """
    logits, cache = mlp_forward(mlp, features)
    z = logits[:, 0]
    t = np.asarray(targets, dtype=np.float64)
    loss = float(np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))))
    dz = (sigmoid(z) - t) / z.size
    grads = mlp_backward(mlp, cache, dz[:, None])
    return loss, grads


def fit_pair_head(examples: list[PairExample], config: TrainConfig) -> PairHead:
    """Train the relevance head in `alignment._train`, on every batch, a 1-item
    tail too; needs at least one positive and one negative."""
    if not examples:
        raise DataError("no training examples")
    n_pos = sum(e.relevant for e in examples)
    if n_pos == 0 or n_pos == len(examples):
        raise DataError(
            f"need both classes to train: got {n_pos} positives out of {len(examples)}"
        )
    features = _pair_features(examples)
    targets = np.array([float(e.relevant) for e in examples])

    d = features.shape[1] // 4
    mlp = init_mlp([4 * d, 2 * d, 1], seeded_rng(config.seed))
    _train([mlp], len(examples), config, lambda idx: pair_loss_and_grads(mlp, features[idx], targets[idx]))
    return PairHead(mlp)


def predict_pair(head: PairHead, x: np.ndarray, y: np.ndarray) -> float:
    """Relevance probability in [0, 1] for one pair; non-finite x or y is a NumericError."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):  # before inf - inf can warn
        raise NumericError("cannot score a pair with non-finite values")
    logits, _ = mlp_forward(head.mlp, combine_pair(x, y)[None, :])
    return float(sigmoid(logits[0, 0]))


def pair_accuracy(head: PairHead, examples: list[PairExample]) -> float:
    """Fraction of examples classified correctly at the 0.5 threshold."""
    if not examples:
        raise UsageError("no examples to score")
    logits, _ = mlp_forward(head.mlp, _pair_features(examples))
    hits = (sigmoid(logits[:, 0]) > 0.5) == np.array([e.relevant for e in examples])
    return np.count_nonzero(hits) / len(examples)


def _pair_features(examples: list[PairExample]) -> np.ndarray:
    dims = {e.x.size for e in examples}
    if len(dims) > 1:
        raise DimensionError(f"examples mix embedding dims {sorted(dims)}")
    return combine_pair(np.array([e.x for e in examples]), np.array([e.y for e in examples]))
