"""Joint embedding alignment: two MLP projection heads map raw text and image
features into one unified unit-norm space, trained with a bidirectional
in-batch cross-entropy over temperature-scaled cosine similarities.

Direction convention: logits rows index images, columns index the in-batch
text candidates.  The image->text loss reads those rows; the text->image loss
reads the transposed logits against transpose-renormalized targets.  The
total loss is their exact sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError, NumericError, UsageError
from .nn import (
    AdamConfig,
    AdamState,
    GradientSet,
    MlpParams,
    adam_step,
    cross_entropy,
    init_mlp,
    mlp_backward,
    mlp_forward,
    stable_softmax,
)
from .records import IMAGE, TEXT, FeatureRecord

DEFAULT_UNIFIED_DIM = 64
DEFAULT_TEMPERATURE = 0.07

_SEED_MASK = (1 << 64) - 1  # SeedSequence wants nonnegative entropy


@dataclass
class TrainConfig:
    """Every training hyperparameter in one place.

    A batch needs at least two pairs: with a single item the in-batch
    softmax loss is identically zero and carries no gradient.
    """

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    temperature: float = DEFAULT_TEMPERATURE
    hidden_dims: tuple[int, ...] = (256,)
    unified_dim: int = DEFAULT_UNIFIED_DIM
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise UsageError(
                f"batch_size must be >= 2 (got {self.batch_size}); a singleton "
                "batch makes the in-batch loss identically zero"
            )
        if self.learning_rate <= 0:
            raise UsageError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.temperature <= 0:
            raise UsageError(f"temperature must be positive, got {self.temperature}")
        if any(d < 1 for d in self.hidden_dims):
            raise UsageError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
        if self.unified_dim < 1:
            raise UsageError(f"unified_dim must be >= 1, got {self.unified_dim}")

    def adam(self) -> AdamConfig:
        return AdamConfig(self.learning_rate, self.beta1, self.beta2, self.epsilon)


@dataclass
class PairedExample:
    """One training pair: a text id and the image it corresponds to.

    `label` optionally names a keyword group; in-batch items sharing a label
    count as extra positives with uniform target mass.
    """

    text_id: str
    image_id: str
    label: str | None = None


@dataclass
class AlignmentModel:
    """The trained (or constructed) pair of projection heads plus temperature.

    The dimension fields default to whatever the heads imply; passing them
    explicitly just adds a consistency check.
    """

    text_head: MlpParams
    image_head: MlpParams
    temperature: float = DEFAULT_TEMPERATURE
    unified_dim: int | None = None
    text_input_dim: int | None = None
    image_input_dim: int | None = None

    def __post_init__(self):
        if self.temperature <= 0:
            raise UsageError(f"temperature must be positive, got {self.temperature}")
        if self.unified_dim is None:
            self.unified_dim = self.text_head.output_dim
        if self.text_input_dim is None:
            self.text_input_dim = self.text_head.input_dim
        if self.image_input_dim is None:
            self.image_input_dim = self.image_head.input_dim
        for name, head in (("text", self.text_head), ("image", self.image_head)):
            if head.output_dim != self.unified_dim:
                raise DimensionError(
                    f"{name} head outputs {head.output_dim} dims, expected "
                    f"unified_dim {self.unified_dim}"
                )
        if self.text_head.input_dim != self.text_input_dim:
            raise DimensionError(
                f"text head expects {self.text_head.input_dim} input dims, "
                f"model declares {self.text_input_dim}"
            )
        if self.image_head.input_dim != self.image_input_dim:
            raise DimensionError(
                f"image head expects {self.image_head.input_dim} input dims, "
                f"model declares {self.image_input_dim}"
            )

    def head_for(self, modality: str) -> MlpParams:
        return self.text_head if modality == TEXT else self.image_head


def normalize_rows(matrix: np.ndarray, ids: Sequence[str] | None = None) -> np.ndarray:
    """L2-normalize each row; a zero row is a hard numeric failure."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        row = int(bad[0])
        who = ids[row] if ids is not None else f"row {row}"
        raise NumericError(f"cannot normalize zero vector ({who})")
    return matrix / norms[:, None]


def project(
    head: MlpParams, features: np.ndarray, ids: Sequence[str] | None = None
) -> np.ndarray:
    """Map raw features into the unified space; output rows are unit-norm."""
    out, _ = mlp_forward(head, np.atleast_2d(np.asarray(features, dtype=np.float64)))
    return normalize_rows(out, ids)


def batch_logits(
    img_unified: np.ndarray, txt_unified: np.ndarray, temperature: float
) -> np.ndarray:
    """Temperature-scaled cosine similarities: logits[i, j] = <img_i, txt_j> / temperature.

    Both inputs must already be unit-norm rows of the same dimension, so the
    dot product is the cosine.
    """
    if temperature <= 0:
        raise UsageError(f"temperature must be positive, got {temperature}")
    img_unified = np.atleast_2d(np.asarray(img_unified, dtype=np.float64))
    txt_unified = np.atleast_2d(np.asarray(txt_unified, dtype=np.float64))
    if img_unified.shape[1] != txt_unified.shape[1]:
        raise DimensionError(
            f"image vectors have dim {img_unified.shape[1]}, text vectors "
            f"{txt_unified.shape[1]}"
        )
    return img_unified @ txt_unified.T / temperature


def batch_targets(labels: Sequence[str | None]) -> np.ndarray:
    """Build the in-batch target matrix from per-pair labels.

    Item j is a positive for anchor i when i == j, or when both carry the
    same non-None label.  Each row spreads its mass uniformly.
    """
    codes: dict[str, int] = {}
    # equal codes mark positives; an unlabelled item gets a code of its own
    tags = np.array([
        -1 - i if label is None else codes.setdefault(label, len(codes))
        for i, label in enumerate(labels)
    ])
    y = (tags[:, None] == tags[None, :]).astype(np.float64)
    return y / y.sum(axis=1, keepdims=True)


def transpose_targets(y: np.ndarray) -> np.ndarray:
    """Targets for the reverse direction: transpose, then renormalize rows."""
    y = np.asarray(y, dtype=np.float64)
    yt = y.T.copy()
    sums = yt.sum(axis=1)
    if np.any(sums == 0):
        j = int(np.flatnonzero(sums == 0)[0])
        raise DataError(f"text item {j} is a positive for no image; targets are invalid")
    return yt / sums[:, None]


def alignment_loss(logits: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Both directional losses and their exact sum.

    Image->text reads row-softmaxed logits against y; text->image reads the
    transposed logits against transpose-renormalized targets.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if logits.shape != y.shape:
        raise DimensionError(f"logits shape {logits.shape} != targets shape {y.shape}")
    loss_i2t = cross_entropy(y, stable_softmax(logits, axis=1))
    yt = transpose_targets(y)
    loss_t2i = cross_entropy(yt, stable_softmax(logits.T, axis=1))
    return loss_i2t, loss_t2i, loss_i2t + loss_t2i


def _normalize_backward(
    grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    # d/dv of v/||v||: project out the radial component, divide by the norm
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms[:, None]


def alignment_gradients(
    model: AlignmentModel,
    text_batch: np.ndarray,
    image_batch: np.ndarray,
    y: np.ndarray,
) -> tuple[tuple[float, float, float], GradientSet, GradientSet]:
    """Losses plus analytic gradients of the total loss w.r.t. both heads.

    This is the training step's core; the finite-difference oracle in the
    test suite checks it end to end (softmax, cross-entropy, normalization,
    and the MLPs).
    """
    text_batch = np.atleast_2d(np.asarray(text_batch, dtype=np.float64))
    image_batch = np.atleast_2d(np.asarray(image_batch, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    n, m = image_batch.shape[0], text_batch.shape[0]
    if y.shape != (n, m):
        raise DimensionError(f"targets shape {y.shape} does not match batch ({n}, {m})")

    raw_txt, cache_txt = mlp_forward(model.text_head, text_batch)
    raw_img, cache_img = mlp_forward(model.image_head, image_batch)
    norms_txt = np.linalg.norm(raw_txt, axis=1)
    norms_img = np.linalg.norm(raw_img, axis=1)
    if np.any(norms_txt == 0) or np.any(norms_img == 0):
        raise NumericError("projection produced a zero vector; cannot normalize")
    u_txt = raw_txt / norms_txt[:, None]
    u_img = raw_img / norms_img[:, None]

    tau = model.temperature
    logits = u_img @ u_txt.T / tau
    p_i2t = stable_softmax(logits, axis=1)
    yt = transpose_targets(y)
    p_t2i = stable_softmax(logits.T, axis=1)
    loss_i2t = cross_entropy(y, p_i2t)
    loss_t2i = cross_entropy(yt, p_t2i)
    losses = (loss_i2t, loss_t2i, loss_i2t + loss_t2i)

    # Rows of y and yt sum to 1, so d(loss)/d(logits) collapses to the
    # usual softmax-minus-target form, scaled by the 1/(n*m) averaging.
    d_logits = ((p_i2t - y) + (p_t2i - yt).T) / (n * m)
    grad_u_img = d_logits @ u_txt / tau
    grad_u_txt = d_logits.T @ u_img / tau

    grad_raw_img = _normalize_backward(grad_u_img, u_img, norms_img)
    grad_raw_txt = _normalize_backward(grad_u_txt, u_txt, norms_txt)

    text_grads = mlp_backward(model.text_head, cache_txt, grad_raw_txt)
    image_grads = mlp_backward(model.image_head, cache_img, grad_raw_img)
    return losses, text_grads, image_grads


def _resolve_pairs(
    text_features: Sequence[FeatureRecord],
    image_features: Sequence[FeatureRecord],
    pairs: Sequence[PairedExample],
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    texts = {r.id: r for r in text_features}
    images = {r.id: r for r in image_features}
    t_rows, i_rows, labels = [], [], []
    for pair in pairs:
        t = texts.get(pair.text_id)
        if t is None or t.modality != TEXT:
            raise DataError(f"pair references unknown text id {pair.text_id!r}")
        i = images.get(pair.image_id)
        if i is None or i.modality != IMAGE:
            raise DataError(f"pair references unknown image id {pair.image_id!r}")
        t_rows.append(t.vector)
        i_rows.append(i.vector)
        labels.append(pair.label)
    dims_t = {v.size for v in t_rows}
    dims_i = {v.size for v in i_rows}
    if len(dims_t) > 1 or len(dims_i) > 1:
        raise DataError(f"inconsistent feature dims: text {sorted(dims_t)}, image {sorted(dims_i)}")
    return np.stack(t_rows), np.stack(i_rows), labels


def fit(
    text_features: Sequence[FeatureRecord],
    image_features: Sequence[FeatureRecord],
    pairs: Sequence[PairedExample],
    config: TrainConfig,
) -> tuple[AlignmentModel, list[float]]:
    """Train both projection heads; returns the model and per-epoch mean loss.

    Deterministic given (inputs, config): weight init draws from the config
    seed, and each epoch shuffles with a stream derived from (seed, epoch).
    Partial batches smaller than 2 are dropped.
    """
    if len(pairs) < 2:
        raise DataError(f"need at least 2 pairs to train, got {len(pairs)}")
    text_mat, image_mat, labels = _resolve_pairs(text_features, image_features, pairs)

    seed = config.seed & _SEED_MASK
    rng_init = np.random.default_rng(seed)
    text_head = init_mlp(
        [text_mat.shape[1], *config.hidden_dims, config.unified_dim], rng_init
    )
    image_head = init_mlp(
        [image_mat.shape[1], *config.hidden_dims, config.unified_dim], rng_init
    )
    model = AlignmentModel(
        text_head=text_head,
        image_head=image_head,
        unified_dim=config.unified_dim,
        temperature=config.temperature,
        text_input_dim=text_mat.shape[1],
        image_input_dim=image_mat.shape[1],
    )

    adam = config.adam()
    state_txt = AdamState.zeros_like(model.text_head)
    state_img = AdamState.zeros_like(model.image_head)
    n = len(pairs)
    history: list[float] = []
    for epoch in range(config.epochs):
        perm = np.random.default_rng([seed, epoch]).permutation(n)
        batch_losses = []
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            if idx.size < 2:
                continue
            y = batch_targets([labels[i] for i in idx])
            try:
                losses, g_txt, g_img = alignment_gradients(
                    model, text_mat[idx], image_mat[idx], y
                )
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b}: {exc}"
                ) from exc
            if not np.isfinite(losses[2]):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}")
            adam_step(model.text_head, g_txt, state_txt, adam)  # in place
            adam_step(model.image_head, g_img, state_img, adam)
            batch_losses.append(losses[2])
        history.append(float(np.mean(batch_losses)) if batch_losses else 0.0)
    return model, history


def linear_model(
    text_weight: np.ndarray,
    image_weight: np.ndarray,
    temperature: float = DEFAULT_TEMPERATURE,
) -> AlignmentModel:
    """Wrap two fixed linear maps (out_dim x in_dim) as an untrained model."""
    from .nn import LinearLayer  # local import keeps the public surface tidy

    text_weight = np.asarray(text_weight, dtype=np.float64)
    image_weight = np.asarray(image_weight, dtype=np.float64)
    if text_weight.shape[0] != image_weight.shape[0]:
        raise DimensionError(
            f"heads disagree on output dim: {text_weight.shape[0]} vs {image_weight.shape[0]}"
        )
    out_dim = text_weight.shape[0]
    return AlignmentModel(
        text_head=MlpParams([LinearLayer(text_weight, np.zeros(out_dim))]),
        image_head=MlpParams([LinearLayer(image_weight, np.zeros(out_dim))]),
        unified_dim=out_dim,
        temperature=temperature,
        text_input_dim=text_weight.shape[1],
        image_input_dim=image_weight.shape[1],
    )


def random_projection_model(
    text_input_dim: int,
    image_input_dim: int,
    unified_dim: int = DEFAULT_UNIFIED_DIM,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = 0,
) -> AlignmentModel:
    """Frozen random linear heads; the untrained chance-level baseline."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    text_head = init_mlp([text_input_dim, unified_dim], rng)
    image_head = init_mlp([image_input_dim, unified_dim], rng)
    return AlignmentModel(
        text_head=text_head,
        image_head=image_head,
        unified_dim=unified_dim,
        temperature=temperature,
        text_input_dim=text_input_dim,
        image_input_dim=image_input_dim,
    )
