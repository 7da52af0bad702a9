"""Joint embedding alignment: two MLP projection heads map raw text and image
features into one unified unit-norm space, trained with a bidirectional
in-batch cross-entropy over temperature-scaled cosine similarities.

Direction convention: logits rows index images, columns index the in-batch
text candidates.  The image->text loss reads those rows; the text->image loss
reads the transposed logits against transpose-renormalized targets.  The
total loss is their exact sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Sequence

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


def _check_temperature(temperature: float) -> None:
    if not (np.isfinite(temperature) and temperature > 0):  # `<= 0` alone lets NaN pass
        raise UsageError(f"temperature must be positive and finite, got {temperature}")


_SEED_MASK = (1 << 64) - 1  # SeedSequence wants nonnegative entropy


def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """The stream of every seeded draw in cardl; with no streams, `default_rng(seed)`'s."""
    return np.random.default_rng([seed & _SEED_MASK, *streams])


@dataclass
class TrainConfig:
    """Every training hyperparameter in one place.

    A batch needs at least two pairs: with a single item the in-batch
    softmax loss is identically zero and carries no gradient.
    """

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = AdamConfig.learning_rate
    temperature: float = DEFAULT_TEMPERATURE
    hidden_dims: tuple[int, ...] = (256,)
    unified_dim: int = DEFAULT_UNIFIED_DIM
    seed: int = 0

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise UsageError(
                f"batch_size must be >= 2 (got {self.batch_size}); a singleton "
                "batch makes the in-batch loss identically zero"
            )
        if not 0 < self.learning_rate < np.inf:  # `<= 0` alone lets NaN pass
            raise UsageError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        _check_temperature(self.temperature)
        if any(d < 1 for d in self.hidden_dims):
            raise UsageError(f"hidden_dims must all be >= 1, got {self.hidden_dims}")
        if self.unified_dim < 1:
            raise UsageError(f"unified_dim must be >= 1, got {self.unified_dim}")


@dataclass
class PairedExample:
    """One training pair: a text id and the image it corresponds to.

    `label` optionally names a keyword group; in-batch items sharing a label
    count as extra positives with uniform target mass.
    """

    text_id: str
    image_id: str
    label: str | None = None


@dataclass(eq=False)
class AlignmentModel:
    """The trained (or constructed) pair of projection heads plus temperature.

    Its dimensions are read off the heads, which must agree on the output dim.
    """

    text_head: MlpParams
    image_head: MlpParams
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        _check_temperature(self.temperature)
        if self.text_head.output_dim != self.image_head.output_dim:
            raise DimensionError(
                f"heads disagree on output dim: text {self.text_head.output_dim}, "
                f"image {self.image_head.output_dim}"
            )

    @property
    def unified_dim(self) -> int:
        return self.text_head.output_dim

    @property
    def text_input_dim(self) -> int:
        return self.text_head.input_dim

    @property
    def image_input_dim(self) -> int:
        return self.image_head.input_dim

    def head_for(self, modality: str) -> MlpParams:
        return self.text_head if modality == TEXT else self.image_head


# Below this norm, v.v is near or in the subnormal range and has lost bits.
_NORM_FLOOR = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps


def _row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Each row of `rows` dotted with the matching row of `other`, or with
    the vector `other`, one BLAS dot per row: cardl's one float64 dot.  Each
    row has the bits of np.dot(row, other_row), whatever the other rows
    hold; a single vector's float `v @ v` (`_unit_vector`, `_topk_one`), the
    one other spelling, has those of `_row_dots(v[None], v)[0]` at half the
    cost.  numpy warns when a dot overflows unless errors are suppressed."""
    return (rows[:, None, :] @ other[..., None])[:, 0, 0]


def _dot_norms(matrix: np.ndarray) -> np.ndarray:
    """The L2 norm of each row, sqrt(row . row) by `_row_dots`: cardl's one
    row norm.  Each row's bits are those of np.linalg.norm(row) alone,
    whatever the other rows hold."""
    return np.sqrt(_row_dots(matrix, matrix))


def _unit_rows(matrix: np.ndarray, ids: Sequence[str] | None = None, what: str = "vector",
               out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its `_dot_norms`, into `out` (`matrix` itself too), and
    the norms; a zero row or one holding NaN or +-inf is a NumericError
    naming its id.  A finite row whose norm is below _NORM_FLOOR or
    overflows is first divided by max|row|, then by its norm; its norm is
    recomputed as row . unit."""
    norms = _dot_norms(matrix)
    if _NORM_FLOOR <= norms.min(initial=np.inf) and norms.max(initial=0.0) < np.inf:
        return np.divide(matrix, norms[:, None], out=out), norms
    bad = np.flatnonzero(~((_NORM_FLOOR <= norms) & (norms < np.inf)))  # NaN norms too
    rows = matrix[bad]  # a copy, taken before `out` may overwrite `matrix`

    def name(row):
        return ids[row] if ids is not None else f"row {row}"

    nonfinite = ~np.isfinite(rows).all(axis=1)
    if nonfinite.any():
        raise NumericError(f"cannot normalize non-finite {what} ({name(bad[np.argmax(nonfinite)])})")
    scale = np.abs(rows).max(axis=1, initial=0.0)
    scaled = rows / np.where(0.0 < scale, scale, 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rescued = _dot_norms(scaled)
        if (rescued == 0.0).any():
            raise NumericError(f"cannot normalize zero {what} ({name(bad[np.argmax(rescued == 0.0)])})")
        unit = np.divide(matrix, norms[:, None], out=out)  # the rescued rows are overwritten below
        unit[bad] = scaled / rescued[:, None]
        norms[bad] = _row_dots(rows, unit[bad])
    return unit, norms


def _unit_vector(v: np.ndarray, ids: Sequence[str] | None = None, what: str = "vector") -> np.ndarray:
    """One vector over its norm, the float sqrt(v @ v) (see `_row_dots`).  A
    norm outside [_NORM_FLOOR, inf), NaN included, goes to `_unit_rows`,
    which rescues the vector or refuses it as it would the row."""
    norm = math.sqrt(v @ v)
    if _NORM_FLOOR <= norm < math.inf:
        return v / norm
    return _unit_rows(v[None], ids, what)[0][0]


def l2_normalize(v: np.ndarray, ids: Sequence[str] | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """A vector, or each row of a matrix on its own, over its `_dot_norms`,
    into `out` when given (a matrix, v itself too); a zero row or one
    holding NaN or +-inf is a NumericError naming its id.  numpy warns when
    row . row overflows, as in `_row_dots`."""
    v = np.asarray(v, dtype=np.float64)
    return _unit_rows(np.atleast_2d(v), ids, out=out)[0].reshape(v.shape)


def project(head: MlpParams, features: np.ndarray, ids: Sequence[str] | None = None) -> np.ndarray:
    """Map raw features into the unified space; output rows are unit-norm.

    Each row is projected and normalized on its own, so its bits do not
    depend on the other rows: the forward pass runs on `rows[:, None, :]`,
    where matmul makes one GEMV per row (one GEMM rounds differently), and
    `_unit_rows` takes one dot per row.  A single 1-D vector, as a query
    is, goes through `mlp_forward` and `_unit_vector` as it is, with the
    same bits, and comes back as one row.  Training normalizes with the
    same norm.  A projection that is zero or not finite is a NumericError
    naming its id.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        return _unit_vector(mlp_forward(head, features)[0], ids, "projection")[None]
    rows = np.atleast_2d(features)
    return _unit_rows(mlp_forward(head, rows[:, None, :])[0][:, 0], ids, "projection")[0]


def batch_logits(
    img_unified: np.ndarray, txt_unified: np.ndarray, temperature: float
) -> np.ndarray:
    """Temperature-scaled cosine similarities: logits[i, j] = <img_i, txt_j> / temperature.

    Both inputs must already be unit-norm rows of the same dimension, so the
    dot product is the cosine.
    """
    _check_temperature(temperature)
    img_unified = np.atleast_2d(np.asarray(img_unified, dtype=np.float64))
    txt_unified = np.atleast_2d(np.asarray(txt_unified, dtype=np.float64))
    if img_unified.shape[1] != txt_unified.shape[1]:
        raise DimensionError(
            f"image vectors have dim {img_unified.shape[1]}, text vectors "
            f"{txt_unified.shape[1]}"
        )
    return img_unified @ txt_unified.T / temperature


def batch_targets(*keys: Sequence[Hashable | None] | np.ndarray) -> np.ndarray:
    """Build the in-batch target matrix from per-pair keys (labels, ids).

    Item j is a positive for anchor i when i == j, or when the two carry the
    same non-None value in any of the key sequences.  Each row spreads its
    mass uniformly.  A key may also be a 1-D integer array of tags, used as
    is: `fit` codes each key once per run with `_key_tags` and passes each
    batch its slice.
    """
    if len({len(key) for key in keys}) != 1:
        raise DimensionError(f"need key sequences of one length, got {[len(k) for k in keys]}")
    y = np.eye(len(keys[0]), dtype=bool)
    for key in keys:
        is_tags = isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu"
        tags = key if is_tags else _key_tags(key)
        y |= tags[:, None] == tags[None, :]
    y = y.astype(np.float64)
    return y / y.sum(axis=1, keepdims=True)


def _key_tags(key: Sequence[Hashable | None]) -> np.ndarray:
    """One integer per item, equal where the values are equal; each None gets
    a code of its own, so it marks no positive."""
    codes: dict[Hashable, int] = {}
    return np.array([-1 - i if value is None else codes.setdefault(value, len(codes))
                     for i, value in enumerate(key)], dtype=np.int64)


def transpose_targets(y: np.ndarray) -> np.ndarray:
    """Targets for the reverse direction: transpose, then renormalize rows."""
    y = np.asarray(y, dtype=np.float64)
    yt = y.T.copy()
    sums = yt.sum(axis=1)
    if np.any(sums == 0):
        j = int(np.flatnonzero(sums == 0)[0])
        raise DataError(f"text item {j} is a positive for no image; targets are invalid")
    return yt / sums[:, None]


def _directional(logits: np.ndarray, y: np.ndarray):
    """(losses, p_i2t, yt, p_t2i): both directional losses with their exact
    sum, each direction's softmax, and the text->image targets."""
    p_i2t = stable_softmax(logits, axis=1)
    yt = transpose_targets(y)
    p_t2i = stable_softmax(logits.T, axis=1)
    loss_i2t = cross_entropy(y, p_i2t)
    loss_t2i = cross_entropy(yt, p_t2i)
    return (loss_i2t, loss_t2i, loss_i2t + loss_t2i), p_i2t, yt, p_t2i


def alignment_loss(logits: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Both directional losses and their exact sum.

    Image->text reads row-softmaxed logits against y; text->image reads the
    transposed logits against transpose-renormalized targets.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if logits.shape != y.shape:
        raise DimensionError(f"logits shape {logits.shape} != targets shape {y.shape}")
    return _directional(logits, y)[0]


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
    u_txt, norms_txt = _unit_rows(raw_txt, what="text projection")
    u_img, norms_img = _unit_rows(raw_img, what="image projection")
    tau = model.temperature
    losses, p_i2t, yt, p_t2i = _directional(batch_logits(u_img, u_txt, tau), y)

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
) -> tuple[np.ndarray, np.ndarray]:
    texts = {r.id: r for r in text_features}
    images = {r.id: r for r in image_features}
    t_rows, i_rows = [], []
    for pair in pairs:
        t = texts.get(pair.text_id)
        if t is None or t.modality != TEXT:
            raise DataError(f"pair references unknown text id {pair.text_id!r}")
        i = images.get(pair.image_id)
        if i is None or i.modality != IMAGE:
            raise DataError(f"pair references unknown image id {pair.image_id!r}")
        t_rows.append(t.vector)
        i_rows.append(i.vector)
    dims_t = {v.size for v in t_rows}
    dims_i = {v.size for v in i_rows}
    if len(dims_t) > 1 or len(dims_i) > 1:
        raise DataError(f"inconsistent feature dims: text {sorted(dims_t)}, image {sorted(dims_i)}")
    return np.stack(t_rows), np.stack(i_rows)


def _minibatches(n: int, config: TrainConfig, epoch: int) -> Iterator[tuple[int, np.ndarray]]:
    """(batch number, row indices) for one epoch over n items: a permutation
    drawn from (seed, epoch), cut into slices of batch_size."""
    perm = seeded_rng(config.seed, epoch).permutation(n)
    for b, start in enumerate(range(0, n, config.batch_size)):
        yield b, perm[start : start + config.batch_size]


def _train(heads: Sequence[MlpParams], n: int, config: TrainConfig,
           step: Callable[[np.ndarray], tuple | None]) -> list[float]:
    """The one training loop: per `_minibatches` batch, `step(idx)` gives (loss,
    a gradient per head), or None to skip, and each head takes an Adam step in
    place.  Returns each epoch's mean loss (0.0 with no batch).  A non-finite
    loss or any NumericError names its epoch and batch."""
    adam = AdamConfig(config.learning_rate)
    states = [AdamState.zeros_like(head) for head in heads]
    history: list[float] = []
    for epoch in range(config.epochs):
        losses = []
        for b, idx in _minibatches(n, config, epoch):
            try:
                out = step(idx)
                if out is None:
                    continue
                loss, *grads = out
                if not np.isfinite(loss):
                    raise NumericError("non-finite loss")
                for head, g, state in zip(heads, grads, states):
                    adam_step(head, g, state, adam)
            except NumericError as exc:  # e.g. a zero projection, naming head and batch row
                raise NumericError(f"{exc} at epoch {epoch}, batch {b}") from exc
            losses.append(loss)
        history.append(float(np.mean(losses)) if losses else 0.0)
    return history


def fit(
    text_features: Sequence[FeatureRecord],
    image_features: Sequence[FeatureRecord],
    pairs: Sequence[PairedExample],
    config: TrainConfig,
) -> tuple[AlignmentModel, list[float]]:
    """Train both projection heads in `_train`; returns the model and per-epoch mean loss.

    Deterministic given (inputs, config): weight init draws from the config
    seed, and each epoch shuffles with a stream derived from (seed, epoch).
    Partial batches smaller than 2 are dropped.  Pairs that share a label, a
    text id or an image id are in-batch positives of each other.
    """
    if len(pairs) < 2:
        raise DataError(f"need at least 2 pairs to train, got {len(pairs)}")
    text_mat, image_mat = _resolve_pairs(text_features, image_features, pairs)
    tags = [_key_tags([getattr(p, key) for p in pairs]) for key in ("label", "text_id", "image_id")]

    rng_init = seeded_rng(config.seed)
    dims = [*config.hidden_dims, config.unified_dim]
    model = AlignmentModel(
        text_head=init_mlp([text_mat.shape[1], *dims], rng_init),
        image_head=init_mlp([image_mat.shape[1], *dims], rng_init),
        temperature=config.temperature,
    )

    def step(idx):
        if idx.size < 2:
            return None
        y = batch_targets(*(t[idx] for t in tags))
        losses, g_txt, g_img = alignment_gradients(model, text_mat[idx], image_mat[idx], y)
        return losses[2], g_txt, g_img

    return model, _train([model.text_head, model.image_head], len(pairs), config, step)


def linear_model(
    text_weight: np.ndarray,
    image_weight: np.ndarray,
    temperature: float = DEFAULT_TEMPERATURE,
) -> AlignmentModel:
    """Wrap two fixed linear maps (out_dim x in_dim) as an untrained model."""
    from .nn import LinearLayer  # local import keeps the public surface tidy

    def head(weight):
        weight = np.asarray(weight, dtype=np.float64)
        return MlpParams([LinearLayer(weight, np.zeros(len(weight)))])

    return AlignmentModel(head(text_weight), head(image_weight), temperature)


def random_projection_model(
    text_input_dim: int,
    image_input_dim: int,
    unified_dim: int = DEFAULT_UNIFIED_DIM,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = 0,
) -> AlignmentModel:
    """Frozen random linear heads; the untrained chance-level baseline."""
    rng = seeded_rng(seed)
    text_head = init_mlp([text_input_dim, unified_dim], rng)
    image_head = init_mlp([image_input_dim, unified_dim], rng)
    return AlignmentModel(text_head, image_head, temperature)
