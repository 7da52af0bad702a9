"""Dense MLP arithmetic with analytic gradients, plus the numeric primitives
built on top of it: stable softmax, doubly-averaged cross-entropy, Adam
(whose b1, b2 and eps are the fixed ADAM_* constants) and a
central-difference gradient oracle for testing.

Everything here is float64 and deterministic, and holds no global state.
Each MLP keeps its parameters in one contiguous vector (`MlpParams.flat`)
that its layers view.  `adam_step` updates that vector and the optimizer
state in place; every other function leaves its inputs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DimensionError, NumericError, UsageError

LOG_FLOOR = 1e-12
# Kingma & Ba's recommended moment decays and denominator floor; only the
# learning rate (TrainConfig.learning_rate) is a training setting.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


@dataclass(eq=False)
class LinearLayer:
    """One affine layer.  weight has shape (out_dim, in_dim), bias (out_dim,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise DimensionError(f"layer weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match weight rows "
                f"({self.weight.shape[0]})"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass(eq=False)
class MlpParams:
    """A rectifier MLP: ReLU after every layer except the last (linear) one.

    All parameters live in one contiguous vector, `flat`: each layer's
    weight (row-major), then its bias, layer by layer.  The arrays of
    `layers` are views of it, so an in-place update of `flat` is seen
    through them.  Construction copies the given arrays into a fresh `flat`
    and refuses non-finite values.
    """

    layers: list[LinearLayer]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise UsageError("an MLP needs at least one layer")
        for k in range(1, len(self.layers)):
            prev, cur = self.layers[k - 1], self.layers[k]
            if cur.in_dim != prev.out_dim:
                raise DimensionError(
                    f"layer {k} expects input dim {cur.in_dim} but layer {k - 1} "
                    f"produces {prev.out_dim}"
                )
        self.flat = np.concatenate([a.ravel() for l in self.layers for a in (l.weight, l.bias)])
        views = _layer_views(self.flat, self.shapes)
        if not np.isfinite(self.flat).all():
            raise NumericError(f"non-finite parameter at layer {_first_non_finite(views)}")
        self.layers = [LinearLayer(w, b) for w, b in views]

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def shapes(self) -> list[tuple[int, int]]:
        """Each layer's weight shape (out_dim, in_dim); with `flat` they make the MLP."""
        return [l.weight.shape for l in self.layers]

    def copy(self) -> "MlpParams":
        return MlpParams(self.layers)  # construction copies into a new flat vector


def _layer_views(
    flat: np.ndarray, shapes: Sequence[tuple[int, int]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of `flat` for layers of these weight shapes, in the
    MlpParams.flat layout."""
    views, i = [], 0
    for out_dim, in_dim in shapes:
        w = flat[i : i + out_dim * in_dim].reshape(out_dim, in_dim)
        i += out_dim * in_dim
        views.append((w, flat[i : i + out_dim]))
        i += out_dim
    return views


def _first_non_finite(pairs) -> int:
    """Index of the first (weight, bias) pair holding a non-finite value."""
    return next(
        k for k, pair in enumerate(pairs) if not all(np.isfinite(a).all() for a in pair)
    )


def init_mlp(dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Build an MLP with the given layer widths, e.g. dims=[128, 256, 64].

    Weights are uniform in +/- sqrt(6 / (fan_in + fan_out)); biases start at
    zero.  Draw order is fixed (layer by layer) so a given generator state
    always yields the same parameters.
    """
    if len(dims) < 2:
        raise UsageError(f"need at least input and output dims, got {list(dims)}")
    if min(dims) < 1:
        raise UsageError(f"layer widths must all be >= 1, got {list(dims)}")
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(LinearLayer(w, np.zeros(fan_out)))
    return MlpParams(layers)


# Cache entries: (layer_input, preactivation) per layer, in forward order.
ForwardCache = list[tuple[np.ndarray, np.ndarray]]


def mlp_forward(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a batch (rows are samples).

    Returns the output batch and the cache mlp_backward needs.  ReLU is
    applied after every layer except the last.  A batch of shape (n, 1, d)
    runs one GEMV per row (see `alignment.project`), and one vector of
    shape (d,) one GEMV per layer, with its row's bits; mlp_backward takes 2-D."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim not in (1, 2) and batch.shape[1:-1] != (1,):
        raise DimensionError(f"batch must be (d,), (rows, d) or (rows, 1, d), got shape {batch.shape}")
    if batch.shape[-1] != params.input_dim:
        raise DimensionError(
            f"batch has {batch.shape[-1]} columns but the first layer expects "
            f"{params.input_dim}"
        )
    cache: ForwardCache = []
    a = batch
    last = len(params.layers) - 1
    for k, layer in enumerate(params.layers):
        z = a @ layer.weight.T + layer.bias
        cache.append((a, z))
        a = z if k == last else relu(z)
    return a, cache


# Gradients mirror MlpParams: one (weight_grad, bias_grad) pair per layer.
GradientSet = list[tuple[np.ndarray, np.ndarray]]


def mlp_backward(params: MlpParams, cache: ForwardCache, grad_out: np.ndarray) -> GradientSet:
    """Backpropagate d(loss)/d(output) through the network.

    `cache` must come from the matching mlp_forward call.  ReLU passes zero
    gradient exactly where the forward pass clamped (preactivation <= 0).
    """
    if not cache:
        raise UsageError("mlp_backward needs the cache from mlp_forward")
    if len(cache) != len(params.layers):
        raise UsageError(
            f"cache has {len(cache)} layers but params has {len(params.layers)}"
        )
    grad_out = np.asarray(grad_out, dtype=np.float64)
    n_rows = cache[0][0].shape[0]
    expected = (n_rows, params.output_dim)
    if grad_out.shape != expected:
        raise DimensionError(f"grad_out shape {grad_out.shape} does not match output {expected}")

    grads: GradientSet = [None] * len(params.layers)  # type: ignore[list-item]
    dz = grad_out
    for k in range(len(params.layers) - 1, -1, -1):
        layer_input, preact = cache[k]
        if k < len(params.layers) - 1:
            dz = dz * (preact > 0)
        grads[k] = (dz.T @ layer_input, dz.sum(axis=0))
        if k > 0:
            dz = dz @ params.layers[k].weight
    return grads


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with the max-shift trick.

    Accepts vectors or batches of rows; output sums to 1 along each row.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise UsageError("softmax of an empty input is undefined")
    if not np.isfinite(logits).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(targets: np.ndarray, probs: np.ndarray) -> float:
    """Cross-entropy between row distributions, averaged over rows *and* columns.

    For an n x m pair of matrices this returns
        -(1/n) * sum_i (1/m) * sum_j  y_ij * log p_ij
    i.e. a 1/(n*m) normalization.  The 1/m factor is kept even for one-hot
    targets so reported values are comparable across runs; it rescales the
    loss by a constant and leaves the minimizer unchanged. log is floored at
    1e-12, applied only where the target mass is positive.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if targets.shape != probs.shape:
        raise DimensionError(
            f"targets shape {targets.shape} does not match probs shape {probs.shape}"
        )
    if np.any(targets < 0):
        raise DataError("targets contain negative entries")
    if np.any(probs < 0):
        raise DataError("probs contain negative entries")
    n, m = targets.shape
    mask = targets > 0
    if not mask.any():
        return 0.0
    logp = np.log(np.maximum(probs[mask], LOG_FLOOR))
    return float(-(targets[mask] * logp).sum() / (n * m))


@dataclass(eq=False)
class AdamState:
    """Moment estimates laid out like MlpParams.flat, plus the step count."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    # a work vector of the same size, reused by every step
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.first_moment)

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(
    params: MlpParams,
    grads: GradientSet,
    state: AdamState,
    learning_rate: float,
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update of params.flat and `state`, in place;
    returns the same two objects.  With b1, b2 and eps the fixed ADAM_*
    constants and lr = `learning_rate`, each coordinate takes, in this order,
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    denom = sqrt(v) * (1/sqrt(1-b2**t)) + eps and
    w -= (lr/(1-b1**t)) * (m/denom).

    This is Kingma & Ba's update with eps added after bias correction, with
    the corrections folded into two scalars as in PyTorch's single-tensor
    Adam: one division per coordinate instead of three.  It rounds
    differently from the textbook form lr * m_hat / (sqrt(v_hat) + eps),
    by a few ulps of each step."""
    shapes = [a.shape for layer in params.layers for a in (layer.weight, layer.bias)]
    if [np.shape(a) for pair in grads for a in pair] != shapes:
        raise DimensionError(f"gradient shapes do not match parameter shapes {shapes}")
    if not state.first_moment.shape == state.second_moment.shape == params.flat.shape:
        raise DimensionError(f"optimizer state does not match {params.flat.size} parameters")
    g = flatten_grads(grads)
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient at layer {_first_non_finite(grads)}")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v, s = state.first_moment, state.second_moment, state.scratch
    m *= b1
    m += np.multiply(1 - b1, g, out=s)
    v *= b2
    np.square(g, out=s)
    s *= 1 - b2
    v += s
    np.sqrt(v, out=s)
    s *= 1 / math.sqrt(1 - b2**t)
    s += ADAM_EPSILON
    np.divide(m, s, out=s)
    s *= learning_rate / (1 - b1**t)
    params.flat -= s
    state.step_count = t
    return params, state


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function: (f(x+h*e_i) - f(x-h*e_i)) / 2h."""
    if h <= 0:
        raise UsageError(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        fp = f(xp)
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"function returned non-finite value near coordinate {i}")
        grad.flat[i] = (fp - fm) / (2 * h)
    return grad


# --- flat vectors, used by the finite-difference checks -----------------------

def flatten_params(params: MlpParams) -> np.ndarray:
    return params.flat.copy()


def unflatten_params(template: MlpParams, vec: np.ndarray) -> MlpParams:
    """New parameters shaped like `template`, copied from a vector in its flat layout."""
    return mlp_from_flat(template.shapes, vec)


def mlp_from_flat(shapes: Sequence[tuple[int, int]], vec: np.ndarray) -> MlpParams:
    """New parameters with these (out_dim, in_dim) layer shapes, copied from a
    vector in the MlpParams.flat layout."""
    vec = np.asarray(vec, dtype=np.float64)
    size = sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes)
    if vec.shape != (size,):
        raise DimensionError(f"vector has {vec.size} entries, layer shapes {list(shapes)} need {size}")
    return MlpParams([LinearLayer(w, b) for w, b in _layer_views(vec, shapes)])


def flatten_grads(grads: GradientSet) -> np.ndarray:
    return np.concatenate([np.ravel(a) for pair in grads for a in pair])


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
