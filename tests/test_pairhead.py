import numpy as np
import pytest

from cardl.alignment import TrainConfig
from cardl.errors import DataError, DimensionError, NumericError
from cardl.nn import (
    finite_diff_grad,
    flatten_grads,
    flatten_params,
    init_mlp,
    unflatten_params,
)
from cardl.pairhead import (
    PairExample,
    PairHead,
    combine_pair,
    fit_pair_head,
    pair_accuracy,
    pair_loss_and_grads,
    predict_pair,
)


def separable_examples(d=8, n_pairs=100, seed=0):
    """Positives are identical pairs, negatives are orthogonal pairs."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_pairs):
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        examples.append(PairExample(x, x.copy(), relevant=True))
        y = rng.normal(size=d)
        y -= (y @ x) * x
        y /= np.linalg.norm(y)
        examples.append(PairExample(x, y, relevant=False))
    return examples


# ------------------------------------------------------------ combine_pair --

def test_combine_pair_identical_inputs():
    out = combine_pair(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0, 0.0, 0.0, 1.0, 2.0])


def test_combine_pair_scalar_vectors():
    out = combine_pair(np.array([1.0]), np.array([0.0]))
    assert np.array_equal(out, [1.0, 0.0, 1.0, 1.0])


def test_combine_pair_blocks_in_order():
    x = np.array([3.0, -1.0])
    y = np.array([1.0, 4.0])
    out = combine_pair(x, y)
    assert np.array_equal(out[:2], x)
    assert np.array_equal(out[2:4], y)
    assert np.array_equal(out[4:6], [2.0, 5.0])
    assert np.array_equal(out[6:], [3.0, 4.0])


def test_combine_pair_dim_mismatch():
    with pytest.raises(DimensionError):
        combine_pair(np.ones(2), np.ones(3))
    with pytest.raises(DimensionError):
        combine_pair(np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(DimensionError):
        combine_pair(np.ones((2, 1, 2)), np.ones((2, 1, 2)))


def test_combine_pair_of_rows_equals_each_pair_combined():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(2, 5, 3))
    rows = combine_pair(x, y)
    assert rows.tobytes() == np.stack([combine_pair(a, b) for a, b in zip(x, y)]).tobytes()


def test_pair_example_validation():
    with pytest.raises(DimensionError):
        PairExample(np.ones(2), np.ones(4), relevant=True)


@pytest.mark.parametrize("x, y", [([np.inf], [1.0]), ([1.0, 2.0], [np.nan, 0.0]), ([-np.inf], [np.inf]), ([], [])])
def test_pair_example_refuses_empty_or_non_finite_vectors(x, y):
    with pytest.raises(DataError, match="nonempty and finite"):
        PairExample(x, y, relevant=True)


def test_a_pair_example_owns_its_vectors():
    """A later write to the arrays it was given cannot slip a NaN past its check."""
    x, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    example = PairExample(x, y, relevant=True)
    x[0] = y[0] = np.nan
    assert example.x.tolist() == [0.0, 1.0] and example.y.tolist() == [1.0, 0.0]


# --------------------------------------------------------------- head shape --

def test_pair_head_shape_rules():
    rng = np.random.default_rng(0)
    PairHead(init_mlp([8, 4, 1], rng))
    with pytest.raises(DimensionError):
        PairHead(init_mlp([7, 4, 1], rng))  # not a multiple of 4
    with pytest.raises(DimensionError):
        PairHead(init_mlp([8, 4, 2], rng))  # non-scalar output


def test_pair_head_embedding_dim():
    head = PairHead(init_mlp([12, 6, 1], np.random.default_rng(0)))
    assert head.embedding_dim == 3


# --------------------------------------------------------------------- loss --

def test_pair_loss_matches_naive_bce_in_safe_range():
    rng = np.random.default_rng(1)
    mlp = init_mlp([8, 4, 1], rng)
    feats = rng.normal(size=(6, 8))
    targets = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    loss, _ = pair_loss_and_grads(mlp, feats, targets)
    z = np.stack([mlp.layers[1].weight @ np.maximum(mlp.layers[0].weight @ f + mlp.layers[0].bias, 0.0) + mlp.layers[1].bias for f in feats])[:, 0]
    p = 1.0 / (1.0 + np.exp(-z))
    naive = float(np.mean(-targets * np.log(p) - (1 - targets) * np.log(1 - p)))
    assert abs(loss - naive) < 1e-9


def test_pair_loss_stable_at_extreme_logits():
    # a linear head with huge weights drives |z| into the hundreds
    from cardl.nn import LinearLayer, MlpParams

    mlp = MlpParams([LinearLayer(np.full((1, 4), 500.0), np.zeros(1))])
    feats = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
    loss, grads = pair_loss_and_grads(mlp, feats, np.array([1.0, 0.0]))
    assert np.isfinite(loss)
    assert all(np.all(np.isfinite(gw)) and np.all(np.isfinite(gb)) for gw, gb in grads)


def test_pair_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    mlp = init_mlp([8, 4, 1], rng)
    feats = rng.normal(size=(5, 8))
    targets = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    _, grads = pair_loss_and_grads(mlp, feats, targets)

    def loss_of(flat):
        return pair_loss_and_grads(unflatten_params(mlp, flat), feats, targets)[0]

    num = finite_diff_grad(loss_of, flatten_params(mlp))
    ana = flatten_grads(grads)
    assert np.max(np.abs(num - ana)) < 1e-6 * max(1.0, np.max(np.abs(num)))


# ----------------------------------------------------------------- training --

def test_fit_pair_head_architecture_and_determinism():
    examples = separable_examples(d=4, n_pairs=20)
    cfg = TrainConfig(epochs=5, batch_size=8, seed=3)
    h1 = fit_pair_head(examples, cfg)
    h2 = fit_pair_head(examples, cfg)
    assert h1.embedding_dim == 4
    assert [l.weight.shape for l in h1.mlp.layers] == [(8, 16), (1, 8)]
    for a, b in zip(h1.mlp.layers, h2.mlp.layers):
        assert np.array_equal(a.weight, b.weight)


def test_fit_pair_head_rejects_single_class():
    examples = [e for e in separable_examples(d=4, n_pairs=10) if e.relevant]
    with pytest.raises(DataError):
        fit_pair_head(examples, TrainConfig(epochs=1))
    with pytest.raises(DataError):
        fit_pair_head([], TrainConfig(epochs=1))


def test_fit_pair_head_rejects_mixed_dims():
    examples = separable_examples(d=4, n_pairs=2) + separable_examples(d=6, n_pairs=2)
    with pytest.raises(DimensionError):
        fit_pair_head(examples, TrainConfig(epochs=1))


def test_fit_pair_head_separates_toy_classes():
    examples = separable_examples(d=8, n_pairs=50, seed=4)
    head = fit_pair_head(examples, TrainConfig(epochs=100, batch_size=32, seed=0))
    assert pair_accuracy(head, examples) >= 0.95
    pos = [e for e in examples if e.relevant][0]
    neg = [e for e in examples if not e.relevant][0]
    assert predict_pair(head, pos.x, pos.y) > 0.5
    assert predict_pair(head, neg.x, neg.y) < 0.5


def test_predict_pair_in_unit_interval():
    head = PairHead(init_mlp([8, 4, 1], np.random.default_rng(5)))
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = predict_pair(head, rng.normal(size=2), rng.normal(size=2))
        assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("x, y", [([np.nan, 0.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, np.inf]), ([-np.inf, 0.0], [1.0, 0.0]),
                                  ([np.inf, 0.0], [np.inf, 0.0])])
def test_predict_pair_refuses_non_finite_input(x, y):
    head = PairHead(init_mlp([8, 4, 1], np.random.default_rng(5)))
    with pytest.raises(NumericError, match="non-finite"):
        predict_pair(head, np.array(x), np.array(y))


def test_pair_accuracy_counts_threshold_halves():
    examples = separable_examples(d=4, n_pairs=4)
    head = fit_pair_head(examples, TrainConfig(epochs=60, batch_size=4, seed=1))
    acc = pair_accuracy(head, examples)
    assert 0.0 <= acc <= 1.0
    correct = sum(
        (predict_pair(head, e.x, e.y) >= 0.5) == e.relevant for e in examples
    )
    assert acc == correct / len(examples)
