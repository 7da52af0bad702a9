import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardl.errors import DataError, DimensionError, NumericError, UsageError
from cardl.nn import (
    AdamConfig,
    AdamState,
    LinearLayer,
    MlpParams,
    adam_step,
    cross_entropy,
    finite_diff_grad,
    flatten_grads,
    flatten_params,
    init_mlp,
    mlp_backward,
    mlp_forward,
    relu,
    sigmoid,
    stable_softmax,
    unflatten_params,
)

# Frozen by direct evaluation of exp(x)/sum(exp(x)) at [1, 2, 3].
SOFTMAX_123 = np.array(
    [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
)
# -(1/2)(1/2)(ln 0.9 + ln 0.8) for the identity-target 2x2 case.
CE_WORKED = 0.082126016743009


def test_relu_basics():
    out = relu(np.array([-2.0, -0.0, 0.0, 3.5]))
    assert np.array_equal(out, [0.0, 0.0, 0.0, 3.5])


def test_linear_layer_shape_validation():
    with pytest.raises(DimensionError):
        LinearLayer(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DimensionError):
        LinearLayer(np.zeros(3), np.zeros(3))


def test_mlp_params_chain_validation():
    good = [LinearLayer(np.zeros((4, 2)), np.zeros(4)), LinearLayer(np.zeros((1, 4)), np.zeros(1))]
    MlpParams(good)
    bad = [LinearLayer(np.zeros((4, 2)), np.zeros(4)), LinearLayer(np.zeros((1, 3)), np.zeros(1))]
    with pytest.raises(DimensionError):
        MlpParams(bad)
    with pytest.raises(UsageError):
        MlpParams([])


def test_init_mlp_glorot_bounds_and_zero_bias():
    rng = np.random.default_rng(0)
    mlp = init_mlp([10, 7, 3], rng)
    assert mlp.input_dim == 10 and mlp.output_dim == 3
    for layer in mlp.layers:
        fan_in, fan_out = layer.in_dim, layer.out_dim
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(layer.weight) <= limit)
        assert np.all(layer.bias == 0.0)
    # same seed, same weights; advancing the stream changes them
    again = init_mlp([10, 7, 3], np.random.default_rng(0))
    assert np.array_equal(again.layers[0].weight, mlp.layers[0].weight)
    other = init_mlp([10, 7, 3], rng)
    assert not np.array_equal(other.layers[0].weight, mlp.layers[0].weight)


@pytest.mark.parametrize("dims", [[0, 0, 1], [3, 0, 1], [3, -1, 1], [3, 2, 0]])
def test_init_mlp_refuses_widths_below_one_naming_the_dims(dims):
    with pytest.raises(UsageError, match=re.escape(str(dims))):
        init_mlp(dims, np.random.default_rng(0))


def test_forward_identity_single_layer():
    mlp = MlpParams([LinearLayer(np.eye(2), np.zeros(2))])
    out, cache = mlp_forward(mlp, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])
    assert len(cache) == 1


def test_forward_output_layer_is_linear():
    # a negative output must survive; only hidden layers are rectified
    mlp = MlpParams(
        [LinearLayer(np.eye(2), np.zeros(2)), LinearLayer(-np.eye(2), np.zeros(2))]
    )
    out, _ = mlp_forward(mlp, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[-1.0, -2.0]])


def test_forward_hidden_rectification():
    mlp = MlpParams(
        [LinearLayer(-np.eye(2), np.zeros(2)), LinearLayer(np.eye(2), np.zeros(2))]
    )
    out, _ = mlp_forward(mlp, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 0.0]])


def test_forward_dim_mismatch_names_both_dims():
    mlp = MlpParams([LinearLayer(np.zeros((2, 3)), np.zeros(2))])
    with pytest.raises(DimensionError, match="3"):
        mlp_forward(mlp, np.zeros((1, 5)))


@given(
    seed=st.integers(0, 2**31 - 1),
    dims=st.lists(st.integers(0, 40).map(lambda d: 2 * d + 1), min_size=2, max_size=4),
    byte_offset=st.integers(0, 15),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
@settings(max_examples=80, deadline=None)
def test_a_vector_goes_forward_with_the_bits_of_its_row(seed, dims, byte_offset, scale):
    # heads of 1-3 layers, odd dims, random biases and a vector whose bytes may be misaligned:
    # one GEMV per layer gives row 0 of the (1, d) and (1, 1, d) forms bit for bit, and a
    # vector of the wrong length is refused with the message a batch gets
    rng = np.random.default_rng(seed)
    mlp = MlpParams([LinearLayer(rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(dims, dims[1:])])
    v = np.zeros(byte_offset + 8 * dims[0], dtype=np.uint8)[byte_offset:].view(np.float64)
    v[:] = scale * rng.normal(size=dims[0])
    out, cache = mlp_forward(mlp, v)
    assert out.shape == (dims[-1],) and len(cache) == len(mlp.layers)
    assert out.tobytes() == mlp_forward(mlp, v[None])[0][0].tobytes()
    assert out.tobytes() == mlp_forward(mlp, v[None, None])[0][0, 0].tobytes()
    messages = set()
    for wrong in (np.zeros(dims[0] + 1), np.zeros((1, dims[0] + 1)), np.zeros((1, 1, dims[0] + 1))):
        with pytest.raises(DimensionError) as refused:
            mlp_forward(mlp, wrong)
        messages.add(str(refused.value))
    assert messages == {f"batch has {dims[0] + 1} columns but the first layer expects {dims[0]}"}


def test_backward_requires_cache():
    mlp = MlpParams([LinearLayer(np.eye(2), np.zeros(2))])
    with pytest.raises(UsageError):
        mlp_backward(mlp, [], np.zeros((1, 2)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    for dims in ([3, 5, 2], [4, 2], [2, 6, 6, 1]):
        mlp = init_mlp(dims, rng)
        x = rng.normal(size=(3, dims[0]))
        target = rng.normal(size=(3, dims[-1]))

        def loss_of(flat):
            m = unflatten_params(mlp, flat)
            out, _ = mlp_forward(m, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = mlp_forward(mlp, x)
        grads = mlp_backward(mlp, cache, out - target)
        num = finite_diff_grad(loss_of, flatten_params(mlp))
        ana = flatten_grads(grads)
        assert np.max(np.abs(num - ana)) < 1e-6 * max(1.0, np.max(np.abs(num)))


def test_relu_derivative_zero_at_zero():
    # hidden pre-activation is exactly 0; its incoming weight must get no gradient
    mlp = MlpParams(
        [LinearLayer(np.array([[1.0]]), np.zeros(1)), LinearLayer(np.array([[1.0]]), np.zeros(1))]
    )
    out, cache = mlp_forward(mlp, np.array([[0.0]]))
    assert out[0, 0] == 0.0
    grads = mlp_backward(mlp, cache, np.array([[1.0]]))
    gw_hidden, gb_hidden = grads[0]
    assert gw_hidden[0, 0] == 0.0
    assert gb_hidden[0] == 0.0


def test_softmax_worked_example():
    assert np.max(np.abs(stable_softmax(np.array([1.0, 2.0, 3.0])) - SOFTMAX_123)) < 1e-12


def test_softmax_extreme_logits_no_overflow():
    probs = stable_softmax(np.array([1e4, 0.0, -1e4]))
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert probs[0] > 0.999


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(UsageError):
        stable_softmax(np.array([]))
    with pytest.raises(NumericError):
        stable_softmax(np.array([1.0, np.nan]))
    with pytest.raises(NumericError):
        stable_softmax(np.array([1.0, np.inf]))


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.floats(-30, 30),
)
def test_softmax_shift_invariance(values, shift):
    x = np.array(values)
    a = stable_softmax(x)
    b = stable_softmax(x + shift)
    assert np.max(np.abs(a - b)) < 1e-9
    assert abs(a.sum() - 1.0) < 1e-12


def test_softmax_2d_rows_independent():
    m = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    probs = stable_softmax(m, axis=-1)
    assert np.max(np.abs(probs[0] - SOFTMAX_123)) < 1e-12
    assert np.max(np.abs(probs[1] - SOFTMAX_123[::-1])) < 1e-12


def test_cross_entropy_worked_example():
    y = np.eye(2)
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert abs(cross_entropy(y, p) - CE_WORKED) < 1e-12


def test_cross_entropy_uniform_closed_form():
    for m in (2, 3, 5, 8):
        y = np.eye(m)
        p = np.full((m, m), 1.0 / m)
        assert abs(cross_entropy(y, p) - np.log(m) / m) < 1e-12


def test_cross_entropy_floors_zero_probability():
    y = np.array([[1.0, 0.0]])
    p = np.array([[0.0, 1.0]])
    val = cross_entropy(y, p)
    assert np.isfinite(val)
    assert abs(val - (-np.log(1e-12) / 2.0)) < 1e-9


def test_cross_entropy_ignores_zero_target_mass():
    # the floor only applies where y > 0, so a zero-prob negative is free
    y = np.array([[1.0, 0.0]])
    p = np.array([[1.0, 0.0]])
    assert cross_entropy(y, p) == 0.0


def test_cross_entropy_validation():
    with pytest.raises(DimensionError):
        cross_entropy(np.eye(2), np.ones((3, 2)) / 2)
    with pytest.raises(DataError):
        cross_entropy(np.eye(2), np.array([[1.1, -0.1], [0.5, 0.5]]))


@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_cross_entropy_nonnegative(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(n), size=n)
    p = rng.dirichlet(np.ones(n), size=n)
    assert cross_entropy(y, p) >= 0.0


def test_adam_first_step_magnitude():
    # bias correction makes the very first step ~= lr in each coordinate
    mlp = MlpParams([LinearLayer(np.array([[0.5]]), np.zeros(1))])
    g = 0.7
    grads = [(np.array([[g]]), np.array([0.0]))]
    cfg = AdamConfig()
    new, state = adam_step(mlp, grads, AdamState.zeros_like(mlp), cfg)
    delta = new.layers[0].weight[0, 0] - 0.5
    # textbook recurrence, step 1
    m_hat = (1 - cfg.beta1) * g / (1 - cfg.beta1)
    v_hat = (1 - cfg.beta2) * g * g / (1 - cfg.beta2)
    expected = -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    assert abs(delta - expected) < 1e-15
    assert abs(delta + cfg.learning_rate) < 1e-10
    assert state.step_count == 1


def test_adam_updates_in_place_and_deterministically():
    rng = np.random.default_rng(5)
    mlp = init_mlp([3, 4, 2], rng)
    twin = mlp.copy()
    assert twin.flat is not mlp.flat
    states = [AdamState.zeros_like(mlp), AdamState.zeros_like(twin)]
    before = mlp.flat.copy()
    cfg = AdamConfig()
    for _ in range(3):
        grads = [(rng.normal(size=l.weight.shape), rng.normal(size=l.bias.shape)) for l in mlp.layers]
        out, st = adam_step(mlp, grads, states[0], cfg)
        assert out is mlp and st is states[0]
        adam_step(twin, grads, states[1], cfg)
        assert mlp.flat.tobytes() == twin.flat.tobytes()
    assert not np.array_equal(mlp.flat, before)
    assert states[0].step_count == states[1].step_count == 3


def textbook_adam(layers, grad_steps, cfg):
    """Per-layer, per-array Adam, one fresh array per operation, in the folded
    order `adam_step` specifies: Kingma & Ba's update with the bias corrections
    folded into the scalars 1/sqrt(1 - b2**t) and lr/(1 - b1**t)."""
    params = [[l.weight.copy(), l.bias.copy()] for l in layers]
    m = [[np.zeros_like(a) for a in pair] for pair in params]
    v = [[np.zeros_like(a) for a in pair] for pair in params]
    b1, b2 = cfg.beta1, cfg.beta2
    for t, grads in enumerate(grad_steps, start=1):
        for k, pair in enumerate(grads):
            for i, g in enumerate(pair):
                m[k][i] = b1 * m[k][i] + (1 - b1) * g
                v[k][i] = b2 * v[k][i] + (1 - b2) * g**2
                denom = np.sqrt(v[k][i]) * (1 / np.sqrt(1 - b2**t)) + cfg.epsilon
                params[k][i] = params[k][i] - (cfg.learning_rate / (1 - b1**t)) * (m[k][i] / denom)
    return np.concatenate([a.ravel() for pair in params for a in pair])


@pytest.mark.parametrize("dims", [[3, 5, 2], [2, 6, 6, 1]])
def test_flat_adam_equals_textbook_per_layer_adam_bit_for_bit(dims):
    rng = np.random.default_rng(len(dims))
    mlp = init_mlp(dims, rng)
    mlp.flat[:] = rng.normal(size=mlp.flat.size)  # nonzero biases too
    cfg = AdamConfig(learning_rate=3e-2)
    grad_steps = []
    for _ in range(5):
        flat = rng.normal(size=mlp.flat.size) * 10.0 ** rng.integers(-6, 3, size=mlp.flat.size)
        grad_steps.append([(l.weight, l.bias) for l in unflatten_params(mlp, flat).layers])
    expected = textbook_adam(mlp.layers, grad_steps, cfg)
    state = AdamState.zeros_like(mlp)
    for grads in grad_steps:
        adam_step(mlp, grads, state, cfg)
    assert mlp.flat.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 40),
    step_count=st.integers(0, 49_999),
    lr=st.floats(1e-5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_adam_agrees_with_kingma_ba_to_rtol_1e_12(size, step_count, lr, seed):
    """One step from zero weights, so the weights become minus the step
    exactly, against Kingma & Ba's per-array expressions; gradients and
    moments span 1e-8 to 1e4 in magnitude, with either sign."""
    rng = np.random.default_rng(seed)
    n = 2 * size  # a (size, 1) weight and its bias

    def draw():
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 4, n)

    g, m0, v0 = draw(), draw(), draw() ** 2
    mlp = MlpParams([LinearLayer(np.zeros((size, 1)), np.zeros(size))])
    state = AdamState(m0.copy(), v0.copy(), step_count)
    cfg = AdamConfig(learning_rate=lr)
    adam_step(mlp, [(g[:size, None], g[size:])], state, cfg)

    t, b1, b2 = step_count + 1, cfg.beta1, cfg.beta2
    m_hat = (b1 * m0 + (1 - b1) * g) / (1 - b1**t)
    v_hat = (b2 * v0 + (1 - b2) * g**2) / (1 - b2**t)
    np.testing.assert_allclose(-mlp.flat, lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon), rtol=1e-12, atol=0)
    assert state.step_count == t


def test_layers_are_views_of_the_flat_vector():
    mlp = init_mlp([3, 5, 2], np.random.default_rng(2))
    assert mlp.flat.size == 3 * 5 + 5 + 5 * 2 + 2 and mlp.flat.flags.c_contiguous
    for layer in mlp.layers:
        assert np.shares_memory(layer.weight, mlp.flat) and np.shares_memory(layer.bias, mlp.flat)
    mlp.flat[:] = np.arange(mlp.flat.size)
    assert mlp.layers[0].weight[1, 0] == 3.0 and mlp.layers[0].bias[0] == 15.0
    assert mlp.layers[1].weight[0, 0] == 20.0 and mlp.layers[1].bias[-1] == 31.0
    mlp.layers[1].bias[0] = -1.0
    assert mlp.flat[30] == -1.0


def test_mlp_params_refuse_non_finite_values_naming_the_layer():
    for bad in (np.nan, np.inf, -np.inf):
        layers = [LinearLayer(np.ones((2, 2)), np.zeros(2)), LinearLayer(np.ones((1, 2)), np.array([bad]))]
        with pytest.raises(NumericError, match="layer 1"):
            MlpParams(layers)


def test_adam_rejects_nonfinite_gradient():
    mlp = MlpParams([LinearLayer(np.array([[0.5]]), np.zeros(1))])
    grads = [(np.array([[np.nan]]), np.array([0.0]))]
    with pytest.raises(NumericError, match="layer 0"):
        adam_step(mlp, grads, AdamState.zeros_like(mlp), AdamConfig())
    two = init_mlp([2, 2, 1], np.random.default_rng(0))
    before = two.flat.copy()
    bad = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in two.layers]
    bad[1][1][0] = np.inf
    with pytest.raises(NumericError, match="layer 1"):
        adam_step(two, bad, AdamState.zeros_like(two), AdamConfig())
    assert two.flat.tobytes() == before.tobytes()  # refused before any update


def test_adam_converges_on_quadratic():
    mlp = MlpParams([LinearLayer(np.array([[4.0]]), np.array([-3.0]))])
    cfg = AdamConfig(learning_rate=0.05)
    state = AdamState.zeros_like(mlp)
    for _ in range(600):
        w = mlp.layers[0].weight[0, 0]
        b = mlp.layers[0].bias[0]
        grads = [(np.array([[2 * w]]), np.array([2 * b]))]
        mlp, state = adam_step(mlp, grads, state, cfg)
    assert abs(mlp.layers[0].weight[0, 0]) < 1e-3
    assert abs(mlp.layers[0].bias[0]) < 1e-3


def test_finite_diff_on_quadratic():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = np.array([1.0, -2.0])
    num = finite_diff_grad(lambda v: float(v @ a @ v), x)
    assert np.max(np.abs(num - 2 * a @ x)) < 1e-6


def test_finite_diff_rejects_bad_step():
    with pytest.raises(UsageError):
        finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)


def test_flatten_round_trip():
    mlp = init_mlp([3, 5, 2], np.random.default_rng(1))
    flat = flatten_params(mlp)
    back = unflatten_params(mlp, flat)
    for a, b in zip(mlp.layers, back.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_sigmoid_stable_and_centered():
    assert sigmoid(np.array(0.0)) == 0.5
    big = sigmoid(np.array([800.0, -800.0]))
    assert np.all(np.isfinite(big))
    assert big[0] == 1.0 and big[1] == 0.0
