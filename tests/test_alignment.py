import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardl import alignment, pairhead
from cardl.alignment import (
    AlignmentModel,
    PairedExample,
    TrainConfig,
    alignment_gradients,
    alignment_loss,
    batch_logits,
    batch_targets,
    fit,
    l2_normalize,
    linear_model,
    project,
    random_projection_model,
    transpose_targets,
)
from cardl.errors import DataError, DimensionError, NumericError, UsageError
from cardl.nn import (
    LinearLayer,
    MlpParams,
    finite_diff_grad,
    flatten_grads,
    flatten_params,
    init_mlp,
    unflatten_params,
)
from cardl.pairhead import PairExample, fit_pair_head, pair_loss_and_grads
from cardl.records import FeatureRecord


def small_model(tdim=5, idim=4, udim=3, hidden=(6,), seed=0, temperature=0.07):
    rng = np.random.default_rng(seed)
    return AlignmentModel(
        text_head=init_mlp([tdim, *hidden, udim], rng),
        image_head=init_mlp([idim, *hidden, udim], rng),
        temperature=temperature,
    )


def toy_corpus(n=8, tdim=5, idim=4, seed=0):
    rng = np.random.default_rng(seed)
    texts = [FeatureRecord(f"t{k}", "text", rng.normal(size=tdim)) for k in range(n)]
    images = [FeatureRecord(f"i{k}", "image", rng.normal(size=idim)) for k in range(n)]
    pairs = [PairedExample(f"t{k}", f"i{k}") for k in range(n)]
    return texts, images, pairs


# ----------------------------------------------------------------- configs --

def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.temperature == 0.07
    assert cfg.hidden_dims == (256,)
    assert cfg.unified_dim == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 1},
        {"batch_size": 0},
        {"epochs": -1},
        {"learning_rate": 0.0},
        {"temperature": 0.0},
        {"temperature": -0.07},
        {"hidden_dims": (0,)},
        {"unified_dim": 0},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ],
)
def test_train_config_rejects(kwargs):
    with pytest.raises(UsageError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("seed", [0, 5, 2**40, 2**64 - 1])
def test_seeded_rng_is_the_stream_of_the_plain_seed(seed):
    """`default_rng(s)` and `default_rng([s])` are one stream, so drawing
    through `seeded_rng` moved no byte; a negative seed wraps modulo 2**64."""
    draw = np.random.default_rng(seed).standard_normal(8).tobytes()
    assert alignment.seeded_rng(seed).standard_normal(8).tobytes() == draw
    assert alignment.seeded_rng(seed - 2**64).standard_normal(8).tobytes() == draw
    assert alignment.seeded_rng(seed, 3).standard_normal(8).tobytes() != draw


def test_model_dims_derived_from_heads():
    m = small_model(tdim=5, idim=4, udim=3)
    assert m.unified_dim == 3
    assert m.text_input_dim == 5
    assert m.image_input_dim == 4
    assert m.head_for("text") is m.text_head
    assert m.head_for("image") is m.image_head


def test_model_rejects_mismatched_heads():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        AlignmentModel(
            text_head=init_mlp([5, 3], rng),
            image_head=init_mlp([4, 2], rng),
        )
    with pytest.raises(UsageError):
        AlignmentModel(
            text_head=init_mlp([5, 3], rng),
            image_head=init_mlp([4, 3], rng),
            temperature=0.0,
        )


# ------------------------------------------------------- projection basics --

def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 4)) * 100
    out = l2_normalize(m, ids=[f"doc-{i}" for i in range(6)])
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12


def test_l2_normalize_zero_row_names_the_id():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError, match="doc-b"):
        l2_normalize(m, ids=["doc-a", "doc-b"])


@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_project_output_unit_norm(seed, rows, in_dim):
    rng = np.random.default_rng(seed)
    head = init_mlp([in_dim, 7, 3], rng)
    x = rng.normal(size=(rows, in_dim)) * 10
    try:
        u = project(head, x)
    except NumericError:
        # an all-dead hidden row projects to zero; rejecting it is the contract
        return
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-9


def test_project_invariant_to_positive_input_scaling():
    # with a linear zero-bias head the normalization cancels any positive scale
    rng = np.random.default_rng(3)
    head = init_mlp([4, 3], rng)
    x = rng.normal(size=(5, 4))
    base = project(head, x)
    for alpha in (0.5, 2.0, 3.7):
        assert np.max(np.abs(project(head, alpha * x) - base)) < 1e-12


def _rows_at(rng, n, d, byte_offset):
    """n x d normal rows laid out from `byte_offset` in a byte buffer, so that
    offsets that are not a multiple of 8 give misaligned rows."""
    raw = np.zeros(byte_offset + 8 * n * d, dtype=np.uint8)
    rows = raw[byte_offset:].view(np.float64).reshape(n, d)
    rows[:] = rng.normal(size=(n, d))
    return rows


def _each_row(fn, rows, ids):
    """fn on each single row: its output row, or the NumericError it raises."""
    out = []
    for k, id_ in enumerate(ids):
        try:
            out.append(fn(rows[k : k + 1], [id_])[0])
        except NumericError as exc:
            out.append(exc)
    return out


def _outcome(out):
    """A row's bits, or the message of the NumericError that refused it."""
    return str(out) if isinstance(out, NumericError) else out.tobytes()


@given(
    seed=st.integers(0, 2**31 - 1),
    dims=st.lists(st.integers(0, 40).map(lambda d: 2 * d + 1), min_size=2, max_size=3),
    n=st.integers(1, 40),
    byte_offset=st.integers(0, 15),
    scaled=st.lists(st.sampled_from([1.0, 1e200, 1e-160]), min_size=40, max_size=40),
    zero=st.integers(0, 39),
)
@settings(max_examples=60, deadline=None)
def test_rows_are_projected_and_normalized_on_their_own(seed, dims, n, byte_offset, scaled, zero):
    # random heads of 1-2 layers and odd dims; rows that overflow or underflow
    # ||row||**2 take the rescue path, and an all-dead hidden row projects to zero;
    # a single row also goes in as a 1-D vector (project's norm is then one
    # float) and must give the bits of the batch or the NumericError naming its id
    rng = np.random.default_rng(seed)
    head = init_mlp(dims, rng)
    ids = [f"row-{k}" for k in range(n)]
    x, m = _rows_at(rng, n, dims[0], byte_offset), _rows_at(rng, n, dims[-1], byte_offset)
    x *= np.array(scaled[:n])[:, None]
    m *= np.array(scaled[:n])[:, None]
    with np.errstate(over="ignore"):  # numpy warns that ||row||**2 overflowed
        for fn, rows in ((lambda r, i: project(head, r, i), x), (alignment.l2_normalize, m)):
            for zero_row in (None, zero % n):
                if zero_row is not None:
                    rows[zero_row] = 0.0
                singles = _each_row(fn, rows, ids)
                vectors = _each_row(lambda r, i: np.atleast_2d(fn(r[0], i)), rows, ids)
                assert [_outcome(out) for out in vectors] == [_outcome(out) for out in singles]
                failed = [k for k, out in enumerate(singles) if isinstance(out, NumericError)]
                if failed:  # the first zero row is named, by its id
                    with pytest.raises(NumericError, match=f"\\({ids[failed[0]]}\\)"):
                        fn(rows, ids)
                    continue
                together = fn(rows, ids)
                for k in range(n):
                    assert together[k].tobytes() == singles[k].tobytes()


@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.sampled_from([1, 2, 3, 8, 64, 257]),
    n=st.integers(0, 5),
    byte_offset=st.integers(0, 15),
    scales=st.lists(st.sampled_from([1.0, 1e-160, 1e-150, 1e150, 1e160]), min_size=11, max_size=11),
)
@settings(max_examples=80, deadline=None)
def test_row_dots_has_the_bits_of_each_rows_np_dot(seed, d, n, byte_offset, scales):
    # `_row_dots` is cardl's one float64 dot: every row norm and both search
    # kernels' re-scores take it, and the brute-force references take np.dot
    # row by row, so each row must have np.dot's bits whatever the other rows
    # hold; a single vector's `v @ v`, the one other spelling, must have the
    # bits of its one-row form.  The dot kernel differs per OpenBLAS core, so
    # CI reruns this under each.  Scales near 1e-160 underflow a product and
    # near 1e160 overflow it
    rng = np.random.default_rng(seed)
    a, b = _rows_at(rng, n, d, byte_offset), _rows_at(rng, n, d, byte_offset)
    v = _rows_at(rng, 1, d, byte_offset)[0]
    a *= np.array(scales[:5][:n])[:, None]
    b *= np.array(scales[5:10][:n])[:, None]
    v *= scales[10]
    with np.errstate(over="ignore", invalid="ignore"):
        for other, others in ((b, b), (v, [v] * n)):
            dots = alignment._row_dots(a, other)
            assert dots.shape == (n,)
            assert [x.tobytes() for x in dots] == [np.dot(a[k], others[k]).tobytes() for k in range(n)]
        assert np.float64(v @ v).tobytes() == alignment._row_dots(v[None], v)[0].tobytes()


# ------------------------------------------------------------------ logits --

def test_batch_logits_worked_example():
    img = np.array([[1.0, 0.0], [0.0, 1.0]])
    txt = np.array([[0.6, 0.8], [0.8, 0.6]])
    logits = batch_logits(img, txt, temperature=0.5)
    assert np.max(np.abs(logits - [[1.2, 1.6], [1.6, 1.2]])) < 1e-12


def test_batch_logits_validation():
    with pytest.raises(UsageError):
        batch_logits(np.eye(2), np.eye(2), temperature=0.0)
    with pytest.raises(DimensionError):
        batch_logits(np.ones((2, 3)), np.ones((2, 4)), temperature=1.0)


def test_batch_logits_temperature_sharpens():
    img = l2_normalize(np.random.default_rng(0).normal(size=(3, 4)))
    txt = l2_normalize(np.random.default_rng(1).normal(size=(3, 4)))
    hot = batch_logits(img, txt, 1.0)
    cold = batch_logits(img, txt, 0.07)
    assert np.allclose(cold, hot / 0.07, atol=1e-12)


# ----------------------------------------------------------------- targets --

def test_batch_targets_without_labels_is_identity():
    assert np.array_equal(batch_targets([None, None, None]), np.eye(3))


def test_batch_targets_groups_shared_labels():
    y = batch_targets(["a", None, "a"])
    expected = np.array(
        [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]
    )
    assert np.max(np.abs(y - expected)) < 1e-12
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


def loop_batch_targets(labels):
    # the reference: anchor i and item j are positives when i == j or they share a label
    n = len(labels)
    y = np.eye(n)
    for i in range(n):
        if labels[i] is None:
            continue
        for j in range(n):
            if labels[j] == labels[i]:
                y[i, j] = 1.0
    return y / y.sum(axis=1, keepdims=True)


@given(st.lists(st.sampled_from([None, "a", "b", "c", ""]), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_batch_targets_equals_the_pairwise_loop_bit_for_bit(labels):
    got, expected = batch_targets(labels), loop_batch_targets(labels)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_batch_targets_marks_shared_ids_as_positives():
    # one text paired with two images: the two pairs are positives of each other
    y = batch_targets([None, None, None], ["t0", "t0", "t1"], ["i0", "i1", "i2"])
    assert np.array_equal(y, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    # a shared label or a shared image id counts the same way
    y = batch_targets(["a", None, "a"], ["t0", "t1", "t2"], ["i0", "i1", "i1"])
    assert np.array_equal(y, [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]])
    with pytest.raises(DimensionError):
        batch_targets([None, None], ["t0"])


def test_transpose_targets_renormalizes():
    y = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
    yt = transpose_targets(y)
    assert np.allclose(yt.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(yt[0] - [1.0, 0.0, 0.0])) < 1e-12
    assert np.max(np.abs(yt[1] - [0.25, 0.5, 0.25])) < 1e-12


def test_transpose_targets_identity_fixed_point():
    assert np.array_equal(transpose_targets(np.eye(4)), np.eye(4))


def test_transpose_targets_rejects_orphan_column():
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DataError):
        transpose_targets(y)


# ------------------------------------------------------------------- loss --

def test_loss_total_is_bitwise_sum():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 5))
    li2t, lt2i, total = alignment_loss(logits, np.eye(5))
    assert total == li2t + lt2i


def test_loss_uniform_closed_form():
    for m in (2, 3, 7):
        li2t, lt2i, total = alignment_loss(np.zeros((m, m)), np.eye(m))
        assert abs(li2t - np.log(m) / m) < 1e-12
        assert abs(lt2i - np.log(m) / m) < 1e-12


def test_loss_saturated_logits_near_zero():
    li2t, lt2i, total = alignment_loss(50.0 * np.eye(4), np.eye(4))
    assert total < 1e-7


def test_loss_symmetric_logits_balance_directions():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(4, 4))
    s = (s + s.T) / 2
    li2t, lt2i, _ = alignment_loss(s, np.eye(4))
    assert abs(li2t - lt2i) < 1e-12


def test_loss_shape_mismatch():
    with pytest.raises(DimensionError):
        alignment_loss(np.zeros((2, 3)), np.eye(2))


# --------------------------------------------------------------- gradients --

def _grad_check(model, tb, ib, y, tol=1e-6):
    losses, tg, ig = alignment_gradients(model, tb, ib, y)

    def loss_with(head_name, flat):
        heads = {
            "text_head": model.text_head,
            "image_head": model.image_head,
        }
        heads[head_name] = unflatten_params(heads[head_name], flat)
        m2 = AlignmentModel(temperature=model.temperature, **heads)
        return alignment_gradients(m2, tb, ib, y)[0][2]

    for head_name, head, grads in (
        ("text_head", model.text_head, tg),
        ("image_head", model.image_head, ig),
    ):
        num = finite_diff_grad(
            lambda f, h=head_name: loss_with(h, f), flatten_params(head)
        )
        ana = flatten_grads(grads)
        scale = max(np.max(np.abs(num)), 1e-12)
        assert np.max(np.abs(num - ana)) / scale < tol
    return losses


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    model = small_model()
    tb = rng.normal(size=(3, 5))
    ib = rng.normal(size=(3, 4))
    losses = _grad_check(model, tb, ib, np.eye(3))
    assert losses[2] == losses[0] + losses[1]


def test_gradients_with_label_spread_targets():
    rng = np.random.default_rng(7)
    model = small_model()
    tb = rng.normal(size=(4, 5))
    ib = rng.normal(size=(4, 4))
    y = batch_targets(["a", "a", None, "b"])
    _grad_check(model, tb, ib, y)


def test_loss_with_a_shared_text_id_closed_form():
    # pairs (t0, i0) and (t0, i1): both logit columns are the one text's cosines
    a, b = 1.2, -0.3
    logits = np.array([[a, a], [b, b]])
    y = batch_targets([None, None], ["t0", "t0"], ["i0", "i1"])
    li2t, lt2i, _ = alignment_loss(logits, y)
    assert abs(li2t - np.log(2) / 2) < 1e-12
    p_a = 1 / (1 + np.exp(b - a))
    assert abs(lt2i - -(np.log(p_a) + np.log(1 - p_a)) / 4) < 1e-12
    # identical columns make the loss blind to how their target mass is split
    assert np.allclose(alignment_loss(logits, np.eye(2)), (li2t, lt2i, li2t + lt2i), rtol=0, atol=1e-15)


def test_gradients_with_a_shared_text_id():
    rng = np.random.default_rng(8)
    model = small_model()
    tb = rng.normal(size=(3, 5))
    tb[1] = tb[0]  # pairs 0 and 1 share their text
    ib = rng.normal(size=(3, 4))
    _grad_check(model, tb, ib, batch_targets([None] * 3, ["t0", "t0", "t1"], ["i0", "i1", "i2"]))


def test_gradients_shape_validation():
    model = small_model()
    with pytest.raises(DimensionError):
        alignment_gradients(
            model, np.zeros((3, 5)), np.zeros((3, 4)), np.eye(2)
        )


# --------------------------------------------------------------------- fit --

def test_fit_deterministic_given_seed():
    texts, images, pairs = toy_corpus()
    cfg = TrainConfig(epochs=3, batch_size=4, hidden_dims=(8,), unified_dim=3, seed=11)
    m1, h1 = fit(texts, images, pairs, cfg)
    m2, h2 = fit(texts, images, pairs, cfg)
    assert h1 == h2
    for a, b in zip(m1.text_head.layers, m2.text_head.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
    for a, b in zip(m1.image_head.layers, m2.image_head.layers):
        assert np.array_equal(a.weight, b.weight)


def test_fit_seed_changes_outcome():
    texts, images, pairs = toy_corpus()
    cfg_a = TrainConfig(epochs=2, batch_size=4, hidden_dims=(8,), unified_dim=3, seed=1)
    cfg_b = TrainConfig(epochs=2, batch_size=4, hidden_dims=(8,), unified_dim=3, seed=2)
    m1, _ = fit(texts, images, pairs, cfg_a)
    m2, _ = fit(texts, images, pairs, cfg_b)
    assert not np.array_equal(m1.text_head.layers[0].weight, m2.text_head.layers[0].weight)


def test_fit_history_and_loss_decreases():
    texts, images, pairs = toy_corpus(n=16, seed=1)
    cfg = TrainConfig(epochs=30, batch_size=8, hidden_dims=(16,), unified_dim=4, seed=0)
    _, history = fit(texts, images, pairs, cfg)
    assert len(history) == 30
    assert history[-1] < history[0]


def test_fit_zero_epochs_returns_untrained_model():
    texts, images, pairs = toy_corpus()
    cfg = TrainConfig(epochs=0, batch_size=4, hidden_dims=(8,), unified_dim=3, seed=0)
    model, history = fit(texts, images, pairs, cfg)
    assert history == []
    assert model.unified_dim == 3


def test_fit_drops_singleton_tail_batch():
    # 5 pairs with batch 4 leaves a 1-item tail that must be skipped, not crash
    texts, images, pairs = toy_corpus(n=5)
    cfg = TrainConfig(epochs=2, batch_size=4, hidden_dims=(32,), unified_dim=3, seed=0)
    _, history = fit(texts, images, pairs, cfg)
    assert len(history) == 2


def test_fit_counts_pairs_sharing_an_id_as_positives(monkeypatch):
    texts, images, _ = toy_corpus()
    pairs = [PairedExample(f"t{k // 2}", f"i{k}") for k in range(8)]
    seen = []

    def recording(*keys):
        seen.append(batch_targets(*keys))
        return seen[-1]

    monkeypatch.setattr(alignment, "batch_targets", recording)
    fit(texts, images, pairs, TrainConfig(epochs=1, batch_size=8, hidden_dims=(8,), unified_dim=3))
    # one batch of all eight pairs: each text's two pairs split their mass
    (y,) = seen
    assert np.array_equal(np.sort(y, axis=1), np.tile([0, 0, 0, 0, 0, 0, 0.5, 0.5], (8, 1)))


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.builds(PairedExample, st.sampled_from(["t0", "t1", "t2"]), st.sampled_from(["i0", "i1", "i2"]),
                  st.sampled_from([None, None, "a", "b"])),
        min_size=2, max_size=12,
    ),
    batch_size=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_batch_targets_equal_batch_targets_of_the_batch_keys(pairs, batch_size, seed):
    """`fit` codes labels and ids once per run; each batch's targets still
    equal `batch_targets` of that batch's labels, text ids and image ids, bit
    for bit, with None labels and repeated ids."""
    texts, images, _ = toy_corpus(n=3, seed=seed % 7)
    batches, targets = [], []
    real_minibatches, real_gradients = alignment._minibatches, alignment.alignment_gradients

    def minibatches(*args):
        for b, idx in real_minibatches(*args):
            if idx.size >= 2:
                batches.append(idx)
            yield b, idx

    def gradients(model, text_batch, image_batch, y):
        targets.append(y)
        return real_gradients(model, text_batch, image_batch, y)

    cfg = TrainConfig(epochs=2, batch_size=batch_size, hidden_dims=(), unified_dim=3, seed=seed)  # no dead ReLU
    with patch.object(alignment, "_minibatches", minibatches), \
            patch.object(alignment, "alignment_gradients", gradients):
        fit(texts, images, pairs, cfg)
    assert len(targets) == len(batches) > 0
    for idx, y in zip(batches, targets):
        keys = ([getattr(pairs[i], key) for i in idx] for key in ("label", "text_id", "image_id"))
        assert y.tobytes() == batch_targets(*keys).tobytes()


def test_fit_rejects_unknown_pair_ids():
    texts, images, pairs = toy_corpus()
    bad = pairs + [PairedExample("t999", "i0")]
    cfg = TrainConfig(epochs=1, batch_size=4, hidden_dims=(8,), unified_dim=3)
    with pytest.raises(DataError, match="t999"):
        fit(texts, images, bad, cfg)


def test_fit_rejects_too_few_pairs():
    texts, images, pairs = toy_corpus()
    cfg = TrainConfig(epochs=1, batch_size=4, hidden_dims=(8,), unified_dim=3)
    with pytest.raises(DataError):
        fit(texts, images, pairs[:1], cfg)


def test_fit_numeric_failure_names_epoch_and_batch():
    # a 4-wide hidden layer can go all-dead for a row, which kills normalization
    texts, images, pairs = toy_corpus(n=8, tdim=4, idim=4)
    cfg = TrainConfig(
        epochs=5, batch_size=4, learning_rate=1e18, hidden_dims=(4,), unified_dim=3, seed=0
    )
    with pytest.raises(NumericError, match=r"epoch \d+, batch \d+") as info:
        fit(texts, images, pairs, cfg)
    # the loss was never computed: the message names the zero projection's head and batch row
    assert re.match(r"cannot normalize zero (text|image) projection \(row \d+\) at epoch", str(info.value))
    assert "non-finite loss" not in str(info.value)


def test_every_training_numeric_error_names_epoch_and_batch():
    """A NaN gradient with a finite loss reaches Adam, in both trainers; its
    error names the epoch and batch, as a zero projection's does."""
    def nan_gradients(grads):
        return [(np.full_like(w, np.nan), b) for w, b in grads]

    def alignment_nan(model, *batch):
        losses, g_txt, g_img = alignment_gradients(model, *batch)
        return losses, nan_gradients(g_txt), g_img

    def pair_nan(mlp, features, targets):
        loss, grads = pair_loss_and_grads(mlp, features, targets)
        return loss, nan_gradients(grads)

    expected = "^non-finite gradient at layer 0 at epoch 0, batch 0$"
    texts, images, pairs = toy_corpus()
    cfg = TrainConfig(epochs=2, batch_size=4, hidden_dims=(8,), unified_dim=3)
    with patch.object(alignment, "alignment_gradients", alignment_nan), pytest.raises(NumericError, match=expected):
        fit(texts, images, pairs, cfg)
    examples = [PairExample(r.vector[:2], r.vector[2:4], relevant=k % 2 == 0) for k, r in enumerate(texts)]
    with patch.object(pairhead, "pair_loss_and_grads", pair_nan), pytest.raises(NumericError, match=expected):
        fit_pair_head(examples, cfg)


def test_fit_converges_ranks_partner_first():
    # separable toy data: after training, each image's top text is its partner
    texts, images, pairs = toy_corpus(n=12, tdim=6, idim=6, seed=9)
    cfg = TrainConfig(epochs=60, batch_size=6, hidden_dims=(32,), unified_dim=8, seed=0)
    model, _ = fit(texts, images, pairs, cfg)
    t_mat = np.stack([r.vector for r in texts])
    i_mat = np.stack([r.vector for r in images])
    u_txt = project(model.text_head, t_mat)
    u_img = project(model.image_head, i_mat)
    logits = batch_logits(u_img, u_txt, model.temperature)
    assert np.array_equal(np.argmax(logits, axis=1), np.arange(12))


# ------------------------------------------------------------ constructors --

def test_linear_model_wraps_fixed_maps():
    w_t = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w_i = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    m = linear_model(w_t, w_i)
    assert m.unified_dim == 3
    assert m.text_input_dim == 2
    u = project(m.text_head, np.array([[1.0, 0.0]]))
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-12


def test_linear_model_rejects_output_mismatch():
    with pytest.raises(DimensionError):
        linear_model(np.zeros((3, 2)), np.zeros((4, 2)))


def test_random_projection_model_frozen_by_seed():
    a = random_projection_model(5, 4, unified_dim=3, seed=42)
    b = random_projection_model(5, 4, unified_dim=3, seed=42)
    c = random_projection_model(5, 4, unified_dim=3, seed=43)
    assert np.array_equal(a.text_head.layers[0].weight, b.text_head.layers[0].weight)
    assert not np.array_equal(a.text_head.layers[0].weight, c.text_head.layers[0].weight)
    assert a.unified_dim == 3
