import re

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cardl.alignment import linear_model
from cardl.dataio import SyntheticConfig, generate_synthetic
from cardl.errors import CardlError, DataError, DimensionError
from cardl.nn import AdamState, LinearLayer, MlpParams
from cardl.pairhead import PairExample, PairHead
from cardl.records import IMAGE, MODALITIES, TEXT, FeatureRecord, opposite_modality
from cardl.retrieval import build_index


def test_modality_constants():
    assert MODALITIES == (TEXT, IMAGE)
    assert opposite_modality(TEXT) == IMAGE
    assert opposite_modality(IMAGE) == TEXT


def test_opposite_modality_rejects_unknown():
    with pytest.raises(DataError):
        opposite_modality("audio")


def test_feature_record_coerces_to_float64():
    r = FeatureRecord("a", "text", [1, 2, 3])
    assert r.vector.dtype == np.float64
    assert r.dim == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: FeatureRecord("a", "text", [1.0, 2.0]),
        lambda: linear_model(np.eye(2), np.eye(2)),
        lambda: build_index([("a", "text", [1.0, 0.0]), ("b", "image", [0.0, 1.0])]),
        lambda: LinearLayer(np.eye(2), np.zeros(2)),
        lambda: MlpParams([LinearLayer(np.eye(2), np.zeros(2))]),
        lambda: AdamState.zeros_like(MlpParams([LinearLayer(np.eye(2), np.zeros(2))])),
        lambda: PairExample([1.0, 2.0], [2.0, 1.0], True),
        lambda: PairHead(MlpParams([LinearLayer(np.ones((1, 4)), np.zeros(1))])),
        lambda: generate_synthetic(SyntheticConfig(clusters=2, pairs_per_cluster=1, text_dim=2, image_dim=2,
                                                   latent_dim=1)),
    ],
    ids=["FeatureRecord", "AlignmentModel", "UnifiedIndex", "LinearLayer", "MlpParams", "AdamState",
         "PairExample", "PairHead", "SyntheticDataset"],
)
def test_objects_holding_arrays_compare_by_identity(make):
    # equal-valued fields would make a field-wise == ask numpy for the truth of an array
    a, b = make(), make()
    assert a == a and a != b and b in [a, b]


def test_feature_record_rejects_bad_input():
    with pytest.raises(DataError):
        FeatureRecord("a", "hologram", [1.0])
    with pytest.raises(DataError):
        FeatureRecord("a", "text", [])
    with pytest.raises(DataError):
        FeatureRecord("a", "text", [[1.0, 2.0]])
    with pytest.raises(DataError):
        FeatureRecord("a", "text", [1.0, float("nan")])
    with pytest.raises(DataError):
        FeatureRecord("a", "text", [1.0, float("inf")])
    with pytest.raises(DataError):
        FeatureRecord("", "text", [1.0])


def test_feature_record_owns_its_vector():
    source = np.ones((4, 3))
    r = FeatureRecord("a", "text", source[1])
    source[1, 0] = np.nan
    assert r.vector.tolist() == [1.0, 1.0, 1.0]
    ds = generate_synthetic(SyntheticConfig(clusters=2, pairs_per_cluster=3, seed=0))
    assert all(rec.vector.base is None for rec in ds.text_records + ds.image_records)


def made(make):
    """(records, None), or (None, (error class, message)) when making them fails."""
    try:
        return make(), None
    except CardlError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 5), st.integers(0, 3)),
    modality=st.sampled_from([TEXT, IMAGE, "audio"]),
    data=st.data(),
)
def test_a_block_makes_the_records_of_its_rows_one_by_one(shape, modality, data):
    n, d = shape
    ids = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n))
    rows = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)))
    if n and data.draw(st.booleans()):  # an empty id
        ids[data.draw(st.integers(0, n - 1))] = ""
    if n and d:  # NaN or +-inf in any rows
        for row, col, value in data.draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, d - 1), st.sampled_from([np.nan, np.inf, -np.inf])), max_size=2)):
            rows[row, col] = value
    expected, expected_error = made(lambda: [FeatureRecord(i, modality, row) for i, row in zip(ids, rows)])
    records, error = made(lambda: FeatureRecord.block(ids, modality, rows))
    assert error == expected_error  # the class, and a message naming the first bad id
    if error is None:
        source = rows.copy()
        rows[...] = np.nan  # a write to the source after construction reaches no record
        assert [(r.id, r.modality, r.vector.tobytes()) for r in records] == \
            [(r.id, r.modality, r.vector.tobytes()) for r in expected] == \
            [(i, modality, row.tobytes()) for i, row in zip(ids, source)]
        assert all(r.vector.base is None and r.vector.dtype == np.float64 for r in records)


@pytest.mark.parametrize("ids, modality, rows, message", [
    (["a", "b", "c"], TEXT, [[1.0], [np.inf], [np.nan]], "record 'b': vector contains non-finite values"),
    (["a", "", "c"], TEXT, [[1.0], [1.0], [np.nan]], "record id must be a nonempty string"),
    (["a", "b"], "audio", [[1.0], [1.0]], "record 'a': unknown modality 'audio'"),
    (["a", "b"], IMAGE, np.ones((2, 0)), "record 'a': vector must be a nonempty 1-D array"),
], ids=["non-finite", "empty id", "unknown modality", "zero columns"])
def test_a_bad_block_names_its_first_bad_record(ids, modality, rows, message):
    with pytest.raises(DataError, match=rf"^{re.escape(message)}"):
        FeatureRecord.block(ids, modality, rows)


def test_a_block_needs_one_id_per_row():
    with pytest.raises(DimensionError, match=r"^2 ids for a block of shape \(3, 1\)$"):
        FeatureRecord.block(["a", "b"], TEXT, np.ones((3, 1)))
