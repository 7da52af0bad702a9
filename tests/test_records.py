import numpy as np
import pytest

from cardl.dataio import SyntheticConfig, generate_synthetic
from cardl.errors import DataError
from cardl.records import IMAGE, MODALITIES, TEXT, FeatureRecord, opposite_modality


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
