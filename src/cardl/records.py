"""Core record type carried between every stage: one feature vector with an id."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

TEXT = "text"
IMAGE = "image"
MODALITIES = (TEXT, IMAGE)


@dataclass
class FeatureRecord:
    """A raw (or unified) feature vector produced by an external encoder.

    `modality` is either "text" or "image"; the vector must be nonempty
    and finite.  The record owns a float64 copy of the vector it is given,
    so a row of a larger array does not keep that array alive, and a later
    write to the source cannot slip a non-finite value past the check.
    """

    id: str
    modality: str
    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.id:
            raise DataError("record id must be a nonempty string")
        if self.modality not in MODALITIES:
            raise DataError(
                f"record {self.id!r}: unknown modality {self.modality!r} "
                f"(expected one of {MODALITIES})"
            )
        self.vector = np.array(self.vector, dtype=np.float64)
        if self.vector.ndim != 1 or self.vector.size == 0:
            raise DataError(f"record {self.id!r}: vector must be a nonempty 1-D array")
        if not np.isfinite(self.vector).all():
            raise DataError(f"record {self.id!r}: vector contains non-finite values")

    @property
    def dim(self) -> int:
        return self.vector.size


def opposite_modality(modality: str) -> str:
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r} (expected one of {MODALITIES})")
    return IMAGE if modality == TEXT else TEXT
