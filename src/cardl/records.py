"""Core record type carried between every stage: one feature vector with an id."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DimensionError

TEXT = "text"
IMAGE = "image"
MODALITIES = (TEXT, IMAGE)


@dataclass(eq=False)
class FeatureRecord:
    """A raw (or unified) feature vector produced by an external encoder.

    `modality` is either "text" or "image"; the vector must be nonempty
    and finite.  The record owns a float64 copy of the vector it is given,
    so a row of a larger array does not keep that array alive, and a later
    write to the source cannot slip a non-finite value past the check.
    `FeatureRecord.block` makes the records of a whole matrix the same way,
    each with its own row copy, checking the matrix once.
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

    @classmethod
    def block(cls, ids: Sequence[str], modality: str, rows: np.ndarray) -> list[FeatureRecord]:
        """`[FeatureRecord(i, modality, row) for i, row in zip(ids, rows)]` for a
        2-D block, checked once: the modality, the shape, the ids and one
        `np.isfinite` over the block.  Each record owns a copy of its row.  A
        bad block raises the single-record error of its first bad row, so each
        rule and message has one definition."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[:1] != (len(ids),):
            raise DimensionError(f"{len(ids)} ids for a block of shape {rows.shape}")
        whole = modality in MODALITIES and rows.ndim == 2 and rows.shape[1] > 0  # holds for every row or none
        finite = np.isfinite(rows).all(axis=1) if whole else np.zeros(len(ids), dtype=bool)
        if not (finite.all() and all(ids)):
            bad = next(k for k, (id_, ok) in enumerate(zip(ids, finite)) if not (id_ and ok))
            cls(ids[bad], modality, rows[bad])  # raises: this row breaks a rule
        records = []
        for id_, row in zip(ids, rows):
            record = object.__new__(cls)  # the block is checked: skip the per-row __post_init__
            record.id, record.modality, record.vector = id_, modality, row.copy()
            records.append(record)
        return records

    @property
    def dim(self) -> int:
        return self.vector.size


def check_fits(records: Iterable[FeatureRecord], modality: str, dim: int) -> None:
    """The one rule for a record that goes through a model head: a DataError
    naming the first record that is not a `modality` vector of `dim` entries."""
    for record in records:
        if record.modality != modality:
            raise DataError(f"record {record.id!r}: {record.modality} vector where the model expects {modality}")
        if record.dim != dim:
            raise DataError(f"record {record.id!r}: {modality} vector has dim {record.dim}, model expects {dim}")


def opposite_modality(modality: str) -> str:
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r} (expected one of {MODALITIES})")
    return IMAGE if modality == TEXT else TEXT
