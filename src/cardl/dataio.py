"""File formats, persistence, and the synthetic oracle dataset generator.

Formats (all byte-deterministic under a fixed seed):
  - features:  one JSON object per line, fields id (a JSON string) /
    modality / vector
  - pairs:     TSV rows  text_id <TAB> image_id [<TAB> label]
  - qrels:     TSV rows  query_id <TAB> doc_id <TAB> 0|1
  - model, pair head, index (format 2): a header line of sorted-key JSON,
    then the raw little-endian float64 payload its `payload` field describes
  - report (format 1): one line of sorted-key JSON with round-trip-exact floats

Each versioned file's header carries its `kind` and `format_version`
(FORMAT_VERSIONS); `_read_doc` refuses any other, naming the file.
All writes go through a write-temp-fsync-rename helper, so readers never see
partial files and concurrent writers of one target never share a temp file.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .alignment import (
    DEFAULT_TEMPERATURE, AlignmentModel, PairedExample, TrainConfig, linear_model, project, seeded_rng,
)
from .errors import CardlError, DataError, DimensionError, NumericError, UsageError
from .evaluation import AP_CONVENTION, EvalReport, RelevanceJudgments
from .nn import MlpParams, mlp_from_flat
from .pairhead import PairHead
from .records import IMAGE, MODALITIES, TEXT, FeatureRecord
from .retrieval import UnifiedIndex, build_index

# kind -> format version of each versioned file; format 2 adds the payload
FORMAT_VERSIONS = {"alignment_model": 2, "pair_head": 2, "unified_index": 2, "retrieval_report": 1}
PAYLOAD_DTYPE = "<f8"
EMPTY_PAYLOAD = {"dtype": PAYLOAD_DTYPE, "shape": [0]}  # a format-1 file has no payload

# Rows stacked per block: records per `project` call in `unified_records`, pairs
# per draw in `generate_synthetic`.  Whole-modality stacks raised peak RSS.
MAX_BLOCK_ROWS = 256


def atomic_write(path: str | Path, *chunks: bytes | np.ndarray) -> None:
    """Write the chunks to a temp file of a unique name in the target's directory,
    fsync it, then rename it over the target; on any failure the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_bytes(path: str | Path, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def _read_text(path: str | Path, what: str) -> str:
    """The file's text with its line ends as written: `str.splitlines` ends a
    line at CR LF and at a lone CR as at LF, so a text-mode read's translation
    of them would only add time (more than the decode takes)."""
    try:
        return _read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def _header(kind: str) -> dict:
    return {"kind": kind, "format_version": FORMAT_VERSIONS[kind]}


def _differs(found, expected) -> bool:
    """Whether a value read from a file is not exactly the one expected (`True == 1`)."""
    return type(found) is not type(expected) or found != expected


def _write_doc(path: str | Path, kind: str, body: dict, payload: np.ndarray | None = None) -> None:
    """Write a versioned document: a header line of the body plus its kind and
    format version, then the payload's raw bytes when there is one."""
    header = {**_header(kind), **body}
    if payload is not None:
        payload = np.ascontiguousarray(payload, dtype=PAYLOAD_DTYPE)
        header["payload"] = {"dtype": PAYLOAD_DTYPE, "shape": list(payload.shape)}
    atomic_write(path, (json.dumps(header, sort_keys=True) + "\n").encode(), b"" if payload is None else payload)


def _read_doc(path: str | Path, kind: str, what: str) -> tuple[dict, np.ndarray]:
    """The header of a versioned file of this kind and version, and its
    payload (empty for a format-1 kind), refusing any other file."""
    header = _header(kind)
    try:
        with open(path, "rb") as f:
            try:
                doc = json.loads(f.readline())
            except ValueError as exc:
                raise DataError(f"{path}: not valid JSON: {exc}") from exc
            is_dict = isinstance(doc, dict)
            found = {key: doc.get(key) for key in header} if is_dict else f"a JSON {type(doc).__name__}"
            if not is_dict or any(_differs(found[key], value) for key, value in header.items()):
                raise DataError(f"{path}: expected {header}, found {found}")
            spec = doc.get("payload") if header["format_version"] == 2 else EMPTY_PAYLOAD
            shape = spec.get("shape") if isinstance(spec, dict) else None
            dims_ok = isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
            if not dims_ok or _differs(spec.get("dtype"), PAYLOAD_DTYPE):
                raise DataError(f"{path}: payload must be {{'dtype': '<f8', 'shape': [sizes]}}, found {spec!r}")
            size, left = 8 * math.prod(shape), os.fstat(f.fileno()).st_size - f.tell()
            if left != size:
                problem = "truncated payload" if left < size else "trailing bytes"
                raise DataError(f"{path}: {problem}: its header declares {size} payload bytes, {left} follow it")
            # np.fromfile returns an aligned array; BLAS is ~20x slower on a misaligned one
            payload = np.fromfile(f, PAYLOAD_DTYPE, size // 8)
            try:
                payload = payload.reshape(shape)
            except ValueError as exc:  # a shape numpy cannot make, such as one of 65 dims
                raise DataError(f"{path}: payload shape {shape}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    return doc, payload


# ---------------------------------------------------------------- features --

def save_features(records: Sequence[FeatureRecord], path: str | Path) -> None:
    lines = [
        json.dumps({"id": r.id, "modality": r.modality, "vector": r.vector.tolist()},
                   sort_keys=True, separators=(",", ":"))
        for r in records
    ]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


_MALFORMED = (ValueError, KeyError, TypeError, DataError)  # what a malformed feature line raises


def _feature_record(line: str) -> FeatureRecord:
    """The record on one line of a feature file; a malformed one raises one of _MALFORMED."""
    obj = json.loads(line)
    if not isinstance(obj["id"], str):
        raise TypeError(f"id must be a JSON string, found {obj['id']!r}")
    return FeatureRecord(id=obj["id"], modality=obj["modality"], vector=obj["vector"])


def load_features(path: str | Path) -> list[FeatureRecord]:
    """Parse a feature file; order is preserved, dims must be uniform per modality."""
    records: list[FeatureRecord] = []
    dims: dict[str, tuple[int, int]] = {}  # modality -> (dim, line where first seen)
    seen_ids: set[str] = set()
    for lineno, line in enumerate(_read_text(path, "feature").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = _feature_record(line)
        except _MALFORMED as exc:
            raise DataError(f"{path}: malformed record at line {lineno}: {exc}") from exc
        if record.id in seen_ids:
            raise DataError(f"{path}: duplicate id {record.id!r} at line {lineno}")
        seen_ids.add(record.id)
        dim, first_line = dims.setdefault(record.modality, (record.dim, lineno))
        if record.dim != dim:
            raise DataError(
                f"{path}: inconsistent {record.modality} dimension: {record.dim} at "
                f"line {lineno}, {dim} at line {first_line}"
            )
        records.append(record)
    if not records:
        raise DataError(f"{path}: feature file is empty")
    return records


def find_feature(path: str | Path, record_id: str) -> FeatureRecord:
    """The one record of a feature file with this id.

    The file is read once, and its UTF-8 bytes are searched with `bytes.find`
    for `"<id>"` and for a backslash, since a JSON string can spell the id in
    no other way.  Only the lines holding one of them are decoded, and they
    are checked as `load_features` checks them; the other lines are neither
    decoded, split off nor validated.  A malformed decoded line, a second line
    with the id and a missing id are each a DataError naming the file.  A line
    number is counted only for such a message, and it is the one
    `load_features` gives the line.
    """
    data = _read_bytes(path, "feature")  # decoding all of it would cost more than the search
    needle, found = f'"{record_id}"', None
    # a lone surrogate has no UTF-8 form: such an id is found only through an escape, a backslash line
    pattern = needle.encode("utf-8", "surrogatepass")
    quote_at, slash_at = data.find(pattern), data.find(b"\\")  # the next of each; -1 when none is left
    while quote_at >= 0 or slash_at >= 0:
        start = data.rfind(b"\n", 0, min(at for at in (quote_at, slash_at) if at >= 0)) + 1
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        try:
            text = data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read feature file {path}: {exc}") from exc
        # splitlines also ends a line at \r, \v, \x85, \u2028 and the like
        for k, line in enumerate(text.splitlines()):
            if needle not in line and "\\" not in line:
                continue
            try:
                record = _feature_record(line)
            except _MALFORMED as exc:
                lineno = _line_number(data, start, k)
                raise DataError(f"{path}: malformed record at line {lineno}: {exc}") from exc
            if record.id == record_id:
                if found is not None:
                    raise DataError(f"{path}: duplicate id {record_id!r} at line {_line_number(data, start, k)}")
                found = record
        if 0 <= quote_at < end:
            quote_at = data.find(pattern, end)
        if 0 <= slash_at < end:
            slash_at = data.find(b"\\", end)
    if found is None:
        raise DataError(f"id {record_id!r} not found in {path}")
    return found


def _line_number(data: bytes, start: int, k: int) -> int:
    """The number `load_features` gives line k of the file from byte `start`, the start of a line."""
    return len(data[:start].decode("utf-8", "replace").splitlines()) + k + 1


# ----------------------------------------------------------- pairs / qrels --

def save_pairs(pairs: Sequence[PairedExample], path: str | Path) -> None:
    lines = []
    for p in pairs:
        row = [p.text_id, p.image_id]
        if p.label is not None:
            row.append(p.label)
        lines.append("\t".join(row))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def save_qrels(qrels: Mapping[str, set[str]], path: str | Path) -> None:
    lines = [
        f"{qid}\t{doc}\t1"
        for qid in sorted(qrels)
        for doc in sorted(qrels[qid])
    ]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def load_pairs_and_qrels(
    pairs_path: str | Path,
    qrels_path: str | Path | None = None,
    known_ids: set[str] | None = None,
) -> tuple[list[PairedExample], RelevanceJudgments]:
    """Read pairs (and qrels, if present) from tab-separated files.

    Without a qrels file, each pair's partner is its sole relevant document
    in both directions.  When `known_ids` is given, any id not in it is a
    hard data error.
    """
    raw = _read_text(pairs_path, "pairs")
    pairs: list[PairedExample] = []
    seen_rows: set[tuple[str, str]] = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) not in (2, 3):
            raise DataError(
                f"{pairs_path}: line {lineno}: expected 2 or 3 tab-separated "
                f"fields, got {len(fields)}"
            )
        text_id, image_id = fields[0], fields[1]
        label = fields[2] if len(fields) == 3 else None
        if (text_id, image_id) in seen_rows:
            raise DataError(f"{pairs_path}: line {lineno}: duplicate pair {text_id} -> {image_id}")
        seen_rows.add((text_id, image_id))
        for id_ in (text_id, image_id):
            if known_ids is not None and id_ not in known_ids:
                raise DataError(f"{pairs_path}: line {lineno}: unknown id {id_!r}")
        pairs.append(PairedExample(text_id=text_id, image_id=image_id, label=label))
    if not pairs:
        raise DataError(f"{pairs_path}: no pairs found")

    qrels: RelevanceJudgments = {}
    if qrels_path is None:
        for p in pairs:
            qrels.setdefault(p.text_id, set()).add(p.image_id)
            qrels.setdefault(p.image_id, set()).add(p.text_id)
        return pairs, qrels

    raw = _read_text(qrels_path, "qrels")
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3 or fields[2] not in ("0", "1"):
            raise DataError(
                f"{qrels_path}: line {lineno}: expected 'query<TAB>doc<TAB>0|1'"
            )
        qid, doc, rel = fields
        for id_ in (qid, doc):
            if known_ids is not None and id_ not in known_ids:
                raise DataError(f"{qrels_path}: line {lineno}: unknown id {id_!r}")
        if rel == "1":
            qrels.setdefault(qid, set()).add(doc)
    return pairs, qrels


# -------------------------------------------------------------------- model --

def _mlps_from(doc: dict, payload: np.ndarray, path: str | Path, heads: Mapping[str, str]) -> list[MlpParams]:
    """The MLPs whose layer shapes the header fields `heads` give (field ->
    name in messages), cut one after another from the payload."""
    shapes = [doc.get(field) for field in heads]
    for name, s in zip(heads.values(), shapes):
        if not (isinstance(s, list) and s and all(
            isinstance(p, list) and len(p) == 2 and all(type(d) is int and d >= 1 for d in p) for p in s
        )):
            raise DataError(f"{path}: {name}: expected a nonempty list of [out, in] layer shapes, found {s!r}")
    ends = np.cumsum([0] + [sum(out_dim * (in_dim + 1) for out_dim, in_dim in s) for s in shapes])
    if payload.shape != (ends[-1],):
        raise DataError(f"{path}: payload shape {list(payload.shape)} does not match the layer shapes")
    mlps = []
    for name, s, lo, hi in zip(heads.values(), shapes, ends, ends[1:]):
        try:
            mlps.append(mlp_from_flat(s, payload[lo:hi]))
        except CardlError as exc:  # layers that do not chain, or a non-finite parameter
            raise DataError(f"{path}: {name}: {exc}") from exc
    return mlps


def _check_declared(doc: dict, path: str | Path, obj, names: Sequence[str], source: str) -> None:
    """Each header field in `names` must equal the same attribute of `obj`."""
    for name in names:
        if _differs(doc.get(name), getattr(obj, name)):
            raise DataError(f"{path}: {name} is {doc.get(name)!r}; {source} {getattr(obj, name)}")


def save_model(
    model: AlignmentModel,
    path: str | Path,
    train_config: TrainConfig | None = None,
    seed: int | None = None,
) -> None:
    if seed is None and train_config is not None:
        seed = train_config.seed
    _write_doc(path, "alignment_model", {
        "unified_dim": model.unified_dim,
        "temperature": model.temperature,
        "text_input_dim": model.text_input_dim,
        "image_input_dim": model.image_input_dim,
        "text_head": model.text_head.shapes,
        "image_head": model.image_head.shapes,
        "train_config": None if train_config is None else asdict(train_config),
        "seed": seed,
    }, payload=np.concatenate([model.text_head.flat, model.image_head.flat]))


def load_model(path: str | Path) -> AlignmentModel:
    """Reload a saved model; projections are bit-identical to the original."""
    doc, payload = _read_doc(path, "alignment_model", "model")
    heads = _mlps_from(doc, payload, path, {"text_head": "text_head", "image_head": "image_head"})
    temperature = doc.get("temperature")
    if type(temperature) not in (int, float):  # refuses true and "0.5", which float() would take
        raise DataError(f"{path}: temperature must be a number, found {temperature!r}")
    try:
        model = AlignmentModel(*heads, temperature=float(temperature))
    except OverflowError as exc:  # an integer beyond the float range
        raise DataError(f"{path}: temperature {exc}") from exc
    except UsageError as exc:  # heads that disagree, or a temperature not positive and finite
        raise DataError(f"{path}: {exc}") from exc
    _check_declared(doc, path, model, ("unified_dim", "text_input_dim", "image_input_dim"), "its heads give")
    return model


def save_pair_head(head: PairHead, path: str | Path, seed: int | None = None) -> None:
    _write_doc(path, "pair_head", {
        "embedding_dim": head.embedding_dim,
        "mlp": head.mlp.shapes,
        "seed": seed,
    }, payload=head.mlp.flat)


def load_pair_head(path: str | Path) -> PairHead:
    doc, payload = _read_doc(path, "pair_head", "pair head")
    try:
        head = PairHead(*_mlps_from(doc, payload, path, {"mlp": "pair head"}))
    except DimensionError as exc:  # not 4*d inputs, or not one output
        raise DataError(f"{path}: pair head: {exc}") from exc
    _check_declared(doc, path, head, ("embedding_dim",), "its head gives")
    return head


# -------------------------------------------------------------------- index --

def save_index(index: UnifiedIndex, path: str | Path) -> None:
    body = {"ids": list(index.ids), "modalities": list(index.modalities)}
    _write_doc(path, "unified_index", body, payload=index.vectors)


def load_index(path: str | Path) -> UnifiedIndex:
    """Reload an index verbatim (no renormalization, so round-trips are exact);
    `UnifiedIndex` checks the entries, and its errors gain the path."""
    doc, vectors = _read_doc(path, "unified_index", "index")
    ids, modalities = doc.get("ids"), doc.get("modalities")
    if not all(isinstance(names, list) and set(map(type, names)) <= {str} for names in (ids, modalities)):
        raise DataError(f"{path}: ids and modalities must be lists of strings")
    if not (vectors.ndim == 2 and vectors.shape[0] == len(ids) == len(modalities)):
        raise DataError(f"{path}: payload shape {list(vectors.shape)} does not match "
                        f"{len(ids)} ids and {len(modalities)} modalities")
    try:
        return UnifiedIndex(ids=tuple(ids), modalities=tuple(modalities), vectors=vectors)
    except CardlError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ------------------------------------------------------------------- report --

def save_report(reports: Mapping[str, EvalReport], path: str | Path) -> None:
    directions = {}
    for direction, rep in sorted(reports.items()):
        directions[direction] = {
            "map_at": {str(k): v for k, v in sorted(rep.map_at.items())},
            "ap_per_query": {
                str(k): dict(sorted(per.items()))
                for k, per in sorted(rep.ap_per_query.items())
            },
            "evaluated": rep.evaluated,
            "skipped": rep.skipped,
        }
    _write_doc(path, "retrieval_report", {"ap_convention": AP_CONVENTION, "directions": directions})


def load_report(path: str | Path) -> dict[str, EvalReport]:
    doc, _ = _read_doc(path, "retrieval_report", "report")
    directions = doc.get("directions", {})
    if not isinstance(directions, dict):
        raise DataError(f"{path}: directions must be an object, got {type(directions).__name__}")
    reports = {}
    for direction, body in directions.items():
        try:
            reports[direction] = EvalReport(
                direction=direction,
                map_at={int(k): v for k, v in body["map_at"].items()},
                ap_per_query={
                    int(k): dict(per) for k, per in body["ap_per_query"].items()
                },
                evaluated=int(body["evaluated"]),
                skipped=int(body["skipped"]),
                ap_convention=doc.get("ap_convention", AP_CONVENTION),
            )
        except (KeyError, AttributeError, TypeError, ValueError, DataError) as exc:
            raise DataError(f"{path}: direction {direction!r} is malformed: {exc!r}") from exc
    return reports


def format_report_table(reports: Mapping[str, EvalReport]) -> str:
    """Aligned plain-text table, one row per direction, one MAP column per k."""
    k_list = sorted({k for rep in reports.values() for k in rep.map_at})
    header = ["direction"] + [f"MAP@{k}" for k in k_list] + ["evaluated", "skipped"]
    rows = [header]
    for direction in sorted(reports):
        rep = reports[direction]
        rows.append(
            [direction]
            + [f"{rep.map_at[k]:.4f}" if k in rep.map_at else "-" for k in k_list]
            + [str(rep.evaluated), str(rep.skipped)]
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = [f"# {AP_CONVENTION}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# --------------------------------------------------------- synthetic oracle --

@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the clustered linear-latent generator.

    Each cluster plays the role of a subject field; items from other
    clusters act as the cross-field negatives.
    """

    clusters: int = 8
    pairs_per_cluster: int = 50
    text_dim: int = 128
    image_dim: int = 192
    latent_dim: int = 16
    noise_sigma: float = 0.1
    seed: int = 42
    same_cluster_relevant: bool = False

    def __post_init__(self):
        if self.clusters < 2:
            raise UsageError(f"need at least 2 clusters, got {self.clusters}")
        if self.pairs_per_cluster < 1:
            raise UsageError(f"pairs_per_cluster must be >= 1, got {self.pairs_per_cluster}")
        if not 1 <= self.latent_dim <= min(self.text_dim, self.image_dim):
            raise UsageError(
                f"latent_dim {self.latent_dim} must lie in 1..min(text_dim, "
                f"image_dim) = {min(self.text_dim, self.image_dim)}"
            )
        if not 0 <= self.noise_sigma < np.inf:  # `< 0` alone lets NaN pass
            raise UsageError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")


@dataclass
class SyntheticDataset:
    """Generated corpus plus the ground-truth maps that make it an oracle."""

    config: SyntheticConfig
    text_records: list[FeatureRecord]
    image_records: list[FeatureRecord]
    pairs: list[PairedExample]
    qrels: RelevanceJudgments
    cluster_ids: list[int]  # cluster of each pair, in pair order
    text_map: np.ndarray  # (text_dim, latent): latent -> text features
    image_map: np.ndarray  # (image_dim, latent)
    text_recovery: np.ndarray  # (latent, text_dim): pseudo-inverse, text -> latent
    image_recovery: np.ndarray  # (latent, image_dim)


def generate_synthetic(
    config: SyntheticConfig,
    text_map: np.ndarray | None = None,
    image_map: np.ndarray | None = None,
) -> SyntheticDataset:
    """Draw a clustered paired corpus with known linear structure.

    Per pair: a latent point near its cluster center, then a text view
    A_t @ z and an image view A_i @ z, each plus isotropic noise.  The
    pseudo-inverses of A_t and A_i recover the latent exactly when noise is
    zero, so an untrained exact-alignment model always exists.  Identical
    configs produce identical datasets byte for byte.

    Each block of up to MAX_BLOCK_ROWS pairs is one draw, a row per pair of its
    latent, text and image noise, and one stacked GEMV per pair and view, so
    it has the bits of drawing and projecting pair by pair.

    The forward maps can be injected (tests use the identity); by default
    they are drawn from the seed.
    """
    rng = seeded_rng(config.seed)
    centers = rng.normal(size=(config.clusters, config.latent_dim))
    if text_map is None:
        text_map = rng.normal(size=(config.text_dim, config.latent_dim))
    else:
        text_map = np.asarray(text_map, dtype=np.float64)
    if image_map is None:
        image_map = rng.normal(size=(config.image_dim, config.latent_dim))
    else:
        image_map = np.asarray(image_map, dtype=np.float64)
    for name, mat, rows in (
        ("text_map", text_map, config.text_dim),
        ("image_map", image_map, config.image_dim),
    ):
        if mat.shape != (rows, config.latent_dim):
            raise UsageError(
                f"{name} must have shape ({rows}, {config.latent_dim}), got {mat.shape}"
            )
        if np.linalg.matrix_rank(mat) < config.latent_dim:
            raise NumericError(f"{name} is rank-deficient; latent recovery impossible")

    per, latent, text_dim = config.pairs_per_cluster, config.latent_dim, config.text_dim
    total = config.clusters * per
    width = max(4, len(str(total - 1)))
    tids, iids = ([f"{side}{k:0{width}d}" for k in range(total)] for side in "ti")
    cluster_ids = [k // per for k in range(total)]
    text_records, image_records = [], []
    for lo in range(0, total, MAX_BLOCK_ROWS):
        hi = min(lo + MAX_BLOCK_ROWS, total)
        noise = config.noise_sigma * rng.standard_normal((hi - lo, latent + text_dim + config.image_dim))
        z = centers[cluster_ids[lo:hi], :, None] + noise[:, :latent, None]  # a stack: one GEMV per pair
        text = (text_map @ z)[:, :, 0] + noise[:, latent : latent + text_dim]
        image = (image_map @ z)[:, :, 0] + noise[:, latent + text_dim :]
        text_records += FeatureRecord.block(tids[lo:hi], TEXT, text)
        image_records += FeatureRecord.block(iids[lo:hi], IMAGE, image)
    pairs = [PairedExample(text_id=tid, image_id=iid) for tid, iid in zip(tids, iids)]
    group = per if config.same_cluster_relevant else 1  # pairs relevant to one another
    qrels: RelevanceJudgments = {}
    for lo in range(0, total, group):
        texts, images = tids[lo : lo + group], iids[lo : lo + group]
        for tid, iid in zip(texts, images):
            qrels[tid], qrels[iid] = set(images), set(texts)

    return SyntheticDataset(
        config=config,
        text_records=text_records,
        image_records=image_records,
        pairs=pairs,
        qrels=qrels,
        cluster_ids=cluster_ids,
        text_map=text_map,
        image_map=image_map,
        text_recovery=np.linalg.pinv(text_map),
        image_recovery=np.linalg.pinv(image_map),
    )


def oracle_model(
    dataset: SyntheticDataset, temperature: float = DEFAULT_TEMPERATURE
) -> AlignmentModel:
    """Exact-alignment model built from the generator's recovery maps."""
    return linear_model(dataset.text_recovery, dataset.image_recovery, temperature)


def unified_records(model: AlignmentModel, records: Sequence[FeatureRecord]) -> list[FeatureRecord]:
    """Project raw feature records through the matching head of the model;
    the output keeps the input order.  Each block of up to MAX_BLOCK_ROWS
    records of a modality is one `project` call, and its unified records are
    made by one `FeatureRecord.block`, each owning its row."""
    out = list(records)
    for modality in MODALITIES:
        head = model.head_for(modality)
        dim = head.input_dim
        rows = [k for k, r in enumerate(records) if r.modality == modality]
        wrong = next((records[k] for k in rows if records[k].dim != dim), None)
        if wrong is not None:
            raise DataError(f"record {wrong.id!r}: {modality} vector has dim {wrong.dim}, model expects {dim}")
        for lo in range(0, len(rows), MAX_BLOCK_ROWS):
            block = rows[lo : lo + MAX_BLOCK_ROWS]
            ids = [records[k].id for k in block]
            unit = project(head, np.array([records[k].vector for k in block]), ids=ids)
            for k, record in zip(block, FeatureRecord.block(ids, modality, unit)):
                out[k] = record
    return out


def build_index_from_records(records: Sequence[FeatureRecord]) -> UnifiedIndex:
    return build_index(records)
