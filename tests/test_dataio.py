import json
import os
import re
import sys
import threading
from unittest.mock import patch

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from cardl import dataio
from cardl.alignment import PairedExample, TrainConfig, fit, linear_model, project
from cardl.dataio import (
    FORMAT_VERSIONS,
    MAX_BLOCK_ROWS,
    SyntheticConfig,
    atomic_write,
    build_index_from_records,
    format_report_table,
    generate_synthetic,
    load_features,
    load_index,
    load_model,
    load_pair_head,
    load_pairs_and_qrels,
    load_report,
    oracle_model,
    save_features,
    save_index,
    save_model,
    save_pair_head,
    save_pairs,
    save_qrels,
    save_report,
    unified_records,
)
from cardl.errors import DataError, NumericError, UsageError
from cardl.evaluation import AP_CONVENTION, EvalReport
from cardl.nn import init_mlp
from cardl.pairhead import PairExample, PairHead, fit_pair_head, predict_pair
from cardl.records import FeatureRecord
from cardl.retrieval import build_index
from fileedit import edit_file, read_file


def small_records(seed=0):
    rng = np.random.default_rng(seed)
    texts = [FeatureRecord(f"t{k}", "text", rng.normal(size=5)) for k in range(4)]
    images = [FeatureRecord(f"i{k}", "image", rng.normal(size=3)) for k in range(4)]
    return texts, images


# ---------------------------------------------------------------- features --

def test_features_round_trip_bitwise(tmp_path):
    texts, images = small_records()
    path = tmp_path / "f.jsonl"
    save_features(texts + images, path)
    back = load_features(path)
    assert [r.id for r in back] == [r.id for r in texts + images]
    for a, b in zip(texts + images, back):
        assert a.modality == b.modality
        assert np.array_equal(a.vector, b.vector)  # repr round-trip is exact


def test_features_line_format(tmp_path):
    path = tmp_path / "f.jsonl"
    save_features([FeatureRecord("a", "text", np.array([1.5, -2.0]))], path)
    line = path.read_text().strip()
    assert json.loads(line) == {"id": "a", "modality": "text", "vector": [1.5, -2.0]}


def test_features_duplicate_id_names_line(tmp_path):
    path = tmp_path / "f.jsonl"
    rows = [
        {"id": "a", "modality": "text", "vector": [1.0]},
        {"id": "a", "modality": "text", "vector": [2.0]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(DataError, match="line 2"):
        load_features(path)


def test_features_inconsistent_dim_names_line(tmp_path):
    path = tmp_path / "f.jsonl"
    rows = [
        {"id": "a", "modality": "text", "vector": [1.0, 2.0]},
        {"id": "b", "modality": "image", "vector": [1.0]},
        {"id": "c", "modality": "text", "vector": [1.0, 2.0, 3.0]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    # the offending line, and the record that set the modality's dim
    with pytest.raises(DataError, match=r"f\.jsonl: line 3: inconsistent text dimension: 3, but record 'a' has 2"):
        load_features(path)


def test_features_malformed_json_and_missing_keys(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"id": "a"\n')
    with pytest.raises(DataError, match="line 1"):
        load_features(path)
    path.write_text('{"id": "a", "modality": "text"}\n')
    with pytest.raises(DataError):
        load_features(path)
    path.write_text('{"id": "a", "modality": "hologram", "vector": [1.0]}\n')
    with pytest.raises(DataError):
        load_features(path)
    path.write_text('{"id": "a", "modality": "text", "vector": [1.0, null]}\n')
    with pytest.raises(DataError):
        load_features(path)


def test_features_empty_file_rejected(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="empty"):
        load_features(path)


def test_features_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_features(tmp_path / "nope.jsonl")


def test_features_refuse_an_id_that_is_not_a_string(tmp_path):
    path = tmp_path / "f.jsonl"
    for bad in (5, 1.5, True, None, ["a"]):
        path.write_text(f'{{"id":"a","modality":"text","vector":[1.0]}}\n{{"id":{json.dumps(bad)},'
                        '"modality":"text","vector":[2.0]}\n')
        with pytest.raises(DataError, match=r"f\.jsonl: line 2: malformed record: id must be a JSON string"):
            load_features(path)


def test_find_feature_equals_the_loaded_record(tmp_path):
    texts, images = small_records()
    path = tmp_path / "f.jsonl"
    save_features(texts + images, path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))  # the last line has no line end
    for want in load_features(path):
        got = dataio.find_feature(path, want.id)
        assert (got.id, got.modality, got.vector.tobytes()) == (want.id, want.modality, want.vector.tobytes())


def test_find_feature_errors_name_the_file_and_the_line(tmp_path):
    path = tmp_path / "f.jsonl"
    a, b = ('{"id":"%s","modality":"text","vector":[1.0]}' % id_ for id_ in "ab")
    cases = [
        ([b], r"f\.jsonl: id 'a' not found"),
        ([a, "", a], r"f\.jsonl: line 3: duplicate id 'a'"),
        ([b, "", '{"id":"a","modality":"text"}'], r"f\.jsonl: line 3: malformed record"),
        ([b, "", '{"id":"a", "vector"'], r"f\.jsonl: line 3: malformed record"),
        # a line with a backslash is decoded whatever id it holds
        ([a, "", '{"id":"\\u0062","modality":"text","vector":[]}'], r"f\.jsonl: line 3: malformed record"),
        # the id's JSON string at byte 0 of the file
        (['"a"', b], r"f\.jsonl: line 1: malformed record"),
    ]
    for lines, message in cases:
        for end in ("\n", ""):  # with and without a line end after the last line
            path.write_text("\n".join(lines) + end)
            with pytest.raises(DataError, match=message):
                dataio.find_feature(path, "a")


def test_find_feature_does_not_validate_lines_that_cannot_hold_the_id(tmp_path):
    """Only lines containing '"<id>"' or a backslash are decoded: a garbled
    line, a duplicate or a dimension clash elsewhere goes unseen, though
    load_features refuses the same file."""
    path = tmp_path / "f.jsonl"
    path.write_text(
        "not json at all\n"
        '{"id":"b","modality":"text","vector":[1.0]}\n'
        '{"id":"b","modality":"text","vector":[1.0, 2.0]}\n'
        '{"id":"a","modality":"text","vector":[3.0]}\n'
    )
    assert dataio.find_feature(path, "a").vector.tolist() == [3.0]
    with pytest.raises(DataError, match="line 1"):
        load_features(path)


def _json_string(text: str, escape: list[bool], ascii_only: bool) -> str:
    """A JSON literal of `text` that spells each character flagged in `escape`
    as a \\uXXXX escape (one outside the BMP as its two surrogates)."""
    out = []
    for char, esc in zip(text, escape):
        if esc:
            units = char.encode("utf-16-be")
            out += [f"\\u{int.from_bytes(units[i:i + 2], 'big'):04x}" for i in range(0, len(units), 2)]
        else:
            out.append(json.dumps(char, ensure_ascii=ascii_only)[1:-1])
    return '"' + "".join(out) + '"'


# ids that stay on one line when written unescaped (no \r, \x85, \u2028 and the like)
one_line_ids = st.text(min_size=1, max_size=6).filter(lambda s: s.splitlines() == [s])


def _outcome(read) -> tuple | str:
    """The record `read()` returns, as bytes, or the message of its DataError."""
    try:
        record = read()
    except DataError as exc:
        return str(exc)
    return record.id, record.modality, record.vector.tobytes()


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(one_line_ids, min_size=1, max_size=5, unique=True), data=st.data())
def test_find_feature_finds_every_id_however_json_spells_it(tmp_path_factory, ids, data):
    """The prefilter is exact, whatever the id, however each line spells it
    (raw UTF-8, escapes of any character) and however the lines are laid out
    (blank lines, LF, CRLF or CR ends, no final line end, ids[0]'s JSON string
    in another field's value or inside a longer id): find_feature returns the
    record load_features reads for that id.  With a second line for ids[0], or
    a malformed line holding it, both raise the same DataError, naming the same
    file and line."""
    path = tmp_path_factory.mktemp("ff") / "f.jsonl"
    ids = list(dict.fromkeys([*ids, ids[0] + "x", "x" + ids[0]]))
    ascii_only = data.draw(st.booleans())

    def spelled(id_):
        escape = data.draw(st.lists(st.booleans(), min_size=len(id_), max_size=len(id_)))
        return _json_string(id_, escape, ascii_only)

    lines = []
    for k, id_ in enumerate(ids):
        note = f'"note":{spelled(ids[0])},' if data.draw(st.booleans(), label="note") else ""
        lines.append(f'{{"id":{spelled(id_)},"modality":"text",{note}"vector":[{k}.5]}}')
    defect = data.draw(st.sampled_from([None, "duplicate", "malformed"]), label="defect")
    if defect is not None:
        bad = {"duplicate": f'{{"id":{spelled(ids[0])},"modality":"text","vector":[9.5]}}',
               "malformed": data.draw(st.sampled_from([f'{{"id":{spelled(ids[0])},"modality":"text"}}',
                                                       f'{{"id":{spelled(ids[0])}, "vector"'])),
               }[defect]
        lines.insert(data.draw(st.integers(0, len(lines)), label="defect at"), bad)
    text = ""
    for line in lines:
        blanks = data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2), label="blank lines")
        for blank in [*blanks, line]:
            text += blank + data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    if data.draw(st.booleans(), label="no final line end"):
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))

    if defect is None:
        assert [r.id for r in load_features(path)] == ids
    for id_ in ids if defect is None else ids[:1]:
        loaded = _outcome(lambda: {r.id: r for r in load_features(path)}[id_])
        assert _outcome(lambda: dataio.find_feature(path, id_)) == loaded


def test_text_files_that_are_not_utf8_are_data_errors_naming_the_file(tmp_path):
    """find_feature decodes only the lines that can hold the id, so the bad
    byte is on such a line here."""
    path = tmp_path / "f.jsonl"
    path.write_bytes(b'{"id":"a","modality":"t\xffxt","vector":[1.0]}\n')
    for read in (load_features, lambda p: dataio.find_feature(p, "a"), load_pairs_and_qrels):
        with pytest.raises(DataError, match=r"f\.jsonl: cannot read: 'utf-8' codec can't decode"):
            read(path)


# ------------------------------------------------------------ pairs, qrels --

def test_pairs_round_trip_with_labels(tmp_path):
    pairs = [
        PairedExample("t0", "i0"),
        PairedExample("t1", "i1", label="optics"),
    ]
    path = tmp_path / "p.tsv"
    save_pairs(pairs, path)
    back, _ = load_pairs_and_qrels(path)
    assert [(p.text_id, p.image_id, p.label) for p in back] == [
        ("t0", "i0", None),
        ("t1", "i1", "optics"),
    ]


def test_pairs_derive_partner_qrels(tmp_path):
    path = tmp_path / "p.tsv"
    save_pairs([PairedExample("t0", "i0"), PairedExample("t1", "i1")], path)
    _, qrels = load_pairs_and_qrels(path)
    assert qrels == {"t0": {"i0"}, "i0": {"t0"}, "t1": {"i1"}, "i1": {"t1"}}


def test_qrels_file_overrides_and_drops_zero_rows(tmp_path):
    ppath = tmp_path / "p.tsv"
    qpath = tmp_path / "q.tsv"
    save_pairs([PairedExample("t0", "i0"), PairedExample("t1", "i1")], ppath)
    qpath.write_text("t0\ti0\t1\nt0\ti1\t1\nt1\ti1\t0\n")
    _, qrels = load_pairs_and_qrels(ppath, qpath)
    assert qrels == {"t0": {"i0", "i1"}}  # the rel=0 row contributes nothing


def test_pairs_duplicate_row_rejected(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("t0\ti0\nt0\ti0\n")
    with pytest.raises(DataError, match="line 2"):
        load_pairs_and_qrels(path)


def test_pairs_unknown_id_rejected_with_known_ids(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("t0\ti0\nt1\ti9\n")
    with pytest.raises(DataError, match="i9"):
        load_pairs_and_qrels(path, modality_of={"t0": "text", "i0": "image", "t1": "text"})


def test_pairs_malformed_field_count(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("t0\n")
    with pytest.raises(DataError):
        load_pairs_and_qrels(path)


def test_qrels_bad_relevance_flag(tmp_path):
    ppath = tmp_path / "p.tsv"
    qpath = tmp_path / "q.tsv"
    save_pairs([PairedExample("t0", "i0")], ppath)
    qpath.write_text("t0\ti0\tmaybe\n")
    with pytest.raises(DataError):
        load_pairs_and_qrels(ppath, qpath)


def test_save_qrels_round_trip(tmp_path):
    qrels = {"t1": {"i2", "i0"}, "t0": {"i1"}}
    qpath = tmp_path / "q.tsv"
    ppath = tmp_path / "p.tsv"
    save_qrels(qrels, qpath)
    assert qpath.read_text() == "t0\ti1\t1\nt1\ti0\t1\nt1\ti2\t1\n"
    save_pairs([PairedExample("t0", "i1"), PairedExample("t1", "i0")], ppath)
    modality_of = {"t0": "text", "t1": "text", "i0": "image", "i1": "image", "i2": "image"}
    _, back = load_pairs_and_qrels(ppath, qpath, modality_of=modality_of)
    assert back == {"t0": {"i1"}, "t1": {"i0", "i2"}}


# ------------------------------------------------------------------- model --

def test_model_round_trip_projections_bitwise(tmp_path):
    texts, images = small_records()
    pairs = [PairedExample(f"t{k}", f"i{k}") for k in range(4)]
    cfg = TrainConfig(epochs=2, batch_size=2, hidden_dims=(8,), unified_dim=3, seed=5)
    model, _ = fit(texts, images, pairs, cfg)
    path = tmp_path / "m.json"
    save_model(model, path, train_config=cfg)
    back = load_model(path)
    assert back.unified_dim == model.unified_dim
    assert back.temperature == model.temperature
    x = np.stack([r.vector for r in texts])
    assert np.array_equal(project(model.text_head, x), project(back.text_head, x))


def test_model_save_is_deterministic(tmp_path):
    texts, images = small_records()
    pairs = [PairedExample(f"t{k}", f"i{k}") for k in range(4)]
    cfg = TrainConfig(epochs=1, batch_size=2, hidden_dims=(4,), unified_dim=2, seed=1)
    model, _ = fit(texts, images, pairs, cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1, train_config=cfg)
    save_model(model, p2, train_config=cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_version_mismatch_names_both(tmp_path):
    texts, images = small_records()
    pairs = [PairedExample(f"t{k}", f"i{k}") for k in range(4)]
    model, _ = fit(texts, images, pairs, TrainConfig(epochs=0, hidden_dims=(4,), unified_dim=2))
    path = tmp_path / "m.json"
    save_model(model, path)
    edit_file(path, 99, header=["format_version"])
    with pytest.raises(DataError, match="99"):
        load_model(path)


def test_model_corrupt_layer_is_a_data_error(tmp_path):
    texts, images = small_records()
    pairs = [PairedExample(f"t{k}", f"i{k}") for k in range(4)]
    model, _ = fit(texts, images, pairs, TrainConfig(epochs=0, hidden_dims=(4,), unified_dim=2))
    path = tmp_path / "m.json"
    save_model(model, path)
    edit_file(path, "garbage", header=["text_head", 0])
    with pytest.raises(DataError, match="text_head"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("unified_dim", 3, "unified_dim is 3; its heads give 2"),
        ("text_input_dim", 7, "text_input_dim is 7; its heads give 5"),
        ("image_input_dim", "4", "image_input_dim is '4'; its heads give 4"),
        ("image_head", [[1, 9]], "heads disagree on output dim"),  # same payload size as [[2, 4]]
        ("unified_dim", 2.0, "unified_dim is 2.0; its heads give 2"),
    ],
)
def test_model_load_checks_declared_dims_against_the_heads(tmp_path, field, value, message):
    model = linear_model(np.ones((2, 5)), np.ones((2, 4)))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc, _ = read_file(path)
    assert (doc["unified_dim"], doc["text_input_dim"], doc["image_input_dim"]) == (2, 5, 4)
    edit_file(path, value, header=[field])
    with pytest.raises(DataError, match=rf"m\.json: {message}"):
        load_model(path)


def test_model_echoes_every_train_config_field(tmp_path):
    cfg = TrainConfig(epochs=0, hidden_dims=(4, 3), unified_dim=2, seed=9)
    texts, images = small_records()
    model, _ = fit(texts, images, [PairedExample(f"t{k}", f"i{k}") for k in range(4)], cfg)
    save_model(model, tmp_path / "m.json", train_config=cfg)
    echo = read_file(tmp_path / "m.json")[0]["train_config"]
    assert TrainConfig(**echo) == cfg and echo["hidden_dims"] == [4, 3]


# ------------------------------------------------------------------ writes --

def test_atomic_write_failure_keeps_the_old_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    atomic_write(target, b"old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, b"new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_writes_from_four_threads_leave_one_complete_text(tmp_path):
    target = tmp_path / "out.json"
    texts = [c * 100_000 + "\n" for c in "abcd"]  # more writers than cores
    errors = []

    def writer(text):
        try:
            for _ in range(25):
                atomic_write(target, text.encode())
        except OSError as exc:  # a thread's exception would not fail the test by itself
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_gives_a_new_file_the_usual_permissions(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    atomic_write(tmp_path / "atomic.txt", b"x")
    assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode


# --------------------------------------------------------------- pair head --

def test_pair_head_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    examples = []
    for _ in range(20):
        x = rng.normal(size=4)
        examples.append(PairExample(x, x.copy(), relevant=True))
        examples.append(PairExample(x, rng.normal(size=4), relevant=False))
    head = fit_pair_head(examples, TrainConfig(epochs=10, batch_size=8, seed=0))
    path = tmp_path / "h.json"
    save_pair_head(head, path, seed=0)
    back = load_pair_head(path)
    assert back.embedding_dim == head.embedding_dim
    x, y = rng.normal(size=4), rng.normal(size=4)
    assert predict_pair(back, x, y) == predict_pair(head, x, y)


def test_pair_head_load_checks_its_declared_embedding_dim(tmp_path):
    path = tmp_path / "h.json"
    save_pair_head(PairHead(init_mlp([8, 1], np.random.default_rng(0))), path)
    edit_file(path, 99, header=["embedding_dim"])
    with pytest.raises(DataError, match=r"h\.json: embedding_dim is 99; its head gives 2"):
        load_pair_head(path)


# ------------------------------------------------------------------- index --

def test_index_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(1)
    items = [(f"v{k}", "text" if k % 2 else "image", rng.normal(size=4)) for k in range(6)]
    index = build_index(items)
    p1, p2 = tmp_path / "i1.json", tmp_path / "i2.json"
    save_index(index, p1)
    back = load_index(p1)
    assert back.ids == index.ids
    assert back.modalities == index.modalities
    assert np.array_equal(back.vectors, index.vectors)
    save_index(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.text(), unique=True, max_size=6),
    dim=st.integers(1, 4),
    data=st.data(),
)
def test_index_round_trip_is_byte_exact_for_any_ids_and_vectors(tmp_path_factory, ids, dim, data):
    modalities = data.draw(st.lists(st.sampled_from(["text", "image"]), min_size=len(ids), max_size=len(ids)))
    vectors = data.draw(hnp.arrays(np.float64, (len(ids), dim), elements=st.floats(-1e300, 1e300)))
    assume(np.all(np.any(vectors != 0, axis=1)))
    index = build_index(list(zip(ids, modalities, vectors)))
    directory = tmp_path_factory.mktemp("index")
    save_index(index, directory / "a.json")
    back = load_index(directory / "a.json")
    assert (back.ids, back.modalities) == (index.ids, index.modalities)
    assert back.vectors.tobytes() == index.vectors.tobytes()
    assert back.vectors.flags.aligned  # a misaligned array slows every BLAS screen
    save_index(back, directory / "b.json")
    assert (directory / "a.json").read_bytes() == (directory / "b.json").read_bytes()


def test_index_load_rejects_non_unit_rows(tmp_path):
    index = build_index([("a", "text", np.array([1.0, 0.0]))])
    path = tmp_path / "i.json"
    save_index(index, path)
    edit_file(path, [2.0, 0.0], payload=0)
    with pytest.raises(NumericError, match="unit-norm"):
        load_index(path)


def test_index_load_rejects_unsorted_entries(tmp_path):
    index = build_index(
        [("a", "text", np.array([1.0, 0.0])), ("b", "image", np.array([0.0, 1.0]))]
    )
    path = tmp_path / "i.json"
    save_index(index, path)
    edit_file(path, ["b", "a"], header=["ids"])
    with pytest.raises(DataError, match="canonical"):
        load_index(path)


def test_empty_index_round_trip(tmp_path):
    path = tmp_path / "i.json"
    save_index(build_index([]), path)
    back = load_index(path)
    assert len(back) == 0


def test_index_load_rejects_duplicate_ids_and_unknown_modalities_by_id(tmp_path):
    index = build_index([("a", "text", np.array([1.0, 0.0])), ("b", "image", np.array([0.0, 1.0]))])
    path = tmp_path / "i.json"
    for field, value, message in (
        ("ids", "a", "'a': duplicate id"),
        ("modalities", "audio", "'b': unknown modality 'audio'"),
        ("modalities", "image\0", "'b': unknown modality 'image\\\\x00'"),
    ):
        save_index(index, path)
        edit_file(path, value, header=[field, 1])
        with pytest.raises(DataError, match=rf"i\.json: entry {message}"):
            load_index(path)


@pytest.mark.parametrize("header, value", [
    (["ids", 1], 7),  # a non-string id
    (["ids"], "ab"),  # a string where the list of ids belongs
    (["modalities", 0], None),  # a null modality
    (["modalities"], "text"),  # a string where the list of modalities belongs
    (["ids", 1], ["b"]),  # an id that is a list
    (["ids", 0], True),
    (["modalities"], True),
    (["modalities", 1], {"image": "b"}),
    (["ids"], {"a": 0, "b": 1}),
], ids=["non-string id", "ids as a string", "null modality", "modalities as a string", "list id", "true id",
        "modalities true", "dict modality", "ids as a dict"])
def test_index_load_rejects_names_that_are_not_lists_of_strings(tmp_path, header, value):
    path = tmp_path / "i.json"
    save_index(build_index([("a", "text", np.array([1.0, 0.0])), ("b", "image", np.array([0.0, 1.0]))]), path)
    edit_file(path, value, header=header)
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: ids and modalities must be lists of strings$"):
        load_index(path)


@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 1000])
@pytest.mark.parametrize("end", [b"\n", b""], ids=["line end", "no line end"])
def test_read_line_reads_the_first_line_and_stops_after_it(tmp_path, monkeypatch, length, end):
    """Lines ending before, on and after the ends of reads of 16, 16, 32, ... bytes."""
    monkeypatch.setattr(dataio, "HEADER_READ_BYTES", 16)
    line = bytes(range(97, 123)) * (length // 26) + bytes(range(97, 97 + length % 26)) + end
    rest = b"\x00\n\x01" if end else b""
    (tmp_path / "f").write_bytes(line + rest)
    with open(tmp_path / "f", "rb", buffering=0) as f:
        assert dataio._read_line(f) == line
        assert f.read() == rest


def test_index_with_a_header_of_several_reads_round_trips(tmp_path):
    ids = [f"{'x' * 40}{k:05d}" for k in range(3000)]  # a header of about 170 KB: three reads
    index = build_index([(id_, "text" if k % 3 else "image", [1.0, k]) for k, id_ in enumerate(ids)])
    save_index(index, tmp_path / "i.json")
    assert len((tmp_path / "i.json").read_bytes().partition(b"\n")[0]) > 2 * dataio.HEADER_READ_BYTES
    back = load_index(tmp_path / "i.json")
    assert (back.ids, back.modalities) == (index.ids, index.modalities)
    assert back.vectors.tobytes() == index.vectors.tobytes()


# ------------------------------------------------------------------ report --

def make_report(direction="txt2img"):
    return EvalReport(
        direction=direction,
        map_at={1: 0.5, 10: 0.75},
        ap_per_query={1: {"q1": 0.5, "q0": 0.5}, 10: {"q1": 1.0, "q0": 0.5}},
        evaluated=2,
        skipped=1,
    )


def test_report_round_trip(tmp_path):
    reports = {"txt2img": make_report(), "img2txt": make_report("img2txt")}
    path = tmp_path / "r.json"
    save_report(reports, path)
    back = load_report(path)
    assert set(back) == {"txt2img", "img2txt"}
    assert back["txt2img"].map_at == {1: 0.5, 10: 0.75}
    assert back["txt2img"].ap_per_query[10] == {"q0": 0.5, "q1": 1.0}
    assert back["txt2img"].evaluated == 2
    assert back["txt2img"].skipped == 1
    assert back["txt2img"].ap_convention == AP_CONVENTION


def test_report_direction_without_map_at_names_file_and_direction(tmp_path):
    path = tmp_path / "r.json"
    save_report({"txt2img": make_report()}, path)
    doc = json.loads(path.read_text())
    del doc["directions"]["txt2img"]["map_at"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=r"r\.json: direction 'txt2img' is malformed: KeyError\('map_at'\)"):
        load_report(path)


# -------------------------------------------------- versioned JSON envelope --

def _write_each_format(tmp_path) -> dict:
    """One valid file of each versioned format, keyed by its loader."""
    paths = {name: tmp_path / f"{name}.json" for name in ("model", "pair_head", "index", "report")}
    save_model(linear_model(np.eye(2), np.eye(2)), paths["model"])
    save_pair_head(PairHead(init_mlp([4, 1], np.random.default_rng(0))), paths["pair_head"])
    save_index(build_index([("a", "text", [1.0, 0.0])]), paths["index"])
    save_report({"txt2img": make_report()}, paths["report"])
    return paths


LOADERS = {  # file name -> (loader, the kind it reads)
    "model": (load_model, "alignment_model"),
    "pair_head": (load_pair_head, "pair_head"),
    "index": (load_index, "unified_index"),
    "report": (load_report, "retrieval_report"),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("case", ["top-level list", "another format's file", "no kind", "format_version 99"])
def test_versioned_loaders_refuse_other_documents_naming_the_file(tmp_path, name, case):
    paths = _write_each_format(tmp_path)
    path = paths[name]
    loader, kind = LOADERS[name]
    expected = {"kind": kind, "format_version": FORMAT_VERSIONS[kind]}
    if case == "top-level list":
        edit_file(path, [], header=[])
        found = "a JSON list"
    elif case == "another format's file":
        other = "index" if name == "model" else "model"
        path.write_bytes(paths[other].read_bytes())
        found = str({"kind": LOADERS[other][1], "format_version": 2})
    elif case == "no kind":
        edit_file(path, None, header=["kind"])
        found = str({"kind": None, "format_version": expected["format_version"]})
    else:
        edit_file(path, 99, header=["format_version"])
        found = str({**expected, "format_version": 99})
    message = rf"{name}\.json: expected {re.escape(str(expected))}, found {re.escape(found)}$"
    with pytest.raises(DataError, match=message):
        loader(path)


@pytest.mark.parametrize("name, version", [
    ("model", 1), ("pair_head", 1), ("index", 1), ("model", 2.0), ("report", True), ("report", 1.0),
])
def test_versioned_loaders_refuse_other_versions_by_type_and_value(tmp_path, name, version):
    """Format-1 model, pair-head and index files are refused, as is a version
    equal to the expected one in Python but not in type (`True == 1`)."""
    path = _write_each_format(tmp_path)[name]
    loader, kind = LOADERS[name]
    edit_file(path, version, header=["format_version"])
    found = {"kind": kind, "format_version": version}
    with pytest.raises(DataError, match=rf"{name}\.json: expected .*, found {re.escape(str(found))}$"):
        loader(path)


@pytest.mark.parametrize("name", ["index", "model", "pair_head"])
@pytest.mark.parametrize("case, message", [
    ("truncated", "truncated payload: its header declares"),
    ("trailing bytes", "trailing bytes: its header declares \\d+ payload bytes, \\d+ follow it"),
    ("dtype <f4", "payload must be {'dtype': '<f8', 'shape': \\[sizes\\]}, found"),
    ("shape disagrees with the header", "payload shape \\[{size}, 1\\] does not match"),
], ids=["truncated", "trailing bytes", "dtype <f4", "shape disagrees with the header"])
def test_damaged_payloads_are_data_errors_naming_the_file(tmp_path, name, case, message):
    path = _write_each_format(tmp_path)[name]
    data = path.read_bytes()
    if case == "truncated":
        path.write_bytes(data[:-8])
    elif case == "trailing bytes":
        path.write_bytes(data + bytes(8))
    elif case == "dtype <f4":
        edit_file(path, "<f4", header=["payload", "dtype"])
    else:  # as many values, in a shape the ids or the layer shapes do not give
        size = read_file(path)[1].size
        edit_file(path, [size, 1], header=["payload", "shape"])
        message = message.format(size=size)
    with pytest.raises(DataError, match=rf"{name}\.json: {message}"):
        LOADERS[name][0](path)


def test_payload_shape_numpy_cannot_make_is_a_data_error(tmp_path):
    path = tmp_path / "i.json"
    save_index(build_index([]), path)
    edit_file(path, [0] * 65, header=["payload", "shape"])  # numpy allows 64 dims
    with pytest.raises(DataError, match=r"i\.json: payload shape \[0, 0, "):
        load_index(path)


@pytest.mark.parametrize("name", ["index", "model", "pair_head"])
@pytest.mark.parametrize("shape", [None, 5, "", "[1, 2]", ["2"]])
def test_a_payload_shape_that_is_not_a_list_of_sizes_is_a_data_error(tmp_path, name, shape):
    path = _write_each_format(tmp_path)[name]
    edit_file(path, shape, header=["payload", "shape"])
    found = re.escape(repr({"dtype": "<f8", "shape": shape}))
    with pytest.raises(DataError, match=rf"{name}\.json: payload must be {{'dtype': '<f8', 'shape': \[sizes\]}}, found {found}$"):
        LOADERS[name][0](path)


@pytest.mark.parametrize("name, field, head", [
    ("model", "text_head", "text_head"), ("model", "image_head", "image_head"), ("pair_head", "mlp", "pair head"),
])
@pytest.mark.parametrize("shapes", [None, 5, [], [[4, 6, 1]], [[2, 2], 5], [[2, 0]]])
def test_layer_shapes_that_are_not_out_in_pairs_are_data_errors_naming_the_head(tmp_path, name, field, head, shapes):
    path = _write_each_format(tmp_path)[name]
    edit_file(path, shapes, header=[field])
    found = re.escape(repr(shapes))
    with pytest.raises(DataError, match=rf"{name}\.json: {head}: expected a nonempty list of \[out, in\] layer shapes, found {found}$"):
        LOADERS[name][0](path)


def test_report_with_trailing_bytes_is_a_data_error(tmp_path):
    path = _write_each_format(tmp_path)["report"]
    path.write_bytes(path.read_bytes() + b"{}")
    with pytest.raises(DataError, match=r"report\.json: trailing bytes: its header declares 0 payload bytes, 2"):
        load_report(path)


def test_report_table_shape():
    text = format_report_table({"txt2img": make_report(), "img2txt": make_report("img2txt")})
    lines = text.strip().splitlines()
    assert lines[0] == f"# {AP_CONVENTION}"
    assert lines[1].split() == ["direction", "MAP@1", "MAP@10", "evaluated", "skipped"]
    # directions come out sorted
    assert lines[2].startswith("img2txt")
    assert lines[3].startswith("txt2img")
    assert "0.5000" in lines[2] and "0.7500" in lines[2]


# --------------------------------------------------------------- synthetic --

def test_synthetic_config_validation():
    with pytest.raises(UsageError):
        SyntheticConfig(clusters=1)
    with pytest.raises(UsageError):
        SyntheticConfig(pairs_per_cluster=0)
    with pytest.raises(UsageError):
        SyntheticConfig(latent_dim=0)
    with pytest.raises(UsageError):
        SyntheticConfig(latent_dim=200, text_dim=128, image_dim=192)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="noise_sigma"):
            SyntheticConfig(noise_sigma=sigma)


def test_synthetic_deterministic_and_shaped():
    cfg = SyntheticConfig(clusters=3, pairs_per_cluster=4, text_dim=10, image_dim=12, latent_dim=5, seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert len(a.pairs) == 12
    assert [r.id for r in a.text_records] == [f"t{k:04d}" for k in range(12)]
    assert [r.id for r in a.image_records] == [f"i{k:04d}" for k in range(12)]
    assert a.text_records[0].dim == 10
    assert a.image_records[0].dim == 12
    assert a.cluster_ids == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    for ra, rb in zip(a.text_records, b.text_records):
        assert np.array_equal(ra.vector, rb.vector)
    assert np.array_equal(a.text_map, b.text_map)
    c = generate_synthetic(SyntheticConfig(clusters=3, pairs_per_cluster=4, text_dim=10, image_dim=12, latent_dim=5, seed=10))
    assert not np.array_equal(a.text_records[0].vector, c.text_records[0].vector)


def test_synthetic_qrels_partner_only_by_default():
    ds = generate_synthetic(SyntheticConfig(clusters=2, pairs_per_cluster=3, text_dim=6, image_dim=6, latent_dim=2))
    assert ds.qrels["t0000"] == {"i0000"}
    assert ds.qrels["i0004"] == {"t0004"}


def test_synthetic_same_cluster_relevance():
    ds = generate_synthetic(
        SyntheticConfig(clusters=2, pairs_per_cluster=3, text_dim=6, image_dim=6, latent_dim=2, same_cluster_relevant=True)
    )
    assert ds.qrels["t0000"] == {"i0000", "i0001", "i0002"}
    assert ds.qrels["i0005"] == {"t0003", "t0004", "t0005"}


@pytest.mark.parametrize("same_cluster", [False, True])
def test_synthetic_qrels_equal_the_grouped_loop(same_cluster):
    """The qrels, their key order and a fresh set per key, against the loop
    that sliced each relevance group and built each set with set()."""
    config = SyntheticConfig(clusters=3, pairs_per_cluster=4, text_dim=6, image_dim=6, latent_dim=2,
                             same_cluster_relevant=same_cluster)
    ds = generate_synthetic(config)
    tids, iids = [p.text_id for p in ds.pairs], [p.image_id for p in ds.pairs]
    group = config.pairs_per_cluster if same_cluster else 1
    expected = {}
    for lo in range(0, len(tids), group):
        texts, images = tids[lo : lo + group], iids[lo : lo + group]
        for tid, iid in zip(texts, images):
            expected[tid], expected[iid] = set(images), set(texts)
    assert ds.qrels == expected and list(ds.qrels) == list(expected)
    assert len({id(relevant) for relevant in ds.qrels.values()}) == len(ds.qrels)


def test_synthetic_noise_free_recovery_is_exact():
    cfg = SyntheticConfig(clusters=2, pairs_per_cluster=2, text_dim=8, image_dim=9, latent_dim=3, noise_sigma=0.0, seed=1)
    ds = generate_synthetic(cfg)
    # with zero noise, recovery maps invert the forward maps on every item
    t = ds.text_records[0].vector
    i = ds.image_records[0].vector
    z_t = ds.text_recovery @ t
    z_i = ds.image_recovery @ i
    assert np.max(np.abs(z_t - z_i)) < 1e-9


def test_synthetic_injectable_maps_and_rank_check():
    cfg = SyntheticConfig(clusters=2, pairs_per_cluster=2, text_dim=3, image_dim=3, latent_dim=3)
    ds = generate_synthetic(cfg, text_map=np.eye(3), image_map=np.eye(3))
    assert np.array_equal(ds.text_map, np.eye(3))
    with pytest.raises(NumericError, match="rank"):
        generate_synthetic(cfg, text_map=np.zeros((3, 3)))
    with pytest.raises(UsageError):
        generate_synthetic(cfg, text_map=np.eye(4))


def synthetic_per_pair(config, text_map=None, image_map=None):
    """The generator as one draw and one GEMV per pair, the way it was written
    before it drew in blocks."""
    rng = np.random.default_rng(config.seed & (2**64 - 1))
    centers = rng.normal(size=(config.clusters, config.latent_dim))
    text_map = rng.normal(size=(config.text_dim, config.latent_dim)) if text_map is None else text_map
    image_map = rng.normal(size=(config.image_dim, config.latent_dim)) if image_map is None else image_map
    total = config.clusters * config.pairs_per_cluster
    width = max(4, len(str(total - 1)))
    texts, images, clusters = [], [], []
    for k in range(total):
        cluster = k // config.pairs_per_cluster
        z = centers[cluster] + config.noise_sigma * rng.standard_normal(config.latent_dim)
        texts.append((f"t{k:0{width}d}", text_map @ z + config.noise_sigma * rng.standard_normal(config.text_dim)))
        images.append((f"i{k:0{width}d}", image_map @ z + config.noise_sigma * rng.standard_normal(config.image_dim)))
        clusters.append(cluster)
    qrels = {}
    for k, ((tid, _), (iid, _)) in enumerate(zip(texts, images)):
        members = [j for j in range(total) if clusters[j] == clusters[k]] if config.same_cluster_relevant else [k]
        qrels[tid] = {images[j][0] for j in members}
        qrels[iid] = {texts[j][0] for j in members}
    return texts, images, qrels, clusters


@settings(max_examples=60, deadline=None)
@given(
    clusters=st.integers(2, 4),
    per=st.integers(1, 6),
    dims=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    same_cluster=st.booleans(),
    inject=st.booleans(),
    seed=st.integers(-(2**63), 2**64 - 1),
    block=st.sampled_from([1, 2, 3, 7, MAX_BLOCK_ROWS]),
)
def test_generator_equals_the_per_pair_loop_bit_for_bit(clusters, per, dims, noise, same_cluster, inject, seed, block):
    text_dim, image_dim, latent = dims[0], dims[1], min(dims)
    config = SyntheticConfig(clusters, per, text_dim, image_dim, latent, noise, seed, same_cluster)
    maps = {}
    if inject:  # full rank with probability 1
        rng = np.random.default_rng(seed & 0xFFFF)
        maps = {"text_map": rng.normal(size=(text_dim, latent)), "image_map": rng.normal(size=(image_dim, latent))}
    with patch.object(dataio, "MAX_BLOCK_ROWS", block):  # blocks that cross cluster boundaries
        ds = generate_synthetic(config, **maps)
    texts, images, qrels, clusters_of = synthetic_per_pair(config, **maps)
    for records, expected in ((ds.text_records, texts), (ds.image_records, images)):
        assert [(r.id, r.vector.tobytes()) for r in records] == [(id_, v.tobytes()) for id_, v in expected]
    assert [(p.text_id, p.image_id, p.label) for p in ds.pairs] == [(t, i, None) for (t, _), (i, _) in zip(texts, images)]
    assert ds.qrels == qrels and list(ds.qrels) == list(qrels)
    assert ds.cluster_ids == clusters_of


def test_oracle_model_ranks_partner_first():
    cfg = SyntheticConfig(clusters=3, pairs_per_cluster=5, text_dim=12, image_dim=14, latent_dim=4, noise_sigma=0.05, seed=2)
    ds = generate_synthetic(cfg)
    model = oracle_model(ds)
    index = build_index_from_records(
        unified_records(model, ds.text_records + ds.image_records)
    )
    from cardl.retrieval import cross_media_search

    hits = sum(
        cross_media_search(model, index, rec, 1, "txt2img")[0].id == pair.image_id
        for rec, pair in zip(ds.text_records, ds.pairs)
    )
    assert hits >= 14  # near-perfect top-1 under mild noise


def test_unified_records_dim_check():
    model = oracle_model(generate_synthetic(SyntheticConfig(clusters=2, pairs_per_cluster=2, text_dim=6, image_dim=7, latent_dim=2)))
    with pytest.raises(DataError, match="wrong"):
        unified_records(model, [FeatureRecord("wrong", "text", np.ones(9))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_model_load_rejects_non_finite_weights_naming_file_head_and_layer(tmp_path, bad):
    texts, images = small_records()
    pairs = [PairedExample(f"t{k}", f"i{k}") for k in range(4)]
    model, _ = fit(texts, images, pairs, TrainConfig(epochs=0, hidden_dims=(4,), unified_dim=2))
    path = tmp_path / "m.json"
    save_model(model, path)
    first = model.image_head.layers[0]  # image_head layer 1, weight [0, 1]:
    edit_file(path, bad, payload=model.text_head.flat.size + first.weight.size + first.bias.size + 1)
    with pytest.raises(DataError, match=r"m\.json: image_head: non-finite parameter at layer 1"):
        load_model(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_pair_head_load_rejects_non_finite_weights(tmp_path, bad):
    head = PairHead(init_mlp([8, 4, 1], np.random.default_rng(0)))
    path = tmp_path / "h.json"
    save_pair_head(head, path)
    edit_file(path, bad, payload=2 * 8 + 5)  # layer 0, weight [2, 5] of 8 columns
    with pytest.raises(DataError, match=r"h\.json: pair head: non-finite parameter at layer 0"):
        load_pair_head(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
def test_index_load_rejects_non_finite_rows_by_id(tmp_path, bad):
    index = build_index([("a", "text", np.array([1.0, 0.0])), ("b", "image", np.array([0.0, 1.0]))])
    path = tmp_path / "i.json"
    save_index(index, path)
    edit_file(path, [bad, 0.0], payload=1)
    # 1e308 is finite: only its squared norm overflows, so the row is off the unit norm
    error, problem = (DataError, "not finite") if not np.isfinite(bad) else (NumericError, "not unit-norm")
    with pytest.raises(error, match=rf"i\.json: entry 'b'.*{problem}"):
        load_index(path)
