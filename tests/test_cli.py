import contextlib
import ctypes
import hashlib
import io
import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardl import cli
from cardl.alignment import TrainConfig, linear_model
from cardl.cli import _parse_int_list, build_parser, cli_main
from cardl.dataio import (
    SyntheticConfig, load_features, load_index, load_model, load_report, save_features, save_index, save_model,
    save_pair_head, unified_records,
)
from cardl.evaluation import DEFAULT_K_LIST
from cardl.pairhead import PairExample, fit_pair_head
from cardl.retrieval import build_index
from fileedit import edit_file, read_file
from test_acceptance import run_pipeline


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    rc = cli_main(
        [
            "synth",
            "--out-dir", str(out),
            "--clusters", "3",
            "--pairs-per-cluster", "6",
            "--text-dim", "12",
            "--image-dim", "16",
            "--latent-dim", "4",
            "--seed", "5",
        ]
    )
    assert rc == 0
    return out


def run(args):
    return cli_main([str(a) for a in args])


def test_no_args_prints_help_and_fails(capsys):
    assert cli_main([]) == 1
    err = capsys.readouterr().err
    assert "synth" in err and "query" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli_main(["synth", "--no-such-flag", "x"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_synth_writes_all_artifacts(synth_dir):
    names = {p.name for p in synth_dir.iterdir()}
    assert names == {
        "text_features.jsonl",
        "image_features.jsonl",
        "pairs.tsv",
        "qrels.tsv",
        "oracle_model.json",
    }
    texts = load_features(synth_dir / "text_features.jsonl")
    assert len(texts) == 18
    assert texts[0].dim == 12
    oracle = load_model(synth_dir / "oracle_model.json")
    assert oracle.text_input_dim == 12
    assert oracle.image_input_dim == 16


def test_full_pipeline_and_outputs(synth_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    rc = run(
        [
            "train",
            "--text-features", synth_dir / "text_features.jsonl",
            "--image-features", synth_dir / "image_features.jsonl",
            "--pairs", synth_dir / "pairs.tsv",
            "--epochs", "10",
            "--hidden-dims", "32",
            "--unified-dim", "8",
            "--seed", "5",
            "--out", model_path,
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "epoch 10/10" in err
    model = load_model(model_path)
    assert model.unified_dim == 8

    uni_t = tmp_path / "ut.jsonl"
    uni_i = tmp_path / "ui.jsonl"
    assert run(["embed", "--model", model_path, "--features", synth_dir / "text_features.jsonl", "--out", uni_t]) == 0
    assert run(["embed", "--model", model_path, "--features", synth_dir / "image_features.jsonl", "--out", uni_i]) == 0
    both = tmp_path / "all.jsonl"
    both.write_text(uni_t.read_text() + uni_i.read_text())
    capsys.readouterr()

    index_path = tmp_path / "index.json"
    assert run(["index", "--vectors", both, "--out", index_path]) == 0
    index = load_index(index_path)
    assert len(index) == 36
    assert index.dimension == 8
    capsys.readouterr()

    texts = load_features(synth_dir / "text_features.jsonl")
    qid = texts[0].id
    assert run(
        ["query", "--index", index_path, "--model", model_path, "--id", qid, "--direction", "txt2img", "--k", "4"]
    ) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 4
    for rank, line in enumerate(out_lines, start=1):
        fields = line.split("\t")
        assert len(fields) == 3
        assert int(fields[0]) == rank
        assert fields[1].startswith("i")  # txt2img returns image ids
        float(fields[2])

    report_path = tmp_path / "report.json"
    assert run(
        [
            "eval",
            "--index", index_path,
            "--model", model_path,
            "--text-features", synth_dir / "text_features.jsonl",
            "--image-features", synth_dir / "image_features.jsonl",
            "--pairs", synth_dir / "pairs.tsv",
            "--k-list", "1,5",
            "--out", report_path,
        ]
    ) == 0
    table = capsys.readouterr().out
    assert "MAP@1" in table and "MAP@5" in table
    assert "txt2img" in table and "img2txt" in table
    back = load_report(report_path)
    assert set(back) == {"txt2img", "img2txt"}
    assert set(back["txt2img"].map_at) == {1, 5}


def test_query_without_features_uses_indexed_vector(synth_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run(
        [
            "train",
            "--text-features", synth_dir / "text_features.jsonl",
            "--image-features", synth_dir / "image_features.jsonl",
            "--pairs", synth_dir / "pairs.tsv",
            "--epochs", "2", "--hidden-dims", "16", "--unified-dim", "4",
            "--out", model_path,
        ]
    )
    uni = tmp_path / "u.jsonl"
    run(["embed", "--model", model_path, "--features", synth_dir / "text_features.jsonl", "--out", uni])
    uni_i = tmp_path / "ui.jsonl"
    run(["embed", "--model", model_path, "--features", synth_dir / "image_features.jsonl", "--out", uni_i])
    both = tmp_path / "all.jsonl"
    both.write_text(uni.read_text() + uni_i.read_text())
    index_path = tmp_path / "index.json"
    run(["index", "--vectors", both, "--out", index_path])
    capsys.readouterr()

    # stored-vector path and explicit-features path agree
    assert run(["query", "--index", index_path, "--model", model_path, "--id", "t0000", "--direction", "txt2img", "--k", "3"]) == 0
    stored = capsys.readouterr().out
    assert run(
        ["query", "--index", index_path, "--model", model_path, "--id", "t0000",
         "--direction", "txt2img", "--k", "3", "--features", synth_dir / "text_features.jsonl"]
    ) == 0
    explicit = capsys.readouterr().out
    assert stored == explicit

    # an image id cannot drive a txt2img query
    assert run(["query", "--index", index_path, "--model", model_path, "--id", "i0000", "--direction", "txt2img"]) == 1
    # unknown id is a data error
    assert run(["query", "--index", index_path, "--model", model_path, "--id", "zz", "--direction", "txt2img"]) == 2


def test_exit_codes_by_failure_class(synth_dir, tmp_path):
    # data error: corrupt JSON model file
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(["embed", "--model", bad, "--features", synth_dir / "text_features.jsonl", "--out", tmp_path / "o.jsonl"]) == 2

    # numeric error: indexing a zero vector
    zero = tmp_path / "zero.jsonl"
    zero.write_text(json.dumps({"id": "z", "modality": "text", "vector": [0.0, 0.0]}) + "\n")
    assert run(["index", "--vectors", zero, "--out", tmp_path / "zi.json"]) == 3

    # usage error: bad direction choice
    assert run(["query", "--index", tmp_path / "x.json", "--model", tmp_path / "y.json", "--id", "a", "--direction", "diagonal"]) == 1


QUERY = ["query", "--index", "{index}", "--id", "t0", "--direction", "txt2img"]
EMBED = ["embed", "--model", "{model}", "--features", "{features}", "--out", "{out}"]
TRAIN = ["train", "--text-features", "{features}", "--image-features", "{features}", "--pairs", "{out}", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv, edit, code",
    [
        (["synth", "--out-dir", "{out}", "--no-such-flag", "x"], None, 1),
        (QUERY + ["--features", "{features}"], None, 1),  # no --model to project them
        (EMBED, ("model", 3, {"header": ["unified_dim"]}), 2),  # the heads output 2 dims
        (EMBED, ("model", float("nan"), {"payload": 0}), 2),  # text head, layer 0, weight [0, 0]
        (EMBED, ("model", "hot", {"header": ["temperature"]}), 2),
        (EMBED, ("model", float("nan"), {"header": ["temperature"]}), 2),
        (EMBED, ("model", float("inf"), {"header": ["temperature"]}), 2),
        (EMBED, ("model", True, {"header": ["temperature"]}), 2),  # float() reads it as 1.0
        (EMBED, ("model", "0.5", {"header": ["temperature"]}), 2),  # float() reads it as 0.5
        (EMBED, ("model", 10**400, {"header": ["temperature"]}), 2),  # float() overflows
        (QUERY, ("index", [2.0, 0.0], {"payload": 0}), 3),  # not unit-norm
        (QUERY + ["--model", "{model}", "--features", "{features}"], ("features", [0.0, 0.0], None), 3),
        (["query", "--index", "{model}", "--id", "t0", "--direction", "txt2img",
          "--model", "{model}", "--features", "{features}"], None, 2),  # a model is no index
        (EMBED, ("model", [], {"header": []}), 2),  # a top-level JSON list
        (["pairhead-train", "--features", "{features}", "--pairs", "{out}", "--out", "{out}",
          "--negatives-per-positive", "0"], None, 1),  # refused before any file is read
        (["synth", "--out-dir", "{out}", "--noise-sigma", "nan"], None, 1),
        (["synth", "--out-dir", "{out}", "--noise-sigma", "inf"], None, 1),
        (TRAIN + ["--learning-rate", "nan"], None, 1),  # refused before any file is read
        (TRAIN + ["--learning-rate", "inf"], None, 1),
    ],
    ids=["unknown flag", "features without model", "model dims disagree", "NaN weight",
         "temperature not a number", "NaN temperature", "infinite temperature",
         "boolean temperature", "temperature as a string", "temperature beyond the float range",
         "index entry not unit-norm", "all-zero raw query", "model file as index",
         "model file holds a list", "no negatives per positive", "NaN noise", "infinite noise",
         "NaN learning rate", "infinite learning rate"],
)
def test_exit_code_matches_the_error_class(tmp_path, capsys, argv, edit, code):
    files = {name: tmp_path / name for name in ("index", "model", "features", "out")}
    save_index(build_index([("t0", "text", [1.0, 0.0]), ("i0", "image", [0.0, 1.0])]), files["index"])
    save_model(linear_model(np.eye(2), np.eye(2)), files["model"])
    features = {"id": "t0", "modality": "text", "vector": [0.6, 0.8]}
    if edit is not None:
        name, value, where = edit
        if name == "features":
            features["vector"] = value
        else:  # one header field or payload element of a versioned file
            edit_file(files[name], value, **where)
    files["features"].write_text(json.dumps(features))
    assert run([arg.format(**files) for arg in argv]) == code
    if code == 2:  # each data error here is in the model file, and names it
        assert str(files["model"]) in capsys.readouterr().err


# the fixed replacement pool of the file fuzz (ROADMAP item 4)
FUZZ_POOL = [None, True, False, 0, -0.0, 1e308, float("nan"), "", "text", "image", "t0000", "zz",
             [], {}, [[1, [2.0]], []]]


def header_paths(node, path=()):
    """Every key path into a JSON header: each leaf, and each list or object as a whole."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from header_paths(child, path + (key,))


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A tiny corpus, its oracle model and a valid index of both sides."""
    base = tmp_path_factory.mktemp("fuzz")
    assert run(["synth", "--out-dir", base, "--clusters", "2", "--pairs-per-cluster", "3", "--text-dim", "3",
                "--image-dim", "4", "--latent-dim", "2", "--seed", "1"]) == 0
    unified = base / "unified.jsonl"
    for side in ("text", "image"):
        assert run(["embed", "--model", base / "oracle_model.json",
                    "--features", base / f"{side}_features.jsonl", "--out", base / f"u_{side}.jsonl"]) == 0
    unified.write_text((base / "u_text.jsonl").read_text() + (base / "u_image.jsonl").read_text())
    assert run(["index", "--vectors", unified, "--out", base / "index.json"]) == 0
    return base


def test_a_projection_that_overflows_is_a_numeric_error_naming_the_record_and_the_model(tmp_path, capsys):
    index, model, texts, images, pairs = (tmp_path / name for name in ("i.json", "m.json", "t.jsonl", "im.jsonl", "p.tsv"))
    save_index(build_index([("t0", "text", [1.0, 0.0]), ("i0", "image", [0.0, 1.0])]), index)
    save_model(linear_model(np.eye(2), np.eye(2)), model)
    edit_file(model, 1e308, payload=0)  # text head weight [0, 0]
    # t0 projects to [2e308, 0], which overflows; t1 to [1e308, 0], finite with a norm that overflows
    texts.write_text("".join(json.dumps({"id": i, "modality": "text", "vector": v}) + "\n"
                             for i, v in (("t0", [2.0, 0.0]), ("t1", [1.0, 0.0]))))
    images.write_text(json.dumps({"id": "i0", "modality": "image", "vector": [0.0, 1.0]}) + "\n")
    pairs.write_text("t0\ti0\n")
    query = ["query", "--index", index, "--model", model, "--features", texts, "--direction", "txt2img", "--id"]
    for argv in (
        ["embed", "--model", model, "--features", texts, "--out", tmp_path / "u.jsonl"],
        ["eval", "--index", index, "--model", model, "--text-features", texts, "--image-features", images,
         "--pairs", pairs, "--direction", "txt2img"],
        query + ["t0"],
    ):
        assert run(argv) == 3  # a RuntimeWarning would raise here instead
        err = capsys.readouterr().err
        assert "cannot normalize non-finite projection (t0)" in err and f"through the model {model}" in err
    assert run(query + ["t1"]) == 0
    assert capsys.readouterr().out == "1\ti0\t0.000000\n"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_damaged_index_file_exits_with_its_error_class_naming_the_file(fuzz_corpus, tmp_path_factory, data):
    base = fuzz_corpus
    index = tmp_path_factory.mktemp("damaged") / "index.json"
    index.write_bytes((base / "index.json").read_bytes())
    header, payload = read_file(index)
    if data.draw(st.booleans(), label="in the header"):
        path = data.draw(st.sampled_from(sorted(header_paths(header), key=repr)), label="header path")
        edit_file(index, data.draw(st.sampled_from(FUZZ_POOL), label="value"), header=list(path))
    else:
        where = data.draw(st.tuples(*(st.integers(0, n - 1) for n in payload.shape)), label="payload index")
        value = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 0.0, 2.0]))
        edit_file(index, value, payload=where)
    model, texts = base / "oracle_model.json", base / "text_features.jsonl"
    for argv in (
        ["query", "--index", index, "--id", "t0000", "--direction", "txt2img"],
        ["query", "--index", index, "--id", "t0000", "--direction", "txt2img", "--model", model, "--features", texts],
        ["eval", "--index", index, "--model", model, "--text-features", texts,
         "--image-features", base / "image_features.jsonl", "--pairs", base / "pairs.tsv"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy warning on stderr either
            code = run(argv)
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert str(index) in err.getvalue(), (argv[0], err.getvalue())


def test_train_determinism_across_invocations(synth_dir, tmp_path):
    args = [
        "train",
        "--text-features", synth_dir / "text_features.jsonl",
        "--image-features", synth_dir / "image_features.jsonl",
        "--pairs", synth_dir / "pairs.tsv",
        "--epochs", "3", "--hidden-dims", "16", "--unified-dim", "4", "--seed", "9",
    ]
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run(args + ["--out", m1]) == 0
    assert run(args + ["--out", m2]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def openblas_key() -> str | None:
    """The OpenBLAS build and core that numpy's bundled library runs, such as
    'OpenBLAS 0.3.31.188.0 SkylakeX'; None when numpy bundles no OpenBLAS.
    The core is the one the library picked for this CPU, or the one named by
    OPENBLAS_CORETYPE."""
    package = Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        blas = ctypes.CDLL(str(lib))  # the library numpy has loaded already
        for prefix in ("scipy_openblas", "openblas"):  # numpy >= 2.0 and numpy 1.x wheels
            if hasattr(blas, f"{prefix}_get_corename64_"):
                corename, config = blas[f"{prefix}_get_corename64_"], blas[f"{prefix}_get_config64_"]
                for fn in (corename, config):
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                return " ".join([*config().decode().split()[:2], corename().decode()])
    return None


# The criterion-8 model and index values per BLAS build and core: training's
# GEMMs round differently in each kernel, and move these values by up to
# 3.6e-16, more than the 2.5e-16 by which a one-ulp change to the row norm
# moves them, so no tolerance can stand in for the hashes.  Zen runs the
# Haswell kernel.
CRITERION_8_VALUES = {
    "OpenBLAS 0.3.31.188.0 SkylakeX": {
        "index": "03515f9101e82f91b033f6e6d8e66a0e5c296148e6cc5f488332e0a82e59ec43",
        "model": "02ebd5d0d7cc0a2fb6fd781c80a4b597e8e1e74b17ac1a3a595402afe410cc3e",
    },
    "OpenBLAS 0.3.31.188.0 Haswell": {
        "index": "521b3bc611cb19aee4a21240ec3b31f72c5a1f1306de962e50163258842dc870",
        "model": "f5138d7cd3beb50043865c5de85a5a5a93054e4a5b7992f505d74b16c13295f6",
    },
    "OpenBLAS 0.3.31.188.0 Sandybridge": {
        "index": "11b7b7606b817307a2c51becfb87e76bc7b6aa319cf224b79e94f84683532d58",
        "model": "cdda00afe970396e4b71582d3bbbd7e5d2e59c2898c8b926ae55e165c970ae52",
    },
}


def test_criterion_8_pipeline_keeps_its_content_hashes(tmp_path, capsys):
    """The values the criterion-8 pipeline writes, apart from how files encode
    them: the report's bytes on every host, and, per BLAS kernel, the index's
    ids, modalities and little-endian float64 vectors, and the model heads'
    flat parameters and temperature."""
    run_pipeline(tmp_path)
    capsys.readouterr()
    index, model = load_index(tmp_path / "index.json"), load_model(tmp_path / "model.json")
    report = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert report == "b58e731f24d4c918b75ecbef56a17b6e7bd0439e72bcb751b3e3b1fc6e7a02ae"
    index_hash = hashlib.sha256()
    for id_, modality in zip(index.ids, index.modalities):
        index_hash.update(f"{id_}\0{modality}\0".encode())
    index_hash.update(index.vectors.astype("<f8").tobytes())
    model_bytes = [model.text_head.flat, model.image_head.flat, np.array([model.temperature])]
    values = {
        "index": index_hash.hexdigest(),
        "model": hashlib.sha256(b"".join(a.astype("<f8").tobytes() for a in model_bytes)).hexdigest(),
    }
    key = openblas_key()
    if key not in CRITERION_8_VALUES:
        pytest.skip(f"no model and index hashes pinned for BLAS {key!r}; it gives {values}")
    assert values == CRITERION_8_VALUES[key]


def eval_report(model, features_dir, work):
    """`cardl eval --out` bytes for the model, over an index built from these raw features."""
    unified = []
    for side in ("text", "image"):
        out = work / f"u_{side}.jsonl"
        assert run(["embed", "--model", model, "--features", features_dir / f"{side}_features.jsonl", "--out", out]) == 0
        unified.append(out.read_text())
    (work / "unified.jsonl").write_text("".join(unified))
    assert run(["index", "--vectors", work / "unified.jsonl", "--out", work / "index.json"]) == 0
    assert run(["eval", "--index", work / "index.json", "--model", model,
                "--text-features", features_dir / "text_features.jsonl",
                "--image-features", features_dir / "image_features.jsonl",
                "--pairs", features_dir / "pairs.tsv", "--out", work / "report.json"]) == 0
    return (work / "report.json").read_bytes()


@pytest.fixture(scope="module")
def ordered_report(tmp_path_factory):
    """A corpus, a model trained for one epoch, and its eval report: some APs
    below 1, so MAP really averages different values."""
    base = tmp_path_factory.mktemp("ordered")
    assert run(["synth", "--out-dir", base, "--clusters", "3", "--pairs-per-cluster", "6", "--text-dim", "12",
                "--image-dim", "16", "--latent-dim", "4", "--noise-sigma", "1.0", "--seed", "5"]) == 0
    assert run(["train", "--text-features", base / "text_features.jsonl",
                "--image-features", base / "image_features.jsonl", "--pairs", base / "pairs.tsv",
                "--epochs", "1", "--hidden-dims", "8", "--unified-dim", "4", "--out", base / "model.json"]) == 0
    report = eval_report(base / "model.json", base, base)
    aps = [ap for d in json.loads(report)["directions"].values() for ap in d["ap_per_query"]["10"].values()]
    assert len(set(aps)) > 2
    return base, report


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_eval_report_does_not_depend_on_record_or_pair_order(ordered_report, tmp_path_factory, data):
    base, expected = ordered_report
    work = tmp_path_factory.mktemp("shuffled")
    for name in ("text_features.jsonl", "image_features.jsonl", "pairs.tsv"):
        lines = (base / name).read_text().splitlines()
        (work / name).write_text("\n".join(data.draw(st.permutations(lines), label=name)) + "\n")
    assert eval_report(base / "model.json", work, work) == expected


def test_seed_env_fallback(synth_dir, tmp_path, monkeypatch):
    base = [
        "train",
        "--text-features", synth_dir / "text_features.jsonl",
        "--image-features", synth_dir / "image_features.jsonl",
        "--pairs", synth_dir / "pairs.tsv",
        "--epochs", "1", "--hidden-dims", "8", "--unified-dim", "4",
    ]
    flagged = tmp_path / "flag.json"
    via_env = tmp_path / "env.json"
    unseeded = tmp_path / "none.json"
    assert run(base + ["--seed", "77", "--out", flagged]) == 0
    monkeypatch.setenv("CARDL_SEED", "77")
    assert run(base + ["--out", via_env]) == 0
    monkeypatch.delenv("CARDL_SEED")
    assert run(base + ["--out", unseeded]) == 0

    def weights(path):
        return read_file(path)[1].tobytes()

    assert weights(flagged) == weights(via_env)  # env var supplies the seed
    assert weights(flagged) != weights(unseeded)  # fallback default is seed 0


def test_seed_env_must_be_integer(synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CARDL_SEED", "lucky")
    rc = run(
        [
            "train",
            "--text-features", synth_dir / "text_features.jsonl",
            "--image-features", synth_dir / "image_features.jsonl",
            "--pairs", synth_dir / "pairs.tsv",
            "--epochs", "1", "--hidden-dims", "8", "--unified-dim", "4",
            "--out", tmp_path / "m.json",
        ]
    )
    assert rc == 1
    assert "CARDL_SEED" in capsys.readouterr().err


def unified_corpus(synth_dir, tmp_path):
    """The synth corpus projected by its oracle model into one feature file,
    as pairhead-train reads it: (path, records)."""
    model = load_model(synth_dir / "oracle_model.json")
    raw = load_features(synth_dir / "text_features.jsonl") + load_features(synth_dir / "image_features.jsonl")
    records = unified_records(model, raw)
    path = tmp_path / "unified.jsonl"
    save_features(records, path)
    return path, records


def test_pairhead_train_runs(synth_dir, tmp_path, capsys):
    unified, _ = unified_corpus(synth_dir, tmp_path)
    out = tmp_path / "head.json"
    rc = run(
        [
            "pairhead-train",
            "--features", unified,
            "--pairs", synth_dir / "pairs.tsv",
            "--out", out,
            "--epochs", "3",
            "--seed", "1",
        ]
    )
    assert rc == 0
    assert "pair head" in capsys.readouterr().err
    from cardl.dataio import load_pair_head

    head = load_pair_head(out)
    assert head.embedding_dim == load_model(synth_dir / "oracle_model.json").unified_dim


@pytest.mark.parametrize("seed", [0, 7])
def test_pairhead_train_draws_the_negatives_of_the_per_pair_loop(synth_dir, tmp_path, capsys, seed):
    """Three negatives per positive, drawn in one call, train the head that
    one draw per negative (never the true partner) trained."""
    features, records = unified_corpus(synth_dir, tmp_path)
    pairs = [tuple(line.split("\t")) for line in (synth_dir / "pairs.tsv").read_text().splitlines()[:9]]
    pairs_path, out, expected = tmp_path / "pairs.tsv", tmp_path / "head.json", tmp_path / "expected.json"
    pairs_path.write_text("".join(f"{t}\t{i}\n" for t, i in pairs))
    assert run(["pairhead-train", "--features", features, "--pairs", pairs_path, "--out", out,
                "--epochs", "1", "--negatives-per-positive", "3", "--seed", seed]) == 0
    capsys.readouterr()

    by_id = {r.id: r.vector for r in records}
    rng = np.random.default_rng(seed)
    examples = [PairExample(by_id[t], by_id[i], relevant=True) for t, i in pairs]
    for k, (t, _) in enumerate(pairs):
        for _ in range(3):
            j = int(rng.integers(len(pairs) - 1))
            j += j >= k
            examples.append(PairExample(by_id[t], by_id[pairs[j][1]], relevant=False))
    save_pair_head(fit_pair_head(examples, TrainConfig(epochs=1, seed=seed)), expected, seed=seed)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["train", "pairhead-train"])
def test_a_pair_side_of_the_wrong_modality_is_a_data_error_naming_file_and_line(synth_dir, tmp_path, capsys, command):
    lines = (synth_dir / "pairs.tsv").read_text().splitlines()
    text_id = lines[0].split("\t")[0]
    lines[2] = lines[2].split("\t")[0] + "\t" + text_id  # a text id in the image column
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("\n".join(lines) + "\n")
    if command == "train":
        argv = ["train", "--text-features", synth_dir / "text_features.jsonl",
                "--image-features", synth_dir / "image_features.jsonl", "--epochs", "1"]
    else:
        argv = ["pairhead-train", "--features", unified_corpus(synth_dir, tmp_path)[0], "--epochs", "1"]
    assert run([*argv, "--pairs", pairs, "--out", tmp_path / "out.json"]) == 2
    assert f"cardl: error: {pairs}: line 3: image id {text_id!r} is a text record" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_eval_on_an_index_with_no_candidates_for_a_direction_names_the_index(synth_dir, tmp_path, capsys):
    model = synth_dir / "oracle_model.json"
    unified = tmp_path / "unified_text.jsonl"
    assert run(["embed", "--model", model, "--features", synth_dir / "text_features.jsonl", "--out", unified]) == 0
    index = tmp_path / "text_only_index.json"
    assert run(["index", "--vectors", unified, "--out", index]) == 0
    capsys.readouterr()
    assert run(["eval", "--index", index, "--model", model, "--text-features", synth_dir / "text_features.jsonl",
                "--image-features", synth_dir / "image_features.jsonl", "--pairs", synth_dir / "pairs.tsv"]) == 2
    assert f"cardl: error: {index}: index has no candidates for direction txt2img" in capsys.readouterr().err


def test_parsed_defaults_are_the_library_defaults():
    """Each CLI default is the library's; the seeds alone differ, since an
    unseeded CLI run takes CARDL_SEED, then 0."""
    parse = build_parser().parse_args
    synth, expected = vars(parse(["synth", "--out-dir", "d"])), asdict(SyntheticConfig())
    del expected["seed"]
    assert {name: synth[name] for name in expected} == expected
    train = vars(parse(["train", "--text-features", "t", "--image-features", "i", "--pairs", "p", "--out", "m"]))
    read = ("epochs", "batch_size", "learning_rate", "temperature", "unified_dim")
    assert TrainConfig(**{name: train[name] for name in read},
                       hidden_dims=_parse_int_list(train["hidden_dims"], "--hidden-dims")) == TrainConfig()
    pairhead = vars(parse(["pairhead-train", "--features", "f", "--pairs", "p", "--out", "h"]))
    assert (pairhead["batch_size"], pairhead["learning_rate"]) == (TrainConfig().batch_size, TrainConfig().learning_rate)
    evaluate = vars(parse(["eval", "--index", "x", "--model", "m", "--text-features", "t",
                           "--image-features", "i", "--pairs", "p"]))
    assert tuple(_parse_int_list(evaluate["k_list"], "--k-list")) == DEFAULT_K_LIST


def test_query_by_indexed_id_finds_only_exact_ids(tmp_path, capsys):
    index_path, model_path = tmp_path / "index.json", tmp_path / "model.json"
    save_index(build_index([("a", "text", [1.0, 0.0]), ("c", "text", [0.6, 0.8]),
                            ("d", "image", [1.0, 0.0]), ("f", "image", [0.0, 1.0])]), index_path)
    save_model(linear_model(np.eye(2), np.eye(2)), model_path)
    base = ["query", "--index", index_path, "--model", model_path, "--direction", "txt2img"]
    assert run(base + ["--id", "c"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1\tf\t0.800000", "2\td\t0.600000"]
    # absent ids before, between and after the indexed ones are data errors
    for absent in ("0", "b", "cc", "z"):
        assert run(base + ["--id", absent]) == 2
        assert f"id '{absent}' not in the index" in capsys.readouterr().err


def test_query_by_indexed_id_needs_no_model(tmp_path, capsys):
    index_path, model_path = tmp_path / "index.json", tmp_path / "model.json"
    save_index(build_index([("a", "text", [1.0, 0.0]), ("c", "text", [0.6, 0.8]),
                            ("d", "image", [1.0, 0.0]), ("f", "image", [0.0, 1.0])]), index_path)
    save_model(linear_model(np.eye(2), np.eye(2)), model_path)
    base = ["query", "--index", index_path, "--id", "c", "--direction", "txt2img"]
    assert run(base + ["--model", model_path]) == 0
    with_model = capsys.readouterr().out
    assert run(base) == 0
    assert capsys.readouterr().out == with_model == "1\tf\t0.800000\n2\td\t0.600000\n"
    # a model is read only to project raw features, so an unreadable one is not opened
    assert run(base + ["--model", tmp_path / "missing.json"]) == 0
    capsys.readouterr()


def test_query_with_features_needs_a_model(synth_dir, tmp_path, capsys):
    index_path = tmp_path / "index.json"
    save_index(build_index([("t0000", "text", [1.0, 0.0]), ("i0000", "image", [0.0, 1.0])]), index_path)
    rc = run(["query", "--index", index_path, "--id", "t0000", "--direction", "txt2img",
              "--features", synth_dir / "text_features.jsonl"])
    assert rc == 1
    assert "--features needs --model" in capsys.readouterr().err


def test_a_query_of_the_wrong_side_names_the_file_that_gave_its_modality(tmp_path, capsys):
    index_path, model_path, features = tmp_path / "index.json", tmp_path / "model.json", tmp_path / "f.jsonl"
    save_index(build_index([("t0", "text", [1.0, 0.0]), ("i0", "image", [0.0, 1.0])]), index_path)
    save_model(linear_model(np.eye(2), np.eye(2)), model_path)
    features.write_text(json.dumps({"id": "i0", "modality": "image", "vector": [0.6, 0.8]}) + "\n")
    base = ["query", "--index", index_path, "--id", "i0", "--direction", "txt2img"]
    assert run(base) == 1
    assert f"id 'i0' is image in the index {index_path}" in capsys.readouterr().err
    assert run(base + ["--model", model_path, "--features", features]) == 1
    assert f"id 'i0' is image in the feature file {features}" in capsys.readouterr().err


def test_embed_names_the_feature_file_of_a_record_that_does_not_fit_its_head(synth_dir, tmp_path, capsys):
    model_path, features = tmp_path / "model.json", tmp_path / "texts.jsonl"
    save_model(linear_model(np.eye(4, 12), np.eye(4, 16)), model_path)
    lines = (synth_dir / "text_features.jsonl").read_text().splitlines()
    record = json.loads(lines[6])
    record["modality"] = "image"  # the only image record: its 12 dims pass the file's own check
    lines[6] = json.dumps(record)
    features.write_text("\n".join(lines) + "\n")
    assert run(["embed", "--model", model_path, "--features", features, "--out", tmp_path / "o.jsonl"]) == 2
    err = capsys.readouterr().err
    assert f"{features}: record {record['id']!r}: image vector has dim 12, model expects 16" in err


def test_one_parser_serves_every_call_and_carries_nothing_between_them(tmp_path, capsys, monkeypatch):
    index_path = tmp_path / "index.json"
    images = [(f"i{n:02d}", "image", [np.cos(n / 10), np.sin(n / 10)]) for n in range(12)]
    save_index(build_index([("t0", "text", [1.0, 0.0]), *images]), index_path)
    query = ["query", "--index", index_path, "--id", "t0", "--direction", "txt2img"]

    def rows(argv) -> int:
        assert run(argv) == 0
        return len(capsys.readouterr().out.splitlines())

    assert rows(query + ["--k", "2"]) == 2
    assert rows(query) == 10  # the default k, not the last call's
    for refused in (query + ["--k", "two"], query[:-2], query + ["--features", tmp_path / "f.jsonl"]):
        assert run(refused) == 1  # a bad value, a missing flag, and --features without --model
        capsys.readouterr()
        assert rows(query) == 10
    assert run(["query", "-h"]) == 0
    assert "--features" in capsys.readouterr().out
    assert rows(query) == 10
    assert cli._parser() is cli._parser() and build_parser() is not build_parser()

    # the handler is found on the module at call time, so one replaced since the first call runs
    calls = []
    monkeypatch.setattr(cli, "_cmd_query", lambda args: calls.append(args.id) or 7)
    assert run(query) == 7 and calls == ["t0"]
