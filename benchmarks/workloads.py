"""The benchmark's workloads and the golden-hash pipeline.

Every workload has the same shape:

- the constructor makes the inputs from the workload seed, untimed;
- `prepare()`, where a workload has it, writes the files its set-up reads,
  untimed and once per run;
- `setup()` is the set-up a user pays before the first result (timed); it
  runs afresh before every job;
- `job(state, clock)` is one repetition of the timed work on a fresh set-up;
  it returns a dict whose `steps` maps each step (a CLI call, an
  evaluate_retrieval call, a query) to its time in reference seconds, as the
  PacedClock (pace.py) measures it;
- `summarize(reps)` turns the repetitions into the end-to-end metrics other
  than set-up time and memory, plus a detail record;
- `check(state, reps)` compares outputs with independent references.

All calls into the program go through module attributes (`cardl.fit`,
`cli.cli_main`, ...) looked up at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cardl
from cardl import cli, evaluation, retrieval

from checks import Ledger, compare_topk, latency_summary, reference_ap, reference_topk
from pace import PacedClock

K_LIST = (1, 5, 10)
TOP_K = max(K_LIST)
CHECKED_QUERIES = 8  # queries per run compared with the brute-force reference
QUERY_GROUP = 5  # single queries timed between two probes of the PacedClock


def median_steps(reps: list[dict]) -> dict[str, float]:
    """Each step's median time over the repetitions."""
    return {step: statistics.median(rep["steps"][step] for rep in reps) for step in reps[0]["steps"]}


def job_s(rep: dict, queries: bool = True) -> float:
    """Time of one job's steps; with queries=False, without its single queries."""
    return sum(t for step, t in rep["steps"].items() if queries or not step.startswith("query "))


def query_ms(reps: list[dict]) -> list[float]:
    """Every single query's time, in milliseconds, over all repetitions."""
    return [t * 1000.0 for rep in reps for step, t in rep["steps"].items() if step.startswith("query ")]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def workload_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFF_FFFF_FFFF_FFFF, stream])


def run_cli(ledger: Ledger, what: str, argv: list[str]) -> str:
    """One in-process CLI call; returns its stdout.  Exit code 0 is a check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(argv)
    ledger.check(code == 0, f"{what}: exit code {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def reference_search(model, index, record) -> list[tuple[str, float]]:
    """The brute-force top-k of a raw query record in the other modality."""
    unified = cardl.project(model.head_for(record.modality), record.vector[None, :])[0]
    return reference_topk(index, unified, TOP_K, cardl.opposite_modality(record.modality))


def check_against_reference(ledger: Ledger, model, index, queries, qrels, ap_per_query):
    """Compare cross_media_search on (record, direction) queries with the reference.

    Each query's AP@10 in `ap_per_query` ({direction: {k: {query id: AP}}},
    from evaluate_retrieval) must also equal the AP of the reference ranking.
    """
    for record, direction in queries:
        results = retrieval.cross_media_search(model, index, record, TOP_K, direction)
        reference = reference_search(model, index, record)
        diff = compare_topk(results, reference)
        ledger.check(diff is None, f"{direction} {record.id}: {diff}")
        relevant = qrels[record.id]
        expected = reference_ap([id_ in relevant for id_, _ in reference], len(relevant))
        got = ap_per_query[direction][TOP_K][record.id]
        ledger.check(got == expected, f"{direction} {record.id}: AP@{TOP_K} {got!r}, reference {expected!r}")


# ----------------------------------------------------------- cli_pipeline --

# The criterion-6 configuration: the default corpus (seed 42) and the default
# training seed.  Its MAP floors are only promised there: 50 default epochs
# miss them on other corpus seeds and on some training seeds.  The pair-head
# seed is fixed too, so that every output's golden hash is one per commit.
CLI_CORPUS_SEED = 42
CLI_TRAIN_SEED = 0
CLI_PAIRHEAD_SEED = 0
CLI_QUERIES = 20  # one-shot `cardl query` calls per repetition; a p50 needs 20
CLI_MAP1_FLOOR = 0.9
CLI_MAP10_FLOOR = 0.95
CLI_OUTPUTS = ("model.json", "index.json", "report.json", "pair_head.json")


class CliPipeline:
    """The README pipeline through cli.cli_main on the default corpus."""

    name = "cli_pipeline"

    def __init__(self, seed: int, workdir: Path, ledger: Ledger):
        self.seed, self.workdir, self.ledger = seed, workdir, ledger
        self.data = workdir / "data"
        self.out = workdir / "run"
        rng = workload_rng(seed, 0)
        pairs = 400  # 8 clusters x 50 pairs
        self.queries = [
            (
                f"{'t' if q % 2 == 0 else 'i'}{int(rng.integers(pairs)):04d}",
                "txt2img" if q % 2 == 0 else "img2txt",
                q % 4 < 2,  # half the queries pass raw features, half use the indexed vector
            )
            for q in range(CLI_QUERIES)
        ]

    def inputs(self) -> dict:
        return {"queries": self.queries}

    def setup(self):
        self.out.mkdir(parents=True)
        run_cli(self.ledger, "synth", ["synth", "--out-dir", str(self.data), "--seed", str(CLI_CORPUS_SEED)])
        return None

    def job(self, state, clock: PacedClock) -> dict:
        d, o, ledger = self.data, self.out, self.ledger
        texts, images, pairs = d / "text_features.jsonl", d / "image_features.jsonl", d / "pairs.tsv"
        model, index, unified = o / "model.json", o / "index.json", o / "unified.jsonl"
        steps: dict[str, float] = {}
        _, steps["train"] = clock.call(run_cli, ledger, "train", [
            "train", "--text-features", str(texts), "--image-features", str(images),
            "--pairs", str(pairs), "--out", str(model), "--seed", str(CLI_TRAIN_SEED)])
        for modality, features, dest in (("text", texts, o / "ut.jsonl"), ("image", images, o / "ui.jsonl")):
            _, steps[f"embed {modality}"] = clock.call(run_cli, ledger, "embed", [
                "embed", "--model", str(model), "--features", str(features), "--out", str(dest)])
        unified.write_bytes((o / "ut.jsonl").read_bytes() + (o / "ui.jsonl").read_bytes())
        _, steps["index"] = clock.call(
            run_cli, ledger, "index", ["index", "--vectors", str(unified), "--out", str(index)])

        def query(q: int) -> None:
            query_id, direction, raw = self.queries[q]
            argv = ["query", "--index", str(index), "--model", str(model), "--id", query_id,
                    "--direction", direction, "--k", str(TOP_K)]
            if raw:
                argv += ["--features", str(texts if direction == "txt2img" else images)]
            stdout = run_cli(ledger, f"query {query_id}", argv)
            ledger.check(len(stdout.splitlines()) == TOP_K, f"query {query_id}: {stdout[:200]!r}")

        for g in range(0, CLI_QUERIES, QUERY_GROUP):
            group = range(g, min(g + QUERY_GROUP, CLI_QUERIES))
            for q, (_, seconds) in zip(group, clock.each(query, group)):
                steps[f"query {q}"] = seconds
        _, steps["eval"] = clock.call(run_cli, ledger, "eval", [
            "eval", "--index", str(index), "--model", str(model), "--text-features", str(texts),
            "--image-features", str(images), "--pairs", str(pairs), "--out", str(o / "report.json")])
        _, steps["pairhead-train"] = clock.call(run_cli, ledger, "pairhead-train", [
            "pairhead-train", "--features", str(unified), "--pairs", str(pairs),
            "--out", str(o / "pair_head.json"), "--seed", str(CLI_PAIRHEAD_SEED)])
        report = json.loads((o / "report.json").read_text())["directions"]
        hashes = {name: sha256(o / name) for name in CLI_OUTPUTS}
        shutil.rmtree(o)  # the next set-up starts from an empty output directory
        return {
            "steps": steps,
            "judged": sum(body["evaluated"] for body in report.values()),
            "map_at": {direction: body["map_at"] for direction, body in report.items()},
            "hashes": hashes,
        }

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        map_at = reps[0]["map_at"]
        median = median_steps(reps)
        metrics, detail = latency_summary(query_ms(reps))
        metrics.update({
            "pipeline_s": statistics.median(job_s(rep) for rep in reps),
            "map1": float(np.mean([m["1"] for m in map_at.values()])),
            "map10": float(np.mean([m["10"] for m in map_at.values()])),
        })
        detail.update({
            "eval_qps": reps[0]["judged"] / median["eval"],
            "train_s": median["train"],
            "step_s": median,
            "map_at": map_at,
            "golden_cli_pipeline": reps[0]["hashes"],
        })
        return metrics, detail

    def check(self, state, reps: list[dict]) -> None:
        hashes = [rep["hashes"] for rep in reps]
        self.ledger.check(all(h == hashes[0] for h in hashes), f"outputs differ between repetitions: {hashes}")
        for direction, map_at in reps[0]["map_at"].items():
            self.ledger.check(
                map_at["1"] >= CLI_MAP1_FLOOR and map_at["10"] >= CLI_MAP10_FLOOR,
                f"{direction}: MAP@1 {map_at['1']} / MAP@10 {map_at['10']} below the criterion-6 floors",
            )


# ------------------------------------------------------------- eval_batch --

EVAL_CORPUS = {"clusters": 20, "pairs_per_cluster": 250, "latent_dim": 64}
EVAL_QUERIES = 100  # judged queries per direction in one evaluation pass
EVAL_CHUNK = 25  # queries per evaluate_retrieval call: short steps time steadier
EVAL_MAP1_FLOOR = 0.99
SINGLE_QUERIES = 50  # other sampled queries per direction, sent one at a time once per job


@dataclass
class EvalState:
    dataset: object
    model: object
    index: object


class EvalBatch:
    """evaluate_retrieval in process with the oracle model of a 20x250 corpus."""

    name = "eval_batch"

    def __init__(self, seed: int, workdir: Path, ledger: Ledger):
        self.seed, self.ledger = seed, ledger
        pairs = EVAL_CORPUS["clusters"] * EVAL_CORPUS["pairs_per_cluster"]
        rng = workload_rng(seed, 1)
        # per modality: rows for evaluate_retrieval, then distinct rows for the
        # single queries, so that no single query repeats an evaluated one
        self.rows = {}
        for modality in ("text", "image"):
            rows = rng.choice(pairs, EVAL_QUERIES + SINGLE_QUERIES, replace=False).tolist()
            self.rows[modality] = (sorted(rows[:EVAL_QUERIES]), rows[EVAL_QUERIES:])

    def config(self):
        return cardl.SyntheticConfig(seed=self.seed & 0xFFFF_FFFF, **EVAL_CORPUS)

    def inputs(self) -> dict:
        ds = cardl.generate_synthetic(self.config())
        return {"corpus": _records_digest(ds.text_records + ds.image_records), "rows": self.rows}

    def setup(self) -> EvalState:
        ds = cardl.generate_synthetic(self.config())
        model = cardl.oracle_model(ds)
        index = cardl.build_index(cardl.unified_records(model, ds.text_records + ds.image_records))
        return EvalState(ds, model, index)

    def _queries(self, state: EvalState, which: int) -> dict:
        """Query records per direction: which=0 evaluated, which=1 single queries."""
        ds = state.dataset
        return {
            "txt2img": [ds.text_records[i] for i in self.rows["text"][which]],
            "img2txt": [ds.image_records[i] for i in self.rows["image"][which]],
        }

    def job(self, state: EvalState, clock: PacedClock) -> dict:
        """One evaluation pass per direction, then each single query once."""
        queries = self._queries(state, 0)
        ap: dict[str, dict[int, dict[str, float]]] = {}
        steps = {}
        for direction, records in queries.items():
            ap[direction] = {k: {} for k in K_LIST}
            for c in range(0, len(records), EVAL_CHUNK):
                report, steps[f"{direction} {c}"] = clock.call(
                    evaluation.evaluate_retrieval,
                    state.model, state.index, records[c:c + EVAL_CHUNK], state.dataset.qrels, K_LIST, direction)
                for k in K_LIST:
                    ap[direction][k].update(report.ap_per_query[k])

        def query(record) -> None:
            direction = "txt2img" if record.modality == "text" else "img2txt"
            self.ledger.attempt(f"query {record.id}", retrieval.cross_media_search,
                                state.model, state.index, record, TOP_K, direction)

        singles = [q for pair in zip(*self._queries(state, 1).values()) for q in pair]
        for g in range(0, len(singles), QUERY_GROUP):
            group = singles[g:g + QUERY_GROUP]
            for record, (_, seconds) in zip(group, clock.each(query, group)):
                steps[f"query {record.id}"] = seconds
        return {"steps": steps, "ap": ap, "judged": sum(len(a[K_LIST[0]]) for a in ap.values())}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        metrics, detail = latency_summary(query_ms(reps))
        map_at = {d: {k: float(np.mean(list(per.values()))) for k, per in ap.items()}
                  for d, ap in reps[0]["ap"].items()}
        pipeline_s = statistics.median(job_s(rep, queries=False) for rep in reps)
        metrics.update({
            "pipeline_s": pipeline_s,
            "map1": float(np.mean([m[1] for m in map_at.values()])),
            "map10": float(np.mean([m[10] for m in map_at.values()])),
        })
        detail.update({"eval_qps": reps[0]["judged"] / pipeline_s, "judged_per_pass": reps[0]["judged"],
                       "map_at": map_at})
        return metrics, detail

    def check(self, state: EvalState, reps: list[dict]) -> None:
        ap = reps[0]["ap"]
        for direction, per_k in ap.items():
            map1 = float(np.mean(list(per_k[1].values())))
            self.ledger.check(map1 >= EVAL_MAP1_FLOOR, f"{direction}: oracle MAP@1 {map1} < {EVAL_MAP1_FLOOR}")
        queries = self._queries(state, 0)
        rng = workload_rng(self.seed, 2)
        sample = [
            (queries[direction][int(i)], direction)
            for direction in queries
            for i in rng.choice(EVAL_QUERIES, CHECKED_QUERIES // 2, replace=False)
        ]
        check_against_reference(self.ledger, state.model, state.index, sample, state.dataset.qrels, ap)


def _records_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.id.encode())
        h.update(r.vector.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------- query_stream --

STREAM_CORPUS = {"clusters": 40, "pairs_per_cluster": 500, "latent_dim": 64}
STREAM_QUERIES = 40  # single queries per job, alternating directions
STREAM_JOBS = 16  # jobs with queries of their own; a longer run reuses them in turn


def stream_config(seed: int):
    return cardl.SyntheticConfig(seed=seed & 0xFFFF_FFFF, **STREAM_CORPUS)


def write_stream_files(seed: int, directory: Path) -> None:
    """The oracle index and model of the query_stream corpus, as files."""
    ds = cardl.generate_synthetic(stream_config(seed))
    model = cardl.oracle_model(ds)
    cardl.save_model(model, directory / "model.json")
    index = cardl.build_index(cardl.unified_records(model, ds.text_records + ds.image_records))
    cardl.save_index(index, directory / "index.json")


@dataclass
class StreamState:
    model: object
    index: object


class QueryStream:
    """A closed loop, one client: single raw-feature queries against an index loaded from disk."""

    name = "query_stream"

    def __init__(self, seed: int, workdir: Path, ledger: Ledger):
        self.seed, self.workdir, self.ledger = seed, workdir, ledger
        pairs = STREAM_CORPUS["clusters"] * STREAM_CORPUS["pairs_per_cluster"]
        rng = workload_rng(seed, 3)
        # query q of job j is rows[j][q]: a text query if q is even, else an image query
        self.rows = rng.choice(pairs, (STREAM_JOBS, STREAM_QUERIES), replace=False).tolist()
        self.jobs = 0
        self.queries = self.qrels = None

    def inputs(self) -> dict:
        return {"rows": self.rows}

    def prepare(self) -> None:
        """Write the index and model in a child process, so that their build
        does not set this process's peak memory; keep only the query records."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.dirname(cardl.__path__[0]),
                                                            os.path.dirname(__file__)])}
        subprocess.run([sys.executable, __file__, str(self.seed), str(self.workdir)], env=env, check=True)
        ds = cardl.generate_synthetic(stream_config(self.seed))
        self.queries = [
            [(ds.text_records if q % 2 == 0 else ds.image_records)[row] for q, row in enumerate(job)]
            for job in self.rows
        ]
        self.qrels = {r.id: ds.qrels[r.id] for job in self.queries for r in job}

    def setup(self) -> StreamState:
        return StreamState(cardl.load_model(self.workdir / "model.json"),
                           cardl.load_index(self.workdir / "index.json"))

    def job(self, state: StreamState, clock: PacedClock) -> dict:
        records = self.queries[self.jobs % STREAM_JOBS]
        self.jobs += 1

        def query(record):
            direction = "txt2img" if record.modality == "text" else "img2txt"
            return self.ledger.attempt(f"query {record.id}", retrieval.cross_media_search,
                                       state.model, state.index, record, TOP_K, direction)

        steps, results = {}, {}
        for g in range(0, len(records), QUERY_GROUP):
            group = records[g:g + QUERY_GROUP]
            for record, (result, seconds) in zip(group, clock.each(query, group)):
                steps[f"query {record.id}"], results[record.id] = seconds, result
        return {"steps": steps, "results": results, "records": records}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        metrics, detail = latency_summary(query_ms(reps))
        ap = {1: [], 10: []}
        for record in reps[0]["records"]:
            relevant = self.qrels[record.id]
            flags = [r.id in relevant for r in reps[0]["results"][record.id] or []]
            for k in ap:
                ap[k].append(reference_ap(flags[:k], len(relevant)))
        metrics.update({
            "pipeline_s": statistics.median(job_s(rep) for rep in reps),
            "map1": float(np.mean(ap[1])),
            "map10": float(np.mean(ap[10])),
        })
        detail["queries_per_job"] = STREAM_QUERIES
        return metrics, detail

    def check(self, state: StreamState, reps: list[dict]) -> None:
        """A seeded sample of the first job's results equals the brute-force reference."""
        first = reps[0]
        rng = workload_rng(self.seed, 4)
        for i in sorted(rng.choice(STREAM_QUERIES, CHECKED_QUERIES, replace=False).tolist()):
            record = first["records"][i]
            results = first["results"][record.id] or []
            diff = compare_topk(results, reference_search(state.model, state.index, record))
            self.ledger.check(diff is None, f"query_stream {record.id}: {diff}")


WORKLOADS = {w.name: w for w in (CliPipeline, EvalBatch, QueryStream)}


# ------------------------------------------------------------ golden hashes --

def criterion8_hashes(base: Path, ledger: Ledger) -> dict[str, str]:
    """sha256 of the model, index and report from the criterion-8 CLI config."""
    data, model, index, report = base / "data", base / "model.json", base / "index.json", base / "report.json"
    texts, images, pairs = data / "text_features.jsonl", data / "image_features.jsonl", data / "pairs.tsv"
    steps = [
        ["synth", "--out-dir", str(data), "--clusters", "3", "--pairs-per-cluster", "6",
         "--text-dim", "12", "--image-dim", "16", "--latent-dim", "4", "--seed", "7"],
        ["train", "--text-features", str(texts), "--image-features", str(images), "--pairs", str(pairs),
         "--epochs", "5", "--hidden-dims", "32", "--unified-dim", "8", "--seed", "7", "--out", str(model)],
        ["embed", "--model", str(model), "--features", str(texts), "--out", str(base / "ut.jsonl")],
        ["embed", "--model", str(model), "--features", str(images), "--out", str(base / "ui.jsonl")],
    ]
    for argv in steps:
        run_cli(ledger, f"criterion-8 {argv[0]}", argv)
    (base / "unified.jsonl").write_bytes((base / "ut.jsonl").read_bytes() + (base / "ui.jsonl").read_bytes())
    run_cli(ledger, "criterion-8 index", ["index", "--vectors", str(base / "unified.jsonl"), "--out", str(index)])
    run_cli(ledger, "criterion-8 eval", [
        "eval", "--index", str(index), "--model", str(model), "--text-features", str(texts),
        "--image-features", str(images), "--pairs", str(pairs), "--out", str(report)])
    return {"model": sha256(model), "index": sha256(index), "report": sha256(report)}


if __name__ == "__main__":  # the child process of QueryStream.prepare: SEED DIRECTORY
    write_stream_files(int(sys.argv[1]), Path(sys.argv[2]))
