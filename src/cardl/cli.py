"""Command-line pipeline: synth | train | pairhead-train | embed | index | query | eval.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics go to stderr; results go to stdout or the --out files.  All
randomness flows from --seed (falling back to the CARDL_SEED environment
variable, then 0), so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .alignment import TrainConfig, fit, seeded_rng
from .errors import CardlError, DataError, NumericError, UsageError
from .evaluation import DEFAULT_K_LIST, evaluate_retrieval
from .pairhead import PairExample, fit_pair_head
from .retrieval import DIRECTION_SIDES, DIRECTIONS, TXT2IMG, cross_media_search, query_topk


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError (exit 1) instead of exiting."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("CARDL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"CARDL_SEED must be an integer, got {env!r}") from exc
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise UsageError(f"{flag} must name at least one value")
    return values


def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextlib.contextmanager
def _projecting_through(model_path: str):
    """Projection through the model file: a numeric failure names the file,
    and an overflow in numpy is reported only as that failure."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NumericError as exc:
        raise NumericError(f"{exc} through the model {model_path}") from exc


# ------------------------------------------------------------- subcommands --

def _cmd_synth(args) -> int:
    config = dataio.SyntheticConfig(
        clusters=args.clusters,
        pairs_per_cluster=args.pairs_per_cluster,
        text_dim=args.text_dim,
        image_dim=args.image_dim,
        latent_dim=args.latent_dim,
        noise_sigma=args.noise_sigma,
        seed=_resolve_seed(args.seed),
        same_cluster_relevant=args.same_cluster_relevant,
    )
    dataset = dataio.generate_synthetic(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_features(dataset.text_records, out / "text_features.jsonl")
    dataio.save_features(dataset.image_records, out / "image_features.jsonl")
    dataio.save_pairs(dataset.pairs, out / "pairs.tsv")
    dataio.save_qrels(dataset.qrels, out / "qrels.tsv")
    dataio.save_model(dataio.oracle_model(dataset), out / "oracle_model.json", seed=config.seed)
    _log(
        f"wrote {len(dataset.pairs)} pairs ({config.clusters} clusters) to {out}: "
        "text_features.jsonl image_features.jsonl pairs.tsv qrels.tsv oracle_model.json"
    )
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        temperature=args.temperature,
        hidden_dims=_parse_int_list(args.hidden_dims, "--hidden-dims") if args.hidden_dims else (),
        unified_dim=args.unified_dim,
        seed=_resolve_seed(args.seed),
    )
    text_records = dataio.load_features(args.text_features)
    image_records = dataio.load_features(args.image_features)
    modality_of = {r.id: r.modality for r in text_records + image_records}
    pairs, _ = dataio.load_pairs_and_qrels(args.pairs, modality_of=modality_of)
    model, history = fit(text_records, image_records, pairs, config)
    for epoch, loss in enumerate(history, start=1):
        _log(f"epoch {epoch}/{config.epochs} mean loss {loss:.6f}")
    dataio.save_model(model, args.out, train_config=config)
    _log(f"wrote model to {args.out}")
    return 0


def _cmd_pairhead_train(args) -> int:
    if args.negatives_per_positive < 1:
        raise UsageError(f"--negatives-per-positive {args.negatives_per_positive} is below 1")
    records = dataio.load_features(args.features)
    by_id = {r.id: r for r in records}
    pairs, _ = dataio.load_pairs_and_qrels(args.pairs, modality_of={r.id: r.modality for r in records})
    seed, n = _resolve_seed(args.seed), len(pairs)
    if n < 2:
        raise DataError("need at least 2 pairs to sample mismatched negatives")
    drawn = seeded_rng(seed).integers(n - 1, size=(n, args.negatives_per_positive))
    drawn += drawn >= np.arange(n)[:, None]  # never draw the true partner
    examples = [
        PairExample(by_id[p.text_id].vector, by_id[p.image_id].vector, relevant=True)
        for p in pairs
    ] + [
        PairExample(by_id[p.text_id].vector, by_id[pairs[j].image_id].vector, relevant=False)
        for p, row in zip(pairs, drawn) for j in row
    ]
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=seed,
    )
    head = fit_pair_head(examples, config)
    dataio.save_pair_head(head, args.out, seed=seed)
    _log(f"trained pair head on {n} positives / {len(examples) - n} sampled negatives; wrote {args.out}")
    return 0


def _cmd_embed(args) -> int:
    model = dataio.load_model(args.model)
    records = dataio.load_features(args.features)
    try:
        with _projecting_through(args.model):
            unified = dataio.unified_records(model, records)
    except CardlError as exc:  # a record that does not fit its head names its id; add the file
        raise type(exc)(f"{args.features}: {exc}") from exc
    dataio.save_features(unified, args.out)
    _log(f"projected {len(unified)} records into {model.unified_dim}-d space; wrote {args.out}")
    return 0


def _cmd_index(args) -> int:
    records = dataio.load_features(args.vectors)
    index = dataio.build_index_from_records(records)
    dataio.save_index(index, args.out)
    _log(f"indexed {len(index)} vectors (dim {index.dimension}); wrote {args.out}")
    return 0


def _check_query_side(direction: str, query_id: str, modality: str, where: str) -> None:
    source = DIRECTION_SIDES[direction][0]
    if modality != source:
        raise UsageError(
            f"direction {direction} takes a {source} query, but id {query_id!r} is {modality} in {where}"
        )


def _cmd_query(args) -> int:
    if args.features and not args.model:
        raise UsageError("--features needs --model to project the raw query")
    index = dataio.load_index(args.index)
    direction = args.direction
    if args.features:
        model = dataio.load_model(args.model)
        record = dataio.find_feature(args.features, args.id)
        _check_query_side(direction, args.id, record.modality, f"the feature file {args.features}")
        with _projecting_through(args.model):
            results = cross_media_search(model, index, record, args.k, direction)
    else:
        # no raw features given: fall back to the query's stored unified vector
        row = bisect.bisect_left(index.ids, args.id)  # ids are in ascending order
        if row == len(index) or index.ids[row] != args.id:
            raise DataError(
                f"id {args.id!r} not in the index {args.index}; pass --features with its raw vector"
            )
        _check_query_side(direction, args.id, index.modalities[row], f"the index {args.index}")
        results = query_topk(index, index.vectors[row], args.k, DIRECTION_SIDES[direction][1])
    for result in results:
        print(f"{result.rank}\t{result.id}\t{result.score:.6f}")
    return 0


def _cmd_eval(args) -> int:
    index = dataio.load_index(args.index)
    model = dataio.load_model(args.model)
    text_records = dataio.load_features(args.text_features)
    image_records = dataio.load_features(args.image_features)
    modality_of = {r.id: r.modality for r in text_records + image_records}
    _, qrels = dataio.load_pairs_and_qrels(args.pairs, args.qrels, modality_of=modality_of)
    k_list = _parse_int_list(args.k_list, "--k-list")
    directions = list(DIRECTIONS) if args.direction == "both" else [args.direction]
    reports = {}
    for direction in directions:
        queries = text_records if direction == TXT2IMG else image_records
        lo, hi, _ = index.spans[DIRECTION_SIDES[direction][1]]
        if lo == hi:  # the rule evaluate_retrieval applies, with the file named
            raise DataError(f"{args.index}: index has no candidates for direction {direction}")
        with _projecting_through(args.model):
            reports[direction] = evaluate_retrieval(
                model, index, queries, qrels, k_list=k_list, direction=direction
            )
    sys.stdout.write(dataio.format_report_table(reports))
    if args.out:
        dataio.save_report(reports, args.out)
        _log(f"wrote report to {args.out}")
    return 0


# ------------------------------------------------------------------ parser --

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cardl",
        description=(
            "Cross-media vector alignment and retrieval: train projection "
            "heads over precomputed text/image features, index the unified "
            "space, and search or evaluate it."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    synth, train = dataio.SyntheticConfig(), TrainConfig()  # the library defaults
    p = sub.add_parser("synth", help="generate a synthetic clustered dataset with oracle maps")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--clusters", type=int, default=synth.clusters)
    p.add_argument("--pairs-per-cluster", type=int, default=synth.pairs_per_cluster)
    p.add_argument("--text-dim", type=int, default=synth.text_dim)
    p.add_argument("--image-dim", type=int, default=synth.image_dim)
    p.add_argument("--latent-dim", type=int, default=synth.latent_dim)
    p.add_argument("--noise-sigma", type=float, default=synth.noise_sigma)
    p.add_argument("--same-cluster-relevant", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the two projection heads on paired features")
    p.add_argument("--text-features", required=True)
    p.add_argument("--image-features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--learning-rate", type=float, default=train.learning_rate)
    p.add_argument("--temperature", type=float, default=train.temperature)
    p.add_argument("--hidden-dims", default=",".join(map(str, train.hidden_dims)),
                   help="comma-separated widths; empty for linear heads")
    p.add_argument("--unified-dim", type=int, default=train.unified_dim)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "pairhead-train",
        help="train a relevance head on (embedding, embedding) pairs from one feature file",
    )
    p.add_argument("--features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--learning-rate", type=float, default=train.learning_rate)
    p.add_argument("--negatives-per-positive", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_pairhead_train)

    p = sub.add_parser("embed", help="project raw features into the unified space")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("index", help="build the exact-search index from unified vectors")
    p.add_argument("--vectors", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("query", help="top-k cross-media search for one query id")
    p.add_argument("--index", required=True)
    p.add_argument("--model", default=None, help="projects the --features query; read only with --features")
    p.add_argument("--id", required=True)
    p.add_argument("--direction", required=True, choices=DIRECTIONS)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--features", default=None,
                   help="raw feature file holding the query id; only the lines that contain its JSON "
                        "string or a backslash are decoded and checked")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="MAP@k evaluation per direction")
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--text-features", required=True)
    p.add_argument("--image-features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--qrels", default=None, help="overrides the pair-derived judgments")
    p.add_argument("--k-list", default=",".join(map(str, DEFAULT_K_LIST)))
    p.add_argument("--direction", choices=[*DIRECTIONS, "both"], default="both")
    p.add_argument("--out", default=None, help="also write the report as JSON")
    p.set_defaults(func=_cmd_eval)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves no state on it."""
    return build_parser()


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _parser()
    if not argv:
        parser.print_help(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError(f"missing subcommand\n{parser.format_usage().rstrip()}")
        # the handler is looked up now, not taken as bound when the parser was
        # built, so a _cmd_* replaced on this module since is the one that runs
        return globals()[args.func.__name__](args)
    except CardlError as exc:
        print(f"cardl: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
