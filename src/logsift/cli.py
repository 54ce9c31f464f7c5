"""Operator command line: ingest, evaluate, train-encoder, rebalance,
export-embeddings.

Each setting is one flag, its default read from the library class that
owns it where one does. A JSON file (--config) keyed by the flags' dests
can give settings too, and flags win; a key is valid if it is a setting of
any subcommand, and each subcommand uses its own. Exit codes: 0 success,
2 config error (a bad flag or setting value too), 3 IO error,
4 provider/client error, 5 data or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing, nullcontext
from fractions import Fraction

from .embedding import (
    RECORD_ERRORS,
    EncoderWeights,
    HashingProvider,
    RemoteProvider,
    embed_log,
)
from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionMismatchError,
    ProviderError,
    SchemaError,
    SnapshotFormatError,
)
from .files import atomic_write
from .index import CentroidIndex
from .ingest import IngestConfig, Pipeline, final_rows
from .metrics import evaluate, load_dataset
from .parsing import (
    ClusterParser,
    MockCompletionClient,
    RemoteCompletionClient,
    load_demonstrations,
)
from .records import LogRecord
from .rebalance import rebalance
from .training import TrainConfig, build_pair_dataset, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROVIDER = 4
EXIT_DATA = 5


def _build_provider(args):
    """The provider, in a context that closes a remote one's session."""
    if args.provider == "hashing":
        return nullcontext(HashingProvider(dim=args.provider_dim))
    if not args.provider_url or not args.provider_model:
        raise ConfigError("remote provider requires provider_url and provider_model")
    return closing(RemoteProvider(url=args.provider_url, model=args.provider_model,
                                  dim=args.provider_dim, api_key_env=args.provider_key_env))


def _build_parser_client(args):
    """The completion client, in a context that closes a remote one's session."""
    if args.completion == "mock":
        return nullcontext(MockCompletionClient())
    if not args.completion_url or not args.completion_model:
        raise ConfigError("remote completion requires completion_url and completion_model")
    return closing(RemoteCompletionClient(url=args.completion_url, model=args.completion_model,
                                          api_key_env=args.completion_key_env))


def _load_weights(args, provider) -> EncoderWeights:
    if args.weights:
        weights = EncoderWeights.load(args.weights)
        if weights.input_dim != provider.dim + 1:
            raise ConfigError(
                f"weights expect provider dim {weights.input_dim - 1}, "
                f"provider has {provider.dim}"
            )
        return weights
    return EncoderWeights.identity_init(provider.dim)


def _read_records(path: str) -> list[LogRecord]:
    """The contents of a `.csv` dataset, or the non-blank lines of a file or
    stdin ("-"), a byte that is not UTF-8 read as a lone surrogate."""
    if path.endswith(".csv"):
        dataset = load_dataset(path)
        return [LogRecord(source_id=path, content=c) for c in dataset.contents]
    if path == "-":
        data, source = sys.stdin.buffer.read(), "stdin"
    else:
        with open(path, "rb") as fh:
            data, source = fh.read(), path
    return [LogRecord(source_id=source, content=line)
            for line in data.decode("utf-8", "surrogateescape").splitlines()
            if line.strip()]


# ---- subcommands -----------------------------------------------------------


def cmd_ingest(args) -> int:
    if args.batch_size < 1:
        raise ConfigError("batch_size must be positive")
    with _build_provider(args) as provider, _build_parser_client(args) as client:
        weights = _load_weights(args, provider)
        demos = load_demonstrations(args.demos)
        index = CentroidIndex()
        pipeline = Pipeline(
            provider=provider, weights=weights, index=index,
            parser=ClusterParser(client=client, demos=demos),
            config=IngestConfig(similarity_threshold=args.threshold,
                                rebalance_every_n=args.rebalance_every,
                                batch_mode=args.batch_mode),
        )
        records = _read_records(args.input)

        assignments, reports = [], []
        if args.batch_mode:
            for start in range(0, len(records), args.batch_size):
                batch, _ = pipeline.ingest_batch(records[start:start + args.batch_size])
                assignments.extend(batch)
                reports.append(pipeline.maybe_rebalance())
            if records:
                reports.append(pipeline.force_rebalance())
        else:
            for record in records:
                try:
                    assignments.append(pipeline.ingest(record))
                except RECORD_ERRORS:
                    continue  # a dead letter, named below
                reports.append(pipeline.maybe_rebalance())

    out_lines = [row.to_json() for row in final_rows(assignments, reports, index)]
    if args.assignments_out:
        with atomic_write(args.assignments_out) as fh:
            fh.write("\n".join(out_lines) + ("\n" if out_lines else ""))
    else:
        for line in out_lines:
            print(line)
    index.snapshot(args.snapshot_out)
    if args.templates_out:
        index.save_templates(args.templates_out)
    # both modes skip a record whose embedding failed; name each one
    for record, exc in pipeline.dead_letters:
        print(f"dead letter: {record.content!r}: {exc}", file=sys.stderr)
    print(f"ingested {len(assignments)} of {len(records)} logs "
          f"into {len(index)} clusters", file=sys.stderr)
    return EXIT_PROVIDER if pipeline.dead_letters else EXIT_OK


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    with open(args.assignments) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if len(rows) != len(dataset):
        raise SchemaError(
            f"row count mismatch: {len(rows)} assignments vs {len(dataset)} dataset rows"
        )
    predicted_templates = []
    for n, row in enumerate(rows, start=1):
        if not isinstance(row, dict) or not (row.get("template") or "cluster_id" in row):
            raise SchemaError(f"assignment row {n} names no template or cluster_id")
        predicted_templates.append(str(row.get("template") or f"cluster-{row['cluster_id']}"))
    report = evaluate(predicted_templates, list(dataset.templates))
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(report.to_json() + "\n")
    print(report.to_table())
    return EXIT_OK


def cmd_train_encoder(args) -> int:
    with _build_provider(args) as provider:
        train_cfg = TrainConfig(
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
            epochs=args.epochs,
            pairs_per_dataset=args.pairs_per_dataset,
            similar_to_dissimilar_ratio=args.ratio,
            rng_seed=args.seed,
        )
        labeled = []
        for path in args.datasets:
            dataset = load_dataset(path)
            labeled.append([(LogRecord(source_id=path, content=c), t)
                            for c, t in zip(dataset.contents, dataset.templates)])
        pairs = build_pair_dataset(labeled, train_cfg, provider)
    result = train(pairs, train_cfg)
    result.weights.save(args.weights_out)
    if args.loss_trace_out:
        with atomic_write(args.loss_trace_out) as fh:
            fh.write(json.dumps({"loss_trace": result.loss_trace,
                                 "held_out_loss_trace": result.held_out_loss_trace,
                                 "epoch": result.epoch}, indent=2) + "\n")
    print(f"initial loss {result.loss_trace[0]:.6f}, final loss {result.loss_trace[-1]:.6f}; "
          f"saved the map of epoch {result.epoch} of {train_cfg.epochs}", file=sys.stderr)
    return EXIT_OK


def cmd_rebalance(args) -> int:
    index = CentroidIndex.load(args.snapshot)
    report = rebalance(index, args.threshold)
    index.snapshot(args.snapshot_out or args.snapshot)
    if args.templates_out:
        index.save_templates(args.templates_out)
    text = json.dumps(report.to_dict(), indent=2)
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    if args.snapshot:
        entries = [(c.cluster_id, c.weight, c.vector)
                   for c in CentroidIndex.load(args.snapshot).centroids()]
        dim = len(entries[0][2]) if entries else 0
    else:
        with _build_provider(args) as provider:
            weights = _load_weights(args, provider)
            # raises at the first record that cannot be embedded
            entries = [(i, 1, embed_log(record, provider, weights))
                       for i, record in enumerate(_read_records(args.corpus))]
        dim = weights.output_dim
    rows = [f"{cid},{weight}," + ",".join(repr(float(x)) for x in vector)
            for cid, weight, vector in entries]
    header = ",".join(["id", "weight", *(f"v{k}" for k in range(dim))])
    with atomic_write(args.output) as fh:
        fh.write("\n".join([header] + rows) + "\n")
    print(f"wrote {len(rows)} vectors to {args.output}", file=sys.stderr)
    return EXIT_OK


# ---- argument parsing --------------------------------------------------------


class _ArgParser(argparse.ArgumentParser):
    """argparse that takes whole flags only, so a removed flag is not read as
    a longer one (--weights as --weights-out), and records which flags are
    settings: values a --config file may give too, keyed by the flag's dest."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.settings: dict[str, argparse.Action] = {}
        self.commands: dict[str, _ArgParser] = {}

    def setting(self, *flags, **kwargs) -> None:
        action = self.add_argument(*flags, **kwargs)
        self.settings[action.dest] = action


def _ratio(text: str) -> Fraction:
    try:
        return Fraction(text.replace(":", "/"))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid ratio {text!r}") from None


def _provider_settings(p: _ArgParser):
    p.add_argument("--config", help="JSON file of settings; flags override it")
    p.setting("--provider", choices=["hashing", "remote"], default="hashing")
    p.setting("--provider-dim", type=int, default=HashingProvider.DIM)
    p.setting("--provider-url")
    p.setting("--provider-model")
    p.setting("--provider-key-env", default=RemoteProvider.KEY_ENV)


def build_arg_parser() -> _ArgParser:
    parser = _ArgParser(prog="logsift",
                        description="Online log clustering and template extraction")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("ingest", help="cluster a log stream and extract templates")
    _provider_settings(p)
    p.add_argument("--input", required=True, help="log file, .csv dataset, or - for stdin")
    p.add_argument("--snapshot-out", required=True)
    p.add_argument("--assignments-out")
    p.add_argument("--templates-out")
    p.setting("--weights", help="encoder weights file (identity init if omitted)")
    p.setting("--threshold", type=float, default=IngestConfig.similarity_threshold)
    p.setting("--rebalance-every", type=int, default=IngestConfig.rebalance_every_n)
    p.setting("--batch-mode", action="store_true")
    p.setting("--batch-size", type=int, default=256)
    p.setting("--completion", choices=["mock", "remote"], default="mock")
    p.setting("--completion-url")
    p.setting("--completion-model")
    p.setting("--completion-key-env", default=RemoteCompletionClient.KEY_ENV)
    p.setting("--demos", help="JSON file of parsing demonstrations")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("evaluate", help="score assignments against a labeled dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--assignments", required=True, help="JSON-lines from ingest")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train-encoder", help="fine-tune encoder weights on labeled logs")
    _provider_settings(p)
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--weights-out", required=True)
    p.add_argument("--loss-trace-out")
    p.setting("--seed", type=int, default=TrainConfig.rng_seed)
    p.setting("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.setting("--batch-size", type=int, default=TrainConfig.batch_size)
    p.setting("--epochs", type=int, default=TrainConfig.epochs)
    p.setting("--pairs-per-dataset", type=int, default=TrainConfig.pairs_per_dataset)
    p.setting("--ratio", type=_ratio, default=TrainConfig.similar_to_dissimilar_ratio,
              help="similar:dissimilar pair ratio, e.g. 1:5")
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("rebalance", help="merge similar clusters in a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--snapshot-out")
    p.add_argument("--threshold", type=float, default=IngestConfig.similarity_threshold)
    p.add_argument("--report-out")
    p.add_argument("--templates-out", help="templates view of the rebalanced snapshot")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser("export-embeddings", help="dump centroid or corpus vectors as CSV")
    _provider_settings(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--snapshot")
    group.add_argument("--corpus")
    p.add_argument("--output", required=True)
    p.setting("--weights", help="encoder weights file (identity init if omitted)")
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line. The settings of a --config file go in front of
    the command's flags, so each is checked as its flag is and a flag given
    on the command line wins. A key that is a setting of no command is an
    error; the command skips the settings of others."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config {args.config}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    unknown = set(loaded).difference(*(p.settings for p in parser.commands.values()))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in loaded.items():
        action = parser.commands[args.command].settings.get(key)
        if action is None or value is None:  # another command's, or left unset
            continue
        switch = action.nargs == 0  # true or false; any other setting takes a value
        if isinstance(value, bool) != switch or isinstance(value, (list, dict)):
            raise ConfigError(f"config key {key!r} cannot be {json.dumps(value)}")
        if not switch:
            flags.append(f"{action.option_strings[0]}={value}")
        elif value:
            flags += action.option_strings
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a bad flag or setting value
        return exc.code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, SnapshotFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ProviderError, DimensionMismatchError, DegenerateEmbeddingError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
