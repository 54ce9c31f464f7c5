"""Operator command line: ingest, evaluate, train-encoder, rebalance,
export-embeddings.

Configuration is a JSON key-value file; every key can be overridden by the
matching flag, and flags win. Exit codes: 0 success, 2 config error, 3 IO
error, 4 provider/client error, 5 data or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .embedding import EncoderWeights, HashingProvider, RemoteProvider
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ProviderError,
    SchemaError,
    SnapshotFormatError,
)
from .files import atomic_write
from .index import CentroidIndex
from .ingest import IngestConfig, Pipeline
from .metrics import evaluate, load_dataset
from .parsing import (
    ClusterParser,
    MockCompletionClient,
    RemoteCompletionClient,
    TemplateStore,
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

DEFAULTS = {
    "provider": "hashing",
    "provider_dim": 512,
    "provider_url": None,
    "provider_model": None,
    "provider_key_env": "EMBEDDING_API_KEY",
    "completion": "mock",
    "completion_url": None,
    "completion_model": None,
    "completion_key_env": "COMPLETION_API_KEY",
    "weights": None,
    "demos": None,
    "threshold": 0.9,
    "rebalance_every": 1000,
    "batch_mode": False,
    "batch_size": 256,
    "seed": 0,
}


def _load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"cannot parse config {args.config}: {exc}") from exc
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _build_provider(cfg: dict):
    if cfg["provider"] == "hashing":
        return HashingProvider(dim=int(cfg["provider_dim"]))
    if cfg["provider"] == "remote":
        if not cfg["provider_url"] or not cfg["provider_model"]:
            raise ConfigError("remote provider requires provider_url and provider_model")
        return RemoteProvider(url=cfg["provider_url"], model=cfg["provider_model"],
                              dim=int(cfg["provider_dim"]),
                              api_key_env=cfg["provider_key_env"])
    raise ConfigError(f"unknown provider {cfg['provider']!r}")


def _build_parser_client(cfg: dict):
    if cfg["completion"] == "mock":
        return MockCompletionClient()
    if cfg["completion"] == "remote":
        if not cfg["completion_url"] or not cfg["completion_model"]:
            raise ConfigError("remote completion requires completion_url and completion_model")
        return RemoteCompletionClient(url=cfg["completion_url"],
                                      model=cfg["completion_model"],
                                      api_key_env=cfg["completion_key_env"])
    raise ConfigError(f"unknown completion client {cfg['completion']!r}")


def _load_weights(cfg: dict, provider) -> EncoderWeights:
    if cfg["weights"]:
        weights = EncoderWeights.load(cfg["weights"])
        if weights.input_dim != provider.dim + 1:
            raise ConfigError(
                f"weights expect provider dim {weights.input_dim - 1}, "
                f"provider has {provider.dim}"
            )
        return weights
    return EncoderWeights.identity_init(provider.dim)


def _read_records(path: str) -> list[LogRecord]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
        source = "stdin"
    elif path.endswith(".csv"):
        dataset = load_dataset(path)
        return [LogRecord(source_id=path, content=c) for c in dataset.contents]
    else:
        with open(path) as fh:
            lines = fh.read().splitlines()
        source = path
    return [LogRecord(source_id=source, content=line)
            for line in lines if line.strip()]


# ---- subcommands -----------------------------------------------------------


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    provider = _build_provider(cfg)
    weights = _load_weights(cfg, provider)
    client = _build_parser_client(cfg)
    demos = load_demonstrations(cfg["demos"])
    index = CentroidIndex()
    pipeline = Pipeline(
        provider=provider, weights=weights, index=index,
        parser=ClusterParser(client=client, demos=demos, store=TemplateStore()),
        config=IngestConfig(similarity_threshold=float(cfg["threshold"]),
                            rebalance_every_n=int(cfg["rebalance_every"]),
                            batch_mode=bool(cfg["batch_mode"])),
    )
    records = _read_records(args.input)

    assignments, reports = [], []
    if cfg["batch_mode"]:
        size = int(cfg["batch_size"])
        for start in range(0, len(records), size):
            batch, _ = pipeline.ingest_batch(records[start:start + size])
            assignments.extend(batch)
            reports.append(pipeline.maybe_rebalance())
        if records:
            reports.append(pipeline.force_rebalance())
    else:
        for record in records:
            assignments.append(pipeline.ingest(record))
            reports.append(pipeline.maybe_rebalance())

    # each row names the cluster its log ended in after the last rebalance
    survivor = {absorbed: event.surviving_id for report in reports if report
                for event in report.merges for absorbed in event.absorbed_ids}
    out_lines: list[str] = []
    for assignment in assignments:
        cid = assignment.cluster_id
        while cid in survivor:
            cid = survivor[cid]
        final = replace(assignment, cluster_id=cid,
                        template=pipeline.parser.store.template_for(cid))
        out_lines.append(final.to_json())
    if args.assignments_out:
        with atomic_write(args.assignments_out) as fh:
            fh.write("\n".join(out_lines) + ("\n" if out_lines else ""))
    else:
        for line in out_lines:
            print(line)
    index.snapshot(args.snapshot_out)
    if args.templates_out:
        pipeline.parser.store.save(args.templates_out)
    print(f"ingested {len(records)} logs into {len(index)} clusters", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    with open(args.assignments) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if len(rows) != len(dataset):
        raise SchemaError(
            f"row count mismatch: {len(rows)} assignments vs {len(dataset)} dataset rows"
        )
    predicted_templates = [r.get("template") or f"cluster-{r['cluster_id']}"
                           for r in rows]
    report = evaluate(predicted_templates, list(dataset.templates))
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(report.to_json() + "\n")
    print(report.to_table())
    return EXIT_OK


def cmd_train_encoder(args) -> int:
    cfg = _load_config(args)
    provider = _build_provider(cfg)
    try:
        ratio = Fraction(args.ratio.replace(":", "/")) if args.ratio else Fraction(1, 5)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid ratio {args.ratio!r}") from exc
    train_cfg = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        pairs_per_dataset=args.pairs_per_dataset,
        similar_to_dissimilar_ratio=ratio,
        rng_seed=int(cfg["seed"]),
    )
    per_dataset_pairs = []
    for path in args.datasets:
        dataset = load_dataset(path)
        labeled = [(LogRecord(source_id=path, content=c), t)
                   for c, t in zip(dataset.contents, dataset.templates)]
        per_dataset_pairs.append(build_pair_dataset(labeled, train_cfg, provider))
    if args.pair_order == "interleaved":
        pairs = [p for group in zip(*per_dataset_pairs) for p in group]
    else:
        pairs = [p for group in per_dataset_pairs for p in group]
    result = train(pairs, train_cfg)
    result.weights.save(args.weights_out)
    if args.loss_trace_out:
        with atomic_write(args.loss_trace_out) as fh:
            fh.write(json.dumps({"loss_trace": result.loss_trace}, indent=2) + "\n")
    print(f"initial loss {result.loss_trace[0]:.6f}, "
          f"final loss {result.loss_trace[-1]:.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_rebalance(args) -> int:
    index = CentroidIndex.load(args.snapshot)
    report = rebalance(index, args.threshold)
    index.snapshot(args.snapshot_out or args.snapshot)
    text = json.dumps(report.to_dict(), indent=2)
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    cfg = _load_config(args)
    rows: list[str] = []
    if args.snapshot:
        index = CentroidIndex.load(args.snapshot)
        dim = None
        for c in index.centroids():
            dim = len(c.vector)
            values = ",".join(repr(float(x)) for x in c.vector)
            rows.append(f"{c.cluster_id},{c.weight},{values}")
        dim = dim or 0
    else:
        provider = _build_provider(cfg)
        weights = _load_weights(cfg, provider)
        from .embedding import embed_log

        records = _read_records(args.corpus)
        dim = weights.output_dim
        for i, record in enumerate(records):
            vector = embed_log(record, provider, weights)
            values = ",".join(repr(float(x)) for x in vector)
            rows.append(f"{i},1,{values}")
    header = "id,weight," + ",".join(f"v{k}" for k in range(dim))
    with atomic_write(args.output) as fh:
        fh.write("\n".join([header] + rows) + "\n")
    print(f"wrote {len(rows)} vectors to {args.output}", file=sys.stderr)
    return EXIT_OK


# ---- argument parsing --------------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--provider", choices=["hashing", "remote"])
    p.add_argument("--provider-dim", type=int, dest="provider_dim")
    p.add_argument("--provider-url", dest="provider_url")
    p.add_argument("--provider-model", dest="provider_model")
    p.add_argument("--provider-key-env", dest="provider_key_env")
    p.add_argument("--weights", help="encoder weights file (identity init if omitted)")
    p.add_argument("--seed", type=int)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsift",
        description="Online log clustering and template extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="cluster a log stream and extract templates")
    _add_config_flags(p)
    p.add_argument("--input", required=True, help="log file, .csv dataset, or - for stdin")
    p.add_argument("--snapshot-out", required=True, dest="snapshot_out")
    p.add_argument("--assignments-out", dest="assignments_out")
    p.add_argument("--templates-out", dest="templates_out")
    p.add_argument("--threshold", type=float)
    p.add_argument("--rebalance-every", type=int, dest="rebalance_every")
    p.add_argument("--batch-mode", action="store_const", const=True,
                   default=None, dest="batch_mode")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--completion", choices=["mock", "remote"])
    p.add_argument("--completion-url", dest="completion_url")
    p.add_argument("--completion-model", dest="completion_model")
    p.add_argument("--completion-key-env", dest="completion_key_env")
    p.add_argument("--demos", help="JSON file of parsing demonstrations")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("evaluate", help="score assignments against a labeled dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--assignments", required=True, help="JSON-lines from ingest")
    p.add_argument("--report-out", dest="report_out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train-encoder", help="fine-tune encoder weights on labeled logs")
    _add_config_flags(p)
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--weights-out", required=True, dest="weights_out")
    p.add_argument("--loss-trace-out", dest="loss_trace_out")
    p.add_argument("--learning-rate", type=float, default=0.0005, dest="learning_rate")
    p.add_argument("--batch-size", type=int, default=2048, dest="batch_size")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--pairs-per-dataset", type=int, default=24000,
                   dest="pairs_per_dataset")
    p.add_argument("--ratio", default="1:5",
                   help="similar:dissimilar pair ratio, e.g. 1:5")
    p.add_argument("--pair-order", choices=["concatenated", "interleaved"],
                   default="concatenated", dest="pair_order")
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("rebalance", help="merge similar clusters in a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--snapshot-out", dest="snapshot_out")
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--report-out", dest="report_out")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser("export-embeddings",
                       help="dump centroid or corpus vectors as CSV")
    _add_config_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--snapshot")
    group.add_argument("--corpus")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, SnapshotFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ProviderError, DimensionMismatchError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
