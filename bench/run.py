#!/usr/bin/env python3
"""Ingestion benchmark for logsift.

    python3 bench/run.py --workload stream-repeat --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each repetition does what `logsift ingest` does, without calling the CLI:
build the hashing provider, load encoder weights from a file, load the
demonstrations, build the parser, the centroid index and the pipeline,
feed every record through `Pipeline.ingest` (or `ingest_batch` in batches
of 256), each call followed by `maybe_rebalance()`, finish a batch run with
`force_rebalance()`, and write the snapshot and the templates. One caller,
one thread, closed loop. Full repetitions run for about --seconds.

Every repetition does the same work call for call (the checks below make
sure of it). Timestamps at every call into the provider, the index and the
completion client cut a repetition into segments of a millisecond or so,
and the run reports times built from each segment's least duration over its
repetitions: other tenants of a shared host only ever add time, and a short
segment is often timed in a quiet moment even when the host is busy.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 half the time runs untraced and half with spans around every
layer, and the last line carries the per-layer metrics plus the tracing
overhead. Spans and a full report are written under .bench_work/.

Exit status: 0 when every correctness check holds, 1 when one fails (the
result line says "correct": false), 2 on bad arguments or when the logsift
sources are not next to this directory.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
if __name__ == "__main__":
    # pinned before numpy loads; one thread never exceeds the cores of any host
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Marks, SpanTable, Tracer, median_metrics
from workload import NEAR_MARGIN, THRESHOLD, Corpus, CorpusSpec, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PROVIDER_DIM = 512
SETUPS = 25  # at least this many timed constructions per run


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    batch_size: int  # 0 feeds Pipeline.ingest one record at a time
    rebalance_every: int = 1000  # the CLI default


WORKLOADS = {
    # ~97% exact-duplicate lines over 20 templates: the index stays under
    # its 64-entry exact-scan cutoff and embedding dominates, so this is the
    # workload a content cache or a faster encoder should move
    "stream-repeat": Workload(
        CorpusSpec(templates=20, logs=3000, zipf=1.0, shared_pool=0,
                   shared_per_template=0, max_params=2,
                   constants_per_param=9, param_pool=3, near_pairs=0),
        batch_size=0),
    # ingest_batch without an rng, as the CLI runs it: peers in a batch
    # cannot see each other, so duplicate clusters are inserted, merged by
    # rebalance and removed, and parsing waits for the rebalance. Templates
    # sit clear of the threshold and every batch is rebalanced: with the
    # default cadence a 1000-log backlog of duplicates degrades the graph
    # index on some seeds and not others, and the run-to-run spread of
    # quality and cost outgrows any usable bound. Two batches keep a
    # repetition to a few seconds; the flatter frequency profile keeps the
    # quality of so few batches the same from seed to seed
    "batch-merge": Workload(
        CorpusSpec(templates=100, logs=512, zipf=0.8, shared_pool=12,
                   shared_per_template=4, max_params=2,
                   constants_per_param=19, param_pool=0, near_pairs=0),
        batch_size=256, rebalance_every=256),
}

E2E_UNITS = {
    "setup_s": "s",
    "logs_per_s": "logs/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "completion_calls_per_cluster": "ratio",
    "pa": "ratio",
}

LAYER_UNITS = {
    "embedding.provider_calls": "count",
    "embedding.provider_ms": "ms",
    "embedding.encode_ms": "ms",
    "index.nearest_calls": "count",
    "index.nearest_ms": "ms",
    "index.update_calls": "count",
    "index.update_ms": "ms",
    "index.insert_calls": "count",
    "index.insert_ms": "ms",
    "index.remove_calls": "count",
    "index.remove_ms": "ms",
    "index.size": "count",
    "index.snapshot_ms": "ms",
    "index.snapshot_bytes": "bytes",
    "ingest.self_ms": "ms",
    "ingest.created": "count",
    "ingest.joined": "count",
    "ingest.dead_letters": "count",
    "ingest.duplicate_share": "ratio",
    "ingest.ga": "ratio",
    "ingest.fga": "ratio",
    "parsing.parse_calls": "count",
    "parsing.parse_self_ms": "ms",
    "parsing.completion_calls": "count",
    "parsing.completion_ms": "ms",
    "parsing.useful_share": "ratio",
    "parsing.failed": "count",
    "parsing.fta": "ratio",
    "rebalance.passes": "count",
    "rebalance.ms": "ms",
    "rebalance.merges": "count",
    "rebalance.merge_ms": "ms",
    "rebalance.merge_yield": "ratio",
    "workload.duplicate_share": "ratio",
    "workload.near_threshold_share": "ratio",
    "trace.untraced_logs_per_s": "logs/s",
    "trace.traced_logs_per_s": "logs/s",
    "trace.overhead_share": "ratio",
}


def import_logsift():
    """Import logsift from this checkout's sources, never from elsewhere."""
    if not (SRC / "logsift" / "__init__.py").is_file():
        print(f"bench: logsift sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import logsift

    if SRC.resolve() not in Path(logsift.__file__).resolve().parents:
        print(f"bench: imported logsift from {logsift.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return logsift


def digest(assignments) -> str:
    text = "\n".join(a.to_json() for a in assignments)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Rep:
    setup_s: float
    attempted: int
    segments_ns: np.ndarray  # durations between consecutive marks
    step_marks: list[int]  # mark positions that bound the steps, in order
    step_logs: list[int]  # records each step carried, 0 for the final steps
    assignments: list
    failed: int
    pipeline: object
    calls: int
    reports: list
    snapshot_bytes: int
    quality: object = None

    def __post_init__(self):
        self.clusters = len(self.pipeline.index)
        self.digest = digest(self.assignments)

    def fingerprint(self) -> tuple:
        return (self.digest, self.calls, self.clusters, self.failed)

    def release(self) -> None:
        """Drop what the repetition built, so peak RSS reflects one ingest."""
        self.pipeline = self.assignments = self.reports = None


class Bench:
    def __init__(self, ls, workload: Workload, corpus: Corpus, out: Path):
        self.ls = ls
        self.workload = workload
        self.corpus = corpus
        self.records = [ls.LogRecord(source_id="bench", content=line)
                        for line in corpus.lines]
        self.out = out
        # what Pipeline.ingest dead-letters and re-raises for one record
        self.record_error = importlib.import_module("logsift.errors").LogsiftError
        self.weights_path = str(out / "weights.json")
        ls.EncoderWeights.identity_init(PROVIDER_DIM).save(self.weights_path)

    def build(self, tracer: Tracer | None = None, marks: Marks | None = None):
        ls = self.ls
        provider = ls.HashingProvider(PROVIDER_DIM)
        weights = ls.EncoderWeights.load(self.weights_path)
        client = ls.MockCompletionClient()
        demos = ls.load_demonstrations()
        index = ls.CentroidIndex()
        if tracer is not None:
            tracer.wrap_object("provider", provider)
            tracer.wrap_object("index", index)
            tracer.wrap_object("client", client)
        if marks is not None:
            for role, obj in (("provider", provider), ("index", index), ("client", client)):
                marks.wrap_object(role, obj)
        parser = ls.ClusterParser(client=client, demos=demos,
                                  store=ls.TemplateStore())
        config = ls.IngestConfig(similarity_threshold=THRESHOLD,
                                 rebalance_every_n=self.workload.rebalance_every,
                                 batch_mode=self.workload.batch_size > 0)
        return ls.Pipeline(provider, weights, index, parser, config), client

    def rep(self, records, tracer: Tracer | None = None) -> Rep:
        """One ingest of `records` from construction to written outputs.

        A step is one ingest call with the maybe_rebalance after it, then,
        in batch mode, the final force_rebalance, and last the writing of
        the outputs. Steps follow each other without a gap."""
        cursor = tracer or Tracer()  # only its log_index is used when untraced
        marks = Marks()
        t0 = time.perf_counter()
        pipeline, client = self.build(tracer, marks)
        setup_s = time.perf_counter() - t0
        assignments, step_logs, reports, failed = [], [], [], 0
        step_marks = [marks.take()]
        size = self.workload.batch_size
        if size:
            for first in range(0, len(records), size):
                chunk = records[first:first + size]
                cursor.log_index = first
                out, errors = pipeline.ingest_batch(chunk)
                reports.append(pipeline.maybe_rebalance())
                step_marks.append(marks.take())
                step_logs.append(len(chunk))
                assignments.extend(out)
                failed += len(errors)
            cursor.log_index = -1
            reports.append(pipeline.force_rebalance())
            step_marks.append(marks.take())
            step_logs.append(0)
        else:
            for i, record in enumerate(records):
                cursor.log_index = i
                try:
                    assignments.append(pipeline.ingest(record))
                except self.record_error:
                    failed += 1
                reports.append(pipeline.maybe_rebalance())
                step_marks.append(marks.take())
                step_logs.append(1)
            cursor.log_index = -1
        snapshot = self.out / "snapshot.json"
        pipeline.index.snapshot(str(snapshot))
        pipeline.parser.store.save(str(self.out / "templates.json"))
        step_marks.append(marks.take())
        step_logs.append(0)
        return Rep(setup_s=setup_s, attempted=len(records),
                   segments_ns=np.diff(np.asarray(marks.ns, dtype=np.int64)),
                   step_marks=step_marks, step_logs=step_logs,
                   assignments=assignments,
                   failed=failed, pipeline=pipeline,
                   calls=client.query_count,
                   reports=[r for r in reports if r is not None],
                   snapshot_bytes=snapshot.stat().st_size)

    def score(self, rep: Rep) -> list[str]:
        """Correctness checks on one repetition; returns what failed."""
        problems = []
        if len(rep.assignments) != rep.attempted:
            problems.append(f"{len(rep.assignments)} assignments for {rep.attempted} records")
        weight = rep.pipeline.index.total_weight()
        if weight != len(rep.assignments):
            problems.append(f"total centroid weight {weight} != "
                            f"{len(rep.assignments)} records ingested")
        if not problems:
            # scored like `logsift evaluate`: a null template is cluster-<id>
            predicted = [a.template or f"cluster-{a.cluster_id}" for a in rep.assignments]
            rep.quality = self.ls.evaluate(predicted, list(self.corpus.truth[:rep.attempted]))
        return problems

    def measure(self, seconds: float, on_rep, tracer: Tracer | None = None) -> list[Rep]:
        """Full repetitions for about `seconds`, at least one: another one
        starts only if it should end before the deadline."""
        reps = []
        start = time.perf_counter()
        deadline = start + seconds
        while not reps or (time.perf_counter()
                           + (time.perf_counter() - start) / len(reps) < deadline):
            if tracer is not None:
                tracer.spans.clear()
            rep = self.rep(self.records, tracer)
            on_rep(rep)
            rep.release()
            reps.append(rep)
        return reps


class LeastTimes:
    """Each segment's least duration over the repetitions of a run, and
    the step times those add up to."""

    def __init__(self):
        self.segments: np.ndarray | None = None
        self.step_marks: list[int] = []
        self.logs: list[int] = []

    def add(self, rep: Rep) -> bool:
        """Fold in one repetition; False if its segments differ from the others'."""
        if self.segments is None:
            self.segments = rep.segments_ns.copy()
            self.step_marks, self.logs = rep.step_marks, rep.step_logs
            return True
        if (rep.step_marks != self.step_marks or rep.step_logs != self.logs
                or len(rep.segments_ns) != len(self.segments)):
            return False
        np.minimum(self.segments, rep.segments_ns, out=self.segments)
        return True

    def steps_s(self) -> np.ndarray:
        done = np.concatenate(([0], np.cumsum(self.segments)))
        return np.diff(done[self.step_marks]) / 1e9

    def logs_per_s(self) -> float:
        return sum(self.logs) / float(self.steps_s().sum())

    def latencies_ms(self) -> np.ndarray:
        """Per record, its step's time; a batch's records share it."""
        return np.repeat(self.steps_s() * 1e3, self.logs)


def end_to_end(reps: list[Rep], least: LeastTimes, setups: list[float],
               rss_mb: float) -> dict[str, float]:
    p50, p99 = np.percentile(least.latencies_ms(), [50, 99])
    rep = reps[0]
    return {
        "setup_s": statistics.median(setups),
        "logs_per_s": least.logs_per_s(),
        "latency_p50_ms": float(p50),
        "latency_p99_ms": float(p99),
        "peak_rss_mb": rss_mb,
        "completion_calls_per_cluster": rep.calls / rep.clusters,
        "pa": rep.quality.pa,
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(ls, table: SpanTable, rep: Rep, corpus: Corpus) -> dict[str, float]:
    index = rep.pipeline.index
    alive = set(index.ids())
    created = {a.cluster_id for a in rep.assignments if a.created_new}
    absorbed = {cid for r in rep.reports for m in r.merges for cid in m.absorbed_ids}
    completions = [s for s in table.spans if s.name == "client.complete"]
    useful = sum(1 for s in completions
                 if s.parent >= 0 and table.spans[s.parent].note in alive)
    examined = table.children_of("index.nearest", "rebalance")
    routed = table.children_of("index.nearest", "Pipeline.ingest", "Pipeline.ingest_batch")
    near = sum(1 for s in routed
               if s.note is not None and abs(s.note - THRESHOLD) <= NEAR_MARGIN)
    n_created = sum(1 for a in rep.assignments if a.created_new)
    return {
        "embedding.provider_calls": table.count["provider.embed"],
        "embedding.provider_ms": table.total_ms("provider.embed"),
        "embedding.encode_ms": table.self_ms("embed_log"),
        "index.nearest_calls": table.count["index.nearest"],
        "index.nearest_ms": table.total_ms("index.nearest"),
        "index.update_calls": table.count["index.update"],
        "index.update_ms": table.total_ms("index.update"),
        "index.insert_calls": table.count["index.insert"],
        "index.insert_ms": table.total_ms("index.insert"),
        "index.remove_calls": table.count["index.remove"],
        "index.remove_ms": table.total_ms("index.remove"),
        "index.size": len(index),
        "index.snapshot_ms": table.total_ms("index.snapshot"),
        "index.snapshot_bytes": rep.snapshot_bytes,
        "ingest.self_ms": table.self_ms("Pipeline.ingest", "Pipeline.ingest_batch"),
        "ingest.created": n_created,
        "ingest.joined": len(rep.assignments) - n_created,
        "ingest.dead_letters": len(rep.pipeline.dead_letters),
        "ingest.duplicate_share": _share(len(created & absorbed), len(created)),
        "ingest.ga": rep.quality.ga,
        "ingest.fga": rep.quality.fga,
        "parsing.parse_calls": table.count["ClusterParser.parse_cluster"],
        "parsing.parse_self_ms": table.self_ms("ClusterParser.parse_cluster"),
        "parsing.completion_calls": table.count["client.complete"],
        "parsing.completion_ms": table.total_ms("client.complete"),
        "parsing.useful_share": _share(useful, len(completions)),
        "parsing.failed": sum(1 for c in index.centroids()
                              if c.parse_state == ls.ParseState.FAILED),
        "parsing.fta": rep.quality.fta,
        "rebalance.passes": table.count["rebalance"],
        "rebalance.ms": table.total_ms("rebalance"),
        "rebalance.merges": table.count["merge_pair"],
        "rebalance.merge_ms": table.total_ms("merge_pair"),
        "rebalance.merge_yield": _share(table.count["merge_pair"], len(examined)),
        "workload.duplicate_share": corpus.duplicate_share(),
        "workload.near_threshold_share": _share(near, len(routed)),
    }


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    ls = import_logsift()
    workload = WORKLOADS[name]
    corpus = generate(workload.corpus, seed)
    out = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(ls, workload, corpus, out)

    problems: list[str] = []
    fingerprints: set[tuple] = set()

    def check(rep: Rep, least: LeastTimes) -> None:
        problems.extend(bench.score(rep))
        fingerprints.add(rep.fingerprint())
        if not least.add(rep):
            problems.append("repetitions of one seed made different sequences of calls")

    # one repetition before the clock starts, so that even a run with a
    # single timed repetition checks determinism. The first ingest in a
    # process grows the heap and runs slower than later ones; its segments
    # still count, since only each segment's least is kept
    least = LeastTimes()
    warm = bench.rep(bench.records)
    check(warm, least)
    # the high-water mark after one full ingest: later repetitions only add
    # heap fragmentation, and how many fit in a run depends on the host
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    warm.release()

    report: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "blas_threads": BLAS_THREADS,
                    "cpus": os.cpu_count(), "logs": len(corpus),
                    "duplicate_share": corpus.duplicate_share()}
    if not trace:
        reps = bench.measure(seconds, lambda rep: check(rep, least))
        # one construction per repetition, spread over the run, topped up
        setups = [r.setup_s for r in reps]
        while len(setups) < SETUPS:
            t0 = time.perf_counter()
            bench.build()
            setups.append(time.perf_counter() - t0)
        metrics = {} if problems else end_to_end(reps, least, setups, rss_mb)
        units = E2E_UNITS
    else:
        reps = bench.measure(seconds / 2, lambda rep: check(rep, least))
        tracer = Tracer()
        traced_least = LeastTimes()
        layer_reps: list[dict[str, float]] = []

        def traced(rep: Rep) -> None:
            check(rep, traced_least)
            if rep.quality is not None:
                layer_reps.append(per_layer(ls, SpanTable(tracer.spans), rep, corpus))

        tracer.install()
        try:
            traced_reps = bench.measure(seconds / 2, traced, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(str(out / "spans.jsonl"))
        reps += traced_reps
        metrics = median_metrics(layer_reps) if layer_reps else {}
        for layer in tracer.unmeasured:
            print(f"bench: layer {layer} unmeasured, a wrapped name is missing",
                  file=sys.stderr)
            metrics = {k: v for k, v in metrics.items() if not k.startswith(layer + ".")}
        if metrics:
            untraced, lps = least.logs_per_s(), traced_least.logs_per_s()
            metrics["trace.untraced_logs_per_s"] = untraced
            metrics["trace.traced_logs_per_s"] = lps
            metrics["trace.overhead_share"] = 1.0 - lps / untraced
        units = LAYER_UNITS
        report["unmeasured_layers"] = sorted(tracer.unmeasured)

    if len(fingerprints) > 1:
        problems.append(f"{len(reps) + 1} repetitions of one seed, the warm-up included, "
                        f"gave {len(fingerprints)} "
                        "different (digest, calls, clusters, failed) results")
    attempted = len(reps) * len(bench.records)
    failed = sum(r.failed for r in reps)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update(result, repetitions=len(reps), problems=problems,
                  digests=sorted(f[0] for f in fingerprints))
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    os.remove(bench.weights_path)
    for problem in problems:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    for k, v in metrics.items():
        print(f"{name:14} {k:32} {v:14.6g} {units[k]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    status, results = 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
