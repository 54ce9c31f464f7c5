"""Tests of the benchmark's own code: python3 -m pytest bench"""

import importlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
from spans import Span, SpanTable, Tracer, self_times
from workload import CorpusSpec, generate, template_counts

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = CorpusSpec(templates=6, logs=80, zipf=1.0, shared_pool=6,
                   shared_per_template=2, max_params=3,
                   constants_per_param=9, param_pool=0, near_pairs=2)


def test_generator_is_deterministic_per_seed():
    for workload in run.WORKLOADS.values():
        assert generate(workload.corpus, 11) == generate(workload.corpus, 11)
        assert generate(workload.corpus, 11).lines != generate(workload.corpus, 12).lines


def test_generator_profile_is_seed_free():
    for workload in run.WORKLOADS.values():
        spec = workload.corpus
        counts = template_counts(spec)
        assert len(counts) == spec.templates and min(counts) >= 1
        assert sum(counts) >= spec.logs
        a, b = generate(spec, 1), generate(spec, 2)
        assert a.template_ids == b.template_ids and a.truth != b.truth


def test_duplicate_share_follows_the_parameter_pool():
    repeat = generate(run.WORKLOADS["stream-repeat"].corpus, 3)
    unique = generate(run.WORKLOADS["batch-merge"].corpus, 3)
    assert repeat.duplicate_share() > 0.9
    assert unique.duplicate_share() == 0.0


def test_truth_templates_mask_exactly_the_parameters():
    corpus = generate(SMALL, 5)
    for line, truth in zip(corpus.lines, corpus.truth):
        tokens, expected = line.split(), truth.split()
        assert len(tokens) == len(expected)
        for token, want in zip(tokens, expected):
            if want == "<*>":
                assert re.search(r"[0-9/]", token)
            else:
                assert token == want and not re.search(r"[0-9]", token)


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, -1)


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("b", 30, 50, parent=0),  # overlaps a: the union 10..50 is covered once
        _span("c", 60, 80, parent=0),
        _span("c.child", 65, 70, parent=3),
        _span("late", 90, 120, parent=0),  # only 90..100 lies inside root
    ]
    assert self_times(tree) == [100 - 40 - 20 - 10, 30, 20, 15, 5, 30]
    table = SpanTable(tree)
    assert table.self_ms("root") == 30 / 1e6
    assert table.total_ms("c", "c.child") == 25 / 1e6
    assert [s.name for s in table.children_of("c.child", "c")] == ["c.child"]


def _timed(segments, step_marks=(0, 2, 3, 4), step_logs=(1, 1, 0)):
    return SimpleNamespace(segments_ns=np.array(segments, dtype=np.int64),
                           step_marks=list(step_marks), step_logs=list(step_logs))


def test_least_times_take_each_segment_at_its_fastest():
    least = run.LeastTimes()
    assert least.add(_timed([4e6, 1e6, 3e6, 2e6]))
    assert least.add(_timed([2e6, 5e6, 3e6, 1e6]))
    # segments 2+1, 3 and 1 ms: no single repetition took that little
    assert least.steps_s().tolist() == pytest.approx([3e-3, 3e-3, 1e-3])
    assert least.latencies_ms().tolist() == pytest.approx([3.0, 3.0])
    assert least.logs_per_s() == pytest.approx(2 / 7e-3)
    assert not least.add(_timed([1e6] * 5, step_marks=(0, 2, 3, 5)))
    assert not least.add(_timed([1e6] * 4, step_logs=(2, 0, 0)))


def test_names_match_the_allowed_pattern():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_what_the_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for section, units in (("end_to_end", run.E2E_UNITS), ("per_layer", run.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == units


def test_missing_wrap_target_marks_the_layer_unmeasured(monkeypatch):
    run.import_logsift()
    monkeypatch.delattr(importlib.import_module("logsift.rebalance"), "merge_pair")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.wrap_object("provider", object())
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == {"rebalance", "embedding"}


@pytest.mark.parametrize("batch_size", [0, 32])
def test_traced_repetition_matches_untraced(tmp_path, batch_size):
    ls = run.import_logsift()
    original = ls.ingest.embed_log
    workload = run.Workload(SMALL, batch_size)
    corpus = generate(SMALL, 9)
    bench = run.Bench(ls, workload, corpus, tmp_path)
    plain = bench.rep(bench.records)
    assert bench.score(plain) == []
    prefix = bench.rep(bench.records[:40])
    assert prefix.digest == run.digest(plain.assignments[:40])

    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.rep(bench.records, tracer)
    finally:
        tracer.uninstall()
    assert ls.ingest.embed_log is original
    assert bench.score(traced) == []
    assert traced.fingerprint() == plain.fingerprint()
    least = run.LeastTimes()
    assert least.add(plain) and least.add(traced)  # spans add no segments

    layers = run.per_layer(ls, SpanTable(tracer.spans), traced, corpus)
    assert set(layers) | {k for k in run.LAYER_UNITS if k.startswith("trace.")} \
        == set(run.LAYER_UNITS)
    n = len(corpus)
    assert layers["embedding.provider_calls"] == n
    assert layers["ingest.created"] + layers["ingest.joined"] == n
    assert layers["index.update_calls"] == layers["ingest.joined"]
    assert layers["parsing.completion_calls"] == traced.calls
    assert layers["index.size"] == len(traced.pipeline.index)
    assert all(s.end >= s.start for s in tracer.spans)
    assert {s.log_index for s in tracer.spans if s.name == "embed_log"} <= set(range(n))
