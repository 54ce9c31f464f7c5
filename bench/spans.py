"""In-memory spans around the calls the benchmark makes into each layer.

The tracer wraps the objects the benchmark passes to the pipeline and a
fixed list of module and class attributes; nothing inside the library
changes. A span records its name, start and end (perf_counter_ns), its
parent span, the index of the log the benchmark was feeding when it opened
(the first of the batch in batch mode), and an optional note (a cluster id
or a similarity) taken from the call.
A wrap target that no longer exists marks its layer as unmeasured instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

# span name -> (layer, wrapped attribute path) for module and class attributes;
# Pipeline's own module refers to embed_log and rebalance by these names
MODULE_TARGETS = {
    "embed_log": ("embedding", "logsift.ingest", "embed_log"),
    "rebalance": ("rebalance", "logsift.ingest", "rebalance"),
    "merge_pair": ("rebalance", "logsift.rebalance", "merge_pair"),
    "Pipeline.ingest": ("ingest", "logsift.ingest", "Pipeline.ingest"),
    "Pipeline.ingest_batch": ("ingest", "logsift.ingest", "Pipeline.ingest_batch"),
    "Pipeline.maybe_rebalance": ("ingest", "logsift.ingest", "Pipeline.maybe_rebalance"),
    "Pipeline.force_rebalance": ("ingest", "logsift.ingest", "Pipeline.force_rebalance"),
    "Pipeline.parse_pending": ("ingest", "logsift.ingest", "Pipeline.parse_pending"),
    "ClusterParser.parse_cluster": ("parsing", "logsift.parsing", "ClusterParser.parse_cluster"),
}

# span name -> (layer, method) on the objects the benchmark builds
OBJECT_TARGETS = {
    "provider": {"provider.embed": ("embedding", "embed")},
    "index": {
        "index.nearest": ("index", "nearest"),
        "index.update": ("index", "update_moving_average"),
        "index.insert": ("index", "insert"),
        "index.remove": ("index", "remove"),
        "index.snapshot": ("index", "snapshot"),
    },
    "client": {"client.complete": ("parsing", "complete")},
}


def _nearest_note(args, kwargs, result) -> Optional[float]:
    return None if result is None else result.similarity


def _parse_note(args, kwargs, result) -> int:
    # parse_cluster(self, index, cluster_id, representative)
    return kwargs["cluster_id"] if "cluster_id" in kwargs else args[2]


NOTES: dict[str, Callable] = {
    "index.nearest": _nearest_note,
    "ClusterParser.parse_cluster": _parse_note,
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # position of the parent span, -1 at the top
    log_index: int  # -1 outside any log the benchmark fed
    note: Any = None

    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.log_index = -1
        self.unmeasured: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original: Callable) -> Callable:
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pos = len(spans)
            span = Span(name, time.perf_counter_ns(), 0,
                        stack[-1] if stack else -1, self.log_index)
            spans.append(span)
            stack.append(pos)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    span.note = note(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter_ns()

        return traced

    def install(self) -> None:
        """Wrap MODULE_TARGETS until uninstall() puts the originals back."""
        for name, (layer, module_name, path) in MODULE_TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.unmeasured.add(layer)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def wrap_object(self, role: str, obj: object) -> None:
        """Shadow the object's traced methods with instance attributes."""
        for name, (layer, method) in OBJECT_TARGETS[role].items():
            original = getattr(obj, method, None)
            if not callable(original):
                self.unmeasured.add(layer)
                continue
            setattr(obj, method, self._wrap(name, original))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


class Marks:
    """Timestamps that cut a repetition into short segments.

    A mark is taken on entry to and exit from every traced method of the
    objects handed to wrap_object, and wherever the caller calls take().
    The calls are deterministic, so every repetition of one input yields
    the same sequence of segments, and a segment's least duration over the
    repetitions of a run is its cost with the least interference from
    other tenants of the host. Short segments reach that floor far more
    often than whole calls do."""

    def __init__(self):
        self.ns: list[int] = []

    def take(self) -> int:
        """Mark now; returns the mark's position."""
        self.ns.append(time.perf_counter_ns())
        return len(self.ns) - 1

    def wrap_object(self, role: str, obj: object) -> None:
        ns, clock = self.ns, time.perf_counter_ns
        for _layer, method in OBJECT_TARGETS[role].values():
            original = getattr(obj, method, None)
            if not callable(original):
                continue

            def marked(*args, _original=original, **kwargs):
                ns.append(clock())
                try:
                    return _original(*args, **kwargs)
                finally:
                    ns.append(clock())

            setattr(obj, method, functools.wraps(original)(marked))


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for pos, span in enumerate(spans):
        covered, cursor = 0, span.start
        for child in sorted(children.get(pos, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration() - covered)
    return out


class SpanTable:
    """Per-name counts, total and self times of one traced repetition."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(spans, self_times(spans)):
            self.count[span.name] += 1
            self.total_ns[span.name] += span.duration()
            self.self_ns[span.name] += own

    def total_ms(self, *names: str) -> float:
        return sum(self.total_ns[n] for n in names) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e6

    def children_of(self, child: str, *parents: str) -> list[Span]:
        return [s for s in self.spans
                if s.name == child and s.parent >= 0
                and self.spans[s.parent].name in parents]


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the repetitions that report it."""
    names = {n for rep in per_rep for n in rep}
    return {n: statistics.median(rep[n] for rep in per_rep if n in rep)
            for n in sorted(names)}
