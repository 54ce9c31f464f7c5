"""Online clustering pipeline: embed, route to a cluster at a cosine similarity threshold,
parse new clusters, and rebalance every N logs.

Two modes. Sequential: each log sees every cluster created before it, and a
new cluster is parsed at creation. Batch: records in one batch are embedded
and searched "in parallel", so a record may not see clusters created by its
batch peers; duplicate clusters for a simultaneously-arriving unseen
pattern are expected and repaired by the next rebalance, after which the
surviving clusters are parsed. Without an rng every search of a batch runs
against its start-of-batch state, so the batch is routed by one
`CentroidIndex.nearest_batch` call: one float32 product screens every
record, and each is re-scored exactly, so its hit is the one `nearest`
gives it bit for bit. The rng schedule keeps a `nearest` per search event.

Both modes commit a record through one create-or-join step, whose
`ClusterAssignment` is a named tuple: immutable, and cheaper to build than
a frozen dataclass on a path taken once per record. A merge's
outcome comes from its `MergeEvent`: the survivor takes the template entry
of `kept_from` and its first constituent's representative log.

Both modes embed through one per-pipeline cache keyed by the exact line
content, which alone fixes the vector: a line repeated while it is among
the EMBED_CACHE_ENTRIES most recently used reuses its vector, read-only.
A call's misses, each distinct line once, are encoded together by
`embed_log` with the pipeline's encoder map (a sequential call is a batch
of one), and the cache is then used and filled in record order, so its
order is the one a record-by-record walk would leave. A record that fails
to embed is a dead letter, except for a dimension mismatch, which every
record would hit and which stops the run; a pipeline whose encoder does
not take the provider's width plus the word count is not built at all.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .embedding import EmbeddingProvider, EncoderWeights, embed_log
from .errors import ConfigError, DimensionMismatchError
from .index import CentroidIndex, ParseState, SearchHit
from .parsing import ClusterParser
from .rebalance import MergeReport, check_threshold, rebalance
from .records import LogRecord

# lines whose vectors a pipeline keeps; at E=512 each takes about 4 KB
EMBED_CACHE_ENTRIES = 4096


@dataclass
class IngestConfig:
    similarity_threshold: float = 0.9
    rebalance_every_n: int = 1000
    batch_mode: bool = False

    def __post_init__(self):
        check_threshold(self.similarity_threshold)
        if self.rebalance_every_n < 1:
            raise ConfigError("rebalance_every_n must be positive")


class ClusterAssignment(NamedTuple):
    log_index: int
    cluster_id: int
    created_new: bool
    similarity: float  # 1.0 recorded for creations by convention
    template: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(self._asdict())


class Pipeline:
    """Owns the index, parser, embedding cache, dead-letter list, and
    rebalance cadence."""

    def __init__(self, provider: EmbeddingProvider, weights: EncoderWeights,
                 index: CentroidIndex, parser: ClusterParser,
                 config: Optional[IngestConfig] = None):
        if weights.input_dim != provider.dim + 1:  # the provider's floats, the word count
            raise DimensionMismatchError(
                f"encoder takes {weights.input_dim} inputs; provider dim {provider.dim} "
                f"and the word count make {provider.dim + 1}")
        self.provider = provider
        self.weights = weights
        self.index = index
        self.parser = parser
        self.config = config or IngestConfig()
        self.dead_letters: list[tuple[LogRecord, Exception]] = []
        self.first_log: dict[int, LogRecord] = {}  # cluster id -> representative
        self._log_counter = 0
        self._since_rebalance = 0
        self._vectors: OrderedDict[str, np.ndarray] = OrderedDict()  # by content

    # ---- internals ---------------------------------------------------------

    def _embed(self, records: list[LogRecord]
               ) -> tuple[list[tuple[LogRecord, np.ndarray]],
                          list[tuple[LogRecord, Exception]]]:
        """Each record with its vector, and each record that failed to embed
        with its error; the failures are also dead-lettered. Only lines
        neither cached nor repeated earlier in `records` are embedded, all in
        one `embed_log` call, and each vector is made read-only in place, as
        the index keeps it as a centroid. The cache is then used and filled
        in record order, so a miss adds to its `embed_log` call only a few
        dict and list operations."""
        cache, found, misses = self._vectors, {}, []  # found: content -> vector, error or None
        for record in records:
            if record.content not in found:
                found[record.content] = vector = cache.get(record.content)
                if vector is None:
                    misses.append(record)
        if misses:
            for record, outcome in zip(misses, embed_log(misses, self.provider,
                                                         self.weights)):
                if not isinstance(outcome, Exception):
                    outcome.setflags(write=False)
                found[record.content] = outcome
        embedded, errors = [], []
        for record in records:
            vector = found[record.content]
            if isinstance(vector, Exception):
                errors.append((record, vector))
                continue
            if record.content in cache:
                cache.move_to_end(record.content)
            else:
                cache[record.content] = vector
                if len(cache) > EMBED_CACHE_ENTRIES:
                    cache.popitem(last=False)
            embedded.append((record, vector))
        if errors:
            self.dead_letters.extend(errors)
        return embedded, errors

    def _parse(self, cluster_id: int) -> Optional[str]:
        representative = self.first_log.get(cluster_id)
        if representative is None:
            return None
        return self.parser.parse_cluster(self.index, cluster_id, representative)

    def _commit(self, record: LogRecord, vector: np.ndarray,
                hit: Optional[SearchHit], defer_parse: bool) -> ClusterAssignment:
        """Join `hit` if it is still live and at or above the threshold, else
        create a cluster (parsed now unless `defer_parse`)."""
        joins = (hit is not None and hit.cluster_id in self.index
                 and hit.similarity >= self.config.similarity_threshold)
        if joins:
            cid, similarity = hit.cluster_id, hit.similarity
            self.index.update_moving_average(cid, vector)
            template = self.parser.store.template_for(cid)
        else:
            cid, similarity = self.index.insert(vector), 1.0
            self.first_log[cid] = record
            template = None if defer_parse else self._parse(cid)
        assignment = ClusterAssignment(
            log_index=self._log_counter, cluster_id=cid, created_new=not joins,
            similarity=similarity, template=template,
        )
        self._log_counter += 1
        self._since_rebalance += 1
        return assignment

    # ---- operations ----------------------------------------------------------

    def ingest(self, record: LogRecord) -> ClusterAssignment:
        """Route one log: merge into the nearest cluster at or above the similarity threshold or create
        a new cluster (parsed immediately in sequential mode)."""
        embedded, errors = self._embed([record])
        if errors:
            raise errors[0][1]
        [(_, vector)] = embedded
        return self._commit(record, vector, self.index.nearest(vector),
                            defer_parse=self.config.batch_mode)

    def ingest_batch(self, records: list[LogRecord],
                     rng: Optional[np.random.Generator] = None
                     ) -> tuple[list[ClusterAssignment], list[tuple[LogRecord, Exception]]]:
        """Ingest a batch under parallel-arrival semantics.

        Each record's search and its commit are two events; a record only
        sees clusters committed before its own search. With rng given, the
        event interleaving is randomized (search_i always precedes commit_i),
        modelling concurrent workers; without rng all searches run against
        the start-of-batch state. Per-record embedding failures are isolated
        and returned alongside the partial results.
        """
        if not self.config.batch_mode:
            raise ConfigError("ingest_batch requires batch_mode")
        embedded, errors = self._embed(records)
        if rng is None:
            # every search sees the start-of-batch state: one scoring pass
            hits = self.index.nearest_batch(np.stack([v for _, v in embedded])) \
                if embedded else []
            assignments = [self._commit(record, vector, hit, defer_parse=True)
                           for (record, vector), hit in zip(embedded, hits)]
            return assignments, errors

        # schedule: interleave (search_i, commit_i) events
        events: list[tuple[int, int]] = []  # (kind 0=search 1=commit, slot)
        pending = [[(0, i), (1, i)] for i in range(len(embedded))]
        live = list(range(len(embedded)))
        while live:
            pick = live[int(rng.integers(len(live)))]
            events.append(pending[pick].pop(0))
            if not pending[pick]:
                live.remove(pick)

        decisions: dict[int, Optional[SearchHit]] = {}
        assignments: dict[int, ClusterAssignment] = {}
        for kind, slot in events:
            record, vector = embedded[slot]
            if kind == 0:
                decisions[slot] = self.index.nearest(vector)
            else:
                assignments[slot] = self._commit(record, vector, decisions[slot],
                                                 defer_parse=True)
        return [assignments[s] for s in sorted(assignments)], errors

    def maybe_rebalance(self) -> Optional[MergeReport]:
        """Run a rebalance pass when the cadence counter is due."""
        if self._since_rebalance < self.config.rebalance_every_n:
            return None
        return self.force_rebalance()

    def force_rebalance(self) -> MergeReport:
        report = rebalance(self.index, self.config.similarity_threshold)
        self._since_rebalance = 0
        for event in report.merges:
            self.parser.store.merge(event)
            # the survivor is (re-)parsed from its first constituent's record
            records = [self.first_log.pop(cid) for cid in event.absorbed_ids
                       if cid in self.first_log]
            if records:
                self.first_log[event.surviving_id] = records[0]
        self.parse_pending()
        return report

    def parse_pending(self) -> int:
        """Parse every cluster that is unparsed or previously failed."""
        parsed = 0
        for centroid in list(self.index.centroids()):
            if centroid.parse_state in (ParseState.UNPARSED, ParseState.FAILED):
                if self._parse(centroid.cluster_id) is not None:
                    parsed += 1
        return parsed
