"""Online clustering pipeline: embed, route to a cluster at a cosine similarity threshold,
parse new clusters, and rebalance every N logs.

Two modes. Sequential: each log sees every cluster created before it, and a
new cluster is parsed at creation. Batch: records in one batch are embedded
and searched "in parallel", so a record may not see clusters created by its
batch peers; duplicate clusters for a simultaneously-arriving unseen
pattern are expected and repaired by the next rebalance, after which the
surviving clusters are parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embedding import EmbeddingProvider, EncoderWeights, embed_log
from .errors import ConfigError, LogsiftError, ProviderError
from .index import CentroidIndex, ParseState
from .parsing import ClusterParser
from .rebalance import MergeReport, rebalance
from .records import LogRecord


@dataclass
class IngestConfig:
    similarity_threshold: float = 0.9
    rebalance_every_n: int = 1000
    batch_mode: bool = False

    def __post_init__(self):
        if not 0.0 < self.similarity_threshold < 1.0:
            raise ConfigError("similarity_threshold must be in (0, 1)")
        if self.rebalance_every_n < 1:
            raise ConfigError("rebalance_every_n must be positive")


@dataclass(frozen=True)
class ClusterAssignment:
    log_index: int
    cluster_id: int
    created_new: bool
    similarity: float  # 1.0 recorded for creations by convention
    template: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps({
            "log_index": self.log_index,
            "cluster_id": self.cluster_id,
            "created_new": self.created_new,
            "similarity": self.similarity,
            "template": self.template,
        })


class Pipeline:
    """Owns the index, parser, dead-letter list, and rebalance cadence."""

    def __init__(self, provider: EmbeddingProvider, weights: EncoderWeights,
                 index: CentroidIndex, parser: Optional[ClusterParser] = None,
                 config: Optional[IngestConfig] = None):
        self.provider = provider
        self.weights = weights
        self.index = index
        self.parser = parser
        self.config = config or IngestConfig()
        self.dead_letters: list[tuple[LogRecord, Exception]] = []
        self.first_log: dict[int, LogRecord] = {}  # cluster id -> representative
        self._log_counter = 0
        self._since_rebalance = 0

    # ---- internals ---------------------------------------------------------

    def _parse(self, cluster_id: int) -> Optional[str]:
        if self.parser is None:
            return None
        representative = self.first_log.get(cluster_id)
        if representative is None:
            return None
        return self.parser.parse_cluster(self.index, cluster_id, representative)

    def _create_cluster(self, record: LogRecord, vector: np.ndarray,
                        defer_parse: bool) -> ClusterAssignment:
        cid = self.index.insert(vector)
        self.first_log[cid] = record
        template = None if defer_parse else self._parse(cid)
        return ClusterAssignment(
            log_index=self._log_counter, cluster_id=cid,
            created_new=True, similarity=1.0, template=template,
        )

    # ---- operations ----------------------------------------------------------

    def ingest(self, record: LogRecord) -> ClusterAssignment:
        """Route one log: merge into the nearest cluster at or above the similarity threshold or create
        a new cluster (parsed immediately in sequential mode)."""
        try:
            vector = embed_log(record, self.provider, self.weights)
        except (ProviderError, LogsiftError) as exc:
            self.dead_letters.append((record, exc))
            raise
        hit = self.index.nearest(vector)
        if hit is None or hit.similarity < self.config.similarity_threshold:
            assignment = self._create_cluster(record, vector,
                                              defer_parse=self.config.batch_mode)
        else:
            self.index.update_moving_average(hit.cluster_id, vector)
            template = (self.parser.store.template_for(hit.cluster_id)
                        if self.parser else None)
            assignment = ClusterAssignment(
                log_index=self._log_counter, cluster_id=hit.cluster_id,
                created_new=False, similarity=hit.similarity, template=template,
            )
        self._log_counter += 1
        self._since_rebalance += 1
        return assignment

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
        embedded: list[tuple[int, LogRecord, np.ndarray]] = []
        errors: list[tuple[LogRecord, Exception]] = []
        for pos, record in enumerate(records):
            try:
                embedded.append((pos, record,
                                 embed_log(record, self.provider, self.weights)))
            except (ProviderError, LogsiftError) as exc:
                self.dead_letters.append((record, exc))
                errors.append((record, exc))

        # schedule: interleave (search_i, commit_i) events
        events: list[tuple[int, int]] = []  # (kind 0=search 1=commit, slot)
        if rng is None:
            events = [(0, i) for i in range(len(embedded))]
            events += [(1, i) for i in range(len(embedded))]
        else:
            pending = [[(0, i), (1, i)] for i in range(len(embedded))]
            live = list(range(len(embedded)))
            while live:
                pick = live[int(rng.integers(len(live)))]
                events.append(pending[pick].pop(0))
                if not pending[pick]:
                    live.remove(pick)

        decisions: dict[int, Optional[object]] = {}
        assignments: dict[int, ClusterAssignment] = {}
        for kind, slot in events:
            pos, record, vector = embedded[slot]
            if kind == 0:
                decisions[slot] = self.index.nearest(vector)
            else:
                hit = decisions[slot]
                if (hit is None
                        or hit.similarity < self.config.similarity_threshold
                        or hit.cluster_id not in self.index):
                    assignments[slot] = self._create_cluster(record, vector,
                                                             defer_parse=True)
                else:
                    self.index.update_moving_average(hit.cluster_id, vector)
                    assignments[slot] = ClusterAssignment(
                        log_index=self._log_counter, cluster_id=hit.cluster_id,
                        created_new=False, similarity=hit.similarity,
                        template=(self.parser.store.template_for(hit.cluster_id)
                                  if self.parser else None),
                    )
                self._log_counter += 1
                self._since_rebalance += 1
        return [assignments[s] for s in sorted(assignments)], errors

    def maybe_rebalance(self) -> Optional[MergeReport]:
        """Run a rebalance pass when the cadence counter is due."""
        if self._since_rebalance < self.config.rebalance_every_n:
            return None
        return self.force_rebalance()

    def force_rebalance(self) -> MergeReport:
        weights = {c.cluster_id: c.weight for c in self.index.centroids()}
        report = rebalance(self.index, self.config.similarity_threshold)
        self._since_rebalance = 0
        for event in report.merges:
            a, b = event.absorbed_ids
            weights[event.surviving_id] = weights[a] + weights[b]
            if self.parser is not None:
                # merge_pair's rule: the heavier side, the older on a tie
                winner = a if (weights[a], -a) >= (weights[b], -b) else b
                self.parser.store.merge(event.absorbed_ids, winner,
                                        event.surviving_id)
            # merged clusters need a representative log for (re-)parsing
            if event.surviving_id not in self.first_log:
                for absorbed in event.absorbed_ids:
                    if absorbed in self.first_log:
                        self.first_log[event.surviving_id] = self.first_log[absorbed]
                        break
        self.parse_pending()
        return report

    def parse_pending(self) -> int:
        """Parse every cluster that is unparsed or previously failed."""
        if self.parser is None:
            return 0
        parsed = 0
        for centroid in list(self.index.centroids()):
            if centroid.parse_state in (ParseState.UNPARSED, ParseState.FAILED):
                if self._parse(centroid.cluster_id) is not None:
                    parsed += 1
        return parsed
