"""Online clustering pipeline: embed, route to a cluster at a cosine similarity threshold,
parse new clusters, and rebalance every N logs.

Two modes. Sequential: each log sees every cluster created before it, and a
new cluster is parsed at creation. Batch: records in one batch are embedded
and searched "in parallel", so a record does not see clusters created by its
batch peers; duplicate clusters for a simultaneously-arriving unseen
pattern are expected and repaired by the next rebalance, after which the
surviving clusters are parsed. Every search of a batch runs against its
start-of-batch state, so the batch is routed by one
`CentroidIndex.nearest_batch` call: one float32 product screens every
record, and each is re-scored exactly, so its hit is the one `nearest`
gives it bit for bit. The records then commit in record order.

Both modes commit a record through one create-or-join step, whose
`ClusterAssignment` is a named tuple: immutable, and cheaper to build than
a frozen dataclass on a path taken once per record. A cluster's one record
is its centroid, created with the record's content as its representative
log; a merge's survivor takes the template id, text and representative of
`kept_from`, or else its first constituent's representative (`merge_pair`).
A row's template is read from that record alone (`row_template`).

Both modes embed through one per-pipeline cache keyed by the exact line
content, which alone fixes the vector: a line repeated while it is among
the EMBED_CACHE_ENTRIES most recently used reuses its vector, read-only.
The records of a call are embedded one at a time, in record order, each
miss by its own `embed_log` call with the pipeline's encoder map, so a
batch fills and evicts the cache as a record-by-record walk does and
commits the vectors sequential mode does, bit for bit. A record that fails
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

from .embedding import RECORD_ERRORS, EmbeddingProvider, EncoderWeights, embed_log
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


def final_rows(assignments: list[ClusterAssignment],
               reports: list[Optional[MergeReport]],
               index: CentroidIndex) -> list[ClusterAssignment]:
    """The rows a run writes: each assignment with the cluster of `index` its
    log ended in after every merge of `reports` (None for no pass), and its template."""
    survivor = {absorbed: event.surviving_id for report in reports if report
                for event in report.merges for absorbed in event.absorbed_ids}
    rows = []
    for assignment in assignments:
        cid = assignment.cluster_id
        while cid in survivor:
            cid = survivor[cid]
        rows.append(assignment._replace(cluster_id=cid,
                                        template=index.get(cid).row_template()))
    return rows


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
        parser.seed(index)
        parser.store.index = index
        self.config = config or IngestConfig()
        self.dead_letters: list[tuple[LogRecord, Exception]] = []
        self._log_counter = 0
        self._since_rebalance = 0
        self._vectors: OrderedDict[str, np.ndarray] = OrderedDict()  # by content

    # ---- internals ---------------------------------------------------------

    def _embed(self, records: list[LogRecord]
               ) -> tuple[list[tuple[LogRecord, np.ndarray]],
                          list[tuple[LogRecord, Exception]]]:
        """Each record with its vector, and each record that failed to embed
        with its error; the failures are also dead-lettered. A cached line
        moves to the end of the cache; a miss is embedded, made read-only in
        place, as the index keeps it as a centroid, and cached, evicting the
        least recently used line. A line that fails is tried once per call."""
        cache, failed = self._vectors, {}  # failed: content -> its error
        embedded, errors = [], []
        for record in records:
            vector = cache.get(record.content)
            if vector is not None:
                cache.move_to_end(record.content)
            elif record.content in failed:
                errors.append((record, failed[record.content]))
                continue
            else:
                try:
                    vector = embed_log(record, self.provider, self.weights)
                except RECORD_ERRORS as exc:
                    failed[record.content] = exc
                    errors.append((record, exc))
                    continue
                vector.setflags(write=False)
                cache[record.content] = vector
                if len(cache) > EMBED_CACHE_ENTRIES:
                    cache.popitem(last=False)
            embedded.append((record, vector))
        if errors:
            self.dead_letters.extend(errors)
        return embedded, errors

    def _commit(self, record: LogRecord, vector: np.ndarray,
                hit: Optional[SearchHit], defer_parse: bool) -> ClusterAssignment:
        """Join `hit` if it is at or above the threshold, else create a
        cluster (parsed now unless `defer_parse`)."""
        joins = hit is not None and hit.similarity >= self.config.similarity_threshold
        if joins:
            cid, similarity = hit.cluster_id, hit.similarity
            template = self.index.update_moving_average(cid, vector).row_template()
        else:
            cid, similarity = self.index.insert(vector, representative=record.content), 1.0
            template = None if defer_parse else self.parser.parse_cluster(self.index, cid)
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

    def ingest_batch(self, records: list[LogRecord]
                     ) -> tuple[list[ClusterAssignment], list[tuple[LogRecord, Exception]]]:
        """Ingest a batch under parallel-arrival semantics: every record is
        searched against the start-of-batch index, in one `nearest_batch`
        call, and then committed in record order, so no record sees a
        cluster its batch peers create. Per-record embedding failures are
        isolated and returned alongside the partial results.
        """
        if not self.config.batch_mode:
            raise ConfigError("ingest_batch requires batch_mode")
        embedded, errors = self._embed(records)
        hits = self.index.nearest_batch(np.stack([v for _, v in embedded])) \
            if embedded else []
        assignments = [self._commit(record, vector, hit, defer_parse=True)
                       for (record, vector), hit in zip(embedded, hits)]
        return assignments, errors

    def maybe_rebalance(self) -> Optional[MergeReport]:
        """Run a rebalance pass when the cadence counter is due."""
        if self._since_rebalance < self.config.rebalance_every_n:
            return None
        return self.force_rebalance()

    def force_rebalance(self) -> MergeReport:
        report = rebalance(self.index, self.config.similarity_threshold)
        self._since_rebalance = 0
        self.parse_pending()
        return report

    def parse_pending(self) -> int:
        """Parse every cluster that is unparsed or previously failed."""
        pending = [c.cluster_id for c in self.index.centroids()
                   if c.parse_state != ParseState.PARSED]
        for cid in pending:
            self.parser.parse_cluster(self.index, cid)
        return len(pending)
