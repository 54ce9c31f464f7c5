"""Periodic cluster merging to repair drift and parallel-ingest duplicates.

A pass walks a snapshot of cluster ids in ascending order. For each cluster
the closest *other* centroid is looked up; if the two are at least as
similar as the clustering threshold they are merged into a fresh cluster
whose vector is the weight-proportional average, and the merged cluster is
re-examined at the same position so chains of merges collapse in one pass.
Each merge strictly decreases the cluster count, so the pass terminates.

A completed pass leaves no pair at or above its threshold. The next pass,
at a threshold as high, looks up only the clusters that can have changed
that: those inserted or moved since, and the unchanged ones that one of
them screens near (`CentroidIndex._to_examine`). Every other lookup would
find no partner and leave the walk as it is, so the merges are those of
the full walk. A pass at a lower threshold, or on an index that has not
completed one (fresh or loaded from a snapshot), looks up every cluster.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .errors import ConfigError
from .index import NORM_EPS, CentroidIndex, ClusterCentroid, ParseState


@dataclass(frozen=True)
class MergeEvent:
    absorbed_ids: tuple[int, int]
    surviving_id: int
    similarity: float
    kept_from: Optional[int]  # absorbed id whose template survives, if any


@dataclass
class MergeReport:
    clusters_before: int
    clusters_after: int
    merges: list[MergeEvent] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def check_threshold(threshold: float) -> None:
    """The rule for a clustering threshold, which `IngestConfig` and every
    rebalance pass apply: it lies in (0, 1), else ConfigError."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError("similarity_threshold must be in (0, 1)")


def _winner(a: ClusterCentroid, b: ClusterCentroid) -> Optional[ClusterCentroid]:
    """The constituent whose template a merge of `a` and `b` keeps: the
    heavier, the older id on a tie; None unless both sides are parsed."""
    if a.parse_state != ParseState.PARSED or b.parse_state != ParseState.PARSED:
        return None
    return a if (a.weight, -a.cluster_id) >= (b.weight, -b.cluster_id) else b


def merge_pair(index: CentroidIndex, id_a: int, id_b: int) -> int:
    """Replace two clusters by their weight-proportional average.

    The merged cluster keeps `_winner`'s template id and stays parsed; with
    no winner it is unparsed again so the parser revisits it.
    """
    if id_a == id_b:
        raise ValueError("cannot merge a cluster with itself")
    a = index.get(id_a)
    b = index.get(id_b)
    merged = (a.weight * a.vector + b.weight * b.vector) / (a.weight + b.weight)
    norm = math.sqrt(merged.dot(merged))  # np.linalg.norm's value
    if norm < NORM_EPS:
        raise ValueError("merged centroid is degenerate (antipodal constituents)")
    winner = _winner(a, b)
    if winner is not None:
        state, template_id = ParseState.PARSED, winner.template_id
    else:
        state, template_id = ParseState.UNPARSED, None
    weight = a.weight + b.weight
    index.remove(id_a)
    index.remove(id_b)
    return index.insert(merged / norm, weight=weight,
                        template_id=template_id, parse_state=state)


def rebalance(index: CentroidIndex, threshold: float) -> MergeReport:
    """One merging pass at the given cosine threshold."""
    check_threshold(threshold)
    before = len(index)
    report = MergeReport(clusters_before=before, clusters_after=before)
    examine = index._to_examine(threshold)
    for cid in index.ids():
        if cid not in index or examine is not None and cid not in examine:
            continue
        while True:
            hit = index.nearest(index.get(cid).vector, exclude=cid)
            if hit is None or hit.similarity < threshold:
                break
            winner = _winner(index.get(cid), index.get(hit.cluster_id))
            survivor = merge_pair(index, cid, hit.cluster_id)
            report.merges.append(MergeEvent(
                absorbed_ids=(cid, hit.cluster_id),
                surviving_id=survivor,
                similarity=hit.similarity,
                kept_from=None if winner is None else winner.cluster_id,
            ))
            cid = survivor  # re-examined at the same position
    index._pass_completed(threshold)
    report.clusters_after = len(index)
    return report
