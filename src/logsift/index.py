"""Weighted centroid store with exact nearest-neighbor search.

One unit vector per cluster. The live vectors are also kept as the rows of
one contiguous matrix, so a query scores every centroid in a single
matrix-vector product and the answer is exact at every index size. Ties on
similarity break toward the lowest cluster id, whatever row a centroid
occupies.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ClusterNotFoundError, SnapshotFormatError

UNIT_TOL = 1e-6
NORM_EPS = 1e-12

SNAPSHOT_VERSION = 1


class ParseState(enum.Enum):
    UNPARSED = "unparsed"
    PARSED = "parsed"
    FAILED = "failed"


@dataclass
class ClusterCentroid:
    cluster_id: int
    vector: np.ndarray
    weight: int = 1
    template_id: Optional[int] = None
    parse_state: ParseState = ParseState.UNPARSED


@dataclass(frozen=True)
class SearchHit:
    cluster_id: int
    similarity: float


def _check_unit(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64)
    if abs(np.linalg.norm(vector) - 1.0) > UNIT_TOL:
        raise ValueError("vector is not unit-norm")
    return vector


class CentroidIndex:
    """Map cluster_id -> ClusterCentroid with exact cosine search."""

    def __init__(self):
        # row r of the matrix is the vector of _live[r]; rows [:len(self)]
        # are live and _rows maps a cluster id to its row
        self._matrix = np.empty((0, 0))
        self._live: list[ClusterCentroid] = []
        self._rows: dict[int, int] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, cluster_id: int) -> bool:
        return cluster_id in self._rows

    def get(self, cluster_id: int) -> ClusterCentroid:
        try:
            return self._live[self._rows[cluster_id]]
        except KeyError:
            raise ClusterNotFoundError(f"cluster {cluster_id} not in index") from None

    def ids(self) -> list[int]:
        return sorted(self._rows)

    def centroids(self) -> Iterator[ClusterCentroid]:
        for cid in self.ids():
            yield self.get(cid)

    def total_weight(self) -> int:
        return sum(c.weight for c in self._live)

    # ---- public operations -----------------------------------------------

    def insert(self, vector: np.ndarray, weight: int = 1,
               template_id: Optional[int] = None,
               parse_state: ParseState = ParseState.UNPARSED) -> int:
        vector = _check_unit(vector)
        cid = self._next_id
        row = len(self._live)
        if row == len(self._matrix):
            grown = np.empty((max(16, 2 * row), len(vector)))
            if row:
                grown[:row] = self._matrix[:row]
            self._matrix = grown
        self._matrix[row] = vector
        self._rows[cid] = row
        self._live.append(ClusterCentroid(
            cluster_id=cid, vector=vector, weight=weight,
            template_id=template_id, parse_state=parse_state,
        ))
        self._next_id += 1
        return cid

    def nearest(self, query: np.ndarray,
                exclude: Optional[int] = None) -> Optional[SearchHit]:
        n = len(self._live)
        if n - (exclude in self._rows) == 0:
            return None
        # einsum rather than BLAS gemv: gemv sums a row in an order that
        # depends on the row's position, so two equal centroids could score
        # an ulp apart and the lowest-id tie-break would follow row order
        sims = np.einsum("ij,j->i", self._matrix[:n],
                         np.asarray(query, dtype=np.float64))
        if exclude in self._rows:
            sims[self._rows[exclude]] = -np.inf
        best = sims.max()
        cid = min(self._live[row].cluster_id for row in np.flatnonzero(sims == best))
        return SearchHit(cid, float(best))

    def update_moving_average(self, cluster_id: int,
                              incoming: np.ndarray) -> ClusterCentroid:
        """Move the centroid toward the incoming vector by 1/(w+1), then
        renormalize. The weight always increments."""
        incoming = _check_unit(incoming)
        centroid = self.get(cluster_id)
        moved = centroid.vector + (incoming - centroid.vector) / (centroid.weight + 1)
        centroid.weight += 1
        norm = np.linalg.norm(moved)
        if norm < NORM_EPS:
            # antipodal cancellation; keep the old direction
            return centroid
        centroid.vector = moved / norm
        self._matrix[self._rows[cluster_id]] = centroid.vector
        return centroid

    def remove(self, cluster_id: int) -> None:
        if cluster_id not in self._rows:
            raise ClusterNotFoundError(f"cluster {cluster_id} not in index")
        row = self._rows.pop(cluster_id)
        last = self._live.pop()
        if row < len(self._live):
            # the last row fills the hole, keeping the live rows contiguous
            self._live[row] = last
            self._matrix[row] = self._matrix[len(self._live)]
            self._rows[last.cluster_id] = row

    # ---- snapshots ---------------------------------------------------------

    def snapshot(self, path: str) -> None:
        doc = {
            "version": SNAPSHOT_VERSION,
            "next_id": self._next_id,
            "centroids": [
                {
                    "id": c.cluster_id,
                    "weight": c.weight,
                    "template_id": c.template_id,
                    "parse_state": c.parse_state.value,
                    "vector": c.vector.tolist(),
                }
                for c in self.centroids()
            ],
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CentroidIndex":
        """Read a snapshot; the HNSW `params` block of older files is ignored."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SnapshotFormatError(f"cannot parse snapshot {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("version") != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"unsupported snapshot version in {path}: {doc.get('version') if isinstance(doc, dict) else doc!r}"
            )
        index = cls()
        try:
            for entry in doc["centroids"]:
                if entry["id"] in index:
                    raise ValueError(f"duplicate cluster id {entry['id']}")
                index._next_id = entry["id"]  # insert gives out the saved id
                index.insert(np.array(entry["vector"], dtype=np.float64),
                             weight=int(entry["weight"]),
                             template_id=entry["template_id"],
                             parse_state=ParseState(entry["parse_state"]))
            index._next_id = doc["next_id"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"malformed snapshot {path}: {exc}") from exc
        return index
