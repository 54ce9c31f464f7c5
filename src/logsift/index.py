"""Weighted centroid store with exact nearest-neighbor search.

One unit vector per cluster. The live vectors are also kept as the rows of
one contiguous matrix, so a query scores every centroid in a single
matrix-vector product and the answer is exact at every index size. Ties on
similarity break toward the lowest cluster id, whatever row a centroid
occupies.

`nearest` scores with `einsum`, which sums each row's products in one order
wherever the row sits. `nearest_batch` scores B queries with one BLAS
matrix product, whose sums may differ from einsum's in the last bits, and
then re-scores with einsum every row within TIE_MARGIN of a query's best,
so its hits and similarities are `nearest`'s exactly. The selection runs
over the whole (B, N) score array: each query's best row, and how many
rows lie within TIE_MARGIN of it. The queries with one such row, nearly
all of them, get their similarity from one row-wise einsum; only those
with several go row by row. Both methods settle ties in one place,
`_hit`, which returns the best row's cluster at once when its score
occurs once.

A snapshot (version 2) is JSON metadata with each vector stored as base64
of its little-endian float64 bytes (`files.encode_floats`, the codec of
weights files too); version 1 files, whose vectors are JSON float lists,
still load, to bit-identical vectors.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ClusterNotFoundError, SnapshotFormatError
from .files import atomic_write, decode_floats, encode_floats

UNIT_TOL = 1e-6
NORM_EPS = 1e-12  # a vector shorter than this has no direction
# BLAS and einsum dot products of unit vectors differ by under 1e-15, so
# every row within this of an approximate best holds the exact best
TIE_MARGIN = 1e-12

SNAPSHOT_VERSION = 2


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
    if not abs(np.linalg.norm(vector) - 1.0) <= UNIT_TOL:  # a NaN norm fails too
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
        return self._hit(sims, np.arange(n))

    def nearest_batch(self, queries: np.ndarray) -> list[Optional[SearchHit]]:
        """`nearest` of each row of `queries` (B, E), all against the index
        as it is now: one matrix product scores every pair, and each row's
        near-best centroids are re-scored exactly, all at once for the rows
        with one such centroid."""
        n = len(self._live)
        if n == 0:
            return [None] * len(queries)
        live = self._matrix[:n]
        scores = queries @ live.T
        top = scores.argmax(axis=1)
        near = scores >= scores.max(axis=1, keepdims=True) - TIE_MARGIN
        sims = np.einsum("ij,ij->i", live[top], queries).tolist()
        hits = [SearchHit(self._live[row].cluster_id, sim)
                for row, sim in zip(top.tolist(), sims)]
        for q in np.flatnonzero(np.count_nonzero(near, axis=1) > 1).tolist():
            rows = np.flatnonzero(near[q])
            hits[q] = self._hit(np.einsum("ij,j->i", live[rows], queries[q]), rows)
        return hits

    def _hit(self, sims: np.ndarray, rows: np.ndarray) -> SearchHit:
        """The best of `sims`, the einsum scores of matrix `rows`; a tie
        goes to the lowest cluster id, whatever rows the tied centroids
        occupy."""
        top = sims.argmax()
        best = sims[top]
        tied = sims == best
        if np.count_nonzero(tied) == 1:
            return SearchHit(self._live[rows[top]].cluster_id, float(best))
        return SearchHit(min(self._live[row].cluster_id for row in rows[tied]),
                         float(best))

    def update_moving_average(self, cluster_id: int,
                              incoming: np.ndarray) -> ClusterCentroid:
        """Move the centroid toward the incoming vector by 1/(w+1), then
        renormalize. The weight always increments."""
        incoming = _check_unit(incoming)
        centroid = self.get(cluster_id)
        # v + (incoming - v) / (w + 1) in place, one new array for three;
        # floating-point addition commutes, so the sum is the same bit for bit
        moved = incoming - centroid.vector
        moved /= centroid.weight + 1
        moved += centroid.vector
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
                    "vector": encode_floats(c.vector),
                }
                for c in self.centroids()
            ],
        }
        with atomic_write(path) as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "CentroidIndex":
        """Read a version 2 snapshot, or a version 1 one (float lists, and
        an HNSW `params` block that is ignored). An id that is not an int,
        a weight that is not a positive int, or a vector that is not finite
        and unit-length is a SnapshotFormatError."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SnapshotFormatError(f"cannot parse snapshot {path}: {exc}") from exc
        version = doc.get("version") if isinstance(doc, dict) else doc
        if version not in (1, 2):
            raise SnapshotFormatError(f"unsupported snapshot version in {path}: {version!r}")
        index = cls()
        try:
            for entry in doc["centroids"]:
                cid, weight = entry["id"], entry["weight"]
                if type(cid) is not int:  # a bool or a float is no id
                    raise ValueError(f"cluster id {cid!r} is not an integer")
                if type(weight) is not int or weight < 1:
                    raise ValueError(f"cluster {cid} has weight {weight!r}, "
                                     "not a positive integer")
                if cid in index:
                    raise ValueError(f"duplicate cluster id {cid}")
                if version == 1:
                    vector = np.array(entry["vector"], dtype=np.float64)
                else:
                    vector = decode_floats(entry["vector"])
                if vector.ndim != 1 or len(index) and vector.shape != index._matrix[0].shape:
                    raise ValueError(f"cluster {cid} has a vector of "
                                     f"shape {vector.shape}, unlike the others")
                index._next_id = cid  # insert gives out the saved id
                index.insert(vector, weight=weight,
                             template_id=entry["template_id"],
                             parse_state=ParseState(entry["parse_state"]))
            next_id = doc["next_id"]
            if type(next_id) is not int or next_id <= max(index.ids(), default=-1):
                raise ValueError(f"next_id {next_id!r} is not an integer above every id")
            index._next_id = next_id
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise SnapshotFormatError(f"malformed snapshot {path}: {exc}") from exc
        return index
