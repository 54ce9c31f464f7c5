"""Weighted centroid store with exact nearest-neighbor search.

One unit vector per cluster, held once as its `ClusterCentroid.vector`
(float64), a read-only view that only the index replaces. Ties on
similarity break toward the lowest cluster id, whatever row a centroid
occupies.

Search screens, then re-scores. The live vectors, rounded to float32, are
the rows of one contiguous matrix, the screen: `nearest` scores every row
with one float32 matrix-vector product, `nearest_batch` scores B queries
with one matrix product. A screened score is within a proven δ of the
exact one, so every row within 2δ + TIE_MARGIN of a query's screened best
is kept (`_screen_margin`: 6.1e-5 at E = 512), and among them lies the
row `einsum` scores best. The kept rows are re-scored from their
centroids' own vectors with `einsum`, which sums each row's products in
one order wherever the row sits, so hits and similarities are those of a
full `einsum` scan, bit for bit. Nearly always one row is kept and
re-scored alone: `nearest` masks its screened best and reads the next
`argmax`, and only when that score too reaches the cut does it mark every
kept row and hand them to `_settle`, which breaks the tie. Hits are named
tuples, cheaper to build than frozen dataclasses.

For rebalancing, `_to_examine` screens every pair of rows once, a block
at a time, for the clusters whose lookup in a pass can find a partner
(see `logsift.rebalance`). The index keeps nothing about past passes.

A snapshot (version 2) is JSON metadata with each vector stored as base64
of its little-endian float64 bytes (`files.encode_floats`); version 1
files, whose vectors are JSON float lists, still load, to bit-identical
vectors.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import ClusterNotFoundError, SnapshotFormatError
from .files import atomic_write, decode_floats, encode_floats

UNIT_TOL = 1e-6
NORM_EPS = 1e-12  # a vector shorter than this has no direction
# slack on the screen's proven margin (`_screen_margin`) for what its
# relative bound leaves out: float32 rounds an entry below 2⁻¹²⁶ with an
# absolute error of up to 2⁻¹⁵⁰
TIE_MARGIN = 1e-12
# screen scores a rebalance pass holds at once (float32: 256 KB)
_SCREEN_BLOCK = 1 << 16

SNAPSHOT_VERSION = 2


class ParseState(enum.Enum):
    UNPARSED = "unparsed"
    PARSED = "parsed"
    FAILED = "failed"


@dataclass
class ClusterCentroid:
    """One cluster. Its `vector` is a read-only view that only the index
    replaces (`CentroidIndex.update_moving_average`), so the screen follows
    every move."""

    cluster_id: int
    _vector: np.ndarray
    weight: int = 1
    template_id: Optional[int] = None
    parse_state: ParseState = ParseState.UNPARSED

    @property
    def vector(self) -> np.ndarray:
        return self._vector


class SearchHit(NamedTuple):
    cluster_id: int
    similarity: float


def _check_unit(vectors: np.ndarray) -> np.ndarray:
    """`vectors` as float64, each row (or the one vector) of unit length."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:  # np.linalg.norm's sum, without its overhead
        unit = abs(math.sqrt(vectors.dot(vectors)) - 1.0) <= UNIT_TOL
    else:
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        unit = np.all(np.abs(norms - 1.0) <= UNIT_TOL)
    if not unit:  # a NaN norm fails too
        raise ValueError("vector is not unit-norm")
    return vectors


def _screen_margin(dim: int) -> np.float64:
    """How far below a query's screened best the row einsum scores best
    can screen, at E = `dim`. With u = 2⁻²⁴ and S = Σ|q_i·c_i| ≤ ‖q‖·‖c‖ ≤
    (1 + UNIT_TOL)², rounding the query and a centroid to float32 moves
    their dot product by at most (2u + u²)·S, and a float32 dot product of
    E terms errs by at most E·u·S in any summation order (Jeannerod & Rump,
    2013). einsum's float64 score errs by at most E·2⁻⁵³·S. For E up to
    eight million both errors, second-order terms included, fit in
    δ = (E + 3)·u·(1 + UNIT_TOL)², so the best row screens at most 2δ
    below the screened best. A float64 scalar, so the cut below a screened
    best is computed and compared in float64."""
    delta = (dim + 3) * 2.0 ** -24 * (1.0 + UNIT_TOL) ** 2
    return np.float64(2.0 * delta + TIE_MARGIN)


class CentroidIndex:
    """Map cluster_id -> ClusterCentroid with exact cosine search."""

    def __init__(self):
        # row r of the screen is _live[r].vector rounded to float32; rows
        # [:len(self)] are live and _rows maps a cluster id to its row
        self._screen = np.empty((0, 0), dtype=np.float32)
        self._margin = _screen_margin(0)  # of the screen's width
        self._live: list[ClusterCentroid] = []
        self._rows: dict[int, int] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, cluster_id: int) -> bool:
        return cluster_id in self._rows

    def get(self, cluster_id: int) -> ClusterCentroid:
        return self._live[self._row(cluster_id)]

    def _row(self, cluster_id: int) -> int:
        try:
            return self._rows[cluster_id]
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
        if row == len(self._screen):
            grown = np.empty((max(16, 2 * row), len(vector)), dtype=np.float32)
            if row:
                grown[:row] = self._screen[:row]
            self._screen = grown
            self._margin = _screen_margin(len(vector))
        self._screen[row] = vector
        self._rows[cid] = row
        vector = vector.view()  # read-only, and the caller's array stays as it was
        vector.flags.writeable = False
        self._live.append(ClusterCentroid(cid, vector, weight=weight,
                                          template_id=template_id,
                                          parse_state=parse_state))
        self._next_id += 1
        return cid

    def nearest(self, query: np.ndarray,
                exclude: Optional[int] = None) -> Optional[SearchHit]:
        """The centroid most similar to the unit vector `query`, other than
        `exclude`; None if there is none."""
        query = _check_unit(query)
        n = len(self._live)
        excluded = self._rows.get(exclude)
        if n - (excluded is not None) == 0:
            return None
        scores = self._screen[:n].dot(query.astype(np.float32))
        if excluded is not None:
            scores[excluded] = -np.inf
        top = int(scores.argmax())
        best = scores[top]
        cut = best - self._margin  # float64, as is each comparison with it
        scores[top] = -np.inf
        if scores[scores.argmax()] < cut:  # the screened best is the one kept row
            centroid = self._live[top]
            return SearchHit(centroid.cluster_id,
                             float(np.einsum("j,j->", centroid.vector, query)))
        scores[top] = best
        return self._settle(query, scores >= cut)

    def nearest_batch(self, queries: np.ndarray) -> list[Optional[SearchHit]]:
        """`nearest` of each row of `queries` (B, E), all against the index
        as it is now: one matrix product screens every pair, and the rows
        with one kept centroid, nearly all of them, are re-scored at once."""
        queries = _check_unit(queries)
        n = len(self._live)
        if n == 0 or len(queries) == 0:
            return [None] * len(queries)
        scores = queries.astype(np.float32) @ self._screen[:n].T
        top = scores.argmax(axis=1)
        kept = scores >= scores.max(axis=1, keepdims=True) - self._margin
        rows = top.tolist()
        best = np.array([self._live[row].vector for row in rows])
        sims = np.einsum("ij,ij->i", best, queries).tolist()
        hits = [SearchHit(self._live[row].cluster_id, sim) for row, sim in zip(rows, sims)]
        for q in np.flatnonzero(np.count_nonzero(kept, axis=1) > 1).tolist():
            hits[q] = self._settle(queries[q], kept[q])
        return hits

    def _settle(self, query: np.ndarray, kept: np.ndarray) -> SearchHit:
        """The exact hit of `query` among the two or more `kept` rows of its
        screen: their einsum scores from the centroids' own vectors, a tie
        going to the lowest cluster id, whatever rows the tied centroids
        occupy. A lone kept row never gets here: `nearest` and
        `nearest_batch` re-score it themselves."""
        rows = np.flatnonzero(kept)
        sims = np.einsum("ij,j->i", np.array([self._live[row].vector
                                              for row in rows.tolist()]), query)
        best = sims.max()
        return SearchHit(min(self._live[row].cluster_id for row in rows[sims == best]),
                         float(best))

    def update_moving_average(self, cluster_id: int,
                              incoming: np.ndarray) -> ClusterCentroid:
        """Move the centroid toward the incoming vector by 1/(w+1), then
        renormalize. The weight always increments."""
        incoming = _check_unit(incoming)
        row = self._row(cluster_id)
        centroid = self._live[row]
        # v + (incoming - v) / (w + 1) in place, one new array for three;
        # floating-point addition commutes, so the sum is the same bit for bit
        moved = incoming - centroid.vector
        moved /= centroid.weight + 1
        moved += centroid.vector
        centroid.weight += 1
        norm = math.sqrt(moved.dot(moved))  # np.linalg.norm's value
        if norm < NORM_EPS:
            # antipodal cancellation; keep the old direction
            return centroid
        moved /= norm
        moved.flags.writeable = False
        centroid._vector = moved
        self._screen[row] = moved
        return centroid

    def remove(self, cluster_id: int) -> None:
        if cluster_id not in self._rows:
            raise ClusterNotFoundError(f"cluster {cluster_id} not in index")
        row = self._rows.pop(cluster_id)
        last = self._live.pop()
        if row < len(self._live):
            # the last row fills the hole, keeping the live rows contiguous
            self._live[row] = last
            self._screen[row] = self._screen[len(self._live)]
            self._rows[last.cluster_id] = row

    # ---- rebalance screen --------------------------------------------------

    def _to_examine(self, threshold: float) -> set[int]:
        """The ids whose lookup in a rebalance pass at `threshold` can find
        a partner at or above it: those whose best screened partner lies
        within `_margin` of the threshold, as an exact score at the
        threshold would. Each block of rows is screened against the rows
        from its own first row on, itself masked, so every pair is scored
        once and at most _SCREEN_BLOCK scores are held."""
        n = len(self._live)
        screen = self._screen[:n]
        best = np.full(n, -np.inf, dtype=np.float32)
        start = 0
        while start < n:
            stop = start + max(1, _SCREEN_BLOCK // (n - start))
            scores = screen[start:stop] @ screen[start:].T
            np.fill_diagonal(scores, -np.inf)  # row start + i is column i
            np.maximum(best[start:stop], scores.max(axis=1), out=best[start:stop])
            np.maximum(best[start:], scores.max(axis=0), out=best[start:])
            start = stop
        near = np.flatnonzero(best >= threshold - self._margin).tolist()
        return {self._live[row].cluster_id for row in near}

    # ---- snapshots ---------------------------------------------------------

    def snapshot(self, path: str) -> None:
        """Write the text `json.dumps` gives the snapshot document, one
        centroid at a time. `json.dump` would run the pure-Python encoder
        over every vector; here `json.dumps` encodes each centroid's
        metadata and its base64 vector goes between quotes as it is, since
        base64 needs no JSON escaping."""
        with atomic_write(path) as fh:
            head = json.dumps({"version": SNAPSHOT_VERSION, "next_id": self._next_id})
            fh.write(head[:-1] + ', "centroids": [')
            for i, c in enumerate(self.centroids()):
                meta = json.dumps({"id": c.cluster_id, "weight": c.weight,
                                   "template_id": c.template_id,
                                   "parse_state": c.parse_state.value})
                fh.write(f'{", " if i else ""}{meta[:-1]}, '
                         f'"vector": "{encode_floats(c.vector)}"}}')
            fh.write("]}")

    @classmethod
    def load(cls, path: str) -> "CentroidIndex":
        """Read a version 2 snapshot, or a version 1 one (float lists, and
        an HNSW `params` block that is ignored). An id that is not an int,
        a weight that is not a positive int, a template id that is neither
        an int nor null, a parsed cluster with no template id, or a vector
        that is not finite and unit-length is a SnapshotFormatError."""
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
                template_id = entry["template_id"]
                state = ParseState(entry["parse_state"])
                if template_id is not None and type(template_id) is not int:
                    raise ValueError(f"cluster {cid} has template_id {template_id!r}, "
                                     "not an integer or null")
                if state == ParseState.PARSED and template_id is None:
                    raise ValueError(f"cluster {cid} is parsed with no template id")
                if version == 1:
                    vector = np.array(entry["vector"], dtype=np.float64)
                else:
                    vector = decode_floats(entry["vector"])
                if vector.ndim != 1 or len(index) and vector.shape != index._live[0].vector.shape:
                    raise ValueError(f"cluster {cid} has a vector of "
                                     f"shape {vector.shape}, unlike the others")
                index._next_id = cid  # insert gives out the saved id
                index.insert(vector, weight=weight, template_id=template_id,
                             parse_state=state)
            next_id = doc["next_id"]
            if type(next_id) is not int or next_id <= max(index.ids(), default=-1):
                raise ValueError(f"next_id {next_id!r} is not an integer above every id")
            index._next_id = next_id
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise SnapshotFormatError(f"malformed snapshot {path}: {exc}") from exc
        return index
