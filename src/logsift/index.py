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

A snapshot is one uncompressed `.npz` of named arrays (`_SNAPSHOT`), one
entry per centroid in id order, with each vector's float64 bytes as they
are and each text a slice of one UTF-8 blob, so a cluster's whole record
survives; `load` checks the whole file with array tests and builds the
screen with one cast.
"""

from __future__ import annotations

import enum
import json
import math
import zipfile
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import ClusterNotFoundError, SnapshotFormatError
from .files import atomic_write

UNIT_TOL = 1e-6
NORM_EPS = 1e-12  # a vector shorter than this has no direction
# slack on the screen's proven margin (`_screen_margin`) for what its
# relative bound leaves out: float32 rounds an entry below 2⁻¹²⁶ with an
# absolute error of up to 2⁻¹⁵⁰
TIE_MARGIN = 1e-12
# screen scores a rebalance pass holds at once (float32: 256 KB)
_SCREEN_BLOCK = 1 << 16


class ParseState(enum.Enum):
    UNPARSED = "unparsed"
    PARSED = "parsed"
    FAILED = "failed"


# a ParseState's code in a snapshot is its place here
_STATES = (ParseState.UNPARSED, ParseState.PARSED, ParseState.FAILED)
ZIP_MAGIC = b"PK\x03\x04"  # the first four bytes of every .npz file
# name -> (dtype, number of dimensions) of each array of a snapshot
_SNAPSHOT = {"ids": ("<i8", 1), "weights": ("<i8", 1), "template_ids": ("<i8", 1),
             "states": ("|i1", 1), "vectors": ("<f8", 2), "next_id": ("<i8", 0),
             "templates": ("|u1", 1), "template_offsets": ("<i8", 1),
             "representatives": ("|u1", 1), "representative_offsets": ("<i8", 1)}
# the blob of a text column, named for its centroid field, -> its offsets:
# text i is blob[offsets[i]:offsets[i + 1]], and an empty one is None
_TEXTS = {"templates": "template_offsets", "representatives": "representative_offsets"}
# the error handler of a text's UTF-8 bytes, which takes a lone surrogate
# (a byte that is not UTF-8, read with "surrogateescape") there and back
TEXT_ERRORS = "surrogatepass"


@dataclass
class ClusterCentroid:
    """One cluster, and its one record. Its `vector` is a read-only view
    that only the index replaces (`CentroidIndex.update_moving_average`), so
    the screen follows every move. `representative` is the content of the
    log its template was, or will be, parsed from, and `template` the text
    of a PARSED cluster, whose id clusters with the same text share."""

    cluster_id: int
    _vector: np.ndarray
    weight: int = 1
    template_id: Optional[int] = None
    parse_state: ParseState = ParseState.UNPARSED
    representative: Optional[str] = None
    template: Optional[str] = None

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    def row_template(self) -> Optional[str]:
        """The template its rows report: a PARSED cluster's text, a FAILED
        one's representative (its raw-log fallback), None before a parse."""
        if self.parse_state is ParseState.PARSED:
            return self.template
        return self.representative if self.parse_state is ParseState.FAILED else None


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
               parse_state: ParseState = ParseState.UNPARSED,
               representative: Optional[str] = None,
               template: Optional[str] = None) -> int:
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
        self._live.append(ClusterCentroid(cid, vector, weight, template_id,
                                          parse_state, representative, template))
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
        """Write the index to `path`, under exactly that name, as one
        uncompressed `.npz` file: the arrays of `_SNAPSHOT`, one entry per
        centroid in id order."""
        centroids = list(self.centroids())
        fields = {
            "ids": [c.cluster_id for c in centroids],
            "weights": [c.weight for c in centroids],
            "template_ids": [-1 if c.template_id is None else c.template_id
                             for c in centroids],
            "states": [_STATES.index(c.parse_state) for c in centroids],
            # (0, E) when empty, so a loaded index keeps the screen's width
            "vectors": np.array([c.vector for c in centroids]).reshape(
                len(centroids), self._screen.shape[1]),
            "next_id": self._next_id,
        }
        for blob, offsets in _TEXTS.items():
            encoded = [(getattr(c, blob[:-1]) or "").encode("utf-8", TEXT_ERRORS)
                       for c in centroids]
            fields[blob] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
            fields[offsets] = np.cumsum([0, *map(len, encoded)])
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **{name: np.asarray(fields[name], dtype=dtype)
                            for name, (dtype, _) in _SNAPSHOT.items()})

    @classmethod
    def load(cls, path: str) -> "CentroidIndex":
        """Read a snapshot `snapshot` wrote, told apart by its first four
        bytes whatever the file is named. A file that is not a `.npz`
        holding the arrays of `_SNAPSHOT`, each of its exact dtype and
        number of dimensions, is a SnapshotFormatError (the six arrays of
        earlier versions, too); so is per-centroid arrays of two lengths, a
        duplicate id, a weight below 1, a template id below -1, an unknown
        state, a parsed cluster with no template id or text, a text on one
        that is not parsed, one template id with two texts, bad text offsets
        or bytes, a vector that is not finite and unit-length, or a
        `next_id` not above every id. Nothing is unpickled."""
        try:
            with open(path, "rb") as fh:
                if fh.read(len(ZIP_MAGIC)) != ZIP_MAGIC:
                    raise ValueError("not a .npz file (a JSON snapshot of an earlier "
                                     "logsift is rebuilt as the README says)")
                fh.seek(0)
                with np.load(fh, allow_pickle=False) as npz:
                    if set(npz.files) == set(_SNAPSHOT).difference(_TEXTS, _TEXTS.values()):
                        raise ValueError("it holds no template texts or representatives, as "
                                         "earlier versions wrote; rebuild it with `logsift "
                                         "ingest`")
                    arrays = {name: npz[name] for name in _SNAPSHOT}
            for name, (dtype, ndim) in _SNAPSHOT.items():
                array = arrays[name]
                if not isinstance(array, np.ndarray):  # a member that is no .npy
                    raise ValueError(f"{name} is not a .npy array")
                if (array.dtype.str, array.ndim) != (dtype, ndim):
                    raise ValueError(f"{name} is a {array.dtype.str} array of shape "
                                     f"{array.shape}, not a {ndim}-d {dtype} one")
            lengths = {name: len(arrays[name])
                       for name in ("ids", "weights", "template_ids", "states", "vectors")}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"arrays disagree in length: {lengths}")
            ids, weights, template_ids, states, vectors, next_id, *_ = arrays.values()
            unique, counts = np.unique(ids, return_counts=True)
            if len(unique) < len(ids):
                raise ValueError(f"duplicate cluster id {unique[counts > 1][0]}")
            ids = ids.tolist()  # Python ints, which json.dumps takes
            templates, representatives = (_unpack(arrays, blob, len(ids)) for blob in _TEXTS)
            parsed = states == _STATES.index(ParseState.PARSED)
            texts = np.array([text is not None for text in templates], dtype=bool)
            for bad, what in ((weights < 1, "a weight below 1"),
                              (template_ids < -1, "a template id below -1"),
                              ((states < 0) | (states >= len(_STATES)), "an unknown state"),
                              (parsed & (template_ids == -1), "a parsed state and no template id"),
                              (parsed & ~texts, "a parsed state and no template text"),
                              (~parsed & texts, "a template text and no parsed state")):
                if bad.any():
                    raise ValueError(f"cluster {ids[bad.argmax()]} has {what}")
            text_of = {}
            for tid, text in zip(template_ids.tolist(), templates):
                if text is not None and text_of.setdefault(tid, text) != text:
                    raise ValueError(f"template id {tid} has two texts")
            _check_unit(vectors)
            if next_id <= max(ids, default=-1):
                raise ValueError(f"next_id {next_id} is not above every id")
        # a MemoryError: a header that claims more entries than can be allocated
        except (zipfile.BadZipFile, EOFError, ValueError, KeyError, TypeError,
                MemoryError) as exc:
            raise SnapshotFormatError(f"malformed snapshot {path}: {exc}") from exc
        index = cls()
        # each vector is a read-only row of one C-ordered block, whose sums
        # einsum takes in the order it takes any row's
        vectors = np.ascontiguousarray(vectors)
        vectors.flags.writeable = False
        index._screen = vectors.astype(np.float32)
        index._margin = _screen_margin(vectors.shape[1])
        index._live = [ClusterCentroid(cid, vector, weight, None if tid == -1 else tid,
                                       _STATES[state], representative, template)
                       for cid, vector, weight, tid, state, representative, template in zip(
                           ids, vectors, weights.tolist(), template_ids.tolist(),
                           states.tolist(), representatives, templates)]
        index._rows = {cid: row for row, cid in enumerate(ids)}
        index._next_id = next_id.tolist()
        return index

    def save_templates(self, path: str) -> None:
        """Write the templates view of the index to `path` as one JSON
        object: for each cluster whose rows report a template
        (`ClusterCentroid.row_template`), keyed by id in ascending order,
        that template, its template id, parse state and representative
        (`source_log`)."""
        entries = {c.cluster_id: {"template": c.row_template(), "template_id": c.template_id,
                                  "parse_state": c.parse_state.value,
                                  "source_log": c.representative}
                   for c in self.centroids() if c.row_template() is not None}
        with atomic_write(path) as fh:
            json.dump(entries, fh, indent=2)


def _unpack(arrays: dict[str, np.ndarray], blob: str, n: int) -> list[Optional[str]]:
    """The n texts of the column `blob` of a snapshot's `arrays`; ValueError
    unless its n + 1 offsets run from 0 up to its end and each text decodes."""
    offsets = arrays[_TEXTS[blob]]
    if (len(offsets) != n + 1 or offsets[0] != 0 or (np.diff(offsets) < 0).any()
            or offsets[-1] != len(arrays[blob])):
        raise ValueError(f"{_TEXTS[blob]} are not {n + 1} offsets from 0 up to the "
                         f"{len(arrays[blob])} bytes of {blob}")
    data, bounds = arrays[blob].tobytes(), offsets.tolist()
    return [data[start:stop].decode("utf-8", TEXT_ERRORS) or None
            for start, stop in zip(bounds, bounds[1:])]
