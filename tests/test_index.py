import base64
import json
import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from logsift import CentroidIndex, ParseState, rebalance
from logsift.errors import ClusterNotFoundError, SnapshotFormatError
from logsift.index import _screen_margin

from conftest import npy_bytes, random_unit, rewrite
from oracles import oracle_moving_average, oracle_nearest, oracle_scan_nearest


def unit(*values):
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestInsert:
    def test_first_insert(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        assert cid == 0
        assert len(index) == 1
        assert index.get(cid).weight == 1
        assert index.get(cid).parse_state == ParseState.UNPARSED

    def test_distinct_ids(self):
        index = CentroidIndex()
        assert index.insert(unit(1, 0)) != index.insert(unit(0, 1))

    def test_self_retrieval(self):
        index = CentroidIndex()
        v = unit(0.3, -0.8, 0.1)
        cid = index.insert(v)
        hit = index.nearest(v)
        assert hit.cluster_id == cid
        assert hit.similarity == pytest.approx(1.0, abs=1e-6)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            CentroidIndex().insert(np.array([1.0, 1.0]))

    def test_nan_rejected(self):
        index = CentroidIndex()
        with pytest.raises(ValueError):
            index.insert(np.array([np.nan, 0.0]))
        assert len(index) == 0


class TestNearest:
    def test_empty_index(self):
        assert CentroidIndex().nearest(unit(1, 0)) is None

    def test_two_vector_arithmetic(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0))
        index.insert(unit(0, 1))
        hit = index.nearest(unit(0.9, 0.1))
        assert hit.cluster_id == a
        assert hit.similarity == pytest.approx(0.9 / np.hypot(0.9, 0.1))

    def test_exclusion(self):
        index = CentroidIndex()
        v = unit(1, 0, 0)
        cid = index.insert(v)
        other = index.insert(unit(0, 1, 0))
        hit = index.nearest(v, exclude=cid)
        assert hit.cluster_id == other
        assert hit.similarity == pytest.approx(0.0, abs=1e-9)

    def test_exclusion_of_sole_member(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        assert index.nearest(unit(1, 0), exclude=cid) is None

    def test_tie_breaks_to_lowest_id(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0, 0))
        index.insert(unit(1, 0, 0))
        hit = index.nearest(unit(0, 0, 1))  # equally dissimilar to both
        assert hit.cluster_id == a

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dim = int(rng.integers(2, 10))
            index = CentroidIndex()
            stored = {}
            for _ in range(int(rng.integers(1, 50))):
                v = random_unit(rng, dim)
                stored[index.insert(v)] = v
            for _ in range(10):
                q = random_unit(rng, dim)
                want_id, want_sim = oracle_nearest(stored, q)
                hit = index.nearest(q)
                assert hit.cluster_id == want_id
                assert hit.similarity == pytest.approx(want_sim)

    def test_matches_oracle_above_64_entries(self):
        rng = np.random.default_rng(5)
        index = CentroidIndex()
        stored = {}
        for _ in range(200):
            v = random_unit(rng, 8)
            stored[index.insert(v)] = v
        for _ in range(50):
            q = random_unit(rng, 8)
            want_id, want_sim = oracle_nearest(stored, q)
            hit = index.nearest(q)
            assert hit.cluster_id == want_id
            assert hit.similarity == pytest.approx(want_sim, abs=1e-12)

    def test_tie_breaks_to_lowest_id_after_removal_moves_rows(self):
        index = CentroidIndex()
        first = index.insert(unit(0, 1, 0))
        low = index.insert(unit(1, 0, 0))
        index.insert(unit(0, 0, 1))
        high = index.insert(unit(1, 0, 0))
        index.remove(first)  # the last row, `high`, now sits before `low`
        assert index.nearest(unit(1, 0, 0)).cluster_id == low
        assert index.nearest(unit(1, 0, 0), exclude=low).cluster_id == high


def screened(index, query):
    """The float32 screen scores `nearest` reads for `query`."""
    return index._screen[:len(index)].dot(query.astype(np.float32))


@pytest.fixture
def settles(monkeypatch):
    """The queries `nearest` hands to `_settle`, recorded as it is called."""
    calls = []
    settle = CentroidIndex._settle

    def recorded(self, query, kept):
        calls.append(query)
        return settle(self, query, kept)

    monkeypatch.setattr(CentroidIndex, "_settle", recorded)
    return calls


class TestKeptRowBoundary:
    """`nearest` settles a query among several rows exactly when a second
    screened score reaches the screened best minus the margin, and
    re-scores the screened best alone otherwise. The margin is set by hand
    here, so a screened score can sit exactly at the cut or one float32 ulp
    below it."""

    @staticmethod
    def pair(flipped):
        """Two centroids and a query that screen a above b; with `flipped`,
        b scores above a exactly."""
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = random_unit(rng, 64)
            b = unit(*(a + 1e-7 * rng.normal(size=64)))
            query = unit(*(a + 0.1 * rng.normal(size=64)))
            index = CentroidIndex()
            stored = {index.insert(a): a, index.insert(b): b}
            f_a, f_b = screened(index, query)
            exact = np.einsum("ij,j->i", np.stack([a, b]), query)
            if f_a > f_b and (exact[1] > exact[0]) == flipped:
                return index, stored, query, f_a, f_b
        raise AssertionError("no such pair among the draws")

    def test_a_second_score_exactly_at_the_cut_is_settled(self, settles):
        index, stored, query, f_a, f_b = self.pair(flipped=True)
        index._margin = np.float64(f_a) - np.float64(f_b)
        assert np.float64(f_a) - index._margin == f_b
        hit = index.nearest(query)
        assert hit == oracle_scan_nearest(stored, query) == (1, hit.similarity)
        assert len(settles) == 1

    def test_a_second_score_one_ulp_below_the_cut_is_not(self, settles):
        index, stored, query, f_a, f_b = self.pair(flipped=False)
        cut = np.nextafter(f_b, np.float32(np.inf))
        index._margin = np.float64(f_a) - np.float64(cut)
        assert np.float64(f_a) - index._margin == cut
        hit = index.nearest(query)
        assert settles == []
        assert hit == oracle_scan_nearest(stored, query)

    def test_one_live_row(self, settles):
        rng = np.random.default_rng(4)
        v, query = random_unit(rng, 8), random_unit(rng, 8)
        index = CentroidIndex()
        stored = {index.insert(v): v}
        assert index.nearest(query) == oracle_scan_nearest(stored, query)
        assert settles == []

    def test_exclude_leaving_one_row(self, settles):
        rng = np.random.default_rng(5)
        index = CentroidIndex()
        stored = {}
        for _ in range(2):
            v = random_unit(rng, 8)
            stored[index.insert(v)] = v
        for cid, v in stored.items():  # the excluded row screens best
            hit = index.nearest(v, exclude=cid)
            assert hit == oracle_scan_nearest(stored, v, exclude=cid)
            assert hit.cluster_id != cid
        assert settles == []

    def test_all_rows_tied(self, settles):
        v = unit(1, 2, 3)
        index = CentroidIndex()
        stored = {index.insert(v): v for _ in range(4)}
        hit = index.nearest(v)
        assert hit == oracle_scan_nearest(stored, v) == (0, hit.similarity)
        assert len(settles) == 1


class TestQueryChecks:
    @pytest.mark.parametrize("query", [[np.nan, 0.0], [np.inf, 0.0], [0.6, 0.7],
                                       [0.0, 0.0]],
                             ids=["nan", "inf", "short", "zero"])
    def test_nearest_and_nearest_batch_refuse_the_same_queries(self, query):
        index = CentroidIndex()
        index.insert(unit(1, 0))
        index.insert(unit(0, 1))
        with pytest.raises(ValueError, match="not unit-norm"):
            index.nearest(np.array(query))
        with pytest.raises(ValueError, match="not unit-norm"):
            index.nearest(np.array(query), exclude=0)
        with pytest.raises(ValueError, match="not unit-norm"):
            index.nearest_batch(np.stack([unit(1, 0), query]))


class TestNearestBatch:
    def test_empty_index(self):
        assert CentroidIndex().nearest_batch(np.eye(2)) == [None, None]

    def test_empty_batch(self):
        index = CentroidIndex()
        index.insert(unit(1, 0))
        assert index.nearest_batch(np.empty((0, 2))) == []

    def test_ties_break_to_lowest_id_after_removal_moves_rows(self):
        index = CentroidIndex()
        first = index.insert(unit(0, 1, 0))
        low = index.insert(unit(1, 0, 0))
        index.insert(unit(0, 0, 1))
        index.insert(unit(1, 0, 0))
        index.remove(first)
        hits = index.nearest_batch(np.stack([unit(1, 0, 0), unit(1, 1, 0)]))
        assert [h.cluster_id for h in hits] == [low, low]

    def test_equals_one_nearest_per_query(self):
        # one call mixes queries whose screen keeps a single row, several
        # rows that tie exactly (copies of one vector), and several rows a
        # rounding error apart, after removals have moved rows
        rng = np.random.default_rng(21)
        kinds = set()
        for _ in range(20):
            dim = int(rng.integers(2, 40))
            base = random_unit(rng, dim)
            index = CentroidIndex()
            for _ in range(int(rng.integers(1, 150))):
                v = [base, base + 1e-15 * rng.normal(size=dim),
                     random_unit(rng, dim)][int(rng.integers(3))]
                index.insert(v / np.linalg.norm(v))
            for cid in rng.permutation(index.ids())[:len(index) // 4]:
                index.remove(int(cid))
            noisy = base + 1e-15 * rng.normal(size=dim)
            queries = np.stack([base, noisy / np.linalg.norm(noisy)]
                               + [random_unit(rng, dim) for _ in range(8)])
            hits = index.nearest_batch(queries)
            assert hits == [index.nearest(q) for q in queries]  # similarities by ==
            vectors = np.stack([c.vector for c in index.centroids()])
            for query in queries:
                screened = vectors.astype(np.float32) @ query.astype(np.float32)
                kept = screened >= screened.max() - _screen_margin(dim)
                sims = np.einsum("ij,j->i", vectors[kept], query)
                kinds.add("single" if len(sims) == 1 else
                          "tie" if np.all(sims == sims[0]) else "near tie")
        assert kinds == {"single", "tie", "near tie"}


def test_screen_keeps_the_exact_best_at_512_dims():
    # at E = 512 the float32 screen errs by up to about 1e-7 here, and its
    # margin is 6.1e-5: centroids scoring within that of each other, some
    # exact ties, rank differently in the screen than in the exact scores,
    # and the excluded row, a copy of the query, is the screened best
    rng = np.random.default_rng(512)
    dim = 512
    delta = _screen_margin(dim) / 2
    reordered = 0
    for _ in range(40):
        query = random_unit(rng, dim)
        index = CentroidIndex()
        for _ in range(int(rng.integers(0, 30))):
            index.insert(random_unit(rng, dim))
        # rows scoring 1e-12 to 1e-5 below the query's own 1.0, all inside
        # the margin: a step of length s off the query costs about s² / 2
        near = []
        for gap in 10.0 ** rng.uniform(-12, -5, size=int(rng.integers(2, 12))):
            v = query + np.sqrt(2 * gap) * random_unit(rng, dim)
            near.append(index.insert(v / np.linalg.norm(v)))
        for _ in range(int(rng.integers(1, 4))):  # exact ties, at moved rows
            index.insert(index.get(near[int(rng.integers(len(near)))]).vector)
        for cid in rng.permutation(index.ids())[:len(index) // 5]:
            index.remove(int(cid))
        own = index.insert(query)  # the excluded row; scores 1.0
        stored = {c.cluster_id: c.vector for c in index.centroids()}
        order = sorted(stored)
        vectors = np.stack([stored[cid] for cid in order])
        screened = vectors.astype(np.float32) @ query.astype(np.float32)
        exact = np.einsum("ij,j->i", vectors, query)
        assert np.max(np.abs(screened - exact)) <= delta
        screened[order.index(own)] = -np.inf
        want = oracle_scan_nearest(stored, query, exclude=own)
        reordered += order[int(screened.argmax())] != want[0]
        hit = index.nearest(query, exclude=own)
        assert (hit.cluster_id, hit.similarity) == want
        noisy = query + 1e-7 * random_unit(rng, dim)
        noisy /= np.linalg.norm(noisy)
        hits = index.nearest_batch(np.stack([query, noisy]))
        assert [(h.cluster_id, h.similarity) for h in hits] == \
            [oracle_scan_nearest(stored, q) for q in (query, noisy)]
    assert reordered >= 10  # the screen alone would have picked wrongly


def test_an_index_holds_each_vector_once_and_a_float32_screen():
    # 1024 centroids of 512 dims: their float64 vectors take 4 MB, the
    # float32 screen 2 MB, and a float64 row matrix would take 4 MB more
    n, dim = 1024, 512
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        index = CentroidIndex()
        for _ in range(n):
            index.insert(random_unit(rng, dim))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    floats = n * dim * (8 + 4)
    assert floats <= held < floats + n * dim * 2, held
    assert len(index) == n


class TestCentroidVector:
    """A centroid's vector moves only through the index, so the screen and
    the record of what changed since the last rebalance follow it."""

    def test_cannot_be_reassigned(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        with pytest.raises(AttributeError):
            index.get(cid).vector = unit(0, 1)
        assert np.array_equal(index.get(cid).vector, unit(1, 0))

    def test_is_a_read_only_view_of_the_inserted_array(self):
        index = CentroidIndex()
        v = unit(0.6, 0.8)
        cid = index.insert(v)
        held = index.get(cid).vector
        assert np.shares_memory(held, v)  # no copy
        with pytest.raises(ValueError):
            held[0] = 1.0
        assert v.flags.writeable  # the caller's own array is left as it was
        moved = index.update_moving_average(cid, unit(1, 0)).vector
        with pytest.raises(ValueError):
            moved[0] = 1.0


class TestUpdateMovingAverage:
    def test_orthogonal_analytic(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        c = index.update_moving_average(cid, unit(0, 1))
        assert c.weight == 2
        assert np.allclose(c.vector, [0.70711, 0.70711], atol=1e-5)

    def test_fixed_point(self):
        index = CentroidIndex()
        v = unit(0.6, 0.8)
        cid = index.insert(v)
        c = index.update_moving_average(cid, v)
        assert c.weight == 2
        assert np.allclose(c.vector, v)

    def test_fixed_point_induction(self):
        index = CentroidIndex()
        v = unit(1, 2, 3)
        cid = index.insert(v)
        for _ in range(5):
            index.update_moving_average(cid, v)
        c = index.get(cid)
        assert c.weight == 6
        assert np.allclose(c.vector, v)

    def test_matches_closed_form_sequences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            index = CentroidIndex()
            v0 = random_unit(rng, 6)
            cid = index.insert(v0)
            expected = v0
            weight = 1
            for _ in range(10):
                incoming = random_unit(rng, 6)
                expected = oracle_moving_average(expected, incoming, weight)
                weight += 1
                c = index.update_moving_average(cid, incoming)
                # the in-place step is the closed form bit for bit
                assert np.array_equal(c.vector, expected)
                assert c.weight == weight

    def test_missing_id(self):
        with pytest.raises(ClusterNotFoundError):
            CentroidIndex().update_moving_average(3, unit(1, 0))

    def test_nan_incoming_rejected(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        with pytest.raises(ValueError):
            index.update_moving_average(cid, np.array([np.nan, 0.0]))
        assert index.get(cid).weight == 1
        assert np.array_equal(index.get(cid).vector, unit(1, 0))

    def test_index_reflects_moved_vector(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        far = index.insert(unit(-1, 0.2))
        for _ in range(30):
            index.update_moving_average(cid, unit(0, 1))
        hit = index.nearest(unit(0, 1))
        assert hit.cluster_id == cid
        assert far in index


class TestRemove:
    def test_insert_remove_empty(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        index.remove(cid)
        assert len(index) == 0
        assert index.nearest(unit(1, 0)) is None

    def test_double_remove_signaled(self):
        index = CentroidIndex()
        cid = index.insert(unit(1, 0))
        index.remove(cid)
        with pytest.raises(ClusterNotFoundError):
            index.remove(cid)

    def test_survivor_always_returned(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0))
        b = index.insert(unit(0, 1))
        index.remove(a)
        for q in (unit(1, 0), unit(0, 1), unit(-1, 0)):
            assert index.nearest(q).cluster_id == b


class TestInterleavings:
    def test_vectors_stay_unit_norm(self):
        rng = np.random.default_rng(33)
        index = CentroidIndex()
        live = []
        for _ in range(300):
            op = rng.integers(3)
            if op == 0 or not live:
                live.append(index.insert(random_unit(rng, 5)))
            elif op == 1:
                index.update_moving_average(
                    live[rng.integers(len(live))], random_unit(rng, 5))
            else:
                cid = live.pop(rng.integers(len(live)))
                index.remove(cid)
            for c in index.centroids():
                assert abs(np.linalg.norm(c.vector) - 1.0) <= 1e-6


def zip_member(path, name, data):
    """Replace member `name` of the zip file at `path` with `data`."""
    with zipfile.ZipFile(path) as old:
        members = {info.filename: old.read(info) for info in old.infolist()}
    members[name] = data
    with zipfile.ZipFile(path, "w") as new:
        for member, content in members.items():
            new.writestr(member, content)


def snapshot_of(index, tmp_path, **changes):
    """The path of `index`'s snapshot, rewritten with `changes`."""
    path = tmp_path / "snap.npz"
    index.snapshot(str(path))
    rewrite(path, **changes)
    return path


def two_clusters():
    index = CentroidIndex()
    index.insert(unit(1, 0))
    index.insert(unit(0, 1))
    return index


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        index = CentroidIndex()
        for i in range(100):
            # pairs of near-duplicates, so a rebalance merges some
            vector = random_unit(rng, 4) if i % 2 == 0 else \
                index.get(i - 1).vector + 0.01 * random_unit(rng, 4)
            # texts with lone surrogates (a byte that is not UTF-8, read as
            # "surrogateescape" reads it, and a high one) and a non-BMP
            # character; some clusters have no representative
            cid = index.insert(vector / np.linalg.norm(vector), representative=None
                               if i % 5 == 0 else f"line {i} on \udcff disk \U0001f4be")
            c = index.get(cid)
            c.weight = int(rng.integers(1, 50))
            if i % 3 == 0:
                c.template_id, c.template = i, f"template {i} \ud800 <*>"
                c.parse_state = ParseState.PARSED
            elif i % 7 == 0:
                c.parse_state = ParseState.FAILED
        for cid in (5, 50, 99):  # rows move, and the highest id is gone
            index.remove(cid)
        path = tmp_path / "snap.json"  # written under the name given
        index.snapshot(str(path))
        loaded = CentroidIndex.load(str(path))
        assert loaded.ids() == index.ids()
        for cid in index.ids():
            a, b = index.get(cid), loaded.get(cid)
            assert a.vector.tobytes() == b.vector.tobytes()
            assert (a.weight, a.template_id, a.parse_state, a.representative, a.template) == \
                (b.weight, b.template_id, b.parse_state, b.representative, b.template)
            assert type(b.cluster_id) is type(b.weight) is int
        again = tmp_path / "again.npz"
        loaded.snapshot(str(again))
        assert again.read_bytes() == path.read_bytes()
        # search and merges of the loaded index are those of the saved one
        queries = np.array([random_unit(rng, 4) for _ in range(50)])
        for q in queries:
            assert loaded.nearest(q) == index.nearest(q)
            assert loaded.nearest(q, exclude=6) == index.nearest(q, exclude=6)
        assert loaded.nearest_batch(queries) == index.nearest_batch(queries)
        # vectors saved in Fortran order: each is re-scored as a C-ordered row
        with np.load(path, allow_pickle=False) as npz:
            rewrite(path, vectors=np.asfortranarray(npz["vectors"]))
        fortran = CentroidIndex.load(str(path))
        assert [fortran.nearest(q) for q in queries] == [index.nearest(q) for q in queries]
        assert rebalance(loaded, 0.99) == rebalance(index, 0.99)
        assert [(c.cluster_id, c.weight, c.template_id, c.parse_state, c.representative,
                 c.template, c.vector.tobytes()) for c in loaded.centroids()] == \
            [(c.cluster_id, c.weight, c.template_id, c.parse_state, c.representative,
              c.template, c.vector.tobytes()) for c in index.centroids()]
        assert loaded.insert(unit(1, 0, 0, 0)) == index.insert(unit(1, 0, 0, 0))

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(SnapshotFormatError):
            CentroidIndex.load(str(path))

    def test_wrong_version(self, tmp_path):
        # a JSON snapshot of an earlier version, which wrote base64 vectors
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": 2, "next_id": 1, "centroids": [
            {"id": 0, "weight": 1, "template_id": None, "parse_state": "unparsed",
             "vector": base64.b64encode(unit(1, 0).tobytes()).decode()}]}))
        with pytest.raises(SnapshotFormatError, match="not a .npz file"):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("size", [0, 1, 4])
    def test_arrays_are_the_centroids_in_id_order(self, tmp_path, size):
        rng = np.random.default_rng(size)
        index = CentroidIndex()
        states = [(None, ParseState.UNPARSED, None, "b 2"), (7, ParseState.PARSED, "a <*>", "a 1"),
                  (None, ParseState.FAILED, None, None), (0, ParseState.PARSED, "é <*>", "é 3")]
        for template_id, state, template, representative in states[:size]:
            index.insert(random_unit(rng, 5), weight=int(rng.integers(1, 50)),
                         template_id=template_id, parse_state=state,
                         representative=representative, template=template)
        index.remove(index.insert(random_unit(rng, 5)))  # the highest id
        if size == 4:
            index.remove(0)  # the last row moves into row 0
        path = snapshot_of(index, tmp_path)
        centroids = list(index.centroids())
        with np.load(path, allow_pickle=False) as npz:
            arrays = dict(npz)
        assert {name: (a.dtype.str, a.shape) for name, a in arrays.items()} == {
            "ids": ("<i8", (len(centroids),)), "weights": ("<i8", (len(centroids),)),
            "template_ids": ("<i8", (len(centroids),)), "states": ("|i1", (len(centroids),)),
            "vectors": ("<f8", (len(centroids), 5)), "next_id": ("<i8", ()),
            "templates": ("|u1", (len(arrays["templates"]),)),
            "template_offsets": ("<i8", (len(centroids) + 1,)),
            "representatives": ("|u1", (len(arrays["representatives"]),)),
            "representative_offsets": ("<i8", (len(centroids) + 1,))}
        assert arrays["ids"].tolist() == [c.cluster_id for c in centroids]
        assert arrays["weights"].tolist() == [c.weight for c in centroids]
        assert arrays["template_ids"].tolist() == \
            [-1 if c.template_id is None else c.template_id for c in centroids]
        assert arrays["states"].tolist() == \
            [["unparsed", "parsed", "failed"].index(c.parse_state.value) for c in centroids]
        assert arrays["vectors"].tobytes() == b"".join(c.vector.tobytes() for c in centroids)
        assert arrays["next_id"] == size + 1
        # each text is the UTF-8 slice its offsets bound; none is an empty one
        for blob, offsets, attr in (("templates", "template_offsets", "template"),
                                    ("representatives", "representative_offsets",
                                     "representative")):
            texts = [getattr(c, attr) or "" for c in centroids]
            assert arrays[blob].tobytes() == "".join(texts).encode()
            assert arrays[offsets].tolist() == \
                [len("".join(texts[:k]).encode()) for k in range(len(texts) + 1)]

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        index = CentroidIndex()
        index.remove(index.insert(unit(1, 0)))
        index.remove(index.insert(unit(0, 1)))
        index.snapshot(str(path))
        loaded = CentroidIndex.load(str(path))
        assert len(loaded) == 0
        assert loaded.nearest(unit(1, 0)) is None
        loaded.snapshot(str(tmp_path / "again.npz"))
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()
        # ids keep advancing from where the snapshot left off
        assert loaded.insert(unit(1, 0)) == 2

    # how a two-cluster snapshot is spoilt, and what the error says
    MALFORMED = {
        "truncated-zip": (lambda path: path.write_bytes(path.read_bytes()[:-30]),
                          "zip file"),
        "empty-file": (lambda path: path.write_bytes(b""), "not a .npz file"),
        "lone-npy": (lambda path: path.write_bytes(npy_bytes(np.eye(2))), "not a .npz file"),
        "missing-array": (lambda path: rewrite(path, states=None), "states is not a file"),
        # np.load hands back a member that is no .npy file as bytes
        "member-not-npy": (lambda path: zip_member(path, "states.npy", b"not an array"),
                           "states is not a .npy array"),
        "big-endian-ids": (lambda path: rewrite(path, ids=np.array([0, 1], dtype=">i8")),
                           "ids is a >i8 array"),
        "object-vectors": (lambda path: rewrite(path, vectors=np.array(
            [[1.0, 0.0], [0.0, None]], dtype=object)), "Object arrays"),
        "float32-vectors": (lambda path: rewrite(path, vectors=np.eye(2, dtype="<f4")),
                            "vectors is a <f4 array of shape (2, 2)"),
        "1-d-vectors": (lambda path: rewrite(path, vectors=np.array([1.0, 0.0, 0.0, 1.0])),
                        "vectors is a <f8 array of shape (4,)"),
        "3-d-vectors": (lambda path: rewrite(path, vectors=np.eye(2)[:, :, None]),
                        "shape (2, 2, 1), not a 2-d <f8 one"),
        "lengths-disagree": (lambda path: rewrite(path, vectors=np.eye(2)[:1]),
                             "'states': 2, 'vectors': 1"),
        "unknown-state": (lambda path: rewrite(path, states=np.array([0, 3], dtype=np.int8)),
                          "cluster 1 has an unknown state"),
        "negative-state": (lambda path: rewrite(path, states=np.array([0, -1], dtype=np.int8)),
                           "cluster 1 has an unknown state"),
        "template-below-minus-1": (lambda path: rewrite(path, template_ids=np.array([-1, -2])),
                                   "cluster 1 has a template id below -1"),
        "not-unit": (lambda path: rewrite(path, vectors=np.array([[1.0, 0.0], [0.0, 0.5]])),
                     "unit-norm"),
        # an earlier version's snapshot: the six arrays, no texts
        "six-arrays": (lambda path: rewrite(path, templates=None, template_offsets=None,
                                            representatives=None,
                                            representative_offsets=None),
                       "holds no template texts or representatives, as earlier versions "
                       "wrote; rebuild it with `logsift ingest`"),
        "missing-texts": (lambda path: rewrite(path, templates=None),
                          "templates is not a file"),
        "int-texts": (lambda path: rewrite(path, templates=np.array([], dtype="<i8")),
                      "templates is a <i8 array"),
        "offsets-per-text": (lambda path: rewrite(path, template_offsets=np.array([0, 0])),
                             "template_offsets are not 3 offsets from 0 up to the 0 bytes"),
        "offsets-from-1": (lambda path: rewrite(path, representatives=np.frombuffer(
            b"ab", np.uint8), representative_offsets=np.array([1, 2, 2])),
                           "representative_offsets are not 3 offsets from 0 up to the 2 bytes"),
        "offsets-decrease": (lambda path: rewrite(path, representatives=np.frombuffer(
            b"ab", np.uint8), representative_offsets=np.array([0, 2, 1])),
                             "representative_offsets are not 3 offsets from 0"),
        "offsets-short-of-the-end": (lambda path: rewrite(
            path, representatives=np.frombuffer(b"ab", np.uint8),
            representative_offsets=np.array([0, 1, 1])), "from 0 up to the 2 bytes"),
        "offsets-past-the-end": (lambda path: rewrite(
            path, representatives=np.frombuffer(b"ab", np.uint8),
            representative_offsets=np.array([0, 1, 3])), "from 0 up to the 2 bytes"),
        "not-utf-8": (lambda path: rewrite(path, representatives=np.frombuffer(
            b"a\xff", np.uint8), representative_offsets=np.array([0, 1, 2])),
                      "can't decode byte 0xff"),
        "parsed-without-text": (lambda path: rewrite(
            path, states=np.array([0, 1], dtype=np.int8), template_ids=np.array([-1, 0])),
                                "cluster 1 has a parsed state and no template text"),
        "text-not-parsed": (lambda path: rewrite(path, templates=np.frombuffer(
            b"a", np.uint8), template_offsets=np.array([0, 1, 1])),
                            "cluster 0 has a template text and no parsed state"),
        "one-id-two-texts": (lambda path: rewrite(
            path, states=np.array([1, 1], dtype=np.int8), template_ids=np.array([3, 3]),
            templates=np.frombuffer(b"ab", np.uint8), template_offsets=np.array([0, 1, 2])),
                             "template id 3 has two texts"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_arrays_rejected(self, tmp_path, case):
        spoil, message = self.MALFORMED[case]
        path = snapshot_of(two_clusters(), tmp_path)
        spoil(path)
        with pytest.raises(SnapshotFormatError, match=re.escape(message)):
            CentroidIndex.load(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = snapshot_of(two_clusters(), tmp_path, ids=np.array([0, 0]))
        with pytest.raises(SnapshotFormatError, match="duplicate cluster id 0"):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("next_id", [
        np.int64(1), np.int64(2), np.int64(-1), np.float64(3.0), np.str_("3"),
        np.bool_(True), None, np.array([3]),
    ], ids=["reuses-1", "reuses-2", "negative", "float", "string", "bool", "null",
            "one-entry-array"])
    def test_next_id_that_could_reuse_an_id_rejected(self, tmp_path, next_id):
        # ids 0-2 loaded: a next_id of 1 would give out id 1 again; a null
        # next_id is a missing array
        index = CentroidIndex()
        for k in range(3):
            index.insert(unit(*[float(j == k) for j in range(3)]))
        path = snapshot_of(index, tmp_path, next_id=next_id)
        with pytest.raises(SnapshotFormatError, match="next_id"):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("name,values,message", [
        ("ids", [0, 1.5], "ids is a <f8"), ("ids", [False, True], "ids is a |b1"),
        ("ids", ["0", "1"], "ids is a <U1"), ("ids", [0, None], "Object arrays"),
        ("weights", [1, 0], "cluster 1 has a weight below 1"),
        ("weights", [1, -1], "cluster 1 has a weight below 1"),
        ("weights", [1, 2.7], "weights is a <f8"), ("weights", [True, True], "weights is a |b1"),
        ("weights", ["1", "2"], "weights is a <U1"),
        ("template_ids", [[-1, -1], [1, 2]],
         "template_ids is a <i8 array of shape (2, 2), not a 1-d"),
        ("template_ids", ["-1", "3"], "template_ids is a <U2"),
        ("template_ids", [-1, 1.5], "template_ids is a <f8"),
        ("template_ids", [False, True], "template_ids is a |b1"),
        ("template_ids", [None, {}], "Object arrays"),
    ], ids=["float-id", "bool-id", "string-id", "null-id", "zero-weight",
            "negative-weight", "float-weight", "bool-weight", "string-weight",
            "list-template", "string-template", "float-template", "bool-template",
            "object-template"])
    def test_id_and_weight_must_be_integers(self, tmp_path, name, values, message):
        path = snapshot_of(two_clusters(), tmp_path, **{name: np.array(values)})
        with pytest.raises(SnapshotFormatError, match=re.escape(message)):
            CentroidIndex.load(str(path))

    def test_a_parsed_cluster_needs_a_template(self, tmp_path):
        index = CentroidIndex()
        index.insert(unit(1, 0), template_id=0, parse_state=ParseState.PARSED, template="a")
        index.insert(unit(0, 1), template_id=1, parse_state=ParseState.PARSED, template="b")
        path = snapshot_of(index, tmp_path, template_ids=np.array([0, -1]))
        with pytest.raises(SnapshotFormatError,
                           match="cluster 1 has a parsed state and no template id"):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_vector_rejected(self, tmp_path, value):
        path = snapshot_of(two_clusters(), tmp_path,
                           vectors=np.array([[1.0, 0.0], [value, 0.0]]))
        with pytest.raises(SnapshotFormatError, match="unit-norm"):
            CentroidIndex.load(str(path))
