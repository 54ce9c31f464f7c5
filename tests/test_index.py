import base64
import json
import re
import tracemalloc

import numpy as np
import pytest

from logsift import CentroidIndex, ParseState
from logsift.errors import ClusterNotFoundError, SnapshotFormatError
from logsift.files import encode_floats
from logsift.index import _screen_margin

from conftest import random_unit, write_v1_snapshot
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


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        index = CentroidIndex()
        for i in range(100):
            cid = index.insert(random_unit(rng, 4))
            c = index.get(cid)
            c.weight = int(rng.integers(1, 50))
            if i % 3 == 0:
                c.template_id = i
                c.parse_state = ParseState.PARSED
        path = str(tmp_path / "snap.json")
        index.snapshot(path)
        assert "params" not in json.loads((tmp_path / "snap.json").read_text())
        loaded = CentroidIndex.load(path)
        assert loaded.ids() == index.ids()
        for cid in index.ids():
            a, b = index.get(cid), loaded.get(cid)
            assert np.array_equal(a.vector, b.vector)
            assert (a.weight, a.template_id, a.parse_state) == \
                (b.weight, b.template_id, b.parse_state)

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(SnapshotFormatError):
            CentroidIndex.load(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"version": 9, "centroids": []}')
        with pytest.raises(SnapshotFormatError):
            CentroidIndex.load(str(path))

    @staticmethod
    def document(index):
        """The snapshot document, as `json.dump` once wrote it whole."""
        return {
            "version": 2,
            "next_id": index._next_id,
            "centroids": [
                {"id": c.cluster_id, "weight": c.weight, "template_id": c.template_id,
                 "parse_state": c.parse_state.value, "vector": encode_floats(c.vector)}
                for c in index.centroids()
            ],
        }

    @pytest.mark.parametrize("size", [0, 1, 4])
    def test_bytes_are_json_dumps_of_the_document(self, tmp_path, size):
        rng = np.random.default_rng(size)
        index = CentroidIndex()
        states = [(None, ParseState.UNPARSED), (7, ParseState.PARSED),
                  (None, ParseState.FAILED), (0, ParseState.PARSED)]
        for template_id, state in states[:size]:
            index.insert(random_unit(rng, 5), weight=int(rng.integers(1, 50)),
                         template_id=template_id, parse_state=state)
        index.remove(index.insert(random_unit(rng, 5)))  # the highest id
        path = tmp_path / "snap.json"
        index.snapshot(str(path))
        assert path.read_bytes() == json.dumps(self.document(index)).encode()

    def test_empty_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.json")
        index = CentroidIndex()
        index.remove(index.insert(unit(1, 0)))
        index.remove(index.insert(unit(0, 1)))
        index.snapshot(path)
        loaded = CentroidIndex.load(path)
        assert len(loaded) == 0
        # ids keep advancing from where the snapshot left off
        assert loaded.insert(unit(1, 0)) == 2

    def test_version_1_with_graph_params_loads(self, tmp_path):
        # snapshots written by the HNSW index carried its tuning parameters
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "version": 1,
            "next_id": 5,
            "params": {"m": 16, "ef_construction": 200, "ef_search": 64},
            "centroids": [
                {"id": 1, "weight": 3, "template_id": 0, "parse_state": "parsed",
                 "vector": [1.0, 0.0]},
                {"id": 4, "weight": 1, "template_id": None,
                 "parse_state": "unparsed", "vector": [0.0, 1.0]},
            ],
        }))
        loaded = CentroidIndex.load(str(path))
        assert loaded.ids() == [1, 4]
        assert loaded.get(1).weight == 3
        assert loaded.get(1).parse_state == ParseState.PARSED
        assert loaded.nearest(unit(0.1, 1)).cluster_id == 4
        assert loaded.insert(unit(1, 1)) == 5

    def test_version_2_stores_raw_floats(self, tmp_path):
        index = CentroidIndex()
        v = unit(1, 2, 3)
        index.insert(v)
        path = tmp_path / "snap.json"
        index.snapshot(str(path))
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        assert base64.b64decode(doc["centroids"][0]["vector"]) == v.astype("<f8").tobytes()

    def test_version_1_and_2_load_bit_equal(self, tmp_path):
        rng = np.random.default_rng(4)
        index = CentroidIndex()
        for i in range(50):
            cid = index.insert(random_unit(rng, 12), weight=int(rng.integers(1, 9)))
            if i % 4 == 0:
                index.get(cid).template_id = i
                index.get(cid).parse_state = ParseState.PARSED
        index.remove(7)
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        write_v1_snapshot(index, v1)
        index.snapshot(str(v2))
        loaded = [CentroidIndex.load(str(p)) for p in (v1, v2)]
        views = [[(c.cluster_id, c.weight, c.template_id, c.parse_state, c.vector.tobytes())
                  for c in i.centroids()] for i in loaded]
        assert views[0] == views[1]
        assert [i.insert(unit(1, *[0] * 11)) for i in loaded] == [50, 50]

    @pytest.mark.parametrize("version,vectors,message", [
        (2, ["AAAA!AAA"], "base64"),
        (2, [np.array([0.6, 0.8, 0.0]).tobytes()[:20]], "multiple of element size"),
        (2, [unit(1, 1, 1).tobytes(), unit(1, 1).tobytes()], "unlike the others"),
        (1, [unit(1, 1, 1).tolist(), unit(1, 1).tolist()], "unlike the others"),
        (1, [unit(1, 1, 1).tolist(), [1.0]], "unlike the others"),
    ], ids=["bad-base64", "partial-float", "mixed-dims-v2", "mixed-dims-v1",
            "one-float-v1"])
    def test_malformed_vectors_rejected(self, tmp_path, version, vectors, message):
        entries = [{"id": i, "weight": 1, "template_id": None, "parse_state": "unparsed",
                    "vector": base64.b64encode(v).decode() if isinstance(v, bytes) else v}
                   for i, v in enumerate([unit(0, 1, 0).tobytes() if version == 2
                                          else unit(0, 1, 0).tolist()] + vectors)]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": version, "next_id": len(entries),
                                    "centroids": entries}))
        with pytest.raises(SnapshotFormatError, match=message):
            CentroidIndex.load(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        entry = {"id": 0, "weight": 1, "template_id": None,
                 "parse_state": "unparsed", "vector": [1.0, 0.0]}
        path.write_text(json.dumps({"version": 1, "next_id": 1,
                                    "centroids": [entry, entry]}))
        with pytest.raises(SnapshotFormatError):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("next_id", [1, 2, -1, 3.0, "3", True, None],
                             ids=["reuses-1", "reuses-2", "negative", "float",
                                  "string", "bool", "null"])
    def test_next_id_that_could_reuse_an_id_rejected(self, tmp_path, next_id):
        # ids 0-2 loaded: a next_id of 1 would give out id 1 again
        index = CentroidIndex()
        for k in range(3):
            index.insert(unit(*[float(j == k) for j in range(3)]))
        path = tmp_path / "snap.json"
        index.snapshot(str(path))
        doc = json.loads(path.read_text())
        doc["next_id"] = next_id
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="next_id"):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("field,value", [
        ("id", 1.5), ("id", True), ("id", "1"), ("id", None),
        ("weight", 0), ("weight", -1), ("weight", 2.7), ("weight", True), ("weight", "2"),
        ("template_id", [1, 2]), ("template_id", "3"), ("template_id", 1.5),
        ("template_id", True), ("template_id", {}),
    ], ids=["float-id", "bool-id", "string-id", "null-id", "zero-weight",
            "negative-weight", "float-weight", "bool-weight", "string-weight",
            "list-template", "string-template", "float-template", "bool-template",
            "object-template"])
    def test_id_and_weight_must_be_integers(self, tmp_path, field, value):
        index = CentroidIndex()
        index.insert(unit(1, 0))
        index.insert(unit(0, 1))
        path = tmp_path / "snap.json"
        index.snapshot(str(path))
        doc = json.loads(path.read_text())
        doc["centroids"][1][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match=re.escape(f"{field} {value!r}")):
            CentroidIndex.load(str(path))

    def test_a_parsed_cluster_needs_a_template(self, tmp_path):
        index = CentroidIndex()
        index.insert(unit(1, 0), template_id=0, parse_state=ParseState.PARSED)
        index.insert(unit(0, 1), template_id=1, parse_state=ParseState.PARSED)
        path = tmp_path / "snap.json"
        index.snapshot(str(path))
        doc = json.loads(path.read_text())
        doc["centroids"][1]["template_id"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="parsed with no template"):
            CentroidIndex.load(str(path))

    @pytest.mark.parametrize("version", [1, 2])
    def test_non_finite_vector_rejected(self, tmp_path, version):
        index = CentroidIndex()
        index.insert(unit(1, 0))
        path = tmp_path / "snap.json"
        if version == 1:
            write_v1_snapshot(index, path)
        else:
            index.snapshot(str(path))
        doc = json.loads(path.read_text())
        nan = np.array([np.nan, 0.0])
        doc["centroids"][0]["vector"] = nan.tolist() if version == 1 else \
            base64.b64encode(nan.astype("<f8").tobytes()).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="unit-norm"):
            CentroidIndex.load(str(path))
