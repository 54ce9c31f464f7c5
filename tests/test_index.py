import json

import numpy as np
import pytest

from logsift import CentroidIndex, ParseState
from logsift.errors import ClusterNotFoundError, SnapshotFormatError

from conftest import random_unit
from oracles import oracle_moving_average, oracle_nearest


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
                assert np.allclose(c.vector, expected, atol=1e-9)
                assert c.weight == weight

    def test_missing_id(self):
        with pytest.raises(ClusterNotFoundError):
            CentroidIndex().update_moving_average(3, unit(1, 0))

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

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        entry = {"id": 0, "weight": 1, "template_id": None,
                 "parse_state": "unparsed", "vector": [1.0, 0.0]}
        path.write_text(json.dumps({"version": 1, "next_id": 1,
                                    "centroids": [entry, entry]}))
        with pytest.raises(SnapshotFormatError):
            CentroidIndex.load(str(path))
