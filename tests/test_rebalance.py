import numpy as np
import pytest

from logsift import CentroidIndex, ParseState, merge_pair, rebalance
from logsift.errors import ClusterNotFoundError

from conftest import random_unit
from oracles import oracle_merge


def unit(*values):
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestMergePair:
    def test_identical_directions(self):
        index = CentroidIndex()
        u = unit(0.6, 0.8)
        a = index.insert(u)
        b = index.insert(u)
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        assert c.weight == 2
        assert np.allclose(c.vector, u)

    def test_weighted_orthogonal(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0))
        index.get(a).weight = 3
        b = index.insert(unit(0, 1))
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        assert c.weight == 4
        assert np.allclose(c.vector, oracle_merge(unit(1, 0), 3, unit(0, 1), 1))

    def test_template_from_heavier_cluster(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0, 0.1), weight=5, template_id=101,
                         parse_state=ParseState.PARSED)
        b = index.insert(unit(1, 0.1, 0), weight=2, template_id=202,
                         parse_state=ParseState.PARSED)
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        assert c.template_id == 101
        assert c.parse_state == ParseState.PARSED

    def test_unparsed_constituent_resets_state(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0), weight=5, template_id=101,
                         parse_state=ParseState.PARSED)
        b = index.insert(unit(1, 0.1), weight=2)
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        assert c.parse_state == ParseState.UNPARSED
        assert c.template_id is None

    def test_self_merge_rejected(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0))
        with pytest.raises(ValueError):
            merge_pair(index, a, a)

    def test_missing_id(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0))
        with pytest.raises(ClusterNotFoundError):
            merge_pair(index, a, 99)


class TestRebalance:
    def test_worked_example(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0))
        index.get(a).weight = 2
        index.insert(unit(0.8, 0.6))
        report = rebalance(index, 0.5)  # sim 0.8 >= 0.5
        assert len(report.merges) == 1
        assert report.clusters_before == 2
        assert report.clusters_after == 1
        c = next(index.centroids())
        assert c.weight == 3
        expected = np.array([0.93333333, 0.2])
        assert np.allclose(c.vector, expected / np.linalg.norm(expected), atol=1e-6)

    def test_noop_when_all_dissimilar(self):
        index = CentroidIndex()
        ids = [index.insert(v) for v in (unit(1, 0, 0), unit(0, 1, 0), unit(0, 0, 1))]
        report = rebalance(index, 0.9)
        assert report.merges == []
        assert index.ids() == ids

    def test_duplicate_clusters_collapse(self):
        index = CentroidIndex()
        u = unit(0.2, -0.5, 0.6)
        weights = [1, 4, 2, 3]
        for w in weights:
            index.insert(u, weight=w)
        report = rebalance(index, 0.9)
        assert len(index) == 1
        c = next(index.centroids())
        assert c.weight == sum(weights)
        assert np.allclose(c.vector, u)
        assert report.clusters_after == 1

    def test_weight_conservation_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            index = CentroidIndex()
            for _ in range(int(rng.integers(2, 40))):
                index.insert(random_unit(rng, 4), weight=int(rng.integers(1, 9)))
            total = index.total_weight()
            report = rebalance(index, 0.8)
            assert index.total_weight() == total
            assert report.clusters_after == report.clusters_before - len(report.merges)
            for event in report.merges:
                assert event.similarity >= 0.8

    def test_deterministic_reports(self):
        def build():
            rng = np.random.default_rng(14)
            index = CentroidIndex()
            for _ in range(25):
                index.insert(random_unit(rng, 3))
            return index

        r1 = rebalance(build(), 0.7)
        r2 = rebalance(build(), 0.7)
        assert r1.to_dict() == r2.to_dict()

    def test_chained_merges_in_one_pass(self):
        # three near-identical clusters: the merged vector is re-processed
        # at the same position and absorbs the third
        index = CentroidIndex()
        base = unit(1.0, 0.05, 0.0)
        index.insert(base)
        index.insert(unit(1.0, 0.0, 0.05))
        index.insert(unit(1.0, 0.05, 0.05))
        report = rebalance(index, 0.95)
        assert len(index) == 1
        assert len(report.merges) == 2


PARSED, UNPARSED, FAILED = ParseState.PARSED, ParseState.UNPARSED, ParseState.FAILED


class TestMergeOutcome:
    """Each event's kept_from against a replay of the pre-merge weights and
    parse states: heavier wins, the older id on a tie, and the survivor
    keeps a template only when both sides were parsed."""

    @staticmethod
    def replay(before, report):
        weights = {cid: w for cid, (w, _) in before.items()}
        states = {cid: s for cid, (_, s) in before.items()}
        kept = []
        for event in report.merges:
            a, b = event.absorbed_ids
            both = states[a] == states[b] == PARSED
            winner = a if (weights[a], -a) >= (weights[b], -b) else b
            kept.append(winner if both else None)
            weights[event.surviving_id] = weights[a] + weights[b]
            states[event.surviving_id] = PARSED if both else UNPARSED
        return kept

    @pytest.mark.parametrize("groups", [
        # PARSED/PARSED: heavier first, heavier second, ties, a chain of three
        [[(3, PARSED), (1, PARSED)], [(1, PARSED), (4, PARSED)],
         [(2, PARSED), (2, PARSED)], [(1, PARSED), (1, PARSED)],
         [(2, PARSED), (1, PARSED), (3, PARSED)]],
        [[(5, PARSED), (2, UNPARSED)], [(1, UNPARSED), (1, PARSED)],
         [(2, PARSED), (2, PARSED), (1, UNPARSED)]],
        [[(3, FAILED), (1, PARSED)], [(1, PARSED), (2, FAILED)],
         [(2, FAILED), (2, PARSED)]],
    ], ids=["parsed-parsed", "parsed-unparsed", "failed-parsed"])
    def test_kept_from_matches_replay(self, groups):
        # each group's members point almost the same way; groups are orthogonal
        index = CentroidIndex()
        template_ids = {}
        for g, members in enumerate(groups):
            for k, (weight, state) in enumerate(members):
                v = np.zeros(2 * len(groups))
                v[2 * g], v[2 * g + 1] = 1.0, 0.01 * k
                tid = None if state is UNPARSED else len(template_ids)
                cid = index.insert(v / np.linalg.norm(v), weight=weight,
                                   template_id=tid, parse_state=state)
                template_ids[cid] = tid
        before = {c.cluster_id: (c.weight, c.parse_state) for c in index.centroids()}
        report = rebalance(index, 0.9)
        assert len(index) == len(groups)
        kept = [event.kept_from for event in report.merges]
        assert kept == self.replay(before, report)
        for event in report.merges:
            template_ids[event.surviving_id] = template_ids.get(event.kept_from)
        for c in index.centroids():
            assert c.template_id == template_ids[c.cluster_id]
            assert (c.parse_state == PARSED) == (c.template_id is not None)
