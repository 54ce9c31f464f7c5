import tracemalloc

import numpy as np
import pytest

import logsift.index
from logsift import CentroidIndex, ParseState, merge_pair, rebalance
from logsift.errors import ClusterNotFoundError

from conftest import random_unit
from oracles import oracle_merge, oracle_rebalance


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
                         parse_state=ParseState.PARSED, representative="a 1", template="a <*>")
        b = index.insert(unit(1, 0.1, 0), weight=2, template_id=202,
                         parse_state=ParseState.PARSED, representative="b 2", template="b <*>")
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        assert (c.template_id, c.template, c.representative) == (101, "a <*>", "a 1")
        assert c.parse_state == ParseState.PARSED

    def test_unparsed_constituent_resets_state(self):
        index = CentroidIndex()
        a = index.insert(unit(1, 0), weight=5, template_id=101,
                         parse_state=ParseState.PARSED, representative="a 1", template="a <*>")
        b = index.insert(unit(1, 0.1), weight=2, representative="b 2")
        survivor = merge_pair(index, a, b)
        c = index.get(survivor)
        assert c.parse_state == ParseState.UNPARSED
        assert (c.template_id, c.template, c.representative) == (None, None, "a 1")

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


    def test_tie_between_a_survivor_and_an_older_cluster_goes_to_the_lower_id(self):
        # a survivor is re-examined at the walk position of the cluster it
        # replaced, so it can sit before an older cluster; ties still go to
        # the lower id
        p = np.array([np.cos(0.42), np.sin(0.42), 0.0])  # 24 degrees
        s1 = p / np.linalg.norm(p)  # what merging p with a copy of itself gives
        e = np.array([np.cos(0.21), 0.0, np.sin(0.21)])  # 12 degrees
        index = CentroidIndex()
        for v in (p, p, s1 * [1, -1, 1], e, e * [1, 1, -1]):
            index.insert(v / np.linalg.norm(v))
        # 0+1 -> 5 at position 0; 3+4 -> 6 = (1, 0, 0), whose equal best
        # partners are 5 (position 0) and 2 (position 2)
        report = rebalance(index, 0.9)
        assert [m.absorbed_ids for m in report.merges] == [(0, 1), (3, 4), (6, 2)]

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


def clustered_index(seed):
    """Clusters around a few centres: exact duplicates, near copies within
    rounding of each other, and spread members that merge in chains; mixed
    weights and parse states; some removals, which move rows."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 24))
    centres = [random_unit(rng, dim) for _ in range(int(rng.integers(1, 6)))]
    index = CentroidIndex()
    for i in range(int(rng.integers(2, 120))):
        kind = rng.random()
        if kind < 0.2 and len(index):
            ids = index.ids()
            v = index.get(ids[int(rng.integers(len(ids)))]).vector
        else:
            spread = 1e-15 if kind < 0.35 else float(rng.choice([0.05, 0.2, 0.5]))
            v = centres[int(rng.integers(len(centres)))] + spread * rng.normal(size=dim)
        parsed = rng.random() < 0.5
        index.insert(v / np.linalg.norm(v), weight=int(rng.integers(1, 6)),
                     template_id=i if parsed else None,
                     parse_state=PARSED if parsed else UNPARSED,
                     representative=f"line {i}", template=f"template {i}" if parsed else None)
    for _ in range(int(rng.integers(0, 4))):
        ids = index.ids()
        if len(ids) > 2:
            index.remove(ids[int(rng.integers(len(ids)))])
    return index


def test_a_pass_leaves_no_pair_at_the_threshold():
    merges = chained = duplicates = 0
    for seed in range(120):
        threshold = [0.5, 0.8, 0.9, 0.99][seed % 4]
        index = clustered_index(seed)
        weight = index.total_weight()
        report = rebalance(index, threshold)
        assert report.clusters_after == report.clusters_before - len(report.merges) == len(index)
        assert index.total_weight() == weight
        assert all(event.similarity >= threshold for event in report.merges), seed
        vectors = np.stack([c.vector for c in index.centroids()])
        sims = np.einsum("ik,jk->ij", vectors, vectors)
        np.fill_diagonal(sims, -np.inf)
        assert sims.max() < threshold, seed
        survivors = set()
        for event in report.merges:
            chained += bool(survivors & set(event.absorbed_ids))
            duplicates += event.similarity == 1.0
            survivors.add(event.surviving_id)
        merges += len(report.merges)
    assert merges > 3000 and chained > 2000 and duplicates > 300, (merges, chained, duplicates)


def test_a_pass_needs_no_memory_quadratic_in_the_clusters():
    # 4000 clusters of 64 dims: the index holds 2 MB of vectors, and an
    # N x N similarity matrix would take 128 MB. Both passes screen all 4000
    # rows, the second after 2000 of them moved
    rng = np.random.default_rng(0)
    index = CentroidIndex()
    for _ in range(4000):
        index.insert(random_unit(rng, 64))
    for moved in (False, True):
        if moved:
            for cid in index.ids()[::2]:
                index.update_moving_average(cid, index.get(cid).vector)
        tracemalloc.start()
        try:
            report = rebalance(index, 0.99)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.merges == []
        assert peak < 1_000_000, (moved, peak)


def count_lookups(index):
    """Count the index's `nearest` calls from now on; returns the list each
    call appends to."""
    calls, nearest = [], index.nearest

    def counted(*args, **kwargs):
        calls.append(args)
        return nearest(*args, **kwargs)

    index.nearest = counted
    return calls


def views(index):
    return [(c.cluster_id, c.weight, c.template_id, c.parse_state, c.template,
             c.representative, c.vector.tobytes()) for c in index.centroids()]


def test_screened_passes_equal_the_full_walk(tmp_path, monkeypatch):
    # two indexes take the same inserts, moves and removes; between them
    # one is rebalanced as the library does, the other by the full walk,
    # at thresholds that rise and fall. Before some passes the first goes
    # through a snapshot, which gives it new rows in id order. Screen
    # blocks of 1 or 50 scores split an index into many blocks
    merges = passes = skipping = loaded = 0
    for seed in range(300):
        monkeypatch.setattr(logsift.index, "_SCREEN_BLOCK", [1, 50, 1 << 16][seed % 3])
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([3, 8, 24, 64, 512]))
        centres = [random_unit(rng, dim) for _ in range(int(rng.integers(1, 6)))]
        fast, full = CentroidIndex(), CentroidIndex()
        fast_calls, full_calls = count_lookups(fast), count_lookups(full)

        def near():
            ids = full.ids()
            if ids and rng.random() < 0.15:  # an exact copy of a centroid
                return full.get(ids[int(rng.integers(len(ids)))]).vector
            spread = float(rng.choice([1e-15, 0.05, 0.2, 0.5]))
            v = centres[int(rng.integers(len(centres)))] + spread * rng.normal(size=dim)
            return v / np.linalg.norm(v)

        for _ in range(int(rng.integers(2, 8))):
            for _ in range(int(rng.integers(0, 40))):
                ids, kind = full.ids(), rng.random()
                if kind < 0.5 or len(ids) < 3:
                    v, weight, parsed = near(), int(rng.integers(1, 6)), rng.random() < 0.5
                    for index in (fast, full):
                        index.insert(v, weight=weight, template_id=weight if parsed else None,
                                     parse_state=PARSED if parsed else UNPARSED,
                                     representative=f"line {len(ids)}",
                                     template=f"template {weight}" if parsed else None)
                elif kind < 0.8:
                    cid, v = ids[int(rng.integers(len(ids)))], near()
                    for index in (fast, full):
                        index.update_moving_average(cid, v)
                else:
                    cid = ids[int(rng.integers(len(ids)))]
                    for index in (fast, full):
                        index.remove(cid)
            threshold = float(rng.choice([0.5, 0.8, 0.9, 0.95, 0.99]))
            if rng.random() < 0.25:
                fast.snapshot(str(tmp_path / "fast.json"))
                fast = CentroidIndex.load(str(tmp_path / "fast.json"))
                fast_calls = count_lookups(fast)
                loaded += 1
            report = rebalance(fast, threshold)
            assert report == oracle_rebalance(full, threshold), seed
            assert views(fast) == views(full), seed
            merges += len(report.merges)
            passes += 1
            skipping += len(fast_calls) < len(full_calls)
            fast_calls.clear()
            full_calls.clear()
    assert passes > 1200 and merges > 4000 and skipping > passes // 4 \
        and loaded > passes // 5, (passes, merges, skipping, loaded)


def test_a_pass_on_an_unchanged_index_looks_nothing_up():
    index = clustered_index(3)
    rebalance(index, 0.9)
    calls = count_lookups(index)
    assert rebalance(index, 0.9).merges == [] and rebalance(index, 0.95).merges == []
    assert calls == []


def test_a_moved_cluster_is_looked_up_with_its_near_partners():
    index = CentroidIndex()
    a = index.insert(unit(1, 0, 0))
    index.insert(unit(0, 1, 0))
    c = index.insert(unit(0, 0, 1))
    rebalance(index, 0.9)
    calls = count_lookups(index)
    for _ in range(20):
        index.update_moving_average(c, unit(1, 0, 0))
    report = rebalance(index, 0.9)
    # c moved to within the threshold of a, which is examined first
    assert [event.absorbed_ids for event in report.merges] == [(a, c)]
    assert len(calls) == 2  # a, then the survivor; cluster 1 is skipped


def test_a_fresh_index_of_separated_clusters_looks_nothing_up():
    index = CentroidIndex()
    for row in np.eye(6):
        index.insert(row)
    calls = count_lookups(index)
    assert rebalance(index, 0.5).merges == []
    assert calls == []


@pytest.mark.parametrize("how", ["loaded", "lower-threshold"])
def test_a_loaded_index_or_a_lower_threshold_is_screened_like_any_pass(tmp_path, how):
    def rebalanced():
        index = clustered_index(5)
        rebalance(index, 0.9)
        if how == "loaded":
            index.snapshot(str(tmp_path / "index.json"))
            index = CentroidIndex.load(str(tmp_path / "index.json"))
        return index

    index, full = rebalanced(), rebalanced()
    calls, clusters = count_lookups(index), len(index)
    threshold = 0.9 if how == "loaded" else 0.85
    assert rebalance(index, threshold) == oracle_rebalance(full, threshold)
    assert len(calls) < clusters


def test_a_partner_exactly_at_the_threshold_is_found_whatever_the_screen_says():
    # the threshold is the pair's exact score: the clean cluster, walked
    # first, must be looked up though its float32 screen score may fall
    # just below the threshold
    rng = np.random.default_rng(11)
    below = 0
    for _ in range(20):
        c = random_unit(rng, 512)
        perp = rng.normal(size=512)
        perp -= (perp @ c) * c
        d = 0.9 * c + np.sqrt(1 - 0.81) * perp / np.linalg.norm(perp)
        d /= np.linalg.norm(d)
        threshold = float(np.einsum("j,j->", c, d))
        below += float(c.astype(np.float32) @ d.astype(np.float32)) < threshold
        fast, full = CentroidIndex(), CentroidIndex()
        for index in (fast, full):
            index.insert(c)
            rebalance(index, 0.5)
            index.insert(d)
        report = rebalance(fast, threshold)
        assert report == oracle_rebalance(full, threshold)
        assert [event.absorbed_ids for event in report.merges] == [(0, 1)]
    assert below > 0
