"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's own code paths: groupings are
compared by exhaustive membership enumeration, the nearest neighbor by a
full scan (of dot products, or of the einsum scores the index must equal
bit for bit), the merge/update algebra by the closed-form expressions,
each line's vector by the two-layer encoder formula, recomputed per
line, and a rebalance pass by the walk that looks every cluster up.
"""

import numpy as np

from logsift import Pipeline
from logsift.rebalance import MergeEvent, MergeReport, _winner, merge_pair


def oracle_grouping_accuracy(predicted, truth):
    n = len(truth)
    correct = 0
    for i in range(n):
        pred_members = [j for j in range(n) if predicted[j] == predicted[i]]
        true_members = [j for j in range(n) if truth[j] == truth[i]]
        if pred_members == true_members:
            correct += 1
    return correct / n if n else 0.0


def _partition(labels):
    seen = {}
    for i, label in enumerate(labels):
        seen.setdefault(label, []).append(i)
    return [tuple(v) for v in seen.values()]


def oracle_fga(predicted, truth):
    pred_groups = _partition(predicted)
    true_groups = _partition(truth)
    n_p, n_g = len(pred_groups), len(true_groups)
    n_c = sum(1 for g in pred_groups if any(g == t for t in true_groups))
    if n_c == 0:
        return 0.0, n_g, n_p, n_c
    pga, rga = n_c / n_p, n_c / n_g
    return 2 * pga * rga / (pga + rga), n_g, n_p, n_c


def oracle_parsing_accuracy(predicted_templates, truth_templates):
    n = len(truth_templates)
    correct = sum(
        1 for p, t in zip(predicted_templates, truth_templates)
        if p.split() == t.split()
    )
    return correct / n if n else 0.0


def oracle_fta(predicted_templates, truth_templates):
    n = len(truth_templates)
    pred_groups = _partition(predicted_templates)
    true_groups = _partition(truth_templates)
    correct = 0
    for g in pred_groups:
        for t in true_groups:
            if g == t and predicted_templates[g[0]].split() == truth_templates[t[0]].split():
                correct += 1
                break
    if correct == 0:
        return 0.0
    precision = correct / len(pred_groups)
    recall = correct / len(true_groups)
    return 2 * precision * recall / (precision + recall)


def oracle_nearest(vectors_by_id, query, exclude=None):
    """Exhaustive argmax over dot products, lowest id on ties."""
    best_id, best_sim = None, None
    for cid in sorted(vectors_by_id):
        if cid == exclude:
            continue
        sim = float(np.dot(query, vectors_by_id[cid]))
        if best_sim is None or sim > best_sim:
            best_id, best_sim = cid, sim
    return best_id, best_sim


def oracle_scan_nearest(vectors_by_id, query, exclude=None):
    """The full scan the index must equal bit for bit: one einsum over every
    vector but `exclude`'s, stacked in id order, so the first best is the
    lowest id on ties."""
    ids = [cid for cid in sorted(vectors_by_id) if cid != exclude]
    if not ids:
        return None, None
    sims = np.einsum("ij,j->i", np.stack([vectors_by_id[cid] for cid in ids]), query)
    top = int(sims.argmax())
    return ids[top], float(sims[top])


def oracle_rebalance(index, threshold):
    """A rebalance pass that looks every cluster up: the walk in ascending
    id order, each merge's survivor re-examined at the same position."""
    before = len(index)
    report = MergeReport(clusters_before=before, clusters_after=before)
    work = index.ids()
    i = 0
    while i < len(work):
        cid = work[i]
        if cid not in index:
            i += 1
            continue
        hit = index.nearest(index.get(cid).vector, exclude=cid)
        if hit is not None and hit.similarity >= threshold:
            winner = _winner(index.get(cid), index.get(hit.cluster_id))
            survivor = merge_pair(index, cid, hit.cluster_id)
            report.merges.append(MergeEvent(
                absorbed_ids=(cid, hit.cluster_id),
                surviving_id=survivor,
                similarity=hit.similarity,
                kept_from=None if winner is None else winner.cluster_id,
            ))
            # re-process the merged vector at the current position
            work[i] = survivor
        else:
            i += 1
    report.clusters_after = len(index)
    return report


def oracle_moving_average(old, incoming, weight):
    moved = old + (incoming - old) / (weight + 1)
    return moved / np.linalg.norm(moved)


def oracle_merge(v_i, w_i, v_j, w_j):
    v = (w_i * v_i + w_j * v_j) / (w_i + w_j)
    return v / np.linalg.norm(v)


def oracle_embed(content, provider, layers):
    """A line's vector by the two-layer formula, computed afresh: the
    provider's vector with the word count over 100 appended, through w1
    and b1, then w2 and b2, scaled to unit length."""
    fused = np.append(provider.embed(content), len(content.split()) / 100.0)
    out = layers.w2 @ (layers.w1 @ fused + layers.b1) + layers.b2
    return out / np.linalg.norm(out)


class OraclePipeline(Pipeline):
    """Pipeline given the encoder's two layers, whose every line, repeated
    or not and in either mode, is embedded on its own by oracle_embed: no
    content cache, no collapsed map and no batch encode."""

    def __init__(self, provider, layers, *args, **kwargs):
        super().__init__(provider, layers.collapse(), *args, **kwargs)
        self.layers = layers

    def _embed(self, records):
        return [(r, oracle_embed(r.content, self.provider, self.layers))
                for r in records], []
