"""Independent brute-force oracles the tests check the library against.

These deliberately avoid the library's own code paths: groupings are
compared by exhaustive membership enumeration, the nearest neighbor by a
full scan, the merge/update algebra by the closed-form expressions, and
each line's vector by the two-layer encoder formula, recomputed per line.
"""

import numpy as np

from logsift import Pipeline


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
