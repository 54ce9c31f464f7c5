"""
Training the similarity encoder
===============================

The encoder is one affine map (a matrix and a bias) that reshapes raw
provider embeddings (plus a scaled word-count feature) so that cosine
similarity reflects "same template" rather than surface word overlap.
Here we build a toy setting where raw cosine is almost useless -- every
vector shares a large common component -- and train the encoder to
subtract it.

Each pair is two rows of one matrix of vectors, labeled 1.0 (same family)
or 0.0 (different family); the loss is mean squared error between the
encoded cosine and the label. The pairs are built by hand, so none is held
out, and training returns the map after its last epoch.
"""

import numpy as np

from logsift import PairDataset, TrainConfig, train

rng = np.random.default_rng(0)
dim = 8


def draw(family):
    """A vector = big shared component + small family offset + noise."""
    v = np.ones(dim)
    v[7] = 0.05
    v[0 if family == 0 else 4] += 0.5
    return v + rng.normal(scale=0.05, size=dim)


# a pair is two rows of one matrix of vectors, and a label
vectors, pairs, labels = [], [], []
for _ in range(120):
    fam_a, fam_b = rng.integers(2), rng.integers(2)
    vectors += [draw(fam_a), draw(fam_b)]
    pairs.append((len(vectors) - 2, len(vectors) - 1))
    labels.append(1.0 if fam_a == fam_b else 0.0)
dataset = PairDataset(np.stack(vectors), np.array(pairs), np.array(labels))

left, right, _ = dataset.gather(slice(None))
raw_cos = np.sum(left * right, axis=1) / (np.linalg.norm(left, axis=1)
                                          * np.linalg.norm(right, axis=1))
print(f"raw cosine range: {raw_cos.min():.3f} .. {raw_cos.max():.3f} "
      "(families are indistinguishable)")

config = TrainConfig(learning_rate=0.0005, batch_size=16, epochs=50,
                     rng_seed=0)
result = train(dataset, config)

print("\nloss trace (every 10 epochs):")
for epoch in range(0, len(result.loss_trace), 10):
    print(f"  epoch {epoch:3d}: {result.loss_trace[epoch]:.6f}")
print(f"  final:      {result.loss_trace[-1]:.6f}")
ratio = result.loss_trace[-1] / result.loss_trace[0]
print(f"\nfinal/initial loss ratio: {ratio:.4f}")
