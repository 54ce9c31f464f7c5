"""Encoder fine-tuning on labeled embedding pairs.

Each log is fused once, as ingest fuses it, into one matrix. A pair is two
of its rows, labeled 1 (same ground-truth template) or 0 (different
templates), sampled dissimilar-heavy at a configurable ratio, and a fixed
share of each dataset's templates is held out of fitting. The encoder is
the one affine map inference and weights files use (`EncoderWeights`),
trained with mini-batch Adam to minimize the MSE between the predicted
cosine similarity of the encoded pair and the label; `train` returns the
map of the epoch whose held-out loss is least. The backward pass is
hand-rolled; gradient_check validates it against a central
finite-difference oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embedding import NON_FINITE, EmbeddingProvider, EncoderWeights, _fuse
from .errors import ConfigError, DegenerateEmbeddingError, ProviderError
from .index import NORM_EPS
from .records import LogRecord

GRADIENT_CHECK_PARAMS = 200  # entries sampled per parameter array
GRADIENT_CHECK_SEED = 0
LOSS_CHUNK_ROWS = 2048  # pairs per forward pass of a full-dataset loss
# of each dataset's templates with two or more logs, and of its similar and
# its dissimilar pairs, held out of fitting to pick the epoch `train` returns
HOLDOUT_SHARE = Fraction(1, 5)


@dataclass(frozen=True, eq=False)
class PairDataset:
    """Labeled pairs as rows of one matrix: pair k compares rows pairs[k, 0]
    and pairs[k, 1] of `features` (n, D+1), and labels[k] is its target
    similarity. `pairs` is an (m, 2) integer array, `labels` an (m,) one,
    and `held_out` an (m,) bool one marking the pairs `train` does not fit
    but scores each epoch by; by default none is held out."""

    features: np.ndarray
    pairs: np.ndarray
    labels: np.ndarray
    held_out: np.ndarray | None = None

    def __post_init__(self):
        n, m = len(self.features), len(self.labels)
        if self.pairs.shape != (m, 2) or (
                m and not 0 <= self.pairs.min() <= self.pairs.max() < n):
            raise ValueError(f"pairs {self.pairs.shape} are not {m} pairs of rows < {n}")
        if self.held_out is None:
            object.__setattr__(self, "held_out", np.zeros(m, dtype=bool))
        elif self.held_out.dtype != bool or self.held_out.shape != (m,):
            raise ValueError(f"held_out is not {m} bools, one per pair")

    def __len__(self) -> int:
        return len(self.labels)

    def gather(self, rows):
        """The left rows, right rows and labels of the pairs `rows` selects
        (a slice or an index array), each gathered into an array of its own."""
        return (self.features[self.pairs[rows, 0]], self.features[self.pairs[rows, 1]],
                self.labels[rows])


@dataclass
class TrainConfig:
    learning_rate: float = 0.0005
    batch_size: int = 2048
    epochs: int = 50
    pairs_per_dataset: int = 24000
    similar_to_dissimilar_ratio: Fraction = Fraction(1, 5)
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and >= 0")
        if min(self.batch_size, self.pairs_per_dataset) < 1 or self.epochs < 0:
            raise ConfigError("batch_size/epochs/pairs_per_dataset out of range")
        ratio = Fraction(self.similar_to_dissimilar_ratio)
        if ratio <= 0 or ratio > 1:
            raise ConfigError("ratio must be dissimilar-heavy (numerator <= denominator)")
        self.similar_to_dissimilar_ratio = ratio


def build_pair_dataset(datasets: list[list[tuple[LogRecord, object]]],
                       cfg: TrainConfig, provider: EmbeddingProvider) -> PairDataset:
    """Fuse each log of all `datasets` as ingest does, into a row of one
    matrix, and sample similar/dissimilar pairs of rows within each at the
    configured ratio.

    Similar pairs are uniform over within-template log pairs, dissimilar
    pairs uniform over cross-template log pairs; both with replacement, so
    the requested count is always met. Each dataset is seeded alike, with
    `cfg.rng_seed`. A dataset with P templates of two or more logs holds
    out P * HOLDOUT_SHARE of them, rounded down and drawn at random, when
    that makes 2 or more (P >= 10 at a share of 1/5); otherwise none.
    HOLDOUT_SHARE of its similar and of its dissimilar pairs, rounded, are
    then drawn among the held-out templates' logs and marked `held_out`,
    and the rest among the other logs, so no pair mixes the two. The first
    log the provider cannot embed raises its error, and no later one is
    embedded.
    """
    ratio = cfg.similar_to_dissimilar_ratio
    n_similar = round(cfg.pairs_per_dataset * ratio.numerator
                      / (ratio.numerator + ratio.denominator))
    n_dissimilar = cfg.pairs_per_dataset - n_similar
    pairs: list[tuple[int, int]] = []
    labels: list[float] = []
    held_out: list[bool] = []
    offset = 0  # of the dataset's first row in the matrix
    for labeled in datasets:
        templates = [template_id for _, template_id in labeled]
        sizes = Counter(templates)
        if len(sizes) < 2:
            raise ConfigError("need at least 2 distinct templates to form dissimilar pairs")
        pairable = [template_id for template_id, size in sizes.items() if size >= 2]
        if not pairable:
            raise ConfigError("need at least one template with >= 2 logs for similar pairs")

        rng = np.random.default_rng(cfg.rng_seed)
        n_held = int(len(pairable) * HOLDOUT_SHARE)
        held, held_similar, held_dissimilar = set(), 0, 0
        if n_held >= 2:  # fewer form no dissimilar pair
            held = {pairable[k] for k in rng.choice(len(pairable), n_held, replace=False)}
            held_similar = round(n_similar * HOLDOUT_SHARE)
            held_dissimilar = round(n_dissimilar * HOLDOUT_SHARE)
        for part, similar, dissimilar in (
                (False, n_similar - held_similar, n_dissimilar - held_dissimilar),
                (True, held_similar, held_dissimilar)):
            rows = [i for i, t in enumerate(templates) if (t in held) == part]
            pairs += [(offset + i, offset + j) for i, j in
                      _draw_pairs(rows, templates, similar, dissimilar, rng)]
            labels += [1.0] * similar + [0.0] * dissimilar
            held_out += [part] * (similar + dissimilar)
        offset += len(templates)

    records = [record for labeled in datasets for record, _ in labeled]
    features = np.empty((len(records), provider.dim + 1))
    for i, record in enumerate(records):
        features[i] = row = _fuse(record, provider)
        if not np.isfinite(row).all():
            raise ProviderError(NON_FINITE)
    return PairDataset(features, np.array(pairs, dtype=np.intp).reshape(-1, 2),
                       np.array(labels), np.array(held_out, dtype=bool))


def _draw_pairs(rows, templates, n_similar, n_dissimilar, rng) -> list[tuple[int, int]]:
    """`n_similar` pairs of `rows` of one template, then `n_dissimilar` of
    two templates, with replacement; unless no pair is asked for, `rows`
    holds two templates or more, one of them with two rows or more."""
    groups: dict[object, list[int]] = {}
    for i in rows:
        groups.setdefault(templates[i], []).append(i)
    pairable = [members for members in groups.values() if len(members) >= 2]
    pair_counts = np.array([len(m) * (len(m) - 1) // 2 for m in pairable], dtype=np.float64)
    weights = pair_counts / pair_counts.sum()
    pairs = []
    for _ in range(n_similar):
        members = pairable[rng.choice(len(pairable), p=weights)]
        i, j = rng.choice(len(members), size=2, replace=False)
        pairs.append((members[i], members[j]))
    for _ in range(n_dissimilar):
        while True:
            i, j = rows[rng.integers(len(rows))], rows[rng.integers(len(rows))]
            if templates[i] != templates[j]:
                break
        pairs.append((i, j))
    return pairs


def _forward(left, right, matrix, bias):
    u = left @ matrix.T + bias
    v = right @ matrix.T + bias
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    sim = np.sum(u * v, axis=1) / (nu * nv)
    return u, v, nu, nv, sim


def predict_similarity(left, right, weights: EncoderWeights) -> float:
    """Cosine similarity of the two fused vectors once encoded, in [-1, 1]."""
    _, _, nu, nv, sim = _forward(left[None, :], right[None, :], weights.matrix, weights.bias)
    if min(nu[0], nv[0]) < NORM_EPS:
        raise DegenerateEmbeddingError("encoded pair member has near-zero norm")
    return float(np.clip(sim[0], -1.0, 1.0))


def mse_loss(dataset: PairDataset, weights: EncoderWeights) -> float:
    """Mean squared error between predicted cosine similarity and labels."""
    if not len(dataset):
        raise ValueError("empty batch")
    return _loss(dataset, weights.matrix, weights.bias)


def _loss(dataset: PairDataset, matrix, bias) -> float:
    """The MSE summed over chunks of pairs, so a loss over the whole dataset
    holds a chunk's rows and activations at a time, not the dataset's."""
    total = 0.0
    for start in range(0, len(dataset), LOSS_CHUNK_ROWS):
        left, right, labels = dataset.gather(slice(start, start + LOSS_CHUNK_ROWS))
        *_, sim = _forward(left, right, matrix, bias)
        total += float(np.sum((labels - sim) ** 2))
    return total / len(dataset)


def _gradients(left, right, labels, matrix, bias):
    """Analytic gradients of the batch MSE w.r.t. the matrix and the bias."""
    n = left.shape[0]
    u, v, nu, nv, sim = _forward(left, right, matrix, bias)
    dsim = (-2.0 / n) * (labels - sim)  # dL/d(sim), per pair
    inv = 1.0 / (nu * nv)
    g_u = dsim[:, None] * (v * inv[:, None] - (sim / nu**2)[:, None] * u)
    g_v = dsim[:, None] * (u * inv[:, None] - (sim / nv**2)[:, None] * v)
    return g_u.T @ left + g_v.T @ right, (g_u + g_v).sum(axis=0)


@dataclass
class TrainResult:
    """The map `train` returns, that of epoch `epoch`, and the loss before
    training and after each epoch over the pairs it fitted (`loss_trace`)
    and over the held-out ones (`held_out_loss_trace`, empty when none is
    held out)."""

    weights: EncoderWeights
    loss_trace: list[float]
    held_out_loss_trace: list[float]
    epoch: int


def train(dataset: PairDataset, cfg: TrainConfig,
          initial: EncoderWeights | None = None) -> TrainResult:
    """Shuffled mini-batch Adam (beta1=0.9, beta2=0.999, eps=1e-8) on the
    pairs not held out, for every epoch of `cfg`.

    Starts from the identity map unless given one. Returns the map of the
    epoch whose held-out loss is least, the earliest of equals, epoch 0 (the
    start) included; with no held-out pairs, the map after the last epoch.
    A loss that is not finite, as a learning rate too large for the data
    gives, is a ConfigError.
    """
    held = dataset.held_out
    fit = PairDataset(dataset.features, dataset.pairs[~held], dataset.labels[~held])
    check = PairDataset(dataset.features, dataset.pairs[held], dataset.labels[held])
    if not len(fit):
        raise ValueError("no training pairs")
    if initial is None:
        initial = EncoderWeights.identity_init(dataset.features.shape[1] - 1)
    params = [initial.matrix.copy(), initial.bias.copy()]  # writable, updated in place
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    rng = np.random.default_rng(cfg.rng_seed)
    trace: list[float] = []
    held_out_trace: list[float] = []
    best, best_epoch = None, cfg.epochs
    # a map that diverges is caught from its loss, after the epoch
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs + 1):
            if epoch:
                order = rng.permutation(len(fit))
                for start in range(0, len(fit), cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    grads = _gradients(*fit.gather(batch), *params)
                    step += 1
                    for p, g, m_i, v_i in zip(params, grads, m, v):
                        m_i += (1 - beta1) * (g - m_i)
                        v_i += (1 - beta2) * (g * g - v_i)
                        m_hat = m_i / (1 - beta1**step)
                        v_hat = v_i / (1 - beta2**step)
                        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            loss = _loss(fit, *params)
            held_out_loss = _loss(check, *params) if len(check) else 0.0
            if not math.isfinite(loss + held_out_loss):
                raise ConfigError(f"non-finite loss after epoch {epoch}; "
                                  "lower the learning rate")
            trace.append(loss)
            if len(check):
                if held_out_loss < min(held_out_trace, default=math.inf):
                    best, best_epoch = EncoderWeights(*params), epoch
                held_out_trace.append(held_out_loss)
    return TrainResult(best or EncoderWeights(*params), trace, held_out_trace, best_epoch)


def gradient_check(weights: EncoderWeights, small_batch: PairDataset,
                   h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over a sampled parameter subset."""
    if not 1 <= len(small_batch) <= 8:
        raise ValueError("small_batch must hold 1..8 pairs")
    if not 1e-6 <= h <= 1e-4:
        raise ValueError("h out of supported range")
    params = [weights.matrix.copy(), weights.bias.copy()]
    analytic = _gradients(*small_batch.gather(slice(None)), *params)
    rng = np.random.default_rng(GRADIENT_CHECK_SEED)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.reshape(-1)
        g_flat = g.reshape(-1)
        count = min(GRADIENT_CHECK_PARAMS, flat.size)
        picks = rng.choice(flat.size, size=count, replace=False)
        for k in picks:
            orig = flat[k]
            flat[k] = orig + h
            plus = _loss(small_batch, *params)
            flat[k] = orig - h
            minus = _loss(small_batch, *params)
            flat[k] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(numeric) + abs(g_flat[k]), 1e-8)
            worst = max(worst, abs(numeric - g_flat[k]) / denom)
    return worst
