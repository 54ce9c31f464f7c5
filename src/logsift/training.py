"""Encoder fine-tuning on labeled embedding pairs.

Each log is fused once, as ingest fuses it, into one matrix. A pair is two
of its rows, labeled 1 (same ground-truth template) or 0 (different
templates), sampled dissimilar-heavy at a configurable ratio.
The encoder is trained as two affine layers (`EncoderLayers`) with
mini-batch Adam to minimize the MSE between the predicted cosine
similarity of the encoded pair and the label; `EncoderLayers.collapse`
multiplies the result out into the one map inference and weights files
use (`EncoderWeights`). The backward pass is hand-rolled; gradient_check
validates it against a central finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .embedding import EmbeddingProvider, EncoderWeights, _fuse
from .errors import ConfigError, DegenerateEmbeddingError
from .index import NORM_EPS
from .records import LogRecord

GRADIENT_CHECK_PARAMS = 200  # entries sampled per parameter array
GRADIENT_CHECK_SEED = 0
LOSS_CHUNK_ROWS = 2048  # pairs per forward pass of a full-dataset loss


@dataclass
class EncoderLayers:
    """The encoder as training holds it: two affine layers mapping the fused
    (D+1)-vector to the clustering space, updated in place.

    w1: (H, D+1), b1: (H,), w2: (E, H), b2: (E,). No activation between the
    layers, so they compose to one map (`collapse`).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        try:
            self.w1, self.b1, self.w2, self.b2 = (
                np.asarray(a, dtype=np.float64) for a in (self.w1, self.b1, self.w2, self.b2))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"encoder weights are not float arrays: {exc}") from exc
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ConfigError("encoder weight matrices w1 and w2 must be 2-D")
        h = self.w1.shape[0]
        e, h2 = self.w2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (e,):
            raise ConfigError("encoder weight dimensions are inconsistent")
        for a in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(a)):
                raise ConfigError("encoder weights contain non-finite entries")

    @classmethod
    def identity_init(cls, provider_dim: int) -> "EncoderLayers":
        """Identity start: layer 1 passes the fused (D+1)-vector through and
        layer 2 drops the word-count column, so the layers collapse to
        `EncoderWeights.identity_init`."""
        d_in = provider_dim + 1
        return cls(w1=np.eye(d_in), b1=np.zeros(d_in),
                   w2=np.eye(provider_dim, d_in), b2=np.zeros(provider_dim))

    def collapse(self) -> EncoderWeights:
        """The two layers as one map, matrix w2 @ w1 and bias w2 @ b1 + b2,
        computed from the layers as they are now: later in-place updates
        do not reach it."""
        return EncoderWeights(self.w2 @ self.w1, self.w2 @ self.b1 + self.b2)

    def copy(self) -> "EncoderLayers":
        return EncoderLayers(self.w1.copy(), self.b1.copy(),
                             self.w2.copy(), self.b2.copy())


@dataclass(frozen=True, eq=False)
class PairDataset:
    """Labeled pairs as rows of one matrix: pair k compares rows pairs[k, 0]
    and pairs[k, 1] of `features` (n, D+1), and labels[k] is its target
    similarity. `pairs` is an (m, 2) integer array, `labels` an (m,) one."""

    features: np.ndarray
    pairs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        n, m = len(self.features), len(self.labels)
        if self.pairs.shape != (m, 2) or (
                m and not 0 <= self.pairs.min() <= self.pairs.max() < n):
            raise ValueError(f"pairs {self.pairs.shape} are not {m} pairs of rows < {n}")

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
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if min(self.batch_size, self.pairs_per_dataset) < 1 or self.epochs < 0:
            raise ConfigError("batch_size/epochs/pairs_per_dataset out of range")
        ratio = Fraction(self.similar_to_dissimilar_ratio)
        if ratio <= 0 or ratio > 1:
            raise ConfigError("ratio must be dissimilar-heavy (numerator <= denominator)")
        self.similar_to_dissimilar_ratio = ratio


def build_pair_dataset(datasets: list[list[tuple[LogRecord, object]]],
                       cfg: TrainConfig, provider: EmbeddingProvider) -> PairDataset:
    """Fuse the logs of all `datasets` into one matrix, as ingest does, and
    sample similar/dissimilar pairs of rows within each at the configured ratio.

    Similar pairs are uniform over within-template log pairs, dissimilar
    pairs uniform over cross-template log pairs; both with replacement, so
    the requested count is always met. Each dataset is seeded alike, with
    `cfg.rng_seed`. The first log the provider cannot embed raises its
    error, and no later one is embedded.
    """
    ratio = cfg.similar_to_dissimilar_ratio
    n_similar = round(cfg.pairs_per_dataset * ratio.numerator
                      / (ratio.numerator + ratio.denominator))
    n_dissimilar = cfg.pairs_per_dataset - n_similar
    pairs: list[tuple[int, int]] = []
    offset = 0  # of the dataset's first row in the matrix
    for labeled in datasets:
        templates = [template_id for _, template_id in labeled]
        groups: dict[object, list[int]] = {}
        for i, template_id in enumerate(templates):
            groups.setdefault(template_id, []).append(i)
        if len(groups) < 2:
            raise ConfigError("need at least 2 distinct templates to form dissimilar pairs")
        pairable = [members for members in groups.values() if len(members) >= 2]
        if not pairable:
            raise ConfigError("need at least one template with >= 2 logs for similar pairs")

        rng = np.random.default_rng(cfg.rng_seed)
        pair_counts = np.array([len(m) * (len(m) - 1) // 2 for m in pairable],
                               dtype=np.float64)
        weights = pair_counts / pair_counts.sum()
        for _ in range(n_similar):
            members = pairable[rng.choice(len(pairable), p=weights)]
            i, j = rng.choice(len(members), size=2, replace=False)
            pairs.append((offset + members[i], offset + members[j]))
        n = len(templates)
        for _ in range(n_dissimilar):
            while True:
                i, j = rng.integers(n), rng.integers(n)
                if templates[i] != templates[j]:
                    break
            pairs.append((offset + i, offset + j))
        offset += n

    features, _ = _fuse([record for labeled in datasets for record, _ in labeled],
                        provider, raise_first=True)
    labels = np.tile(np.repeat([1.0, 0.0], [n_similar, n_dissimilar]), len(datasets))
    return PairDataset(features, np.array(pairs, dtype=np.intp).reshape(-1, 2), labels)


def _forward(left, right, w: EncoderLayers):
    hl = left @ w.w1.T + w.b1
    hr = right @ w.w1.T + w.b1
    u = hl @ w.w2.T + w.b2
    v = hr @ w.w2.T + w.b2
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    sim = np.sum(u * v, axis=1) / (nu * nv)
    return hl, hr, u, v, nu, nv, sim


def predict_similarity(left, right, layers: EncoderLayers) -> float:
    """Cosine similarity of the two fused vectors once encoded, in [-1, 1]."""
    _, _, _, _, nu, nv, sim = _forward(left[None, :], right[None, :], layers)
    if min(nu[0], nv[0]) < NORM_EPS:
        raise DegenerateEmbeddingError("encoded pair member has near-zero norm")
    return float(np.clip(sim[0], -1.0, 1.0))


def mse_loss(dataset: PairDataset, layers: EncoderLayers) -> float:
    """Mean squared error between predicted cosine similarity and labels."""
    if not len(dataset):
        raise ValueError("empty batch")
    return _loss(dataset, layers)


def _loss(dataset: PairDataset, w: EncoderLayers) -> float:
    """The MSE summed over chunks of pairs, so a loss over the whole dataset
    holds a chunk's rows and activations at a time, not the dataset's."""
    total = 0.0
    for start in range(0, len(dataset), LOSS_CHUNK_ROWS):
        left, right, labels = dataset.gather(slice(start, start + LOSS_CHUNK_ROWS))
        *_, sim = _forward(left, right, w)
        total += float(np.sum((labels - sim) ** 2))
    return total / len(dataset)


def _gradients(left, right, labels, w: EncoderLayers):
    """Analytic gradients of the batch MSE w.r.t. all four parameters."""
    n = left.shape[0]
    hl, hr, u, v, nu, nv, sim = _forward(left, right, w)
    dsim = (-2.0 / n) * (labels - sim)  # dL/d(sim), per pair
    inv = 1.0 / (nu * nv)
    g_u = dsim[:, None] * (v * inv[:, None] - (sim / nu**2)[:, None] * u)
    g_v = dsim[:, None] * (u * inv[:, None] - (sim / nv**2)[:, None] * v)
    d_w2 = g_u.T @ hl + g_v.T @ hr
    d_b2 = (g_u + g_v).sum(axis=0)
    g_hl = g_u @ w.w2
    g_hr = g_v @ w.w2
    d_w1 = g_hl.T @ left + g_hr.T @ right
    d_b1 = (g_hl + g_hr).sum(axis=0)
    return d_w1, d_b1, d_w2, d_b2


@dataclass
class TrainResult:
    layers: EncoderLayers
    loss_trace: list[float] = field(default_factory=list)


def train(dataset: PairDataset, cfg: TrainConfig,
          initial: EncoderLayers | None = None) -> TrainResult:
    """Shuffled mini-batch Adam (beta1=0.9, beta2=0.999, eps=1e-8).

    Starts from identity-padded layers unless given. The loss trace holds
    the full-dataset loss before training and after each epoch. Aborts on a
    non-finite loss.
    """
    if not len(dataset):
        raise ValueError("no training pairs")
    layers = (initial.copy() if initial is not None
              else EncoderLayers.identity_init(dataset.features.shape[1] - 1))

    params = [layers.w1, layers.b1, layers.w2, layers.b2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    rng = np.random.default_rng(cfg.rng_seed)
    trace = [_loss(dataset, layers)]
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grads = _gradients(*dataset.gather(batch), layers)
            step += 1
            for p, g, m_i, v_i in zip(params, grads, m, v):
                m_i += (1 - beta1) * (g - m_i)
                v_i += (1 - beta2) * (g * g - v_i)
                m_hat = m_i / (1 - beta1**step)
                v_hat = v_i / (1 - beta2**step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        epoch_loss = _loss(dataset, layers)
        if not np.isfinite(epoch_loss):
            raise ArithmeticError(
                f"non-finite loss after epoch {len(trace)}; lower the learning rate"
            )
        trace.append(epoch_loss)
    return TrainResult(layers=layers, loss_trace=trace)


def gradient_check(layers: EncoderLayers, small_batch: PairDataset,
                   h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over a sampled parameter subset."""
    if not 1 <= len(small_batch) <= 8:
        raise ValueError("small_batch must hold 1..8 pairs")
    if not 1e-6 <= h <= 1e-4:
        raise ValueError("h out of supported range")
    w = layers.copy()
    analytic = _gradients(*small_batch.gather(slice(None)), w)
    params = [w.w1, w.b1, w.w2, w.b2]
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
            plus = _loss(small_batch, w)
            flat[k] = orig - h
            minus = _loss(small_batch, w)
            flat[k] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(numeric) + abs(g_flat[k]), 1e-8)
            worst = max(worst, abs(numeric - g_flat[k]) / denom)
    return worst
