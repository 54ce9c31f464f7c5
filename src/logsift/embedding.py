"""Log embedding: provider vector, word-count fusion, linear encoder, normalization.

The final vector for a log is computed in three steps: a text-embedding
provider maps the content to a D-vector, the whitespace word count is
appended as one scaled feature, and an affine encoder projects the fused
vector before L2 normalization. Cosine similarity between two logs is
then a plain dot product.

The encoder has no activation, so its two layers are one affine map.
`EncoderWeights` keeps them as the two factors that training updates and
the weights file stores; `EncoderWeights.collapse` multiplies them out
into a frozen `AffineMap`, the one form every caller embeds with, through
`embed_log`: a provider call per record, then one matrix product for all.
A record alone gets the same vector bit for bit whoever embeds it; a row
of a larger product can differ in the last bits, as BLAS orders its sums
by the row's position (not at identity weights, where every sum is
exact). The vector depends on the content alone, so `Pipeline` embeds
each distinct line once and keeps its vector (see `logsift.ingest`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionMismatchError,
    ProviderError,
)
from .files import atomic_write
from .index import NORM_EPS
from .records import LogRecord
from .remote import api_key, post_json

WORD_COUNT_SCALE = 100.0
# what fails one record's embedding; a dimension mismatch fails them all
RECORD_ERRORS = (ProviderError, DegenerateEmbeddingError)


class EmbeddingProvider:
    """Interface: map text to a fixed-dimension float vector."""

    dim: int

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError


class HashingProvider(EmbeddingProvider):
    """Deterministic local provider: L2-normalized bag of hashed tokens.

    Each whitespace token is hashed with blake2b into one of `dim` buckets.
    Two logs get a high cosine similarity exactly when they share most of
    their tokens, which is enough to exercise the full pipeline offline.
    """

    DIM = 512

    def __init__(self, dim: int = DIM):
        if dim < 2:
            raise ConfigError("provider dimension must be >= 2")
        self.dim = dim

    def _bucket(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dim

    def embed(self, text: str) -> np.ndarray:
        counts = np.zeros(self.dim, dtype=np.float64)
        for token in text.split():
            counts[self._bucket(token)] += 1.0
        norm = np.linalg.norm(counts)
        if norm < NORM_EPS:
            raise DegenerateEmbeddingError("no tokens to hash")
        return counts / norm


class RemoteProvider(EmbeddingProvider):
    """HTTP JSON embedding client.

    Request body: {"model": ..., "input": text}; response body must carry
    one float array under "embedding". The API key is read from the
    environment variable named in the config, never written out.
    """

    TIMEOUT_S = 30.0
    KEY_ENV = "EMBEDDING_API_KEY"

    def __init__(self, url: str, model: str, dim: int, api_key_env: str = KEY_ENV):
        self.url = url
        self.model = model
        self.dim = dim
        self._key = api_key(api_key_env)

    def embed(self, text: str) -> np.ndarray:
        values = post_json(self.url, self._key, {"model": self.model, "input": text},
                           self.TIMEOUT_S, "embedding")
        try:
            return np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"embedding is not a float array: {exc!r}") from exc


@dataclass(frozen=True)
class AffineMap:
    """The encoder's two layers multiplied out, read-only: matrix (E, D+1)
    is w2 @ w1 and bias (E,) is w2 @ b1 + b2."""

    matrix: np.ndarray
    bias: np.ndarray


@dataclass
class EncoderWeights:
    """Two affine layers mapping the fused (D+1)-vector to the clustering space.

    w1: (H, D+1), b1: (H,), w2: (E, H), b2: (E,). No activation between the
    layers; the composition is still trained as two separate factors.
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
        h, d_in = self.w1.shape
        e, h2 = self.w2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (e,):
            raise ConfigError("encoder weight dimensions are inconsistent")
        for a in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(a)):
                raise ConfigError("encoder weights contain non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[0]

    @classmethod
    def identity_init(cls, provider_dim: int) -> "EncoderWeights":
        """Identity start: layer 1 passes the fused (D+1)-vector through and
        layer 2 drops the word-count column, so the encoder initially
        reproduces the raw provider embedding."""
        d_in = provider_dim + 1
        return cls(w1=np.eye(d_in), b1=np.zeros(d_in),
                   w2=np.eye(provider_dim, d_in), b2=np.zeros(provider_dim))

    def collapse(self) -> AffineMap:
        """The two layers as one map, computed from the weights as they are
        now: later in-place updates (training) do not reach it."""
        matrix = self.w2 @ self.w1
        bias = self.w2 @ self.b1 + self.b2
        matrix.flags.writeable = bias.flags.writeable = False
        return AffineMap(matrix, bias)

    def copy(self) -> "EncoderWeights":
        return EncoderWeights(self.w1.copy(), self.b1.copy(),
                              self.w2.copy(), self.b2.copy())

    def save(self, path: str) -> None:
        doc = {
            "version": 1,
            "input_dim": self.input_dim,
            "hidden_dim": self.w1.shape[0],
            "output_dim": self.output_dim,
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
        }
        with atomic_write(path) as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "EncoderWeights":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"cannot parse weights file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"weights file {path} is not a JSON object")
        if doc.get("version") != 1:
            raise ConfigError(f"unsupported weights file version: {doc.get('version')}")
        missing = [key for key in ("w1", "b1", "w2", "b2") if key not in doc]
        if missing:
            raise ConfigError(f"weights file {path} lacks {', '.join(missing)}")
        return cls(w1=doc["w1"], b1=doc["b1"], w2=doc["w2"], b2=doc["b2"])


def embed_raw(record: LogRecord, provider: EmbeddingProvider) -> np.ndarray:
    """Provider embedding of the record content (Algorithm step 1)."""
    values = provider.embed(record.content)
    if values.shape != (provider.dim,):
        raise DimensionMismatchError(
            f"provider dim {values.shape} != configured {provider.dim}"
        )
    if not np.all(np.isfinite(values)):
        raise ProviderError("provider returned non-finite values")
    return values


def fuse_word_count(raw: np.ndarray, word_count: int) -> np.ndarray:
    """Append the scaled word count as one extra feature dimension."""
    if word_count < 1:
        raise ValueError("word_count must be >= 1")
    return np.concatenate([raw, [word_count / WORD_COUNT_SCALE]])


def embed_log(records: Sequence[LogRecord], provider: EmbeddingProvider,
              encoder: AffineMap) -> list[np.ndarray | Exception]:
    """Full pipeline for each record: provider embedding -> word-count
    fusion, then the encoder applied to every record the provider embedded
    with one matrix product, and each row scaled to unit length.

    Returns, per record, its unit vector (an array of its own) or the
    RECORD_ERRORS instance that stopped it, a row shorter than NORM_EPS
    having no direction. A dimension mismatch, which every record would
    hit, raises."""
    outcomes: list = [None] * len(records)
    fused: dict[int, np.ndarray] = {}  # record position -> fused vector
    for i, record in enumerate(records):
        try:
            fused[i] = fuse_word_count(embed_raw(record, provider), record.word_count)
        except RECORD_ERRORS as exc:
            outcomes[i] = exc
    if fused:
        out = np.array(list(fused.values())) @ encoder.matrix.T + encoder.bias
        for i, row in zip(fused, out):
            norm = np.linalg.norm(row)
            outcomes[i] = (DegenerateEmbeddingError("encoder output norm below threshold")
                           if norm < NORM_EPS else row / norm)
    return outcomes
