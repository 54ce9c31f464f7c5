"""Log embedding: provider vector, word-count fusion, linear encoder, normalization.

The final vector for a log is computed in three steps: a text-embedding
provider maps the content to a D-vector, the whitespace word count is
appended as one scaled feature, and an affine encoder projects the fused
vector before L2 normalization. Cosine similarity between two logs is
then a plain dot product.

The encoder has no activation, so its two layers are one affine map.
`EncoderWeights` is that map, read-only, and what a weights file stores;
training keeps the two factors (`training.EncoderLayers`) and multiplies
them out once. Every caller embeds with the map through `embed_log`: a
provider call per record, written with its word count into one matrix,
then one matrix product for all. A record alone gets the same vector bit
for bit whoever embeds it; a row of a larger product can differ in the
last bits, as BLAS orders its sums by the row's position (not at identity
weights, where every sum is exact). The vector depends on the content
alone, so `Pipeline` embeds each distinct line once and keeps its vector
(see `logsift.ingest`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionMismatchError,
    ProviderError,
)
from .files import atomic_write, decode_floats, encode_floats
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


# tokens whose buckets a HashingProvider remembers; a full memo starts
# afresh. Full of 24-character tokens it takes about 1.9 MB
BUCKET_MEMO_ENTRIES = 1 << 14


class _BucketMemo(dict):
    """token -> bucket, each token hashed on its first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        if len(self) >= BUCKET_MEMO_ENTRIES:
            self.clear()
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        self[token] = bucket = int.from_bytes(digest, "big") % self.dim
        return bucket


class HashingProvider(EmbeddingProvider):
    """Deterministic local provider: L2-normalized bag of hashed tokens.

    Each whitespace token is hashed with blake2b into one of `dim` buckets.
    Two logs get a high cosine similarity exactly when they share most of
    their tokens, which is enough to exercise the full pipeline offline.
    Log lines repeat their template's tokens, so each provider remembers
    the bucket of each token it hashes, up to BUCKET_MEMO_ENTRIES tokens,
    then starts afresh. A bucket depends on the token alone, so the memo
    leaves every vector as it is.
    """

    DIM = 512

    def __init__(self, dim: int = DIM):
        if dim < 2:
            raise ConfigError("provider dimension must be >= 2")
        self.dim = dim
        self._buckets = _BucketMemo(dim)

    def embed(self, text: str) -> np.ndarray:
        counts = np.bincount([*map(self._buckets.__getitem__, text.split())],
                             minlength=self.dim)
        norm = math.sqrt(counts.dot(counts))  # np.linalg.norm's value
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


WEIGHTS_VERSION = 2


@dataclass(frozen=True)
class EncoderWeights:
    """The encoder, read-only: one affine map from the fused (D+1)-vector
    to the clustering space, `matrix` (E, D+1) and `bias` (E,).

    A weights file (version 2) is JSON metadata, `input_dim` (D+1) and
    `output_dim` (E), with `matrix` (row by row) and `bias` stored as base64
    of their little-endian float64 bytes. Version 1 files hold the two
    factors training keeps (`training.EncoderLayers`) as JSON float lists;
    they still load, multiplied out once as `EncoderLayers.collapse` does,
    to the same map bit for bit.
    """

    matrix: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        try:  # copies, so no caller's array can change the map
            matrix = np.array(self.matrix, dtype=np.float64)
            bias = np.array(self.bias, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"encoder weights are not float arrays: {exc}") from exc
        if matrix.ndim != 2 or bias.shape != matrix.shape[:1]:
            raise ConfigError(f"encoder matrix {matrix.shape} and bias {bias.shape} "
                              "do not make an affine map")
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(bias))):
            raise ConfigError("encoder weights contain non-finite entries")
        matrix.flags.writeable = bias.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "bias", bias)

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity_init(cls, provider_dim: int) -> "EncoderWeights":
        """The map that passes the provider embedding through and drops the
        word-count column, so a line's vector is its raw provider embedding."""
        return cls(np.eye(provider_dim, provider_dim + 1), np.zeros(provider_dim))

    def save(self, path: str) -> None:
        doc = {
            "version": WEIGHTS_VERSION,
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "matrix": encode_floats(self.matrix),
            "bias": encode_floats(self.bias),
        }
        with atomic_write(path) as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "EncoderWeights":
        """Read a version 2 weights file, or a version 1 one. A file that
        does not hold one whole, finite map is a ConfigError."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"cannot parse weights file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"weights file {path} is not a JSON object")
        if doc.get("version") not in (1, WEIGHTS_VERSION):
            raise ConfigError(f"unsupported weights file version: {doc.get('version')!r}")
        try:
            if doc["version"] == 1:
                from .training import EncoderLayers  # here: training imports this module
                layers = EncoderLayers(*(doc[key] for key in ("w1", "b1", "w2", "b2")))
                return layers.collapse()
            rows, cols = doc["output_dim"], doc["input_dim"]
            if type(rows) is not int or type(cols) is not int or min(rows, cols) < 1:
                raise ValueError(f"dims {rows!r} x {cols!r} are not positive integers")
            matrix, bias = decode_floats(doc["matrix"]), decode_floats(doc["bias"])
            if (matrix.size, bias.size) != (rows * cols, rows):
                raise ValueError(f"{matrix.size} matrix and {bias.size} bias floats "
                                 f"do not make a {rows} x {cols} map")
            return cls(matrix.reshape(rows, cols), bias)
        except KeyError as exc:
            raise ConfigError(f"weights file {path} lacks {exc}") from exc
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise ConfigError(f"malformed weights file {path}: {exc}") from exc


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
              encoder: EncoderWeights) -> list[np.ndarray | Exception]:
    """Full pipeline for each record: provider embedding -> word-count
    fusion, then the encoder applied to every record the provider embedded
    with one matrix product, and each row scaled to unit length.

    Each provider vector and its word-count feature are written into one
    (n, D+1) matrix, whose finiteness is checked at once; its finite rows,
    in record order, are what the encoder multiplies, as they would be
    fused one by one. Returns, per record, its unit vector (an array of its
    own) or the RECORD_ERRORS instance that stopped it: a row shorter than
    NORM_EPS has no direction, and one whose norm overflows (finite
    provider values above about 1e154) cannot be scaled; numpy's overflow
    warning is silenced, as that record's error says it. A dimension
    mismatch, which every record would hit, raises."""
    outcomes: list = [None] * len(records)
    fused = np.empty((len(records), provider.dim + 1))
    for i, record in enumerate(records):
        try:
            values = provider.embed(record.content)
        except RECORD_ERRORS as exc:
            outcomes[i] = exc
            fused[i] = np.nan  # dropped with the non-finite rows
            continue
        if values.shape != (provider.dim,):
            raise DimensionMismatchError(
                f"provider dim {values.shape} != configured {provider.dim}")
        fused[i, :-1] = values
        fused[i, -1] = record.word_count / WORD_COUNT_SCALE
    if not np.isfinite(fused).all():
        finite = np.isfinite(fused).all(axis=1)
        for i in np.flatnonzero(~finite).tolist():
            if outcomes[i] is None:
                outcomes[i] = ProviderError("provider returned non-finite values")
        fused = fused[finite]
    embedded = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if embedded:
        with np.errstate(over="ignore"):
            out = fused @ encoder.matrix.T
            out += encoder.bias  # in place: the same sums, no second matrix
            norms = [math.sqrt(row.dot(row)) for row in out]  # np.linalg.norm's value
        for i, row, norm in zip(embedded, out, norms):
            outcomes[i] = (row / norm if NORM_EPS <= norm < math.inf else
                           DegenerateEmbeddingError(f"encoder output norm {norm:.3g} "
                                                    "cannot be scaled to unit length"))
    return outcomes
