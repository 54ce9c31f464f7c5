"""Log embedding: provider vector, word-count fusion, linear encoder, normalization.

The final vector for a log is computed in three steps: a text-embedding
provider maps the content to a D-vector, the whitespace word count is
appended as one scaled feature, and an affine encoder projects the fused
vector before L2 normalization. Cosine similarity between two logs is
then a plain dot product.

The encoder has no activation, so it is one affine map: `EncoderWeights`,
read-only, what training fits and returns, held as the one array a weights
file stores (one `.npy` array, read back with no text decode and no copy).
Every caller embeds with the map through `embed_log`: a
provider call per record, written with its word count into one matrix,
then one matrix product for all; the identity map (the default when no
weights are given) is applied as one add of its +0.0 bias to the provider
columns, which has that product's bytes. A provider row holding NaN or
inf fails its record with a ProviderError, found from the row's norm at
the identity map and before the product at any other. Training fuses its
logs with the same front half, `_fuse`, and stops at the first record
that fails. A record alone gets the same vector bit for bit whoever
embeds it; a row of a larger product can differ in the last bits, as
BLAS orders its sums by the row's position (not at identity weights,
where every sum is exact). The vector depends on the content alone, so
`Pipeline` embeds each distinct line once and keeps its vector (see
`logsift.ingest`).
"""

from __future__ import annotations

import hashlib
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
from .files import FLOAT_BYTES, atomic_write
from .index import NORM_EPS
from .records import LogRecord
from .remote import RemoteClient

WORD_COUNT_SCALE = 100.0
# what fails one record's embedding; a dimension mismatch fails them all
RECORD_ERRORS = (ProviderError, DegenerateEmbeddingError)
NON_FINITE = "provider returned non-finite values"


class EmbeddingProvider:
    """Interface: map text to a fixed-dimension float vector."""

    dim: int

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError


# tokens whose buckets a HashingProvider remembers; a full memo starts
# afresh. Full of 24-character tokens it takes about 1.9 MB
BUCKET_MEMO_ENTRIES = 1 << 14


# copied for each token: a copy skips the constructor's keyword parsing
_BUCKET_HASHER = hashlib.blake2b(digest_size=8)


class _BucketMemo(dict):
    """token -> bucket, each token hashed on its first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        if len(self) >= BUCKET_MEMO_ENTRIES:
            self.clear()
        hasher = _BUCKET_HASHER.copy()
        hasher.update(token.encode("utf-8"))
        self[token] = bucket = int.from_bytes(hasher.digest(), "big") % self.dim
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


class RemoteProvider(RemoteClient, EmbeddingProvider):
    """HTTP JSON embedding client.

    Request body: {"model": ..., "input": text}; response body must carry
    one float array under "embedding". The API key is read from the
    environment variable named in the config, never written out.
    """

    TIMEOUT_S = 30.0
    KEY_ENV = "EMBEDDING_API_KEY"

    def __init__(self, url: str, model: str, dim: int, api_key_env: str = KEY_ENV):
        super().__init__(url, model, api_key_env)
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        values = self._post({"model": self.model, "input": text}, "embedding")
        try:
            return np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"embedding is not a float array: {exc!r}") from exc


NPY_MAGIC = b"\x93NUMPY"  # the first six bytes of every .npy file (NEP 1)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class EncoderWeights:
    """The encoder, read-only: one affine map from the fused (D+1)-vector
    to the clustering space, `matrix` (E, D+1) and `bias` (E,).

    The map is held as one read-only, C-ordered (E, D+2) float64 array:
    the map's D+1 columns, then the bias as the last column. `matrix` is a
    view of it, and `bias` a contiguous copy of its last column, which
    `embed_log` adds to every row. A weights file is that array, one NumPy
    `.npy` array (NEP 1) of little-endian float64, which `load` takes as
    its own and `save` writes as it is.
    """

    matrix: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        try:
            matrix = np.asarray(self.matrix, dtype=np.float64)
            bias = np.asarray(self.bias, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"encoder weights are not float arrays: {exc}") from exc
        if matrix.ndim != 2 or bias.shape != matrix.shape[:1]:
            raise ConfigError(f"encoder matrix {matrix.shape} and bias {bias.shape} "
                              "do not make an affine map")
        packed = np.empty((len(bias), matrix.shape[1] + 1))  # C order, whatever the caller's
        packed[:, :-1], packed[:, -1] = matrix, bias  # a copy: no caller's array can change it
        self._hold(packed)

    def _hold(self, packed: np.ndarray) -> "EncoderWeights":
        """Take the C-ordered (E, D+2) float64 `packed`, without a copy, as
        the array of this map, which it returns."""
        # the identity map, which embed_log applies as an add, is eye(E, E+2)
        # to the bit (a +0.0 bias), told by a count of nonzero bits with no
        # temporary. Any other map is finite if its sum is, or, when the sum
        # overflows, if its least and greatest entries are (NaN if any is)
        rows, cols = packed.shape
        identity = bool(cols == rows + 2 and (packed.diagonal() == 1.0).all()
                        and np.count_nonzero(packed.view(np.uint64)) == rows)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = identity or math.isfinite(packed.sum()) or (
                math.isfinite(packed.min()) and math.isfinite(packed.max()))
        if not finite:
            raise ConfigError("encoder weights contain non-finite entries")
        bias = np.ascontiguousarray(packed[:, -1])
        packed.flags.writeable = bias.flags.writeable = False
        if isinstance(packed.base, np.ndarray):  # np.load can give a view of what it read
            packed.base.flags.writeable = False
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "matrix", packed[:, :-1])
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "_identity", identity)
        return self

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
        return cls.__new__(cls)._hold(np.eye(provider_dim, provider_dim + 2))

    def save(self, path: str) -> None:
        """Write the map as a `.npy` file: one (E, D+2) little-endian float64
        array, the matrix's columns then the bias, every float's own bytes."""
        with atomic_write(path, "wb") as fh:
            np.save(fh, self._packed.astype(FLOAT_BYTES, copy=False), allow_pickle=False)

    @classmethod
    def load(cls, path: str) -> "EncoderWeights":
        """Read a `.npy` weights file, told apart by its first six bytes
        whatever the file is named. Any other file, such as the JSON
        weights of earlier versions, or one that does not hold one whole,
        finite map is a ConfigError; a `.npy` file of objects is refused,
        never unpickled."""
        with open(path, "rb") as fh:
            if fh.read(len(NPY_MAGIC)) != NPY_MAGIC:
                raise ConfigError(
                    f"weights file {path} is not a .npy file; a JSON weights file of an "
                    "earlier logsift converts with EncoderWeights.load(path).save(path) "
                    "run with that version")
            fh.seek(0)
            try:
                packed = np.load(fh, allow_pickle=False)
            # a MemoryError: a .npy header that claims more floats than can be allocated
            except (ValueError, MemoryError) as exc:
                raise ConfigError(f"cannot parse weights file {path}: {exc}") from exc
        if packed.dtype != FLOAT_BYTES or packed.ndim != 2 or packed.shape[0] < 1 \
                or packed.shape[1] < 2:
            raise ConfigError(f"weights file {path} holds a {packed.dtype.str} array of "
                              f"shape {packed.shape}, not an (E, D+2) '<f8' one")
        return cls.__new__(cls)._hold(np.ascontiguousarray(packed))  # copies Fortran order


def _fuse(records: Sequence[LogRecord], provider: EmbeddingProvider,
          raise_first: bool = False) -> tuple[np.ndarray, list[Exception | None]]:
    """Provider embedding -> word-count fusion, the front half of `embed_log`
    and all of training's: one (n, D+1) matrix, and per record None or the
    RECORD_ERRORS instance its provider call raised (its row is then NaN).
    A row holding NaN or inf as the provider returned it is left for the
    caller to find: `embed_log` does, from the row's norm or before its
    product. A dimension mismatch, which every record would hit, raises.
    With `raise_first`, so does the first record that fails or whose vector
    is not finite, and no later one is embedded: training can use no partial
    matrix, and a provider that is down would spend every record's retries."""
    errors: list = [None] * len(records)
    fused = np.empty((len(records), provider.dim + 1))
    for i, record in enumerate(records):
        try:
            values = provider.embed(record.content)
        except RECORD_ERRORS as exc:
            if raise_first:
                raise
            errors[i] = exc
            fused[i] = np.nan
            continue
        if values.shape != (provider.dim,):
            raise DimensionMismatchError(
                f"provider dim {values.shape} != configured {provider.dim}")
        fused[i, :-1] = values
        fused[i, -1] = record.word_count / WORD_COUNT_SCALE
        if raise_first and not np.isfinite(values).all():
            raise ProviderError(NON_FINITE)
    return fused, errors


def embed_log(records: Sequence[LogRecord], provider: EmbeddingProvider,
              encoder: EncoderWeights) -> list[np.ndarray | Exception]:
    """Full pipeline for each record: provider embedding -> word-count
    fusion, then the encoder applied to every record the provider embedded
    with one matrix product (at the identity map, one add of the +0.0 bias
    to the provider columns), and each row scaled to unit length in one
    loop over the rows.

    The identity map takes no product: each entry of that product is x_i
    plus products with 0, exactly x_i for x_i != 0, and adding its +0.0
    bias makes every zero +0.0 on either path, so the add gives the
    product's bytes. Returns, per record, its unit vector (an array of its
    own) or the RECORD_ERRORS instance that stopped it:
    - a provider row holding NaN or inf is a ProviderError. At the identity
      map its norm is NaN or inf, which sends the loop to the row's values;
      at any other map the rows are checked before the product, which takes
      only the finite ones, in record order, as they would be fused one by
      one;
    - a row shorter than NORM_EPS has no direction, and one whose norm
      overflows (finite provider values above about 1e154) cannot be
      scaled: a DegenerateEmbeddingError.
    A norm is `math.sqrt(np.vdot(row, row))`, the value np.linalg.norm
    takes: the same BLAS dot, but one that sets off no overflow warning, as
    the record's error says it. A dimension mismatch, which every record
    would hit, raises."""
    fused, outcomes = _fuse(records, provider)
    if encoder._identity:
        rows, out = range(len(records)), fused[:, :-1] + encoder.bias
    else:
        for i in np.flatnonzero(~np.isfinite(fused).all(axis=1)).tolist():
            if outcomes[i] is None:
                outcomes[i] = ProviderError(NON_FINITE)
        rows = [i for i, outcome in enumerate(outcomes) if outcome is None]
        with np.errstate(over="ignore"):
            out = (fused[rows] if len(rows) < len(records) else fused) @ encoder.matrix.T
            out += encoder.bias  # in place: the same sums, no second matrix
    for i, row in zip(rows, out):
        if outcomes[i] is None:  # at the identity map, a failed record's row is NaN
            norm = math.sqrt(np.vdot(row, row))
            if NORM_EPS <= norm < math.inf:
                outcomes[i] = row / norm
            elif np.isfinite(fused[i]).all():
                outcomes[i] = DegenerateEmbeddingError(
                    f"encoder output norm {norm:.3g} cannot be scaled to unit length")
            else:
                outcomes[i] = ProviderError(NON_FINITE)
    return outcomes
