"""Log embedding: provider vector, word-count fusion, linear encoder, normalization.

The final vector for a log is computed in three steps: a text-embedding
provider maps the content to a D-vector, the whitespace word count is
appended as one scaled feature, and an affine encoder projects the fused
vector before L2 normalization. Cosine similarity between two logs is
then a plain dot product.

The encoder has no activation, so it is one affine map: `EncoderWeights`,
read-only, what training fits and returns, held as the one array a weights
file stores (one `.npy` array, read back with no text decode and no copy),
except the identity map, which is held as its bias alone: it is built,
loaded and kept in O(E) memory, never as an E x (E+2) array. Every caller
embeds with the map through `embed_log`, one record at a time: the
record's provider call, its word count appended, then the 1-row product
with the map; the identity map (the default when no weights are given) is
applied as one add of its +0.0 bias to the provider columns, which has
that product's bytes. A provider vector holding NaN or inf fails
its record with a ProviderError, found from the output's norm at the
identity map and before the product at any other. Training fuses its logs
with the same front half, `_fuse`, and stops at the first record that
fails. So a line gets the same vector bit for bit whoever embeds it:
sequential ingest, batch ingest and `export-embeddings`. The vector
depends on the content alone, so `Pipeline` embeds each distinct line once
and keeps its vector (see `logsift.ingest`).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionMismatchError,
    ProviderError,
)
from .files import FLOAT_BYTES, atomic_write
from .index import NORM_EPS, TEXT_ERRORS
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
    """token -> bucket, each token's UTF-8 bytes hashed on its first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        if len(self) >= BUCKET_MEMO_ENTRIES:
            self.clear()
        hasher = _BUCKET_HASHER.copy()
        hasher.update(token.encode("utf-8", TEXT_ERRORS))
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
# bytes of a weights file `load` reads at a time while it tells the identity
# apart, into one buffer; at least one row
SCAN_BYTES = 1 << 18


def _identity_rows(block: np.ndarray, start: int) -> bool:
    """Whether the C-ordered float64 `block` is rows start, start + 1, ... of
    eye(E, E+2) to the bit (a +0.0 bias): ones on its diagonal and as many
    nonzero bits as rows, counted with no temporary."""
    return bool((block.diagonal(start) == 1.0).all()
                and np.count_nonzero(block.view(np.uint64)) == len(block))


def _identity_arrays(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity's read-only `matrix`, equal to eye(dim, dim+1), and its
    +0.0 `bias`, both views of one immutable line of 2 dim + 1 floats whose
    middle one is 1.0: matrix[i, j] is line[dim - i + j], so no view of it
    can be made writable and it costs O(dim) memory."""
    line = np.eye(1, 2 * dim + 1, dim).tobytes()
    return (np.ndarray((dim, dim + 1), buffer=line, offset=8 * dim, strides=(-8, 8)),
            np.ndarray((dim,), buffer=line))


def _identity_dim(fh) -> int:
    """E, if the `.npy` file `fh` holds eye(E, E+2) to the bit as a C-ordered
    '<f8' array under a version 1.0 or 2.0 header, read one block of rows
    at a time into one buffer; else 0, for any other header, a file cut
    short or a block that is not the identity's, which `np.load` reads."""
    readers = {(1, 0): np.lib.format.read_array_header_1_0,
               (2, 0): np.lib.format.read_array_header_2_0}
    try:
        shape, fortran_order, dtype = readers[np.lib.format.read_magic(fh)](fh)
    except (KeyError, ValueError):
        return 0
    if fortran_order or dtype != FLOAT_BYTES or len(shape) != 2 or shape[0] < 1 \
            or shape[1] != shape[0] + 2:
        return 0
    rows, row_bytes = shape[0], 8 * shape[1]
    # a header's claim is checked against the file before any buffer is made
    if os.fstat(fh.fileno()).st_size - fh.tell() < rows * row_bytes:
        return 0
    block = np.empty((min(max(1, SCAN_BYTES // row_bytes), rows), shape[1]))
    start = 0
    while start < rows:
        part = block[:rows - start]
        if fh.readinto(part) != part.nbytes or not _identity_rows(part, start):
            return 0
        start += len(part)
    return rows


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class EncoderWeights:
    """The encoder, read-only: one affine map from the fused (D+1)-vector
    to the clustering space, `matrix` (E, D+1) and `bias` (E,).

    A map is held as one read-only, C-ordered (E, D+2) float64 array, its
    `_packed`: the map's D+1 columns, then the bias as the last column.
    `matrix` is a view of it, and `bias` a contiguous copy of its last
    column, which `embed_log` adds to each output. A weights file is that
    array, one NumPy `.npy` array (NEP 1) of little-endian float64, which
    `load` takes as its own and `save` writes as it is.

    The identity map, eye(E, E+2) to the bit, which `embed_log` applies as
    an add of its bias, is held with no `_packed` (None): `matrix` is a
    read-only O(E) view equal to eye(E, E+1) and `bias` E read-only +0.0s.
    Each way in ends there: `identity_init` builds only these, `_hold` drops
    an array that passes the identity test, and `load` tells the identity
    apart from the file, a block of rows at a time, before it reads the
    map. `save` writes the bytes `np.save` writes for eye(E, E+2). That
    `matrix` has strides (-8, 8), which BLAS cannot take, so numpy copies
    it for each product: a caller that multiplies by it often should copy
    it once with `np.ascontiguousarray`, as `train` does.
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
        the array of this map, which it returns; the identity is held as
        `identity_init` holds it, and `packed` dropped."""
        # any map but the identity is finite if its sum is, or, when the
        # sum overflows, if its least and greatest entries are (NaN if any is)
        rows, cols = packed.shape
        if cols == rows + 2 and _identity_rows(packed, 0):
            return self._set(None, *_identity_arrays(rows))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = math.isfinite(packed.sum()) or (
                math.isfinite(packed.min()) and math.isfinite(packed.max()))
        if not finite:
            raise ConfigError("encoder weights contain non-finite entries")
        bias = np.ascontiguousarray(packed[:, -1])
        packed.flags.writeable = bias.flags.writeable = False
        if isinstance(packed.base, np.ndarray):  # np.load can give a view of what it read
            packed.base.flags.writeable = False
        return self._set(packed, packed[:, :-1], bias)

    def _set(self, packed: np.ndarray | None, matrix: np.ndarray,
             bias: np.ndarray) -> "EncoderWeights":
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "_identity", packed is None)
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
        return cls.__new__(cls)._set(None, *_identity_arrays(provider_dim))

    def save(self, path: str) -> None:
        """Write the map as a `.npy` file: one (E, D+2) little-endian float64
        array, the matrix's columns then the bias, every float's own bytes."""
        packed = np.eye(self.output_dim, self.input_dim + 1) if self._packed is None \
            else self._packed
        with atomic_write(path, "wb") as fh:
            np.save(fh, packed.astype(FLOAT_BYTES, copy=False), allow_pickle=False)

    @classmethod
    def load(cls, path: str) -> "EncoderWeights":
        """Read a `.npy` weights file, told apart by its first six bytes
        whatever the file is named. Any other file, such as the JSON
        weights of earlier versions, or one that does not hold one whole,
        finite map is a ConfigError; a `.npy` file of objects is refused,
        never unpickled. The identity is told apart as the file is read,
        with no E x (E+2) array made; any other file is read by `np.load`."""
        with open(path, "rb") as fh:
            if fh.read(len(NPY_MAGIC)) != NPY_MAGIC:
                raise ConfigError(
                    f"weights file {path} is not a .npy file; a JSON weights file of an "
                    "earlier logsift converts with EncoderWeights.load(path).save(path) "
                    "run with that version")
            fh.seek(0)
            dim = _identity_dim(fh)
            if dim:
                return cls.identity_init(dim)
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


def _fuse(record: LogRecord, provider: EmbeddingProvider) -> np.ndarray:
    """Provider embedding -> word-count fusion, the front half of `embed_log`
    and all of training's: the record's (D+1,) row, its provider vector then
    its word count over WORD_COUNT_SCALE. A provider call that fails raises
    its RECORD_ERRORS instance; a vector holding NaN or inf is left for the
    caller to find. A dimension mismatch, which every record would hit,
    raises a DimensionMismatchError."""
    values = provider.embed(record.content)
    if values.shape != (provider.dim,):
        raise DimensionMismatchError(
            f"provider dim {values.shape} != configured {provider.dim}")
    fused = np.empty(provider.dim + 1)
    fused[:-1] = values
    fused[-1] = record.word_count / WORD_COUNT_SCALE
    return fused


def embed_log(record: LogRecord, provider: EmbeddingProvider,
              encoder: EncoderWeights) -> np.ndarray:
    """Full pipeline for one record: provider embedding -> word-count
    fusion -> the encoder map -> scaled to unit length. Returns the unit
    vector, an array of its own, or raises the RECORD_ERRORS instance that
    stopped it.

    The identity map takes no product: each entry of the 1-row product
    `fused[None, :] @ M.T` is x_i plus products with 0, exactly x_i for
    x_i != 0, and adding its +0.0 bias makes every zero +0.0 on either
    path, so an add of the bias to the provider columns gives the
    product's bytes. Any other map takes that 1-row product, then adds the
    bias in place. So a line gets the same vector bit for bit whoever
    embeds it, one line at a time. The failures:
    - a provider vector holding NaN or inf is a ProviderError: at the
      identity map it is found from the norm, which is NaN or inf; at any
      other map the row is checked before the product;
    - an output shorter than NORM_EPS has no direction, and one whose norm
      overflows (finite provider values above about 1e154) cannot be
      scaled: a DegenerateEmbeddingError.
    A norm is `math.sqrt(np.vdot(out, out))`, the value np.linalg.norm
    takes: the same BLAS dot, but one that sets off no overflow warning, as
    the record's error says it. A dimension mismatch, which every record
    would hit, raises a DimensionMismatchError."""
    fused = _fuse(record, provider)
    if encoder._identity:
        out = fused[:-1] + encoder.bias
    else:
        if not np.isfinite(fused).all():
            raise ProviderError(NON_FINITE)
        with np.errstate(over="ignore"):
            [out] = fused[None, :] @ encoder.matrix.T
            out += encoder.bias  # in place: the same sums, no second array
    norm = math.sqrt(np.vdot(out, out))
    if NORM_EPS <= norm < math.inf:
        return out / norm
    if np.isfinite(fused).all():
        raise DegenerateEmbeddingError(
            f"encoder output norm {norm:.3g} cannot be scaled to unit length")
    raise ProviderError(NON_FINITE)
