"""File formats shared by every module that writes an output file: atomic
writing, and the raw-float codec of index snapshots."""

import base64
import os
from contextlib import contextmanager, suppress
from typing import IO, Iterator

import numpy as np

FLOAT_BYTES = np.dtype("<f8")


@contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator[IO]:
    """Yield a temporary file, opened with `mode` ("w" for text, "wb" for
    bytes), to write `path`'s content to; it replaces `path` once the block
    ends without error, so a reader never sees a partly written file.
    Writers stream into it (`json.dump`, `np.save`, or a centroid at a time
    in `CentroidIndex.snapshot`), so a large document is never held in
    memory as one string. If the block raises, the temporary
    file is removed and `path` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def encode_floats(values: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes of `values`, in row-major
    order (8 bytes per entry)."""
    return base64.b64encode(np.asarray(values, dtype=FLOAT_BYTES).tobytes()).decode("ascii")


def decode_floats(text: str) -> np.ndarray:
    """The flat float64 array `encode_floats` wrote, read-only (a view of
    the decoded bytes). Text that is not base64, or whose bytes are not a
    whole number of floats, raises ValueError."""
    return np.frombuffer(base64.b64decode(text, validate=True),
                         dtype=FLOAT_BYTES).astype(np.float64, copy=False)
