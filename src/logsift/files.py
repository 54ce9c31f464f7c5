"""What every module that writes an output file shares: atomic writing,
and the float64 layout of the binary files."""

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
    Writers stream into it (`json.dump`, `np.save`, `np.savez`), so a
    large document is never held in memory as one string. If the block
    raises, the temporary file is removed and `path` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise

