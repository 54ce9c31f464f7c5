"""Atomic file writing shared by every module that writes an output file."""

import os
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """Yield a temporary file to write `path`'s content to; it replaces
    `path` once the block ends without error, so a reader never sees a
    partly written file. Writers stream into it (`json.dump`), so a large
    document is never held in memory as one string."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        yield fh
    os.replace(tmp, path)
