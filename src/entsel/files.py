"""Atomic artifact writes: a reader sees the old file or the new one, never a part."""

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Yield a file open for writing; on a clean exit it replaces `path`.

    The bytes go to a temp file in the same directory, which `os.replace`
    renames over `path` only once the block has finished. If the block
    raises, the temp file is removed and `path` keeps its previous bytes.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
