"""Atomic file writes and the JSON-integer rule; nothing here may import numpy.

Every artifact goes through `atomic_write_bytes` (temp file + rename within
the target directory), so interrupted runs never leave partial artifacts
behind. The stages that do no array work (`split`, `lr`) and the CLI's
sidecars use this module without loading numpy.
"""

from __future__ import annotations

import os


def atomic_write_bytes(path, *parts) -> None:
    """Write bytes-like objects (bytes, or C-contiguous arrays, whose
    buffers are written as they are) one after another to `path` through
    a temp file renamed over it.

    The temp file is created with mode 0666 less the process umask, as
    `open()` would create `path`, so artifacts get the usual permissions."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, ".tmp." + os.urandom(8).hex())
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool (no floats, no strings)."""
    return isinstance(value, int) and not isinstance(value, bool)
