"""Atomic file writes, the raster read path, the JSON-integer rule and the
canvas bound; nothing here may import numpy.

Every artifact goes through `atomic_write_bytes` (temp file + rename within
the target directory), so interrupted runs never leave partial artifacts
behind. Inside `staged_commit()`, which `bfx.cli` opens around each call,
the renames wait until the whole call has succeeded, so a call that fails
after some of its writes leaves none of them, nor a directory it made
through `make_dirs`. The commit's log of writes is the one record of
what a call writes: `bfx.cli` takes the manifest's outputs from it.
`open_payload` reads every raster format into buffers the caller sizes
(`pnm_header` is the PGM/PPM header): `bfx tile` reads one tile row at a
time into one reused `bytearray`, and `bfx.formats` reads whole payloads
into arrays. The stages that do no array work (`tile`, `split`, `lr`) and
the CLI's sidecars use this module without loading numpy.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from types import SimpleNamespace

# the open staged commit of this thread: `writes`, the (temp file, path) of
# each write in write order, and `dirs`, each directory level `make_dirs`
# made, shallowest first
_STAGED = ContextVar("bfx_staged_commit", default=None)


def _named(exc: OSError, path: str) -> OSError:
    """`exc` naming `path`, the file the caller asked for, rather than a temp file."""
    return exc if exc.errno is None else OSError(exc.errno, exc.strerror, path)


def _unlink(tmp: str) -> None:
    try:
        os.unlink(tmp)
    except OSError:
        pass


def atomic_write_bytes(path, parts) -> None:
    """Write the iterable `parts` of bytes-like objects (bytes, or
    C-contiguous arrays, whose buffers are written as they are) to `path`
    through a temp file renamed over it, consuming it as it writes, so a
    generator of parts holds one at a time; inside `staged_commit()`, the
    temp file is left for the commit to rename. An OSError names `path`.

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
        except OSError as exc:
            raise _named(exc, path) from None
    staged = _STAGED.get()
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(parts)  # releases each part once it is written
        if staged is None:
            os.replace(tmp, path)
        else:
            staged.writes.append((tmp, path))
    except OSError as exc:
        _unlink(tmp)
        raise _named(exc, path) from None
    except BaseException:
        _unlink(tmp)
        raise


def make_dirs(path) -> None:
    """`os.makedirs(path, exist_ok=True)`. Inside `staged_commit()`, each
    directory level it creates is recorded, and a commit that does not
    succeed removes them again, deepest first, once its temp files are
    gone; a level that is not empty by then stays."""
    staged = _STAGED.get()
    if staged is None:
        os.makedirs(path, exist_ok=True)
        return
    missing = []  # deepest first
    head = os.fspath(path)
    while head and not os.path.exists(head):
        missing.append(head)
        head = os.path.dirname(head)
    # recorded first: levels made before a failing mkdir are removed too
    staged.dirs.extend(reversed(missing))
    os.makedirs(path, exist_ok=True)


@contextmanager
def staged_commit():
    """Hold back the renames of the `atomic_write_bytes` calls made in this
    context (this thread) until the block has run to its end, then rename
    every temp file in write order. The context's value is the commit's log
    of (temp file, path) pairs, in write order, which grows as the block
    writes.

    If the block raises, or two writes go to one file (a ValueError naming
    the later path), every temp file is unlinked, then every directory
    `make_dirs` made in the commit that is empty by then is removed, and no
    file is written. A rename that fails stops the commit with its error
    (an OSError names that file): the files renamed before it stay, and
    the temp files after it and the empty directories are removed."""
    staged = SimpleNamespace(writes=[], dirs=[])
    token = _STAGED.set(staged)
    renamed = 0
    try:
        yield staged.writes
        entries = set()
        for tmp, path in staged.writes:  # a temp file lies in its file's directory
            entry = (os.path.realpath(os.path.dirname(tmp)), os.path.basename(path))
            if entry in entries:  # its rename would replace the earlier write's file
                raise ValueError(f"the call writes {path!r} twice")
            entries.add(entry)
        for tmp, path in staged.writes:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise _named(exc, path) from None
            renamed += 1
    except BaseException:
        for tmp, _ in staged.writes[renamed:]:
            _unlink(tmp)
        for directory in reversed(staged.dirs):
            try:
                os.rmdir(directory)
            except OSError:  # not empty, or gone
                pass
        raise
    finally:
        _STAGED.reset(token)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, (text.encode("utf-8"),))


# Largest canvas, in pixels, of a `targets` call or a GeoJSON FeatureCollection:
# 2**28 uint32 labels are 1 GiB, so a larger one is refused before it is made.
MAX_CANVAS_PIXELS = 2 ** 28


def _is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool (no floats, no strings)."""
    return isinstance(value, int) and not isinstance(value, bool)


@contextmanager
def open_payload(path, header, *args):
    """Open the raster file `path` and yield the (shape, fields, fill) of
    its payload. `header(f, *args)` reads the header at the start of the
    open file `f` and returns the format's name, the payload shape, its
    element size and the header's fields. The payload size is checked
    against the file size before anything is allocated, so a forged header
    cannot ask for more memory than the file holds. `fill(buf)` reads the
    next `memoryview(buf).nbytes` bytes into the writable buffer `buf` and
    refuses a short read (the file shrank since); trailing bytes are
    ignored."""
    with open(path, "rb") as f:
        name, shape, itemsize, fields = header(f, *args)
        if os.fstat(f.fileno()).st_size - f.tell() < math.prod(shape) * itemsize:
            raise ValueError(f"truncated {name} payload")

        def fill(buf) -> None:
            if f.readinto(buf) != memoryview(buf).nbytes:
                raise ValueError(f"truncated {name} payload")

        yield shape, fields, fill


# ---------------------------------------------------------------------------
# PGM (P5) and PPM (P6)
# ---------------------------------------------------------------------------

# magic -> (format name, smallest accepted maxval, bytes per pixel)
_PNM = {b"P5": ("PGM", 1, 1), b"P6": ("PPM", 255, 3)}


def pnm_header(f, magic: bytes):
    """`open_payload`'s header of a PGM (`magic` b"P5", payload shape
    (height, width)) or PPM file (b"P6", (height, width, 3)), whose fields
    are the maxval. It is read front to back, to just past its one
    separator byte. A field is 1 to 20 ASCII digits, the size must be
    positive, and the maxval at most 255, and 255 for a PPM."""
    name, min_maxval, depth = _PNM[magic]
    if f.read(len(magic)) != magic:
        raise ValueError(f"not a {magic.decode().strip()} file")
    fields = []
    c = f.read(1)
    while len(fields) < 3:
        if not c:
            raise ValueError("truncated PNM header")
        if c == b"#":  # a comment runs to the end of its line, read in bounded pieces
            while (piece := f.readline(4096)) and not piece.endswith(b"\n"):
                pass
            c = f.read(1)
        elif c.isspace():
            c = f.read(1)
        else:
            token = bytearray()
            while c and not c.isspace():  # the token's end reads its separator
                if not c.isdigit() or len(token) == 20:  # leading zeros count
                    raise ValueError("PNM header field is not 1 to 20 decimal digits")
                token += c
                c = f.read(1)
            fields.append(int(token))
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"PNM size {w}x{h} is not positive")
    if not min_maxval <= maxval < 256:
        raise ValueError(f"unsupported {name} maxval {maxval}")
    return name, ((h, w) if depth == 1 else (h, w, depth)), 1, maxval
