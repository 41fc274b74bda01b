"""Binary file formats carried between pipeline stages.

PGM "P5" stores binary masks (0 <-> 0, 1 <-> 255; values above 127 load as
1). PMAP1 stores float32 probability stacks, IMAP1 stores uint32 instance
maps, and PPM "P6" stores the evaluation color maps. All multi-byte fields
are little-endian; payloads are channel-major then row-major.

Every writer is atomic (temp file + rename within the target directory,
`bfx.fileio`), so interrupted runs never leave partial artifacts behind.
A writer hands the header and the payload array over as two buffers, and
the payload is copied only when its dtype or memory order differ from the
file's. Every reader parses the header, then reads the payload into one
preallocated array (`read_pmap` optionally into the caller's).
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from . import raster
from .fileio import atomic_write_bytes, atomic_write_text  # noqa: F401  (the writers' surface)

PMAP_MAGIC = b"PMAP1\n"
IMAP_MAGIC = b"IMAP1\n"

# plane order of a target stack and of a fused PMAP1, and the PGM name stems
CHANNEL_NAMES = ("building", "border", "spacing")


# ---------------------------------------------------------------------------
# PGM (P5) and PPM (P6)
# ---------------------------------------------------------------------------


def _parts(header: bytes, arr: np.ndarray, dtype):
    """`header` and `arr` as a C-order payload of `dtype`, the two buffers
    an artifact is written from; `arr` is copied only when its dtype or
    layout differ. An empty array is refused, as every reader refuses a
    zero dimension."""
    if 0 in arr.shape:
        raise ValueError(f"cannot write an array with a zero dimension: {tuple(arr.shape)}")
    return header, np.ascontiguousarray(arr, dtype)


def _pgm_parts(mask):
    m = raster.as_mask(mask)
    h, w = m.shape
    return b"P5\n%d %d\n255\n" % (w, h), np.multiply(m, np.uint8(255), order="C")


def encode_pgm(mask) -> bytes:
    header, payload = _pgm_parts(mask)
    return header + payload.tobytes()


def _read_pnm_header(data: bytes, magic: bytes):
    """Parse a PNM header, returning (width, height, maxval, payload offset)."""
    if not data.startswith(magic):
        raise ValueError(f"not a {magic.decode().strip()} file")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError("truncated PNM header")
        c = data[pos:pos + 1]
        if c == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
    if fields[0] < 1 or fields[1] < 1:
        raise ValueError(f"PNM size {fields[0]}x{fields[1]} is not positive")
    # exactly one whitespace byte separates the header from the payload
    return fields[0], fields[1], fields[2], pos + 1


_PNM_PREFIX = 4096  # bytes read for a PNM header at first


def _pnm_header(f, magic: bytes):
    """`_read_pnm_header` of an open file, parsed from a prefix of it that
    doubles until the header ends inside it or it is the whole file, so the
    outcome is that of parsing the whole file."""
    n = _PNM_PREFIX
    while True:
        f.seek(0)
        head = f.read(n)
        if len(head) < n:  # the whole file
            return _read_pnm_header(head, magic)
        try:
            fields = _read_pnm_header(head, magic)
        except ValueError:  # perhaps only cut short by the prefix
            fields = None
        if fields is not None and fields[3] <= n:  # the separator byte lies inside the prefix
            return fields
        n *= 2


def _pnm_payload(f, size: int, offset: int, shape: tuple, name: str) -> np.ndarray:
    """The uint8 payload of `shape` at `offset` of an open file of `size`
    bytes, read into one preallocated array; trailing bytes are ignored."""
    nbytes = math.prod(shape)
    if size - offset < nbytes:
        raise ValueError(f"truncated {name} payload")
    arr = np.empty(shape, np.uint8)
    f.seek(offset)
    if f.readinto(arr) != nbytes:  # the file shrank after its size was taken
        raise ValueError(f"truncated {name} payload")
    return arr


def _load_pgm_raw(f, size: int) -> np.ndarray:
    w, h, maxval, off = _pnm_header(f, b"P5")
    if not 0 < maxval < 256:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    return _pnm_payload(f, size, off, (h, w), "PGM")


def decode_pgm_raw(data: bytes) -> np.ndarray:
    """Decode a P5 file to its raw 8-bit grayscale values."""
    return _load_pgm_raw(io.BytesIO(data), len(data))


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a P5 file to a {0,1} mask; values above 127 map to 1."""
    return (decode_pgm_raw(data) > 127).astype(np.uint8)


def write_pgm(path, mask) -> None:
    atomic_write_bytes(path, *_pgm_parts(mask))


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        return (_load_pgm_raw(f, os.fstat(f.fileno()).st_size) > 127).astype(np.uint8)


def read_pgm_raw(path) -> np.ndarray:
    with open(path, "rb") as f:
        return _load_pgm_raw(f, os.fstat(f.fileno()).st_size)


def _ppm_parts(rgb):
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("PPM payload must be an (h, w, 3) uint8 array")
    h, w, _ = arr.shape
    return _parts(b"P6\n%d %d\n255\n" % (w, h), arr, np.uint8)


def encode_ppm(rgb) -> bytes:
    header, payload = _ppm_parts(rgb)
    return header + payload.tobytes()


def write_ppm(path, rgb) -> None:
    atomic_write_bytes(path, *_ppm_parts(rgb))


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h, maxval, off = _pnm_header(f, b"P6")
        if maxval != 255:
            raise ValueError(f"unsupported PPM maxval {maxval}")
        return _pnm_payload(f, os.fstat(f.fileno()).st_size, off, (h, w, 3), "PPM")


# ---------------------------------------------------------------------------
# PMAP1 and IMAP1 share one layout: a 6-byte magic, three little-endian u32
# header fields, then the payload
# ---------------------------------------------------------------------------

_FIELDS = struct.Struct("<III")
_BINARY_HEADER = len(PMAP_MAGIC) + _FIELDS.size


class _Layout:
    """What PMAP1 and IMAP1 do not share."""

    def __init__(self, magic: bytes, bad_magic: str, ndim: int, dtype: str):
        self.magic = magic
        self.name = magic.decode().strip()
        self.bad_magic = bad_magic  # the error for a file without the magic
        self.ndim = ndim  # the payload shape is the first `ndim` header fields
        self.dtype = dtype


_PMAP = _Layout(PMAP_MAGIC, "not a PMAP1 file", 3, "<f4")
_IMAP = _Layout(IMAP_MAGIC, "not an IMAP1 file", 2, "<u4")


def _load_binary(f, size: int, layout: _Layout, out=None):
    """Header fields and payload of an open file of `size` bytes, the
    payload read into one preallocated array: `out` when given, which must
    be a C-order array of the layout's dtype and of the declared shape.

    Every dimension must be positive, and the payload size the header
    declares is checked against `size` before anything is allocated, so a
    forged header cannot ask for more memory than the file holds. Trailing
    bytes are ignored."""
    head = f.read(_BINARY_HEADER)
    if not head.startswith(layout.magic):
        raise ValueError(layout.bad_magic)
    if len(head) < _BINARY_HEADER:
        raise ValueError(f"truncated {layout.name} header")
    fields = _FIELDS.unpack_from(head, len(layout.magic))
    shape = fields[:layout.ndim]
    if 0 in shape:
        raise ValueError(f"{layout.name} header declares a zero dimension: {shape}")
    nbytes = math.prod(shape) * np.dtype(layout.dtype).itemsize
    if size - _BINARY_HEADER < nbytes:
        raise ValueError(f"truncated {layout.name} payload")
    if out is None:
        arr = np.empty(shape, layout.dtype)
    elif out.shape != shape:
        raise ValueError(f"{layout.name} payload has shape {shape}, expected {out.shape}")
    elif out.dtype != np.dtype(layout.dtype) or not out.flags.c_contiguous:
        raise ValueError(f"{layout.name} payloads are read into C-order {layout.dtype} arrays")
    else:
        arr = out
    if f.readinto(arr) != nbytes:  # the file shrank after its size was taken
        raise ValueError(f"truncated {layout.name} payload")
    return fields, arr


def _read_binary(path, layout: _Layout, out=None):
    with open(path, "rb") as f:
        return _load_binary(f, os.fstat(f.fileno()).st_size, layout, out)


def _decode_binary(data: bytes, layout: _Layout):
    return _load_binary(io.BytesIO(data), len(data), layout)


def _in_unit_interval(arr) -> bool:
    # min/max propagate NaN, and NaN fails both comparisons
    return arr.size == 0 or bool(arr.min() >= 0.0 and arr.max() <= 1.0)


# ---------------------------------------------------------------------------
# PMAP1: float32 probability stacks
# ---------------------------------------------------------------------------


def _pmap_parts(pmap):
    arr = np.asarray(pmap, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"probability map must be (channels, h, w), got shape {arr.shape}")
    if not _in_unit_interval(arr):
        raise ValueError("probability values must lie in [0, 1]")
    return _parts(PMAP_MAGIC + _FIELDS.pack(*arr.shape), arr, _PMAP.dtype)


def _checked_pmap(arr: np.ndarray) -> np.ndarray:
    if not _in_unit_interval(arr):
        raise ValueError("PMAP1 values outside [0, 1]")
    return arr.astype(np.float32, copy=False)


def encode_pmap(pmap) -> bytes:
    header, payload = _pmap_parts(pmap)
    return header + payload.tobytes()


def decode_pmap(data: bytes) -> np.ndarray:
    return _checked_pmap(_decode_binary(data, _PMAP)[1])


def write_pmap(path, pmap) -> None:
    atomic_write_bytes(path, *_pmap_parts(pmap))


def read_pmap(path, out=None) -> np.ndarray:
    """Read a PMAP1 stack, into `out` when given: a C-order float32 array
    of the stack's shape, which is returned filled (else a new array)."""
    return _checked_pmap(_read_binary(path, _PMAP, out)[1])


# ---------------------------------------------------------------------------
# IMAP1: uint32 instance label maps
# ---------------------------------------------------------------------------


def _imap_parts(labels):
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"instance map must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer) or (arr.size and arr.min() < 0):
        raise ValueError("instance labels must be non-negative integers")
    arr = arr.astype(np.uint32, copy=False)
    max_label = int(arr.max(initial=0))
    return _parts(IMAP_MAGIC + _FIELDS.pack(*arr.shape, max_label), arr, _IMAP.dtype)


def _checked_imap(fields, arr: np.ndarray) -> np.ndarray:
    if int(arr.max(initial=0)) > fields[2]:
        raise ValueError("IMAP1 labels exceed the declared max_label")
    return arr.astype(np.uint32, copy=False)


def encode_imap(labels) -> bytes:
    header, payload = _imap_parts(labels)
    return header + payload.tobytes()


def decode_imap(data: bytes) -> np.ndarray:
    return _checked_imap(*_decode_binary(data, _IMAP))


def write_imap(path, labels) -> None:
    atomic_write_bytes(path, *_imap_parts(labels))


def read_imap(path) -> np.ndarray:
    return _checked_imap(*_read_binary(path, _IMAP))
