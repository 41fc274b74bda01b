"""Binary file formats carried between pipeline stages.

PGM "P5" stores binary masks (0 <-> 0, 1 <-> 255; values above 127 load as
1). PMAP1 stores float32 probability stacks, IMAP1 stores uint32 instance
maps, and PPM "P6" stores the evaluation color maps. All multi-byte fields
are little-endian; payloads are channel-major then row-major.

Every writer is atomic (temp file + rename within the target directory),
so interrupted runs never leave partial artifacts behind.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from . import raster

PMAP_MAGIC = b"PMAP1\n"
IMAP_MAGIC = b"IMAP1\n"


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# PGM (P5) and PPM (P6)
# ---------------------------------------------------------------------------


def encode_pgm(mask) -> bytes:
    m = raster.as_mask(mask)
    h, w = m.shape
    return b"P5\n%d %d\n255\n" % (w, h) + (m * np.uint8(255)).tobytes()


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


def decode_pgm_raw(data: bytes) -> np.ndarray:
    """Decode a P5 file to its raw 8-bit grayscale values."""
    w, h, maxval, off = _read_pnm_header(data, b"P5")
    if not 0 < maxval < 256:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    if len(data) - off < h * w:
        raise ValueError("truncated PGM payload")
    return np.frombuffer(data[off:off + h * w], np.uint8).reshape(h, w).copy()


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a P5 file to a {0,1} mask; values above 127 map to 1."""
    return (decode_pgm_raw(data) > 127).astype(np.uint8)


def write_pgm(path, mask) -> None:
    atomic_write_bytes(path, encode_pgm(mask))


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_pgm(f.read())


def read_pgm_raw(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_pgm_raw(f.read())


def encode_ppm(rgb) -> bytes:
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("PPM payload must be an (h, w, 3) uint8 array")
    h, w, _ = arr.shape
    return b"P6\n%d %d\n255\n" % (w, h) + arr.tobytes()


def write_ppm(path, rgb) -> None:
    atomic_write_bytes(path, encode_ppm(rgb))


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    w, h, maxval, off = _read_pnm_header(data, b"P6")
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    if len(data) - off < h * w * 3:
        raise ValueError("truncated PPM payload")
    return np.frombuffer(data[off:off + h * w * 3], np.uint8).reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# PMAP1: float32 probability stacks
# ---------------------------------------------------------------------------


def encode_pmap(pmap) -> bytes:
    arr = np.asarray(pmap, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"probability map must be (channels, h, w), got shape {arr.shape}")
    if arr.size and (not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("probability values must lie in [0, 1]")
    c, h, w = arr.shape
    return PMAP_MAGIC + struct.pack("<III", c, h, w) + arr.astype("<f4").tobytes()


def decode_pmap(data: bytes) -> np.ndarray:
    if not data.startswith(PMAP_MAGIC):
        raise ValueError("not a PMAP1 file")
    off = len(PMAP_MAGIC)
    if len(data) - off < 12:
        raise ValueError("truncated PMAP1 header")
    c, h, w = struct.unpack_from("<III", data, off)
    off += 12
    count = c * h * w
    if len(data) - off < 4 * count:
        raise ValueError("truncated PMAP1 payload")
    arr = np.frombuffer(data[off:off + 4 * count], "<f4").reshape(c, h, w)
    arr = arr.astype(np.float32)
    if arr.size and (not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("PMAP1 values outside [0, 1]")
    return arr


def write_pmap(path, pmap) -> None:
    atomic_write_bytes(path, encode_pmap(pmap))


def read_pmap(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_pmap(f.read())


# ---------------------------------------------------------------------------
# IMAP1: uint32 instance label maps
# ---------------------------------------------------------------------------


def encode_imap(labels) -> bytes:
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"instance map must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer) or (arr.size and arr.min() < 0):
        raise ValueError("instance labels must be non-negative integers")
    arr = arr.astype(np.uint32)
    h, w = arr.shape
    max_label = int(arr.max(initial=0))
    return IMAP_MAGIC + struct.pack("<III", h, w, max_label) + arr.astype("<u4").tobytes()


def decode_imap(data: bytes) -> np.ndarray:
    if not data.startswith(IMAP_MAGIC):
        raise ValueError("not an IMAP1 file")
    off = len(IMAP_MAGIC)
    if len(data) - off < 12:
        raise ValueError("truncated IMAP1 header")
    h, w, max_label = struct.unpack_from("<III", data, off)
    off += 12
    count = h * w
    if len(data) - off < 4 * count:
        raise ValueError("truncated IMAP1 payload")
    arr = np.frombuffer(data[off:off + 4 * count], "<u4").reshape(h, w).astype(np.uint32)
    if int(arr.max(initial=0)) > max_label:
        raise ValueError("IMAP1 labels exceed the declared max_label")
    return arr


def write_imap(path, labels) -> None:
    atomic_write_bytes(path, encode_imap(labels))


def read_imap(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_imap(f.read())
