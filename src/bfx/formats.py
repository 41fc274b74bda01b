"""Binary file formats carried between pipeline stages.

PGM "P5" stores binary masks (0 <-> 0, 1 <-> 255; a value v loads as 1
when 2v exceeds the file's maxval, so above 127 at maxval 255). PMAP1
stores float32 probability stacks, IMAP1 stores uint32 instance maps, and
PPM "P6" stores the evaluation color maps. All multi-byte fields are
little-endian; payloads are channel-major then row-major.

The codec works on files only: one writer and one reader per format.
Every writer is atomic (temp file + rename within the target directory,
`bfx.fileio`), so interrupted runs never leave partial artifacts behind.
A writer hands the header and the payload over as buffers, and the
payload is copied only when its dtype or memory order differ from the
file's, by `write_pmap` one float32 plane at a time. Every reader goes
through `bfx.fileio.open_payload`, which parses the header, checks the
payload size against the file and reads the payload into one
preallocated array (`read_pmap` optionally the caller's). The PGM/PPM
header is `fileio.pnm_header`, stdlib only; the PMAP1/IMAP1 header is
`_binary_header` here.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

from . import raster
from .fileio import atomic_write_bytes, open_payload, pnm_header

PMAP_MAGIC = b"PMAP1\n"
IMAP_MAGIC = b"IMAP1\n"

# plane order of a target stack and of a fused PMAP1, and the PGM name stems
CHANNEL_NAMES = ("building", "border", "spacing")


def _write(path, header: bytes, arr: np.ndarray, payload) -> None:
    """Write `header`, then the buffers of `payload`: `arr` in the file's
    dtype and C order. An empty array is refused, as every reader refuses
    a zero dimension."""
    if 0 in arr.shape:
        raise ValueError(f"cannot write an array with a zero dimension: {tuple(arr.shape)}")
    atomic_write_bytes(path, itertools.chain((header,), payload))


# ---------------------------------------------------------------------------
# PGM (P5) and PPM (P6)
# ---------------------------------------------------------------------------


def write_pgm(path, mask) -> None:
    m = raster.as_mask(mask)
    h, w = m.shape
    atomic_write_bytes(path, (b"P5\n%d %d\n255\n" % (w, h), np.multiply(m, np.uint8(255), order="C")))


def read_pgm(path) -> np.ndarray:
    """A P5 file as a {0,1} mask: a value v maps to 1 when 2v > maxval."""
    with open_payload(path, pnm_header, b"P5") as (shape, maxval, fill):
        pixels = np.empty(shape, np.uint8)
        fill(pixels)
    return np.greater(pixels, maxval // 2).view(np.uint8)


def write_ppm(path, rgb) -> None:
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("PPM payload must be an (h, w, 3) uint8 array")
    h, w, _ = arr.shape
    _write(path, b"P6\n%d %d\n255\n" % (w, h), arr, (np.ascontiguousarray(arr),))


def read_ppm(path) -> np.ndarray:
    with open_payload(path, pnm_header, b"P6") as (shape, _, fill):
        rgb = np.empty(shape, np.uint8)
        fill(rgb)
    return rgb


# ---------------------------------------------------------------------------
# PMAP1 and IMAP1 share one layout: a 6-byte magic, three little-endian u32
# header fields, then the payload
# ---------------------------------------------------------------------------

_FIELDS = struct.Struct("<III")
_BINARY_HEADER = len(PMAP_MAGIC) + _FIELDS.size
# magic -> (refusal of another magic, payload dimensions: the leading fields)
_BINARY = {PMAP_MAGIC: ("not a PMAP1 file", 3), IMAP_MAGIC: ("not an IMAP1 file", 2)}


def _binary_header(f, magic: bytes):
    """The header of a PMAP1 or IMAP1 file at the start of the open file
    `f`, for `fileio.open_payload`: the payload of 4-byte elements has the
    shape of the leading header fields, each of which must be positive."""
    bad_magic, ndim = _BINARY[magic]
    name = magic.decode().strip()
    head = f.read(_BINARY_HEADER)
    if not head.startswith(magic):
        raise ValueError(bad_magic)
    if len(head) < _BINARY_HEADER:
        raise ValueError(f"truncated {name} header")
    fields = _FIELDS.unpack_from(head, len(magic))
    shape = fields[:ndim]
    if 0 in shape:
        raise ValueError(f"{name} header declares a zero dimension: {shape}")
    return name, shape, 4, fields


# ---------------------------------------------------------------------------
# PMAP1: float32 probability stacks
# ---------------------------------------------------------------------------


def _unit_plane(plane: np.ndarray) -> np.ndarray:
    plane = np.ascontiguousarray(plane, "<f4")
    if not raster._in_unit_interval(plane):
        raise ValueError("probability values must lie in [0, 1]")
    return plane


def write_pmap(path, pmap) -> None:
    """Write a (channels, h, w) stack of any real dtype (bool, uint8,
    float64, ...) as the bytes of its float32 cast, which must lie in
    [0, 1]. Each plane is cast, checked and written before the next."""
    arr = np.asarray(pmap)
    if arr.ndim != 3:
        raise ValueError(f"probability map must be (channels, h, w), got shape {arr.shape}")
    _write(path, PMAP_MAGIC + _FIELDS.pack(*arr.shape), arr, map(_unit_plane, arr))


def read_pmap(path, out=None) -> np.ndarray:
    """Read a PMAP1 stack, into `out` when given: a C-order float32 array
    of the stack's shape, which is returned filled (else a new array)."""
    with open_payload(path, _binary_header, PMAP_MAGIC) as (shape, _, fill):
        if out is None:
            out = np.empty(shape, "<f4")
        elif out.shape != shape:
            raise ValueError(f"PMAP1 payload has shape {shape}, expected {out.shape}")
        elif out.dtype != np.dtype("<f4") or not out.flags.c_contiguous:
            raise ValueError("PMAP1 payloads are read into C-order <f4 arrays")
        fill(out)
    if not raster._in_unit_interval(out):
        raise ValueError("PMAP1 values outside [0, 1]")
    return out.astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# IMAP1: uint32 instance label maps
# ---------------------------------------------------------------------------


def write_imap(path, labels) -> None:
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError(f"instance map must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer) or (arr.size and arr.min() < 0):
        raise ValueError("instance labels must be non-negative integers")
    max_label = int(arr.max(initial=0))
    if max_label > 0xFFFFFFFF:  # the cast to uint32 would wrap it
        raise ValueError(f"instance label {max_label} does not fit IMAP1's uint32")
    arr = np.ascontiguousarray(arr, "<u4")
    _write(path, IMAP_MAGIC + _FIELDS.pack(*arr.shape, max_label), arr, (arr,))


def read_imap(path) -> np.ndarray:
    with open_payload(path, _binary_header, IMAP_MAGIC) as (shape, fields, fill):
        labels = np.empty(shape, "<u4")
        fill(labels)
    if int(labels.max(initial=0)) > fields[2]:
        raise ValueError("IMAP1 labels exceed the declared max_label")
    return labels.astype(np.uint32, copy=False)
