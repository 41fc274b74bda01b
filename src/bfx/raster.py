"""Exact raster primitives: square-kernel binary morphology and 8-connected
components.

Masks are 2-D uint8 arrays with values in {0, 1}. `connected_components`
makes uint32 instance maps whose nonzero labels are dense in 1..N,
numbered by the topmost-then-leftmost pixel of each component; pixels
touching only at a corner are connected, as in the paper's building
instances. Pixels outside the canvas count as 0 for both erosion and
dilation (a mask embedded in a sea of zeros), which keeps every operation
total on valid inputs.

Erosion and dilation take floor(log2 side) + 1 passes per axis, or one
reduction when the reach spans the axis: 11 passes, not 1024, for a
side-1025 window on a 1024-long axis. `connected_components` keeps its
run, pair and root tables in int32 whenever every flat index of its
canvas fits (`_index_type`, the one width rule, shared with
`extract.polygonize`).

Every call that takes an instance map checks it by one rule,
`_instance_map`: the map is 2-D, of an integer dtype other than bool, and
each label lies in 0..N with N at most the pixel count, so that a table
indexed by label can be sized from N. `extract.filter_small` and the seeds
of `extract.watershed_assign` may leave gaps below N; the calls that index
per-label results (`extract.polygonize`, `evaluate.match_instances` and
`evaluate.color_map`) also need every label 1..N present (`_label_areas`).

All functions are pure: identical inputs give byte-identical outputs, so
callers may fan work out across threads without affecting results.
"""

from __future__ import annotations

import numpy as np

NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def as_mask(a) -> np.ndarray:
    """Coerce an array to a {0,1} uint8 mask, validating its shape."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"mask must be 2-D and non-empty, got shape {arr.shape}")
    if arr.dtype == np.uint8 and arr.max(initial=0) <= 1:
        return arr
    return (arr != 0).astype(np.uint8)


def _in_unit_interval(arr) -> bool:
    # min/max propagate NaN, and NaN fails both comparisons
    return arr.size == 0 or bool(arr.min() >= 0.0 and arr.max() <= 1.0)


def _instance_map(labels, what: str) -> tuple[np.ndarray, int]:
    """`labels` as an array of a dtype `np.bincount` takes, and its largest
    label N, once the map keeps the instance-map rule (see module doc)."""
    lab = np.asarray(labels)
    if lab.ndim != 2 or lab.dtype.kind not in "iu":
        raise ValueError(f"expected a 2-D integer {what} map")
    if lab.dtype.kind == "i" and lab.size:
        low = int(lab.min())
        if low < 0:
            raise ValueError(f"{what} map holds a negative label {low}")
    n = int(lab.max(initial=0))
    if n > lab.size:
        raise ValueError(f"{what} map labels are not dense: largest label {n} "
                         f"exceeds the pixel count {lab.size}")
    if not np.can_cast(lab.dtype, np.intp):  # uint64: every label is now <= the size
        lab = lab.astype(np.intp)
    return lab, n


def _dense_areas(area: np.ndarray, what: str) -> np.ndarray:
    """`area`, the pixel counts of labels 0..N, once every label 1..N has pixels."""
    absent = np.flatnonzero(area[1:] == 0)
    if absent.size:
        raise ValueError(f"{what} map labels are not dense in 1..{area.size - 1}: "
                         f"label {absent[0] + 1} is absent")
    return area


def _label_areas(labels, what: str) -> np.ndarray:
    """Pixel count of each label 0..N of an instance map that keeps the
    rule and holds every label 1..N."""
    lab, n = _instance_map(labels, what)
    return _dense_areas(np.bincount(lab.ravel(), minlength=n + 1), what)


def check_kernel_side(side: int) -> int:
    side = int(side)
    if side < 1 or side % 2 == 0:
        raise ValueError(f"kernel side must be odd and >= 1, got {side}")
    return side


def _window_extreme(arr: np.ndarray, side: int, op, axis: int) -> np.ndarray:
    """Running min/max over a centered window of L = `side` pixels along one
    axis, zero padded, in floor(log2 L) + 1 passes of `op`. Min and max are
    idempotent, so the window is `op` of two overlapping windows of the
    largest power of two P <= L (van Herk, PRL 1992): doubling passes take
    the extreme over 1, 2, 4, ..., P pixels in two alternating padded
    buffers, then one pass joins the two. A reach that spans the whole axis
    sees every pixel and a zero: one reduction, broadcast."""
    n = arr.shape[axis]
    r = side // 2
    if r and r >= n - 1:
        return np.broadcast_to(op(op.reduce(arr, axis, keepdims=True), 0), arr.shape).copy()
    shape = list(arr.shape)
    shape[axis] += 2 * r
    a = np.zeros(shape, arr.dtype)  # not np.pad, whose per-call overhead dominates small crops
    (a.T if axis else a)[r:r + n] = arr.T if axis else arr
    # each pass is one ufunc over the flat buffer, shifted `width` steps along the axis:
    # windows that run past the end of their line get stray values, which the output never reads
    step = a.strides[axis] // a.itemsize
    a, b = a.ravel(), np.empty(a.size, a.dtype)
    width = 1  # a[i] is the extreme of the `width` padded pixels from i on
    while 2 * width <= side:
        op(a[:-width * step], a[width * step:], out=b[:-width * step])
        a, b, width = b, a, 2 * width
    a = a.reshape(shape).T if axis else a.reshape(shape)
    out = op(a[:n], a[side - width:side - width + n])
    return out.T if axis else out


def _morph(mask, side: int, op) -> np.ndarray:
    """A row pass then a column pass of a square window's `op`: np.minimum or np.maximum."""
    side = check_kernel_side(side)
    return _window_extreme(_window_extreme(as_mask(mask), side, op, 0), side, op, 1)


def erode(mask, kernel_side: int = 3) -> np.ndarray:
    """Binary erosion by a centered square window of side `kernel_side`.

    An output pixel is 1 iff every pixel under the window is 1; the window
    extends past the canvas near edges, where missing pixels count as 0.
    A square window is separable: a row min, then a column min, a new array.
    Each takes floor(log2 side) + 1 doubling passes, or one reduction when
    the reach spans the whole axis (`_window_extreme`). With that zero
    border, k erosions by side s are one by side k(s-1)+1 (Haralick,
    Sternberg & Zhuang, TPAMI 1987).
    """
    return _morph(mask, kernel_side, np.minimum)


def dilate(mask, kernel_side: int = 3) -> np.ndarray:
    """Binary dilation by a centered square window, clipped at canvas edges,
    in the passes of `erode`."""
    return _morph(mask, kernel_side, np.maximum)


def _index_type(top: int) -> type:
    """int32 if it holds every index up to `top`, else int64: the one rule
    for the width of the index tables of `connected_components` and
    `extract.polygonize`."""
    return np.int32 if top < 2 ** 31 else np.int64


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index ranges [first, first + count) laid end to end, in order,
    in the dtype of `first`, which must hold their total length."""
    ends = np.add.accumulate(count, dtype=first.dtype)
    return np.arange(ends[-1] if ends.size else 0, dtype=first.dtype) + (first - ends + count).repeat(count)


def connected_components(mask) -> np.ndarray:
    """Label maximal 8-connected regions of 1-pixels with dense labels 1..N.

    Labels are assigned by each component's anchor (topmost, then leftmost,
    pixel in row-major order), so the numbering is independent of how the
    scan is scheduled. Run-based labelling (He, Chao & Suzuki, IEEE TIP
    2008), vectorized: one diff over the mask with a zero column appended
    to every row finds all row runs; two sorted searches find, for each
    run, the contiguous range of runs it touches in the row above; min-
    hooking with pointer jumping merges them until every run points at the
    earliest run of its component. The run scan and the painting are
    O(H*W); each merging pass is O(R) over the R runs, and 1024^2
    serpentines, spirals and speckle need at most six hooking passes. The
    run, pair and root tables are int32, and the dense labels uint32,
    whenever the largest flat key h*(w+1) fits int32 (`_index_type`).
    """
    m = as_mask(mask)
    h, w = m.shape
    labels = np.zeros((h, w), np.uint32)

    # flat keys in an (h, w+1) canvas: the appended zero column ends every
    # run inside its own row, so starts/ends come out row-major and sorted
    stride = w + 1
    itype = _index_type(h * stride)
    padded = np.zeros((h, stride), np.int8)
    padded[:, :w] = m
    edges = np.flatnonzero(np.diff(padded.ravel(), prepend=np.int8(0))).astype(itype)
    del padded
    starts, ends = edges[0::2], edges[1::2]
    n = starts.size
    if n == 0:
        return labels

    # runs a (row above) and b touch iff a.lo < b.hi + 1 and b.lo < a.hi + 1:
    # 8-connected runs also touch diagonally, so each range is widened by 1
    first = np.searchsorted(ends, starts - stride - 1, side="right").astype(itype)
    count = np.searchsorted(starts, ends - stride + 1, side="left").astype(itype) - first
    # one (above, below) pair per touching pair: runs first[b]..first[b]+count[b]-1 touch b
    below = np.repeat(np.arange(n, dtype=itype), count)
    above = _ranges(first, count)
    del first, count  # the hooking passes need only the pairs

    # hook the larger root onto the smaller until no touching pair differs;
    # the root of a component is then its earliest run, i.e. its anchor
    root = np.arange(n, dtype=itype)
    while above.size:
        ra, rb = root.take(above), root.take(below)  # by int32 indices, take beats fancy indexing
        split = ra != rb
        above, below, ra, rb = above[split], below[split], ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        root = root.astype(np.intp)  # jumps gather by intp indices, which numpy need not cast
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        root = root.astype(itype)

    # roots are numbered in run order, which is anchor order
    dense = np.cumsum(root == np.arange(n, dtype=itype), dtype=np.uint32).take(root)
    labels[m != 0] = np.repeat(dense, ends - starts)
    return labels
