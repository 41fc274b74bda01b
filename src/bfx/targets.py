"""Ground-truth channel synthesis from polygon annotations.

Three channels are generated per image, as the planes of one (3, h, w)
uint8 array in `formats.CHANNEL_NAMES` order: the filled building
footprints, their k-pixel inner borders (each polygon filled, eroded by a
(2k+1)^2 square, i.e. k times by a 3x3 one, and XORed with its own fill,
independently per polygon; k is `bfx.BORDER_WIDTH`, 2, unless the caller
passes another), and the spacing between close buildings
(15x15 dilation, watershed division seeded by the original buildings,
building pixels excluded). The separation lines lie inside the dilation,
so within Chebyshev distance 7 of a building: the cut to a distance of at
most 8 is implied, not computed.

Rasterization is pixel-center even-odd: pixel (row i, col j) is covered
when its center (j+0.5, i+0.5) is inside the ring, counting edge crossings
strictly left of the center along the scanline. Horizontal edges never
cross, so a center on a horizontal edge is covered exactly when the
interior continues below it.

The fill is built as pixel spans (`_spans`), for one ring or a whole set
of rings at once: sorted searches over the canvas's row centers give each
edge its scanlines, every (edge, row) pair gives one crossing, a sorted
search over the column centers gives the first pixel each crossing flips,
and one sort by (ring, row, column) pairs consecutive crossings into
half-open spans [on, off), which is the even-odd parity. Its cost is
O(edges + crossings + covered pixels), not O(canvas), so
`evaluate.rasterize_polygon_set` paints every instance of an image in one
pass. `rasterize_polygon` is the one-ring case; the ground-truth channels
call it once per ring on the ring's own rows, and erode (once, by a
(2k+1)^2 square for border width k) and paint each border inside the
window of those rows and of the columns the fill covers. That is exact
because erosion counts pixels outside the canvas as 0, the same value the
fill has outside the window.
"""

from __future__ import annotations

import math

import numpy as np

from . import BORDER_WIDTH, annotations, extract, raster

SPACING_DILATE_SIDE = 15


def _spans(rings, height: int, width: int):
    """Pixel spans of the even-odd fill of each ring (see module doc).

    `rings` are (n, 2) float64 arrays as `annotations._ring` returns them.
    Returns (ring index, flat index of the first pixel, pixel count) of
    every non-empty span of the height x width canvas, ordered by ring,
    then row, then column. Array methods stand in for the equivalent numpy
    functions, whose dispatch costs more than the work on one small ring."""
    sizes = np.array([len(r) for r in rings], np.intp)
    pts = np.concatenate(rings) if rings else np.zeros((0, 2))
    ends = np.add.accumulate(sizes)
    following = np.arange(1, len(pts) + 1)
    following[ends - 1] = ends - sizes  # each ring closes on its first vertex
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = x1[following], y1[following]
    dx, dy = x2 - x1, y2 - y1
    # each edge crosses the scanlines with ymin <= yc < ymax (half-open, so
    # a shared vertex counts once); horizontal edges cross none
    yc = np.arange(0.5, height)
    first = yc.searchsorted(np.minimum(y1, y2), side="left")
    count = yc.searchsorted(np.maximum(y1, y2), side="left") - first
    edge = np.arange(len(pts)).repeat(count)
    row = raster._ranges(first, count)
    t = (yc[row] - y1[edge]) / dy[edge]
    x = x1[edge] + t * dx[edge]

    # a crossing flips every pixel whose center lies strictly right of it;
    # column `width` flips none. One sorted key orders the crossings by
    # ring, row and column (it stays below 2**63: the canvas and the rings
    # would not fit in memory first).
    stride = width + 1
    ring_rows = (np.arange(sizes.size) * height).repeat(sizes)
    key = (ring_rows[edge] + row) * stride + np.arange(0.5, width).searchsorted(x, side="right")
    key.sort()
    # a closed ring crosses every scanline an even number of times, so the
    # sorted crossings pair up within each (ring, row) into [on, off) spans
    on = key[0::2]
    length = key[1::2] - on
    keep = length > 0
    ring, within = np.divmod(on[keep], height * stride)  # within = row * stride + column
    return ring, within - within // stride, length[keep]


def rasterize_polygon(ring, height: int, width: int) -> np.ndarray:
    """Scanline even-odd fill of one ring at pixel centers (see module doc)."""
    if height < 1 or width < 1:
        raise ValueError("canvas dimensions must be >= 1")
    _, start, length = _spans([annotations._ring(ring)], height, width)
    out = np.zeros((height, width), np.uint8)
    out.ravel()[raster._ranges(start, length)] = 1  # one ring's spans are disjoint
    return out


def _fill_and_border(rings, stack: np.ndarray, erosion_iterations: int) -> np.ndarray:
    """`stack`, a zeroed uint8 (c, h, w) array, with the ring fills ORed
    into plane 0 and their borders into plane 1, where a ring's border is
    its fill XOR its erosion by one (2k+1)^2 square, k the border width.
    Each ring is validated, then filled by `rasterize_polygon` on its own
    rows and bordered inside the columns its fill covers, unless it covers
    none."""
    if erosion_iterations < 0:
        raise ValueError(f"erosion_iterations must be >= 0, got {erosion_iterations}")
    building, border = stack[:2]
    height, width = building.shape
    for i, ring in enumerate(rings):
        pts = annotations._ring(ring, f"polygon {i}")
        # row r has crossings only if an edge spans its center r + 0.5, so the
        # fill's rows lie in [floor(ymin), ceil(ymax)), clamped to the canvas
        ymin, ymax = pts[:, 1].min(), pts[:, 1].max()
        rows = slice(math.floor(min(max(ymin, 0), height)), math.ceil(min(max(ymax, 0), height)))
        if rows.start == rows.stop:
            continue
        r0 = rows.start if ymax < 2.0 ** 53 else 0  # y - r0 is exact: no crossing moves
        band = rasterize_polygon(pts - (0, r0), rows.stop - r0, width)[rows.start - r0:]
        cols = np.flatnonzero(band.any(axis=0))
        if cols.size == 0:
            continue
        cols = slice(cols[0], cols[-1] + 1)
        filled = band[:, cols]
        building[rows, cols] |= filled
        border[rows, cols] |= filled ^ raster.erode(filled, 2 * erosion_iterations + 1)
    return stack


def make_border_mask(rings, height: int, width: int,
                     erosion_iterations: int = BORDER_WIDTH) -> np.ndarray:
    """Union of per-polygon borders: fill, erode, XOR, independently per ring."""
    return _fill_and_border(rings, np.zeros((2, height, width), np.uint8), erosion_iterations)[1]


def _label_boundary(labels: np.ndarray) -> np.ndarray:
    """Labeled pixels with a differently labeled (nonzero) 8-neighbour.

    The relation is symmetric, so each of the four forward offsets compares
    its pixel pairs once and marks both ends; pixels outside the canvas
    have no label."""
    boundary = np.zeros(labels.shape, bool)
    h, w = labels.shape
    for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
        here = (slice(0, h - dr), slice(max(0, -dc), w - max(0, dc)))
        there = (slice(dr, h), slice(max(0, dc), w - max(0, -dc)))
        a, b = labels[here], labels[there]
        differ = (a != b) & (a > 0) & (b > 0)
        boundary[here] |= differ
        boundary[there] |= differ
    return boundary


def make_spacing_mask(building) -> np.ndarray:
    """Separation lines between buildings whose 15x15 dilations touch.

    Steps: dilate the building mask; run the watershed over the dilated
    region seeded by the original building components; the basins cover
    the dilation exactly, so the separation lines are the basin pixels
    8-adjacent to a differently-labeled pixel; finally exclude the
    buildings themselves. Every line pixel lies in the dilation, within
    Chebyshev distance 7 of a building, so the cut to distance <= 8 changes
    no pixel and is not computed.
    """
    b = raster.as_mask(building)
    seeds = raster.connected_components(b)
    if int(seeds.max(initial=0)) < 2:
        return np.zeros_like(b)  # no inter-label boundary can exist
    lines = _label_boundary(extract.watershed_assign(seeds, raster.dilate(b, SPACING_DILATE_SIDE)))
    return (lines & (b == 0)).astype(np.uint8)


def assemble_targets(rings, height: int, width: int,
                     erosion_iterations: int = BORDER_WIDTH) -> np.ndarray:
    """The (3, height, width) uint8 {0,1} stack of one image's building,
    border and spacing planes (see module doc), each made in its plane.

    The building channel is the union of the filled polygons, border
    included, so that seeds = building - border stays well defined
    downstream. Overlapping polygons union in both channels. A fresh stack
    satisfies border <= building and spacing & building == 0.
    """
    stack = _fill_and_border(rings, np.zeros((3, height, width), np.uint8), erosion_iterations)
    stack[2] = make_spacing_mask(stack[0])
    return stack
