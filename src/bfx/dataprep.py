"""Tile subdivision with annotation remapping.

A 1024 tile splits into four 512 quadrant crops; each polygon is clipped
to the crop window and dropped when the clipped fragment covers no pixel.
The grid, the tile records and the row-balanced k-fold assignment live in
`bfx.tiling`, which needs no numpy, so `split` and `tile` do not load
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .targets import rasterize_polygon


def _clip_ring(pts: np.ndarray, xlo: float, xhi: float, ylo: float, yhi: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a ring against an axis-aligned window."""
    def clip_edge(poly, inside, intersect):
        out = []
        for i, cur in enumerate(poly):
            prev = poly[i - 1]
            cur_in = inside(cur)
            if inside(prev) != cur_in:
                out.append(intersect(prev, cur))
            if cur_in:
                out.append(cur)
        return out

    def cross_x(bound):
        def at(p, q):
            t = (bound - p[0]) / (q[0] - p[0])
            return (bound, p[1] + t * (q[1] - p[1]))
        return at

    def cross_y(bound):
        def at(p, q):
            t = (bound - p[1]) / (q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), bound)
        return at

    poly = [tuple(v) for v in pts]
    poly = clip_edge(poly, lambda p: p[0] >= xlo, cross_x(xlo))
    if poly:
        poly = clip_edge(poly, lambda p: p[0] <= xhi, cross_x(xhi))
    if poly:
        poly = clip_edge(poly, lambda p: p[1] >= ylo, cross_y(ylo))
    if poly:
        poly = clip_edge(poly, lambda p: p[1] <= yhi, cross_y(yhi))
    return np.asarray(poly, np.float64).reshape(-1, 2)


@dataclass
class TileCrop:
    offset: tuple[int, int]  # (row, col) of the crop inside the parent tile
    image: Optional[np.ndarray]
    rings: list[np.ndarray]


def subdivide_tile(image: Optional[np.ndarray], rings, tile_size: int = 1024,
                   crop_size: int = 512) -> list[TileCrop]:
    """Split a tile into four quadrant crops, remapping its annotations.

    Polygons are clipped to each crop window (rectilinear clip), translated
    into crop coordinates, and dropped when the clipped fragment rasterizes
    to zero pixels. The clip boundary coincides with pixel boundaries, so
    summing rasterized fill over the four crops reproduces the parent fill.
    """
    if 2 * crop_size != tile_size:
        raise ValueError("crop_size must be half of tile_size")
    if image is not None:
        img = np.asarray(image)
        if img.shape[-2:] != (tile_size, tile_size):
            raise ValueError(f"tile must be {tile_size}x{tile_size}, got {img.shape[-2:]}")
    else:
        img = None

    crops = []
    for r0 in (0, crop_size):
        for c0 in (0, crop_size):
            kept = []
            for ring in rings:
                pts = np.asarray(ring, np.float64)
                clipped = _clip_ring(pts, c0, c0 + crop_size, r0, r0 + crop_size)
                if len(clipped) < 3:
                    continue
                moved = clipped - (c0, r0)
                if rasterize_polygon(moved, crop_size, crop_size).sum() < 1:
                    continue
                kept.append(moved)
            sub = None if img is None else img[..., r0:r0 + crop_size, c0:c0 + crop_size].copy()
            crops.append(TileCrop((r0, c0), sub, kept))
    return crops
