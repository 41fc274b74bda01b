"""Source-raster tiling, tile subdivision with annotation remapping, and
row-balanced k-fold assignment.

Tiles form a non-overlapping grid; partial tiles at the right/bottom edge
are dropped so every training chip has the same size. Blankness is decided
by a caller-supplied probe (all pixels equal to the declared nodata value
in the CLI). Folds go round-robin over the non-blank tiles sorted by grid
row then column, so fold sizes differ by at most one and the assignment
depends only on grid coordinates, never on input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .annotations import _is_json_int
from .annotations import ingest_annotations  # noqa: F401  (dataset-prep ingest surface)
from .targets import rasterize_polygon


@dataclass
class TileRecord:
    tile_id: int
    row: int
    col: int
    size: int
    blank: bool = False
    fold: Optional[int] = None

    @property
    def origin(self) -> tuple[int, int]:
        """Pixel offset (row, col) of the tile in the source raster."""
        return (self.row * self.size, self.col * self.size)

    def to_json(self) -> dict:
        return {"tile_id": self.tile_id, "row": self.row, "col": self.col,
                "blank": self.blank, "fold": self.fold}

    @classmethod
    def from_json(cls, obj: dict, size: int) -> "TileRecord":
        if not (isinstance(obj, dict) and all(_is_json_int(obj.get(k)) for k in ("tile_id", "row", "col"))
                and isinstance(obj.get("blank"), bool)
                and (obj.get("fold") is None or _is_json_int(obj["fold"]))):
            raise ValueError(f"tile record {obj!r} is not an object with integer tile_id, row "
                             "and col, a boolean blank flag and an integer or null fold")
        return cls(obj["tile_id"], obj["row"], obj["col"], size, obj["blank"], obj.get("fold"))


def tile_index(height: int, width: int, tile_size: int = 1024,
               probe: Callable[[TileRecord], bool] | None = None) -> list[TileRecord]:
    """Grid the source extent into tiles; tile_id is the row-major grid index."""
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    rows = height // tile_size
    cols = width // tile_size
    records = []
    for r in range(rows):
        for c in range(cols):
            rec = TileRecord(r * cols + c, r, c, tile_size)
            if probe is not None:
                rec.blank = bool(probe(rec))
            records.append(rec)
    return records


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


def kfold_assign(tiles: list[TileRecord], k: int = 5) -> list[TileRecord]:
    """Round-robin folds over non-blank tiles sorted by (row, col).

    Folds are keyed by `tile_id`, so a repeated id is an error."""
    if k < 2:
        raise ValueError("k must be >= 2")
    seen = set()
    for t in tiles:
        if t.tile_id in seen:
            raise ValueError(f"tile_id {t.tile_id} appears more than once in the tile index")
        seen.add(t.tile_id)
    usable = sorted((t for t in tiles if not t.blank), key=lambda t: (t.row, t.col))
    if len(usable) < k:
        raise ValueError(f"need at least {k} non-blank tiles, have {len(usable)}")
    fold_of = {t.tile_id: i % k for i, t in enumerate(usable)}
    return [TileRecord(t.tile_id, t.row, t.col, t.size, t.blank,
                       fold_of.get(t.tile_id)) for t in tiles]
