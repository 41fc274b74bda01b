"""Tile-index records, the tile grid and row-balanced k-fold assignment;
nothing here may import numpy.

Tiles form a non-overlapping grid; partial tiles at the right/bottom edge
are dropped so every training chip has the same size. Blankness is decided
by a caller-supplied probe of the tile's grid row and column (all pixels
equal to the declared nodata value in the CLI). Folds go round-robin over
the non-blank tiles sorted by grid row then column, so fold sizes differ by
at most one and the assignment depends only on grid coordinates, never on
input order. A `TileRecord` holds exactly what the tile-index file holds.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from . import FOLDS
from .fileio import _is_json_int


class TileRecord(NamedTuple):
    tile_id: int
    row: int
    col: int
    blank: bool = False
    fold: Optional[int] = None

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, obj: dict) -> "TileRecord":
        if not (isinstance(obj, dict) and all(_is_json_int(obj.get(k)) for k in ("tile_id", "row", "col"))
                and isinstance(obj.get("blank"), bool)
                and (obj.get("fold") is None or _is_json_int(obj["fold"]))):
            raise ValueError("tile record is not an object with integer tile_id, row and col, "
                             "a boolean blank flag and an integer or null fold")
        return cls(obj["tile_id"], obj["row"], obj["col"], obj["blank"], obj.get("fold"))


def tile_index(height: int, width: int, tile_size: int,
               probe: Callable[[int, int], bool]) -> list[TileRecord]:
    """Grid the source extent into tiles; tile_id is the row-major grid
    index, and a tile is blank when `probe(row, col)`, called once per tile
    in row-major order, is true."""
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    rows = height // tile_size
    cols = width // tile_size
    return [TileRecord(r * cols + c, r, c, bool(probe(r, c)))
            for r in range(rows) for c in range(cols)]


def kfold_assign(tiles: list[TileRecord], k: int = FOLDS) -> list[TileRecord]:
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
    return [t._replace(fold=fold_of.get(t.tile_id)) for t in tiles]
