"""`bfx tile`: a tile index of a PGM raster; loads no numpy."""

import os

from .. import fileio, tiling
from ..cli import _canonical_json


def run(cfg: dict):
    (h, w), _, values = fileio.read_pnm(cfg["raster"], b"P5")
    size = cfg["size"]
    nodata = cfg["nodata"]

    def probe(row, col):  # every tile lies inside the raster: the grid drops partial ones
        r0, c0 = row * size, col * size
        return all(values.count(nodata, start, start + size) == size
                   for start in range(r0 * w + c0, (r0 + size) * w, w))

    records = tiling.tile_index(h, w, size, probe)
    fileio.atomic_write_text(cfg["index"], _canonical_json([r.to_json() for r in records]))
    return [cfg["raster"]], os.path.splitext(cfg["index"])[0]
