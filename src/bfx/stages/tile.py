"""`bfx tile`: a tile index of a PGM raster; loads no numpy.

The raster is read one tile row at a time: `tiling.tile_index` probes the
tiles in row-major order, so each band of `size` raster rows is read into
one reused buffer once every tile of the row before it is probed. Rows
below the last full tile row are never read."""

import os

from .. import fileio, tiling
from ..cli import _canonical_json


def run(cfg: dict):
    size = cfg["size"]
    nodata = cfg["nodata"]
    with fileio.open_payload(cfg["raster"], fileio.pnm_header, b"P5") as ((h, w), _, fill):
        band = bytearray(size * w if size <= h else 0)  # no tile row, no band

        def probe(row, col):  # every tile lies inside the raster: the grid drops partial ones
            if col == 0:  # the probes go row-major: a tile row's first tile reads its band
                fill(band)
            return all(band.count(nodata, start, start + size) == size
                       for start in range(col * size, size * w, w))

        records = tiling.tile_index(h, w, size, probe)
    fileio.atomic_write_text(cfg["index"], _canonical_json([r.to_json() for r in records]))
    return [cfg["raster"]], os.path.splitext(cfg["index"])[0]
