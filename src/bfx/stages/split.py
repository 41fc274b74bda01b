"""`bfx split`: k-fold assignment of a tile index; loads no numpy."""

import os

from .. import fileio, tiling
from ..cli import _canonical_json, _read_json


def run(cfg: dict):
    doc = _read_json(cfg["index"])
    if not isinstance(doc, list):
        raise ValueError("tile index must be a JSON array of records")
    records = []
    for i, obj in enumerate(doc):  # named by index: a record's repr can be arbitrarily long
        try:
            records.append(tiling.TileRecord.from_json(obj))
        except ValueError as exc:
            raise ValueError(f"{cfg['index']}: entry {i}: {exc}") from None
    assigned = tiling.kfold_assign(records, cfg["k"])
    out = cfg["out"] or cfg["index"]
    fileio.atomic_write_text(out, _canonical_json([r.to_json() for r in assigned]))
    return [cfg["index"]], os.path.splitext(out)[0]
