"""`bfx extract`: instance maps and polygons from fused masks."""

import os

import numpy as np

from .. import extract, fileio, formats, fusion
from ..cli import _canonical_json, _require


def run(cfg: dict):
    inputs = []
    if cfg["input"] is not None:
        inputs.append(cfg["input"])
        if cfg["input"].endswith(".pgm"):
            _require(cfg["mode"] == "single", "extract: PGM input is only valid in single mode")
            stack = formats.read_pgm(cfg["input"])[None]
        else:
            stack = formats.read_pmap(cfg["input"])
        default_id = os.path.splitext(os.path.basename(cfg["input"]))[0]
    else:
        inputs += [cfg[k] for k in formats.CHANNEL_NAMES if cfg[k]]  # --spacing is optional
        stack = np.stack([formats.read_pgm(path) for path in inputs])
        default_id = os.path.splitext(os.path.basename(cfg["building"]))[0]
    image_id = cfg["image_id"] if cfg["image_id"] is not None else default_id

    if cfg["mode"] == "single":
        building = fusion.binarize(stack, 0, cfg["threshold"])
        labels = extract.single_class_instances(building, cfg["min_area"])
    else:
        labels = extract.multi_class_instances(
            stack, cfg["threshold"], cfg["min_area"], use_spacing=not cfg["no_spacing"])
    ps = extract.polygonize(labels, image_id)

    fileio.atomic_write_text(cfg["out_geojson"], _canonical_json(extract.polygon_set_to_geojson(ps)))
    formats.write_imap(cfg["out_imap"], labels)
    return inputs, os.path.splitext(cfg["out_geojson"])[0]
