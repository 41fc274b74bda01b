"""`bfx targets`: ground-truth channels from annotations."""

import os

from .. import annotations, fileio, formats, targets
from ..cli import ValidationError, _pool_map, _read_json


def _safe_image_id(image_id: str) -> str:
    if not image_id or any(c in image_id for c in ("/", "\\", "\x00")) or image_id.startswith("."):
        raise ValidationError(f"image id {image_id!r} is not usable as a file stem")
    return image_id


def run(cfg: dict):
    per_image = annotations.ingest_annotations(_read_json(cfg["annotations"]))
    items = sorted(per_image.items())
    for image_id, _ in items:  # before the output directory exists: a refused call makes none
        _safe_image_id(image_id)
    out_dir = cfg["out_dir"]
    fileio.make_dirs(out_dir)

    def work(item):
        image_id, rings = item
        return image_id, targets.assemble_targets(
            rings, cfg["height"], cfg["width"], cfg["erosion_iterations"])

    for image_id, stack in _pool_map(work, items, cfg["threads"]):
        if cfg["format"] == "pmap":
            formats.write_pmap(os.path.join(out_dir, f"{image_id}.pmap"), stack.to_probmap())
        else:
            for name, mask in zip(formats.CHANNEL_NAMES, (stack.building, stack.border, stack.spacing)):
                formats.write_pgm(os.path.join(out_dir, f"{image_id}.{name}.pgm"), mask)
    return [cfg["annotations"]], os.path.join(out_dir, "targets")
