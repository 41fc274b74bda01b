"""`bfx targets`: ground-truth channels from annotations."""

import os

from .. import annotations, formats, targets
from ..cli import ValidationError, _pool_map, _read_json


def _safe_image_id(image_id: str) -> str:
    if not image_id or any(sep in image_id for sep in ("/", "\\")) or image_id.startswith("."):
        raise ValidationError(f"image id {image_id!r} is not usable as a file stem")
    return image_id


def run(cfg: dict):
    per_image = annotations.ingest_annotations(_read_json(cfg["annotations"]))
    items = sorted(per_image.items())
    for image_id, _ in items:  # before the output directory exists: a refused call makes none
        _safe_image_id(image_id)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    def work(item):
        image_id, rings = item
        return image_id, targets.assemble_targets(
            rings, cfg["height"], cfg["width"], cfg["erosion_iterations"])

    outputs = []
    for image_id, stack in _pool_map(work, items, cfg["threads"]):
        if cfg["format"] == "pmap":
            path = os.path.join(out_dir, f"{image_id}.pmap")
            formats.write_pmap(path, stack.to_probmap())
            outputs.append(path)
        else:
            for name, mask in zip(formats.CHANNEL_NAMES, (stack.building, stack.border, stack.spacing)):
                path = os.path.join(out_dir, f"{image_id}.{name}.pgm")
                formats.write_pgm(path, mask)
                outputs.append(path)
    return [cfg["annotations"]], outputs, os.path.join(out_dir, "targets")
