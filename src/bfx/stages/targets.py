"""`bfx targets`: ground-truth channels from annotations."""

import os

from .. import annotations, fileio, formats, targets
from ..cli import ValidationError, _read_json


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
    # one image at a time: its files are staged and its stack freed before
    # the next image's stack is made, so the call holds one stack at a time
    for image_id, rings in items:
        stack = targets.assemble_targets(rings, cfg["height"], cfg["width"], cfg["erosion_iterations"])
        if cfg["format"] == "pmap":
            formats.write_pmap(os.path.join(out_dir, f"{image_id}.pmap"), stack.to_probmap())
        else:
            for name in formats.CHANNEL_NAMES:  # the stack's fields
                formats.write_pgm(os.path.join(out_dir, f"{image_id}.{name}.pgm"), getattr(stack, name))
        del stack
    return [cfg["annotations"]], os.path.join(out_dir, "targets")
