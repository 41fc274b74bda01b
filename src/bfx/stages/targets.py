"""`bfx targets`: ground-truth channels from annotations."""

import os

from .. import annotations, fileio, formats, targets
from ..cli import _read_json


def _safe_image_id(image_id: str) -> str:
    if not image_id or any(c in image_id for c in ("/", "\\", "\x00")) or image_id.startswith("."):
        raise ValueError(f"image id {image_id!r} is not usable as a file stem")
    return image_id


def _write_stack(stem: str, fmt: str, stack) -> None:  # its own frame: no name outlives the stack
    if fmt == "pmap":
        formats.write_pmap(stem + ".pmap", stack)
    else:
        for name, plane in zip(formats.CHANNEL_NAMES, stack):
            formats.write_pgm(f"{stem}.{name}.pgm", plane)


def run(cfg: dict):
    per_image = annotations.ingest_annotations(_read_json(cfg["annotations"]))
    items = sorted(per_image.items())
    for image_id, _ in items:  # before the output directory exists: a refused call makes none
        _safe_image_id(image_id)
    fileio.make_dirs(cfg["out_dir"])
    # one image at a time: its files are staged and its stack freed before
    # the next image's stack is made, so the call holds one stack at a time
    for image_id, rings in items:
        _write_stack(os.path.join(cfg["out_dir"], image_id), cfg["format"], targets.assemble_targets(
            rings, cfg["height"], cfg["width"], cfg["erosion_iterations"]))
    return [cfg["annotations"]], os.path.join(cfg["out_dir"], "targets")
