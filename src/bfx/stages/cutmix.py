"""`bfx cutmix`: paste a box of sample B into sample A."""

import os

import numpy as np

from .. import formats, trainmath
from ..cli import _require


def _read_masks(path: str) -> np.ndarray:  # a 3-channel target stack, binarized at 0.5 to {0,1} uint8
    stack = formats.read_pmap(path)
    _require(stack.shape[0] == 3, f"expected a (3, h, w) stack, got shape {stack.shape}")
    return (stack >= 0.5).view(np.uint8)


def run(cfg: dict):
    image_a = formats.read_pmap(cfg["image_a"])
    masks_a = _read_masks(cfg["masks_a"])
    image_b = formats.read_pmap(cfg["image_b"])
    masks_b = _read_masks(cfg["masks_b"])
    if cfg["box"] is not None:
        box = tuple(cfg["box"])
    else:
        h, w = image_a.shape[-2:]
        box = trainmath.sample_cutmix_box(h, w, np.random.default_rng(cfg["seed"]))
    mixed_image, mixed_masks = trainmath.cutmix(image_a, masks_a, image_b, masks_b, box)
    formats.write_pmap(cfg["out_image"], mixed_image)
    formats.write_pmap(cfg["out_masks"], mixed_masks)
    inputs = [cfg["image_a"], cfg["masks_a"], cfg["image_b"], cfg["masks_b"]]
    return inputs, os.path.splitext(cfg["out_image"])[0]
