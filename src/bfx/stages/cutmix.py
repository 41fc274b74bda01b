"""`bfx cutmix`: paste a box of sample B into sample A."""

import os

import numpy as np

from .. import formats, trainmath
from ..targets import TargetStack


def run(cfg: dict):
    image_a = formats.read_pmap(cfg["image_a"])
    masks_a = TargetStack.from_probmap(formats.read_pmap(cfg["masks_a"]))
    image_b = formats.read_pmap(cfg["image_b"])
    masks_b = TargetStack.from_probmap(formats.read_pmap(cfg["masks_b"]))
    if cfg["box"] is not None:
        box = tuple(cfg["box"])
    else:
        h, w = image_a.shape[-2:]
        box = trainmath.sample_cutmix_box(h, w, np.random.default_rng(cfg["seed"]))
    mixed_image, mixed_masks = trainmath.cutmix(image_a, masks_a, image_b, masks_b, box)
    formats.write_pmap(cfg["out_image"], mixed_image)
    formats.write_pmap(cfg["out_masks"], mixed_masks.to_probmap())
    inputs = [cfg["image_a"], cfg["masks_a"], cfg["image_b"], cfg["masks_b"]]
    return inputs, os.path.splitext(cfg["out_image"])[0]
