"""Memory per pixel of the labelling, extraction, polygonizing and matching
calls, on seeded scenes that are hard for them: speckle (thousands of tiny
components), packed ~150 px instances, one large building grown from a
tiny seed, and a serpentine (one component, one pixel wide, whose seed
floods it a layer at a time). Then the fold ensemble, whose peak must not
grow with the number of folds beyond what it is given.

Each bound is on the `tracemalloc` peak of one call over the scene's pixel
count, set a little above what the call measured on that scene, so a change
that makes a call hold one more int64 canvas at its peak fails here. Labelling
and polygonizing cost most where every pixel lies on a short row run or a
boundary: speckle and the serpentine.
"""

import numpy as np
import pytest

from bfx import cli, evaluate, extract, formats, fusion, raster

from _memory import traced_peak
from _oracles import serpentine

SIDE = 256


def speckle_scene(rng):
    """35 % noise confined to 11x11 cells: every component is tiny."""
    building = (rng.random((SIDE, SIDE)) < 0.35).astype(np.uint8)
    building[11::12] = 0
    building[:, 11::12] = 0
    return building, np.zeros_like(building)


def packed_scene(rng):
    """12-13 px squares, one per 15 px cell, each with its 2 px border."""
    building = np.zeros((SIDE, SIDE), np.uint8)
    border = np.zeros_like(building)
    for r in range(0, SIDE - 14, 15):
        for c in range(0, SIDE - 14, 15):
            h, w = (int(v) for v in rng.integers(12, 14, 2))
            r0, c0 = r + 1, c + 1
            building[r0:r0 + h, c0:c0 + w] = 1
            border[r0:r0 + h, c0:c0 + w] = 1
            border[r0 + 2:r0 + h - 2, c0 + 2:c0 + w - 2] = 0
    return building, border


def tiny_seed_scene(rng):
    """One large building whose border channel leaves a 2x2 seed near a corner."""
    building = np.zeros((SIDE, SIDE), np.uint8)
    building[8:-8, 8:-8] = 1
    border = building.copy()
    border[10:12, 10:12] = 0
    return building, border


def serpentine_scene(rng):
    """One serpentine seeded at one end only."""
    building = serpentine(63)
    border = building.copy()
    border[0, 0] = 0
    return building, border


SCENES = {"speckle": speckle_scene, "packed": packed_scene, "tiny-seed": tiny_seed_scene,
          "serpentine": serpentine_scene}


def labels(building, border):
    return (raster.connected_components(building),)


def fused(building, border):
    return (np.stack([building, border, np.zeros_like(building)]).astype(np.float32),)


def pred_and_gt(building, border):
    """The scene's components, and the same one pixel to the right: a
    ground truth that overlaps every instance only in part."""
    shifted = np.roll(building, 1, axis=1)
    return raster.connected_components(building), raster.connected_components(shifted)


# call -> (the function, its arguments from the scene's building and border
# masks, made before the peak is traced, and its bound in bytes per pixel on
# each scene of SCENES, in order)
CALLS = {
    "connected_components": (raster.connected_components, lambda b, d: (b,), (27, 17, 15, 68)),
    "multi_class_instances": (extract.multi_class_instances, fused, (31, 27, 23, 36)),
    "polygonize": (extract.polygonize, labels, (68, 18, 3, 82)),
    "match_instances": (evaluate.match_instances, pred_and_gt, (10, 16, 21, 9)),
}


@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("call", CALLS)
def test_memory_per_pixel_is_bounded(call, scene):
    building, border = SCENES[scene](np.random.default_rng(28))
    fn, make_args, bounds = CALLS[call]
    args = make_args(building, border)
    _, peak = traced_peak(lambda: fn(*args))
    assert peak / building.size < bounds[list(SCENES).index(scene)]


@pytest.mark.parametrize("folds", [2, 5, 8])
def test_ensemble_holds_its_output_and_one_band_whatever_the_fold_count(folds):
    # 3 float32 channels are 12 B/px of output; a band is 1/64 of 1024 rows
    shape = (3, 1024, 128)
    rng = np.random.default_rng(folds)
    maps = [rng.random(shape, dtype=np.float32) for _ in range(folds)]
    _, peak = traced_peak(lambda: fusion.ensemble_average(maps))
    assert peak / (shape[1] * shape[2]) < 16


def test_fuse_tta_holds_the_fold_means_one_view_sum_and_the_output(tmp_path):
    """Five folds of four 3-channel views: 12 B/px per fold mean, then the
    last fold's float64 sum (24 B/px) or the fused output and a band."""
    folds, side = 5, 256
    rng = np.random.default_rng(5)
    for k in range(folds):
        for suffix in ("id", "hf", "vf", "r180"):
            view = rng.random((3, side, side), dtype=np.float32)
            formats.write_pmap(tmp_path / f"fold{k}.{suffix}.pmap", view)
    argv = ["fuse", "--tta", *(str(tmp_path / f"fold{k}.pmap") for k in range(folds)),
            "--out", str(tmp_path / "fused.pmap"), "--threads", "1"]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak / side ** 2 < 12 * folds + 24 + 6
