"""Probability-map fusion: test-time-augmentation views, fold ensembling,
and thresholding.

The four supported views (identity, horizontal flip, vertical flip, 180
degree rotation) are involutions, so mapping a view back to the reference
frame applies the same transform again. Averages accumulate in float64 and
round to float32 once; the ensemble additionally sorts the per-pixel
summands (a compare-exchange network) so the result is independent of the
order the maps arrive in. Neither stacks its inputs: views are added into
the accumulator through strided indexing, and folds are compared, summed
and divided one band of rows at a time, so the network's planes and the
float64 sum are band-sized. `tta_average_stream` adds the views as they
are read, so a fold holds one view and the float64 sum, not four views.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import THRESHOLD

VIEWS = ("identity", "hflip", "vflip", "rot180")
_BAND_ROWS = 16  # rows of every channel that the ensemble orders and sums at once

_FLIP = slice(None, None, -1)
# each view as an index over the trailing (h, w) axes; applying it again
# maps the view back to the reference frame
_VIEW_INDEX = {
    "identity": (Ellipsis,),
    "hflip": (Ellipsis, _FLIP),
    "vflip": (Ellipsis, _FLIP, slice(None)),
    "rot180": (Ellipsis, _FLIP, _FLIP),
}


def apply_view(arr, view: str) -> np.ndarray:
    """Transform the pixel grid of a mask (2-D) or probability stack (3-D)."""
    a = np.asarray(arr)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D mask or (c, h, w) stack, got shape {a.shape}")
    if view not in _VIEW_INDEX:
        raise ValueError(f"unknown view {view!r}")
    return a[_VIEW_INDEX[view]].copy()


def tta_average_stream(read) -> np.ndarray:
    """Align four views back to the reference frame and average them,
    holding one view at a time.

    `read(name, buffer)` is called once per name in VIEWS order and returns
    that view as a float32 (c, h, w) stack. `buffer` is None for the first
    call and then the array the previous call returned, whose values have
    been added to the sum, so `read` may fill it in place. Each view is
    added through strided indexing (no copy) into one float64 accumulator
    as ((a0 + a1) + a2) + a3, which starts as a0.astype(float64), not from
    zeros, so a pixel that is -0.0 in every view stays -0.0. The sum is
    divided by 4 and rounded to float32 once, into the last returned array,
    which is returned.
    """
    total = buf = None
    for name in VIEWS:
        buf = read(name, buf)
        if buf.ndim != 3:
            raise ValueError(f"view {name!r} must be a (c, h, w) stack")
        if total is None:
            total = buf.astype(np.float64)  # the identity view needs no alignment
        elif buf.shape != total.shape:
            raise ValueError(f"view {name!r} has shape {buf.shape}, expected {total.shape}")
        else:
            total += buf[_VIEW_INDEX[name]]
    return np.divide(total, 4.0, out=buf)


def ensemble_average(maps: Sequence[np.ndarray]) -> np.ndarray:
    """Pixelwise arithmetic mean of one or more probability stacks.

    The K planes of each pixel are put in ascending order by an odd-even
    transposition network of np.minimum/np.maximum (Batcher, AFIPS 1968),
    then summed in that order into a float64 accumulator that starts from
    +0.0, divided by K and rounded to float32 once. The result is therefore
    invariant to the input ordering. The network, the sum and the division
    run over one band of rows of every channel at a time, each band's mean
    written into the output: every pixel gets the same operations in the
    same order as over whole planes, and what is held beyond the inputs and
    the output is band-sized, whatever K is.
    """
    planes = [np.asarray(m, np.float32) for m in maps]
    if not planes:
        raise ValueError("ensemble_average needs at least one map")
    shape = planes[0].shape
    if planes[0].ndim != 3:
        raise ValueError(f"expected (c, h, w) stacks, got shape {shape}")
    for a in planes[1:]:
        if a.shape != shape:
            raise ValueError(f"map shapes differ: {a.shape} vs {shape}")
    k = len(planes)
    out = np.empty(shape, np.float32)
    for r in range(0, shape[1], _BAND_ROWS):
        band = [p[:, r:r + _BAND_ROWS] for p in planes]
        if k > 2:  # (+0.0 + x) + y == (+0.0 + y) + x, so two planes need no ordering
            for rnd in range(k):
                for i in range(rnd % 2, k - 1, 2):
                    lo, hi = band[i], band[i + 1]
                    band[i], band[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
        # np.minimum/np.maximum may return one sign of zero in both lanes of a
        # (+0.0, -0.0) pair; a sum that starts from +0.0 is the same either way
        total = np.add(band[0], 0.0, dtype=np.float64)
        for p in band[1:]:
            total += p
        np.divide(total, k, out=out[:, r:r + _BAND_ROWS])
    return out


def binarize(pmap, channel: int, threshold: float = THRESHOLD) -> np.ndarray:
    """Threshold one channel of a probability stack; the comparison is
    inclusive, so a pixel exactly at the threshold maps to 1. It is made in
    the plane's dtype against that dtype's least value >= the threshold."""
    arr = np.asarray(pmap)
    if arr.ndim != 3:
        raise ValueError(f"expected a (c, h, w) stack, got shape {arr.shape}")
    if not 0 <= channel < arr.shape[0]:
        raise ValueError(f"channel {channel} out of range for {arr.shape[0]} channels")
    plane = arr[channel]
    if plane.dtype.kind == "f":
        with np.errstate(over="ignore"):  # past the dtype's range: +-inf, which stays exact
            least = plane.dtype.type(threshold)
        if float(least) < threshold:
            least = np.nextafter(least, plane.dtype.type(np.inf))
    else:
        plane = plane.view(np.uint8) if plane.dtype == bool else plane
        info = np.iinfo(plane.dtype)
        if not threshold <= info.max:  # NaN too
            return np.zeros(plane.shape, np.uint8)
        least = plane.dtype.type(math.ceil(max(threshold, info.min)))
    return np.greater_equal(plane, least).view(np.uint8)
