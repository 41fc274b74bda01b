"""Object-level scoring with color-map diagnostics.

Object scoring follows the SpaceNet buildings convention: candidate
prediction/ground-truth pairs with IoU >= 0.5 are matched greedily in
descending IoU order (ties broken by smaller prediction id, then smaller
ground-truth id), each instance matched at most once; matched pairs are
true positives, leftover predictions false positives, leftover ground
truths false negatives. IoU is computed on rasterized instance supports,
not polygon geometry, as one float64 division of exact pixel counts,
which equals Python's int / int below 2**53 pixels. Both instance maps
must keep the instance-map rule of `bfx.raster` and hold every label 1..N.
`color_map` refuses a match that does not name each label of each map
once, as matched or unmatched, or whose counts differ from its lists. F1
aggregates globally over summed counts, which is not the mean of
per-image F1 scores.

An empty scene predicted empty scores an F1 of 100 % (it is correct);
this convention differs between toolkits, so it is pinned here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import IOU_THRESHOLD, annotations, raster, targets
from .extract import PolygonSet


@dataclass(frozen=True)
class EvalCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass
class MatchResult:
    pairs: list[tuple[int, int, float]] = field(default_factory=list)
    counts: EvalCounts = EvalCounts()
    unmatched_pred: list[int] = field(default_factory=list)
    unmatched_gt: list[int] = field(default_factory=list)


def _overlap_table(pred: np.ndarray, gt: np.ndarray, n_gt: int):
    """Sparse intersection counts of nonzero pred and gt labels; gt's largest label is n_gt."""
    both = (pred > 0) & (gt > 0)
    codes = pred[both].astype(np.int64) * (n_gt + 1) + gt[both].astype(np.int64)
    pairs, inter = np.unique(codes, return_counts=True)
    return pairs // (n_gt + 1), pairs % (n_gt + 1), inter


def match_instances(pred, gt, iou_threshold: float = IOU_THRESHOLD) -> MatchResult:
    """Greedy one-to-one matching of instance maps (see module doc)."""
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise ValueError(f"instance map dimensions differ: {p.shape} vs {g.shape}")
    # checked before the uint32 cast, which would wrap a negative or huge label
    area_p = raster._label_areas(p, "prediction")
    area_g = raster._label_areas(g, "ground-truth")
    pid, gid, inter = _overlap_table(p.astype(np.uint32, copy=False), g.astype(np.uint32, copy=False),
                                     area_g.size - 1)
    iou = inter / (area_p[pid] + area_g[gid] - inter)
    keep = np.flatnonzero(iou >= iou_threshold)
    keep = keep[np.lexsort((gid[keep], pid[keep], -iou[keep]))]

    used_p = np.zeros(area_p.size, bool)
    used_g = np.zeros(area_g.size, bool)
    used_p[0] = used_g[0] = True  # the background is never an instance
    pairs: list[tuple[int, int, float]] = []
    for pp, gg, v in zip(pid[keep].tolist(), gid[keep].tolist(), iou[keep].tolist()):
        if not (used_p[pp] or used_g[gg]):
            used_p[pp] = used_g[gg] = True
            pairs.append((pp, gg, v))

    unmatched_p = np.flatnonzero(~used_p).tolist()
    unmatched_g = np.flatnonzero(~used_g).tolist()
    counts = EvalCounts(len(pairs), len(unmatched_p), len(unmatched_g))
    return MatchResult(pairs, counts, unmatched_p, unmatched_g)


def f1_from_counts(counts: EvalCounts) -> float:
    """F1 = 2TP / (2TP + FP + FN) as a percentage; empty-vs-empty is 100."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 100.0
    return 100.0 * 2 * counts.tp / denom


def aggregate_global(per_image) -> tuple[EvalCounts, float]:
    """Componentwise-sum the per-image counts and score the total."""
    total = EvalCounts(0, 0, 0)
    for c in per_image:
        total = total + c
    return total, f1_from_counts(total)


def color_map(pred, gt, match: MatchResult) -> np.ndarray:
    """Per-pixel TP/FP/FN raster: red for matched-prediction pixels, green
    for unmatched-prediction pixels, blue for unmatched ground-truth pixels.
    Overlaps compose (cyan = green+blue, magenta = red+blue); red+green is
    impossible because prediction instances are disjoint.
    """
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise ValueError(f"instance map dimensions differ: {p.shape} vs {g.shape}")
    n_p = raster._label_areas(p, "prediction").size - 1
    n_g = raster._label_areas(g, "ground-truth").size - 1
    if match.counts != EvalCounts(len(match.pairs), len(match.unmatched_pred), len(match.unmatched_gt)):
        raise ValueError("match result counts disagree with its pairs and unmatched ids")
    # on each side the ids, matched or not, are 1..N once each
    for what, n, ids in [("prediction", n_p, [pp for pp, _, _ in match.pairs] + list(match.unmatched_pred)),
                         ("ground-truth", n_g, [gg for _, gg, _ in match.pairs] + list(match.unmatched_gt))]:
        if sorted(ids) != list(range(1, n + 1)):
            raise ValueError(f"match result inconsistent with the {what} map")
    return _color_map(p.astype(np.uint32, copy=False), g.astype(np.uint32, copy=False), match)


def _color_map(p: np.ndarray, g: np.ndarray, match: MatchResult) -> np.ndarray:
    """`color_map` of uint32 instance maps that `match` was computed from.

    `match_instances` has checked both maps' labels dense and accounted for
    each label exactly once, so the label counts come from the match."""
    tp_lut = np.zeros(match.counts.tp + match.counts.fp + 1, bool)
    tp_lut[[pp for pp, _, _ in match.pairs]] = True
    fp_lut = np.zeros_like(tp_lut)
    fp_lut[match.unmatched_pred] = True
    fn_lut = np.zeros(match.counts.tp + match.counts.fn + 1, bool)
    fn_lut[match.unmatched_gt] = True

    rgb = np.zeros(p.shape + (3,), np.uint8)
    rgb[..., 0] = tp_lut[p] * np.uint8(255)
    rgb[..., 1] = fp_lut[p] * np.uint8(255)
    rgb[..., 2] = fn_lut[g] * np.uint8(255)
    return rgb


def export_per_image_csv(rows) -> str:
    """CSV export of per-image counts (the violin-plot backing data)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["image_id", "tp", "fp", "fn"])
    for image_id, counts in rows:
        writer.writerow([image_id, counts.tp, counts.fp, counts.fn])
    return buf.getvalue()


def rasterize_polygon_set(ps: PolygonSet) -> np.ndarray:
    """Rebuild an instance map from polygon exteriors.

    Instances are rasterized in ascending id order (later ids overwrite on
    overlap, which cannot happen for sets produced by the extractor) and
    relabeled densely preserving that order. All rings' spans are built at
    once (`targets._spans`) and painted in one pass, where each pixel keeps
    the largest rank among the distinct ids covering it, so the work is
    O(edges + crossings + covered pixels) plus one pass over the canvas,
    however many rings there are. The relabel table has one entry per
    distinct id however large the ids are.
    """
    if ps.height < 1 or ps.width < 1:
        raise ValueError("canvas dimensions must be >= 1")
    ids = np.array([inst.id for inst in ps.instances], np.int64)
    distinct, rank = np.unique(ids, return_inverse=True)
    order = np.argsort(ids, kind="stable")
    rings = [annotations._ring(ps.instances[k].exterior, f"polygon {j}") for j, k in enumerate(order)]
    ring, start, length = targets._spans(rings, ps.height, ps.width)
    labels = np.zeros((ps.height, ps.width), np.uint32)
    flat = labels.ravel()
    pixels = raster._ranges(start, length)
    value = (rank[order] + 1).astype(np.uint32)
    np.maximum.at(flat, pixels, value[ring].repeat(length))
    used = np.zeros(distinct.size + 1, bool)
    used[flat[pixels]] = True  # every labeled pixel is a span pixel
    if used[1:].all():  # every id kept a pixel: the ranks are already dense
        return labels
    used[0] = False
    remap = np.zeros(distinct.size + 1, np.uint32)
    remap[used] = np.arange(1, np.count_nonzero(used) + 1, dtype=np.uint32)
    return remap.take(labels)
