import itertools
from collections import Counter

import numpy as np
import pytest

from bfx import evaluate, extract, raster
from bfx.evaluate import EvalCounts

from _oracles import greedy_match, overlap_ious, paint_matches, paint_polygon_set, point_fill


def inst_map(h, w, boxes):
    """Instance map from (r0, c0, r1, c1) boxes, labeled in list order."""
    lab = np.zeros((h, w), np.uint32)
    for k, (r0, c0, r1, c1) in enumerate(boxes, start=1):
        lab[r0:r1, c0:c1] = k
    return lab


def best_matching_tp(iou_table):
    """Enumerate all one-to-one matchings over threshold-passing pairs and
    return the maximum TP count (feasible for <= 6 instances)."""
    edges = list(iou_table)
    best = 0
    for size in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, size):
            preds = [p for p, _ in combo]
            gts = [g for _, g in combo]
            if len(set(preds)) == size and len(set(gts)) == size:
                best = max(best, size)
        if best:
            break
    return best


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_match_identical_maps_all_tp():
    lab = inst_map(30, 30, [(1, 1, 9, 9), (12, 12, 20, 20), (22, 1, 28, 9)])
    m = evaluate.match_instances(lab, lab)
    assert m.counts == EvalCounts(3, 0, 0)
    assert m.unmatched_pred == [] and m.unmatched_gt == []
    assert all(iou == 1.0 for _, _, iou in m.pairs)


def test_match_one_column_offset_is_tp():
    pred = inst_map(20, 30, [(5, 6, 15, 16)])
    gt = inst_map(20, 30, [(5, 5, 15, 15)])
    m = evaluate.match_instances(pred, gt, 0.5)
    assert m.counts == EvalCounts(1, 0, 0)
    assert m.pairs[0][2] == pytest.approx(90 / 110)


def test_match_five_column_offset_is_fp_and_fn():
    pred = inst_map(20, 30, [(5, 10, 15, 20)])
    gt = inst_map(20, 30, [(5, 5, 15, 15)])
    m = evaluate.match_instances(pred, gt, 0.5)
    assert m.counts == EvalCounts(0, 1, 1)
    assert m.unmatched_pred == [1] and m.unmatched_gt == [1]


def test_match_each_instance_used_once_with_deterministic_ties():
    # one prediction overlapping two identical gts equally: smaller gt id wins
    pred = inst_map(10, 20, [(0, 0, 10, 10)])
    gt = np.zeros((10, 20), np.uint32)
    gt[0:10, 0:5] = 1
    gt[0:10, 5:10] = 2
    m = evaluate.match_instances(pred, gt, 0.3)
    assert m.pairs == [(1, 1, pytest.approx(0.5))]
    assert m.unmatched_gt == [2]


def test_match_equals_bruteforce_on_random_scenes():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        boxes_gt = []
        boxes_pred = []
        for k in range(n):
            r0 = 2 + 12 * int(rng.integers(0, 3))
            c0 = 2 + 12 * int(rng.integers(0, 3))
            if any(b[0] == r0 and b[1] == c0 for b in boxes_gt):
                continue
            boxes_gt.append((r0, c0, r0 + 8, c0 + 8))
            dr, dc = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            boxes_pred.append((r0 + dr, c0 + dc, r0 + 8 + dr, c0 + 8 + dc))
        gt = inst_map(48, 48, boxes_gt)
        pred = inst_map(48, 48, boxes_pred)
        m = evaluate.match_instances(pred, gt, 0.5)
        table = {}
        for pk in range(1, len(boxes_pred) + 1):
            for gk in range(1, len(boxes_gt) + 1):
                inter = int(((pred == pk) & (gt == gk)).sum())
                if inter == 0:
                    continue
                union = int(((pred == pk) | (gt == gk)).sum())
                if inter / union >= 0.5:
                    table[(pk, gk)] = inter / union
        assert m.counts.tp == best_matching_tp(table)
        assert {(p, g) for p, g, _ in m.pairs} <= set(table)


def sparse_maps():
    far = np.zeros((4, 4), np.uint32)
    far[1, 2] = 2_000_000  # checked before any table is sized from it
    gap = inst_map(6, 6, [(0, 0, 2, 2), (3, 3, 5, 5)])
    gap[gap == 2] = 3
    return {"far": far, "gap": gap}


@pytest.mark.parametrize("kind,reason", [
    ("far", "not dense: largest label 2000000 exceeds the pixel count 16"),
    ("gap", r"not dense in 1\.\.3: label 2 is absent")])
def test_match_and_color_map_reject_sparse_labels(kind, reason):
    sparse = sparse_maps()[kind]
    dense = inst_map(*sparse.shape, [(0, 0, 2, 2)])
    match = evaluate.match_instances(dense, dense)
    for pred, gt, what in [(sparse, dense, "prediction"), (dense, sparse, "ground-truth")]:
        with pytest.raises(ValueError, match=f"{what} map labels are {reason}"):
            evaluate.match_instances(pred, gt)
        with pytest.raises(ValueError, match=f"{what} map labels are {reason}"):
            evaluate.color_map(pred, gt, match)


@pytest.mark.parametrize("bad,reason", [
    (np.array([[1, 0], [0, -2]], np.int64), "holds a negative label -2"),
    # would wrap to label 1 in the uint32 cast
    (np.array([[0, 0], [0, 2 ** 32 + 1]], np.int64),
     "labels are not dense: largest label 4294967297 exceeds the pixel count 4")])
def test_match_and_color_map_check_labels_before_the_uint32_cast(bad, reason):
    dense = np.array([[0, 0], [0, 1]], np.uint32)
    match = evaluate.match_instances(dense, dense)
    for pred, gt, what in [(bad, dense, "prediction"), (dense, bad, "ground-truth")]:
        with pytest.raises(ValueError, match=f"{what} map {reason}"):
            evaluate.match_instances(pred, gt)
        with pytest.raises(ValueError, match=f"{what} map {reason}"):
            evaluate.color_map(pred, gt, match)


@pytest.mark.parametrize("bad", [np.array([[0, 0], [0, 1.5]]), np.array([[0, 0], [0, 1]], bool)])
def test_match_and_color_map_refuse_a_fractional_or_bool_map_on_either_side(bad):
    dense = np.array([[0, 0], [0, 1]], np.uint32)
    match = evaluate.match_instances(dense, dense)
    for pred, gt, what in [(bad, dense, "prediction"), (dense, bad, "ground-truth")]:
        with pytest.raises(ValueError, match=f"^expected a 2-D integer {what} map$"):
            evaluate.match_instances(pred, gt)
        with pytest.raises(ValueError, match=f"^expected a 2-D integer {what} map$"):
            evaluate.color_map(pred, gt, match)


@pytest.mark.parametrize("kind", ["far", "gap"])
def test_color_map_checks_density_without_match_instances(kind):
    # a hand-made match that accounts for every label the sparse map holds
    sparse = sparse_maps()[kind]
    labels = [int(v) for v in np.unique(sparse) if v]
    forged = evaluate.MatchResult([], evaluate.EvalCounts(0, len(labels), 0), labels, [])
    with pytest.raises(ValueError, match="prediction map labels are not dense"):
        evaluate.color_map(sparse, np.zeros_like(sparse), forged)


def test_color_map_core_colors_each_label_by_its_match():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pred = raster.connected_components((rng.random((24, 24)) < 0.3).astype(np.uint8))
        gt = raster.connected_components((rng.random((24, 24)) < 0.3).astype(np.uint8))
        match = evaluate.match_instances(pred, gt, float(rng.uniform(0.1, 0.6)))
        want = np.stack([np.isin(pred, [pp for pp, _, _ in match.pairs]),
                         np.isin(pred, match.unmatched_pred),
                         np.isin(gt, match.unmatched_gt)], axis=-1).astype(np.uint8) * 255
        assert np.array_equal(evaluate._color_map(pred, gt, match), want)
        assert np.array_equal(evaluate.color_map(pred, gt, match), want)


def random_instance_map(rng, shape):
    """Dense labels 1..N on `shape`, drawn per pixel or per 2- or 3-pixel
    block: instances overlap many to many, and small areas tie exactly."""
    block = int(rng.integers(1, 4))
    coarse = rng.integers(0, int(rng.integers(2, 8)), (-(-shape[0] // block), -(-shape[1] // block)))
    raw = coarse.repeat(block, 0).repeat(block, 1)[:shape[0], :shape[1]]
    ids, dense = np.unique(raw, return_inverse=True)
    return (dense.reshape(shape) + (ids[0] != 0)).astype(np.uint32)


def test_match_and_color_map_equal_the_sequential_greedy():
    rng = np.random.default_rng(31)
    ties = many_to_many = 0
    for _ in range(3000):
        shape = (int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        pred, gt = random_instance_map(rng, shape), random_instance_map(rng, shape)
        ious = overlap_ious(pred, gt)
        # two pairs at exactly 0.5 that share an instance
        halves = Counter(x for (pp, gg), iou in ious.items() if iou == 0.5 for x in [("p", pp), ("g", gg)])
        ties += any(k > 1 for k in halves.values())
        fan_p, fan_g = Counter(pp for pp, _ in ious), Counter(gg for _, gg in ious)
        many_to_many += max(fan_p.values(), default=0) > 1 and max(fan_g.values(), default=0) > 1
        for threshold in (0, 0.1, 0.3, 0.5, 0.7, 1):
            pairs, unmatched_p, unmatched_g = greedy_match(ious, int(pred.max()), int(gt.max()), threshold)
            m = evaluate.match_instances(pred, gt, threshold)
            assert (m.pairs, m.unmatched_pred, m.unmatched_gt) == (pairs, unmatched_p, unmatched_g)
            assert m.counts == EvalCounts(len(pairs), len(unmatched_p), len(unmatched_g))
            ids = [x for pp, gg, _ in m.pairs for x in (pp, gg)] + m.unmatched_pred + m.unmatched_gt
            assert {type(x) for x in ids} <= {int} and {type(iou) for _, _, iou in m.pairs} <= {float}
            want = paint_matches(pred, gt, pairs, unmatched_p, unmatched_g)
            assert np.array_equal(evaluate.color_map(pred, gt, m), want)
    assert ties >= 40 and many_to_many >= 1500, (ties, many_to_many)  # 47 and 1560 at this seed


def test_match_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate.match_instances(np.zeros((4, 4), np.uint32), np.zeros((4, 5), np.uint32))


# ---------------------------------------------------------------------------
# f1 / aggregation
# ---------------------------------------------------------------------------


def test_f1_single_class_row():
    f1 = evaluate.f1_from_counts(EvalCounts(711, 400, 1009))
    assert 50.22 <= f1 <= 50.24


def test_f1_two_class_row():
    f1 = evaluate.f1_from_counts(EvalCounts(1100, 506, 620))
    assert 66.13 <= f1 <= 66.16


def test_f1_empty_convention():
    assert evaluate.f1_from_counts(EvalCounts(0, 0, 0)) == 100.0


def test_aggregate_single_image_identity():
    counts = EvalCounts(4, 1, 2)
    total, f1 = evaluate.aggregate_global([counts])
    assert total == counts
    assert f1 == evaluate.f1_from_counts(counts)


def test_aggregate_two_images():
    total, f1 = evaluate.aggregate_global([EvalCounts(1, 0, 0), EvalCounts(0, 1, 1)])
    assert total == EvalCounts(1, 1, 1)
    assert f1 == pytest.approx(50.0)


def test_aggregate_rows_summing_to_table_counts():
    rows = [EvalCounts(300, 100, 509), EvalCounts(411, 300, 500)]
    total, f1 = evaluate.aggregate_global(rows)
    assert total == EvalCounts(711, 400, 1009)
    assert 50.22 <= f1 <= 50.24


def test_global_f1_is_not_mean_of_per_image_f1():
    rows = [EvalCounts(10, 0, 0), EvalCounts(0, 5, 5)]
    _, global_f1 = evaluate.aggregate_global(rows)
    mean_f1 = (evaluate.f1_from_counts(rows[0]) + evaluate.f1_from_counts(rows[1])) / 2
    assert global_f1 != pytest.approx(mean_f1)
    assert global_f1 == pytest.approx(100 * 20 / 30)


# ---------------------------------------------------------------------------
# color map
# ---------------------------------------------------------------------------


def test_color_map_perfect_prediction_is_red_on_black():
    lab = inst_map(20, 20, [(2, 2, 8, 8), (10, 10, 18, 18)])
    m = evaluate.match_instances(lab, lab)
    rgb = evaluate.color_map(lab, lab, m)
    assert (rgb[lab > 0] == (255, 0, 0)).all()
    assert (rgb[lab == 0] == 0).all()


def test_color_map_empty_prediction_is_blue():
    gt = inst_map(12, 12, [(2, 2, 9, 9)])
    pred = np.zeros_like(gt)
    m = evaluate.match_instances(pred, gt)
    rgb = evaluate.color_map(pred, gt, m)
    assert (rgb[gt > 0] == (0, 0, 255)).all()
    assert rgb[..., 0].sum() == 0 and rgb[..., 1].sum() == 0


def test_color_map_cyan_and_magenta_overlaps():
    # pred 1 matches gt 1 (TP, red) and also overlaps unmatched gt 2 -> magenta;
    # pred 2 is an FP overlapping gt 2 -> cyan in the overlap
    gt = np.zeros((20, 20), np.uint32)
    gt[0:10, 0:10] = 1
    gt[12:16, 0:8] = 2
    pred = np.zeros_like(gt)
    pred[0:10, 0:10] = 1
    pred[13, 0:8] = 1          # sliver of the TP prediction over gt 2
    pred[14:16, 0:4] = 2       # small FP blob over gt 2
    m = evaluate.match_instances(pred, gt, 0.5)
    assert {(p, g) for p, g, _ in m.pairs} == {(1, 1)}
    rgb = evaluate.color_map(pred, gt, m)
    assert tuple(rgb[13, 2]) == (255, 0, 255)   # magenta: TP pred over FN gt
    assert tuple(rgb[14, 2]) == (0, 255, 255)   # cyan: FP pred over FN gt
    assert tuple(rgb[2, 2]) == (255, 0, 0)      # plain TP
    assert tuple(rgb[12, 6]) == (0, 0, 255)     # uncovered FN gt
    assert (rgb[..., 0] & rgb[..., 1]).sum() == 0


def test_color_map_yellow_impossible_on_random_scenes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m1 = (rng.random((24, 24)) < 0.3).astype(np.uint8)
        m2 = (rng.random((24, 24)) < 0.3).astype(np.uint8)
        pred = raster.connected_components(m1)
        gt = raster.connected_components(m2)
        match = evaluate.match_instances(pred, gt)
        rgb = evaluate.color_map(pred, gt, match)
        assert ((rgb[..., 0] > 0) & (rgb[..., 1] > 0)).sum() == 0


def test_color_map_rejects_inconsistent_match():
    lab = inst_map(10, 10, [(1, 1, 5, 5)])
    m = evaluate.match_instances(lab, lab)
    other = inst_map(10, 10, [(1, 1, 5, 5), (6, 6, 9, 9)])
    with pytest.raises(ValueError):
        evaluate.color_map(other, lab, m)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_csv_empty_is_header_only():
    assert evaluate.export_per_image_csv([]) == "image_id,tp,fp,fn\n"


def test_csv_single_row():
    text = evaluate.export_per_image_csv([("a", EvalCounts(3, 1, 2))])
    assert text == "image_id,tp,fp,fn\na,3,1,2\n"


def test_csv_keeps_row_order():
    rows = [("img2", EvalCounts(1, 2, 3)), ("img1", EvalCounts(4, 0, 1))]
    assert evaluate.export_per_image_csv(rows) == "image_id,tp,fp,fn\nimg2,1,2,3\nimg1,4,0,1\n"


# ---------------------------------------------------------------------------
# geojson rasterization
# ---------------------------------------------------------------------------


def test_rasterize_polygon_set_round_trip():
    lab = inst_map(30, 30, [(2, 2, 12, 12), (15, 4, 24, 20)])
    ps = extract.polygonize(lab)
    back = evaluate.rasterize_polygon_set(ps)
    assert np.array_equal(back, lab)


def test_rasterize_polygon_set_largest_id_relabels_to_one():
    ring = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], float)
    ps = extract.PolygonSet("big", 4, 4, [extract.PolygonInstance(4294967295, ring, 4)])
    out = evaluate.rasterize_polygon_set(ps)
    assert out.dtype == np.uint32
    assert out.tolist() == [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_rasterize_polygon_set_clipped_rings_match_point_oracle():
    rings = [np.array([(-3, -2), (5, -1), (4.5, 4.5), (-1, 3)]),  # clipped top-left
             np.array([(8, 5), (14, 5), (14, 12), (8, 12)]),  # clipped right and bottom
             np.array([(20, 1), (30, 1), (30, 3), (20, 3)]),  # fully off the canvas
             np.array([(2.5, 6.5), (6.5, 6.5), (6.5, 11), (2.5, 11)]),  # clipped bottom
             np.array([(1, 1), (3, 1), (3, 3), (1, 3)]),  # inside ring 0, painted over it
             np.array([(1, 8), (4, 8), (4, 12), (1, 12)])]  # partly painted over by ring 3
    ids = [4, 2, 7, 9, 5, 3]
    h, w = 10, 11
    ps = extract.PolygonSet("clip", h, w, [extract.PolygonInstance(i, r, 0) for i, r in zip(ids, rings)])
    painted = np.zeros((h, w), np.uint32)
    for k in np.argsort(ids):
        painted[point_fill(rings[k], h, w) == 1] = ids[k]
    present = np.unique(painted[painted > 0])
    want = np.searchsorted(present, painted).astype(np.uint32) + (painted > 0)
    assert present.tolist() == [2, 3, 4, 5, 9]
    assert np.array_equal(evaluate.rasterize_polygon_set(ps), want)


def random_ring(rng, h, w):
    """A ring of one of five kinds: a random (often self-intersecting)
    polygon, a rectangle on half-integer coordinates, a ring wholly off the
    canvas, a thin diagonal sliver, or one with a vertex far off the canvas."""
    kind = int(rng.integers(5))
    if kind == 0:
        return rng.uniform(-0.3, 1.3, size=(int(rng.integers(3, 9)), 2)) * (w, h)
    if kind == 1:
        x0, x1 = np.sort(rng.integers(-2, w + 3, 2)) + 0.5
        y0, y1 = np.sort(rng.integers(-2, h + 3, 2)) + 0.5
        return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    if kind == 2:
        dx, dy = rng.choice([-1, 1], 2) * (w + 5, h + 5)
        return rng.uniform(0, 4, size=(4, 2)) + (dx, dy)
    if kind == 3:
        x0 = rng.uniform(-1, w + 1)
        return np.array([(x0, -1.0), (x0 + 0.7, -1.0), (w - x0 + 0.7, h + 1.0), (w - x0, h + 1.0)])
    far = rng.uniform(0, 1, size=(3, 2)) * (w, h)
    far[0, int(rng.integers(2))] = rng.choice([-1e17, 1e17])
    return far


def test_rasterize_polygon_set_matches_per_ring_oracle_on_random_sets():
    rng = np.random.default_rng(12)
    pool = [1, 2, 3, 5, 8, 2 ** 32 - 1, 2 ** 40, 2 ** 63 - 1]
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(1, 25, 2))
        n = int(rng.integers(0, 9))
        ids = rng.choice(pool, n).tolist()  # duplicates and huge ids included
        ps = extract.PolygonSet("r", h, w, [extract.PolygonInstance(int(i), random_ring(rng, h, w), 0)
                                            for i in ids])
        out = evaluate.rasterize_polygon_set(ps)
        assert out.dtype == np.uint32
        assert np.array_equal(out, paint_polygon_set(ps))


def test_rasterize_polygon_set_overlaps_keep_the_larger_id():
    square = np.array([(0, 0), (6, 0), (6, 6), (0, 6)], float)
    inner = np.array([(2, 2), (4, 2), (4, 4), (2, 4)], float)
    # a smaller id inside a larger one is painted over and relabeled away
    for ids, inner_label in (((9, 4), 1), ((4, 9), 2)):
        ps = extract.PolygonSet("o", 6, 6, [extract.PolygonInstance(ids[0], square, 0),
                                            extract.PolygonInstance(ids[1], inner, 0)])
        out = evaluate.rasterize_polygon_set(ps)
        assert out[3, 3] == inner_label and out[0, 0] == 1 and out.max() == inner_label
        assert np.array_equal(out, paint_polygon_set(ps))


def test_rasterize_polygon_set_thin_slivers_match_per_ring_oracle():
    rng = np.random.default_rng(5)
    instances = []
    for k in range(200):
        x0 = rng.uniform(0, 1024)
        ring = np.array([(x0, 0.0), (x0 + 1.3, 0.0), (1024 - x0 + 1.3, 1024.0), (1024 - x0, 1024.0)])
        instances.append(extract.PolygonInstance(k + 1, ring, 0))
    ps = extract.PolygonSet("slivers", 1024, 1024, instances)
    assert np.array_equal(evaluate.rasterize_polygon_set(ps), paint_polygon_set(ps))


def test_rasterize_polygon_set_names_the_bad_ring_in_id_order():
    good = np.array([(0, 0), (2, 0), (2, 2)], float)
    bad = np.array([(0, 0), (2, 2)], float)
    ps = extract.PolygonSet("b", 4, 4, [extract.PolygonInstance(5, bad, 0), extract.PolygonInstance(2, good, 0)])
    with pytest.raises(ValueError, match="^polygon 1: ring has fewer than 3 vertices$"):
        evaluate.rasterize_polygon_set(ps)
