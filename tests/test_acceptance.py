"""Acceptance suite: runs every criterion at its stated tolerance and prints
one PASS/FAIL line per criterion (run with `pytest -s` to see the lines)."""

import functools
import itertools
import json
import math
import os

import numpy as np

from bfx import cli, evaluate, extract, formats, fusion, schedules, targets, trainmath
from bfx.evaluate import EvalCounts

from _oracles import disjoint_rectangles, geodesic_watershed


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {title}")
                raise
            print(f"PASS  criterion {number}: {title}")
        return run
    return wrap


def rect_ring(x0, y0, x1, y1):
    return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], float)


@criterion(1, "object-count table reproduction (F1 from summed counts)")
def test_criterion_1_table_counts():
    one_class = evaluate.f1_from_counts(EvalCounts(711, 400, 1009))
    two_class = evaluate.f1_from_counts(EvalCounts(1100, 506, 620))
    assert 50.22 <= one_class <= 50.24
    assert 66.13 <= two_class <= 66.16


@criterion(2, "border-mask fidelity and per-polygon independence")
def test_criterion_2_border_algorithm():
    assert targets.make_border_mask([rect_ring(0, 0, 10, 10)], 16, 16).sum() == 64
    assert targets.make_border_mask([rect_ring(0, 0, 4, 4)], 8, 8).sum() == 16
    rng = np.random.default_rng(2024)
    for _ in range(100):
        rings, _ = disjoint_rectangles(rng, 40, 40, int(rng.integers(1, 5)),
                                       min_side=4, max_side=9)
        batch = targets.make_border_mask(rings, 40, 40)
        union = np.zeros((40, 40), np.uint8)
        for ring in rings:
            union |= targets.make_border_mask([ring], 40, 40)
        assert np.array_equal(batch, union)


@criterion(3, "watershed equals the geodesic nearest-seed oracle on 200 scenes")
def test_criterion_3_watershed_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = int(rng.integers(16, 65))
        w = int(rng.integers(16, 65))
        region = np.zeros((h, w), np.uint8)
        for _ in range(int(rng.integers(2, 6))):
            r0 = int(rng.integers(0, max(1, h - 6)))
            c0 = int(rng.integers(0, max(1, w - 6)))
            region[r0:r0 + int(rng.integers(4, 16)), c0:c0 + int(rng.integers(4, 16))] = 1
        ys, xs = np.nonzero(region)
        if ys.size == 0:
            region[h // 2, w // 2] = 1
            ys, xs = np.nonzero(region)
        seeds = np.zeros((h, w), np.uint32)
        n = min(int(rng.integers(0, 7)), ys.size)
        for lbl, k in enumerate(rng.choice(ys.size, size=n, replace=False), start=1):
            seeds[ys[k], xs[k]] = lbl
        out = extract.watershed_assign(seeds, region)
        assert np.array_equal(out, geodesic_watershed(seeds, region))


def synthetic_city(rng, count=20):
    """Axis-aligned buildings, each at least 16x16, gaps at least 3 px."""
    cell = 28
    cols = 5
    rows = math.ceil(count / cols)
    height, width = rows * cell + 4, cols * cell + 4
    rings = []
    placements = list(itertools.product(range(rows), range(cols)))[:count]
    for r, c in placements:
        side_h = int(rng.integers(16, 25))
        side_w = int(rng.integers(16, 25))
        y0 = r * cell + 2 + int(rng.integers(0, cell - side_h - 2))
        x0 = c * cell + 2 + int(rng.integers(0, cell - side_w - 2))
        rings.append(rect_ring(x0, y0, x0 + side_w, y0 + side_h))
    return rings, height, width


@criterion(4, "round-trip extraction recovers every synthetic building")
def test_criterion_4_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(3):
        rings, h, w = synthetic_city(rng, 20)
        stack = targets.assemble_targets(rings, h, w)
        ps = extract.extract_multi_class(stack)
        assert len(ps.instances) == 20
        gt = np.zeros((h, w), np.uint32)
        for k, ring in enumerate(rings, start=1):
            gt[targets.rasterize_polygon(ring, h, w) == 1] = k
        pred = evaluate.rasterize_polygon_set(ps)
        match = evaluate.match_instances(pred, gt, 0.5)
        assert evaluate.f1_from_counts(match.counts) == 100.0
        assert len(match.pairs) == 20
        assert all(iou >= 0.9 for _, _, iou in match.pairs)


@criterion(5, "multi-class separation of edge-sharing buildings")
def test_criterion_5_separation():
    rings = [rect_ring(4, 4, 24, 24), rect_ring(24, 4, 44, 24)]
    stack = targets.assemble_targets(rings, 28, 48)
    runs = []
    for _ in range(2):
        single = extract.extract_single_class(stack[0], min_area=140)
        multi = extract.extract_multi_class(stack, min_area=140)
        assert len(single.instances) == 1
        assert len(multi.instances) == 2
        runs.append(json.dumps(extract.polygon_set_to_geojson(multi), sort_keys=True))
    assert runs[0] == runs[1]


@criterion(6, "loss values match worked examples; gradients match finite differences")
def test_criterion_6_loss_numerics():
    ones = np.ones((10, 10), np.uint8)
    zeros = np.zeros((10, 10), np.uint8)
    assert abs(trainmath.dice_loss(np.ones((10, 10)), zeros)[0] - 0.999999) <= 1e-6
    assert abs(trainmath.dice_loss(np.full((10, 10), 0.5), ones)[0] - 0.333333) <= 1e-6
    assert abs(trainmath.bce_loss(np.full((10, 10), 0.5), ones)[0] - 0.693147) <= 1e-6
    assert abs(trainmath.bce_loss(np.array([[0.25]]), np.array([[1]], np.uint8))[0]
               - 1.386294) <= 1e-6
    assert abs(trainmath.channel_loss(np.full((10, 10), 0.5), ones)[0] - 0.513240) <= 1e-6
    assert trainmath.total_loss([0.6, 0.3, 0.3], trainmath.ChannelWeights(1, 2, 2)) == 0.36

    rng = np.random.default_rng(6)
    step = 1e-5
    for _ in range(50):
        pred = rng.uniform(0.05, 0.95, size=(16, 16))
        gt = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        for fn in (trainmath.dice_loss, trainmath.bce_loss, trainmath.channel_loss):
            _, grad = fn(pred, gt)
            flat = pred.ravel()
            for i in range(flat.size):
                bumped = flat.copy()
                bumped[i] = flat[i] + step
                hi = fn(bumped.reshape(16, 16), gt)[0]
                bumped[i] = flat[i] - step
                lo = fn(bumped.reshape(16, 16), gt)[0]
                fd = (hi - lo) / (2 * step)
                a = grad.ravel()[i]
                assert abs(a - fd) / max(abs(a), abs(fd), 1e-12) <= 1e-4


@criterion(7, "learning-rate schedule endpoints and continuity")
def test_criterion_7_schedules():
    assert schedules.lr_one_cycle(0) == 5e-6
    assert schedules.lr_one_cycle(40) == 1e-4
    assert schedules.lr_one_cycle(100) == 5e-9
    params = schedules.ScheduleParams()
    w = (1 + math.cos(0.0)) / 2  # down-phase weight at the junction
    assert params.lr_final * (1 - w) + params.lr_max * w == schedules.lr_one_cycle(40)
    assert schedules.lr_poly(0) == 1e-3
    assert schedules.lr_poly(100) == 0.0


@criterion(8, "fusion involutions, order independence, inclusive threshold")
def test_criterion_8_fusion(tmp_path):
    rng = np.random.default_rng(8)
    stack = rng.random((3, 9, 11)).astype(np.float32)
    for view in fusion.VIEWS:
        assert fusion.apply_view(fusion.apply_view(stack, view), view).tobytes() == stack.tobytes()

    maps = [rng.random((2, 8, 8)).astype(np.float32) for _ in range(5)]
    baseline = fusion.ensemble_average(maps)
    for perm in itertools.permutations(range(5)):
        assert fusion.ensemble_average([maps[i] for i in perm]).tobytes() == baseline.tobytes()

    for i, m in enumerate(maps):
        formats.write_pmap(tmp_path / f"m{i}.pmap", m)
    args = [str(tmp_path / f"m{i}.pmap") for i in range(5)]
    assert cli.main(["fuse", *args, "--out", str(tmp_path / "f1.pmap"), "--threads", "1"]) == 0
    assert cli.main(["fuse", *reversed(args), "--out", str(tmp_path / "f2.pmap"),
                     "--threads", "4"]) == 0
    assert (tmp_path / "f1.pmap").read_bytes() == (tmp_path / "f2.pmap").read_bytes()

    exact = np.full((1, 3, 3), 0.3, np.float32)
    assert fusion.binarize(exact, 0, 0.3).all()


@criterion(9, "color-map validity: no yellow anywhere, overlaps exactly as constructed")
def test_criterion_9_colormap():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pred = extract.single_class_instances(
            (rng.random((32, 32)) < 0.35).astype(np.uint8), min_area=1)
        gt = extract.single_class_instances(
            (rng.random((32, 32)) < 0.35).astype(np.uint8), min_area=1)
        match = evaluate.match_instances(pred, gt)
        rgb = evaluate.color_map(pred, gt, match)
        assert ((rgb[..., 0] > 0) & (rgb[..., 1] > 0)).sum() == 0

    # constructed overlaps: one TP over an FN (magenta), one FP over the same FN (cyan)
    gt = np.zeros((20, 20), np.uint32)
    gt[0:10, 0:10] = 1
    gt[12:16, 0:8] = 2
    pred = np.zeros_like(gt)
    pred[0:10, 0:10] = 1
    pred[13, 0:8] = 1
    pred[14:16, 0:4] = 2
    match = evaluate.match_instances(pred, gt, 0.5)
    rgb = evaluate.color_map(pred, gt, match)
    red = (rgb == (255, 0, 0)).all(axis=2)
    magenta = (rgb == (255, 0, 255)).all(axis=2)
    cyan = (rgb == (0, 255, 255)).all(axis=2)
    blue = (rgb == (0, 0, 255)).all(axis=2)
    tp_support = np.isin(pred, [1])
    fn_support = gt == 2
    assert np.array_equal(magenta, tp_support & fn_support)
    assert np.array_equal(cyan, (pred == 2) & fn_support)
    assert np.array_equal(red, tp_support & ~fn_support)
    assert np.array_equal(blue, fn_support & (pred == 0))


def run_pipeline(corpus, ann_path, run_dir, threads):
    image_ids = sorted(corpus)
    t = str(threads)
    assert cli.main(["targets", "--annotations", str(ann_path), "--out-dir",
                     str(run_dir / "tgt"), "--height", "96", "--width", "96",
                     "--format", "pmap", "--threads", t]) == 0
    (run_dir / "fused").mkdir()
    (run_dir / "pred").mkdir()
    (run_dir / "imap").mkdir()
    for image_id in image_ids:
        src = str(run_dir / "tgt" / f"{image_id}.pmap")
        fused = str(run_dir / "fused" / f"{image_id}.pmap")
        assert cli.main(["fuse", src, src, "--out", fused, "--threads", t]) == 0
        assert cli.main(["extract", "--mode", "multi", "--in", fused,
                         "--image-id", image_id,
                         "--out-geojson", str(run_dir / "pred" / f"{image_id}.geojson"),
                         "--out-imap", str(run_dir / "imap" / f"{image_id}.imap"),
                         "--threads", t]) == 0
    assert cli.main(["eval", "--pred", str(run_dir / "pred"), "--gt", str(run_dir / "imap"),
                     "--report", str(run_dir / "report.json"),
                     "--csv", str(run_dir / "counts.csv"),
                     "--colormap", str(run_dir / "cmaps"), "--threads", t]) == 0


@criterion(10, "end-to-end pipeline is byte-identical across thread counts")
def test_criterion_10_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(10)
    corpus = {}
    for k in range(3):
        rings, _ = disjoint_rectangles(rng, 96, 96, 6, min_side=13, max_side=20, gap=3)
        corpus[f"img{k}"] = [{"points": ring.tolist()} for ring in rings]
    ann_path = tmp_path / "corpus" / "ann.json"
    ann_path.parent.mkdir()
    ann_path.write_text(json.dumps(corpus))

    runs = []
    for threads in (1, 4):
        run_dir = tmp_path / f"run-t{threads}"
        run_dir.mkdir()
        run_pipeline(corpus, ann_path, run_dir, threads)
        tree = {}
        for base, _, files in os.walk(run_dir):
            for name in files:
                full = os.path.join(base, name)
                with open(full, "rb") as f:
                    tree[os.path.relpath(full, run_dir)] = f.read()
        runs.append(tree)

    assert sorted(runs[0]) == sorted(runs[1])
    # GeoJSON, IMAP1, PPM, CSV, JSON, PMAP, PGM: all byte-identical
    for rel in runs[0]:
        assert runs[0][rel] == runs[1][rel], f"artifact differs across thread counts: {rel}"
    assert any(rel.endswith(".ppm") for rel in runs[0])
    assert any(rel.endswith(".geojson") for rel in runs[0])
    assert any(rel.endswith(".imap") for rel in runs[0])
