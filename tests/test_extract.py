import json

import numpy as np
import pytest

from bfx import extract, raster, targets
from bfx.annotations import ingest_annotations

from _memory import traced_peak
from _oracles import (disjoint_rectangles, filter_small_by_unique, flood_components, geodesic_watershed,
                      point_fill, serpentine, walk_polygonize)


def rect_ring(x0, y0, x1, y1):
    return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], float)


def random_region_and_seeds(rng, h, w, max_seeds):
    region = np.zeros((h, w), np.uint8)
    for _ in range(int(rng.integers(2, 6))):
        r0 = int(rng.integers(0, h - 4))
        c0 = int(rng.integers(0, w - 4))
        region[r0:r0 + int(rng.integers(3, 14)), c0:c0 + int(rng.integers(3, 14))] = 1
    region = region[:h, :w]
    seeds = np.zeros((h, w), np.uint32)
    ys, xs = np.nonzero(region)
    if ys.size == 0:
        region[h // 2, w // 2] = 1
        ys, xs = np.nonzero(region)
    n = int(rng.integers(0, max_seeds + 1))
    picks = rng.choice(ys.size, size=min(n, ys.size), replace=False)
    for lbl, k in enumerate(picks, start=1):
        seeds[ys[k], xs[k]] = lbl
    return region, seeds


# ---------------------------------------------------------------------------
# make_seeds
# ---------------------------------------------------------------------------


def test_make_seeds_of_bordered_square():
    stack = targets.assemble_targets([rect_ring(2, 2, 12, 12)], 16, 16)
    seeds = extract.make_seeds(stack[0], stack[1])
    assert int(seeds.max()) == 1
    assert (seeds > 0).sum() == 36  # the 6x6 interior that survives the 2-px border


def test_make_seeds_with_empty_border():
    b = np.zeros((10, 10), np.uint8)
    b[1:4, 1:4] = 1
    b[6:9, 6:9] = 1
    seeds = extract.make_seeds(b, np.zeros_like(b))
    assert np.array_equal(seeds, raster.connected_components(b))


def test_make_seeds_fully_bordered_building():
    b = np.zeros((8, 8), np.uint8)
    b[2:5, 2:5] = 1
    seeds = extract.make_seeds(b, b)
    assert seeds.max() == 0


def test_make_seeds_dim_mismatch():
    with pytest.raises(ValueError):
        extract.make_seeds(np.zeros((4, 4), np.uint8), np.zeros((4, 5), np.uint8))


# ---------------------------------------------------------------------------
# watershed_assign
# ---------------------------------------------------------------------------


def test_watershed_two_blobs_one_seed_each():
    region = np.zeros((8, 12), np.uint8)
    region[1:5, 1:5] = 1
    region[1:5, 7:11] = 1
    seeds = np.zeros_like(region, np.uint32)
    seeds[2, 2] = 1
    seeds[3, 9] = 2
    out = extract.watershed_assign(seeds, region)
    assert (out[1:5, 1:5] == 1).all()
    assert (out[1:5, 7:11] == 2).all()
    assert (out[region == 0] == 0).all()


def test_watershed_row_tie_goes_to_smaller_label():
    seeds = np.zeros((1, 5), np.uint32)
    seeds[0, 0] = 1
    seeds[0, 4] = 2
    out = extract.watershed_assign(seeds, np.ones((1, 5), np.uint8))
    assert out.tolist() == [[1, 1, 1, 2, 2]]


def test_watershed_seedless_component_gets_fresh_label():
    region = np.zeros((6, 10), np.uint8)
    region[1:4, 1:4] = 1
    region[1:4, 6:9] = 1
    seeds = np.zeros_like(region, np.uint32)
    seeds[2, 2] = 1
    out = extract.watershed_assign(seeds, region)
    assert (out[1:4, 1:4] == 1).all()
    assert (out[1:4, 6:9] == 2).all()  # fresh label after the existing one


def test_watershed_seed_outside_region_rejected():
    seeds = np.zeros((3, 3), np.uint32)
    seeds[0, 0] = 1
    with pytest.raises(ValueError):
        extract.watershed_assign(seeds, np.zeros((3, 3), np.uint8))


def test_watershed_restricted_to_seed_labels_on_seed_pixels():
    rng = np.random.default_rng(0)
    region, seeds = random_region_and_seeds(rng, 24, 24, 4)
    seeds[region == 0] = 0
    out = extract.watershed_assign(seeds, region)
    sel = seeds > 0
    assert np.array_equal(out[sel], seeds[sel])
    # partition property: labeled pixels == region pixels (every component
    # reachable from a seed plus seedless components)
    assert np.array_equal(out > 0, region == 1)


def test_watershed_matches_geodesic_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        region, seeds = random_region_and_seeds(rng, 32, 32, 5)
        seeds[region == 0] = 0
        # densify seed labels
        used = np.unique(seeds[seeds > 0])
        remap = np.zeros(int(seeds.max()) + 1, np.uint32)
        remap[used] = np.arange(1, used.size + 1, dtype=np.uint32)
        seeds = remap[seeds]
        out = extract.watershed_assign(seeds, region)
        assert np.array_equal(out, geodesic_watershed(seeds, region))


@pytest.mark.parametrize("first,last", [(1, 2), (2, 1)])
def test_watershed_serpentine_tie_goes_to_smaller_label(first, last):
    region = serpentine(31)
    seeds = np.zeros(region.shape, np.uint32)
    seeds[0, 0] = first
    seeds[0, 30] = last
    out = extract.watershed_assign(seeds, region)
    assert np.array_equal(out, geodesic_watershed(seeds, region))
    # 511 pixels: one pixel equidistant from both ends, whichever end holds 1
    assert (int((out == 1).sum()), int((out == 2).sum())) == (256, 255)


def test_watershed_full_region_seeds_in_opposite_corners():
    region = np.ones((48, 48), np.uint8)
    seeds = np.zeros(region.shape, np.uint32)
    seeds[0, 0] = 1
    seeds[47, 47] = 2
    out = extract.watershed_assign(seeds, region)
    assert np.array_equal(out, geodesic_watershed(seeds, region))
    assert out[0, 47] == out[47, 0] == 1  # Chebyshev ties on the anti-diagonal


def test_watershed_seeded_and_seedless_components_mixed():
    region = np.zeros((20, 30), np.uint8)
    for r0, c0 in ((1, 1), (1, 12), (11, 1), (11, 12), (5, 24)):
        region[r0:r0 + 6, c0:c0 + 6] = 1
    seeds = np.zeros(region.shape, np.int64)
    seeds[3, 14] = 2
    seeds[13, 3] = 1
    seeds[12, 13] = 3
    out = extract.watershed_assign(seeds, region)
    assert np.array_equal(out, geodesic_watershed(seeds, region))
    # the seedless blocks follow the seed labels in anchor order
    assert [int(out[r0 + 2, c0 + 2]) for r0, c0 in ((1, 1), (1, 12), (11, 1), (11, 12), (5, 24))] \
        == [4, 2, 1, 3, 5]


@pytest.mark.parametrize("bad", [-1, 2 ** 32 - 1, 2 ** 32 + 1])
def test_watershed_seed_label_out_of_range_rejected(bad):
    seeds = np.zeros((3, 3), np.int64)
    seeds[1, 1] = bad
    with pytest.raises(ValueError, match=r"^seed map (holds a negative label -1|labels are not "
                                         r"dense: largest label \d+ exceeds the pixel count 9)$"):
        extract.watershed_assign(seeds, np.ones((3, 3), np.uint8))


def test_watershed_seedless_labels_past_uint32_rejected(monkeypatch):
    # seed labels are at most the pixel count, so fresh labels pass uint32
    # only on canvases of 2**31 pixels or more; a component labelling that
    # numbers from 2**32 - 3 reaches the guard on a small one
    real = raster.connected_components
    monkeypatch.setattr(raster, "connected_components",
                        lambda mask: np.where(real(mask) > 0, real(mask) + np.uint32(2 ** 32 - 4), 0))
    region = np.zeros((1, 7), np.uint8)
    region[0, [0, 2, 4]] = 1
    seeds = np.zeros((1, 7), np.int64)
    seeds[0, 4] = 2
    assert extract.watershed_assign(seeds[:, 1:], region[:, 1:])[0, 1] == 2 ** 32 - 1
    with pytest.raises(ValueError, match="uint32"):
        extract.watershed_assign(seeds, region)  # the second fresh label would wrap to 0


def test_watershed_determinism_and_layout_independence():
    rng = np.random.default_rng(2)
    region, seeds = random_region_and_seeds(rng, 20, 20, 3)
    seeds[region == 0] = 0
    a = extract.watershed_assign(seeds, region)
    b = extract.watershed_assign(np.asfortranarray(seeds), np.asfortranarray(region))
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# filter_small
# ---------------------------------------------------------------------------


def test_filter_small_strict_threshold():
    lab = np.zeros((20, 20), np.uint32)
    lab[:7, :20] = 1  # 140 pixels: kept
    lab2 = np.zeros((20, 20), np.uint32)
    lab2[:7, :20] = 1
    lab2[7, :19] = 1  # wait, avoid touching: use separate maps
    kept = extract.filter_small(lab, 140)
    assert int(kept.max()) == 1 and (kept == lab).all()

    small = np.zeros((20, 20), np.uint32)
    small.ravel()[:139] = 1  # 139 pixels: removed
    assert extract.filter_small(small, 140).max() == 0


def test_filter_small_empty_map():
    lab = np.zeros((5, 5), np.uint32)
    assert np.array_equal(extract.filter_small(lab, 140), lab)


def test_filter_small_relabels_densely_by_anchor():
    lab = np.zeros((6, 12), np.uint32)
    lab[0:2, 0:2] = 3   # area 4, anchor first
    lab[0:2, 4:6] = 1   # area 4
    lab[4, 8] = 2       # area 1, dropped at min_area 2
    out = extract.filter_small(lab, 2)
    assert (out[0:2, 0:2] == 1).all()
    assert (out[0:2, 4:6] == 2).all()
    assert out.max() == 2


def random_label_maps(seed, count, max_side=13):
    """Dense instance maps: 8- and 4-connected components of random masks,
    and multi-label noise (holes, pinches and labels nested in holes)."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        h, w = (int(v) for v in rng.integers(1, max_side + 1, 2))
        if t % 3 < 2:
            mask = rng.random((h, w)) < rng.random()
            yield raster.connected_components(mask) if t % 3 == 0 else flood_components(mask, 4)
        else:
            raw = rng.integers(0, int(rng.integers(2, 7)), (h, w))
            used = np.unique(raw[raw > 0])
            dense = np.zeros(raw.max() + 1, np.uint32)
            dense[used] = np.arange(1, used.size + 1)
            yield dense[raw]


def test_filter_small_matches_unique_over_every_pixel():
    rng = np.random.default_rng(33)
    for lab in random_label_maps(31, 300):
        # sparse labels too: gaps anywhere below the pixel count
        ids = rng.choice(np.arange(1, lab.size + 1), int(lab.max(initial=0)), replace=False)
        lab = np.concatenate(([0], np.sort(ids))).astype(np.uint32)[lab]
        min_area = int(rng.integers(0, 6))
        got = extract.filter_small(lab, min_area)
        want = filter_small_by_unique(lab, min_area)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype,top", [(np.uint32, 2 ** 31), (np.int64, 2 ** 40)])
def test_filter_small_refuses_labels_above_the_pixel_count(dtype, top):
    # a table sized by the largest label would ask for 16 GiB or 8 TiB
    lab = np.zeros((64, 64), dtype)
    lab[5, 7] = top
    got, peak = traced_peak(lambda: pytest.raises(ValueError, extract.filter_small, lab, 103))
    assert str(got.value) == (f"instance map labels are not dense: largest label {top} "
                              "exceeds the pixel count 4096")
    assert peak < 64 * lab.size


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_filter_small_rejects_negative_labels(dtype):
    lab = np.array([[1, 0], [0, -2]], dtype)
    with pytest.raises(ValueError, match="instance map holds a negative label -2"):
        extract.filter_small(lab, 1)


# ---------------------------------------------------------------------------
# polygonize
# ---------------------------------------------------------------------------


def refill(instance, h, w):
    return targets.rasterize_polygon(instance.exterior, h, w)


def test_polygonize_2x2_block():
    lab = np.zeros((4, 4), np.uint32)
    lab[0:2, 0:2] = 1
    ps = extract.polygonize(lab)
    inst = ps.instances[0]
    assert inst.exterior.tolist() == [[0, 0], [2, 0], [2, 2], [0, 2]]
    assert inst.area_px == 4


def test_polygonize_l_pentomino():
    lab = np.zeros((5, 5), np.uint32)
    lab[0, 0] = lab[1, 0] = lab[2, 0] = lab[2, 1] = lab[2, 2] = 1
    ps = extract.polygonize(lab)
    inst = ps.instances[0]
    assert inst.area_px == 5
    # rectilinear ring with one concave corner: 6 vertices
    assert len(inst.exterior) == 6
    assert np.array_equal(refill(inst, 5, 5), (lab == 1).astype(np.uint8))


def test_polygonize_z_pentomino_has_8_vertices():
    lab = np.zeros((4, 4), np.uint32)
    lab[0, 0] = lab[0, 1] = lab[1, 1] = lab[2, 1] = lab[2, 2] = 1
    ps = extract.polygonize(lab)
    inst = ps.instances[0]
    assert inst.area_px == 5
    assert len(inst.exterior) == 8
    assert np.array_equal(refill(inst, 4, 4), (lab == 1).astype(np.uint8))


def test_polygonize_empty_map():
    ps = extract.polygonize(np.zeros((3, 3), np.uint32), "img")
    assert ps.instances == [] and ps.image_id == "img"


def test_polygonize_diagonal_pinch_keeps_full_exterior():
    lab = np.zeros((3, 3), np.uint32)
    lab[0, 0] = lab[1, 1] = 1
    ps = extract.polygonize(lab)
    inst = ps.instances[0]
    assert inst.area_px == 2
    assert np.array_equal(refill(inst, 3, 3), (lab == 1).astype(np.uint8))


def test_polygonize_holes_are_ignored():
    lab = np.zeros((6, 6), np.uint32)
    lab[0:5, 0:5] = 1
    lab[2, 2] = 0  # interior hole
    ps = extract.polygonize(lab)
    inst = ps.instances[0]
    assert inst.area_px == 24
    assert inst.exterior.tolist() == [[0, 0], [5, 0], [5, 5], [0, 5]]


def fill_holes(mask):
    """Pixels plus any background not 4-connected to the canvas border, the
    expected refill of an exterior-only ring around an 8-connected blob."""
    from collections import deque
    h, w = mask.shape
    outside = np.zeros((h, w), bool)
    q = deque()
    for i in range(h):
        for j in (0, w - 1):
            if not mask[i, j] and not outside[i, j]:
                outside[i, j] = True
                q.append((i, j))
    for j in range(w):
        for i in (0, h - 1):
            if not mask[i, j] and not outside[i, j]:
                outside[i, j] = True
                q.append((i, j))
    while q:
        i, j = q.popleft()
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ii, jj = i + di, j + dj
            if 0 <= ii < h and 0 <= jj < w and not mask[ii, jj] and not outside[ii, jj]:
                outside[ii, jj] = True
                q.append((ii, jj))
    return (mask | ~outside).astype(np.uint8)


def test_polygonize_area_conservation_and_exterior_refills():
    rng = np.random.default_rng(4)
    for _ in range(6):
        m = (rng.random((24, 24)) < 0.35).astype(np.uint8)
        lab = raster.connected_components(m)
        ps = extract.polygonize(lab)
        # area_px counts raster support, so it conserves labeled pixels even
        # when the exterior ring encloses holes
        assert sum(i.area_px for i in ps.instances) == int((lab > 0).sum())
        for inst in ps.instances:
            support = (lab == inst.id)
            assert np.array_equal(refill(inst, 24, 24), fill_holes(support))


def assert_matches_walk(lab):
    ps = extract.polygonize(lab, "img")
    want = walk_polygonize(lab)
    assert (ps.image_id, ps.height, ps.width) == ("img",) + lab.shape
    assert [i.id for i in ps.instances] == [i for i, _, _ in want]
    for inst, (_, ring, area) in zip(ps.instances, want):
        assert inst.exterior.dtype == np.int64 and inst.exterior.shape == ring.shape
        assert inst.exterior.tobytes() == ring.tobytes()
        assert inst.area_px == area and type(inst.area_px) is int
    return ps


def test_polygonize_matches_the_boundary_walk_on_random_maps():
    for lab in random_label_maps(32, 600):
        assert_matches_walk(lab)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
def test_polygonize_thin_maps(shape):
    assert_matches_walk(np.ones(shape, np.uint32))
    assert_matches_walk(np.arange(1, shape[0] * shape[1] + 1, dtype=np.uint32).reshape(shape))
    striped = np.zeros(shape, np.uint32)
    striped.ravel()[::2] = np.arange(1, striped.ravel()[::2].size + 1)
    assert_matches_walk(striped)


def test_polygonize_instances_touching_every_canvas_side():
    lab = np.zeros((6, 7), np.uint32)
    lab[0, :] = 1
    lab[:, 0] = 1
    lab[-1, 2:] = 2
    lab[1:5, -1] = 3
    lab[2:4, 2:4] = 4
    ps = assert_matches_walk(lab)
    assert ps.instances[0].exterior.tolist() == [[0, 0], [7, 0], [7, 1], [1, 1], [1, 6], [0, 6]]
    full = assert_matches_walk(np.ones((3, 4), np.uint32))
    assert full.instances[0].exterior.tolist() == [[0, 0], [4, 0], [4, 3], [0, 3]]


def test_polygonize_instance_inside_another_hole():
    lab = np.zeros((7, 7), np.uint32)
    lab[0:7, 0:7] = 1
    lab[1:6, 1:6] = 0
    lab[2:5, 2:5] = 2
    lab[3, 3] = 3  # and one inside that one, filling its hole
    ps = assert_matches_walk(lab)
    assert [i.exterior.tolist() for i in ps.instances] == [
        [[0, 0], [7, 0], [7, 7], [0, 7]], [[2, 2], [5, 2], [5, 5], [2, 5]],
        [[3, 3], [4, 3], [4, 4], [3, 4]]]


def test_polygonize_diagonal_pinches():
    chain = np.eye(5, dtype=np.uint32)  # four pinch corners in one instance
    ps = assert_matches_walk(chain)
    assert len(ps.instances[0].exterior) == 4 * 5
    ring = np.zeros((4, 4), np.uint32)  # a diamond of pinches around a hole
    ring[0, 1] = ring[1, 0] = ring[1, 2] = ring[2, 1] = 1
    ring[3, 3] = 2
    ring[2, 2] = 3  # another label pinched against instance 1 and 2
    assert_matches_walk(ring)
    anti = np.fliplr(np.eye(4, dtype=np.uint32)) + np.eye(4, dtype=np.uint32)
    anti[anti > 1] = 1
    assert_matches_walk(anti)


def test_polygonize_dtypes_and_layouts():
    lab = raster.connected_components(np.random.default_rng(36).random((11, 13)) < 0.5)
    want = extract.polygon_set_to_geojson(extract.polygonize(lab))
    wide = np.zeros((22, 39), np.int64)
    wide[::2, ::3] = lab
    flipped = np.ascontiguousarray(lab[::-1, ::-1])
    variants = [lab.astype(np.uint8), lab.astype(np.int64), lab.astype(np.uint32),
                lab.astype(np.uint64), np.asfortranarray(lab), wide[::2, ::3], flipped[::-1, ::-1]]
    for v in variants:
        assert extract.polygon_set_to_geojson(extract.polygonize(v)) == want


@pytest.mark.parametrize("lab,reason", [
    (np.array([[1, 0], [0, -2]], np.int64), "instance map holds a negative label -2"),
    (np.array([[0, 0], [0, 5]], np.uint32),
     "instance map labels are not dense: largest label 5 exceeds the pixel count 4"),
    (np.array([[1, 0], [0, 3]], np.int16), r"not dense in 1\.\.3: label 2 is absent")])
def test_polygonize_rejects_negative_and_sparse_labels(lab, reason):
    with pytest.raises(ValueError, match=reason):
        extract.polygonize(lab)


def test_polygonize_areas_from_row_runs_equal_the_pixel_counts():
    # area_px comes from the row runs between left and right sides, not from
    # a count over the canvas: it must equal that count on every dense map
    for t, lab in enumerate(random_label_maps(40, 300, max_side=40)):
        lab = lab.astype((np.uint32, np.int64, np.uint16)[t % 3])
        got = [i.area_px for i in extract.polygonize(lab).instances]
        assert got == raster._label_areas(lab, "instance")[1:].tolist()


def test_polygonize_rejects_what_the_canvas_count_rejects():
    # dropping or thinning labels of dense maps gives gaps, labels above the
    # pixel count and negative labels; polygonize refuses each with the
    # message of raster._label_areas, before any ring is traced
    rng = np.random.default_rng(42)
    rejected = 0
    for lab in random_label_maps(43, 300):
        lab = lab.astype(np.int64)
        kind = rng.integers(3)
        if kind == 0:
            lab[lab == rng.integers(1, lab.max(initial=0) + 2)] = 0
        elif kind == 1:
            lab = lab * int(rng.integers(1, 4))
        else:
            lab.ravel()[rng.integers(lab.size)] = -int(rng.integers(1, 3))
        try:
            raster._label_areas(lab, "instance")
        except ValueError as exc:
            rejected += 1
            with pytest.raises(ValueError) as got:
                extract.polygonize(lab)
            assert str(got.value) == str(exc)
        else:
            assert_matches_walk(lab)
    assert rejected > 100


# ---------------------------------------------------------------------------
# extraction entry points
# ---------------------------------------------------------------------------


def test_single_class_merges_touching_blocks():
    b = np.zeros((40, 60), np.uint8)
    b[5:25, 5:25] = 1
    b[5:25, 25:45] = 1  # shares an edge
    ps = extract.extract_single_class(b, min_area=140)
    assert len(ps.instances) == 1


def test_single_class_separate_blocks_stay_separate():
    b = np.zeros((40, 60), np.uint8)
    b[5:25, 5:25] = 1
    b[5:25, 26:46] = 1  # one pixel apart
    ps = extract.extract_single_class(b, min_area=140)
    assert len(ps.instances) == 2


def test_single_class_small_blobs_removed():
    b = np.zeros((20, 20), np.uint8)
    b[2:8, 2:8] = 1  # 36 px < 140
    assert extract.extract_single_class(b, min_area=140).instances == []


def test_multi_class_splits_edge_sharing_rectangles():
    rings = [rect_ring(5, 5, 25, 25), rect_ring(25, 5, 45, 25)]
    stack = targets.assemble_targets(rings, 40, 60)
    single = extract.extract_single_class(stack[0], min_area=140)
    multi = extract.extract_multi_class(stack, min_area=140)
    assert len(single.instances) == 1
    assert len(multi.instances) == 2


def test_multi_class_round_trip_on_disjoint_squares():
    rings = [rect_ring(4, 4, 20, 20), rect_ring(28, 4, 44, 20), rect_ring(4, 28, 20, 44)]
    stack = targets.assemble_targets(rings, 48, 48)
    ps = extract.extract_multi_class(stack)
    assert len(ps.instances) == 3
    gt_fills = [point_fill(r, 48, 48) for r in rings]
    for inst in ps.instances:
        filled = refill(inst, 48, 48)
        best = max(float((filled & g).sum()) / float((filled | g).sum()) for g in gt_fills)
        assert best >= 0.9


def test_multi_class_all_zero_map_is_empty():
    pm = np.zeros((3, 16, 16), np.float32)
    assert extract.extract_multi_class(pm).instances == []


def test_multi_class_requires_two_channels():
    with pytest.raises(ValueError):
        extract.extract_multi_class(np.zeros((1, 8, 8), np.float32))


def test_multi_class_spacing_channel_is_optional_and_flagged():
    rings = [rect_ring(2, 2, 20, 20)]
    stack = targets.assemble_targets(rings, 24, 24)
    pm2 = stack[:2]
    with_spacing = extract.extract_multi_class(stack)
    without = extract.extract_multi_class(pm2)
    ignored = extract.extract_multi_class(stack, use_spacing=False)
    assert len(with_spacing.instances) == len(without.instances) == len(ignored.instances) == 1


def test_extraction_count_matches_polygons_on_random_cities():
    rng = np.random.default_rng(6)
    for _ in range(5):
        rings, _ = disjoint_rectangles(rng, 96, 96, 6, min_side=16, max_side=24, gap=3)
        stack = targets.assemble_targets(rings, 96, 96)
        ps = extract.extract_multi_class(stack)
        assert len(ps.instances) == len(rings)


# ---------------------------------------------------------------------------
# GeoJSON interchange
# ---------------------------------------------------------------------------


def test_geojson_round_trip():
    rings = [rect_ring(2, 2, 20, 20), rect_ring(24, 2, 44, 22)]
    stack = targets.assemble_targets(rings, 48, 48)
    ps = extract.extract_multi_class(stack, min_area=10, image_id="tile7")
    doc = extract.polygon_set_to_geojson(ps)
    assert doc["type"] == "FeatureCollection"
    assert doc["image_id"] == "tile7" and doc["height"] == 48 and doc["width"] == 48
    for feat in doc["features"]:
        ring = feat["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]  # closed explicitly
    back = extract.polygon_set_from_geojson(doc)
    assert back.image_id == "tile7"
    assert [i.id for i in back.instances] == [i.id for i in ps.instances]
    for a, b in zip(back.instances, ps.instances):
        assert a.area_px == b.area_px
        assert np.array_equal(np.asarray(a.exterior, np.int64), b.exterior)


def test_geojson_requires_dimensions():
    with pytest.raises(ValueError):
        extract.polygon_set_from_geojson({"type": "FeatureCollection", "features": []})



@pytest.mark.parametrize("member,value", [("height", 3.7), ("width", True), ("height", "12"),
                                          ("width", 4.0), ("height", None), ("width", [4])])
def test_geojson_canvas_size_must_be_a_json_integer(member, value):
    doc = json.loads(json.dumps({"type": "FeatureCollection", "height": 4, "width": 4,
                                 "features": [], member: value}))
    with pytest.raises(ValueError, match="lacks integer 'height'/'width' members"):
        extract.polygon_set_from_geojson(doc)

SQUARE = {"type": "Polygon", "coordinates": [[[0, 0], [2, 0], [2, 2], [0, 2]]]}


@pytest.mark.parametrize("feature", [
    1, {"geometry": 1}, {"geometry": SQUARE, "properties": True},
    {"geometry": {"type": "Polygon", "coordinates": {"a": 1}}},
    {"geometry": {"type": "Polygon", "coordinates": [{}]}},
    {"geometry": SQUARE, "properties": {"id": None}}, {"geometry": SQUARE, "properties": {"id": -1}},
], ids=["not-object", "geometry-not-object", "properties-not-object", "coordinates-not-list",
        "ring-not-numeric", "id-null", "id-negative"])
def test_geojson_rejects_malformed_feature(feature):
    doc = {"type": "FeatureCollection", "height": 4, "width": 4, "features": [feature]}
    with pytest.raises(ValueError, match="feature 0"):
        extract.polygon_set_from_geojson(doc)


@pytest.mark.parametrize("vertex", ["[2, Infinity]", "[2, 1e400]", "[NaN, 0]", "[-Infinity, 1]"])
def test_geojson_rejects_non_finite_coordinates(vertex):
    text = ('{"type": "FeatureCollection", "height": 4, "width": 4, "features": [{"geometry": '
            '{"type": "Polygon", "coordinates": [[[0, 0], %s, [2, 2], [0, 2]]]}}]}' % vertex)
    with pytest.raises(ValueError, match="feature 0: non-finite coordinate"):
        extract.polygon_set_from_geojson(json.loads(text))


@pytest.mark.parametrize("height,width", [(0, 4), (4, -1), (2 ** 14, 2 ** 14 + 1), (1, 2 ** 28 + 1),
                                          (float("inf"), 4)])
def test_geojson_canvas_is_bounded(height, width):
    doc = {"type": "FeatureCollection", "height": height, "width": width, "features": []}
    with pytest.raises(ValueError, match="canvas|integer"):
        extract.polygon_set_from_geojson(doc)
    largest = dict(doc, height=2 ** 14, width=2 ** 14)
    assert extract.polygon_set_from_geojson(largest).height == 2 ** 14


def ring_feature(ring_json: str) -> str:
    return '{"geometry": {"type": "Polygon", "coordinates": [%s]}}' % ring_json


# malformed features as JSON text, so that non-finite and huge number tokens survive
MALFORMED_FEATURES = {
    "not-object": "1",
    "geometry-not-object": '{"geometry": 1}',
    "geometry-missing": '{"properties": {}}',
    "properties-not-object": '{"geometry": %s, "properties": [1]}' % json.dumps(SQUARE),
    "properties-false": '{"geometry": %s, "properties": false}' % json.dumps(SQUARE),
    "point": '{"geometry": {"type": "Point", "coordinates": [0, 0]}}',
    "coordinates-missing": '{"geometry": {"type": "Polygon"}}',
    "coordinates-not-list": '{"geometry": {"type": "Polygon", "coordinates": {"a": 1}}}',
    "ring-not-pairs": ring_feature("[[0, 0], [2], [2, 2]]"),
    "two-vertex-ring": ring_feature("[[0, 0], [2, 2], [0, 0]]"),
    "infinite": ring_feature("[[0, 0], [2, Infinity], [2, 2], [0, 2]]"),
    "integer-beyond-float64": ring_feature("[[0, 0], [1%s, 0], [2, 2]]" % ("0" * 400)),
    "x-extent-overflows": ring_feature("[[-1.7e308, 0], [1.7e308, 8], [1.7e308, 0]]"),
    "y-extent-overflows": ring_feature("[[0, -1e308], [2, 1e308], [0, 1e308]]"),
    "string-coordinate": ring_feature('[[0, 0], [2, "0"], [2, 2], [0, 2]]'),
    "boolean-coordinate": ring_feature("[[0, 0], [2, 0], [true, 2], [0, 2]]"),
    "null-coordinate": ring_feature("[[0, 0], [2, null], [2, 2], [0, 2]]"),
}


@pytest.mark.parametrize("feature", list(MALFORMED_FEATURES.values()), ids=list(MALFORMED_FEATURES))
def test_both_geojson_readers_reject_the_same_malformed_feature(feature):
    doc = json.loads('{"type": "FeatureCollection", "height": 4, "width": 4, "features": [%s]}' % feature)
    for read in (ingest_annotations, extract.polygon_set_from_geojson):
        with pytest.raises(ValueError, match="^feature 0: "):
            read(doc)


def test_both_geojson_readers_require_a_features_list():
    for features in ({}, {"features": None}, {"features": {}}):
        doc = {"type": "FeatureCollection", "height": 4, "width": 4, **features}
        for read in (ingest_annotations, extract.polygon_set_from_geojson):
            with pytest.raises(ValueError, match="'features' list"):
                read(doc)


@pytest.mark.parametrize("props", [{"id": 2.7}, {"id": "7"}, {"id": True}, {"id": 2.0},
                                   {"area_px": -3}, {"area_px": 1.5}, {"area_px": "4"},
                                   {"area_px": False}, {"area_px": None}], ids=json.dumps)
def test_geojson_id_and_area_must_be_json_integers(props):
    doc = {"type": "FeatureCollection", "height": 4, "width": 4,
           "features": [{"geometry": SQUARE, "properties": props}]}
    with pytest.raises(ValueError, match="^feature 0: "):
        extract.polygon_set_from_geojson(doc)


def test_geojson_defaults_and_integer_properties_are_kept():
    doc = {"type": "FeatureCollection", "height": 4, "width": 4, "image_id": "t",
           "features": [{"geometry": SQUARE, "properties": {"id": 7, "area_px": 0}},
                        {"geometry": SQUARE, "properties": None}]}
    ps = extract.polygon_set_from_geojson(doc)
    assert ps.image_id == "t"
    assert [(i.id, i.area_px) for i in ps.instances] == [(7, 0), (2, 0)]
    del doc["image_id"]
    assert extract.polygon_set_from_geojson(doc).image_id == ""


@pytest.mark.parametrize("ids", [(1, 1), (None, 1)], ids=["explicit", "default"])
def test_geojson_feature_ids_must_be_distinct(ids):
    # each id is a label, so a repeat would merge two buildings into one instance
    far = {"type": "Polygon", "coordinates": [[[5, 5], [7, 5], [7, 7], [5, 7]]]}
    doc = {"type": "FeatureCollection", "height": 8, "width": 8,
           "features": [{"geometry": geom, "properties": None if i is None else {"id": i}}
                        for geom, i in zip((SQUARE, far), ids)]}
    with pytest.raises(ValueError, match="^feature 1: id 1 .*feature 0"):
        extract.polygon_set_from_geojson(doc)


@pytest.mark.parametrize("image_id", [None, 7, ["a"]])
def test_geojson_image_ids_must_be_strings(image_id):
    doc = {"type": "FeatureCollection", "height": 4, "width": 4, "image_id": image_id, "features": []}
    with pytest.raises(ValueError, match="image_id"):
        extract.polygon_set_from_geojson(doc)
    doc = {"type": "FeatureCollection",
           "features": [{"geometry": SQUARE, "properties": {"image_id": image_id}}]}
    with pytest.raises(ValueError, match="^feature 0: 'image_id'"):
        ingest_annotations(doc)
