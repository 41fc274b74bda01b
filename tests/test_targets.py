import numpy as np
import pytest

from bfx import annotations, formats, raster, targets

from _memory import traced_peak
from _oracles import (bfs_chebyshev, disjoint_rectangles, flood_components, geodesic_watershed,
                      point_fill, shift_boundary, window_dilate, window_erode, xor_fill)


def rect_ring(x0, y0, x1, y1):
    return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], float)


# ---------------------------------------------------------------------------
# rasterize_polygon
# ---------------------------------------------------------------------------


def test_fill_unit_rectangle():
    out = targets.rasterize_polygon(rect_ring(0, 0, 4, 4), 8, 8)
    assert out.sum() == 16
    assert out[0:4, 0:4].all() and out[4:, :].sum() == 0 and out[:, 4:].sum() == 0
    assert np.array_equal(out, point_fill(rect_ring(0, 0, 4, 4), 8, 8))


def test_fill_zero_area_ring_is_empty():
    collinear = np.array([(1, 0), (1, 4), (1, 2)], float)
    assert targets.rasterize_polygon(collinear, 8, 8).sum() == 0


def test_fill_right_triangle():
    tri = np.array([(0, 0), (4, 0), (0, 4)], float)
    out = targets.rasterize_polygon(tri, 8, 8)
    assert np.array_equal(out, point_fill(tri, 8, 8))
    assert out.sum() == 10


def test_fill_rejects_short_rings():
    with pytest.raises(ValueError):
        targets.rasterize_polygon(np.array([(0, 0), (1, 1)], float), 4, 4)


def test_fill_matches_point_oracle_on_random_polygons():
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        ring = rng.uniform(0, 16, size=(n, 2))
        assert np.array_equal(targets.rasterize_polygon(ring, 16, 16),
                              point_fill(ring, 16, 16))


def test_fill_half_integer_ties_match_point_oracle():
    ring = rect_ring(0.5, 1.5, 4.5, 5.5)  # edges through pixel centers
    assert np.array_equal(targets.rasterize_polygon(ring, 8, 8), point_fill(ring, 8, 8))


def test_fill_accepts_explicitly_closed_ring():
    open_ring = rect_ring(1, 1, 3, 3)
    closed = np.vstack([open_ring, open_ring[:1]])
    assert np.array_equal(targets.rasterize_polygon(closed, 6, 6),
                          targets.rasterize_polygon(open_ring, 6, 6))


def test_fill_matches_point_oracle_off_canvas_and_non_square():
    rng = np.random.default_rng(34)
    for height, width in [(7, 19), (19, 7), (1, 12), (12, 1), (1, 1), (13, 13)]:
        for _ in range(15):
            n = int(rng.integers(3, 9))
            # vertices from well left/above to well right/below the canvas
            ring = rng.uniform(-8, 8, size=(n, 2)) + rng.uniform(-10, 1.5, size=2) * [width, height]
            assert np.array_equal(targets.rasterize_polygon(ring, height, width),
                                  point_fill(ring, height, width))


@pytest.mark.parametrize("ring", [
    [(0.5, 0.5), (4.5, 0.5), (4.5, 3.5), (2.5, 5.5), (0.5, 3.5)],  # vertices at pixel centers
    [(0.49999999999999994, 0), (3.49999999999999994, 0), (3.5, 4), (0.5000000000000001, 4)],
    [(0, 0.49999999999999994), (5, 0.5), (5, 2.49999999999999994), (0, 2.5000000000000004)],
    [(0, 0), (6, 5), (6, 0), (0, 5)],  # bow tie
    [(3, -1), (5, 7), (-1, 2), (7, 2), (1, 7)],  # pentagram, centre covered twice
    [(1, 1), (5, 1), (5, 5), (1, 5), (1, 1), (3, 0), (6, 3), (3, 6), (0, 3), (3, 0)],
    [(-1e17, 2.5), (4.3, 0.2), (5.7, 5.9)],  # one vertex far off the canvas
    [(1e17, 2.5), (0.3, 0.2), (1.7, 5.9)],
    [(2, -1e17), (4.5, 5.5), (0.5, 4.5)],
    # t rounds to 1.0 on row 0, so that crossing lands at x = 32, past every vertex
    [(-1e17, -1e17), (25.5, 2.35), (20, 6)],
], ids=["centers", "x-just-below-half", "y-just-below-half", "bow-tie", "pentagram",
        "self-touching", "far-left", "far-right", "far-up", "crossing-past-vertices"])
def test_fill_tie_and_self_intersecting_rings_match_point_oracle(ring):
    for height, width in [(6, 6), (4, 9), (9, 3), (7, 40)]:
        assert np.array_equal(targets.rasterize_polygon(np.array(ring), height, width),
                              point_fill(ring, height, width))


def test_fill_matches_xor_oracle_on_wide_random_rings():
    rng = np.random.default_rng(41)
    for height, width in [(64, 96), (96, 64), (1, 300), (300, 1)]:
        for _ in range(40):
            n = int(rng.integers(3, 12))
            ring = rng.uniform(-0.5, 1.5, size=(n, 2)) * (width, height)
            if rng.random() < 0.3:
                ring[0, int(rng.integers(2))] = rng.choice([-1e17, 1e17])
            assert np.array_equal(targets.rasterize_polygon(ring, height, width),
                                  xor_fill(ring, height, width))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fill_rejects_non_finite_coordinates(bad):
    for vertex in ([2.0, bad], [bad, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            targets.rasterize_polygon(np.array([(0, 0), (4, 0), vertex, (0, 4)], float), 6, 6)


@pytest.mark.parametrize("ring", [
    np.array([["0", "0"], ["4", "0"], ["0", "4"]]),
    np.array([[0, 0], [4, 0], [0, 4]], bool),
    np.array([[0, 0], [4, 0], [0, 4]], object),
    [(0, 0), (4, "0"), (0, 4)],
    [(0, 0), (4, 0), (True, 4)],
], ids=["string-array", "bool-array", "object-array", "string-in-list", "bool-in-list"])
def test_fill_rejects_non_number_coordinates(ring):
    with pytest.raises(ValueError, match="must be numbers"):
        targets.rasterize_polygon(ring, 6, 6)


def test_fill_accepts_integer_arrays_and_lists_of_numpy_scalars():
    tri = np.array([(0, 0), (4, 0), (0, 4)])
    want = point_fill(tri.astype(float), 8, 8)
    for ring in (tri, tri.astype(np.uint16), [tuple(v) for v in tri], [tuple(v) for v in tri.astype(np.float32)]):
        assert np.array_equal(targets.rasterize_polygon(ring, 8, 8), want)


# ---------------------------------------------------------------------------
# make_border_mask
# ---------------------------------------------------------------------------


def test_border_of_ten_square_is_64_pixels():
    out = targets.make_border_mask([rect_ring(0, 0, 10, 10)], 16, 16)
    assert out.sum() == 64


def test_border_of_four_square_is_all_16():
    out = targets.make_border_mask([rect_ring(0, 0, 4, 4)], 8, 8)
    assert out.sum() == 16
    assert out[0:4, 0:4].all()


def test_border_empty_ring_list():
    assert targets.make_border_mask([], 8, 8).sum() == 0


def test_border_per_polygon_independence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rings, _ = disjoint_rectangles(rng, 40, 40, 4, min_side=5, max_side=10)
        batch = targets.make_border_mask(rings, 40, 40)
        union = np.zeros((40, 40), np.uint8)
        for ring in rings:
            union |= targets.make_border_mask([ring], 40, 40)
        assert np.array_equal(batch, union)


def test_border_count_equals_fill_minus_erosion_when_interior_survives():
    ring = rect_ring(2, 3, 11, 12)  # 9x9
    filled = targets.rasterize_polygon(ring, 16, 16)
    eroded = raster.erode(filled, 5)
    assert eroded.sum() > 0
    border = targets.make_border_mask([ring], 16, 16)
    assert border.sum() == filled.sum() - eroded.sum()


def edge_rings(height, width):
    """Rings touching, crossing or lying outside each canvas edge."""
    return [rect_ring(-3, 2, 4, 6), rect_ring(width - 3, -2, width + 5, 4),
            rect_ring(1.5, height - 2.5, 6.5, height + 3), np.array([(-2, -2), (5, 1), (1, 5)], float),
            rect_ring(width + 1, 0, width + 4, height), rect_ring(-4, -4, width + 4, -1),
            np.array([(width - 0.5, height - 5), (width + 6, height + 1), (width - 6, height + 2)])]


def random_rings(rng, height, width, count):
    """Rings of 3-7 fractional vertices scattered over and past the canvas,
    some explicitly closed, some given as lists."""
    rings = []
    for _ in range(count):
        ring = rng.uniform((-4, -4), (width + 4, height + 4), (int(rng.integers(3, 8)), 2))
        if rng.random() < 0.3:
            ring = np.vstack([ring, ring[:1]])
        rings.append(ring.tolist() if rng.random() < 0.5 else ring)
    return rings


def test_border_and_targets_on_canvas_edges_match_full_canvas_oracle():
    rng = np.random.default_rng(17)
    for height, width in [(12, 17), (9, 9), (15, 8)]:
        for rings in (edge_rings(height, width), random_rings(rng, height, width, 6)):
            fills = [point_fill(r, height, width) for r in rings]
            for iterations in (2, 1, 0):
                want = np.zeros((height, width), np.uint8)
                for f in fills:
                    want |= f ^ window_erode(f, 3, iterations)
                assert np.array_equal(targets.make_border_mask(rings, height, width, iterations), want)
                stack = targets.assemble_targets(rings, height, width, iterations)
                assert np.array_equal(stack[1], want)
                assert np.array_equal(stack[0], np.bitwise_or.reduce(fills))


def test_a_ring_reaching_past_two_to_the_53_fills_as_on_the_full_canvas():
    # y - r0 is no longer exact there, so such a ring's band starts at row 0;
    # shifted by its first row (1), the first ring would cover 12 more pixels
    rings = [np.array([(0.7456996589973837, 1.499999972992257),
                       (3.1557202965651673e+22, 3.6028797018964216e+16), (7.766274138891001, 2.7)]),
             [(0.5, 5.5), (11.0, 4.25), (3.0, 2 ** 53)]]
    building = targets.assemble_targets(rings, 12, 12)[0]
    assert building.any()
    assert np.array_equal(building, point_fill(rings[0], 12, 12) | point_fill(rings[1], 12, 12))


def test_a_ring_whose_closing_vertex_repeats_is_closed_once():
    # the last (1, 0) repeats the one before it, so it stays as a zero-length
    # edge: a zero-area ring of 4 vertices, however often it is validated
    ring = [(1, 0), (1, 5), (1, 0), (1, 0)]
    assert annotations._ring(annotations._ring(ring)).tolist() == [[1, 0], [1, 5], [1, 0], [1, 0]]
    assert targets.rasterize_polygon(ring, 8, 8).sum() == 0
    assert targets.make_border_mask([ring], 8, 8).sum() == 0
    assert targets.assemble_targets([ring], 8, 8)[0].sum() == 0


def test_checking_a_checked_ring_changes_nothing():
    rng = np.random.default_rng(25)
    repeated = 0
    for _ in range(300):
        base = rng.integers(0, 6, (int(rng.integers(1, 6)), 2)).astype(float)  # a small grid: repeats are common
        ring = np.vstack([base, base[:1].repeat(rng.integers(0, 4), axis=0)])  # explicit closing vertices
        try:
            once = annotations._ring(ring)
        except annotations.AnnotationError:  # fewer than 3 vertices
            continue
        assert annotations._ring(once).tolist() == once.tolist(), ring.tolist()
        # a zero-length closing edge crosses no scanline: with any number of
        # closing vertices, the fill is that of the ring without them
        assert np.array_equal(targets.rasterize_polygon(once, 8, 8), point_fill(base, 8, 8))
        repeated += len(ring) - len(base) > 1
    assert repeated > 50  # rings checked with a repeated closing vertex


def test_a_ring_fill_costs_its_own_rows_not_the_canvas():
    height = width = 1024
    rng = np.random.default_rng(4)
    rings = [rect_ring(x, y, x + 12.5, y + 9.25) for x, y in rng.uniform(0, 1000, (60, 2))]
    border, peak = traced_peak(lambda: targets.make_border_mask(rings, height, width))
    assert border.any()
    assert peak < 2.5 * height * width  # the building and border canvases, and a band at a time


def test_a_border_wider_than_any_ring_is_the_fill():
    rings = edge_rings(12, 17) + [rect_ring(2, 2, 15, 10)]
    building = targets.assemble_targets(rings, 12, 17)[0]
    assert np.array_equal(targets.make_border_mask(rings, 12, 17, 10 ** 6), building)
    assert np.array_equal(targets.assemble_targets(rings, 12, 17, 10 ** 6)[1], building)


def test_a_negative_border_width_is_refused():
    with pytest.raises(ValueError, match="erosion_iterations must be >= 0"):
        targets.make_border_mask([], 8, 8, -1)


def test_border_bad_ring_reports_index():
    rings = [rect_ring(0, 0, 4, 4), np.array([(0, 0), (1, 1)], float)]
    with pytest.raises(ValueError, match="polygon 1"):
        targets.make_border_mask(rings, 8, 8)


# ---------------------------------------------------------------------------
# make_spacing_mask
# ---------------------------------------------------------------------------


def spacing_oracle(building):
    """The five-step procedure re-run on the brute-force primitives,
    including the cut to Chebyshev distance <= 8 from a building."""
    grown = window_dilate(building, 15, 1)
    seeds = flood_components(building, 8)
    basins = geodesic_watershed(seeds, grown)
    h, w = building.shape
    boundary = np.zeros((h, w), bool)
    for i in range(h):
        for j in range(w):
            if basins[i, j] == 0:
                continue
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if (0 <= ii < h and 0 <= jj < w and basins[ii, jj] != 0
                            and basins[ii, jj] != basins[i, j]):
                        boundary[i, j] = True
    carved = grown.copy()
    carved[boundary] = 0
    lines = grown ^ carved
    near = bfs_chebyshev(building) <= 8
    return ((lines == 1) & near & (building == 0)).astype(np.uint8)


def test_spacing_single_building_is_empty():
    b = np.zeros((30, 30), np.uint8)
    b[5:20, 5:20] = 1
    assert targets.make_spacing_mask(b).sum() == 0


def test_spacing_two_close_blocks_band_in_gap():
    b = np.zeros((40, 40), np.uint8)
    b[10:22, 5:17] = 1
    b[10:22, 21:33] = 1
    out = targets.make_spacing_mask(b)
    assert np.array_equal(out, spacing_oracle(b))
    assert out.sum() > 0
    assert (out & b).sum() == 0
    # the band crosses the gap between the two blocks
    gap = out[10:22, 17:21]
    assert gap.sum() > 0


def test_spacing_far_blocks_is_empty():
    b = np.zeros((30, 60), np.uint8)
    b[5:15, 2:10] = 1
    b[5:15, 50:58] = 1  # 40 columns apart; 7+7 dilation never meets
    assert targets.make_spacing_mask(b).sum() == 0


def test_spacing_matches_procedure_oracle_on_random_scenes():
    rng = np.random.default_rng(8)
    for _ in range(4):
        rings, boxes = disjoint_rectangles(rng, 36, 36, 3, min_side=5, max_side=9, gap=3)
        b = np.zeros((36, 36), np.uint8)
        for r0, c0, r1, c1 in boxes:
            b[r0:r1, c0:c1] = 1
        assert np.array_equal(targets.make_spacing_mask(b), spacing_oracle(b))


def test_label_boundary_matches_eight_shift_oracle():
    rng = np.random.default_rng(17)
    for shape in [(1, 1), (1, 9), (9, 1), (2, 2), (13, 17), (40, 33)]:
        for density in (0.2, 0.6, 1.0):
            labels = rng.integers(1, 5, shape).astype(np.uint32)
            labels[rng.random(shape) > density] = 0  # background next to labels
            assert np.array_equal(targets._label_boundary(labels), shift_boundary(labels))


# ---------------------------------------------------------------------------
# assemble_targets
# ---------------------------------------------------------------------------


def test_assemble_single_square():
    building, border, spacing = targets.assemble_targets([rect_ring(2, 2, 12, 12)], 16, 16)
    assert building.sum() == 100
    assert border.sum() == 64
    assert spacing.sum() == 0


def test_assemble_empty_annotation():
    stack = targets.assemble_targets([], 8, 8)
    assert stack.shape == (3, 8, 8) and stack.dtype == np.uint8
    assert stack.sum() == 0


def test_assemble_two_close_blocks():
    rings = [rect_ring(5, 10, 17, 22), rect_ring(21, 10, 33, 22)]
    building, border, spacing = targets.assemble_targets(rings, 40, 40)
    assert building.sum() == 288  # two 12x12 squares
    assert border.sum() == 2 * (144 - 64)  # each 12x12 erodes to 8x8
    assert spacing.sum() > 0


def test_assemble_invariants_on_random_scenes():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rings, _ = disjoint_rectangles(rng, 48, 48, 5, min_side=4, max_side=10)
        building, border, spacing = targets.assemble_targets(rings, 48, 48)
        assert (border <= building).all()
        assert (spacing & building).sum() == 0
        if spacing.any():
            d = bfs_chebyshev(building)[spacing == 1]
            assert d.min() >= 1 and d.max() <= 8


def test_assemble_channel_order_in_probmap(tmp_path):
    # the stack is one uint8 array in the PMAP1 plane order, which write_pmap
    # writes as exactly its float32 cast
    rings = [rect_ring(1, 1, 9, 9), rect_ring(11, 1, 19, 9)]
    stack = targets.assemble_targets(rings, 12, 24)
    assert stack.shape == (3, 12, 24) and stack.dtype == np.uint8 and stack.flags.c_contiguous
    building = targets.rasterize_polygon(rings[0], 12, 24) | targets.rasterize_polygon(rings[1], 12, 24)
    want = {"building": building, "border": targets.make_border_mask(rings, 12, 24),
            "spacing": targets.make_spacing_mask(building)}
    assert want["spacing"].any()
    formats.write_pmap(tmp_path / "t.pmap", stack)
    pm = formats.read_pmap(tmp_path / "t.pmap")
    for k, name in enumerate(formats.CHANNEL_NAMES):
        assert np.array_equal(stack[k], want[name]), name
        assert pm[k].tobytes() == want[name].astype(np.float32).tobytes(), name
