import numpy as np
import pytest

from bfx import evaluate, extract, raster

from _memory import traced_peak
from _oracles import bfs_chebyshev, flood_components, serpentine, shift, window_dilate, window_erode


def block(h, w, r0, c0, r1, c1):
    m = np.zeros((h, w), np.uint8)
    m[r0:r1, c0:c1] = 1
    return m


# ---------------------------------------------------------------------------
# erosion / dilation
# ---------------------------------------------------------------------------


def test_erode_solid_block():
    m = block(8, 8, 2, 2, 6, 6)
    expected = window_erode(m, 3, 1)
    out = raster.erode(m, 3)
    assert np.array_equal(out, expected)
    assert out.sum() == 4 and out[3:5, 3:5].all()  # the 2x2 center


def test_erode_single_pixel_vanishes():
    m = block(5, 5, 2, 2, 3, 3)
    assert raster.erode(m, 3).sum() == 0


def test_erode_empty_stays_empty():
    m = np.zeros((6, 6), np.uint8)
    for side in (1, 3, 7):
        assert raster.erode(m, side).sum() == 0


def test_erode_zero_iterations_is_identity():
    # zero passes of any window are one pass of a side-1 window
    rng = np.random.default_rng(0)
    m = (rng.random((9, 9)) < 0.5).astype(np.uint8)
    assert np.array_equal(raster.erode(m, 1), m)
    assert np.array_equal(raster.dilate(m, 1), m)
    for op in (raster.erode, raster.dilate):  # never the caller's array, whatever the side
        for side in (1, 3, 5):
            assert not np.shares_memory(op(m, side), m)


def test_dilate_single_center_pixel():
    m = block(7, 7, 3, 3, 4, 4)
    out = raster.dilate(m, 3)
    assert np.array_equal(out, block(7, 7, 2, 2, 5, 5))


def test_dilate_bridges_a_four_column_gap_with_side_15():
    m = np.zeros((30, 40), np.uint8)
    m[9:21, 4:16] = 1
    m[9:21, 20:32] = 1
    grown = raster.dilate(m, 15)
    assert int(raster.connected_components(grown).max()) == 1


@pytest.mark.parametrize("side,iterations", [(3, 1), (3, 2), (15, 1), (5, 3), (7, 1), (9, 1), (17, 1),
                                              (31, 1), (33, 1), (63, 1), (65, 1)])
def test_morphology_matches_window_oracle(side, iterations):
    # k passes of a side-s window are one pass of a side k(s-1)+1 window; the
    # sides from 7 on lie at either edge of a power of two, and from 63 on
    # the reach passes both axes of the 20x24 masks but not the long one of 3x70
    rng = np.random.default_rng(side * 10 + iterations)
    wide = iterations * (side - 1) + 1
    for shape in [(20, 24)] * 4 + [(3, 70)]:
        m = (rng.random(shape) < 0.45).astype(np.uint8)
        assert np.array_equal(raster.erode(m, wide), window_erode(m, side, iterations))
        assert np.array_equal(raster.dilate(m, wide), window_dilate(m, side, iterations))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7)])
def test_windows_wider_than_the_mask_match_window_oracle(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(6):
        m = (rng.random(shape) < 0.7).astype(np.uint8)
        for side in (3, 5, 7, 9, 15, 17, 31, 33, 63, 65):
            assert np.array_equal(raster.erode(m, side), window_erode(m, side))
            assert np.array_equal(raster.dilate(m, side), window_dilate(m, side))


def test_a_huge_window_is_one_clamped_pass():
    m = np.zeros((64, 96), np.uint8)
    m[40, 70] = 1
    full = np.ones_like(m)
    side = 2 * 10 ** 6 + 1
    (eroded, dilated), peak = traced_peak(lambda: (raster.erode(full, side), raster.dilate(m, side)))
    assert eroded.dtype == np.uint8 and not eroded.any()
    assert dilated.dtype == np.uint8 and dilated.all()
    assert peak < 8 * m.nbytes  # the reach is clamped to the axis length: no side pads past 2n


@pytest.mark.parametrize("op", [np.minimum, np.maximum])
@pytest.mark.parametrize("axis", [0, 1])
def test_a_window_of_1025_on_a_1024_long_axis_takes_11_passes(axis, op):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return op(*args, **kwargs)

    m = (np.random.default_rng(1025).random((1024, 5)) < 0.003).astype(np.uint8)
    m = np.ascontiguousarray(m.T) if axis else m
    out = raster._window_extreme(m, 1025, counted, axis)
    assert calls <= 11  # floor(log2 1025) + 1, where one pass per pixel of reach took 1024
    padded = np.pad(m, [(512, 512) if a == axis else (0, 0) for a in (0, 1)])
    expected = np.stack([op.reduce(padded.take(range(i, i + 1025), axis), axis) for i in range(1024)], axis)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("side,iterations", [(3, 1), (3, 2), (15, 1), (15, 2)])
def test_erosion_dilation_duality(side, iterations):
    # erode(m) == ~dilate(~m) once the canvas is padded so the complement's
    # out-of-canvas ones are materialized
    rng = np.random.default_rng(7)
    pad = iterations * (side - 1) // 2
    wide = 2 * pad + 1
    m = (rng.random((16, 18)) < 0.5).astype(np.uint8)
    padded = np.pad(m, pad)
    rhs = 1 - raster.dilate(1 - padded, wide)
    assert np.array_equal(raster.erode(m, wide), rhs[pad:-pad, pad:-pad])


def test_monotonicity():
    rng = np.random.default_rng(3)
    m = (rng.random((15, 15)) < 0.5).astype(np.uint8)
    assert (raster.dilate(m, 3) >= m).all()
    assert (raster.erode(m, 3) <= m).all()


def test_kernel_validation():
    m = np.zeros((4, 4), np.uint8)
    with pytest.raises(ValueError):
        raster.erode(m, 4)
    with pytest.raises(ValueError):
        raster.dilate(m, 0)
    with pytest.raises(ValueError):
        raster.erode(m, -1)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def test_index_tables_are_int32_up_to_the_largest_int32_index():
    assert raster._index_type(2 ** 31 - 1) is np.int32
    assert raster._index_type(2 ** 31) is np.int64


def test_components_two_blocks_one_column_apart():
    m = np.zeros((6, 9), np.uint8)
    m[1:5, 1:4] = 1
    m[1:5, 5:8] = 1
    assert int(raster.connected_components(m).max()) == 2


def test_components_diagonal_touch():
    m = np.zeros((4, 4), np.uint8)
    m[1, 1] = 1
    m[2, 2] = 1
    assert int(raster.connected_components(m).max()) == 1


def test_components_empty():
    out = raster.connected_components(np.zeros((5, 5), np.uint8))
    assert out.max() == 0


def check_against_flood(labels, m, connectivity):
    """The labels equal the 8-connected flood fill's; against the
    4-connected one, they must coarsen it: every 4-connected component lies
    inside one labelled component, since a corner touch only merges."""
    flood = flood_components(m, connectivity)
    if connectivity == 8:
        assert np.array_equal(labels, flood)
    else:
        assert np.array_equal(labels > 0, flood > 0)
        pairs = np.unique(np.stack([flood[flood > 0], labels[flood > 0]]), axis=1)
        assert np.array_equal(pairs[0], np.arange(1, int(flood.max()) + 1))
    return flood


@pytest.mark.parametrize("connectivity", [4, 8])
def test_components_match_flood_oracle(connectivity):
    rng = np.random.default_rng(connectivity)
    for _ in range(8):
        m = (rng.random((24, 20)) < 0.45).astype(np.uint8)
        check_against_flood(raster.connected_components(m), m, connectivity)


def spiral(n):
    """A one-pixel path winding inward with one-pixel gaps between turns."""
    m = np.zeros((n, n), np.uint8)
    r = c = 0
    m[0, 0] = 1
    lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for k, length in enumerate(lengths):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[k % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            m[r, c] = 1
    return m


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("m,count8,count4", [pytest.param(m, c8, c4, id=name) for name, m, c8, c4 in [
    ("serpentine", serpentine(63), 1, 1),
    ("serpentine-transposed", serpentine(63).T, 1, 1),
    ("spiral", spiral(64), 1, 1),
    ("checkerboard", (np.add.outer(np.arange(12), np.arange(15)) % 2 == 0).astype(np.uint8), 1, 90),
    ("all-ones", np.ones((7, 9), np.uint8), 1, 1),
    ("1x1-set", np.ones((1, 1), np.uint8), 1, 1),
    ("1x1-clear", np.zeros((1, 1), np.uint8), 0, 0),
    ("1xN", (np.random.default_rng(11).random((1, 41)) < 0.5).astype(np.uint8), None, None),
    ("Nx1", (np.random.default_rng(12).random((41, 1)) < 0.5).astype(np.uint8), None, None),
]])
def test_components_match_flood_oracle_on_adversarial_masks(connectivity, m, count8, count4):
    labels = raster.connected_components(m)
    assert labels.dtype == np.uint32
    flood = check_against_flood(labels, m, connectivity)
    if count8 is not None:
        assert int(labels.max()) == count8
        assert int(flood.max()) == (count8 if connectivity == 8 else count4)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_components_input_dtype_and_layout_independence(connectivity):
    rng = np.random.default_rng(13)
    big = (rng.random((40, 48)) < 0.45).astype(np.uint8)
    m = big[::2, ::3]  # strided view
    expected = raster.connected_components(np.ascontiguousarray(m))
    check_against_flood(expected, np.ascontiguousarray(m), connectivity)
    for variant in (m, m.astype(bool), m.astype(np.int64) * 5, np.asfortranarray(m)):
        out = raster.connected_components(variant)
        assert out.tobytes() == expected.tobytes()


def test_components_dense_and_anchor_ordered():
    rng = np.random.default_rng(42)
    m = (rng.random((30, 30)) < 0.4).astype(np.uint8)
    labels = raster.connected_components(m)
    n = int(labels.max())
    assert sorted(np.unique(labels[labels > 0])) == list(range(1, n + 1))
    anchors = [np.flatnonzero((labels == k).ravel())[0] for k in range(1, n + 1)]
    assert anchors == sorted(anchors)


def test_components_rotation_invariant_pixel_sets():
    rng = np.random.default_rng(5)
    m = (rng.random((18, 14)) < 0.45).astype(np.uint8)
    base = raster.connected_components(m)
    rot = raster.connected_components(np.rot90(m))
    rot_back = np.rot90(rot, -1)
    # same partition up to relabeling
    sets_a = {frozenset(map(tuple, np.argwhere(base == k))) for k in range(1, int(base.max()) + 1)}
    sets_b = {frozenset(map(tuple, np.argwhere(rot_back == k))) for k in range(1, int(rot.max()) + 1)}
    assert sets_a == sets_b


# ---------------------------------------------------------------------------
# chebyshev distance (the BFS oracle the spacing tests measure with)
# ---------------------------------------------------------------------------


def test_distance_all_set_is_zero():
    m = np.ones((5, 6), np.uint8)
    assert (bfs_chebyshev(m) == 0).all()


def test_distance_diagonal_neighbor_is_one():
    m = np.zeros((3, 3), np.uint8)
    m[0, 0] = 1
    assert bfs_chebyshev(m)[1, 1] == 1.0


def test_distance_row_example():
    m = np.zeros((1, 5), np.uint8)
    m[0, 0] = 1
    assert bfs_chebyshev(m).tolist() == [[0, 1, 2, 3, 4]]


def test_distance_all_zero_gives_sentinel():
    out = bfs_chebyshev(np.zeros((4, 7), np.uint8))
    assert (out > 4 + 7).all()


def test_distance_matches_bfs_oracle():
    # against the definition: the smallest max(|di|, |dj|) to any 1-pixel
    rng = np.random.default_rng(9)
    for _ in range(6):
        m = (rng.random((22, 17)) < 0.1).astype(np.uint8)
        m[0, 0] = 1
        src = np.argwhere(m)
        grid = np.indices(m.shape).reshape(2, -1).T
        direct = np.abs(grid[:, None, :] - src[None, :, :]).max(axis=2).min(axis=1)
        assert np.array_equal(bfs_chebyshev(m), direct.reshape(m.shape))


def test_distance_zero_iff_source_and_neighbors_differ_by_at_most_one():
    rng = np.random.default_rng(10)
    m = (rng.random((20, 20)) < 0.08).astype(np.uint8)
    if not m.any():
        m[3, 3] = 1
    d = bfs_chebyshev(m)
    assert np.array_equal(d == 0, m == 1)
    for dr, dc in raster.NEIGHBORS_8:
        shifted = shift(d, dr, dc, np.float32(np.nan))
        ok = ~np.isnan(shifted)
        assert (np.abs(d[ok] - shifted[ok]) <= 1).all()


def test_purity_and_determinism():
    rng = np.random.default_rng(1)
    m = (rng.random((16, 16)) < 0.5).astype(np.uint8)
    before = m.copy()
    a = raster.erode(m, 5)
    b = raster.erode(m, 5)
    assert np.array_equal(m, before)  # inputs untouched
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the instance-map rule
# ---------------------------------------------------------------------------

# maps outside the rule, and the refusal each gets, given the map's name
MALFORMED = {
    "fractional": (np.array([[0, 1.5], [1.2, 1.9]]), "expected a 2-D integer {} map"),
    "bool": (np.array([[0, 1], [1, 1]], bool), "expected a 2-D integer {} map"),
    "3-d": (np.array([[[0, 1], [1, 1]]], np.uint32), "expected a 2-D integer {} map"),
    "negative": (np.array([[0, 1], [1, -1]], np.int64), "{} map holds a negative label -1"),
    "above-count": (np.array([[0, 1], [1, 5]], np.int64),
                    "{} map labels are not dense: largest label 5 exceeds the pixel count 4"),
}

# every call that takes instance maps, given `m` for each of them, and the
# name its refusal gives the first
LABEL_CALLS = {
    "filter_small": (lambda m: extract.filter_small(m, 0), "instance"),
    "watershed_assign": (lambda m: extract.watershed_assign(m, np.ones(m.shape, np.uint8)), "seed"),
    "polygonize": (extract.polygonize, "instance"),
    "match_instances": (lambda m: evaluate.match_instances(m, m), "prediction"),
    "color_map": (lambda m: evaluate.color_map(m, m, evaluate.MatchResult()), "prediction"),
}


@pytest.mark.parametrize("call", LABEL_CALLS)
@pytest.mark.parametrize("fault", MALFORMED)
def test_every_label_taking_call_refuses_a_map_outside_the_rule(call, fault):
    fn, what = LABEL_CALLS[call]
    m, message = MALFORMED[fault]
    with pytest.raises(ValueError) as got:
        fn(m)
    assert str(got.value) == message.format(what)


def test_gaps_below_the_bound_pass_only_where_no_result_is_indexed_by_label():
    m = np.array([[0, 3], [3, 0]], np.int64)  # labels 1 and 2 absent
    assert extract.filter_small(m, 0).tolist() == [[0, 1], [1, 0]]
    assert extract.watershed_assign(m, m > 0).tolist() == [[0, 3], [3, 0]]
    for call in ("polygonize", "match_instances", "color_map"):
        fn, what = LABEL_CALLS[call]
        with pytest.raises(ValueError) as got:
            fn(m)
        assert str(got.value) == f"{what} map labels are not dense in 1..3: label 1 is absent"
