import itertools
import math

import numpy as np
import pytest

from bfx import fusion

from _oracles import copy_tta_average, sorted_ensemble_average


def rand_pmap(rng, c=2, h=4, w=4):
    return rng.random((c, h, w)).astype(np.float32)


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------


def test_identity_view():
    rng = np.random.default_rng(0)
    m = rand_pmap(rng)
    assert np.array_equal(fusion.apply_view(m, "identity"), m)


@pytest.mark.parametrize("view", fusion.VIEWS)
def test_views_are_involutions_bit_exact(view):
    rng = np.random.default_rng(1)
    m = rand_pmap(rng, 3, 5, 7)
    twice = fusion.apply_view(fusion.apply_view(m, view), view)
    assert twice.tobytes() == m.tobytes()
    mask = (rng.random((5, 7)) < 0.5).astype(np.uint8)
    assert fusion.apply_view(fusion.apply_view(mask, view), view).tobytes() == mask.tobytes()


def test_rot180_of_2x2():
    m = np.array([[[1.0, 2.0], [3.0, 4.0]]], np.float32) / 4.0
    out = fusion.apply_view(m, "rot180")
    assert out[0].tolist() == [[1.0, 0.75], [0.5, 0.25]]


def test_unknown_view_rejected():
    with pytest.raises(ValueError):
        fusion.apply_view(np.zeros((2, 2)), "transpose")


# ---------------------------------------------------------------------------
# tta_average_stream
# ---------------------------------------------------------------------------


def views_of(reference):
    return {v: fusion.apply_view(reference, v) for v in fusion.VIEWS}


def test_tta_constant_maps():
    const = np.full((1, 4, 4), 0.25, np.float32)
    views = {v: const for v in fusion.VIEWS}
    out = streamed(views, [])
    assert np.array_equal(out, const)
    assert_same_bits(out, copy_tta_average(views))


def test_tta_fully_symmetric_input_equals_identity_view():
    m = np.zeros((1, 4, 4), np.float32)
    m[0, 1:3, 1:3] = 0.8  # symmetric under both flips
    views = views_of(m)
    out = streamed(views, [])
    assert np.allclose(out, m, atol=0)
    assert_same_bits(out, copy_tta_average(views))


def test_tta_matches_direct_recompute():
    rng = np.random.default_rng(2)
    reference = rand_pmap(rng, 1, 4, 4)
    supplied = views_of(reference)
    expected = sum(fusion.apply_view(supplied[v], v).astype(np.float64)
                   for v in fusion.VIEWS) / 4.0
    out = streamed(supplied, [])
    assert np.array_equal(out, expected.astype(np.float32))
    assert_same_bits(out, copy_tta_average(supplied))


def test_tta_dimension_mismatch():
    supplied = {v: np.zeros((1, 2, 2), np.float32) for v in fusion.VIEWS}
    supplied["vflip"] = np.zeros((1, 3, 2), np.float32)
    with pytest.raises(ValueError):
        streamed(supplied, [])
    with pytest.raises(ValueError):
        copy_tta_average(supplied)


# ---------------------------------------------------------------------------
# ensemble_average
# ---------------------------------------------------------------------------


def test_ensemble_single_map_is_itself():
    rng = np.random.default_rng(5)
    m = rand_pmap(rng)
    assert np.array_equal(fusion.ensemble_average([m]), m)


def test_ensemble_zeros_and_ones():
    a = np.zeros((1, 3, 3), np.float32)
    b = np.ones((1, 3, 3), np.float32)
    assert (fusion.ensemble_average([a, b]) == 0.5).all()


def test_ensemble_matches_float64_oracle():
    rng = np.random.default_rng(6)
    maps = [rand_pmap(rng, 2, 6, 6) for _ in range(5)]
    out = fusion.ensemble_average(maps)
    for c in range(2):
        for i in range(6):
            for j in range(6):
                exact = math.fsum(float(m[c, i, j]) for m in maps) / 5.0
                assert abs(float(out[c, i, j]) - exact) <= 1e-6


def test_ensemble_order_invariance():
    rng = np.random.default_rng(7)
    maps = [rand_pmap(rng, 1, 5, 5) for _ in range(4)]
    baseline = fusion.ensemble_average(maps)
    for perm in itertools.permutations(range(4)):
        out = fusion.ensemble_average([maps[i] for i in perm])
        assert out.tobytes() == baseline.tobytes()


def test_ensemble_bounded_by_inputs():
    rng = np.random.default_rng(8)
    maps = [rand_pmap(rng, 1, 8, 8) for _ in range(3)]
    out = fusion.ensemble_average(maps)
    stacked = np.stack(maps)
    assert (out >= stacked.min(axis=0) - 1e-7).all()
    assert (out <= stacked.max(axis=0) + 1e-7).all()


def test_ensemble_errors():
    with pytest.raises(ValueError):
        fusion.ensemble_average([])
    with pytest.raises(ValueError):
        fusion.ensemble_average([np.zeros((1, 2, 2), np.float32),
                                 np.zeros((1, 2, 3), np.float32)])


# ---------------------------------------------------------------------------
# bit-exact agreement with the copy-and-sort oracles
# ---------------------------------------------------------------------------

# ties, both zeros, subnormals and the float32 neighbours of 0 and 1
SPECIAL = np.array([0.0, -0.0, 1.0, 1 - 2**-24, 2**-24, 2**-149, 2**-130, 2**-126, 0.5, 0.3],
                   np.float64)
LAYOUTS = ("float32", "float64", "fortran", "strided", "reversed")


def tricky_values(rng, shape):
    """float64 values in [0, 1]: half drawn from SPECIAL (many ties), half
    uniform and mostly not representable in float32."""
    values = rng.random(shape)
    pick = rng.random(shape) < 0.5
    values[pick] = SPECIAL[rng.integers(len(SPECIAL), size=int(pick.sum()))]
    return values


def laid_out(values, layout):
    """The same pixel values in one memory layout or dtype."""
    if layout == "float64":
        return values
    a = values.astype(np.float32)
    if layout == "fortran":
        return np.asfortranarray(a)
    c, h, w = a.shape
    if layout == "strided":
        big = np.zeros((c, 2 * h + 1, 3 * w), np.float32)
        big[:, 1::2, ::3] = a
        return big[:, 1::2, ::3]
    if layout == "reversed":
        return a[:, ::-1, ::-1].copy()[:, ::-1, ::-1]
    return a


def assert_same_bits(out, expected):
    assert out.dtype == expected.dtype == np.float32
    assert out.shape == expected.shape
    assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))


BAND = fusion._BAND_ROWS
# 7 rows lie in one band of the ensemble; the others end at or next to a band edge
HEIGHTS = (7, 1, BAND - 1, BAND, BAND + 1, 2 * BAND + 3)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", range(1, 10))
def test_ensemble_matches_sorted_oracle_bit_for_bit(k, layout):
    rng = np.random.default_rng(100 + k)
    for h in HEIGHTS:
        maps = [laid_out(tricky_values(rng, (2, h, 9)), layout) for _ in range(k)]
        assert_same_bits(fusion.ensemble_average(maps), sorted_ensemble_average(maps))


# Multisets whose float32 mean depends on the summation order. In the first,
# the two 2**-53 terms survive when summed before 1.0 and round the mean up
# to 0.25 + 2**-25; added after 1.0 they are absorbed and the mean is a tie
# that rounds to 0.25. The others need every value in place, not only the
# largest (a network one round short gets the six-fold one wrong).
ORDER_SENSITIVE = [[1.0, 2 ** -24, 2 ** -53, 2 ** -53],
                   [float.fromhex("0x1.adeb24p-1"), 5 * 2 ** -56, float.fromhex("0x1.055dfep-3")],
                   [1 - 2 ** -24, 1 - 2 ** -24, 2 ** -25, 2 ** -54, 3 * 2 ** -55, 2 ** -24]]


@pytest.mark.parametrize("values", ORDER_SENSITIVE, ids=["k4", "k3", "k6"])
def test_ensemble_sums_in_ascending_order_whatever_the_fold_order(values):
    perms = sorted(set(itertools.permutations(values)))  # one pixel per fold order
    maps = [np.array([p[i] for p in perms], np.float32).reshape(1, 1, -1) for i in range(len(values))]
    out = fusion.ensemble_average(maps)
    assert (out == out[0, 0, 0]).all()
    assert_same_bits(out, sorted_ensemble_average(maps))
    if len(values) == 4:
        assert out[0, 0, 0] == np.float32(0.25 + 2 ** -25)


@pytest.mark.parametrize("values", ORDER_SENSITIVE, ids=["k4", "k3", "k6"])
def test_ensemble_sums_in_ascending_order_in_every_band(values):
    perms = sorted(set(itertools.permutations(values)))  # one column per fold order, on every row
    rows = 2 * BAND + 3
    maps = [np.tile(np.array([p[i] for p in perms], np.float32), (1, rows, 1)) for i in range(len(values))]
    out = fusion.ensemble_average(maps)
    assert out.shape == (1, rows, len(perms)) and (out == out[0, 0, 0]).all()
    assert_same_bits(out, sorted_ensemble_average(maps))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tta_matches_copy_oracle_bit_for_bit(layout):
    rng = np.random.default_rng(200)
    for _ in range(20):
        views = {v: laid_out(tricky_values(rng, (2, 5, 6)), layout) for v in fusion.VIEWS}
        assert_same_bits(streamed(views, []), copy_tta_average(views))


def streamed(views, calls):
    """`tta_average_stream` over `views`, each copied into the buffer it is
    handed, as `fuse --tta` reads files; `calls` records (name, buffer)."""
    def read(name, buf):
        calls.append((name, buf))
        a = np.asarray(views[name], np.float32)
        if buf is None or buf.shape != a.shape:
            return a.copy()
        buf[...] = a
        return buf
    return fusion.tta_average_stream(read)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tta_stream_reuses_one_buffer_and_matches_copy_oracle(layout):
    rng = np.random.default_rng(201)
    for _ in range(20):
        views = {v: laid_out(tricky_values(rng, (2, 5, 6)), layout) for v in fusion.VIEWS}
        calls = []
        out = streamed(views, calls)
        assert [name for name, _ in calls] == list(fusion.VIEWS)
        assert calls[0][1] is None and all(buf is calls[1][1] for _, buf in calls[1:])
        assert out is calls[1][1] and out.dtype == np.float32
        assert_same_bits(out, copy_tta_average(views))


def test_tta_stream_signed_zeros_match_oracle():
    zeros = np.array([0.0, -0.0], np.float32)
    for signs in itertools.product(range(2), repeat=4):
        views = {v: np.full((1, 1, 2), zeros[s], np.float32) for v, s in zip(fusion.VIEWS, signs)}
        assert_same_bits(streamed(views, []), copy_tta_average(views))


def test_tta_stream_rejects_bad_views():
    good = np.zeros((1, 3, 3), np.float32)
    for name in fusion.VIEWS[1:]:
        views = {v: good for v in fusion.VIEWS}
        views[name] = np.zeros((1, 3, 4), np.float32)
        with pytest.raises(ValueError, match=f"view '{name}' has shape"):
            streamed(views, [])
        views[name] = np.zeros((3, 3), np.float32)
        with pytest.raises(ValueError, match=f"view '{name}' must be a"):
            streamed(views, [])


def test_tta_all_negative_zero_views_stay_negative_zero():
    views = {v: np.full((1, 2, 3), -0.0, np.float32) for v in fusion.VIEWS}
    out = streamed(views, [])
    assert (out.view(np.uint32) == 0x80000000).all()
    assert_same_bits(out, copy_tta_average(views))


def test_tta_signed_zero_mixtures_match_oracle():
    zeros = np.array([0.0, -0.0], np.float32)
    for signs in itertools.product(range(2), repeat=4):
        views = {v: np.full((1, 1, 1), zeros[s], np.float32) for v, s in zip(fusion.VIEWS, signs)}
        assert_same_bits(streamed(views, []), copy_tta_average(views))


@pytest.mark.parametrize("k", range(1, 10))
def test_ensemble_signed_zeros_match_oracle_and_sum_to_positive_zero(k):
    zeros = np.array([0.0, -0.0], np.float32)
    signs = np.array(list(itertools.product(range(2), repeat=k))).T  # one pixel per sign pattern
    maps = [zeros[row].reshape(1, 1, -1) for row in signs]
    out = fusion.ensemble_average(maps)
    assert (out.view(np.uint32) == 0).all()  # +0.0 even when every summand is -0.0
    assert_same_bits(out, sorted_ensemble_average(maps))
    with_value = maps + [np.full_like(maps[0], 0.25)]  # zeros of either sign and one 0.25
    assert_same_bits(fusion.ensemble_average(with_value), sorted_ensemble_average(with_value))


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_nan_pixel_gives_nan(k):
    rng = np.random.default_rng(300 + k)
    maps = [rng.random((1, 3, 3)).astype(np.float32) for _ in range(k)]
    maps[k // 2][0, 1, 2] = np.nan
    out = fusion.ensemble_average(maps)
    nan = np.isnan(out)
    assert nan[0, 1, 2] and nan.sum() == 1
    expected = sorted_ensemble_average(maps)
    assert np.array_equal(out[~nan].view(np.uint32), expected[~nan].view(np.uint32))
    views = {v: rng.random((1, 3, 3)).astype(np.float32) for v in fusion.VIEWS}
    views["vflip"][0, 0, 0] = np.nan
    out = streamed(views, [])
    assert np.isnan(out[0, 2, 0]) and np.isnan(out).sum() == 1


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------


def test_binarize_below_threshold_is_empty():
    m = np.full((1, 3, 3), 0.29, np.float32)
    assert fusion.binarize(m, 0, 0.3).sum() == 0


def test_binarize_boundary_is_inclusive():
    m = np.full((1, 2, 2), 0.3, np.float32)
    assert fusion.binarize(m, 0, 0.3).all()


def test_binarize_matches_per_pixel_comparison():
    rng = np.random.default_rng(9)
    m = rand_pmap(rng, 2, 6, 6)
    out = fusion.binarize(m, 1, 0.3)
    for i in range(6):
        for j in range(6):
            assert out[i, j] == (1 if m[1, i, j] >= 0.3 else 0)


def test_binarize_replicated_ensemble_equals_binarize():
    rng = np.random.default_rng(10)
    m = rand_pmap(rng, 1, 5, 5)
    fused = fusion.ensemble_average([m] * 7)
    assert np.array_equal(fusion.binarize(fused, 0, 0.3), fusion.binarize(m, 0, 0.3))


def test_binarize_is_exact_where_the_threshold_rounds_in_the_planes_dtype():
    # float32(0.7) < 0.7, and 1e-50 rounds to float32 0.0: neither may pass
    below = np.float32(0.7)
    m = np.array([[[0.0, 1e-45, below, np.nextafter(below, np.float32(1)), 1.0]]], np.float32)
    assert fusion.binarize(m, 0, 0.7).tolist() == [[0, 0, 0, 1, 1]]
    assert fusion.binarize(m, 0, 1e-50).tolist() == [[0, 1, 1, 1, 1]]
    assert fusion.binarize(m, 0, float(below)).tolist() == [[0, 0, 1, 1, 1]]
    assert fusion.binarize(m.astype(np.float64), 0, 0.7).tolist() == [[0, 0, 0, 1, 1]]


@pytest.mark.parametrize("threshold,want", [
    (0.0, [1, 1, 1, 1]), (0.3, [0, 1, 1, 1]), (1.0, [0, 1, 1, 1]), (1.0 + 2 ** -52, [0, 0, 1, 1]),
    (254.5, [0, 0, 0, 1]), (255.5, [0, 0, 0, 0]), (1e-50, [0, 1, 1, 1]), (-3.0, [1, 1, 1, 1])])
def test_binarize_of_a_uint8_stack_compares_against_the_thresholds_ceiling(threshold, want):
    m = np.array([[[0, 1, 2, 255]]], np.uint8)
    out = fusion.binarize(m, 0, threshold)
    assert out.dtype == np.uint8 and out.tolist() == [want]
    assert fusion.binarize(m.astype(np.float64), 0, threshold).tolist() == [want]


def test_binarize_channel_out_of_range():
    with pytest.raises(ValueError):
        fusion.binarize(np.zeros((2, 2, 2), np.float32), 2, 0.3)
