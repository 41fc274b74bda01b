import math

import numpy as np
import pytest

from bfx import schedules, trainmath
from bfx.schedules import ScheduleParams
from bfx.trainmath import ChannelWeights, LossParams

from _memory import traced_peak
from _oracles import brute_gradient_check, poly_recurrence_per_epoch


def finite_difference(fn, pred, gt, params, step=1e-5):
    """Central differences of a scalar loss, one pixel at a time."""
    flat = np.asarray(pred, np.float64).ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi = fn(bumped.reshape(pred.shape), gt, params)[0]
        bumped[i] = flat[i] - step
        lo = fn(bumped.reshape(pred.shape), gt, params)[0]
        grad[i] = (hi - lo) / (2 * step)
    return grad.reshape(pred.shape)


# ---------------------------------------------------------------------------
# dice
# ---------------------------------------------------------------------------


def test_dice_perfect_prediction_is_zero():
    gt = np.zeros((10, 10), np.uint8)
    gt[2:7, 2:7] = 1
    loss, grad = trainmath.dice_loss(gt.astype(np.float64), gt)
    assert loss == 0.0
    assert grad.shape == (10, 10)


def test_dice_all_wrong():
    pred = np.ones((10, 10), np.float64)
    gt = np.zeros((10, 10), np.uint8)
    loss, _ = trainmath.dice_loss(pred, gt)
    assert abs(loss - (1 - 1e-4 / (100 + 1e-4))) < 1e-12
    assert abs(loss - 0.999999) < 1e-6


def test_dice_half_confidence():
    pred = np.full((10, 10), 0.5)
    gt = np.ones((10, 10), np.uint8)
    loss, _ = trainmath.dice_loss(pred, gt)
    assert abs(loss - (1 - (100 + 1e-4) / (150 + 1e-4))) < 1e-12
    assert abs(loss - 0.333333) < 1e-6


def test_dice_range_and_input_validation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pred = rng.random((6, 6))
        gt = (rng.random((6, 6)) < 0.5).astype(np.uint8)
        loss, _ = trainmath.dice_loss(pred, gt)
        assert 0.0 <= loss < 1.0
    with pytest.raises(ValueError):
        trainmath.dice_loss(np.full((3, 3), 1.5), np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError):
        trainmath.dice_loss(np.zeros((3, 3)), np.zeros((3, 4), np.uint8))


# ---------------------------------------------------------------------------
# bce
# ---------------------------------------------------------------------------


def test_bce_half_everywhere_is_ln2():
    pred = np.full((8, 8), 0.5)
    gt = (np.arange(64).reshape(8, 8) % 2).astype(np.uint8)
    loss, _ = trainmath.bce_loss(pred, gt)
    assert abs(loss - math.log(2)) < 1e-12
    assert abs(loss - 0.693147) < 1e-6


def test_bce_exact_prediction_is_clamp_limited():
    gt = np.zeros((10, 10), np.uint8)
    gt[1:5, 1:5] = 1
    loss, grad = trainmath.bce_loss(gt.astype(np.float64), gt)
    assert abs(loss - (-math.log1p(-1e-7))) < 1e-15
    assert loss < 2e-7
    assert (grad == 0).all()  # every pixel sits in the clamped zone


def test_bce_single_pixel_quarter():
    loss, _ = trainmath.bce_loss(np.array([[0.25]]), np.array([[1]], np.uint8))
    assert abs(loss - math.log(4)) < 1e-12
    assert abs(loss - 1.386294) < 1e-6


def test_bce_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pred = rng.random((5, 5))
        gt = (rng.random((5, 5)) < 0.5).astype(np.uint8)
        assert trainmath.bce_loss(pred, gt)[0] >= 0.0


# ---------------------------------------------------------------------------
# channel / total
# ---------------------------------------------------------------------------


def test_channel_perfect_prediction_near_zero():
    gt = np.zeros((8, 8), np.uint8)
    gt[2:6, 2:6] = 1
    loss, _ = trainmath.channel_loss(gt.astype(np.float64), gt)
    assert loss < 1e-6


def test_channel_half_on_ones():
    pred = np.full((10, 10), 0.5)
    gt = np.ones((10, 10), np.uint8)
    loss, _ = trainmath.channel_loss(pred, gt)
    expected = 0.5 * math.log(2) + 0.5 * (1 - (100 + 1e-4) / (150 + 1e-4))
    assert abs(loss - expected) < 1e-12
    assert abs(loss - 0.513240) < 1e-6


def test_channel_degenerate_mix_is_bce():
    rng = np.random.default_rng(2)
    pred = rng.random((6, 6))
    gt = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    params = LossParams(gamma1=1.0, gamma2=0.0)
    assert trainmath.channel_loss(pred, gt, params)[0] == trainmath.bce_loss(pred, gt, params)[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("beta, eps, clamp, gamma1, gamma2", [
    (1.0, 1e-4, 1e-7, 0.5, 0.5), (0.5, 1e-2, 1e-3, 1.0, 0.0), (2.0, 1e-6, 0.2, 0.3, 1.7),
    (0.0, 1.0, 0.49, 0.0, 1.0)])
def test_loss_value_is_the_losses_first_element_bit_for_bit(dtype, beta, eps, clamp, gamma1, gamma2):
    rng = np.random.default_rng(11)
    params = LossParams(beta, eps, gamma1, gamma2, clamp)
    for side in (1, 7, 64, 257):
        pred = rng.random((side, side)).astype(dtype)
        pred[rng.random(pred.shape) < 0.1] = 0.0  # clamped pixels at both ends
        pred[rng.random(pred.shape) < 0.1] = 1.0
        pred[rng.random(pred.shape) < 0.05] = clamp / 2
        gt = (rng.random((side, side)) < 0.5).astype(np.uint8)
        for kind, fn in (("dice", trainmath.dice_loss), ("bce", trainmath.bce_loss),
                         ("channel", trainmath.channel_loss)):
            value = trainmath.loss_value(kind, pred, gt, params)
            assert type(value) is float
            assert value.hex() == fn(pred, gt, params)[0].hex(), (kind, side)


def test_loss_value_holds_about_three_float64_planes():
    """The value path holds the float64 prediction and two scratch planes
    (the target stays a uint8 mask), so `lossmath total` can run its three
    channels on two threads below what one channel used to take (7 planes)."""
    pred = np.random.default_rng(2).random((512, 512), dtype=np.float32)
    gt = (pred > 0.6).astype(np.uint8)
    for kind in ("dice", "bce", "channel"):
        peak = traced_peak(lambda: trainmath.loss_value(kind, pred, gt))[1]
        assert peak < 3.25 * pred.size * 8, (kind, peak / (pred.size * 8))


def test_loss_value_checks_like_the_losses():
    gt = np.ones((4, 4), np.uint8)
    with pytest.raises(ValueError, match="unknown loss 'focal'"):
        trainmath.loss_value("focal", np.full((4, 4), 0.5), gt)
    with pytest.raises(ValueError, match="lie in"):
        trainmath.loss_value("dice", np.full((4, 4), 1.5), gt)
    with pytest.raises(ValueError, match="dimensions differ"):
        trainmath.loss_value("channel", np.full((4, 5), 0.5), gt)


@pytest.mark.parametrize("check", [
    trainmath.dice_loss, trainmath.bce_loss, trainmath.channel_loss, trainmath.gradient_check,
    lambda p, g: trainmath.loss_value("dice", p, g), lambda p, g: trainmath.loss_value("bce", p, g),
    lambda p, g: trainmath.loss_value("channel", p, g)])
def test_a_nan_prediction_is_refused(check):
    pred = np.full((4, 4), 0.5)
    pred[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"prediction values must lie in \[0, 1\]"):
        check(pred, np.ones((4, 4), np.uint8))


def test_total_equal_losses_any_weights():
    assert trainmath.total_loss([0.7, 0.7, 0.7], ChannelWeights(1, 2, 2)) == pytest.approx(0.7)
    assert trainmath.total_loss([0.7, 0.7, 0.7], ChannelWeights(5, 1, 3)) == pytest.approx(0.7)


def test_total_weighted_example():
    assert trainmath.total_loss([0.6, 0.3, 0.3], ChannelWeights(1, 2, 2)) == pytest.approx(0.36)


def test_total_single_channel():
    # one channel weighted, the others at zero: the total is that channel's loss
    assert trainmath.total_loss([0.9, 0.42, 0.1], ChannelWeights(0, 3, 0)) == pytest.approx(0.42)


def test_total_scale_invariance_and_errors():
    losses = [0.1, 0.5, 0.9]
    a = trainmath.total_loss(losses, ChannelWeights(1, 2, 2))
    b = trainmath.total_loss(losses, ChannelWeights(10, 20, 20))
    assert a == pytest.approx(b)
    with pytest.raises(ValueError, match="2 losses but 3 weights"):
        trainmath.total_loss(losses[:2], ChannelWeights(1, 2, 2))
    with pytest.raises(ValueError):
        ChannelWeights(0, 0, 0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fn", [trainmath.dice_loss, trainmath.bce_loss, trainmath.channel_loss])
def test_analytic_gradients_match_finite_differences(fn):
    rng = np.random.default_rng(3)
    params = LossParams()
    for _ in range(6):
        pred = rng.uniform(0.05, 0.95, size=(16, 16))
        gt = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        _, grad = fn(pred, gt, params)
        fd = finite_difference(fn, pred, gt, params)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-12)
        assert rel.max() <= 1e-4


def test_gradient_check_helper_agrees():
    rng = np.random.default_rng(4)
    pred = rng.uniform(0.05, 0.95, size=(12, 12))
    gt = (rng.random((12, 12)) < 0.5).astype(np.uint8)
    assert trainmath.gradient_check(pred, gt) <= 1e-4


def oracle_check(pred, gt, params, step=1e-5):
    """The per-pixel brute force over the losses as trainmath binds them now."""
    losses = (trainmath.dice_loss, trainmath.bce_loss, trainmath.channel_loss)
    return brute_gradient_check(losses, pred, gt, params, step)


def gradcheck_cases():
    # (seed, side, low, dtype, beta, gamma1, gamma2); a single 40x40 case keeps the oracle cheap
    cases = [(0, 40, 0.05, np.float32, 1.0, 0.5, 0.5)]
    rng = np.random.default_rng(30)
    for k in range(23):
        side = int(rng.integers(3, 17))
        low = (0.0, 0.05)[k % 2]
        dtype = (np.float32, np.float64)[(k // 2) % 2]
        beta = (0.5, 1.0, 2.0)[k % 3]
        gammas = [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.2, 1.7), (3.0, 0.25)][k % 5]
        cases.append((k + 1, side, low, dtype, beta, *gammas))
    return cases


@pytest.mark.parametrize("seed,side,low,dtype,beta,gamma1,gamma2", gradcheck_cases())
def test_gradient_check_agrees_with_the_brute_force(seed, side, low, dtype, beta, gamma1, gamma2):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(low, 1.0 - low, (side, side)).astype(dtype)
    gt = (rng.random((side, side)) < 0.5).astype(np.uint8)
    params = LossParams(beta=beta, gamma1=gamma1, gamma2=gamma2)
    fast = trainmath.gradient_check(pred, gt, params)
    brute = oracle_check(pred, gt, params)
    assert abs(fast - brute) <= 1e-4 * brute + 1e-7


def test_gradient_check_agrees_where_truncation_error_dominates():
    # one prediction 1e-4 from its wrong end reads about step^2 / (3 * 1e-8)
    pred = np.full((6, 6), 0.5)
    pred[2, 3] = 1e-4
    gt = np.zeros((6, 6), np.uint8)
    gt[:3] = 1
    fast = trainmath.gradient_check(pred, gt)
    assert fast == pytest.approx(1e-10 / 3e-8, rel=1e-2)
    assert abs(fast - oracle_check(pred, gt, LossParams())) <= 1e-4 * fast


@pytest.mark.parametrize("name", ["dice_loss", "bce_loss", "channel_loss"])
def test_gradient_check_reports_a_scaled_analytic_gradient(monkeypatch, name):
    rng = np.random.default_rng(31)
    pred = rng.uniform(0.05, 0.95, (12, 12))
    gt = (rng.random((12, 12)) < 0.5).astype(np.uint8)
    exact = getattr(trainmath, name)

    def skewed(p, g, params=LossParams()):
        value, grad = exact(p, g, params)
        return value, grad * (1.0 + 1e-3)

    monkeypatch.setattr(trainmath, name, skewed)
    expected = 1e-3 / (1.0 + 1e-3)  # |g(1+e) - g| / |g(1+e)|
    assert trainmath.gradient_check(pred, gt) == pytest.approx(expected, rel=1e-3)
    assert oracle_check(pred, gt, LossParams()) == pytest.approx(expected, rel=1e-3)


def test_gradient_check_needs_an_eligible_pixel():
    pred = np.array([[0.0, 1.0], [5e-6, 1.0 - 5e-6]])
    gt = np.array([[1, 0], [1, 0]], np.uint8)
    for check in (trainmath.gradient_check, lambda p, g: oracle_check(p, g, LossParams())):
        with pytest.raises(ValueError, match="no pixels far enough"):
            check(pred, gt)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta,eps", [(1e308, 1e-6), (1e77, 1e-6), (2.0, 1e308)])
def test_a_beta_or_eps_that_overflows_the_dice_terms_is_refused(beta, eps):
    rng = np.random.default_rng(7)
    p = rng.uniform(0.1, 0.9, (6, 6))
    g = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    params = LossParams(beta=beta, eps=eps)
    for call in (lambda: trainmath.dice_loss(p, g, params), lambda: trainmath.channel_loss(p, g, params),
                 lambda: trainmath.loss_value("dice", p, g, params),
                 lambda: trainmath.gradient_check(p, g, params)):
        with pytest.raises(ValueError, match="overflow the F-beta loss$"):
            call()


def test_poly_schedule_values():
    assert schedules.lr_poly(0) == 0.001
    assert schedules.lr_poly(100) == 0.0
    assert schedules.lr_poly(50) == pytest.approx(0.001 * 0.5 ** 0.9, rel=1e-12)
    assert abs(schedules.lr_poly(50) - 5.3589e-4) < 1e-7


def test_poly_recursive_variant_decays_faster():
    closed = schedules.lr_poly(10)
    table = schedules.lr_poly_recurrence()
    assert len(table) == 101 and table[0] == 0.001
    assert table[10] < closed
    assert table[100] == 0.0


@pytest.mark.parametrize("total, power", [(2, 0.9), (100, 0.9), (37, 1.7), (250, 0.35)])
def test_poly_recurrence_is_the_per_epoch_product_bit_for_bit(total, power):
    params = ScheduleParams(total_epochs=total, up_epochs=1, poly_power=power, poly_lr0=0.003)
    table = schedules.lr_poly_recurrence(params)
    assert len(table) == total + 1
    for epoch in range(total + 1):
        assert table[epoch].hex() == poly_recurrence_per_epoch(epoch, params).hex()


def test_one_cycle_endpoints_exact():
    assert schedules.lr_one_cycle(0) == 5e-6
    assert schedules.lr_one_cycle(40) == 1e-4
    assert schedules.lr_one_cycle(100) == 5e-9


def test_one_cycle_midpoint_of_ramp():
    assert schedules.lr_one_cycle(20) == pytest.approx(5.25e-5, rel=1e-12)


def test_one_cycle_continuity_and_monotone_phases():
    params = ScheduleParams()
    up = [schedules.lr_one_cycle(e, params) for e in range(0, 41)]
    down = [schedules.lr_one_cycle(e, params) for e in range(40, 101)]
    assert all(b > a for a, b in zip(up, up[1:]))
    assert all(b < a for a, b in zip(down, down[1:]))
    # both phase formulas agree at the junction
    w_up = (1 - math.cos(math.pi)) / 2
    assert params.lr_init * (1 - w_up) + params.lr_max * w_up == schedules.lr_one_cycle(40)


def test_schedule_epoch_range_errors():
    with pytest.raises(ValueError):
        schedules.lr_poly(-1)
    with pytest.raises(ValueError):
        schedules.lr_poly(101)
    with pytest.raises(ValueError):
        schedules.lr_one_cycle(100.5)
    with pytest.raises(ValueError):
        ScheduleParams(total_epochs=10, up_epochs=10)


# ---------------------------------------------------------------------------
# cutmix
# ---------------------------------------------------------------------------


def sample(rng, h=8, w=8):
    image = rng.random((h, w))
    masks = (rng.random((3, h, w)) < 0.5).astype(np.uint8)  # building, border, spacing
    return image, masks


def test_cutmix_full_box_returns_b():
    rng = np.random.default_rng(5)
    ia, ma = sample(rng)
    ib, mb = sample(rng)
    img, masks = trainmath.cutmix(ia, ma, ib, mb, (0, 0, 8, 8))
    assert np.array_equal(img, ib)
    assert np.array_equal(masks, mb)


def test_cutmix_empty_box_returns_a():
    rng = np.random.default_rng(6)
    ia, ma = sample(rng)
    ib, mb = sample(rng)
    img, masks = trainmath.cutmix(ia, ma, ib, mb, (3, 3, 3, 3))
    assert np.array_equal(img, ia)
    assert np.array_equal(masks, ma)


def test_cutmix_piecewise_definition():
    rng = np.random.default_rng(7)
    ia, ma = sample(rng)
    ib, mb = sample(rng)
    img, masks = trainmath.cutmix(ia, ma, ib, mb, (2, 2, 6, 6))  # rows/cols 2..5
    assert img[0, 0] == ia[0, 0]
    assert img[3, 3] == ib[3, 3]
    for out_ch, a_ch, b_ch in zip(masks, ma, mb):
        assert out_ch[0, 0] == a_ch[0, 0]
        assert out_ch[3, 3] == b_ch[3, 3]


def test_cutmix_pixel_conservation():
    rng = np.random.default_rng(8)
    ia, ma = sample(rng)
    ib, mb = sample(rng)
    box = (1, 2, 5, 7)
    img, _ = trainmath.cutmix(ia, ma, ib, mb, box)
    inside = np.zeros((8, 8), bool)
    inside[1:5, 2:7] = True
    assert np.array_equal(img[inside], ib[inside])
    assert np.array_equal(img[~inside], ia[~inside])


@pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)])
def test_cutmix_masks_of_any_leading_shape(lead):
    rng = np.random.default_rng(10)
    ia, ib = rng.random((2, 8, 8))
    ma, mb = (rng.random((*lead, 8, 8)) < 0.5 for _ in range(2))
    img, masks = trainmath.cutmix(ia, ma, ib, mb, (1, 2, 5, 7))
    inside = np.zeros((8, 8), bool)
    inside[1:5, 2:7] = True
    assert masks.shape == ma.shape and masks.dtype == ma.dtype
    assert np.array_equal(masks, np.where(inside, mb, ma))
    assert np.array_equal(img, np.where(inside, ib, ia))


def test_cutmix_box_validation():
    rng = np.random.default_rng(9)
    ia, ma = sample(rng)
    ib, mb = sample(rng)
    with pytest.raises(ValueError):
        trainmath.cutmix(ia, ma, ib, mb, (0, 0, 9, 8))
    with pytest.raises(ValueError):
        trainmath.cutmix(ia, ma, ib, mb, (4, 4, 2, 2))
    with pytest.raises(ValueError):
        trainmath.cutmix(ia, ma, rng.random((9, 9)), mb, (0, 0, 4, 4))


def test_cutmix_sampler_is_seeded_and_in_bounds():
    boxes = [trainmath.sample_cutmix_box(64, 48, np.random.default_rng(12)) for _ in range(2)]
    assert boxes[0] == boxes[1]
    rng = np.random.default_rng(13)
    for _ in range(200):
        r0, c0, r1, c1 = trainmath.sample_cutmix_box(64, 48, rng)
        assert 0 <= r0 <= r1 <= 64
        assert 0 <= c0 <= c1 <= 48
