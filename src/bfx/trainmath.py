"""Training-side numerics: losses with analytic gradients, the loss values
alone, and rectangle-paste sample mixing. The learning-rate schedules live
in `bfx.schedules` alone, which needs no numpy. The defaults of
`LossParams`, `ChannelWeights` and the gradient check's step are the
paper's, written once in `bfx` (`bfx.LOSS_BETA`, `bfx.W_BORDER`, ...).

Losses take a float prediction raster in [0, 1] and a binary target of the
same shape, and return both the scalar and the per-pixel derivative with
respect to the prediction so the analytic gradients can be checked against
central finite differences. All arithmetic runs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import (GRADCHECK_STEP, LOSS_BETA, LOSS_CLAMP, LOSS_EPS, LOSS_GAMMA1, LOSS_GAMMA2, W_BORDER,
               W_BUILDING, W_SPACING, raster)


@dataclass(frozen=True)
class LossParams:
    beta: float = LOSS_BETA
    eps: float = LOSS_EPS
    gamma1: float = LOSS_GAMMA1
    gamma2: float = LOSS_GAMMA2
    clamp: float = LOSS_CLAMP

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.gamma1 + self.gamma2 <= 0:
            raise ValueError("gamma1 + gamma2 must be > 0")
        if not 0.0 < self.clamp < 0.5:
            raise ValueError("clamp must lie in (0, 0.5)")


@dataclass(frozen=True)
class ChannelWeights:
    building: float = W_BUILDING
    border: float = W_BORDER
    spacing: float = W_SPACING

    def __post_init__(self):
        w = self.as_tuple()
        if min(w) < 0:
            raise ValueError("channel weights must be non-negative")
        if sum(w) <= 0:
            raise ValueError("channel weights must not all be zero")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.building, self.border, self.spacing)


def _loss_inputs(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """The prediction as float64 and the target as a {0,1} uint8 mask, which
    every float64 operation reads exactly as 0.0 and 1.0."""
    p = np.asarray(pred, np.float64)
    g = raster.as_mask(gt)
    if p.shape != g.shape:
        raise ValueError(f"prediction/target dimensions differ: {p.shape} vs {g.shape}")
    if p.size == 0 or not raster._in_unit_interval(p):
        raise ValueError("prediction values must lie in [0, 1]")
    return p, g


def dice_loss(pred, gt, params: LossParams = LossParams()) -> tuple[float, np.ndarray]:
    """Soft F-beta overlap loss with smoothing eps, plus its gradient.

    With soft counts TP = sum(p*g), FP = sum(p*(1-g)), FN = sum((1-p)*g):
        loss = 1 - ((1+b^2)*TP + eps) / ((1+b^2)*TP + b^2*FN + FP + eps)
    The denominator's derivative w.r.t. any pixel is exactly 1, so the
    gradient is (num - (1+b^2)*g*den) / den^2.
    """
    return _dice(*_loss_inputs(pred, gt), params)


def _dice(p, g, params: LossParams, with_grad: bool = True) -> tuple[float, np.ndarray | None]:
    """`dice_loss` of a checked float64 prediction and 0/1 target; the
    gradient is None unless `with_grad`."""
    num, den = _dice_ratio(*_soft_counts(p, g), params)
    loss = 1.0 - num / den
    if not with_grad:
        return loss, None
    return loss, (num - (1.0 + params.beta * params.beta) * g * den) / (den * den)


def _soft_counts(p, g) -> tuple[float, float, float]:
    """Soft TP = sum(p*g), FP = sum(p*(1-g)) and FN = sum((1-p)*g) of a
    float64 prediction against a 0/1 target, through one scratch plane."""
    t = np.multiply(p, g, dtype=np.float64)
    tp = float(t.sum())
    np.subtract(1.0, g, out=t)
    t *= p
    fp = float(t.sum())
    np.subtract(1.0, p, out=t)
    t *= g
    return tp, fp, float(t.sum())


def _dice_ratio(tp, fp, fn, params: LossParams):
    """Numerator and denominator of the smoothed F-beta score from soft
    counts, given as scalars or as arrays; scalars are refused when the
    denominator, squared or times 1 + beta^2, would overflow."""
    b2 = params.beta * params.beta
    num = (1.0 + b2) * tp + params.eps
    den = (1.0 + b2) * tp + b2 * fn + fp + params.eps
    if isinstance(den, float) and not math.isfinite(den * max(den, 1.0 + b2)):
        raise ValueError(f"beta {params.beta!r} and eps {params.eps!r} overflow the F-beta loss")
    return num, den


def bce_loss(pred, gt, params: LossParams = LossParams()) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with the prediction clamped away from 0/1.

    The gradient is (-g/p + (1-g)/(1-p)) / N at unclamped pixels and 0
    where the clamp is active.
    """
    return _bce(*_loss_inputs(pred, gt), params)


def _bce(p, g, params: LossParams, with_grad: bool = True) -> tuple[float, np.ndarray | None]:
    """`bce_loss` of a checked float64 prediction and 0/1 target; the
    gradient is None unless `with_grad`."""
    n = p.size
    pc = np.clip(p, params.clamp, 1.0 - params.clamp)
    grad = None
    if with_grad:
        grad = (-(g / pc) + (1.0 - g) / (1.0 - pc)) / n
        grad[(p < params.clamp) | (p > 1.0 - params.clamp)] = 0.0
    return float(np.mean(_bce_terms(pc, g))), grad


def _bce_terms(pc, g):
    """Per-pixel cross-entropy -(g*log(pc) + (1-g)*log1p(-pc)) of clamped
    float64 predictions `pc` against a 0/1 target `g`, written over `pc`
    (an array the caller gives up) with one more scratch plane."""
    t = np.negative(pc)
    np.log1p(t, out=t)
    t *= 1 - g
    np.log(pc, out=pc)
    pc *= g
    pc += t
    return np.negative(pc, out=pc)


def channel_loss(pred, gt, params: LossParams = LossParams()) -> tuple[float, np.ndarray]:
    """Per-channel mix gamma1 * BCE + gamma2 * Dice, with its gradient."""
    return _channel(*_loss_inputs(pred, gt), params)


def _channel(p, g, params: LossParams, with_grad: bool = True) -> tuple[float, np.ndarray | None]:
    """`channel_loss` of a checked float64 prediction and 0/1 target; the
    gradient is None unless `with_grad`."""
    bce, bce_grad = _bce(p, g, params, with_grad)
    dice, dice_grad = _dice(p, g, params, with_grad)
    grad = params.gamma1 * bce_grad + params.gamma2 * dice_grad if with_grad else None
    return params.gamma1 * bce + params.gamma2 * dice, grad


_LOSS_CORES = {"dice": _dice, "bce": _bce, "channel": _channel}


def loss_value(kind: str, pred, gt, params: LossParams = LossParams()) -> float:
    """The value of `dice_loss`, `bce_loss` or `channel_loss` (`kind`),
    bit-identical to the first element of its result, without building the
    per-pixel gradient: the value comes from the same soft counts and BCE
    terms, and the gradient's passes over the plane are skipped."""
    if kind not in _LOSS_CORES:
        raise ValueError(f"unknown loss {kind!r}; expected one of {', '.join(_LOSS_CORES)}")
    return _LOSS_CORES[kind](*_loss_inputs(pred, gt), params, with_grad=False)[0]


def total_loss(losses, weights: ChannelWeights) -> float:
    """Weight-normalized sum of the (building, border, spacing) losses:
    sum(w*L) / sum(w); `ChannelWeights` guarantees a positive sum."""
    weights = [float(w) for w in weights.as_tuple()]
    losses = [float(x) for x in losses]
    if len(losses) != len(weights):
        raise ValueError(f"{len(losses)} losses but {len(weights)} weights")
    return sum(w * x for w, x in zip(weights, losses)) / sum(weights)


def gradient_check(pred, gt, params: LossParams = LossParams(), step: float = GRADCHECK_STEP) -> float:
    """Max relative error between the analytic gradients and central finite
    differences over the dice, BCE, and mixed losses.

    Pixels within `step` of 0, 1, or a clamp boundary are skipped: the
    perturbed prediction must stay a valid probability and must not straddle
    the clamp kink.

    Moving one pixel moves each loss only through a few sums, so every
    perturbed loss comes from them in one vectorized pass: the soft Dice
    counts shifted by +-step*g and +-step*(1-g), and the BCE term sum with
    the pixel's own term swapped for its perturbed value.

    The reading is limited by the inputs, not by this algorithm. Where the
    prediction lies a distance d from the wrong end (p = d where g = 1,
    p = 1 - d where g = 0), the central difference of BCE's log term is off
    by step^2 / (3 d^2), relative. At step 1e-5 one pixel with d below about
    6e-4 lifts the result above 1e-4, and uniform random planes of 40x40
    or more often hold one. On planes inside [0.05, 0.95] rounding alone
    reads about 1.5e-5 at 1024x1024.
    """
    p, g = _loss_inputs(pred, gt)
    low = max(step, params.clamp + step)
    eligible = np.flatnonzero((p > low) & (p < 1.0 - low))
    if eligible.size == 0:
        raise ValueError("no pixels far enough from the clamp boundaries to check")
    pe = p.ravel()[eligible]
    ge = g.ravel()[eligible]
    tp, fp, fn = _soft_counts(p, g)
    _dice_ratio(tp, fp, fn, params)  # refuses a beta or eps that overflows the loss
    terms = _bce_terms(np.clip(p, params.clamp, 1.0 - params.clamp), g)
    others = float(terms.sum()) - terms.ravel()[eligible]

    def moved(d):
        """(dice, bce) with each eligible pixel alone moved by d."""
        num, den = _dice_ratio(tp + d * ge, fp + d * (1.0 - ge), fn - d * ge, params)
        pc = np.clip(pe + d, params.clamp, 1.0 - params.clamp)
        return 1.0 - num / den, (others + _bce_terms(pc, ge)) / p.size

    (dice_hi, bce_hi), (dice_lo, bce_lo) = moved(step), moved(-step)
    mixed_hi = params.gamma1 * bce_hi + params.gamma2 * dice_hi
    mixed_lo = params.gamma1 * bce_lo + params.gamma2 * dice_lo
    worst = 0.0
    for loss, hi, lo in ((dice_loss, dice_hi, dice_lo), (bce_loss, bce_hi, bce_lo),
                         (channel_loss, mixed_hi, mixed_lo)):
        grad = loss(p, gt, params)[1].ravel()[eligible]
        fd = (hi - lo) / (2.0 * step)
        err = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-12)
        worst = max(worst, float(err.max()))
    return worst


def _check_box(box, height: int, width: int) -> tuple[int, int, int, int]:
    r0, c0, r1, c1 = (int(v) for v in box)
    if not (0 <= r0 <= r1 <= height and 0 <= c0 <= c1 <= width):
        raise ValueError(f"box {box} exceeds the {height}x{width} canvas")
    return r0, c0, r1, c1


def cutmix(image_a, masks_a, image_b, masks_b, box) -> tuple[np.ndarray, np.ndarray]:
    """Paste the half-open box [r0:r1, c0:c1] of sample B over sample A.

    The masks are arrays of any leading shape, such as a (3, h, w) target
    stack, on the image's canvas. The image and every mask plane are mixed
    identically; every output pixel comes from exactly one input, decided
    solely by box membership. Returns (image, masks).
    """
    a = np.asarray(image_a)
    b = np.asarray(image_b)
    if a.shape != b.shape:
        raise ValueError(f"image dimensions differ: {a.shape} vs {b.shape}")
    h, w = a.shape[-2:]
    r0, c0, r1, c1 = _check_box(box, h, w)

    def paste(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[-2:] != (h, w) or x.shape != y.shape:
            raise ValueError("mask dimensions differ from the image canvas")
        out = x.copy()
        out[..., r0:r1, c0:c1] = y[..., r0:r1, c0:c1]
        return out

    return paste(a, b), paste(masks_a, masks_b)


def sample_cutmix_box(height: int, width: int, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Canonical box sampler: mix ratio lam ~ U[0,1], side fractions
    sqrt(1-lam), uniform center, clipped to the canvas."""
    lam = float(rng.uniform(0.0, 1.0))
    frac = math.sqrt(1.0 - lam)
    bh = int(round(height * frac))
    bw = int(round(width * frac))
    cy = int(rng.integers(0, height))
    cx = int(rng.integers(0, width))
    r0 = cy - bh // 2
    c0 = cx - bw // 2
    return (max(0, r0), max(0, c0), min(height, r0 + bh), min(width, c0 + bw))
