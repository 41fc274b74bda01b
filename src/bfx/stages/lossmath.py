"""`bfx lossmath`: a loss value or a gradient check, printed to stdout."""

import math

from .. import formats, trainmath
from ..cli import _pool_map, _require


def run(cfg: dict):
    params = trainmath.LossParams(cfg["beta"], cfg["eps"], cfg["gamma1"], cfg["gamma2"], cfg["clamp"])
    pred = formats.read_pmap(cfg["pred"])
    gts = [formats.read_pgm(p) for p in cfg["gt"]]
    op = cfg["op"]
    if op == "total":
        _require(len(gts) == pred.shape[0],
                 f"lossmath total: {pred.shape[0]} channels but {len(gts)} --gt masks")
        _require(pred.shape[0] == 3, "lossmath total: expected a 3-channel stack")
        weights = trainmath.ChannelWeights(cfg["w_building"], cfg["w_border"], cfg["w_spacing"])
        # each channel's loss depends on that channel alone, so the pool changes no bit
        losses = _pool_map(lambda i: trainmath.loss_value("channel", pred[i], gts[i], params),
                           range(3), cfg["threads"])
        value = trainmath.total_loss(losses, weights)
    else:
        _require(cfg["channel"] < pred.shape[0],
                 f"lossmath: channel {cfg['channel']} out of range for {pred.shape[0]} channels")
        plane = pred[cfg["channel"]]
        if op == "gradcheck":
            value = trainmath.gradient_check(plane, gts[0], params, cfg["step"])
        else:
            value = trainmath.loss_value(op, plane, gts[0], params)
    _require(math.isfinite(value), f"lossmath {op}: the value overflows float64")
    print(f"{value:.9g}")
    return [cfg["pred"], *cfg["gt"]], None
