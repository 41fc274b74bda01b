"""Learning-rate schedules: polynomial decay and the one-cycle cosine ramp;
nothing here may import numpy.

`bfx lr` dumps a whole schedule from here without loading numpy. The
literal polynomial recurrence is one running product (`lr_poly_recurrence`)
that gives the whole table of epochs 0..total_epochs in O(total_epochs);
the value at epoch t is the table's term t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import LR_FINAL, LR_INIT, LR_MAX, POLY_LR0, POLY_POWER, TOTAL_EPOCHS, UP_EPOCHS


@dataclass(frozen=True)
class ScheduleParams:
    total_epochs: int = TOTAL_EPOCHS
    up_epochs: int = UP_EPOCHS
    lr_init: float = LR_INIT
    lr_max: float = LR_MAX
    lr_final: float = LR_FINAL
    poly_power: float = POLY_POWER
    poly_lr0: float = POLY_LR0

    def __post_init__(self):
        if not 0 < self.up_epochs < self.total_epochs:
            raise ValueError("need 0 < up_epochs < total_epochs")
        if not self.lr_final < self.lr_init < self.lr_max:
            raise ValueError("need lr_final < lr_init < lr_max")
        if not self.poly_power >= 0:  # 0.0 ** power at the last epoch
            raise ValueError("need poly_power >= 0")


def _check_epoch(epoch, params: ScheduleParams) -> None:
    if not 0 <= epoch <= params.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {params.total_epochs}]")


def lr_poly_recurrence(params: ScheduleParams = ScheduleParams()) -> list[float]:
    """Learning rates of epochs 0..total_epochs under the literal recurrence
    lr_t = lr_{t-1} * (1 - t/total)^power, lr_0 = poly_lr0, as one running
    product."""
    lr = params.poly_lr0
    out = [lr]
    for t in range(1, params.total_epochs + 1):
        lr *= (1.0 - t / params.total_epochs) ** params.poly_power
        out.append(lr)
    return out


def lr_poly(epoch, params: ScheduleParams = ScheduleParams()) -> float:
    """Polynomial decay from poly_lr0 to 0 over total_epochs, in the closed
    form lr0 * (1 - epoch/total)^power. The literal recurrence
    (`lr_poly_recurrence`) decays far faster.
    """
    _check_epoch(epoch, params)
    return params.poly_lr0 * (1.0 - epoch / params.total_epochs) ** params.poly_power


def lr_one_cycle(epoch, params: ScheduleParams = ScheduleParams()) -> float:
    """Single cosine ramp lr_init -> lr_max over up_epochs, then a cosine
    decay lr_max -> lr_final over the remaining epochs.

    Both phases are convex combinations in the cosine weight, so the
    endpoints and the junction at up_epochs are exact.
    """
    _check_epoch(epoch, params)
    if epoch <= params.up_epochs:
        w = (1.0 - math.cos(math.pi * epoch / params.up_epochs)) / 2.0
        return params.lr_init * (1.0 - w) + params.lr_max * w
    down = params.total_epochs - params.up_epochs
    w = (1.0 + math.cos(math.pi * (epoch - params.up_epochs) / down)) / 2.0
    return params.lr_final * (1.0 - w) + params.lr_max * w
