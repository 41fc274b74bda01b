"""`bfx lr`: a learning-rate schedule as CSV; loads no numpy."""

import os

from .. import fileio, schedules


def run(cfg: dict):
    sched = schedules.ScheduleParams(cfg["total_epochs"], cfg["up_epochs"], cfg["lr_init"],
                                     cfg["lr_max"], cfg["lr_final"], cfg["poly_power"],
                                     cfg["poly_lr0"])
    epochs = range(cfg["total_epochs"] + 1)
    if cfg["schedule"] == "onecycle":
        lrs = [schedules.lr_one_cycle(epoch, sched) for epoch in epochs]
    elif cfg["poly_recursive"]:  # one running product, not one product per epoch
        lrs = schedules.lr_poly_recurrence(sched)
    else:
        lrs = [schedules.lr_poly(epoch, sched) for epoch in epochs]
    lines = ["epoch,lr", *(f"{epoch},{lr!r}" for epoch, lr in zip(epochs, lrs))]
    fileio.atomic_write_text(cfg["out"], "\n".join(lines) + "\n")
    return [], os.path.splitext(cfg["out"])[0]
