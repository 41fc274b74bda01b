"""`bfx fuse`: average fold probability maps, or their test-time views,
then binarize each channel."""

import os

from .. import formats, fusion
from ..cli import _pool_map

VIEW_SUFFIXES = (("identity", "id"), ("hflip", "hf"), ("vflip", "vf"), ("rot180", "r180"))


def run(cfg: dict):
    if cfg["tta"]:
        folds = []
        for prefix in cfg["inputs"]:
            stem, ext = os.path.splitext(prefix)
            folds.append({view: f"{stem}.{suffix}{ext}" for view, suffix in VIEW_SUFFIXES})

        def fold(paths):  # one reused buffer per fold (see fusion.tta_average_stream)
            return fusion.tta_average_stream(lambda view, buf: formats.read_pmap(paths[view], out=buf))

        per_fold = _pool_map(fold, folds, cfg["threads"])
        inputs = [path for paths in folds for path in paths.values()]
    else:
        inputs = list(cfg["inputs"])
        per_fold = [formats.read_pmap(p) for p in inputs]
    fused = fusion.ensemble_average(per_fold)

    # nothing is written until every input has been read and fused
    formats.write_pmap(cfg["out"], fused)
    stem = os.path.splitext(cfg["out"])[0]
    names = formats.CHANNEL_NAMES
    for i in range(fused.shape[0]):
        name = names[i] if i < len(names) else f"ch{i}"
        formats.write_pgm(f"{stem}.{name}.pgm", fusion.binarize(fused, i, cfg["threshold"]))
    return inputs, stem
