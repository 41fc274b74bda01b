"""`bfx eval`: object-level scoring of predictions against ground truth."""

import os

from .. import evaluate, extract, fileio, formats
from ..cli import _canonical_json, _pool_map, _read_json


def _load_instance_map(path: str):
    if path.endswith(".imap"):
        return formats.read_imap(path)
    return evaluate.rasterize_polygon_set(extract.polygon_set_from_geojson(_read_json(path)))


def _eval_pairs(pred: str, gt: str) -> list[tuple[str, str, str]]:
    if os.path.isdir(pred) != os.path.isdir(gt):
        raise ValueError("eval: --pred and --gt must both be files or both directories")
    if not os.path.isdir(pred):
        image_id = os.path.splitext(os.path.basename(pred))[0]
        return [(image_id, pred, gt)]
    # bare .json is accepted as a single-file GeoJSON input but not scanned in
    # directory mode, where it would collide with the run sidecars
    known = (".imap", ".geojson")

    def stems(d):
        out = {}
        for name in os.listdir(d):
            stem, ext = os.path.splitext(name)
            if ext in known:
                if stem in out:  # listdir order would pick the winner
                    raise ValueError(f"eval: image id {stem!r} has both an IMAP and a GeoJSON file in {d}")
                out[stem] = os.path.join(d, name)
        return out

    pred_stems = stems(pred)
    gt_stems = stems(gt)
    if set(pred_stems) != set(gt_stems):
        missing = set(pred_stems) ^ set(gt_stems)
        raise ValueError(f"eval: unpaired image ids across directories: {sorted(missing)}")
    if not pred_stems:
        raise ValueError("eval: no evaluable files found")
    return [(s, pred_stems[s], gt_stems[s]) for s in sorted(pred_stems)]


def run(cfg: dict):
    pairs = _eval_pairs(cfg["pred"], cfg["gt"])
    directory_mode = os.path.isdir(cfg["pred"])
    inputs = [p for _, p, _ in pairs] + [g for _, _, g in pairs]

    def work(item):
        image_id, pred_path, gt_path = item
        try:
            pred_map = _load_instance_map(pred_path)
            gt_map = _load_instance_map(gt_path)
            match = evaluate.match_instances(pred_map, gt_map, cfg["iou"])
        except ValueError as exc:  # which pair of a directory was refused
            raise ValueError(f"eval: image {image_id!r}: {exc}") from None
        # both maps are uint32 and `match` has just checked their labels
        rgb = evaluate._color_map(pred_map, gt_map, match) if cfg["colormap"] else None
        return image_id, match.counts, rgb

    results = _pool_map(work, pairs, cfg["threads"])
    rows = [(image_id, counts) for image_id, counts, _ in results]

    if cfg["colormap"]:
        if directory_mode:
            fileio.make_dirs(cfg["colormap"])
            for image_id, _, rgb in results:
                formats.write_ppm(os.path.join(cfg["colormap"], f"{image_id}.ppm"), rgb)
        else:
            formats.write_ppm(cfg["colormap"], results[0][2])
    if cfg["csv"]:
        fileio.atomic_write_text(cfg["csv"], evaluate.export_per_image_csv(rows))
    if cfg["report"]:
        total, f1 = evaluate.aggregate_global([c for _, c in rows])
        report = {
            "per_image": [{"image_id": i, "tp": c.tp, "fp": c.fp, "fn": c.fn} for i, c in rows],
            "global": {"tp": total.tp, "fp": total.fp, "fn": total.fn},
            "f1_percent": f1,
        }
        fileio.atomic_write_text(cfg["report"], _canonical_json(report))

    primary = cfg["report"] or cfg["csv"] or cfg["colormap"]
    stem = primary if directory_mode and primary == cfg["colormap"] else os.path.splitext(primary)[0]
    return inputs, stem
