"""Pipeline driver tying the stages together.

Subcommands: targets, fuse, extract, eval, tile, split, lossmath, lr,
cutmix. Every stage resolves its configuration as flags over config-file
values over defaults, validates ranges, and echoes the effective config to
a JSON sidecar next to its outputs together with a run manifest (inputs,
outputs, config hash). Writes are atomic, so a failed run leaves no
partial artifacts.

Exit status: 0 on success, 1 on validation/usage errors, 2 on I/O errors.

Paths in sidecars are stored relative to the sidecar's directory, and the
config hash covers only result-affecting parameters (never paths or the
thread count), so reruns of the same computation produce byte-identical
artifacts regardless of where they are written or how wide the pool is.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple

# Each stage runner imports the modules it needs, so a call loads only its
# stage. numpy is one of them: parsing, configs, sidecars and the stages
# without arrays (`split`, `lr`) run on the stdlib alone.
from . import fileio

VIEW_SUFFIXES = (("identity", "id"), ("hflip", "hf"), ("vflip", "vf"), ("rot180", "r180"))


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems become exit status 1
        raise ValidationError(message)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """One stage parameter: its flag, config key, default and checks.

    `type` is bool (a store-true flag), int, float, str, list (paths, one
    or more) or a converter applied to flag strings and config values
    alike. `flag` defaults to the dashed name; one without dashes is a
    positional. Path parameters are relativized in sidecars and left out
    of the config hash.
    """

    name: str
    type: Callable = str
    default: object = None
    required: bool = False
    path: bool = False
    check: Callable | None = None
    choices: tuple | None = None
    flag: str | None = None
    help: str | None = None


def _parse_box(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        parts = list(value)
        # config-file lists: exact ints only, as for int parameters (no bool, no float)
        if not all(type(p) is int for p in parts):
            raise ValidationError(f"box must hold integers, got {value!r}")
    else:
        parts = str(value).split(",")
    if len(parts) != 4:
        raise ValidationError(f"box must be r0,c0,r1,c1, got {value!r}")
    try:
        return [int(p) for p in parts]
    except (TypeError, ValueError):
        raise ValidationError(f"box must hold integers, got {value!r}") from None


# shared by every stage; never echoed to sidecars or hashed
THREADS = Param("threads", int, check=lambda v: v >= 1,
                help="worker pool size (results never depend on it)")

# stage -> (help, parameters); None defaults mark "unset"
STAGES: dict[str, tuple[str, tuple[Param, ...]]] = {
    "targets": ("generate ground-truth channels from annotations", (
        Param("annotations", required=True, path=True, help="annotation JSON or GeoJSON"),
        Param("out_dir", required=True, path=True),
        Param("height", int, 512, check=lambda v: v >= 1),
        Param("width", int, 512, check=lambda v: v >= 1),
        Param("format", str, "pgm", choices=("pgm", "pmap")),
        Param("erosion_iterations", int, 2, check=lambda v: v >= 0),
    )),
    "fuse": ("average probability maps and binarize", (
        Param("inputs", list, required=True, path=True, flag="inputs",
              help="PMAP1 files (or fold prefixes with --tta)"),
        Param("out", required=True, path=True, help="fused PMAP1 path"),
        Param("threshold", float, 0.3, check=lambda v: 0.0 <= v <= 1.0),
        Param("tta", bool, False,
              help="expect 4 views per fold: .id/.hf/.vf/.r180 before the extension"),
    )),
    "extract": ("vectorize instances from fused masks", (
        Param("mode", str, "multi", choices=("single", "multi")),
        Param("input", path=True, flag="--in", help="PMAP1 stack (or building PGM in single mode)"),
        Param("building", path=True, help="building PGM (multi mode without a PMAP)"),
        Param("border", path=True, help="border PGM"),
        Param("spacing", path=True, help="spacing PGM"),
        Param("threshold", float, 0.3, check=lambda v: 0.0 <= v <= 1.0),
        Param("min_area", int, 140, check=lambda v: v >= 0),
        Param("no_spacing", bool, False, help="ignore the spacing channel during extraction"),
        Param("image_id"),
        Param("out_geojson", required=True, path=True),
        Param("out_imap", required=True, path=True),
    )),
    "eval": ("object-level scoring of predictions against ground truth", (
        Param("pred", required=True, path=True, help="GeoJSON or IMAP1 file, or a directory of them"),
        Param("gt", required=True, path=True, help="GeoJSON or IMAP1 file, or a directory of them"),
        Param("iou", float, 0.5, check=lambda v: 0.0 <= v <= 1.0),
        Param("colormap", path=True, help="output PPM (directory inputs: a directory)"),
        Param("csv", path=True, help="per-image counts CSV"),
        Param("report", path=True, help="JSON report"),
    )),
    "tile": ("index a source raster into fixed-size tiles", (
        Param("raster", required=True, path=True, help="source PGM raster"),
        Param("size", int, 1024, check=lambda v: v >= 1),
        Param("nodata", int, 0, check=lambda v: 0 <= v <= 255),
        Param("index", required=True, path=True, help="output tile-index JSON"),
    )),
    "split": ("assign k folds to a tile index", (
        Param("index", required=True, path=True, help="tile-index JSON to read"),
        Param("k", int, 5, check=lambda v: v >= 2),
        Param("out", path=True, help="output path (default: rewrite --index)"),
    )),
    "lossmath": ("loss values and gradient checks on file pairs", (
        Param("op", required=True, flag="op",
              choices=("dice", "bce", "channel", "total", "gradcheck")),
        Param("pred", required=True, path=True, help="prediction PMAP1"),
        Param("gt", list, required=True, path=True,
              help="ground-truth PGM(s), one per channel for 'total'"),
        Param("channel", int, 0, check=lambda v: v >= 0),
        Param("beta", float, 1.0, check=lambda v: v >= 0),
        Param("eps", float, 1e-4, check=lambda v: v > 0),
        Param("gamma1", float, 0.5),
        Param("gamma2", float, 0.5),
        Param("clamp", float, 1e-7, check=lambda v: 0.0 < v < 0.5),
        Param("w_building", float, 1.0),
        Param("w_border", float, 2.0),
        Param("w_spacing", float, 2.0),
        Param("step", float, 1e-5, check=lambda v: v > 0,
              help="finite-difference step for gradcheck. A pixel whose prediction lies d from "
                   "the wrong end (p = d on a target pixel, 1 - d off it) reads about "
                   "step^2 / (3 d^2): at 1e-5, d below 6e-4 reads above 1e-4, and uniform "
                   "random planes of 40x40 or more often hold such a pixel"),
    )),
    "lr": ("dump a learning-rate schedule as CSV", (
        Param("schedule", required=True, choices=("poly", "onecycle")),
        Param("out", required=True, path=True),
        Param("total_epochs", int, 100, check=lambda v: v >= 2),
        Param("up_epochs", int, 40, check=lambda v: v >= 1),
        Param("lr_init", float, 0.0001 / 20),
        Param("lr_max", float, 0.0001),
        Param("lr_final", float, (0.0001 / 20) / 1000),
        Param("poly_power", float, 0.9),
        Param("poly_lr0", float, 0.001, check=lambda v: v > 0),
        Param("poly_recursive", bool, False,
              help="use the literal per-epoch recurrence instead of the closed form"),
    )),
    "cutmix": ("paste a box from sample B into sample A", (
        Param("image_a", required=True, path=True, help="PMAP1 image raster"),
        Param("masks_a", required=True, path=True, help="3-channel PMAP1 target stack"),
        Param("image_b", required=True, path=True),
        Param("masks_b", required=True, path=True),
        Param("seed", int, check=lambda v: v >= 0, help="RNG seed (required unless --box is given)"),
        Param("box", _parse_box, help="explicit half-open box r0,c0,r1,c1"),
        Param("out_image", required=True, path=True),
        Param("out_masks", required=True, path=True),
    )),
}


def _flag(p: Param) -> str:
    return p.flag or "--" + p.name.replace("_", "-")


def build_parser(only: str | None = None) -> _Parser:
    """The bfx parser: a subparser for every stage, so the stage list, the
    top-level help and an unknown stage read the same whatever is built,
    with the arguments of stage `only` alone (default: of every stage)."""
    parser = _Parser(prog="bfx", description="Building-footprint extraction pipeline")
    sub = parser.add_subparsers(dest="stage")
    for stage, (help_text, params) in STAGES.items():
        s = sub.add_parser(stage, help=help_text)
        if only is not None and stage != only:
            continue
        s.add_argument("--config", help="JSON config file; flags override its values")
        for p in (THREADS, *params):
            positional = not _flag(p).startswith("-")
            kw = {"help": p.help} if positional else {"dest": p.name, "help": p.help}
            if p.type is bool:
                kw.update(action="store_true", default=None)
            elif p.type is list:
                kw["nargs"] = "*" if positional else "+"
            elif positional:
                kw["nargs"] = "?"
            if p.type in (int, float):
                kw["type"] = p.type
            if p.choices:
                kw["choices"] = p.choices
            s.add_argument(_flag(p), **kw)
    return parser


def _read_json(path: str):
    """The JSON document in `path`; one nested too deeply to parse is a
    validation error, not a traceback."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None


def effective_config(stage: str, args: argparse.Namespace) -> dict:
    """Merge defaults <- config file <- explicit flags, then validate."""
    params = {p.name: p for p in (THREADS, *STAGES[stage][1])}
    cfg = {name: p.default for name, p in params.items()}
    if args.config is not None:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in doc.items():
            k = key.replace("-", "_")
            if k not in params:
                raise ValidationError(f"unknown config key {key!r} for stage {stage!r}")
            cfg[k] = value
    for name in params:
        value = getattr(args, name)
        if value is not None and value != []:
            cfg[name] = value
    for name, p in params.items():
        cfg[name] = _checked(stage, p, cfg[name])
    _validate(stage, cfg)
    return cfg


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _checked(stage: str, p: Param, value):
    """Type-, choice- and range-check one merged value; returns it normalized."""
    if value is None:
        _require(not p.required, f"{stage}: missing required parameter {_flag(p)}")
        _require(p.default is None, f"{stage}: parameter {p.name} must not be null")
        return None
    if p.type is list:  # multi-valued paths also arrive as one string from config files
        value = [value] if isinstance(value, str) else value
        _require(isinstance(value, list) and all(isinstance(v, str) for v in value),
                 f"{stage}: {p.name} must be a path or list of paths")
    elif isinstance(p.type, type):
        # bool is an int subclass and JSON has no int/float split: compare exact types
        _require(type(value) is p.type or (p.type is float and type(value) is int),
                 f"{stage}: parameter {p.name} must be {p.type.__name__}, got {value!r}")
        try:
            value = p.type(value)
        except OverflowError:  # a config-file integer past the float range
            raise ValidationError(f"{stage}: parameter {p.name} must be finite") from None
        # NaN passes every range check, and neither NaN nor inf is valid JSON in a sidecar
        _require(p.type is not float or math.isfinite(value),
                 f"{stage}: parameter {p.name} must be finite, got {value!r}")
    else:  # a converter such as _parse_box
        value = p.type(value)
    _require(p.choices is None or value in p.choices,
             f"{stage}: parameter {p.name}={value!r} is not one of {', '.join(p.choices or ())}")
    _require(p.check is None or p.check(value), f"{stage}: parameter {p.name}={value!r} out of range")
    return value


def _validate(stage: str, cfg: dict) -> None:
    """Rules that span more than one parameter."""
    if stage == "cutmix":
        _require(cfg["seed"] is not None or cfg["box"] is not None,
                 "cutmix: --seed is mandatory when no explicit --box is given")
    if stage == "extract":
        if cfg["mode"] == "multi":
            _require(cfg["input"] is not None or (cfg["building"] and cfg["border"]),
                     "extract: multi mode needs --in or --building/--border")
        else:
            _require(cfg["input"] is not None, "extract: single mode needs --in")
    if stage == "eval":
        _require(any(cfg[k] for k in ("colormap", "csv", "report")),
                 "eval: need at least one of --colormap/--csv/--report")
    if stage == "lossmath" and cfg["op"] != "total":
        _require(len(cfg["gt"]) == 1, f"lossmath {cfg['op']}: expected exactly one --gt mask")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _pool_map(fn, items, threads):
    """[fn(x) for x in items] on up to `threads` worker threads (default:
    one per CPU). Results keep the input order. Workers claim items in
    order and stop claiming after a failure, and once all have finished the
    first error in input order is raised, so what fails does not depend on
    the pool width."""
    items = list(items)
    n = threads if threads is not None else (os.cpu_count() or 1)
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import threading

    results = [None] * len(items)
    errors = [None] * len(items)
    lock = threading.Lock()
    claimed = 0
    failed = False

    def work():
        nonlocal claimed, failed
        while True:
            with lock:
                i = claimed
                if i == len(items) or failed:
                    return
                claimed += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised in the calling thread
                errors[i] = exc
                with lock:
                    failed = True

    workers = [threading.Thread(target=work) for _ in range(min(n, len(items)))]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _safe_image_id(image_id: str) -> str:
    if not image_id or any(sep in image_id for sep in ("/", "\\")) or image_id.startswith("."):
        raise ValidationError(f"image id {image_id!r} is not usable as a file stem")
    return image_id


def _finish_run(stage: str, cfg: dict, inputs: list[str], outputs: list[str], primary: str) -> None:
    """Write the effective-config sidecar and the run manifest."""
    base_dir = os.path.dirname(os.path.abspath(primary)) or "."

    def rel(p: str) -> str:
        return os.path.relpath(os.path.abspath(p), base_dir)

    echo = {}
    hashed = {"stage": stage}
    for p in STAGES[stage][1]:
        value = cfg[p.name]
        if p.path and value is not None:
            echo[p.name] = [rel(v) for v in value] if p.type is list else rel(value)
        else:
            echo[p.name] = value
            hashed[p.name] = value
    config_hash = hashlib.sha256(_canonical_json(hashed).encode("utf-8")).hexdigest()

    config_path = primary + ".config.json"
    manifest_path = primary + ".manifest.json"
    fileio.atomic_write_text(config_path, _canonical_json(
        {"stage": stage, "config": echo, "config_hash": config_hash}))
    fileio.atomic_write_text(manifest_path, _canonical_json(
        {"stage": stage, "inputs": [rel(p) for p in inputs],
         "outputs": [rel(p) for p in outputs], "config_hash": config_hash}))


# ---------------------------------------------------------------------------
# stage runners: each returns (inputs, outputs, primary stem or None)
# ---------------------------------------------------------------------------


def run_targets(cfg: dict):
    from . import annotations, formats, targets

    per_image = annotations.ingest_annotations(_read_json(cfg["annotations"]))
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    items = sorted(per_image.items())
    for image_id, _ in items:
        _safe_image_id(image_id)

    def work(item):
        image_id, rings = item
        return image_id, targets.assemble_targets(
            rings, cfg["height"], cfg["width"], cfg["erosion_iterations"])

    outputs = []
    for image_id, stack in _pool_map(work, items, cfg["threads"]):
        if cfg["format"] == "pmap":
            path = os.path.join(out_dir, f"{image_id}.pmap")
            formats.write_pmap(path, stack.to_probmap())
            outputs.append(path)
        else:
            for name, mask in zip(formats.CHANNEL_NAMES, (stack.building, stack.border, stack.spacing)):
                path = os.path.join(out_dir, f"{image_id}.{name}.pgm")
                formats.write_pgm(path, mask)
                outputs.append(path)
    return [cfg["annotations"]], outputs, os.path.join(out_dir, "targets")


def run_fuse(cfg: dict):
    from . import formats, fusion

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
    outputs = [cfg["out"]]
    stem = os.path.splitext(cfg["out"])[0]
    names = formats.CHANNEL_NAMES
    for i in range(fused.shape[0]):
        name = names[i] if i < len(names) else f"ch{i}"
        path = f"{stem}.{name}.pgm"
        formats.write_pgm(path, fusion.binarize(fused, i, cfg["threshold"]))
        outputs.append(path)
    return inputs, outputs, stem


def run_extract(cfg: dict):
    import numpy as np

    from . import extract, formats, fusion

    inputs = []
    if cfg["input"] is not None:
        inputs.append(cfg["input"])
        if cfg["input"].endswith(".pgm"):
            _require(cfg["mode"] == "single", "extract: PGM input is only valid in single mode")
            stack = formats.read_pgm(cfg["input"]).astype(np.float32)[None]
        else:
            stack = formats.read_pmap(cfg["input"])
        default_id = os.path.splitext(os.path.basename(cfg["input"]))[0]
    else:
        planes = [formats.read_pgm(cfg["building"]), formats.read_pgm(cfg["border"])]
        inputs += [cfg["building"], cfg["border"]]
        if cfg["spacing"]:
            planes.append(formats.read_pgm(cfg["spacing"]))
            inputs.append(cfg["spacing"])
        stack = np.stack([p.astype(np.float32) for p in planes])
        default_id = os.path.splitext(os.path.basename(cfg["building"]))[0]
    image_id = cfg["image_id"] if cfg["image_id"] is not None else default_id

    if cfg["mode"] == "single":
        building = fusion.binarize(stack, 0, cfg["threshold"])
        labels = extract.single_class_instances(building, cfg["min_area"])
    else:
        labels = extract.multi_class_instances(
            stack, cfg["threshold"], cfg["min_area"], use_spacing=not cfg["no_spacing"])
    ps = extract.polygonize(labels, image_id)

    fileio.atomic_write_text(cfg["out_geojson"], _canonical_json(extract.polygon_set_to_geojson(ps)))
    formats.write_imap(cfg["out_imap"], labels)
    outputs = [cfg["out_geojson"], cfg["out_imap"]]
    return inputs, outputs, os.path.splitext(cfg["out_geojson"])[0]


def _load_instance_map(path: str):
    from . import evaluate, extract, formats

    if path.endswith(".imap"):
        return formats.read_imap(path)
    return evaluate.rasterize_polygon_set(extract.polygon_set_from_geojson(_read_json(path)))


def _eval_pairs(pred: str, gt: str) -> list[tuple[str, str, str]]:
    if os.path.isdir(pred) != os.path.isdir(gt):
        raise ValidationError("eval: --pred and --gt must both be files or both directories")
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
                    raise ValidationError(
                        f"eval: image id {stem!r} has both an IMAP and a GeoJSON file in {d}")
                out[stem] = os.path.join(d, name)
        return out

    pred_stems = stems(pred)
    gt_stems = stems(gt)
    if set(pred_stems) != set(gt_stems):
        missing = set(pred_stems) ^ set(gt_stems)
        raise ValidationError(f"eval: unpaired image ids across directories: {sorted(missing)}")
    if not pred_stems:
        raise ValidationError("eval: no evaluable files found")
    return [(s, pred_stems[s], gt_stems[s]) for s in sorted(pred_stems)]


def run_eval(cfg: dict):
    from . import evaluate, formats

    pairs = _eval_pairs(cfg["pred"], cfg["gt"])
    directory_mode = os.path.isdir(cfg["pred"])
    inputs = [p for _, p, _ in pairs] + [g for _, _, g in pairs]
    outputs = []

    def work(item):
        image_id, pred_path, gt_path = item
        pred_map = _load_instance_map(pred_path)
        gt_map = _load_instance_map(gt_path)
        match = evaluate.match_instances(pred_map, gt_map, cfg["iou"])
        # both maps are uint32 and `match` has just checked their labels
        rgb = evaluate._color_map(pred_map, gt_map, match) if cfg["colormap"] else None
        return image_id, match.counts, rgb

    results = _pool_map(work, pairs, cfg["threads"])
    rows = [(image_id, counts) for image_id, counts, _ in results]

    if cfg["colormap"]:
        if directory_mode:
            os.makedirs(cfg["colormap"], exist_ok=True)
            for image_id, _, rgb in results:
                path = os.path.join(cfg["colormap"], f"{image_id}.ppm")
                formats.write_ppm(path, rgb)
                outputs.append(path)
        else:
            formats.write_ppm(cfg["colormap"], results[0][2])
            outputs.append(cfg["colormap"])
    if cfg["csv"]:
        fileio.atomic_write_text(cfg["csv"], evaluate.export_per_image_csv(rows))
        outputs.append(cfg["csv"])
    if cfg["report"]:
        total, f1 = evaluate.aggregate_global([c for _, c in rows])
        report = {
            "per_image": [{"image_id": i, "tp": c.tp, "fp": c.fp, "fn": c.fn} for i, c in rows],
            "global": {"tp": total.tp, "fp": total.fp, "fn": total.fn},
            "f1_percent": f1,
        }
        fileio.atomic_write_text(cfg["report"], _canonical_json(report))
        outputs.append(cfg["report"])

    primary = cfg["report"] or cfg["csv"] or cfg["colormap"]
    stem = primary if directory_mode and primary == cfg["colormap"] else os.path.splitext(primary)[0]
    return inputs, outputs, stem


def run_tile(cfg: dict):
    from . import formats, tiling

    values = formats.read_pgm_raw(cfg["raster"])
    h, w = values.shape
    size = cfg["size"]
    nodata = cfg["nodata"]

    def probe(rec):
        r0, c0 = rec.origin
        return (values[r0:r0 + size, c0:c0 + size] == nodata).all()

    records = tiling.tile_index(h, w, size, probe)
    fileio.atomic_write_text(cfg["index"], _canonical_json([r.to_json() for r in records]))
    return [cfg["raster"]], [cfg["index"]], os.path.splitext(cfg["index"])[0]


def run_split(cfg: dict):
    from . import tiling

    doc = _read_json(cfg["index"])
    if not isinstance(doc, list):
        raise ValidationError("tile index must be a JSON array of records")
    records = []
    for i, obj in enumerate(doc):  # named by index: a record's repr can be arbitrarily long
        try:
            records.append(tiling.TileRecord.from_json(obj, size=0))
        except ValueError as exc:
            raise ValidationError(f"{cfg['index']}: entry {i}: {exc}") from None
    assigned = tiling.kfold_assign(records, cfg["k"])
    out = cfg["out"] or cfg["index"]
    fileio.atomic_write_text(out, _canonical_json([r.to_json() for r in assigned]))
    return [cfg["index"]], [out], os.path.splitext(out)[0]


def run_lossmath(cfg: dict):
    from . import formats, trainmath

    params = trainmath.LossParams(cfg["beta"], cfg["eps"], cfg["gamma1"], cfg["gamma2"], cfg["clamp"])
    pred = formats.read_pmap(cfg["pred"])
    gts = [formats.read_pgm(p) for p in cfg["gt"]]
    op = cfg["op"]
    if op == "total":
        _require(len(gts) == pred.shape[0],
                 f"lossmath total: {pred.shape[0]} channels but {len(gts)} --gt masks")
        _require(pred.shape[0] == 3, "lossmath total: expected a 3-channel stack")
        weights = trainmath.ChannelWeights(cfg["w_building"], cfg["w_border"], cfg["w_spacing"])
        losses = [trainmath.loss_value("channel", pred[i], gts[i], params) for i in range(3)]
        value = trainmath.total_loss(losses, weights)
    else:
        _require(cfg["channel"] < pred.shape[0],
                 f"lossmath: channel {cfg['channel']} out of range for {pred.shape[0]} channels")
        plane = pred[cfg["channel"]]
        if op == "gradcheck":
            value = trainmath.gradient_check(plane, gts[0], params, cfg["step"])
        else:
            value = trainmath.loss_value(op, plane, gts[0], params)
    print(f"{value:.9g}")
    return [cfg["pred"], *cfg["gt"]], [], None


def run_lr(cfg: dict):
    from . import schedules

    sched = schedules.ScheduleParams(cfg["total_epochs"], cfg["up_epochs"], cfg["lr_init"],
                                     cfg["lr_max"], cfg["lr_final"], cfg["poly_power"],
                                     cfg["poly_lr0"])
    epochs = range(cfg["total_epochs"] + 1)
    if cfg["schedule"] == "onecycle":
        lrs = [schedules.lr_one_cycle(epoch, sched) for epoch in epochs]
    elif cfg["poly_recursive"]:  # one running product, not one product per epoch
        lrs = schedules.lr_poly_recurrence(cfg["total_epochs"], sched)
    else:
        lrs = [schedules.lr_poly(epoch, sched) for epoch in epochs]
    lines = ["epoch,lr", *(f"{epoch},{lr!r}" for epoch, lr in zip(epochs, lrs))]
    fileio.atomic_write_text(cfg["out"], "\n".join(lines) + "\n")
    return [], [cfg["out"]], os.path.splitext(cfg["out"])[0]


def run_cutmix(cfg: dict):
    import numpy as np

    from . import formats, trainmath
    from .targets import TargetStack

    image_a = formats.read_pmap(cfg["image_a"])
    masks_a = TargetStack.from_probmap(formats.read_pmap(cfg["masks_a"]))
    image_b = formats.read_pmap(cfg["image_b"])
    masks_b = TargetStack.from_probmap(formats.read_pmap(cfg["masks_b"]))
    if cfg["box"] is not None:
        box = tuple(cfg["box"])
    else:
        h, w = image_a.shape[-2:]
        box = trainmath.sample_cutmix_box(h, w, np.random.default_rng(cfg["seed"]))
    mixed_image, mixed_masks = trainmath.cutmix(image_a, masks_a, image_b, masks_b, box)
    formats.write_pmap(cfg["out_image"], mixed_image)
    formats.write_pmap(cfg["out_masks"], mixed_masks.to_probmap())
    inputs = [cfg["image_a"], cfg["masks_a"], cfg["image_b"], cfg["masks_b"]]
    return inputs, [cfg["out_image"], cfg["out_masks"]], os.path.splitext(cfg["out_image"])[0]


RUNNERS = {
    "targets": run_targets,
    "fuse": run_fuse,
    "extract": run_extract,
    "eval": run_eval,
    "tile": run_tile,
    "split": run_split,
    "lossmath": run_lossmath,
    "lr": run_lr,
    "cutmix": run_cutmix,
}


_exit_hook_registered = False


def main(argv=None) -> int:
    # At exit the interpreter frees numpy's and bfx's module graphs object by
    # object in cyclic-GC passes, ~20 ms of a call on a 2-vCPU VM. Frozen
    # objects are left out of those passes and their memory goes back with
    # the process. atexit runs the newest handler first, so every handler
    # registered before this one still runs, after it; the interpreter still
    # flushes the standard streams; and every artifact is written and closed
    # before main returns. A process that calls main many times registers
    # the hook once (atexit.unregister leaves an empty slot behind), and
    # only its own exit is affected.
    global _exit_hook_registered
    if not _exit_hook_registered:
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    # Loading numpy starts OpenBLAS, which spins up a worker thread per extra
    # CPU; bfx calls no BLAS routine, so a bfx process (argv None: the console
    # script or `python -m bfx.cli`) asks for none. A value the user set is
    # kept, and an in-process caller's environment is left alone.
    if argv is None and "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option values, so its first non-option
    # argument is the stage it dispatches to: only that stage needs arguments
    stage = next((a for a in argv if not a.startswith("-")), None)
    parser = build_parser(stage)
    try:
        args = parser.parse_args(argv)
        if args.stage is None:
            raise ValidationError("no stage given (see --help)")
        cfg = effective_config(args.stage, args)
        inputs, outputs, primary = RUNNERS[args.stage](cfg)
        if primary is not None:
            _finish_run(args.stage, cfg, inputs, outputs, primary)
        return 0
    except ValueError as exc:
        print(f"bfx: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bfx: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
