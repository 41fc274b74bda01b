"""Pipeline driver tying the stages together.

Subcommands: targets, fuse, extract, eval, tile, split, lossmath, lr,
cutmix. Every stage resolves its configuration as flags over config-file
values over defaults, validates ranges, and echoes the effective config to
a JSON sidecar next to its outputs together with a run manifest (inputs,
outputs, config hash). Writes are atomic and are committed (renamed into
place) only once the whole call, sidecars included, has succeeded, so a
failed run leaves no partial artifacts and no directory it made; a rename
that fails partway may leave the files renamed before it (exit 2). The
manifest's outputs are the files the commit logged, in write order: a
runner returns its inputs and the sidecars' stem, not a list of outputs.
A path parameter holding a NUL byte, two writes of one call to one file,
or a write over one of the call's inputs, its `--config` file among them
(but `split` rewriting its own index), is refused (exit 1) and nothing is
written.

Exit status: 0 on success, 1 on validation/usage errors, 2 on I/O errors.

This module is the CLI core: the parameter table, the parser, the config
merge, the sidecars, the thread pool and `main`. Each stage's runner is a
module of `bfx.stages`, which `main` imports for the stage it runs.

Paths in sidecars are stored relative to the sidecar's directory, and the
config hash covers only result-affecting parameters (never paths or the
thread count), so reruns of the same computation produce byte-identical
artifacts regardless of where they are written or how wide the pool is.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import sys
from importlib import import_module
from typing import Callable, NamedTuple

# A call compiles and loads only its own stage's runner and library modules,
# numpy among them: parsing, configs, sidecars and the stages without arrays
# (`tile`, `split`, `lr`) run on the stdlib alone.
from . import (BORDER_WIDTH, FOLDS, GRADCHECK_STEP, IOU_THRESHOLD, LOSS_BETA, LOSS_CLAMP, LOSS_EPS,
               LOSS_GAMMA1, LOSS_GAMMA2, LR_FINAL, LR_INIT, LR_MAX, MIN_AREA, POLY_LR0, POLY_POWER,
               THRESHOLD, TOTAL_EPOCHS, UP_EPOCHS, W_BORDER, W_BUILDING, W_SPACING, fileio)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems become exit status 1
        raise ValueError(message)


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
            raise ValueError(f"box must hold integers, got {value!r}")
    else:
        parts = str(value).split(",")
    if len(parts) != 4:
        raise ValueError(f"box must be r0,c0,r1,c1, got {value!r}")
    try:
        return [int(p) for p in parts]
    except (TypeError, ValueError):
        raise ValueError(f"box must hold integers, got {value!r}") from None


# shared by every stage; never echoed to sidecars or hashed
THREADS = Param("threads", int, check=lambda v: v >= 1,
                help="worker threads for fuse --tta (folds), eval (image pairs) and "
                     "lossmath total (channels); other stages make one item at a time; "
                     "results never depend on it")

# stage -> (help, parameters); None defaults mark "unset", and a default the
# library shares is the package's constant (see `bfx`)
STAGES: dict[str, tuple[str, tuple[Param, ...]]] = {
    "targets": ("generate ground-truth channels from annotations", (
        Param("annotations", required=True, path=True, help="annotation JSON or GeoJSON"),
        Param("out_dir", required=True, path=True),
        Param("height", int, 512, check=lambda v: v >= 1),
        Param("width", int, 512, check=lambda v: v >= 1),
        Param("format", str, "pgm", choices=("pgm", "pmap")),
        Param("erosion_iterations", int, BORDER_WIDTH, check=lambda v: v >= 0,
              help="border width k in pixels: a ring's border is its fill minus that fill "
                   "eroded by a (2k+1)-pixel square"),
    )),
    "fuse": ("average probability maps and binarize", (
        Param("inputs", list, required=True, path=True, flag="inputs",
              help="PMAP1 files (or fold prefixes with --tta)"),
        Param("out", required=True, path=True, help="fused PMAP1 path"),
        Param("threshold", float, THRESHOLD, check=lambda v: 0.0 <= v <= 1.0),
        Param("tta", bool, False,
              help="expect 4 views per fold: .id/.hf/.vf/.r180 before the extension"),
    )),
    "extract": ("vectorize instances from fused masks", (
        Param("mode", str, "multi", choices=("single", "multi")),
        Param("input", path=True, flag="--in", help="PMAP1 stack (or building PGM in single mode)"),
        Param("building", path=True, help="building PGM (multi mode without a PMAP)"),
        Param("border", path=True, help="border PGM"),
        Param("spacing", path=True, help="spacing PGM"),
        Param("threshold", float, THRESHOLD, check=lambda v: 0.0 <= v <= 1.0),
        Param("min_area", int, MIN_AREA, check=lambda v: v >= 0),
        Param("no_spacing", bool, False, help="ignore the spacing channel during extraction"),
        Param("image_id"),
        Param("out_geojson", required=True, path=True),
        Param("out_imap", required=True, path=True),
    )),
    "eval": ("object-level scoring of predictions against ground truth", (
        Param("pred", required=True, path=True, help="GeoJSON or IMAP1 file, or a directory of them"),
        Param("gt", required=True, path=True, help="GeoJSON or IMAP1 file, or a directory of them"),
        Param("iou", float, IOU_THRESHOLD, check=lambda v: 0.0 <= v <= 1.0),
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
        Param("k", int, FOLDS, check=lambda v: v >= 2),
        Param("out", path=True, help="output path (default: rewrite --index)"),
    )),
    "lossmath": ("loss values and gradient checks on file pairs", (
        Param("op", required=True, flag="op",
              choices=("dice", "bce", "channel", "total", "gradcheck")),
        Param("pred", required=True, path=True, help="prediction PMAP1"),
        Param("gt", list, required=True, path=True,
              help="ground-truth PGM(s), one per channel for 'total'"),
        Param("channel", int, 0, check=lambda v: v >= 0),
        Param("beta", float, LOSS_BETA, check=lambda v: v >= 0),
        Param("eps", float, LOSS_EPS, check=lambda v: v > 0),
        Param("gamma1", float, LOSS_GAMMA1),
        Param("gamma2", float, LOSS_GAMMA2),
        Param("clamp", float, LOSS_CLAMP, check=lambda v: 0.0 < v < 0.5),
        Param("w_building", float, W_BUILDING),
        Param("w_border", float, W_BORDER),
        Param("w_spacing", float, W_SPACING),
        Param("step", float, GRADCHECK_STEP, check=lambda v: v > 0,
              help="finite-difference step for gradcheck. A pixel whose prediction lies d from "
                   "the wrong end (p = d on a target pixel, 1 - d off it) reads about "
                   "step^2 / (3 d^2): at 1e-5, d below 6e-4 reads above 1e-4, and uniform "
                   "random planes of 40x40 or more often hold such a pixel"),
    )),
    "lr": ("dump a learning-rate schedule as CSV", (
        Param("schedule", required=True, choices=("poly", "onecycle")),
        Param("out", required=True, path=True),
        # the schedule is built in memory, ~100 bytes an epoch
        Param("total_epochs", int, TOTAL_EPOCHS, check=lambda v: 2 <= v <= 10 ** 6),
        Param("up_epochs", int, UP_EPOCHS, check=lambda v: v >= 1),
        Param("lr_init", float, LR_INIT),
        Param("lr_max", float, LR_MAX),
        Param("lr_final", float, LR_FINAL),
        Param("poly_power", float, POLY_POWER),
        Param("poly_lr0", float, POLY_LR0, check=lambda v: v > 0),
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
    """The bfx parser with the subparser of stage `only` alone, or of every
    stage (the default). An argv that starts with the stage's name parses
    the same either way."""
    parser = _Parser(prog="bfx", description="Building-footprint extraction pipeline")
    sub = parser.add_subparsers(dest="stage")
    for stage, (help_text, params) in STAGES.items():
        if only is not None and stage != only:
            continue
        s = sub.add_parser(stage, help=help_text)
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
    """The JSON document in `path`. Text that is not UTF-8, does not parse
    or is nested too deeply to parse is a validation error that names the
    file, not a traceback."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError among them
            raise ValueError(f"{path}: {exc}") from None


def effective_config(stage: str, args: argparse.Namespace) -> dict:
    """Merge defaults <- config file <- explicit flags, then validate."""
    params = {p.name: p for p in (THREADS, *STAGES[stage][1])}
    cfg = {name: p.default for name, p in params.items()}
    if args.config is not None:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in doc.items():
            k = key.replace("-", "_")
            if k not in params:
                raise ValueError(f"unknown config key {key!r} for stage {stage!r}")
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
        raise ValueError(message)


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
            raise ValueError(f"{stage}: parameter {p.name} must be finite") from None
        # NaN passes every range check, and neither NaN nor inf is valid JSON in a sidecar
        _require(p.type is not float or math.isfinite(value),
                 f"{stage}: parameter {p.name} must be finite, got {value!r}")
    else:  # a converter such as _parse_box
        value = p.type(value)
    # an os call would refuse it only once the call's work has begun (a path, or a list of them)
    _require(not p.path or "\x00" not in "".join(value),
             f"{stage}: parameter {p.name} must not hold a NUL byte")
    _require(p.choices is None or value in p.choices,
             f"{stage}: parameter {p.name}={value!r} is not one of {', '.join(p.choices or ())}")
    _require(p.check is None or p.check(value), f"{stage}: parameter {p.name}={value!r} out of range")
    return value


def _validate(stage: str, cfg: dict) -> None:
    """Rules that span more than one parameter."""
    if stage == "targets":  # before the annotations are read: no canvas is allocated
        _require(cfg["height"] * cfg["width"] <= fileio.MAX_CANVAS_PIXELS,
                 f"targets: canvas {cfg['height']}x{cfg['width']} is over {fileio.MAX_CANVAS_PIXELS} pixels")
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


def _finish_run(stage: str, cfg: dict, inputs: list[str], outputs: list[str], stem: str) -> None:
    """Write the effective-config sidecar and the run manifest at `stem`."""
    import hashlib  # here, not at the top: a call that writes no sidecar loads no OpenSSL

    base_dir = os.path.dirname(os.path.abspath(stem)) or "."

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

    config_path = stem + ".config.json"
    manifest_path = stem + ".manifest.json"
    fileio.atomic_write_text(config_path, _canonical_json(
        {"stage": stage, "config": echo, "config_hash": config_hash}))
    fileio.atomic_write_text(manifest_path, _canonical_json(
        {"stage": stage, "inputs": [rel(p) for p in inputs],
         "outputs": [rel(p) for p in outputs], "config_hash": config_hash}))


def _run(argv: list[str]) -> int:
    """Parse, configure and run one call; returns its exit status."""
    # argparse hands an argv that starts with a stage name, and all the rest
    # of it, to that stage's subparser, so that subparser alone parses it as
    # the full parser would. Any other argv (help, no stage, an unknown one)
    # gets the full parser, whose messages list every stage.
    stage = argv[0] if argv and argv[0] in STAGES else None
    parser = build_parser(stage)
    try:
        args = parser.parse_args(argv)
        if args.stage is None:
            raise ValueError("no stage given (see --help)")
        cfg = effective_config(args.stage, args)
        with fileio.staged_commit() as commit:  # no artifact appears unless the call succeeds
            inputs, stem = import_module(f"bfx.stages.{args.stage}").run(cfg)
            if stem is not None:  # the outputs: what the runner wrote, before the sidecars
                _finish_run(args.stage, cfg, inputs, [path for _, path in commit.writes], stem)
            commit.inputs = [args.config] if args.config is not None else []
            if args.stage != "split" or (os.path.realpath(cfg["out"] or cfg["index"])
                                         != os.path.realpath(cfg["index"])):
                commit.inputs += inputs
        return 0
    except ValueError as exc:
        print(f"bfx: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bfx: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a limit of the machine, not a fault of the input
        detail = f" ({exc})" if str(exc) else ""
        print(f"bfx: i/o error: out of memory{detail}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run `bfx` on `argv` and return the exit status. Called with no argv,
    as the program (the `bfx` script, `python -m bfx.cli`), it does not
    return: the process ends with the call's exit status."""
    if argv is not None:  # an in-process caller: its process is left as it is
        return _run(list(argv))
    # Loading numpy starts OpenBLAS, which spins up a worker thread per extra
    # CPU; bfx calls no BLAS routine, so a bfx process asks for none. A value
    # the user set is kept.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = _run(sys.argv[1:])
    # Every artifact is written and closed by now. What is left of a normal
    # exit that anyone outside could see is the atexit handlers and the
    # buffered standard streams; the rest frees numpy's and bfx's module
    # graphs object by object, ~6 ms of a call on a 2-vCPU VM, for memory
    # that goes back to the OS with the process anyway.
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, say: what the call printed did not arrive
        print(f"bfx: i/o error: {exc}", file=sys.stderr)
        status = 2
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":  # `python -m bfx.cli`: run the `bfx.cli` module the runners import
    from bfx.cli import main as _main

    _main()
