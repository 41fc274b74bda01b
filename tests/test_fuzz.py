"""Seeded mutation fuzz of every file reader against the CLI's exit contract.

Valid files are truncated, have bytes flipped (half of them in the first
24 bytes) or are spliced onto one another; JSON documents also have one
value replaced by a hostile one (a wrong type, NaN, an infinity, a huge
integer) or removed. Each mutant goes through the stages that read its
format, in process. Every call must exit 0, 1 or 2 with no traceback and no
warning; a loss `lossmath` prints is finite, and a failed call prints one
`bfx: error:` or `bfx: i/o error:` line and leaves no file behind. No stage reads PPM, so its reader is fuzzed
directly: it returns or raises ValueError or OSError.

The parameter table drives a sweep under the same contract: every `int`
and `float` parameter of `cli.STAGES`, in each stage mode whose runner
reads it, is set to each hostile value by flag and by config file, so a
new parameter is covered without editing the tests.
"""

import copy
import importlib
import json
import math
import sys
import warnings

import numpy as np
import pytest

from bfx import cli, extract, formats

MUTANTS = 200  # per format
HEADER = 24  # bytes counted as the header by the flips


def blocks(shape, rects):
    """A {0,1} mask of `shape` holding the given (r0, c0, r1, c1) blocks."""
    m = np.zeros(shape, np.uint8)
    for r0, c0, r1, c1 in rects:
        m[r0:r1, c0:c1] = 1
    return m


def fused_stack(shape, rects):
    """A building/border/spacing stack whose blocks are bordered buildings."""
    building = blocks(shape, rects).astype(np.float32)
    inner = blocks(shape, [(r0 + 1, c0 + 1, r1 - 1, c1 - 1) for r0, c0, r1, c1 in rects])
    border = building - inner
    return np.stack([0.9 * building, 0.8 * border, np.zeros(shape, np.float32)])


def label_map(shape, rects):
    lab = np.zeros(shape, np.uint32)
    for k, (r0, c0, r1, c1) in enumerate(rects, start=1):
        lab[r0:r1, c0:c1] = k
    return lab


RECTS = [[(1, 1, 6, 6), (2, 7, 9, 11)], [(0, 0, 4, 9), (5, 3, 9, 15), (6, 0, 9, 2)]]
SHAPES = [(12, 12), (10, 16)]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid files of each format, as bytes, as its writer makes them."""
    path = tmp_path_factory.mktemp("valid") / "file"

    def written(write, arr):
        write(path, arr)
        return path.read_bytes()

    return {
        "pmap": [written(formats.write_pmap, fused_stack(s, r)) for s, r in zip(SHAPES, RECTS)]
        + [written(formats.write_pmap, fused_stack(SHAPES[0], RECTS[0])[:2])],
        "imap": [written(formats.write_imap, label_map(s, r)) for s, r in zip(SHAPES, RECTS)],
        "pgm": [written(formats.write_pgm, blocks(s, r)) for s, r in zip(SHAPES, RECTS)],
    }


def byte_mutant(rng, data, valid, kind):
    """`data` truncated, with 1-3 bytes flipped, or spliced onto one of `valid`."""
    data = bytearray(data)
    if kind == "truncate":
        data = data[:rng.integers(len(data))]
    elif kind == "flip":
        for _ in range(rng.integers(1, 4)):
            span = min(HEADER, len(data)) if rng.random() < 0.5 else len(data)
            data[rng.integers(span)] ^= rng.integers(1, 256)
    else:  # the head of one valid file onto the tail of another
        other = valid[rng.integers(len(valid))]
        data = data[:rng.integers(len(data) + 1)] + other[rng.integers(len(other) + 1):]
    return bytes(data)


def mutants(valid, seed):
    """(kind, source index, bytes) of `MUTANTS` seeded mutations of the
    valid files."""
    rng = np.random.default_rng(seed)
    for i in range(MUTANTS):
        src = int(rng.integers(len(valid)))
        kind = ("truncate", "flip", "splice")[i % 3]
        yield kind, src, byte_mutant(rng, valid[src], valid, kind)


def stage_calls(fmt, path, out, gt):
    """The calls that read a `fmt` file at `path`, writing under `out`;
    `eval` scores it against the valid instance map `gt`."""
    extract = ["--out-geojson", f"{out}/p.geojson", "--out-imap", f"{out}/p.imap", "--min-area", "2"]
    if fmt == "pmap":
        return [["fuse", path, "--out", f"{out}/f.pmap"], ["extract", "--in", path, *extract]]
    if fmt == "pgm":
        return [["extract", "--mode", "single", "--in", path, *extract]]
    return [["eval", "--pred", path, "--gt", gt, "--report", f"{out}/r.json"]]


def exit_code(capsys, argv, out, where):
    """`cli.main(argv)`'s exit code, once the call has kept the exit contract;
    `out`, the only directory it may write to, is emptied after a success."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # any traceback breaks the contract
            pytest.fail(f"{where} raised {exc!r}")
    stdout, stderr = capsys.readouterr()
    assert not caught, f"{where} warned: {caught[0].message}"
    if code == 0:
        # lossmath prints its value, a finite one; every other stage is silent
        assert stderr == "" and (stdout.count("\n") == 1 and math.isfinite(float(stdout))
                                 if argv[0] == "lossmath" else stdout == ""), where
        for p in out.iterdir():
            p.unlink()
    else:
        assert code in (1, 2) and stdout == "", where
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(("bfx: error:", "bfx: i/o error:")), where
        assert list(out.iterdir()) == [], where
    return code


@pytest.mark.parametrize("fmt,seed", [("pmap", 1), ("imap", 2), ("pgm", 3)])
def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys, valid, fmt, seed):
    gt = tmp_path / "gt.imap"
    gt.write_bytes(valid["imap"][0])
    out = tmp_path / "out"
    out.mkdir()
    path = tmp_path / f"mutant.{fmt}"
    codes = set()
    for i, (kind, _, data) in enumerate(mutants(valid[fmt], seed)):
        path.write_bytes(data)
        for argv in stage_calls(fmt, str(path), str(out), str(gt)):
            codes.add(exit_code(capsys, argv, out, f"{argv[0]} on {kind} mutant {i} of {fmt}"))
    assert {0, 1} <= codes  # the mutations reach both the readers' checks and valid files


# ---------------------------------------------------------------------------
# text inputs: GeoJSON, annotation JSON, config files and tile indexes
# ---------------------------------------------------------------------------

# a mix of wrong types, edge values, values no float holds and a NUL byte no path may hold
HOSTILE = (None, True, False, 0, -1, 2, 4096, 2 ** 70, 0.5, -0.5, 1e308, math.nan, math.inf, -math.inf,
           "", "a", "a\x00b", [], {}, [0, 0], [[0, 0], [4, 0], [4, 4]], {"type": "Polygon"})
# config values stay small: an epoch count of 2**70 is valid and would run for ever
CONFIG_HOSTILE = tuple(v for v in HOSTILE if not (type(v) is int and abs(v) > 4096))


def json_paths(doc, path=()):
    """The path to every value of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def json_mutants(docs, seed, hostile=HOSTILE):
    """(kind, source index, bytes) of `MUTANTS` seeded mutations of JSON
    documents: one value replaced by a hostile one, one value removed, or a
    byte mutation of the document's text."""
    rng = np.random.default_rng(seed)
    texts = [json.dumps(doc).encode() for doc in docs]
    for i in range(MUTANTS):
        src = int(rng.integers(len(docs)))
        kind = ("replace", "remove", "truncate", "flip", "splice")[i % 5]
        if kind in ("replace", "remove"):
            doc = copy.deepcopy(docs[src])
            paths = list(json_paths(doc))
            path = paths[rng.integers(len(paths))]
            value = hostile[rng.integers(len(hostile))]
            if not path:
                doc = value
            else:
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                if kind == "remove":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            yield kind, src, json.dumps(doc).encode()
        else:
            yield kind, src, byte_mutant(rng, texts[src], texts, kind)


def plain_annotations(rects, image_id):
    return {image_id: [{"points": [[c0, r0], [c1, r0], [c1, r1], [c0, r1]]} for r0, c0, r1, c1 in rects]}


def geojson(shape, rects, image_id):
    """The extractor's GeoJSON of the blocks, each feature also naming its
    image, so that `targets` reads it as well as `eval`."""
    doc = extract.polygon_set_to_geojson(extract.polygonize(label_map(shape, rects), image_id))
    for feature in doc["features"]:
        feature["properties"]["image_id"] = image_id
    return doc


GEOJSON = [geojson(s, r, f"img{k}") for k, (s, r) in enumerate(zip(SHAPES, RECTS))]
ANNOTATIONS = [plain_annotations(r, f"img{k}") for k, r in enumerate(RECTS)] + [
    dict(plain_annotations(RECTS[0], "a"), **plain_annotations(RECTS[1], "b"))]
TILE_INDEXES = [[{"tile_id": i, "row": i // 3, "col": i % 3, "blank": i == 4, "fold": None} for i in range(6)],
                [{"tile_id": 5 - i, "row": 0, "col": i, "blank": False, "fold": i % 2} for i in range(4)]]
# one valid config per stage: every parameter that is not a path
CONFIGS = [
    ("targets", {"height": 12, "width": 16, "format": "pmap", "erosion_iterations": 1}),
    ("fuse", {"threshold": 0.3, "tta": False}),
    ("extract", {"mode": "multi", "threshold": 0.3, "min_area": 2, "no_spacing": False, "image_id": "img"}),
    ("eval", {"iou": 0.5}),
    ("tile", {"size": 4, "nodata": 0}),
    ("split", {"k": 2}),
    ("lossmath", {"op": "gradcheck", "channel": 0, "beta": 1.0, "eps": 1e-4, "gamma1": 0.5, "gamma2": 0.5,
                  "clamp": 1e-7, "w_building": 1.0, "w_border": 2.0, "w_spacing": 2.0, "step": 1e-5}),
    ("lr", {"schedule": "onecycle", "total_epochs": 10, "up_epochs": 4, "lr_init": 1e-5, "lr_max": 1e-4,
            "lr_final": 1e-8, "poly_power": 0.9, "poly_lr0": 1e-3, "poly_recursive": False}),
    ("lr", {"schedule": "poly", "total_epochs": 10, "up_epochs": 4, "lr_init": 1e-5, "lr_max": 1e-4,
            "lr_final": 1e-8, "poly_power": 0.9, "poly_lr0": 1e-3, "poly_recursive": True}),
    ("cutmix", {"seed": 3, "box": [0, 0, 4, 4]}),
]
# each stage's paths, for its config's mutants; outputs go to the working directory
CONFIG_PATHS = {
    "targets": ["--annotations", "{d}/ann.json", "--out-dir", "."],
    "fuse": ["{d}/p.pmap", "--out", "f.pmap"],
    "extract": ["--in", "{d}/p.pmap", "--out-geojson", "x.geojson", "--out-imap", "x.imap"],
    "eval": ["--pred", "{d}/l.imap", "--gt", "{d}/l.imap", "--report", "r.json"],
    "tile": ["--raster", "{d}/g.pgm", "--index", "t.json"],
    "split": ["--index", "{d}/tiles.json", "--out", "s.json"],
    "lossmath": ["--pred", "{d}/p.pmap", "--gt", "{d}/g.pgm"],
    "lr": ["--out", "lr.csv"],
    "cutmix": ["--image-a", "{d}/p.pmap", "--masks-a", "{d}/p.pmap", "--image-b", "{d}/p.pmap",
               "--masks-b", "{d}/p.pmap", "--out-image", "i.pmap", "--out-masks", "k.pmap"],
}
TEXT_FORMATS = {"geojson": (GEOJSON, HOSTILE), "annotations": (ANNOTATIONS, HOSTILE),
                "config": ([doc for _, doc in CONFIGS], CONFIG_HOSTILE), "tiles": (TILE_INDEXES, HOSTILE)}
TARGETS_REST = ["--out-dir", ".", "--height", "12", "--width", "16"]


def text_calls(fmt, src, path, d):
    """The calls that read a `fmt` mutant at `path` made from valid document
    `src`, with inputs in `d`; relative outputs land in the working directory."""
    if fmt == "geojson":  # scored against the valid document it came from, both ways round
        gt = f"{d}/gt{src}.geojson"
        return [["eval", "--pred", path, "--gt", gt, "--report", "r.json"],
                ["eval", "--pred", gt, "--gt", path, "--csv", "r.csv"],
                ["targets", "--annotations", path, *TARGETS_REST]]
    if fmt == "annotations":
        return [["targets", "--annotations", path, *TARGETS_REST]]
    if fmt == "tiles":
        return [["split", "--index", path, "--k", "2", "--out", "s.json"]]
    stage = CONFIGS[src][0]
    return [[stage, *(a.format(d=d) for a in CONFIG_PATHS[stage]), "--config", path]]


def valid_inputs(tmp_path, monkeypatch):
    """The directory of valid inputs the stages read (`{d}` in the calls),
    and the empty working directory the calls write to."""
    d = tmp_path / "in"
    d.mkdir()
    for k, doc in enumerate(GEOJSON):
        (d / f"gt{k}.geojson").write_text(json.dumps(doc))
    (d / "ann.json").write_text(json.dumps(ANNOTATIONS[2]))
    (d / "tiles.json").write_text(json.dumps(TILE_INDEXES[0]))
    stack = fused_stack(SHAPES[1], RECTS[1])
    for name in ("p", "t.id", "t.hf", "t.vf", "t.r180"):  # `t`: one fold of test-time views
        formats.write_pmap(d / f"{name}.pmap", stack)
    formats.write_pgm(d / "g.pgm", blocks(SHAPES[1], RECTS[1]))
    formats.write_imap(d / "l.imap", label_map(SHAPES[1], RECTS[1]))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)  # a call that names a relative path writes where the checks look
    return d, out


@pytest.mark.parametrize("fmt,seed", [("geojson", 4), ("annotations", 5), ("config", 6), ("tiles", 7)])
def test_mutated_text_inputs_keep_the_exit_contract(tmp_path, capsys, monkeypatch, fmt, seed):
    d, out = valid_inputs(tmp_path, monkeypatch)
    path = d / f"mutant.{fmt}"
    docs, hostile = TEXT_FORMATS[fmt]
    codes = set()
    for i, (kind, src, data) in enumerate(json_mutants(docs, seed, hostile)):
        path.write_bytes(data)
        for argv in text_calls(fmt, src, str(path), str(d)):
            codes.add(exit_code(capsys, argv, out, f"{argv[0]} on {kind} mutant {i} of {fmt}"))
    assert {0, 1} <= codes


# ---------------------------------------------------------------------------
# the parameter table: every numeric parameter at hostile values
# ---------------------------------------------------------------------------

# edge values, values past int32, int64 and float64 reach, and the float extremes
NUMERIC_HOSTILE = (0, -1, 1, 2, 2 ** 31, 2 ** 63, 10 ** 30, -0.0, 5e-324, 1e-300, 0.4999999,
                   -1e308, 1e308, sys.float_info.max)
# what only a config file can hold: other JSON types, and an integer no float holds
CONFIG_ONLY_HOSTILE = (True, "1", None, [], 10 ** 399)


def stage_modes():
    """(stage, valid config, paths) of each way a stage runs: the valid
    config of `CONFIGS` with each choice and switch that picks another code
    path (`fuse --tta`, `extract --mode single`, each `lossmath` op, each
    `lr` schedule, a `cutmix` box drawn from its seed)."""
    base = {}
    for stage, cfg in CONFIGS:
        base.setdefault(stage, cfg)
    modes = [(stage, cfg, CONFIG_PATHS[stage]) for stage, cfg in CONFIGS]
    modes.append(("fuse", dict(base["fuse"], tta=True), ["{d}/t.pmap", "--out", "f.pmap"]))
    modes.append(("extract", dict(base["extract"], mode="single"),
                  ["--in", "{d}/g.pgm", "--out-geojson", "x.geojson", "--out-imap", "x.imap"]))
    for op in ("dice", "bce", "channel"):
        modes.append(("lossmath", dict(base["lossmath"], op=op), CONFIG_PATHS["lossmath"]))
    modes.append(("lossmath", dict(base["lossmath"], op="total"),
                  ["--pred", "{d}/p.pmap", "--gt", "{d}/g.pgm", "{d}/g.pgm", "{d}/g.pgm"]))
    modes.append(("lr", dict(base["lr"], schedule="poly", poly_recursive=False), CONFIG_PATHS["lr"]))
    modes.append(("cutmix", dict(base["cutmix"], box=None), CONFIG_PATHS["cutmix"]))
    return modes


MODES = stage_modes()


class ReadConfig(dict):
    """A stage's config that records the keys its runner reads."""

    def __init__(self, cfg, read):
        super().__init__(cfg)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def mode_argv(stage, paths, d, config):
    return [stage, *(a.format(d=d) for a in paths), "--config", str(config)]


def parameters_read(capsys, monkeypatch, stage, cfg, paths, d, out):
    """The parameters the runner of a stage mode reads, from one valid call."""
    runner = importlib.import_module(f"bfx.stages.{stage}")
    read = set()
    with monkeypatch.context() as m:
        m.setattr(runner, "run", lambda c, run=runner.run: run(ReadConfig(c, read)))
        config = out.parent / "valid.json"
        config.write_text(json.dumps(cfg))
        assert exit_code(capsys, mode_argv(stage, paths, d, config), out, f"{stage} with {cfg}") == 0
    return read


def hostile_calls(stage, cfg, read):
    """(what, extra flags, config) of each call that sets one numeric
    parameter the mode reads to a hostile value: by flag over the valid
    config, then in the config file."""
    for p in cli.STAGES[stage][1]:
        if p.type in (int, float) and p.name in read:
            for value in NUMERIC_HOSTILE:
                flag = f"{cli._flag(p)}={value!r}"
                yield flag, [flag], cfg
            for value in NUMERIC_HOSTILE + CONFIG_ONLY_HOSTILE:
                yield f"config {p.name}: {value!r:.20}", [], dict(cfg, **{p.name: value})


def mode_id(stage, cfg):
    mode = cfg.get("op") or cfg.get("schedule") or cfg.get("mode")
    return "-".join([stage, *([mode] if mode else []), *(["tta"] if cfg.get("tta") else []),
                     *(["recursive"] if cfg.get("poly_recursive") else []),
                     *(["seed"] if stage == "cutmix" and cfg["box"] is None else [])])


@pytest.mark.parametrize("stage,cfg,paths", MODES, ids=[mode_id(stage, cfg) for stage, cfg, _ in MODES])
def test_every_numeric_parameter_keeps_the_exit_contract_at_hostile_values(
        tmp_path, capsys, monkeypatch, stage, cfg, paths):
    d, out = valid_inputs(tmp_path, monkeypatch)
    read = parameters_read(capsys, monkeypatch, stage, cfg, paths, d, out)
    config = tmp_path / "cfg.json"
    codes = set()
    for what, flags, doc in hostile_calls(stage, cfg, read):
        config.write_text(json.dumps(doc))
        codes.add(exit_code(capsys, mode_argv(stage, paths, d, config) + flags, out, f"{stage} {what}"))
    assert 1 in codes or not read & {p.name for p in cli.STAGES[stage][1] if p.type in (int, float)}


def test_every_numeric_parameter_is_read_in_some_mode(tmp_path, capsys, monkeypatch):
    # a parameter that no mode's runner reads would escape the hostile values
    d, out = valid_inputs(tmp_path, monkeypatch)
    read = {(stage, name) for stage, cfg, paths in MODES
            for name in parameters_read(capsys, monkeypatch, stage, cfg, paths, d, out)}
    numeric = {(stage, p.name) for stage, (_, params) in cli.STAGES.items() for p in params
               if p.type in (int, float)}
    assert numeric <= read, numeric - read


def test_mutated_ppm_files_are_read_or_refused(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "file.ppm"
    valid = []
    for shape in SHAPES:
        formats.write_ppm(path, rng.integers(0, 256, (*shape, 3), dtype=np.uint8))
        valid.append(path.read_bytes())
    outcomes = set()
    for i, (kind, _, data) in enumerate(mutants(valid, 9)):
        path.write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rgb = formats.read_ppm(path)
                assert rgb.dtype == np.uint8 and rgb.ndim == 3 and rgb.shape[2] == 3
                outcomes.add("read")
            except (ValueError, OSError):
                outcomes.add("refused")
        assert not caught, f"{kind} mutant {i} warned: {caught[0].message}"
    assert outcomes == {"read", "refused"}
