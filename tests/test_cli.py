import atexit
import errno
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from bfx import cli, fileio, formats, fusion, targets
from bfx.stages import fuse as fuse_stage
from bfx.targets import assemble_targets, rasterize_polygon

from _memory import traced_peak
from _oracles import copy_tta_average


def write_annotations(path, scale=1.0):
    doc = {
        "imgA": [{"points": [[2, 2], [20, 2], [20, 20], [2, 20]]},
                 {"points": [[25, 2], [43, 2], [43, 20], [25, 20]]}],
        "imgB": [{"points": [[5, 5], [30, 5], [30, 30], [5, 30]]}],
    }
    path.write_text(json.dumps(doc))
    return doc


def read_json(path):
    return json.loads(path.read_text())


def test_no_stage_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_unknown_flag_is_usage_error():
    assert cli.main(["extract", "--bogus", "1"]) == 1


def run_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], [], ["bogus"], ["bogus", "--help"], ["-", "extract"],
    ["--", "extract", "--help"], *([stage, "--help"] for stage in cli.STAGES),
    ["extract", "--bogus", "1"], ["fuse"], ["lr", "--schedule", "cosine"],
    ["tile", "--size", "x"]], ids=lambda argv: " ".join(argv) or "no-args")
def test_stage_parser_reads_like_the_full_parser(argv, capsys, monkeypatch):
    built = []
    staged = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or staged(only))
    got = run_main(argv, capsys)
    # argparse dispatches an argv that starts with a stage name to that stage
    assert built == [argv[0] if argv and argv[0] in cli.STAGES else None]
    monkeypatch.setattr(cli, "build_parser", lambda only=None: staged())
    assert got == run_main(argv, capsys)
    assert got[1] or got[2]


def test_stage_parser_has_only_its_stage_arguments():
    parser = cli.build_parser("lr")
    assert parser.parse_args(["lr", "--schedule", "poly", "--out", "x"]).schedule == "poly"
    with pytest.raises(ValueError, match=r"invalid choice: 'fuse' \(choose from 'lr'\)"):
        parser.parse_args(["fuse", "--out", "x"])


def test_cli_import_loads_no_numpy():
    # site hooks (such as _distutils_hack) load before the import, so only the difference counts
    code = ("import sys; before = set(sys.modules); import bfx.cli; "
            "print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "bfx.cli" in loaded and "numpy" not in loaded
    foreign = {m.split(".")[0] for m in loaded} - set(sys.stdlib_module_names) - {"bfx"}
    assert foreign == set()


def test_stdlib_only_modules_load_no_numpy():
    code = ("import sys; import bfx.fileio, bfx.schedules, bfx.tiling; "
            "print(*sorted(m for m in sys.modules if m.startswith('bfx')), 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["bfx", "bfx.fileio", "bfx.schedules", "bfx.tiling", "False"]


NUMPY_FREE_CALLS = {
    "tile": (["tile", "--raster", "{d}/r.pgm", "--size", "2", "--index", "{d}/t.json"], 0),
    "split": (["split", "--index", "{d}/tiles.json", "--k", "2", "--out", "{d}/folds.json"], 0),
    "lr-poly": (["lr", "--schedule", "poly", "--poly-recursive", "--out", "{d}/poly.csv"], 0),
    "lr-onecycle": (["lr", "--schedule", "onecycle", "--out", "{d}/onecycle.csv"], 0),
    "help": (["--help"], 0),
    "lr-help": (["lr", "--help"], 0),
    "usage-error": (["lr", "--schedule", "cosine", "--out", "{d}/x.csv"], 1),
    "lr-negative-power": (["lr", "--schedule", "poly", "--poly-power", "-1", "--out", "{d}/x.csv"], 1),
    "io-error": (["split", "--index", "{d}/missing.json"], 2),
}
# `lr` builds a `ScheduleParams`, a dataclass; no other call above needs
# `dataclasses`, which imports `inspect` and through it `ast`, `dis` and `tokenize`
LOADS_DATACLASSES = {"lr-poly", "lr-onecycle", "lr-negative-power"}
# the calls that write sidecars hash their config; OpenSSL's `_hashlib` is
# loaded for that alone
LOADS_HASHLIB = {"tile", "split", "lr-poly", "lr-onecycle"}


@pytest.mark.parametrize("name", NUMPY_FREE_CALLS)
def test_stages_without_arrays_load_no_numpy(name, tmp_path):
    tiles = [{"tile_id": i, "row": i // 3, "col": i % 3, "blank": False, "fold": None} for i in range(6)]
    (tmp_path / "tiles.json").write_text(json.dumps(tiles))
    (tmp_path / "r.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(8) + bytes(range(8)))
    argv, expected = NUMPY_FREE_CALLS[name]
    code = ("import sys\nfrom bfx.cli import main\n"
            "try:\n    rc = main(sys.argv[1:])\nexcept SystemExit as exc:\n    rc = exc.code\n"
            "print('rc', rc, *(m in sys.modules for m in ('numpy', 'dataclasses', '_hashlib')))")
    proc = subprocess.run([sys.executable, "-c", code, *(a.format(d=tmp_path) for a in argv)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == \
        f"rc {expected} False {name in LOADS_DATACLASSES} {name in LOADS_HASHLIB}"


# the bfx library modules each stage loads, beyond the package, `bfx.cli`,
# `bfx.fileio` and its own runner `bfx.stages.<stage>`
STAGE_MODULES = {
    "targets": {"annotations", "extract", "formats", "fusion", "raster", "targets"},
    "fuse": {"formats", "fusion", "raster"},
    "extract": {"extract", "formats", "fusion", "raster"},
    "eval": {"annotations", "evaluate", "extract", "formats", "fusion", "raster", "targets"},
    "tile": {"tiling"},
    "split": {"tiling"},
    "lossmath": {"formats", "raster", "trainmath"},
    "lr": {"schedules"},
    "cutmix": {"formats", "raster", "trainmath"},
}


@pytest.fixture(scope="module")
def stage_calls(tmp_path_factory):
    """The argv of a succeeding call of a stage on tiny inputs, writing into
    a fresh directory of its own (or into `out`)."""
    d = tmp_path_factory.mktemp("stages")
    write_annotations(d / "ann.json")
    rng = np.random.default_rng(0)
    formats.write_pmap(d / "p.pmap", rng.random((3, 8, 8)).astype(np.float32))
    formats.write_pmap(d / "m.pmap", (rng.random((3, 8, 8)) < 0.5).astype(np.float32))
    formats.write_pgm(d / "g.pgm", rng.random((8, 8)) < 0.5)
    labels = np.zeros((8, 8), np.uint32)
    labels[1:4, 1:4] = 1
    formats.write_imap(d / "l.imap", labels)
    (d / "tiles.json").write_text(json.dumps(
        [{"tile_id": i, "row": 0, "col": i, "blank": False, "fold": None} for i in range(4)]))
    calls = {
        "targets": ["--annotations", "{d}/ann.json", "--out-dir", "{o}", "--height", "32", "--width", "48"],
        "fuse": ["{d}/p.pmap", "--out", "{o}/f.pmap"],
        "extract": ["--in", "{d}/p.pmap", "--out-geojson", "{o}/x.geojson", "--out-imap", "{o}/x.imap"],
        "eval": ["--pred", "{d}/l.imap", "--gt", "{d}/l.imap", "--report", "{o}/r.json"],
        "tile": ["--raster", "{d}/g.pgm", "--size", "4", "--index", "{o}/t.json"],
        "split": ["--index", "{d}/tiles.json", "--k", "2", "--out", "{o}/s.json"],
        "lossmath": ["dice", "--pred", "{d}/p.pmap", "--gt", "{d}/g.pgm"],
        "lr": ["--schedule", "poly", "--out", "{o}/lr.csv"],
        "cutmix": ["--image-a", "{d}/p.pmap", "--masks-a", "{d}/m.pmap", "--image-b", "{d}/m.pmap",
                   "--masks-b", "{d}/p.pmap", "--box", "0,0,4,4", "--out-image", "{o}/i.pmap",
                   "--out-masks", "{o}/k.pmap"],
    }
    assert set(calls) == set(cli.STAGES)

    def call(stage, out=None):
        out = out or tempfile.mkdtemp(prefix=f"out-{stage}-", dir=d)
        return [stage, *(a.format(d=d, o=out) for a in calls[stage])]

    return call


@pytest.mark.parametrize("stage", STAGE_MODULES)
def test_each_stage_loads_only_its_modules(stage_calls, stage):
    argv = stage_calls(stage)
    code = ("import sys; import bfx; bare = sorted(sys.modules); from bfx.cli import main; "
            "assert main(sys.argv[1:]) == 0; print(' '.join(m for m in bare if m.startswith('bfx.'))); "
            "print(*sorted(m for m in sys.modules if m.startswith(('bfx', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bare, after = proc.stdout.splitlines()[-2:]
    assert bare == ""  # `import bfx` alone loads no submodule
    expected = {"bfx", "bfx.cli", "bfx.fileio", "bfx.stages", f"bfx.stages.{stage}",
                *(f"bfx.{m}" for m in STAGE_MODULES[stage])}
    assert set(after.split()) == expected


# main() as the program does not return, so the probe reads the process
# from an atexit handler
BLAS_PROBE = ("import atexit, os, sys\nfrom bfx import cli\n"
              "atexit.register(lambda: print(len(os.listdir('/proc/self/task')) "
              "if sys.platform == 'linux' else 1, os.environ.get('OPENBLAS_NUM_THREADS')))\n"
              "sys.exit(cli.main({argv}))")


def run_blas_probe(argv, in_process, **env):
    """Run `argv` through `cli.main` in a fresh interpreter, as the program
    (argv None) or as an in-process caller would, and report its exit code,
    the threads left and OPENBLAS_NUM_THREADS."""
    code = BLAS_PROBE.format(argv="sys.argv[1:]" if in_process else "")
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(environ, **env))
    return [str(proc.returncode), *proc.stdout.split()]


def test_a_bfx_process_starts_no_blas_threads(stage_calls):
    assert run_blas_probe(stage_calls("fuse"), in_process=False) == ["0", "1", "1"]


def test_a_preset_blas_thread_count_is_kept(stage_calls):
    rc, _, blas = run_blas_probe(stage_calls("fuse"), in_process=False, OPENBLAS_NUM_THREADS="2")
    assert (rc, blas) == ("0", "2")


def test_an_in_process_call_leaves_the_environment_alone(stage_calls):
    rc, _, blas = run_blas_probe(stage_calls("fuse"), in_process=True)
    assert (rc, blas) == ("0", "None")


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "bfx.cli"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error" in proc.stderr


ENTRY = "import sys\nfrom bfx.cli import main\nsys.exit(main())"  # the `bfx` console script


def test_the_program_runs_earlier_atexit_handlers(tmp_path):
    formats.write_pmap(tmp_path / "fold.pmap", np.full((2, 4, 4), 0.5, np.float32))
    code = ("import atexit, sys\nfrom bfx.cli import main\n"
            "atexit.register(lambda: print('at exit', file=sys.stderr))\n"
            "print('in main')\nsys.exit(main())")
    proc = subprocess.run([sys.executable, "-c", code, "fuse", str(tmp_path / "fold.pmap"),
                           "--out", str(tmp_path / "fused.pmap")], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "in main\n", "at exit\n")
    assert (tmp_path / "fused.manifest.json").exists()


def test_piped_lossmath_output_arrives_complete(stage_calls, capsys):
    argv = stage_calls("lossmath")
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
    assert len(want.splitlines()) == 1


@pytest.mark.parametrize("argv, code", [
    (["lr", "--schedule", "poly", "--out", "{d}/lr.csv"], 0),
    (["lr", "--schedule", "cosine", "--out", "{d}/lr.csv"], 1),
    (["split", "--index", "{d}/missing.json"], 2),
], ids=["ok", "usage", "io"])
def test_the_program_exits_with_the_call_status(tmp_path, argv, code):
    argv = [a.format(d=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, text=True)
    assert proc.returncode == code
    if code:
        (line,) = proc.stderr.splitlines()
        assert line.startswith(("bfx: error: ", "bfx: i/o error: "))
    else:
        assert proc.stderr == "" and (tmp_path / "lr.manifest.json").exists()


def test_the_program_reports_a_closed_stdout_as_an_io_error(stage_calls):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nothing the call prints can arrive
    try:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *stage_calls("lossmath")], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "bfx: i/o error: [Errno 32] Broken pipe\n"


def test_an_in_process_call_registers_no_exit_handler(tmp_path):
    before = atexit._ncallbacks()
    for k in range(2):
        assert cli.main(["lr", "--schedule", "poly", "--out", str(tmp_path / f"lr{k}.csv")]) == 0
    assert cli.main(["lr", "--schedule", "cosine"]) == 1
    assert atexit._ncallbacks() == before


def fused_scene():
    """A (building, border, spacing) stack holding two bordered buildings."""
    stack = np.zeros((3, 16, 20), np.float32)
    for r0, c0, r1, c1 in ((1, 1, 9, 8), (4, 10, 14, 19)):
        stack[0, r0:r1, c0:c1] = 0.9
        stack[1, r0:r1, c0:c1] = 0.8
        stack[1, r0 + 1:r1 - 1, c0 + 1:c1 - 1] = 0.0
    return stack


def test_fresh_interpreter_calls_exit_clean_with_the_in_process_artifacts(tmp_path):
    formats.write_pmap(tmp_path / "fold.pmap", fused_scene())

    def calls(run):
        run.mkdir()
        return [["fuse", str(tmp_path / "fold.pmap"), "--out", str(run / "fused.pmap")],
                ["extract", "--in", str(run / "fused.pmap"), "--min-area", "4",
                 "--out-geojson", str(run / "p.geojson"), "--out-imap", str(run / "p.imap")]]

    for argv in calls(tmp_path / "in-process"):
        assert cli.main(argv) == 0
    for argv in calls(tmp_path / "fresh"):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", ENTRY,
                               *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def artifacts(run):
        return {p.name: p.read_bytes() for p in run.iterdir()}

    assert artifacts(tmp_path / "fresh") == artifacts(tmp_path / "in-process")
    assert len(read_json(tmp_path / "fresh" / "p.geojson")["features"]) == 2


def test_targets_stage_writes_masks_and_sidecars(tmp_path):
    ann = tmp_path / "ann.json"
    write_annotations(ann)
    out = tmp_path / "tgt"
    rc = cli.main(["targets", "--annotations", str(ann), "--out-dir", str(out),
                   "--height", "48", "--width", "48"])
    assert rc == 0
    for image_id in ("imgA", "imgB"):
        for channel in ("building", "border", "spacing"):
            assert (out / f"{image_id}.{channel}.pgm").exists()
    sidecar = read_json(out / "targets.config.json")
    assert sidecar["stage"] == "targets"
    assert sidecar["config"]["height"] == 48
    assert "threads" not in sidecar["config"]
    manifest = read_json(out / "targets.manifest.json")
    assert manifest["config_hash"] == sidecar["config_hash"]
    assert len(manifest["outputs"]) == 6
    # pgm content matches the library
    stack = assemble_targets([np.array([[2, 2], [20, 2], [20, 20], [2, 20]], float),
                              np.array([[25, 2], [43, 2], [43, 20], [25, 20]], float)], 48, 48)
    assert np.array_equal(formats.read_pgm(out / "imgA.building.pgm"), stack[0])


def test_targets_accepts_geojson_annotations(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"image_id": "tileX"},
             "geometry": {"type": "Polygon",
                          "coordinates": [[[2, 2], [20, 2], [20, 20], [2, 20], [2, 2]]]}},
        ],
    }
    ann = tmp_path / "ann.geojson"
    ann.write_text(json.dumps(doc))
    out = tmp_path / "tgt"
    assert cli.main(["targets", "--annotations", str(ann), "--out-dir", str(out),
                     "--height", "32", "--width", "32"]) == 0
    building = formats.read_pgm(out / "tileX.building.pgm")
    assert building.sum() == 18 * 18


def test_targets_reads_the_geojson_extract_writes(tmp_path):
    formats.write_pmap(tmp_path / "scene.pmap", fused_scene())
    assert cli.main(["extract", "--in", str(tmp_path / "scene.pmap"), "--min-area", "4",
                     "--out-geojson", str(tmp_path / "scene.geojson"),
                     "--out-imap", str(tmp_path / "scene.imap")]) == 0
    doc = read_json(tmp_path / "scene.geojson")
    # the id rides on the collection, not on the features
    assert doc["image_id"] == "scene" and len(doc["features"]) == 2
    assert all("image_id" not in f["properties"] for f in doc["features"])
    plain = {"scene": [{"points": f["geometry"]["coordinates"][0]} for f in doc["features"]]}
    (tmp_path / "plain.json").write_text(json.dumps(plain))
    for out, ann in (("from-geojson", "scene.geojson"), ("from-plain", "plain.json")):
        assert cli.main(["targets", "--annotations", str(tmp_path / ann), "--out-dir", str(tmp_path / out),
                         "--height", "16", "--width", "20"]) == 0
    for channel in formats.CHANNEL_NAMES:
        got = (tmp_path / "from-geojson" / f"scene.{channel}.pgm").read_bytes()
        assert got == (tmp_path / "from-plain" / f"scene.{channel}.pgm").read_bytes()
    assert formats.read_pgm(tmp_path / "from-geojson" / "scene.building.pgm").sum() > 0


SQUARE = {"type": "Polygon", "coordinates": [[[2, 2], [9, 2], [9, 9], [2, 9], [2, 2]]]}


@pytest.mark.parametrize("doc, message", [
    ({"type": "FeatureCollection", "image_id": 7, "features": []},
     "FeatureCollection 'image_id' must be a string"),
    ({"type": "FeatureCollection", "image_id": None,
      "features": [{"type": "Feature", "properties": {"image_id": "a"}, "geometry": SQUARE}]},
     "FeatureCollection 'image_id' must be a string"),
    ({"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {}, "geometry": SQUARE}]},
     "image id '' is not usable as a file stem"),
    ({"../up": [{"points": [[1, 1], [5, 1], [5, 5]]}]}, "image id '../up' is not usable as a file stem"),
    ({"a\x00b": [{"points": [[1, 1], [5, 1], [5, 5]]}]}, "image id 'a\\x00b' is not usable as a file stem"),
], ids=["collection-id-int", "collection-id-null", "no-id", "id-with-slash", "id-with-nul"])
def test_a_refused_targets_call_creates_no_out_dir(tmp_path, capsys, doc, message):
    (tmp_path / "ann.json").write_text(json.dumps(doc))
    out = tmp_path / "new" / "tgt"
    assert cli.main(["targets", "--annotations", str(tmp_path / "ann.json"), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"bfx: error: {message}\n"
    assert os.listdir(tmp_path) == ["ann.json"]


def test_targets_pmap_format(tmp_path):
    ann = tmp_path / "ann.json"
    write_annotations(ann)
    out = tmp_path / "tgt"
    assert cli.main(["targets", "--annotations", str(ann), "--out-dir", str(out),
                     "--height", "48", "--width", "48", "--format", "pmap"]) == 0
    pm = formats.read_pmap(out / "imgA.pmap")
    assert pm.shape == (3, 48, 48)


def test_a_vertex_at_the_float_limit_fills_its_rows(tmp_path, capsys):
    # the window's padded x bound passes the float range: clamped first, it is the canvas edge
    big = 1.7976931348623157e308
    (tmp_path / "ann.json").write_text(json.dumps({"a": [{"points": [[0, 0], [big, 0], [big, 4], [0, 4]]}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["targets", "--annotations", str(tmp_path / "ann.json"), "--out-dir",
                         str(tmp_path / "t"), "--height", "8", "--width", "8", "--format", "pmap"])
    assert (code, capsys.readouterr().err) == (0, "")
    building = formats.read_pmap(tmp_path / "t" / "a.pmap")[0]
    assert building[:4].all() and not building[4:].any()


def test_a_ring_whose_extent_overflows_is_refused(tmp_path, capsys):
    # x2 - x1 of an edge would overflow to inf and the ring would fill nothing
    doc = {"type": "FeatureCollection", "height": 8, "width": 8, "features": [
        {"type": "Feature", "properties": {}, "geometry": {
            "type": "Polygon", "coordinates": [[[-1.7e308, 0], [1.7e308, 8], [1.7e308, 0]]]}}]}
    (tmp_path / "p.geojson").write_text(json.dumps(doc))
    labels = np.zeros((8, 8), np.uint32)
    labels[:4] = 1
    formats.write_imap(tmp_path / "g.imap", labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = assert_rejected(capsys, tmp_path, ["eval", "--pred", str(tmp_path / "p.geojson"), "--gt",
                                                 str(tmp_path / "g.imap"), "--report", str(tmp_path / "r.json")])
    assert err.startswith("bfx: error: eval: image 'p': "
                          "feature 0: ring's x or y extent (max - min) is not a finite float")


def polygon_feature(ring, **properties):
    return {"type": "Feature", "properties": properties, "geometry": {"type": "Polygon", "coordinates": [ring]}}


# the last vertex repeats the one before it: a zero-area ring of 4 vertices,
# which `rasterize_polygon` fills with nothing
REPEATED_CLOSING = [[1, 0], [1, 5], [1, 0], [1, 0]]
SQUARE = [[2, 2], [6, 2], [6, 6], [2, 6]]


@pytest.mark.parametrize("schema", ["plain", "geojson"])
def test_targets_takes_a_ring_as_the_library_does(tmp_path, capsys, schema):
    if schema == "plain":
        doc = {"a": [{"points": REPEATED_CLOSING}, {"points": SQUARE}]}
    else:
        doc = {"type": "FeatureCollection", "image_id": "a",
               "features": [polygon_feature(REPEATED_CLOSING), polygon_feature(SQUARE)]}
    (tmp_path / "ann.json").write_text(json.dumps(doc))
    assert rasterize_polygon(REPEATED_CLOSING, 8, 8).sum() == 0
    assert cli.main(["targets", "--annotations", str(tmp_path / "ann.json"), "--out-dir", str(tmp_path / "t"),
                     "--height", "8", "--width", "8", "--format", "pmap"]) == 0
    assert capsys.readouterr() == ("", "")
    want = assemble_targets([REPEATED_CLOSING, SQUARE], 8, 8)
    assert np.array_equal(formats.read_pmap(tmp_path / "t" / "a.pmap"), want)


def test_eval_takes_a_predicted_ring_as_the_library_does(tmp_path, capsys):
    doc = {"type": "FeatureCollection", "height": 8, "width": 8,
           "features": [polygon_feature(REPEATED_CLOSING, id=1), polygon_feature(SQUARE, id=2)]}
    (tmp_path / "p.geojson").write_text(json.dumps(doc))
    formats.write_imap(tmp_path / "g.imap", rasterize_polygon(SQUARE, 8, 8).astype(np.uint32))
    assert cli.main(["eval", "--pred", str(tmp_path / "p.geojson"), "--gt", str(tmp_path / "g.imap"),
                     "--report", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr() == ("", "")
    # the zero-area ring paints no pixel, so it is no instance
    assert read_json(tmp_path / "r.json")["global"] == {"tp": 1, "fp": 0, "fn": 0}


def test_config_file_precedence(tmp_path):
    ann = tmp_path / "ann.json"
    write_annotations(ann)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"annotations": str(ann), "out_dir": str(tmp_path / "a"),
                               "height": 48, "width": 48, "format": "pmap"}))
    # config alone supplies everything
    assert cli.main(["targets", "--config", str(cfg)]) == 0
    assert (tmp_path / "a" / "imgA.pmap").exists()
    # flags override config values
    assert cli.main(["targets", "--config", str(cfg), "--out-dir", str(tmp_path / "b"),
                     "--format", "pgm"]) == 0
    assert (tmp_path / "b" / "imgA.building.pgm").exists()
    assert not (tmp_path / "b" / "imgA.pmap").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert cli.main(["targets", "--config", str(cfg)]) == 1


def test_range_validation_exit_code(tmp_path):
    assert cli.main(["extract", "--mode", "multi", "--in", "x.pmap", "--threshold", "1.5",
                     "--out-geojson", str(tmp_path / "o.geojson"),
                     "--out-imap", str(tmp_path / "o.imap")]) == 1


def test_missing_input_exits_2_without_partial_outputs(tmp_path):
    out = tmp_path / "o.geojson"
    rc = cli.main(["extract", "--mode", "multi", "--in", str(tmp_path / "nope.pmap"),
                   "--out-geojson", str(out), "--out-imap", str(tmp_path / "o.imap")])
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "o.imap").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--pred", "p.imap", "--gt", "g.imap", "--colormap", "c.ppm", "--csv", "nodir/c.csv"],
    ["extract", "--in", "s.pmap", "--out-geojson", "x.geojson", "--out-imap", "nodir/x.imap"],
    ["eval", "--pred", "pd", "--gt", "gd", "--colormap", "cm", "--csv", "nodir/c.csv"],
], ids=["eval", "extract", "eval-colormap-directory"])
def test_a_failed_write_leaves_none_of_the_calls_files(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    labels = np.zeros((8, 8), np.uint32)
    labels[1:4, 1:4] = 1
    formats.write_imap("p.imap", labels)
    formats.write_imap("g.imap", labels)
    for d in ("pd", "gd"):  # the directory pair: two images each
        os.mkdir(d)
        formats.write_imap(f"{d}/a.imap", labels)
        formats.write_imap(f"{d}/b.imap", labels)
    formats.write_pmap("s.pmap", np.full((3, 8, 8), 0.5, np.float32))
    before = sorted(os.listdir())
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    # the file the call could not write, by the path given, not its temp file
    assert (out, err) == ("", f"bfx: i/o error: [Errno 2] No such file or directory: '{argv[-1]}'\n")
    assert sorted(os.listdir()) == before


# the program with a file size limit of %d bytes
FSIZE_ENTRY = ("import resource, sys\nfrom bfx.cli import main\n"
               "_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)\n"
               "resource.setrlimit(resource.RLIMIT_FSIZE, (%d, hard))\nsys.exit(main())")


def test_a_failed_sidecar_write_leaves_no_artifact(tmp_path):
    out = tmp_path / "lr.csv"
    argv = ["lr", "--schedule", "poly", "--total-epochs", "2", "--up-epochs", "1", "--out", str(out)]
    # a 2-epoch schedule's CSV fits in 200 bytes, its config sidecar does not
    proc = subprocess.run([sys.executable, "-c", FSIZE_ENTRY % 200, *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    sidecar = tmp_path / "lr.config.json"
    assert proc.stderr == f"bfx: i/o error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{sidecar}'\n"
    assert os.listdir(tmp_path) == []
    assert cli.main(argv) == 0
    assert out.stat().st_size < 200 < sidecar.stat().st_size


def test_a_failed_targets_call_removes_the_out_dir_it_made(tmp_path):
    write_annotations(tmp_path / "ann.json")
    out = tmp_path / "new" / "deep"
    argv = ["targets", "--annotations", str(tmp_path / "ann.json"), "--out-dir", str(out), "--format", "pmap"]
    # the first 512x512 PMAP, 3 MB, is far past the 3000-byte limit
    proc = subprocess.run([sys.executable, "-c", FSIZE_ENTRY % 3000, *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    first = out / "imgA.pmap"
    assert proc.stderr == f"bfx: i/o error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{first}'\n"
    assert os.listdir(tmp_path) == ["ann.json"]


ADDRESS_SPACE = 1536 << 20  # room for the interpreter and numpy, not for a 16384^2 canvas
EXHAUSTED = r"bfx: i/o error: out of memory \(Unable to allocate [^\n]+\)\n"


def limit_address_space():
    """In the child, before exec: cap its own address space."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE if hard == resource.RLIM_INFINITY
                                            else min(ADDRESS_SPACE, hard), hard))


@pytest.mark.skipif(resource is None or sys.platform != "linux", reason="needs RLIMIT_AS as Linux applies it")
@pytest.mark.parametrize("stage", ["targets", "eval"])
def test_running_out_of_memory_is_one_io_error_line_and_leaves_no_file(tmp_path, stage):
    if stage == "targets":
        write_annotations(tmp_path / "ann.json")
        argv = ["targets", "--annotations", str(tmp_path / "ann.json"), "--out-dir", str(tmp_path / "gt"),
                "--height", "16384", "--width", "16384"]
    else:  # a valid GeoJSON canvas, within MAX_CANVAS_PIXELS
        square = [[0, 0], [9, 0], [9, 9], [0, 9], [0, 0]]
        (tmp_path / "p.geojson").write_text(json.dumps({
            "type": "FeatureCollection", "height": 16384, "width": 16384,
            "features": [{"type": "Feature", "properties": {"id": 1},
                          "geometry": {"type": "Polygon", "coordinates": [square]}}]}))
        argv = ["eval", "--pred", str(tmp_path / "p.geojson"), "--gt", str(tmp_path / "p.geojson"),
                "--report", str(tmp_path / "r.json"), "--colormap", str(tmp_path / "maps")]
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run([sys.executable, "-m", "bfx.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(EXHAUSTED, proc.stderr), proc.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_out_of_memory_in_extract_is_one_io_error_line_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    formats.write_pmap(tmp_path / "p.pmap", np.full((3, 8, 8), 0.5, np.float32))

    def exhausted(*args):  # once the GeoJSON is staged
        raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (16384, 16384) "
                          "and data type uint32")

    monkeypatch.setattr(formats, "write_imap", exhausted)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["extract", "--in", str(tmp_path / "p.pmap"), "--out-geojson", str(tmp_path / "x.geojson"),
                     "--out-imap", str(tmp_path / "x.imap")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(EXHAUSTED, err), err
    assert sorted(tmp_path.rglob("*")) == before


def test_out_of_memory_in_a_fuse_tta_worker_is_one_io_error_line_and_leaves_no_file(tmp_path, monkeypatch,
                                                                                   capsys):
    prefixes = write_tta_folds(tmp_path, 3)
    read_pmap, failed_in = formats.read_pmap, []

    def read(path, **kwargs):
        if "fold1." in str(path):
            failed_in.append(threading.current_thread() is threading.main_thread())
            raise MemoryError  # no message, as Python's own allocator raises it
        return read_pmap(path, **kwargs)

    monkeypatch.setattr(formats, "read_pmap", read)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["fuse", "--tta", *prefixes, "--out", str(tmp_path / "fused.pmap"), "--threads", "2"]) == 2
    assert capsys.readouterr() == ("", "bfx: i/o error: out of memory\n")
    assert failed_in == [False]  # in a pool worker
    assert sorted(tmp_path.rglob("*")) == before


def test_a_targets_call_that_fails_at_a_late_image_leaves_nothing(tmp_path, capsys, monkeypatch):
    square = [[2, 2], [9, 2], [9, 9], [2, 9]]
    (tmp_path / "ann.json").write_text(json.dumps({f"img{k}": [{"points": square}] for k in range(4)}))
    out = tmp_path / "new" / "deep"
    events = []
    make, write = targets.assemble_targets, formats.write_pmap

    def making(rings, *args):
        events.append("make")
        return make(rings, *args)

    def writing(path, pmap):
        events.append(os.path.basename(path))
        if len(events) == 6:  # the third image's file
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write(path, pmap)

    monkeypatch.setattr(targets, "assemble_targets", making)
    monkeypatch.setattr(formats, "write_pmap", writing)
    code = cli.main(["targets", "--annotations", str(tmp_path / "ann.json"), "--out-dir", str(out),
                     "--height", "16", "--width", "16", "--format", "pmap"])
    err = f"bfx: i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out / 'img2.pmap'}'\n"
    assert (code, capsys.readouterr()) == (2, ("", err))
    # each image is written before the next is made; the fourth is never made
    assert events == ["make", "img0.pmap", "make", "img1.pmap", "make", "img2.pmap"]
    assert [p.name for p in tmp_path.rglob("*")] == ["ann.json"]  # no artifact, temp file or --out-dir


def test_targets_memory_does_not_grow_with_the_corpus(tmp_path):
    height = width = 512

    def peak(images):
        rings = [{"points": [[10, 10], [40, 10], [40, 30], [10, 30]]}]
        ann = tmp_path / f"ann{images:02d}.json"
        ann.write_text(json.dumps({f"img{k:02d}": rings for k in range(images)}))
        argv = ["targets", "--annotations", str(ann), "--out-dir", str(tmp_path / f"t{images:02d}"),
                "--height", str(height), "--width", str(width), "--threads", "2"]
        code, traced = traced_peak(lambda: cli.main(argv))
        assert code == 0
        return traced

    peak(1)  # loads the stage's modules outside the calls compared
    # 12 more images may add their parsed rings, not their stacks
    assert peak(16) - peak(4) < 3 * height * width


def test_targets_writes_a_pmap_one_float32_plane_at_a_time(tmp_path):
    height = width = 512
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps({f"img{k}": [{"points": [[10, 10], [40, 10], [40, 30], [10, 30]]}]
                               for k in range(4)}))

    def peak(fmt):
        argv = ["targets", "--annotations", str(ann), "--out-dir", str(tmp_path / fmt),
                "--height", str(height), "--width", str(width), "--format", fmt]
        code, traced = traced_peak(lambda: cli.main(argv))
        assert code == 0
        return traced

    peak("pmap")  # loads the stage's modules outside the calls compared
    # the uint8 stack is the same for both formats; a PMAP1 adds one float32
    # plane at a time, not a float32 copy of the stack
    assert peak("pmap") - peak("pgm") <= 4 * height * width


@pytest.mark.parametrize("stage, doc, param", [
    ("lr", {"out": "lr\x00.csv", "schedule": "poly"}, "out"),
    ("fuse", {"inputs": ["f.pmap", "f\x00.pmap"], "out": "o.pmap"}, "inputs"),
], ids=["lr-out", "fuse-inputs"])
def test_a_path_with_a_nul_byte_is_refused_before_any_work(tmp_path, monkeypatch, capsys, stage, doc, param):
    monkeypatch.chdir(tmp_path)
    formats.write_pmap("f.pmap", np.zeros((3, 4, 4), np.float32))
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli.main([stage, "--config", "cfg.json"]) == 1
    assert capsys.readouterr() == ("", f"bfx: error: {stage}: parameter {param} must not hold a NUL byte\n")
    assert sorted(os.listdir()) == ["cfg.json", "f.pmap"]


@pytest.mark.parametrize("argv, twice", [
    (["extract", "--in", "s.pmap", "--out-geojson", "o.geojson", "--out-imap", "o.config.json"], "o.config.json"),
    (["cutmix", "--image-a", "s.pmap", "--masks-a", "m.pmap", "--image-b", "m.pmap", "--masks-b", "s.pmap",
      "--box", "0,0,4,4", "--out-image", "x.pmap", "--out-masks", "./x.pmap"], "./x.pmap"),
    (["eval", "--pred", "p.imap", "--gt", "p.imap", "--csv", "r.json", "--report", "r.json"], "r.json"),
], ids=["extract-imap-on-its-sidecar", "cutmix-image-and-masks", "eval-csv-and-report"])
def test_two_writes_of_one_call_to_one_file_are_refused(tmp_path, monkeypatch, capsys, argv, twice):
    monkeypatch.chdir(tmp_path)
    formats.write_pmap("s.pmap", fused_scene())
    formats.write_pmap("m.pmap", (fused_scene() > 0.5).astype(np.float32))
    labels = np.zeros((8, 8), np.uint32)
    labels[1:4, 1:4] = 1
    formats.write_imap("p.imap", labels)
    before = sorted(os.listdir())
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"bfx: error: the call writes {twice!r} twice\n")
    assert sorted(os.listdir()) == before


def assert_the_manifest_lists_the_files_left(out):
    """The files under `out`, which was empty before one call, are its
    manifest's outputs and its two sidecars."""
    (manifest,) = out.glob("*.manifest.json")
    stem = manifest.name[:-len(".manifest.json")]
    outputs = read_json(manifest)["outputs"]
    assert len(set(outputs)) == len(outputs)
    left = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert left - {f"{stem}.config.json", f"{stem}.manifest.json"} == set(outputs)
    assert len(left) == len(outputs) + 2


@pytest.mark.parametrize("stage", [stage for stage in cli.STAGES if stage != "lossmath"])
def test_every_manifest_lists_exactly_the_files_its_call_left(stage_calls, tmp_path, stage):
    assert cli.main(stage_calls(stage, out=tmp_path)) == 0
    assert_the_manifest_lists_the_files_left(tmp_path)


def test_an_eval_directory_manifest_lists_every_colour_map(tmp_path):
    labels = np.zeros((8, 8), np.uint32)
    labels[1:4, 1:4] = 1
    for d in ("pd", "gd"):
        (tmp_path / d).mkdir()
        for image_id in ("b", "a"):
            formats.write_imap(tmp_path / d / f"{image_id}.imap", labels)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["eval", "--pred", str(tmp_path / "pd"), "--gt", str(tmp_path / "gd"),
                     "--colormap", str(out / "cm"), "--csv", str(out / "c.csv"),
                     "--report", str(out / "r.json")]) == 0
    assert_the_manifest_lists_the_files_left(out)
    assert read_json(out / "r.manifest.json")["outputs"] == ["cm/a.ppm", "cm/b.ppm", "c.csv", "r.json"]


def test_a_rename_that_fails_keeps_the_renames_before_it(tmp_path, capsys):
    (tmp_path / "lr.config.json").mkdir()
    out = tmp_path / "lr.csv"
    assert cli.main(["lr", "--schedule", "poly", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bfx: i/o error: ") and err.endswith(f": '{tmp_path / 'lr.config.json'}'\n")
    assert sorted(os.listdir(tmp_path)) == ["lr.config.json", "lr.csv"]  # no manifest, no temp file


def pipeline(tmp_path, threads="1"):
    """targets -> fuse -> extract -> eval on one image; returns the out dir."""
    tmp_path.mkdir(exist_ok=True)
    ann = tmp_path / "ann.json"
    write_annotations(ann)
    run = tmp_path / f"run{threads}"
    run.mkdir()
    assert cli.main(["targets", "--annotations", str(ann), "--out-dir", str(run / "tgt"),
                     "--height", "48", "--width", "48", "--format", "pmap",
                     "--threads", threads]) == 0
    assert cli.main(["fuse", str(run / "tgt" / "imgA.pmap"), str(run / "tgt" / "imgA.pmap"),
                     "--out", str(run / "fused.pmap"), "--threads", threads]) == 0
    assert cli.main(["extract", "--mode", "multi", "--in", str(run / "fused.pmap"),
                     "--image-id", "imgA",
                     "--out-geojson", str(run / "imgA.geojson"),
                     "--out-imap", str(run / "imgA.imap"), "--threads", threads]) == 0
    assert cli.main(["eval", "--pred", str(run / "imgA.geojson"), "--gt", str(run / "imgA.imap"),
                     "--report", str(run / "report.json"), "--csv", str(run / "counts.csv"),
                     "--colormap", str(run / "cm.ppm"), "--threads", threads]) == 0
    return run


def test_full_pipeline_and_report(tmp_path):
    run = pipeline(tmp_path)
    report = read_json(run / "report.json")
    assert report["f1_percent"] == 100.0
    assert report["global"] == {"tp": 2, "fp": 0, "fn": 0}
    assert report["per_image"] == [{"image_id": "imgA", "tp": 2, "fp": 0, "fn": 0}]
    assert (run / "counts.csv").read_text() == "image_id,tp,fp,fn\nimgA,2,0,0\n"
    rgb = formats.read_ppm(run / "cm.ppm")
    assert (rgb[..., 0] > 0).any() and (rgb[..., 1] > 0).sum() == 0


def test_rerun_is_byte_identical(tmp_path):
    run1 = pipeline(tmp_path / "x")
    run2 = pipeline(tmp_path / "y")
    for rel in ("fused.pmap", "imgA.geojson", "imgA.imap", "report.json",
                "counts.csv", "cm.ppm", "report.manifest.json"):
        assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes()


def test_config_hash_tracks_parameters_not_threads(tmp_path):
    ann = tmp_path / "ann.json"
    write_annotations(ann)
    hashes = {}
    for name, extra in (("a", ["--threads", "1"]),
                        ("b", ["--threads", "4"]),
                        ("c", ["--threads", "1", "--erosion-iterations", "1"])):
        out = tmp_path / name
        assert cli.main(["targets", "--annotations", str(ann), "--out-dir", str(out),
                         "--height", "48", "--width", "48"] + extra) == 0
        hashes[name] = read_json(out / "targets.manifest.json")["config_hash"]
    assert hashes["a"] == hashes["b"]      # threads never affect the hash
    assert hashes["a"] != hashes["c"]      # a real parameter does


def test_eval_directory_mode(tmp_path):
    ann = tmp_path / "ann.json"
    write_annotations(ann)
    run = tmp_path / "run"
    assert cli.main(["targets", "--annotations", str(ann), "--out-dir", str(run / "tgt"),
                     "--height", "48", "--width", "48", "--format", "pmap"]) == 0
    (run / "pred").mkdir()
    (run / "gt").mkdir()
    for image_id in ("imgA", "imgB"):
        assert cli.main(["extract", "--mode", "multi", "--in", str(run / "tgt" / f"{image_id}.pmap"),
                         "--image-id", image_id,
                         "--out-geojson", str(run / "pred" / f"{image_id}.geojson"),
                         "--out-imap", str(run / "gt" / f"{image_id}.imap")]) == 0
    assert cli.main(["eval", "--pred", str(run / "pred"), "--gt", str(run / "gt"),
                     "--report", str(run / "report.json"),
                     "--colormap", str(run / "cmaps")]) == 0
    report = read_json(run / "report.json")
    assert [row["image_id"] for row in report["per_image"]] == ["imgA", "imgB"]
    assert report["global"]["tp"] == 3
    assert (run / "cmaps" / "imgA.ppm").exists()
    assert (run / "cmaps" / "imgB.ppm").exists()


def test_eval_requires_an_output(tmp_path):
    assert cli.main(["eval", "--pred", "a.imap", "--gt", "b.imap"]) == 1


def test_fuse_tta_views(tmp_path):
    rng = np.random.default_rng(0)
    base = rng.random((2, 8, 8)).astype(np.float32)
    for view, suffix in ((v, s) for v, s in fuse_stage.VIEW_SUFFIXES):
        formats.write_pmap(tmp_path / f"fold0.{suffix}.pmap", fusion.apply_view(base, view))
    assert cli.main(["fuse", "--tta", str(tmp_path / "fold0.pmap"),
                     "--out", str(tmp_path / "fused.pmap")]) == 0
    fused = formats.read_pmap(tmp_path / "fused.pmap")
    assert np.allclose(fused, base, atol=1e-6)
    assert (tmp_path / "fused.building.pgm").exists()


def write_tta_folds(tmp_path, folds, shape=(2, 8, 8)):
    """The four view files of each fold; returns the fold prefixes."""
    rng = np.random.default_rng(4)
    for k in range(folds):
        base = rng.random(shape).astype(np.float32)
        for view, suffix in fuse_stage.VIEW_SUFFIXES:
            formats.write_pmap(tmp_path / f"fold{k}.{suffix}.pmap", fusion.apply_view(base, view))
    return [str(tmp_path / f"fold{k}.pmap") for k in range(folds)]


def test_fuse_tta_equals_the_library_sums_at_any_thread_count(tmp_path):
    prefixes = write_tta_folds(tmp_path, 3)
    folds = [copy_tta_average({view: formats.read_pmap(tmp_path / f"fold{k}.{suffix}.pmap")
                               for view, suffix in fuse_stage.VIEW_SUFFIXES}) for k in range(3)]
    formats.write_pmap(tmp_path / "want.pmap", fusion.ensemble_average(folds))
    want = (tmp_path / "want.pmap").read_bytes()
    for threads in ("1", "2", "3"):
        assert cli.main(["fuse", "--tta", *prefixes, "--out", str(tmp_path / f"t{threads}.pmap"),
                         "--threads", threads]) == 0
        assert (tmp_path / f"t{threads}.pmap").read_bytes() == want
        inputs = read_json(tmp_path / f"t{threads}.manifest.json")["inputs"]
        assert inputs == [f"fold{k}.{suffix}.pmap" for k in range(3) for _, suffix in fuse_stage.VIEW_SUFFIXES]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fuse_tta_writes_only_its_declared_outputs(tmp_path, threads):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    prefixes = write_tta_folds(inputs, 3)
    before = sorted(inputs.iterdir())
    assert cli.main(["fuse", "--tta", *prefixes, "--out", str(out / "fused.pmap"),
                     "--threads", threads]) == 0
    assert sorted(inputs.iterdir()) == before
    declared = read_json(out / "fused.manifest.json")["outputs"]
    assert declared == ["fused.pmap", "fused.building.pgm", "fused.border.pgm"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        declared + ["fused.config.json", "fused.manifest.json"])


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fault", ["missing-view", "wrong-shape"])
def test_failed_fuse_tta_leaves_no_artifacts(tmp_path, capsys, threads, fault):
    prefixes = write_tta_folds(tmp_path, 3)
    if fault == "missing-view":
        (tmp_path / "fold1.r180.pmap").unlink()
        code, prefix = 2, "bfx: i/o error:"
    else:
        formats.write_pmap(tmp_path / "fold2.hf.pmap", np.zeros((2, 8, 9), np.float32))
        code, prefix = 1, "bfx: error:"
    before = sorted(tmp_path.rglob("*"))
    argv = ["fuse", "--tta", *prefixes, "--out", str(tmp_path / "fused.pmap"), "--threads", threads]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(prefix)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("threads", [None, 1, 2, 5])
def test_pool_map_keeps_input_order_and_raises_the_first_error_in_it(threads):
    import time

    assert cli._pool_map(lambda x: x * x, range(23), threads) == [x * x for x in range(23)]
    done = []

    def fn(x):
        if x == 3:
            time.sleep(0.05)  # item 7 fails first in time on a pool
        if x in (3, 7):
            raise ValueError(f"item {x}")
        done.append(x)
        return x

    with pytest.raises(ValueError, match="^item 3$"):
        cli._pool_map(fn, range(12), threads)
    assert {0, 1, 2} <= set(done)  # every item before the first error ran


def test_pooled_stages_load_no_executor_or_logging(tmp_path):
    prefixes = write_tta_folds(tmp_path, 2)
    formats.write_pgm(tmp_path / "r.pgm", np.eye(8, dtype=np.uint8))
    code = ("import sys; from bfx.cli import main; assert main(sys.argv[1:]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))")
    for argv in (["fuse", "--tta", *prefixes, "--out", str(tmp_path / "f.pmap")],
                 ["tile", "--raster", str(tmp_path / "r.pgm"), "--size", "4", "--index", str(tmp_path / "i.json")]):
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--threads", "2"],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


def test_extract_single_mode_from_pgm(tmp_path):
    mask = np.zeros((40, 60), np.uint8)
    mask[5:25, 5:25] = 1
    mask[5:25, 25:45] = 1
    formats.write_pgm(tmp_path / "b.pgm", mask)
    assert cli.main(["extract", "--mode", "single", "--in", str(tmp_path / "b.pgm"),
                     "--out-geojson", str(tmp_path / "s.geojson"),
                     "--out-imap", str(tmp_path / "s.imap")]) == 0
    doc = read_json(tmp_path / "s.geojson")
    assert len(doc["features"]) == 1  # touching blocks merge in single mode
    assert doc["image_id"] == "b"


def test_extract_multi_mode_from_pgm_planes(tmp_path):
    stack = assemble_targets([np.array([(5, 5), (25, 5), (25, 25), (5, 25)], float),
                              np.array([(25, 5), (45, 5), (45, 25), (25, 25)], float)], 40, 60)
    formats.write_pgm(tmp_path / "b.pgm", stack[0])
    formats.write_pgm(tmp_path / "r.pgm", stack[1])
    formats.write_pgm(tmp_path / "s.pgm", stack[2])
    assert cli.main(["extract", "--mode", "multi",
                     "--building", str(tmp_path / "b.pgm"),
                     "--border", str(tmp_path / "r.pgm"),
                     "--spacing", str(tmp_path / "s.pgm"),
                     "--out-geojson", str(tmp_path / "m.geojson"),
                     "--out-imap", str(tmp_path / "m.imap")]) == 0
    assert len(read_json(tmp_path / "m.geojson")["features"]) == 2


def test_tile_and_split_stages(tmp_path):
    values = np.zeros((64, 96), np.uint8)
    values[0:32, 0:64] = 9
    (tmp_path / "src.pgm").write_bytes(b"P5\n96 64\n255\n" + values.tobytes())
    index = tmp_path / "idx.json"
    assert cli.main(["tile", "--raster", str(tmp_path / "src.pgm"), "--size", "32",
                     "--nodata", "0", "--index", str(index)]) == 0
    records = read_json(index)
    assert [r["blank"] for r in records] == [False, False, True, True, True, True]
    assert cli.main(["split", "--index", str(index), "--k", "2"]) == 0
    records = read_json(index)  # rewritten in place
    assert [r["fold"] for r in records] == [0, 1, None, None, None, None]
    # too few usable tiles for k
    assert cli.main(["split", "--index", str(index), "--k", "5"]) == 1


@pytest.mark.parametrize("size, nodata", [(4, 0), (5, 0), (3, 200)])
def test_tile_blank_flags_match_a_full_tile_compare(tmp_path, size, nodata):
    rng = np.random.default_rng(size)
    values = rng.integers(0, 256, (23, 17), dtype=np.uint8)
    values[rng.random((23, 17)) < 0.9] = nodata  # all-nodata tiles, and tiles with one pixel left
    (tmp_path / "src.pgm").write_bytes(b"P5\n17 23\n255\n" + values.tobytes())
    assert cli.main(["tile", "--raster", str(tmp_path / "src.pgm"), "--size", str(size),
                     "--nodata", str(nodata), "--index", str(tmp_path / "idx.json")]) == 0
    records = read_json(tmp_path / "idx.json")
    want = [bool((values[r * size:(r + 1) * size, c * size:(c + 1) * size] == nodata).all())
            for r in range(23 // size) for c in range(17 // size)]
    assert [rec["blank"] for rec in records] == want
    assert True in want and False in want


@pytest.mark.parametrize("size, bound", [(256, 2 ** 20), (4096, 2 ** 16)])
def test_tile_holds_one_tile_row_of_the_raster(tmp_path, size, bound):
    # the 2048^2 raster is 4 MiB; a call holds one band of size x 2048 bytes
    # (two fit under 1 MiB at 256), and none when no tile row fits
    raster = tmp_path / "r.pgm"
    raster.write_bytes(b"P5\n# a comment\n2048 2048\n255\n" + bytes(range(256)) * (2048 * 8))
    argv = ["tile", "--raster", str(raster), "--size", str(size), "--index", str(tmp_path / "i.json")]
    assert cli.main(argv) == 0  # the stage's modules load before the traced call
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0 and peak < bound


def test_lossmath_prints_nine_significant_digits(tmp_path, capsys):
    pred = np.full((1, 10, 10), 0.5, np.float32)
    gt = np.ones((10, 10), np.uint8)
    formats.write_pmap(tmp_path / "p.pmap", pred)
    formats.write_pgm(tmp_path / "g.pgm", gt)
    assert cli.main(["lossmath", "bce", "--pred", str(tmp_path / "p.pmap"),
                     "--gt", str(tmp_path / "g.pgm")]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.693147181"
    assert cli.main(["lossmath", "dice", "--pred", str(tmp_path / "p.pmap"),
                     "--gt", str(tmp_path / "g.pgm")]) == 0
    assert capsys.readouterr().out.strip() == "0.333333111"


def test_lossmath_total_and_gradcheck(tmp_path, capsys):
    rng = np.random.default_rng(1)
    pred = rng.uniform(0.05, 0.95, size=(3, 8, 8)).astype(np.float32)
    formats.write_pmap(tmp_path / "p.pmap", pred)
    gt_paths = []
    for i in range(3):
        path = tmp_path / f"g{i}.pgm"
        formats.write_pgm(path, (rng.random((8, 8)) < 0.5).astype(np.uint8))
        gt_paths.append(str(path))
    assert cli.main(["lossmath", "total", "--pred", str(tmp_path / "p.pmap"),
                     "--gt", *gt_paths]) == 0
    total = float(capsys.readouterr().out)
    assert 0.0 < total < 2.0
    assert cli.main(["lossmath", "gradcheck", "--pred", str(tmp_path / "p.pmap"),
                     "--gt", gt_paths[0]]) == 0
    assert float(capsys.readouterr().out) <= 1e-4


def test_lossmath_prints_the_value_of_the_gradient_bearing_losses(tmp_path, capsys):
    from bfx import trainmath

    rng = np.random.default_rng(5)
    pred = rng.random((3, 33, 40)).astype(np.float32)
    pred[:, :3] = 0.0  # clamped rows
    pred[:, -3:] = 1.0
    formats.write_pmap(tmp_path / "p.pmap", pred)
    gts = [(rng.random((33, 40)) < 0.4).astype(np.uint8) for _ in range(3)]
    gt_paths = []
    for i, gt in enumerate(gts):
        gt_paths.append(str(tmp_path / f"g{i}.pgm"))
        formats.write_pgm(gt_paths[-1], gt)
    flags = ["--beta", "0.7", "--eps", "0.01", "--clamp", "0.001", "--gamma1", "0.2"]
    params = trainmath.LossParams(0.7, 0.01, 0.2, 0.5, 0.001)
    losses = [trainmath.channel_loss(pred[i], gts[i], params)[0] for i in range(3)]
    expected = trainmath.total_loss(losses, trainmath.ChannelWeights(1.0, 3.0, 2.0))
    for threads in ("1", "2"):  # the channels' losses run on the pool
        assert cli.main(["lossmath", "total", "--pred", str(tmp_path / "p.pmap"), "--gt", *gt_paths,
                         "--w-border", "3", "--threads", threads, *flags]) == 0
        assert capsys.readouterr().out == f"{expected:.9g}\n"
    for op, fn in (("dice", trainmath.dice_loss), ("bce", trainmath.bce_loss),
                   ("channel", trainmath.channel_loss)):
        assert cli.main(["lossmath", op, "--pred", str(tmp_path / "p.pmap"), "--gt", gt_paths[2],
                         "--channel", "2", *flags]) == 0
        assert capsys.readouterr().out == f"{fn(pred[2], gts[2], params)[0]:.9g}\n"


def test_lr_poly_recursive_table_of_100k_epochs(tmp_path):
    from bfx.schedules import ScheduleParams

    from _oracles import poly_recurrence_per_epoch

    out = tmp_path / "lr.csv"
    assert cli.main(["lr", "--schedule", "poly", "--poly-recursive", "--total-epochs", "100000",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 100002 and lines[-1] == "100000,0.0"
    params = ScheduleParams(total_epochs=100000)
    for epoch in (0, 1, 2, 999, 5000):
        assert lines[epoch + 1] == f"{epoch},{poly_recurrence_per_epoch(epoch, params)!r}"


def test_lr_total_epochs_has_an_upper_bound(tmp_path, capsys, monkeypatch):
    from bfx import schedules

    def refuse(*args):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(schedules, "ScheduleParams", refuse)  # no call may get as far as the schedule
    (tmp_path / "cfg.json").write_text('{"total_epochs": %d}' % 2 ** 70)
    for extra in (["--total-epochs", "1000001"], ["--total-epochs", str(10 ** 12)],
                  ["--config", str(tmp_path / "cfg.json")]):
        assert cli.main(["lr", "--schedule", "poly", "--out", str(tmp_path / "lr.csv"), *extra]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("bfx: error: lr: parameter total_epochs=") and line.endswith(" out of range")
    assert os.listdir(tmp_path) == ["cfg.json"]
    total_epochs = next(p for p in cli.STAGES["lr"][1] if p.name == "total_epochs")
    assert cli._checked("lr", total_epochs, 10 ** 6) == 10 ** 6


def test_lr_stage_csv(tmp_path):
    out = tmp_path / "lr.csv"
    assert cli.main(["lr", "--schedule", "onecycle", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,lr"
    assert lines[1] == "0,5e-06"
    assert lines[41].startswith("40,0.0001")
    assert lines[101] == "100,5e-09"
    assert cli.main(["lr", "--schedule", "poly", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "0,0.001"
    assert lines[101] == "100,0.0"


def test_cutmix_stage_seed_required(tmp_path):
    rng = np.random.default_rng(2)
    for name in ("ia", "ib"):
        formats.write_pmap(tmp_path / f"{name}.pmap", rng.random((1, 16, 16)).astype(np.float32))
    for name in ("ma", "mb"):
        formats.write_pmap(tmp_path / f"{name}.pmap",
                           (rng.random((3, 16, 16)) < 0.5).astype(np.float32))
    args = ["cutmix", "--image-a", str(tmp_path / "ia.pmap"), "--masks-a", str(tmp_path / "ma.pmap"),
            "--image-b", str(tmp_path / "ib.pmap"), "--masks-b", str(tmp_path / "mb.pmap"),
            "--out-image", str(tmp_path / "out.pmap"), "--out-masks", str(tmp_path / "outm.pmap")]
    assert cli.main(args) == 1  # neither box nor seed
    assert cli.main(args + ["--seed", "3"]) == 0
    mixed_a = formats.read_pmap(tmp_path / "out.pmap")
    assert cli.main(args + ["--seed", "3"]) == 0
    assert np.array_equal(formats.read_pmap(tmp_path / "out.pmap"), mixed_a)  # seeded determinism
    assert cli.main(args + ["--box", "0,0,16,16"]) == 0
    assert np.array_equal(formats.read_pmap(tmp_path / "out.pmap"),
                          formats.read_pmap(tmp_path / "ib.pmap"))


def assert_rejected(capsys, tmp_path, argv):
    """Exit 1 with one `bfx: error:` line and nothing new on disk."""
    files_before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("bfx: error:")
    assert sorted(tmp_path.rglob("*")) == files_before
    return err


@pytest.mark.parametrize("stage,doc", [
    ("targets", {"format": "tiff"}),
    ("targets", {"height": "32"}),
    ("targets", {"height": True}),
    ("targets", {"erosion_iterations": 1.5}),
    ("lr", {"schedule": "bogus"}),
    ("fuse", {"threshold": "x"}),
    ("fuse", {"tta": "no"}),
    ("lossmath", {"op": "bogus"}),
    ("cutmix", {"box": [0, 0, 1.5, 4]}),
    ("cutmix", {"box": [0, 0, True, 4]}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_values_are_type_and_choice_checked(tmp_path, capsys, stage, doc):
    write_annotations(tmp_path / "ann.json")
    formats.write_pmap(tmp_path / "p.pmap", np.full((1, 4, 4), 0.5, np.float32))
    formats.write_pmap(tmp_path / "m.pmap", np.ones((3, 4, 4), np.float32))
    formats.write_pgm(tmp_path / "g.pgm", np.ones((4, 4), np.uint8))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rest = {"targets": ["--annotations", str(tmp_path / "ann.json"), "--out-dir", str(tmp_path / "o")],
            "lr": ["--out", str(tmp_path / "lr.csv")],
            "fuse": [str(tmp_path / "p.pmap"), "--out", str(tmp_path / "f.pmap")],
            "lossmath": ["--pred", str(tmp_path / "p.pmap"), "--gt", str(tmp_path / "g.pgm")],
            "cutmix": ["--image-a", str(tmp_path / "p.pmap"), "--masks-a", str(tmp_path / "m.pmap"),
                       "--image-b", str(tmp_path / "p.pmap"), "--masks-b", str(tmp_path / "m.pmap"),
                       "--out-image", str(tmp_path / "o.pmap"),
                       "--out-masks", str(tmp_path / "om.pmap")]}[stage]
    assert_rejected(capsys, tmp_path, [stage, "--config", str(cfg), *rest])


FLOAT_PARAMS = [(stage, p) for stage, (_, params) in cli.STAGES.items() for p in params if p.type is float]
FLOAT_STAGE_ARGV = {
    "fuse": ["fuse", "{d}/p.pmap", "--out", "{d}/f.pmap"],
    "extract": ["extract", "--in", "{d}/p.pmap", "--out-geojson", "{d}/x.geojson", "--out-imap", "{d}/x.imap"],
    "eval": ["eval", "--pred", "{d}/l.imap", "--gt", "{d}/l.imap", "--report", "{d}/r.json"],
    "lossmath": ["lossmath", "dice", "--pred", "{d}/p.pmap", "--gt", "{d}/g.pgm"],
    "lr": ["lr", "--schedule", "poly", "--out", "{d}/lr.csv"],
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("by", ["flag", "config"])
@pytest.mark.parametrize("stage,param", FLOAT_PARAMS, ids=lambda x: getattr(x, "name", x))
def test_non_finite_float_parameters_are_refused(tmp_path, capsys, stage, param, by, value):
    argv = [a.format(d=tmp_path) for a in FLOAT_STAGE_ARGV[stage]]
    if by == "flag":
        argv.append(f"--{param.name.replace('_', '-')}={value!r}")
    else:  # Python's json reads and writes NaN and Infinity literals
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({param.name: value}))
        argv += ["--config", str(cfg)]
    assert f"parameter {param.name} must be finite" in assert_rejected(capsys, tmp_path, argv)


def test_a_config_integer_past_the_float_range_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lr_max": 1%s}' % ("0" * 400))
    argv = ["lr", "--schedule", "poly", "--config", str(cfg), "--out", str(tmp_path / "lr.csv")]
    assert "parameter lr_max must be finite" in assert_rejected(capsys, tmp_path, argv)


JSON_READERS = ["targets-annotations", "eval-pred", "eval-gt", "split-index", "lr-config"]


def json_reader_argv(tmp_path, reader, doc):
    """A call whose `reader` reads the JSON file `doc`."""
    formats.write_imap(tmp_path / "ok.imap", np.zeros((4, 4), np.uint32))
    ok, out = str(tmp_path / "ok.imap"), str(tmp_path / "out")
    return {"targets-annotations": ["targets", "--annotations", str(doc), "--out-dir", out],
            "eval-pred": ["eval", "--pred", str(doc), "--gt", ok, "--report", out + ".json"],
            "eval-gt": ["eval", "--pred", ok, "--gt", str(doc), "--report", out + ".json"],
            "split-index": ["split", "--index", str(doc), "--out", out + ".json"],
            "lr-config": ["lr", "--config", str(doc), "--out", out + ".csv"]}[reader]


@pytest.mark.parametrize("reader", JSON_READERS)
def test_deeply_nested_json_is_a_validation_error(tmp_path, capsys, reader):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    argv = json_reader_argv(tmp_path, reader, deep)
    assert "nested too deeply" in assert_rejected(capsys, tmp_path, argv)


@pytest.mark.parametrize("text,message", [
    pytest.param(b'{"k": 3', "Expecting ',' delimiter", id="truncated"),
    pytest.param(b'{"k": "\xff"}', "can't decode byte 0xff", id="not-utf-8"),
])
@pytest.mark.parametrize("reader", JSON_READERS)
def test_json_that_does_not_parse_is_refused_with_its_path(tmp_path, capsys, reader, text, message):
    doc = tmp_path / "doc.json"
    doc.write_bytes(text)
    err = assert_rejected(capsys, tmp_path, json_reader_argv(tmp_path, reader, doc))
    assert f"{doc}: " in err and message in err


def test_eval_of_a_directory_names_the_image_whose_pair_is_refused(tmp_path, capsys):
    labels = np.zeros((4, 4), np.uint32)
    labels[1:3, 1:3] = 1
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        formats.write_imap(tmp_path / d / "a.imap", labels)
    (tmp_path / "pred" / "b.geojson").write_text('{"type": "FeatureCollection"')
    (tmp_path / "gt" / "b.geojson").write_text(json.dumps(
        {"type": "FeatureCollection", "height": 4, "width": 4, "features": []}))
    (tmp_path / "pred" / "c.imap").write_bytes(b"IMAP1")
    formats.write_imap(tmp_path / "gt" / "c.imap", labels)
    argv = ["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
            "--report", str(tmp_path / "report.json")]
    err = assert_rejected(capsys, tmp_path, argv)
    assert err.startswith(f"bfx: error: eval: image 'b': {tmp_path / 'pred' / 'b.geojson'}: Expecting")
    (tmp_path / "pred" / "b.geojson").unlink()
    (tmp_path / "gt" / "b.geojson").unlink()
    err = assert_rejected(capsys, tmp_path, argv + ["--threads", "2"])
    assert err.startswith("bfx: error: eval: image 'c': ") and "IMAP1" in err


def test_config_integer_for_float_parameter_matches_the_flag(tmp_path):
    formats.write_pmap(tmp_path / "p.pmap", np.full((1, 4, 4), 0.5, np.float32))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold": 0}))
    args = ["fuse", str(tmp_path / "p.pmap"), "--out", str(tmp_path / "f.pmap")]
    assert cli.main(args + ["--config", str(cfg)]) == 0
    from_config = (tmp_path / "f.config.json").read_bytes()
    assert b'"threshold":0.0' in from_config
    assert cli.main(args + ["--threshold", "0"]) == 0
    assert (tmp_path / "f.config.json").read_bytes() == from_config


def test_eval_directory_stem_with_two_formats_is_rejected(tmp_path, capsys):
    labels = np.zeros((4, 4), np.uint32)
    labels[1:3, 1:3] = 1
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        formats.write_imap(tmp_path / d / "a.imap", labels)
    (tmp_path / "pred" / "a.geojson").write_text(json.dumps(
        {"type": "FeatureCollection", "height": 4, "width": 4, "features": []}))
    argv = ["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
            "--report", str(tmp_path / "report.json")]
    assert "'a'" in assert_rejected(capsys, tmp_path, argv)


@pytest.mark.parametrize("name,data,stage", [
    pytest.param("bad.pgm", b"P5\n3 -2\n255\n", "tile", id="pgm-negative-height"),
    *[pytest.param("bad.pgm", header + bytes(10), "tile", id=f"pgm-field-{name}")
      for name, header in [("underscore", b"P5\n1_0 1 255\n"), ("plus", b"P5\n+4 +1 +255\n"),
                           ("letters", b"P5\nx 1\n255\n"), ("21-digits", b"P5\n" + b"1" * 21 + b" 1\n255\n"),
                           ("1-mib", b"P5\n" + b"1" * (1 << 20))]],
    pytest.param("bad.pmap", formats.PMAP_MAGIC + b"\x01\x00", "fuse", id="pmap-short-header"),
    pytest.param("bad.imap", formats.IMAP_MAGIC + b"\x01\x00\x00\x00", "eval", id="imap-short-header"),
    pytest.param("bad.json", b'[{"row": 0, "col": 0, "blank": false}]', "split",
                 id="tile-record-without-id"),
    pytest.param("bad.geojson", b'{"type": "FeatureCollection", "features": [1]}', "targets",
                 id="annotation-feature-not-object"),
    pytest.param("bad.geojson",
                 b'{"type": "FeatureCollection", "height": 4, "width": 4, "features": [1]}', "eval",
                 id="eval-feature-not-object"),
    *[pytest.param("bad.geojson", b'{"type": "FeatureCollection", "height": 4, "width": 4, "features": '
                   b'[{"geometry": {"type": "Polygon", "coordinates": [[[0, 0], %s, [2, 2]]]}}]}' % vertex,
                   "eval", id=f"eval-vertex-{name}")
      for name, vertex in [("infinite", b"[2, Infinity]"), ("overflow", b"[2, 1e400]"), ("nan", b"[NaN, 0]"),
                           ("integer-overflow", b"[2, 1%s]" % (b"0" * 400))]],
    pytest.param("bad.geojson",
                 b'{"type": "FeatureCollection", "height": 65536, "width": 65536, "features": []}', "eval",
                 id="eval-canvas-too-large"),
    pytest.param("bad.imap", formats.IMAP_MAGIC + struct.pack("<III", 4, 4, 2_000_000)
                 + np.diag([0, 0, 2_000_000, 0]).astype("<u4").tobytes(), "eval",
                 id="eval-imap-labels-not-dense"),
    pytest.param("bad.pmap", formats.PMAP_MAGIC + struct.pack("<III", 65535, 65535, 65535), "fuse",
                 id="pmap-payload-larger-than-file"),
    pytest.param("bad.imap", formats.IMAP_MAGIC + struct.pack("<III", 65535, 65535, 1), "eval",
                 id="imap-payload-larger-than-file"),
    *[pytest.param("bad.pmap", formats.PMAP_MAGIC + struct.pack("<III", 1, 1, 2) + np.array([0.5, value], "<f4").tobytes(),
                   "fuse", id=f"pmap-payload-{name}")
      for name, value in [("nan", np.nan), ("infinite", np.inf), ("negative", -0.5)]],
    *[pytest.param("bad.geojson", b'{"type": "FeatureCollection", "height": %s, "width": 4, "features": []}' % height,
                   "eval", id=f"eval-canvas-height-{name}")
      for name, height in [("float", b"4.0"), ("fraction", b"4.5"), ("string", b'"4"')]],
    pytest.param("bad.json", b'{"img": [{"points": [[0, 0], [4, "0"], [4, 4]]}]}', "targets",
                 id="annotation-string-coordinate"),
    pytest.param("bad.geojson", b'{"type": "FeatureCollection", "height": 4, "width": 4, "features": '
                 b'[{"properties": {"id": 2.5}, "geometry": {"type": "Polygon", "coordinates": '
                 b'[[[0, 0], [2, 0], [2, 2]]]}}]}', "eval", id="eval-feature-id-float"),
    # five usable tiles besides the bad one, so reading "false" as true would still split
    pytest.param("bad.json", json.dumps([{"tile_id": i, "row": 0, "col": i, "blank": "false" if i == 5 else False}
                                         for i in range(6)]).encode(), "split", id="tile-record-blank-string"),
    pytest.param("bad.json", json.dumps([{"tile_id": max(i, 1), "row": 0, "col": i, "blank": False}
                                         for i in range(6)]).encode(), "split", id="tile-record-repeated-id"),
    pytest.param("bad.geojson", json.dumps({"type": "FeatureCollection", "height": 4, "width": 4, "features": [
        {"properties": {"id": 1}, "geometry": {"type": "Polygon", "coordinates": [[[x, 0], [x + 1, 0], [x + 1, 1], [x, 1]]]}}
        for x in (0, 2)]}).encode(), "eval", id="eval-feature-id-repeated"),
    # a valid annotation, on a canvas whose stack numpy could not allocate
    pytest.param("ann.json", b'{"img": [{"points": [[0, 0], [4, 0], [4, 4]]}]}',
                 "targets --height 1000000 --width 1000000", id="targets-canvas-too-large"),
])
def test_malformed_inputs_exit_1_without_artifacts(tmp_path, capsys, name, data, stage):
    bad = tmp_path / name
    bad.write_bytes(data)
    formats.write_imap(tmp_path / "ok.imap", np.zeros((4, 4), np.uint32))
    out = str(tmp_path / "out")
    stage, *flags = stage.split()  # the stage, then any flags of its own
    argv = {"tile": ["--raster", str(bad), "--index", out + ".json"],
            "fuse": [str(bad), "--out", out + ".pmap"],
            "eval": ["--pred", str(bad), "--gt", str(tmp_path / "ok.imap"), "--report", out + ".json"],
            "split": ["--index", str(bad), "--out", out + ".json"],
            "targets": ["--annotations", str(bad), "--out-dir", out]}[stage]
    assert_rejected(capsys, tmp_path, [stage, *argv, *flags])


def test_a_targets_canvas_is_bounded_before_the_annotations_are_read(tmp_path, capsys):
    side = math.isqrt(fileio.MAX_CANVAS_PIXELS)
    assert side * side == fileio.MAX_CANVAS_PIXELS == 2 ** 28  # the bound eval puts on GeoJSON canvases
    cli._validate("targets", {"height": side, "width": side})
    cli._validate("targets", {"height": 1, "width": fileio.MAX_CANVAS_PIXELS})
    argv = ["targets", "--annotations", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path / "o"),
            "--height", str(side), "--width", str(side + 1)]
    err = assert_rejected(capsys, tmp_path, argv)  # exit 1, not the exit 2 of the missing file
    assert err == f"bfx: error: targets: canvas {side}x{side + 1} is over {2 ** 28} pixels\n"


def test_a_bad_tile_record_is_named_by_its_index(tmp_path, capsys):
    records = [{"tile_id": i, "row": 0, "col": i, "blank": False} for i in range(6)]
    records[4] = [json.loads("[" * 900 + "]" * 900), "x" * 100_000]  # its repr runs to 100 kB
    index = tmp_path / "tiles.json"
    index.write_text(json.dumps(records))
    err = assert_rejected(capsys, tmp_path, ["split", "--index", str(index), "--out", str(tmp_path / "s.json")])
    assert f"{index}: entry 4: tile record is not an object" in err and len(err) < 200 + len(str(index))


def test_pmap_header_with_a_zero_dimension_names_the_format(tmp_path, capsys):
    # 0 payload bytes, so only the dimension check stands between it and np.empty
    bad = tmp_path / "bad.pmap"
    bad.write_bytes(formats.PMAP_MAGIC + struct.pack("<III", 2 ** 32 - 1, 2 ** 32 - 1, 0))
    err = assert_rejected(capsys, tmp_path, ["fuse", str(bad), "--out", str(tmp_path / "out.pmap")])
    assert "PMAP1" in err and "zero dimension" in err


def write_refusal_inputs(d):
    """Inputs for the refusals below: paired instance maps, image and mask
    stacks, and a 3-channel prediction with its ground-truth planes."""
    labels = np.zeros((4, 4), np.uint32)
    labels[1:3, 1:3] = 1
    for sub, stems in (("pred", "ab"), ("gt", "ac"), ("bare1", ""), ("bare2", "")):
        (d / sub).mkdir()
        for stem in stems:
            formats.write_imap(d / sub / f"{stem}.imap", labels)
    for sub in ("bare1", "bare2"):
        (d / sub / "notes.txt").write_text("no instance map here\n")
    formats.write_imap(d / "one.imap", labels)
    formats.write_pmap(d / "img.pmap", np.full((1, 4, 4), 0.5, np.float32))
    formats.write_pmap(d / "m3.pmap", np.ones((3, 4, 4), np.float32))
    formats.write_pmap(d / "m2.pmap", np.ones((2, 4, 4), np.float32))
    formats.write_pmap(d / "m3wide.pmap", np.ones((3, 4, 5), np.float32))
    formats.write_pmap(d / "p3.pmap", np.full((3, 4, 4), 0.5, np.float32))
    for i in range(3):
        formats.write_pgm(d / f"g{i}.pgm", np.eye(4, dtype=np.uint8))


def cutmix_argv(masks_a="m3", masks_b="m3"):
    return ["cutmix", "--image-a", "{d}/img.pmap", "--masks-a", f"{{d}}/{masks_a}.pmap",
            "--image-b", "{d}/img.pmap", "--masks-b", f"{{d}}/{masks_b}.pmap",
            "--out-image", "{d}/out.pmap", "--out-masks", "{d}/outm.pmap"]


LOSSMATH_TOTAL = ["lossmath", "total", "--pred", "{d}/p3.pmap", "--gt", "{d}/g0.pgm", "{d}/g1.pgm", "{d}/g2.pgm"]
EVAL_REPORT = ["--report", "{d}/r.json", "--colormap", "{d}/cmap", "--csv", "{d}/c.csv"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["eval", "--pred", "{d}/one.imap", "--gt", "{d}/gt", *EVAL_REPORT],
                 "must both be files or both directories", id="eval-file-and-directory"),
    pytest.param(["eval", "--pred", "{d}/pred", "--gt", "{d}/gt", *EVAL_REPORT],
                 "unpaired image ids across directories: ['b', 'c']", id="eval-unpaired-stems"),
    pytest.param(["eval", "--pred", "{d}/bare1", "--gt", "{d}/bare2", *EVAL_REPORT],
                 "no evaluable files found", id="eval-no-instance-files"),
    pytest.param([*cutmix_argv(), "--box", "1,2,x,4"], "box must hold integers", id="cutmix-box-not-integer"),
    pytest.param([*cutmix_argv(masks_b="m2"), "--seed", "1"], "expected a (3, h, w) stack",
                 id="cutmix-masks-two-channels"),
    pytest.param([*cutmix_argv(masks_a="m3wide", masks_b="m3wide"), "--seed", "1"],
                 "mask dimensions differ from the image canvas", id="cutmix-masks-other-canvas"),
    pytest.param(["lr", "--schedule", "poly", "--lr-init", "1", "--lr-max", "0.5", "--out", "{d}/lr.csv"],
                 "need lr_final < lr_init < lr_max", id="lr-init-above-max"),
    pytest.param([*LOSSMATH_TOTAL, "--gamma1", "-1", "--gamma2", "0.5"], "gamma1 + gamma2 must be > 0",
                 id="lossmath-gamma-sum"),
    pytest.param([*LOSSMATH_TOTAL, "--w-building", "-1"], "channel weights must be non-negative",
                 id="lossmath-negative-weight"),
])
def test_library_refusals_exit_1_with_one_line_and_leave_no_files(tmp_path, capsys, argv, message):
    write_refusal_inputs(tmp_path)
    err = assert_rejected(capsys, tmp_path, [a.format(d=tmp_path) for a in argv])
    assert message in err
