import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

import bfx
from bfx import dataprep, evaluate, extract, formats, fusion, raster, targets, trainmath

# the names `bfx/__init__.py` re-exported before it resolved them lazily
EXPORTS = {
    "annotations": ["AnnotationError", "ingest_annotations"],
    "evaluate": ["EvalCounts", "MatchResult", "aggregate_global", "color_map",
                 "export_per_image_csv", "f1_from_counts", "match_instances"],
    "extract": ["PolygonInstance", "PolygonSet", "extract_multi_class", "extract_single_class",
                "filter_small", "make_seeds", "polygon_set_from_geojson", "polygon_set_to_geojson",
                "polygonize", "watershed_assign"],
    "fusion": ["apply_view", "binarize", "ensemble_average"],
    "raster": ["connected_components", "dilate", "erode"],
    "schedules": ["ScheduleParams", "lr_one_cycle", "lr_poly"],
    "targets": ["assemble_targets", "make_border_mask", "make_spacing_mask", "rasterize_polygon"],
    "trainmath": ["ChannelWeights", "LossParams", "bce_loss", "channel_loss", "cutmix", "dice_loss",
                  "gradient_check", "sample_cutmix_box", "total_loss"],
}


def test_every_export_is_the_submodules_object():
    listed = dir(bfx)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"bfx.{module}")
        for name in names:
            assert getattr(bfx, name) is getattr(mod, name), name
            assert name in listed
    assert bfx.__version__ == "0.1.0"


def test_exports_are_looked_up_not_cached(monkeypatch):
    from bfx import targets

    def stand_in(*args):
        return None

    monkeypatch.setattr(targets, "rasterize_polygon", stand_in)
    assert bfx.rasterize_polygon is stand_in
    monkeypatch.undo()
    assert bfx.rasterize_polygon is targets.rasterize_polygon
    assert "rasterize_polygon" not in vars(bfx)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bfx.no_such_name


def test_no_module_imports_a_sibling_name_it_does_not_use():
    unused = []
    root = pathlib.Path(bfx.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert any(path.parent.name == "stages" for path in paths)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bfx")):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        unused.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert unused == []


def test_no_library_module_imports_the_cli():
    """Only the stage runners import `bfx.cli`, so no library call can load it."""
    root = pathlib.Path(bfx.__file__).parent
    importers = []
    for path in sorted(set(root.glob("*.py")) - {root / "cli.py"}):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" if node.module else a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "cli" or n.startswith(("cli.", "bfx.cli")) for n in names):
                importers.append(path.name)
    assert importers == []


def _code_uses(tree):
    """Names that `tree` loads, as a name or an attribute, outside the def
    or class statement that defines that name (a docstring is no use)."""
    uses = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                uses.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return uses


def test_every_export_is_used_by_the_package_or_an_acceptance_criterion():
    root = pathlib.Path(bfx.__file__).parent
    used = set()
    for path in sorted(root.rglob("*.py")):
        if path != root / "__init__.py":
            used |= _code_uses(ast.parse(path.read_text(encoding="utf-8")))
    acceptance = pathlib.Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    named = set()
    for node in ast.walk(ast.parse(acceptance)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):  # from bfx.evaluate import EvalCounts
            named.add(node.name)
    assert sorted(set(bfx._LAZY) - used - named) == []


LABELS = np.array([[0, 1], [1, 1]], np.uint32)
TWO_LABELS = np.array([[0, 1], [1, 2]], np.uint32)

# library refusals: (a call given an empty directory, the message it raises)
REFUSALS = {
    "color-map-shapes": (lambda d: evaluate.color_map(LABELS, np.zeros((2, 3), np.uint32),
                                                      evaluate.MatchResult()),
                         "instance map dimensions differ: (2, 2) vs (2, 3)"),
    "color-map-gt-unaccounted": (lambda d: evaluate.color_map(LABELS, LABELS, evaluate.MatchResult(
        counts=evaluate.EvalCounts(0, 1, 0), unmatched_pred=[1])),
        "match result inconsistent with the ground-truth map"),
    "color-map-prediction-matched-twice": (
        lambda d: evaluate.color_map(LABELS, TWO_LABELS, evaluate.MatchResult(
            [(1, 1, 0.5), (1, 2, 0.5)], evaluate.EvalCounts(2, 0, 0))),
        "match result inconsistent with the prediction map"),
    "color-map-counts-too-low": (
        lambda d: evaluate.color_map(LABELS, TWO_LABELS, evaluate.MatchResult([(1, 1, 0.5)], unmatched_gt=[2])),
        "match result counts disagree with its pairs and unmatched ids"),
    "color-map-counts-too-high": (
        lambda d: evaluate.color_map(LABELS, TWO_LABELS, evaluate.MatchResult(
            [(1, 1, 0.5)], evaluate.EvalCounts(5, 0, 1), unmatched_gt=[2])),
        "match result counts disagree with its pairs and unmatched ids"),
    "polygon-set-no-rows": (lambda d: evaluate.rasterize_polygon_set(extract.PolygonSet("a", 0, 4)),
                            "canvas dimensions must be >= 1"),
    "negative-counts": (lambda d: evaluate.EvalCounts(-1, 0, 0), "counts must be non-negative"),
    "watershed-shapes": (lambda d: extract.watershed_assign(LABELS, np.ones((2, 3), np.uint8)),
                         "seed/region dimensions differ: (2, 2) vs (2, 3)"),
    "watershed-float-seeds": (lambda d: extract.watershed_assign(np.zeros((2, 2)), np.ones((2, 2))),
                              "expected a 2-D integer seed map"),
    "filter-small-3d": (lambda d: extract.filter_small(LABELS[None]), "expected a 2-D integer instance map"),
    "ppm-2d": (lambda d: formats.write_ppm(d / "x.ppm", np.zeros((2, 2), np.uint8)),
               "PPM payload must be an (h, w, 3) uint8 array"),
    "pmap-2d": (lambda d: formats.write_pmap(d / "x.pmap", np.zeros((2, 2), np.float32)),
                "probability map must be (channels, h, w), got shape (2, 2)"),
    "imap-3d": (lambda d: formats.write_imap(d / "x.imap", LABELS[None]),
                "instance map must be 2-D, got shape (1, 2, 2)"),
    "imap-negative": (lambda d: formats.write_imap(d / "x.imap", np.array([[0, -1]])),
                      "instance labels must be non-negative integers"),
    "imap-int64-above-uint32": (
        lambda d: formats.write_imap(d / "x.imap", np.array([[0, 2 ** 32 + 1]], np.int64)),
        "instance label 4294967297 does not fit IMAP1's uint32"),
    "imap-uint64-above-uint32": (
        lambda d: formats.write_imap(d / "x.imap", np.array([[2 ** 64 - 1]], np.uint64)),
        "instance label 18446744073709551615 does not fit IMAP1's uint32"),
    "view-1d": (lambda d: fusion.apply_view(np.zeros(4), "hflip"),
                "expected a 2-D mask or (c, h, w) stack, got shape (4,)"),
    "ensemble-2d": (lambda d: fusion.ensemble_average([np.zeros((2, 2))]),
                    "expected (c, h, w) stacks, got shape (2, 2)"),
    "binarize-2d": (lambda d: fusion.binarize(np.zeros((2, 2)), 0),
                    "expected a (c, h, w) stack, got shape (2, 2)"),
    "mask-1d": (lambda d: raster.as_mask(np.zeros(4)), "mask must be 2-D and non-empty, got shape (4,)"),
    "ring-no-rows": (lambda d: targets.rasterize_polygon([[0, 0], [1, 0], [0, 1]], 0, 4),
                     "canvas dimensions must be >= 1"),
    "loss-eps-zero": (lambda d: trainmath.LossParams(eps=0), "eps must be > 0"),
    "loss-clamp-half": (lambda d: trainmath.LossParams(clamp=0.5), "clamp must lie in (0, 0.5)"),
    "crop-not-half": (lambda d: dataprep.subdivide_tile(None, [], 1024, 500),
                      "crop_size must be half of tile_size"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusals_name_their_fault_and_write_nothing(tmp_path, name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []  # no file, and no `.tmp.*` left by a writer
