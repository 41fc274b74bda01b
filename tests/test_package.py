import importlib

import pytest

import bfx

# the names `bfx/__init__.py` re-exported before it resolved them lazily
EXPORTS = {
    "annotations": ["AnnotationError", "ingest_annotations"],
    "evaluate": ["EvalCounts", "MatchResult", "PixelScores", "aggregate_global", "color_map",
                 "export_per_image_csv", "f1_from_counts", "instance_iou", "match_instances",
                 "pixel_scores"],
    "extract": ["PolygonInstance", "PolygonSet", "extract_multi_class", "extract_single_class",
                "filter_small", "make_seeds", "polygon_set_from_geojson", "polygon_set_to_geojson",
                "polygonize", "watershed_assign"],
    "fusion": ["apply_view", "binarize", "ensemble_average", "tta_average"],
    "raster": ["connected_components", "dilate", "erode", "mask_xor"],
    "targets": ["TargetStack", "assemble_targets", "make_border_mask", "make_spacing_mask",
                "rasterize_polygon"],
    "trainmath": ["ChannelWeights", "LossParams", "ScheduleParams", "bce_loss", "channel_loss",
                  "cutmix", "dice_loss", "gradient_check", "lr_one_cycle", "lr_poly",
                  "sample_cutmix_box", "total_loss"],
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
