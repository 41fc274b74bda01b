"""Building-footprint instance extraction and evaluation toolkit.

The pipeline turns polygon annotations into multi-class training targets
(building / border / spacing), fuses probability maps across folds and
test-time views, separates touching buildings with a seeded watershed,
vectorizes the instances, and scores them object-by-object. The training
mathematics (losses with analytic gradients, learning-rate schedules,
rectangle-paste mixing) ships as a standalone, gradient-verified suite.

`import bfx` loads no submodule. `_LAZY` maps each name the package
exports to the submodule defining it, and the module `__getattr__`
(PEP 562) imports that submodule on first use, so `bfx.rasterize_polygon`
is `bfx.targets.rasterize_polygon`. Names are looked up on every access,
not cached here, so rebinding a submodule's attribute is seen through the
package too.

The paper's parameters are written here, once each: the defaults of
`cli.STAGES`, of the library signatures and of the parameter records
(`trainmath.LossParams` and `ChannelWeights`, `schedules.ScheduleParams`)
are these names. They are plain numbers, so reading them loads nothing.
"""

from importlib import import_module as _import_module

# fuse, extract: a probability at or above it is foreground
THRESHOLD = 0.3
# extract: an instance of fewer pixels is debris
MIN_AREA = 140
# targets: border width k in pixels, a ring's fill minus its (2k+1)^2 erosion
BORDER_WIDTH = 2
# eval: a prediction and a ground-truth instance match at IoU >= it
IOU_THRESHOLD = 0.5
# split: folds over the non-blank tiles
FOLDS = 5
# lossmath: soft Dice's beta and smoothing, the Dice and BCE mix, BCE's clamp
LOSS_BETA = 1.0
LOSS_EPS = 1e-4
LOSS_GAMMA1 = 0.5
LOSS_GAMMA2 = 0.5
LOSS_CLAMP = 1e-7
# lossmath total: the building, border and spacing channels' weights
W_BUILDING = 1.0
W_BORDER = 2.0
W_SPACING = 2.0
# lossmath gradcheck: the central difference's step
GRADCHECK_STEP = 1e-5
# lr: the one-cycle schedule and polynomial decay
TOTAL_EPOCHS = 100
UP_EPOCHS = 40
LR_MAX = 0.0001
LR_INIT = LR_MAX / 20
LR_FINAL = LR_INIT / 1000
POLY_POWER = 0.9
POLY_LR0 = 0.001

_SUBMODULES = ("annotations", "cli", "dataprep", "evaluate", "extract", "fileio", "formats",
               "fusion", "raster", "schedules", "targets", "tiling", "trainmath")

_LAZY = {name: module for module, names in {
    "annotations": ("AnnotationError", "ingest_annotations"),
    "evaluate": ("EvalCounts", "MatchResult", "aggregate_global", "color_map",
                 "export_per_image_csv", "f1_from_counts", "match_instances"),
    "extract": ("PolygonInstance", "PolygonSet", "extract_multi_class", "extract_single_class",
                "filter_small", "make_seeds", "polygon_set_from_geojson", "polygon_set_to_geojson",
                "polygonize", "watershed_assign"),
    "fusion": ("apply_view", "binarize", "ensemble_average"),
    "raster": ("connected_components", "dilate", "erode"),
    "schedules": ("ScheduleParams", "lr_one_cycle", "lr_poly"),
    "targets": ("assemble_targets", "make_border_mask", "make_spacing_mask", "rasterize_polygon"),
    "trainmath": ("ChannelWeights", "LossParams", "bce_loss", "channel_loss", "cutmix", "dice_loss",
                  "gradient_check", "sample_cutmix_box", "total_loss"),
}.items() for name in names}

__all__ = sorted(_LAZY)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _SUBMODULES:  # importing binds it here, so this runs once per submodule
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
