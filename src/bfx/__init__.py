"""Building-footprint instance extraction and evaluation toolkit.

The pipeline turns polygon annotations into multi-class training targets
(building / border / spacing), fuses probability maps across folds and
test-time views, separates touching buildings with a seeded watershed,
vectorizes the instances, and scores them object-by-object. The training
mathematics (losses with analytic gradients, learning-rate schedules,
rectangle-paste mixing) ships as a standalone, gradient-verified suite.
"""

from .annotations import AnnotationError, ingest_annotations
from .evaluate import (EvalCounts, MatchResult, PixelScores, aggregate_global,
                       color_map, export_per_image_csv, f1_from_counts,
                       instance_iou, match_instances, pixel_scores)
from .extract import (PolygonInstance, PolygonSet, extract_multi_class,
                      extract_single_class, filter_small, make_seeds,
                      polygon_set_from_geojson, polygon_set_to_geojson,
                      polygonize, watershed_assign)
from .fusion import apply_view, binarize, ensemble_average, tta_average
from .raster import connected_components, dilate, erode, mask_xor
from .targets import (TargetStack, assemble_targets, make_border_mask,
                      make_spacing_mask, rasterize_polygon)
from .trainmath import (ChannelWeights, LossParams, ScheduleParams, bce_loss,
                        channel_loss, cutmix, dice_loss, gradient_check,
                        lr_one_cycle, lr_poly, sample_cutmix_box, total_loss)

__version__ = "0.1.0"
