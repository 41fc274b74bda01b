"""Polygon input: annotation ingestion and the rules every polygon reader shares.

Two annotation schemas are accepted:

* plain JSON: an object mapping image id to an array of polygons, each an
  object with a "points" field holding [x, y] pairs in pixel coordinates
  (x rightward, y downward, origin at the top-left corner);
* GeoJSON: a FeatureCollection of Polygon features in pixel coordinates,
  exterior ring only. A feature may carry a string "image_id" property;
  features without one are grouped under the collection's own string
  "image_id" member (as `bfx extract` writes it), else under the empty id "".

`_ring` and `_polygon_features` are the one ring rule and the one
FeatureCollection walk behind annotations, `extract.polygon_set_from_geojson`
and `targets.rasterize_polygon`. A ring's coordinates are JSON numbers (not
strings or booleans) or a numeric array; a closing vertex, equal to the
first one but not to the one before it, is dropped; at least 3 finite
vertices must remain, and the ring's x and y extents (max - min) must be
finite floats, so that no edge's length overflows. Rings come back as (n, 2)
float64 arrays of (x, y) vertices, implicitly closed, and such a ring passes
the rule unchanged. Annotation coordinates must also be non-negative.
"""

from __future__ import annotations

import math

import numpy as np

# bool is an int subclass, so it is excluded separately
_NUMBER_TYPES = (int, float, np.integer, np.floating)


class AnnotationError(ValueError):
    """Malformed polygon input: an annotation document, a prediction GeoJSON
    or a single ring. The message locates the fault by image id and polygon
    index, or by feature index."""


def _ring(points, where: str = "") -> np.ndarray:
    """Validate one ring into an (n, 2) float64 array (see module doc); a
    refusal's message starts with `where: ` when `where` is given."""
    at = f"{where}: " if where else ""
    try:
        pts = np.asarray(points)
    except (TypeError, ValueError):  # ragged nesting
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 2:
        raise AnnotationError(at + "ring must be an array of [x, y] pairs")
    if isinstance(points, np.ndarray):
        numeric = pts.dtype.kind in "iuf"
    else:  # numpy would read "2" as 2.0 and, next to numbers, True as 1
        numeric = all(isinstance(v, _NUMBER_TYPES) and not isinstance(v, bool)
                      for xy in points for v in xy)
    if not numeric:
        raise AnnotationError(at + "ring coordinates must be numbers")
    try:
        pts = pts.astype(np.float64, copy=False)
    except OverflowError:  # an integer beyond the float64 range
        raise AnnotationError(at + "non-finite coordinate") from None
    # a last vertex that repeats the one before it is a zero-length edge (it
    # crosses no scanline), kept as given: a checked ring checks to itself
    if len(pts) >= 2 and pts[0].tolist() == pts[-1].tolist() != pts[-2].tolist():
        pts = pts[:-1]
    if len(pts) < 3:
        raise AnnotationError(at + "ring has fewer than 3 vertices")
    # below 2**1023 in magnitude, no two coordinates differ by an overflow;
    # NaN fails the test too
    if not np.abs(pts).max() < 2.0 ** 1023:
        if not np.isfinite(pts).all():
            raise AnnotationError(at + "non-finite coordinate")
        (x0, y0), (x1, y1) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):  # Python floats overflow silently
            raise AnnotationError(at + "ring's x or y extent (max - min) is not a finite float")
    return pts


def _polygon_features(doc: dict):
    """Yield (k, properties, exterior ring) for each feature k of a
    FeatureCollection (see module doc); errors name the feature."""
    features = doc.get("features")
    if not isinstance(features, list):
        raise AnnotationError("FeatureCollection without a 'features' list")
    for k, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise AnnotationError(f"feature {k}: expected a GeoJSON Feature object")
        geom = feat.get("geometry")
        props = {} if feat.get("properties") is None else feat["properties"]
        if not isinstance(geom, dict) or not isinstance(props, dict):
            raise AnnotationError(f"feature {k}: 'geometry' and 'properties' must be objects")
        if geom.get("type") != "Polygon":
            raise AnnotationError(f"feature {k}: unsupported geometry type {geom.get('type')!r}")
        coords = geom.get("coordinates")
        if not coords or not isinstance(coords, list):
            raise AnnotationError(f"feature {k}: Polygon without a list of coordinates")
        # exterior ring only; interior rings (holes) are out of scope
        yield k, props, _ring(coords[0], f"feature {k}")


def _non_negative(ring: np.ndarray, where: str) -> np.ndarray:
    if ring.min() < 0:
        raise AnnotationError(f"{where}: negative pixel coordinate")
    return ring


def _ingest_plain(doc: dict) -> dict[str, list[np.ndarray]]:
    out: dict[str, list[np.ndarray]] = {}
    for image_id, polys in doc.items():
        if not isinstance(polys, list):
            raise AnnotationError(f"image {image_id!r}: expected a list of polygons")
        rings = []
        for i, poly in enumerate(polys):
            where = f"image {image_id!r} polygon {i}"
            if not isinstance(poly, dict) or "points" not in poly:
                raise AnnotationError(f"{where}: missing 'points'")
            rings.append(_non_negative(_ring(poly["points"], where), where))
        out[str(image_id)] = rings
    return out


def _ingest_geojson(doc: dict) -> dict[str, list[np.ndarray]]:
    default_id = doc.get("image_id", "")
    if not isinstance(default_id, str):
        raise AnnotationError("FeatureCollection 'image_id' must be a string")
    out: dict[str, list[np.ndarray]] = {}
    for k, props, ring in _polygon_features(doc):
        image_id = props.get("image_id", default_id)
        if not isinstance(image_id, str):
            raise AnnotationError(f"feature {k}: 'image_id' must be a string")
        rings = out.setdefault(image_id, [])
        rings.append(_non_negative(ring, f"image {image_id!r} polygon {len(rings)}"))
    return out


def ingest_annotations(doc) -> dict[str, list[np.ndarray]]:
    """Validate an annotation document into per-image polygon ring lists."""
    if not isinstance(doc, dict):
        raise AnnotationError("annotation document must be a JSON object")
    if doc.get("type") == "FeatureCollection":
        return _ingest_geojson(doc)
    return _ingest_plain(doc)
