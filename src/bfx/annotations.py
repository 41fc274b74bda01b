"""Polygon annotation ingestion.

Two input schemas are accepted:

* plain JSON: an object mapping image id to an array of polygons, each an
  object with a "points" field holding [x, y] pairs in pixel coordinates
  (x rightward, y downward, origin at the top-left corner);
* GeoJSON: a FeatureCollection of Polygon features in pixel coordinates,
  exterior ring only. A feature may carry an "image_id" property; features
  without one are grouped under the empty id "".

Rings are returned as (n, 2) float arrays of (x, y) vertices, implicitly
closed. A closing vertex equal to the first one is dropped on ingest.
"""

from __future__ import annotations

import numpy as np


class AnnotationError(ValueError):
    """Malformed annotation; the message names the image id and polygon index."""


def make_ring(points, image_id: str = "", index: int = 0) -> np.ndarray:
    where = f"image {image_id!r} polygon {index}"
    try:
        pts = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise AnnotationError(f"{where}: points are not numeric pairs") from exc
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise AnnotationError(f"{where}: points must be an array of [x, y] pairs")
    if len(pts) >= 2 and np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    if len(pts) < 3:
        raise AnnotationError(f"{where}: ring has fewer than 3 vertices")
    if not np.isfinite(pts).all():
        raise AnnotationError(f"{where}: non-finite coordinate")
    if pts.min() < 0:
        raise AnnotationError(f"{where}: negative pixel coordinate")
    return pts


def _ingest_plain(doc: dict) -> dict[str, list[np.ndarray]]:
    out: dict[str, list[np.ndarray]] = {}
    for image_id, polys in doc.items():
        if not isinstance(polys, list):
            raise AnnotationError(f"image {image_id!r}: expected a list of polygons")
        rings = []
        for i, poly in enumerate(polys):
            if not isinstance(poly, dict) or "points" not in poly:
                raise AnnotationError(f"image {image_id!r} polygon {i}: missing 'points'")
            rings.append(make_ring(poly["points"], image_id, i))
        out[str(image_id)] = rings
    return out


def _ingest_geojson(doc: dict) -> dict[str, list[np.ndarray]]:
    features = doc.get("features")
    if not isinstance(features, list):
        raise AnnotationError("FeatureCollection without a 'features' list")
    out: dict[str, list[np.ndarray]] = {}
    counters: dict[str, int] = {}
    for k, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise AnnotationError(f"feature {k}: expected a GeoJSON Feature object")
        geom = feat.get("geometry") or {}
        props = feat.get("properties") or {}
        if not isinstance(geom, dict) or not isinstance(props, dict):
            raise AnnotationError(f"feature {k}: 'geometry' and 'properties' must be objects")
        if geom.get("type") != "Polygon":
            raise AnnotationError(f"unsupported geometry type {geom.get('type')!r}")
        coords = geom.get("coordinates")
        if not coords or not isinstance(coords, list):
            raise AnnotationError("Polygon feature without coordinates")
        image_id = str(props.get("image_id", ""))
        index = counters.get(image_id, 0)
        counters[image_id] = index + 1
        # exterior ring only; interior rings (holes) are out of scope
        out.setdefault(image_id, []).append(make_ring(coords[0], image_id, index))
    return out


def ingest_annotations(doc) -> dict[str, list[np.ndarray]]:
    """Validate an annotation document into per-image polygon ring lists."""
    if not isinstance(doc, dict):
        raise AnnotationError("annotation document must be a JSON object")
    if doc.get("type") == "FeatureCollection":
        return _ingest_geojson(doc)
    return _ingest_plain(doc)

