"""Instance extraction: border subtraction, seeded watershed, area
filtering, and exterior polygonization.

The watershed is realized as geodesic nearest-seed assignment: a
layer-synchronous multi-source breadth-first expansion with unit cost over
the 8-neighborhood, constrained to the region mask. Pixels at equal
geodesic distance from several seeds take the smallest label, which makes
the partition independent of seed enumeration order. Region components
that contain no seed receive one fresh label each, appended after the seed
labels in anchor order, so a building whose interior was fully predicted
as border is not silently dropped (the area filter still removes debris).
The expansion is FIFO flooding (Vincent & Soille, IEEE TPAMI 1991) on a
flat, padded canvas. The first frontier is the seed pixels that touch an
unassigned region pixel; each layer is the frontier's unassigned
8-neighbours, and each of its pixels takes the smallest label among its 8
neighbours, all of which are either in the previous layer or unlabelled.
Every pixel enters a layer once, so the whole assignment is O(H*W) however
deep the region is.

Exteriors are traced along pixel edges in corner coordinates. At a pinch
corner (two pixels of one 8-connected instance touching only diagonally)
the walk prefers the left turn, keeping the trace on the outer boundary at
the cost of revisiting that corner once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import annotations, fusion, raster

LABEL_SENTINEL = np.uint32(0xFFFFFFFF)

# Largest canvas, in pixels, that a GeoJSON FeatureCollection may declare:
# rebuilding its instance map allocates that canvas (2**28 uint32 labels are
# 1 GiB), so a larger declared size is rejected as malformed input.
MAX_GEOJSON_CANVAS_PIXELS = 2 ** 28

# corner-walk directions: +x, +y, -x, -y (y grows downward)
_DX = (1, 0, -1, 0)
_DY = (0, 1, 0, -1)


@dataclass
class PolygonInstance:
    """One extracted building: a dense id, the exterior ring traced along
    pixel edges as (x, y) corner coordinates, and its raster support size."""

    id: int
    exterior: np.ndarray
    area_px: int


@dataclass
class PolygonSet:
    image_id: str
    height: int
    width: int
    instances: list[PolygonInstance] = field(default_factory=list)


def make_seeds(building, border) -> np.ndarray:
    """Label the building nuclei: components of building minus border."""
    b = raster.as_mask(building)
    r = raster.as_mask(border)
    if b.shape != r.shape:
        raise ValueError(f"mask dimensions differ: {b.shape} vs {r.shape}")
    return raster.connected_components(b & (1 - r), 8)


def watershed_assign(seeds, region) -> np.ndarray:
    """Expand seed labels over the region by geodesic BFS (see module doc)."""
    s = np.asarray(seeds)
    reg = raster.as_mask(region)
    if s.shape != reg.shape:
        raise ValueError(f"seed/region dimensions differ: {s.shape} vs {reg.shape}")
    if not np.issubdtype(s.dtype, np.integer):
        raise ValueError("seed map must be integer labels")
    top = int(s.max())
    if int(s.min()) < 0 or top >= int(LABEL_SENTINEL):
        raise ValueError(f"seed labels must lie in 0..{int(LABEL_SENTINEL) - 1}")
    seeded = s > 0
    if (seeded & (reg == 0)).any():
        raise ValueError("seed pixel outside region")

    # canvas padded by one pixel, so flat neighbour offsets never wrap; every
    # pixel without a label (unreached, outside the region, pad) holds the
    # sentinel, which is larger than any label
    h, w = reg.shape
    stride = w + 2
    labels = np.full((h + 2, stride), LABEL_SENTINEL, np.uint32)
    inner = labels[1:-1, 1:-1]
    np.copyto(inner, s, where=seeded, casting="unsafe")
    unreached = np.zeros(labels.shape, bool)
    unassigned = unreached[1:-1, 1:-1]
    unassigned[...] = (reg == 1) & ~seeded

    # the first frontier is the seed pixels with an open 8-neighbour
    touches = np.zeros_like(unreached)
    near = touches[1:-1, 1:-1]
    for dr, dc in raster.NEIGHBORS_8:
        near |= unreached[1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc]
    near &= seeded
    frontier = np.flatnonzero(touches)

    # offsets are shifted by base, so neighbour p + dr*stride + dc of pixel p
    # is element p - base of the view starting at its offset; one view per
    # offset saves an index addition per gather
    flat = labels.ravel()
    unreached = unreached.ravel()
    base = stride + 1
    offsets = [base + dr * stride + dc for dr, dc in raster.NEIGHBORS_8]
    remaining = int(np.count_nonzero(unassigned))
    while frontier.size and remaining:
        # the open neighbours of the frontier are the next layer; clearing
        # them per offset keeps later offsets from taking a pixel twice
        rel = frontier - base
        layer = []
        for off in offsets:
            nbr = rel[unreached[off:][rel]] + off
            unreached[nbr] = False
            layer.append(nbr)
        frontier = np.concatenate(layer)
        remaining -= frontier.size
        # every labelled neighbour of a new pixel is in the previous layer (an
        # older one would have reached it sooner) and the others hold the
        # sentinel, so the minimum over all 8 is its nearest seeds' smallest
        # label; all gathers precede the write, so the layer never reads itself
        rel = frontier - base
        best = flat[offsets[0]:][rel]
        for off in offsets[1:]:
            np.minimum(best, flat[off:][rel], out=best)
        flat[frontier] = best

    out = np.zeros((h, w), np.uint32)
    np.copyto(out, inner, where=reg == 1)
    if remaining:
        # seedless region components: one fresh label each, anchor order
        extra = raster.connected_components(unassigned, 8)
        if top + int(extra.max()) > int(LABEL_SENTINEL):
            raise ValueError("seedless components would push labels past uint32")
        out[unassigned] = extra[unassigned] + np.uint32(top)
    return out


def filter_small(instances, min_area: int = 140) -> np.ndarray:
    """Clear labels whose support is below `min_area` pixels (strictly), then
    relabel survivors densely by their topmost-leftmost pixel."""
    lab = np.asarray(instances)
    if lab.ndim != 2 or not np.issubdtype(lab.dtype, np.integer):
        raise ValueError("expected a 2-D integer instance map")
    n = int(lab.max(initial=0))
    if n == 0:
        return lab.astype(np.uint32)
    counts = np.bincount(lab.ravel(), minlength=n + 1)
    keep = counts >= min_area
    keep[0] = False
    cleared = np.where(keep[lab], lab, 0).astype(np.uint32)

    flat = cleared.ravel()
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return cleared
    survivors, first = np.unique(flat[nz], return_index=True)
    order = survivors[np.argsort(nz[first], kind="stable")]
    remap = np.zeros(n + 1, np.uint32)
    remap[order] = np.arange(1, len(order) + 1, dtype=np.uint32)
    return remap[cleared]


def _trace_exterior(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Walk the outer boundary of a pixel set; `rows`/`cols` must be sorted
    row-major so (rows[0], cols[0]) is the anchor pixel."""
    r0, c0 = int(rows.min()), int(cols.min())
    g = np.zeros((int(rows.max()) - r0 + 3, int(cols.max()) - c0 + 3), bool)
    g[rows - r0 + 1, cols - c0 + 1] = True

    def has_edge(d: int, x: int, y: int) -> bool:
        if d == 0:
            return g[y, x] and not g[y - 1, x]
        if d == 1:
            return g[y, x - 1] and not g[y, x]
        if d == 2:
            return g[y - 1, x - 1] and not g[y, x - 1]
        return g[y - 1, x] and not g[y - 1, x - 1]

    # start at the anchor's top-left corner heading +x (always a boundary edge)
    sx = int(cols[0]) - c0 + 1
    sy = int(rows[0]) - r0 + 1
    verts = [(sx, sy)]
    x, y, d = sx + 1, sy, 0
    limit = 4 * rows.size + 8
    while (x, y) != (sx, sy):
        for turn in (-1, 0, 1):  # prefer left, then straight, then right
            nd = (d + turn) % 4
            if has_edge(nd, x, y):
                break
        else:
            raise AssertionError("boundary walk left the edge set")
        if nd != d:
            verts.append((x, y))
            d = nd
        x += _DX[nd]
        y += _DY[nd]
        limit -= 1
        if limit < 0:
            raise AssertionError("boundary walk failed to close")

    out = np.asarray(verts, np.int64)
    out[:, 0] += c0 - 1
    out[:, 1] += r0 - 1
    return out


def polygonize(instances, image_id: str = "") -> PolygonSet:
    """Trace the exterior ring of every labeled instance.

    Rings use pixel-corner coordinates and positive (counter-clockwise in
    x/y image axes) orientation; interior holes are ignored. area_px is the
    raster support size, so the sum over instances equals the number of
    labeled pixels.
    """
    lab = np.asarray(instances)
    if lab.ndim != 2 or not np.issubdtype(lab.dtype, np.integer):
        raise ValueError("expected a 2-D integer instance map")
    h, w = lab.shape
    result = PolygonSet(image_id, h, w)
    n = int(lab.max(initial=0))
    if n == 0:
        return result

    flat = lab.ravel()
    nz = np.flatnonzero(flat)
    order = np.argsort(flat[nz], kind="stable")  # stable keeps row-major order per label
    nz = nz[order]
    vals = flat[nz]
    starts = np.searchsorted(vals, np.arange(1, n + 1), side="left")
    ends = np.searchsorted(vals, np.arange(1, n + 1), side="right")
    for lbl in range(1, n + 1):
        idx = nz[starts[lbl - 1]:ends[lbl - 1]]
        if idx.size == 0:
            raise ValueError(f"instance labels are not dense: {lbl} unused")
        ring = _trace_exterior(idx // w, idx % w)
        result.instances.append(PolygonInstance(lbl, ring, int(idx.size)))
    return result


def single_class_instances(building, min_area: int = 140) -> np.ndarray:
    """Instance map of every non-touching blob (no border separation)."""
    comps = raster.connected_components(building, 8)
    return filter_small(comps, min_area)


def multi_class_instances(fused, threshold: float = 0.3, min_area: int = 140,
                          use_spacing: bool = True) -> np.ndarray:
    """Instance map from a fused (building, border[, spacing]) probability
    stack: threshold, carve seeds by border subtraction, grow them back by
    watershed, and drop debris below min_area."""
    pmap = np.asarray(fused, np.float32)
    if pmap.ndim != 3 or pmap.shape[0] < 2:
        raise ValueError("fused map must have at least building and border channels")
    building = fusion.binarize(pmap, 0, threshold)
    border = fusion.binarize(pmap, 1, threshold)
    if use_spacing and pmap.shape[0] >= 3:
        building = building & (1 - fusion.binarize(pmap, 2, threshold))
    seeds = make_seeds(building, border)
    grown = watershed_assign(seeds, building)
    return filter_small(grown, min_area)


def extract_single_class(building, min_area: int = 140, image_id: str = "") -> PolygonSet:
    return polygonize(single_class_instances(building, min_area), image_id)


def extract_multi_class(fused, threshold: float = 0.3, min_area: int = 140,
                        use_spacing: bool = True, image_id: str = "") -> PolygonSet:
    return polygonize(multi_class_instances(fused, threshold, min_area, use_spacing), image_id)


# ---------------------------------------------------------------------------
# GeoJSON interchange
# ---------------------------------------------------------------------------


def polygon_set_to_geojson(ps: PolygonSet) -> dict:
    """FeatureCollection with id/area_px properties; canvas dimensions ride
    along as top-level members so instance maps can be rebuilt."""
    features = []
    for inst in ps.instances:
        ring = [[int(x), int(y)] for x, y in inst.exterior]
        ring.append(ring[0])
        features.append({
            "type": "Feature",
            "properties": {"id": int(inst.id), "area_px": int(inst.area_px)},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    return {
        "type": "FeatureCollection",
        "image_id": ps.image_id,
        "height": int(ps.height),
        "width": int(ps.width),
        "features": features,
    }


def polygon_set_from_geojson(doc: dict) -> PolygonSet:
    """Read back a FeatureCollection as `polygon_set_to_geojson` writes it;
    features and rings follow the polygon-input rules of `annotations`.
    Each feature's `id` (default: its 1-based position) is its instance
    label, so ids must be distinct."""
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    height, width = doc.get("height"), doc.get("width")
    if not (annotations._is_json_int(height) and annotations._is_json_int(width)):
        raise ValueError("FeatureCollection lacks integer 'height'/'width' members")
    if height < 1 or width < 1 or height * width > MAX_GEOJSON_CANVAS_PIXELS:
        raise ValueError(f"FeatureCollection canvas {height}x{width} is outside "
                         f"1..{MAX_GEOJSON_CANVAS_PIXELS} pixels")
    image_id = doc.get("image_id", "")
    if not isinstance(image_id, str):
        raise ValueError("FeatureCollection 'image_id' must be a string")
    ps = PolygonSet(image_id, height, width)
    first_with_id = {}
    for k, props, ring in annotations._polygon_features(doc):
        inst_id, area_px = props.get("id", k + 1), props.get("area_px", 0)
        if not (annotations._is_json_int(inst_id) and annotations._is_json_int(area_px)):
            raise ValueError(f"feature {k}: 'id' and 'area_px' must be integers")
        if not 0 < inst_id < 2 ** 32:
            raise ValueError(f"feature {k}: id {inst_id} is not a positive uint32 label")
        if area_px < 0:
            raise ValueError(f"feature {k}: area_px {area_px} is negative")
        if inst_id in first_with_id:
            raise ValueError(f"feature {k}: id {inst_id} is already the id of feature "
                             f"{first_with_id[inst_id]}")
        first_with_id[inst_id] = k
        ps.instances.append(PolygonInstance(inst_id, ring, area_px))
    return ps
