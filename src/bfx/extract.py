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

Exteriors follow pixel edges in corner coordinates, all instances in one
vectorized pass (crack code, Freeman, IRE Trans. EC-10, 1961). Each pixel
side between two different labels is a directed edge of each nonzero side,
with its owner on the right; the four side lists come out row-major, so
the edges' (direction, start vertex) keys are sorted. The successor table
gives every edge the next one around its owner's label: at the end vertex
the left turn, else straight on, else the right turn. At a pinch corner
(two pixels of one instance touching only diagonally) preferring the left
turn keeps the boundary on the outside, visiting that corner twice. The
successors split the edges into cycles, one exterior per label and one per
hole. Each exterior is cut just before its anchor edge, the top side of
the label's first pixel in row-major order, whose predecessor is always
that pixel's left side. Pointer-jumping list ranking (Wyllie, 1979) then
gives each edge its distance to the cut; a round that retires no edge
ends it, and the edges still on cycles are holes, which are dropped. The
rank places each edge in its ring, and a vertex is each edge whose
direction differs from the one before it. A label's area is the summed
length of its row runs, each from a left side to the next right side, so
the edges give it without a count over the canvas. Ranking costs
O(E log P) for E edges and a longest perimeter P, finding successors and
anchors by binary search over the sorted keys O(E log E), and the rest
O(H*W + E). Label maps, seeds included, keep the rule of `bfx.raster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import MIN_AREA, THRESHOLD, fusion, raster
from .fileio import MAX_CANVAS_PIXELS, _is_json_int

LABEL_SENTINEL = np.uint32(0xFFFFFFFF)

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
    return raster.connected_components(b & (1 - r))


def watershed_assign(seeds, region) -> np.ndarray:
    """Expand seed labels over the region by geodesic BFS (see module doc).
    Seed labels, at most the pixel count, are below the sentinel on any
    canvas of fewer than 2**32 - 1 pixels."""
    s, top = raster._instance_map(seeds, "seed")
    reg = raster.as_mask(region)
    if s.shape != reg.shape:
        raise ValueError(f"seed/region dimensions differ: {s.shape} vs {reg.shape}")
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
        extra = raster.connected_components(unassigned)
        if top + int(extra.max()) > int(LABEL_SENTINEL):
            raise ValueError("seedless components would push labels past uint32")
        out[unassigned] = extra[unassigned] + np.uint32(top)
    return out


def filter_small(instances, min_area: int = MIN_AREA) -> np.ndarray:
    """Clear labels whose support is below `min_area` pixels (strictly), then
    relabel survivors densely by their topmost-leftmost pixel."""
    lab, n = raster._instance_map(instances, "instance")
    counts = np.bincount(lab.ravel(), minlength=n + 1)
    keep = counts >= min_area
    keep[0] = False

    # a kept label's first pixel in row-major order starts a run of its row,
    # so ranking the kept run starts ranks the survivors; dropped labels
    # remap to 0
    head = keep[lab]
    head[:, 1:] &= lab[:, 1:] != lab[:, :-1]
    starts = np.flatnonzero(head)
    survivors, first = np.unique(lab.ravel()[starts], return_index=True)
    order = survivors[np.argsort(starts[first], kind="stable")]
    remap = np.zeros(n + 1, np.uint32)
    remap[order] = np.arange(1, len(order) + 1, dtype=np.uint32)
    return remap[lab]


def polygonize(instances, image_id: str = "") -> PolygonSet:
    """Trace the exterior ring of every labeled instance.

    Rings use pixel-corner coordinates and positive (counter-clockwise in
    x/y image axes) orientation; interior holes are ignored. area_px is the
    raster support size, so the sum over instances equals the number of
    labeled pixels. The map must keep the instance-map rule of `raster`,
    checked before any table is sized from it, and hold every label 1..N.
    """
    lab, n = raster._instance_map(instances, "instance")
    h, w = lab.shape
    result = PolygonSet(image_id, h, w)
    if n == 0:
        return result

    # zero-padded copy in the narrowest type that holds every label, so no
    # flat neighbour offset wraps onto a labelled pixel; directions are +x,
    # +y, -x, -y (y down) and q[k] is the offset from a vertex's up-left
    # pixel to its down-right, down-left, up-left and up-right pixel, so that
    # an edge of direction d from a vertex has pixel q[d] as its owner and
    # pixel q[d - 1] across
    s = w + 2
    q = (s + 1, s, 0, 1)
    padded = np.zeros((h + 2, s), np.min_scalar_type(n))
    padded[1:-1, 1:-1] = lab
    flat = padded.ravel()

    # every crack between differently labelled pixels is an edge of each
    # nonzero side, named by its owner pixel's flat index; a crack at flat i
    # lies between pixel i and pixel i + step, the one below (step s) or to
    # the right (step 1)
    sides = {}
    for step in (s, 1):
        crack = np.flatnonzero(flat[:-step] != flat[step:])
        before = crack[flat[crack] != 0]
        crack += step
        sides[step] = before, crack[flat[crack] != 0]
        del crack
    # areas from the row runs (see module doc): the k-th left side and the
    # k-th right side in row-major order bound one run, and bincount's float
    # sums of run lengths are exact below 2**53 pixels
    last, first = sides[1]
    area = raster._dense_areas(
        np.bincount(flat[first], last - first + 1, minlength=n + 1).astype(np.int64), "instance")
    # by direction +x, +y, -x, -y: top, right, bottom and left sides
    owners = [sides[s][1], sides[1][0], sides[s][0], sides[1][1]]
    # every edge index and rank stays below 4 E <= 16 H W
    itype = raster._index_type(16 * flat.size)
    owner = np.concatenate(owners).astype(itype)
    sizes = [o.size for o in owners]
    bounds = np.cumsum(sizes)
    del sides, owners
    label = flat[owner]

    # key d*nv + y*(w+1) + x of each edge's start vertex (x, y); each side
    # list is row-major, so the keys come out sorted
    nv = (h + 1) * (w + 1)
    keys = np.empty(owner.size, np.int64)
    for d, (lo, hi) in enumerate(zip(bounds - sizes, bounds)):
        base = owner[lo:hi] - q[d]
        keys[lo:hi] = base - base // s
        keys[lo:hi] += d * nv

    # successor: at the end vertex take the left turn, else straight on,
    # else the right turn, as the walk around the outer boundary does; with
    # the owner on the right, the left turn needs the pixel ahead-left to be
    # the same label and straight on the pixel ahead
    nxt = np.empty(owner.size + 1, itype)
    end = owner.size
    nxt[end] = end
    for d, (lo, hi) in enumerate(zip(bounds - sizes, bounds)):
        own, lbl = owner[lo:hi], label[lo:hi]
        base = own - q[(d + 1) % 4]
        turn = np.where(flat[base + q[(d + 3) % 4]] == lbl, (d + 3) % 4,
                        np.where(flat[base + q[d]] == lbl, d, (d + 1) % 4))
        nxt[lo:hi] = np.searchsorted(keys, turn * nv + (base - base // s))

    # cut each exterior cycle before its anchor, the top side of the label's
    # first pixel in row-major order; the edge into the anchor is always the
    # anchor pixel's left side, which starts at its bottom-left corner
    _, first = np.unique(label[:sizes[0]], return_index=True)
    anchor = first.astype(itype)
    corner = owner[anchor].astype(np.int64) - q[3]
    nxt[np.searchsorted(keys, 3 * nv + corner - corner // s)] = end
    del first, corner

    # Wyllie list ranking: rank becomes the edge count to the list end; a
    # round that retires no edge leaves only hole cycles, which are dropped
    rank = np.ones(owner.size + 1, itype)
    rank[end] = 0
    spare = np.empty_like(nxt)
    retired = -1
    while True:
        rank += np.take(rank, nxt, out=spare)
        nxt, spare = np.take(nxt, nxt, out=spare), nxt
        count = int(np.count_nonzero(nxt == end))
        if count == retired:
            break
        retired = count
    del spare

    # place each exterior edge in its ring: anchors have the largest rank
    # (the ring length), so ring order is descending rank within each label
    length = rank[anchor]
    start = np.cumsum(length) - length
    edges = np.flatnonzero(nxt[:end] == end).astype(itype)
    del nxt, owner
    slot = label[edges].astype(np.intp) - 1
    order = np.empty(edges.size, itype)
    order[start[slot] + length[slot] - rank[edges]] = edges
    del edges, slot, rank

    # a vertex starts each edge whose direction differs from the edge before;
    # a ring's first edge (+x) follows the previous ring's closing left side
    # (-y), so ring starts need no special case
    direction = np.searchsorted(bounds, order, side="right")
    bends = np.empty(order.size, bool)
    bends[0] = True
    np.not_equal(direction[1:], direction[:-1], out=bends[1:])
    corners = order[bends]
    vertex = keys[corners] % nv
    ring = np.empty((corners.size, 2), np.int64)
    ring[:, 0] = vertex % (w + 1)
    ring[:, 1] = vertex // (w + 1)
    ends = np.cumsum(np.bincount(label[corners], minlength=n + 1)).tolist()
    result.instances = [PolygonInstance(k, ring[ends[k - 1]:ends[k]], a)
                        for k, a in enumerate(area.tolist()) if k]
    return result


def single_class_instances(building, min_area: int = MIN_AREA) -> np.ndarray:
    """Instance map of every non-touching blob (no border separation)."""
    comps = raster.connected_components(building)
    return filter_small(comps, min_area)


def multi_class_instances(fused, threshold: float = THRESHOLD, min_area: int = MIN_AREA,
                          use_spacing: bool = True) -> np.ndarray:
    """Instance map from a fused (building, border[, spacing]) probability
    stack: threshold, carve seeds by border subtraction, grow them back by
    watershed, and drop debris below min_area."""
    pmap = np.asarray(fused)
    if pmap.ndim != 3 or pmap.shape[0] < 2:
        raise ValueError("fused map must have at least building and border channels")
    building = fusion.binarize(pmap, 0, threshold)
    border = fusion.binarize(pmap, 1, threshold)
    if use_spacing and pmap.shape[0] >= 3:
        building = building & (1 - fusion.binarize(pmap, 2, threshold))
    seeds = make_seeds(building, border)
    grown = watershed_assign(seeds, building)
    return filter_small(grown, min_area)


def extract_single_class(building, min_area: int = MIN_AREA, image_id: str = "") -> PolygonSet:
    return polygonize(single_class_instances(building, min_area), image_id)


def extract_multi_class(fused, threshold: float = THRESHOLD, min_area: int = MIN_AREA,
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
        # truncates a float ring (as read back from GeoJSON) toward zero, and
        # does not copy the int64 rings that polygonize makes
        ring = np.asarray(inst.exterior).astype(np.int64, copy=False).tolist()
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
    from . import annotations  # here, so `bfx extract` never loads polygon input

    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValueError("expected a GeoJSON FeatureCollection")
    height, width = doc.get("height"), doc.get("width")
    if not (_is_json_int(height) and _is_json_int(width)):
        raise ValueError("FeatureCollection lacks integer 'height'/'width' members")
    if height < 1 or width < 1 or height * width > MAX_CANVAS_PIXELS:
        raise ValueError(f"FeatureCollection canvas {height}x{width} is outside "
                         f"1..{MAX_CANVAS_PIXELS} pixels")
    image_id = doc.get("image_id", "")
    if not isinstance(image_id, str):
        raise ValueError("FeatureCollection 'image_id' must be a string")
    ps = PolygonSet(image_id, height, width)
    first_with_id = {}
    for k, props, ring in annotations._polygon_features(doc):
        inst_id, area_px = props.get("id", k + 1), props.get("area_px", 0)
        if not (_is_json_int(inst_id) and _is_json_int(area_px)):
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
