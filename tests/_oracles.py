"""Brute-force reference implementations the tests check the library against.

Everything here is written the slow, obvious way (per-pixel window scans,
deque-based BFS, per-point crossing counts) and deliberately shares no code
with the package.
"""

import math
from collections import deque

import numpy as np

OFFSETS_8 = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def window_erode(mask, side, iterations=1):
    m = np.asarray(mask, np.uint8)
    r = side // 2
    h, w = m.shape
    for _ in range(iterations):
        out = np.zeros_like(m)
        for i in range(h):
            for j in range(w):
                keep = 1
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        ii, jj = i + di, j + dj
                        if ii < 0 or jj < 0 or ii >= h or jj >= w or m[ii, jj] == 0:
                            keep = 0
                            break
                    if not keep:
                        break
                out[i, j] = keep
        m = out
    return m


def window_dilate(mask, side, iterations=1):
    m = np.asarray(mask, np.uint8)
    r = side // 2
    h, w = m.shape
    for _ in range(iterations):
        out = np.zeros_like(m)
        for i in range(h):
            for j in range(w):
                hit = 0
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < h and 0 <= jj < w and m[ii, jj]:
                            hit = 1
                            break
                    if hit:
                        break
                out[i, j] = hit
        m = out
    return m


def bfs_chebyshev(mask):
    """Multi-source BFS distances over the 8-neighborhood."""
    m = np.asarray(mask, np.uint8)
    h, w = m.shape
    sentinel = float(h + w + 1)
    dist = np.full((h, w), sentinel, np.float32)
    q = deque()
    for i, j in zip(*np.nonzero(m)):
        dist[i, j] = 0.0
        q.append((int(i), int(j)))
    while q:
        i, j = q.popleft()
        for di, dj in OFFSETS_8:
            ii, jj = i + di, j + dj
            if 0 <= ii < h and 0 <= jj < w and dist[ii, jj] == sentinel:
                dist[ii, jj] = dist[i, j] + 1
                q.append((ii, jj))
    return dist


def flood_components(mask, connectivity=8):
    """Scan-order flood fill; labels come out in anchor order by construction."""
    m = np.asarray(mask, np.uint8)
    h, w = m.shape
    offsets = OFFSETS_8 if connectivity == 8 else [(-1, 0), (1, 0), (0, -1), (0, 1)]
    labels = np.zeros((h, w), np.uint32)
    nxt = 0
    for i in range(h):
        for j in range(w):
            if m[i, j] and labels[i, j] == 0:
                nxt += 1
                labels[i, j] = nxt
                q = deque([(i, j)])
                while q:
                    ci, cj = q.popleft()
                    for di, dj in offsets:
                        ii, jj = ci + di, cj + dj
                        if 0 <= ii < h and 0 <= jj < w and m[ii, jj] and labels[ii, jj] == 0:
                            labels[ii, jj] = nxt
                            q.append((ii, jj))
    return labels


def geodesic_watershed(seeds, region):
    """Per-seed BFS distances; each pixel takes the nearest seed, ties to the
    smallest label; seedless region components get fresh labels in anchor
    order after the seed labels."""
    s = np.asarray(seeds)
    reg = np.asarray(region, np.uint8)
    h, w = reg.shape
    inf = 1 << 60
    n = int(s.max(initial=0))
    best_d = np.full((h, w), inf, np.int64)
    best_l = np.zeros((h, w), np.int64)
    for lbl in range(1, n + 1):  # ascending, so ties keep the smaller label
        dist = np.full((h, w), inf, np.int64)
        q = deque()
        for i, j in zip(*np.nonzero(s == lbl)):
            dist[i, j] = 0
            q.append((int(i), int(j)))
        while q:
            i, j = q.popleft()
            for di, dj in OFFSETS_8:
                ii, jj = i + di, j + dj
                if 0 <= ii < h and 0 <= jj < w and reg[ii, jj] and dist[ii, jj] == inf:
                    dist[ii, jj] = dist[i, j] + 1
                    q.append((ii, jj))
        closer = dist < best_d
        best_d[closer] = dist[closer]
        best_l[closer] = lbl
    out = np.where(reg == 1, best_l, 0).astype(np.uint32)
    leftover = (reg == 1) & (out == 0)
    if leftover.any():
        extra = flood_components(leftover.astype(np.uint8), 8)
        out[leftover] = extra[leftover] + np.uint32(n)
    return out


def point_fill(ring, height, width):
    """Per-pixel even-odd crossing test: a center is covered when an odd
    number of edge crossings lies strictly to its left (half-open in y)."""
    pts = [(float(x), float(y)) for x, y in np.asarray(ring, np.float64)]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    n = len(pts)
    out = np.zeros((height, width), np.uint8)
    for i in range(height):
        yc = i + 0.5
        for j in range(width):
            xc = j + 0.5
            crossings = 0
            for k in range(n):
                x1, y1 = pts[k]
                x2, y2 = pts[(k + 1) % n]
                if y1 == y2:
                    continue
                ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
                if not ylo <= yc < yhi:
                    continue
                t = (yc - y1) / (y2 - y1)
                if x1 + t * (x2 - x1) < xc:
                    crossings += 1
            out[i, j] = crossings & 1
    return out


def xor_fill(ring, height, width):
    """Scanline even-odd fill of one ring by a running XOR of flips.

    Every (edge, row) crossing flips the pixels whose centers lie strictly
    right of it, within the ring's window: the rows whose centers the ring
    spans and its x extent padded by one pixel and 4 ulps."""
    pts = np.asarray(ring, np.float64)
    if len(pts) >= 2 and np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    out = np.zeros((height, width), np.uint8)
    xmin, ymin = pts.min(axis=0).tolist()
    xmax, ymax = pts.max(axis=0).tolist()
    pad = 1 + 4 * math.ulp(max(-xmin, xmax))
    r0, r1 = (min(max(v, 0), height) for v in (math.floor(ymin), math.ceil(ymax)))
    c0, c1 = (min(max(v, 0), width) for v in (math.floor(xmin - pad), math.ceil(xmax + pad)))
    closed = np.concatenate([pts, pts[:1]])
    x1, y1 = closed[:-1, 0], closed[:-1, 1]
    x2, y2 = closed[1:, 0], closed[1:, 1]
    yc = np.arange(r0, r1) + 0.5
    first = np.searchsorted(yc, np.minimum(y1, y2), side="left")
    count = np.searchsorted(yc, np.maximum(y1, y2), side="left") - first
    edge = np.repeat(np.arange(len(pts)), count)
    row = np.arange(edge.size) - np.repeat(np.cumsum(count) - count - first, count)
    t = (yc[row] - y1[edge]) / (y2[edge] - y1[edge])
    x = x1[edge] + t * (x2[edge] - x1[edge])
    flip = np.searchsorted(np.arange(c0, c1) + 0.5, x, side="right")
    flips = np.zeros((r1 - r0, c1 - c0 + 1), np.uint8)
    np.bitwise_xor.at(flips, (row, flip), 1)
    out[r0:r1, c0:c1] = np.bitwise_xor.accumulate(flips[:, :c1 - c0], axis=1)
    return out


def paint_polygon_set(ps):
    """Instance map of a polygon set, one full-canvas fill per ring: rings
    are painted in ascending id order, later ids overwriting, and the ids
    that kept a pixel are relabeled 1..K in that order."""
    rank = {i: r for r, i in enumerate(sorted({inst.id for inst in ps.instances}), start=1)}
    painted = np.zeros((ps.height, ps.width), np.int64)
    for inst in sorted(ps.instances, key=lambda inst: inst.id):
        painted[xor_fill(inst.exterior, ps.height, ps.width) == 1] = rank[inst.id]
    present = np.unique(painted[painted > 0])
    return (np.searchsorted(present, painted) + (painted > 0)).astype(np.uint32)


def shift(arr, dr, dc, fill):
    """Translate a 2-D array by (dr, dc), filling vacated cells with `fill`."""
    out = np.full(arr.shape, fill, arr.dtype)
    h, w = arr.shape
    if abs(dr) >= h or abs(dc) >= w:
        return out
    out[max(0, dr):h - max(0, -dr), max(0, dc):w - max(0, -dc)] = \
        arr[max(0, -dr):h - max(0, dr), max(0, -dc):w - max(0, dc)]
    return out


def shift_boundary(labels):
    """Labeled pixels with a differently labeled nonzero 8-neighbour, by
    comparing the map with each of its eight shifts (0 fills the edges)."""
    lab = np.asarray(labels)
    boundary = np.zeros(lab.shape, bool)
    for dr, dc in OFFSETS_8:
        nbr = shift(lab, dr, dc, 0)
        boundary |= (lab > 0) & (nbr > 0) & (nbr != lab)
    return boundary


def disjoint_rectangles(rng, height, width, count, min_side=4, max_side=12, gap=2):
    """Random axis-aligned rectangles as rings, pairwise at least `gap` apart."""
    rings = []
    boxes = []
    attempts = 0
    while len(rings) < count and attempts < 500:
        attempts += 1
        sh = int(rng.integers(min_side, max_side + 1))
        sw = int(rng.integers(min_side, max_side + 1))
        if height - sh - 1 <= 1 or width - sw - 1 <= 1:
            continue
        r0 = int(rng.integers(1, height - sh - 1))
        c0 = int(rng.integers(1, width - sw - 1))
        box = (r0, c0, r0 + sh, c0 + sw)
        if any(not (box[2] + gap <= b[0] or b[2] + gap <= box[0]
                    or box[3] + gap <= b[1] or b[3] + gap <= box[1]) for b in boxes):
            continue
        boxes.append(box)
        rings.append(np.array([(c0, r0), (c0 + sw, r0), (c0 + sw, r0 + sh), (c0, r0 + sh)], float))
    return rings, boxes


def serpentine(n):
    """Vertical corridors joined at alternating ends: one component whose
    pixels form a single path of about n*n/2 pixels; for odd n it runs
    from (0, 0) to (0, n - 1)."""
    m = np.zeros((n, n), np.uint8)
    m[:, ::2] = 1
    m[-1, 1::4] = 1
    m[0, 3::4] = 1
    return m


FUSION_VIEWS = ("identity", "hflip", "vflip", "rot180")


def copy_view(arr, view):
    """A positional view as a fresh C-order copy."""
    a = np.asarray(arr)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D mask or (c, h, w) stack, got shape {a.shape}")
    if view == "identity":
        return a.copy()
    if view == "hflip":
        return a[..., ::-1].copy()
    if view == "vflip":
        return a[..., ::-1, :].copy()
    if view == "rot180":
        return a[..., ::-1, ::-1].copy()
    raise ValueError(f"unknown view {view!r}")


def copy_tta_average(views):
    """Copy every view back to the reference frame, cast each to float64,
    and sum the four as a0 + a1 + a2 + a3."""
    if set(views) != set(FUSION_VIEWS):
        raise ValueError(f"expected exactly the views {FUSION_VIEWS}, got {sorted(views)}")
    aligned = []
    shape = None
    for name in FUSION_VIEWS:
        a = np.asarray(views[name], np.float32)
        if a.ndim != 3:
            raise ValueError(f"view {name!r} must be a (c, h, w) stack")
        if shape is None:
            shape = a.shape
        elif a.shape != shape:
            raise ValueError(f"view {name!r} has shape {a.shape}, expected {shape}")
        aligned.append(copy_view(a, name).astype(np.float64))
    total = aligned[0] + aligned[1] + aligned[2] + aligned[3]
    return (total / 4.0).astype(np.float32)


def sorted_ensemble_average(maps):
    """Stack the maps in float64, sort each pixel's summands and reduce."""
    arrs = [np.asarray(m, np.float32) for m in maps]
    if not arrs:
        raise ValueError("ensemble_average needs at least one map")
    shape = arrs[0].shape
    if arrs[0].ndim != 3:
        raise ValueError(f"expected (c, h, w) stacks, got shape {shape}")
    for a in arrs[1:]:
        if a.shape != shape:
            raise ValueError(f"map shapes differ: {a.shape} vs {shape}")
    stacked = np.stack(arrs).astype(np.float64)
    stacked.sort(axis=0)
    return (np.add.reduce(stacked, axis=0) / len(arrs)).astype(np.float32)


def brute_gradient_check(losses, pred, gt, params, step=1e-5):
    """Max relative error between each loss's analytic gradient and central
    differences that re-evaluate the whole loss twice per eligible pixel
    (every pixel at least `step` inside (clamp, 1 - clamp) and (0, 1)).
    `losses` are (pred, gt, params) -> (value, gradient) functions."""
    p = np.asarray(pred, np.float64)
    low = max(step, params.clamp + step)
    eligible = np.flatnonzero((p > low) & (p < 1.0 - low))
    if eligible.size == 0:
        raise ValueError("no pixels far enough from the clamp boundaries to check")
    worst = 0.0
    flat = p.ravel()
    for fn in losses:
        grad = fn(p, gt, params)[1].ravel()
        for i in eligible:
            bumped = flat.copy()
            bumped[i] = flat[i] + step
            hi = fn(bumped.reshape(p.shape), gt, params)[0]
            bumped[i] = flat[i] - step
            lo = fn(bumped.reshape(p.shape), gt, params)[0]
            fd = (hi - lo) / (2.0 * step)
            err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-12)
            worst = max(worst, err)
    return worst


def poly_recurrence_per_epoch(epoch, params):
    """The literal poly recurrence's value at `epoch` as first written: the whole
    product lr0 * prod_{t=1..epoch} (1 - t/total)^power redone for each
    epoch, in the same multiplication order."""
    lr = params.poly_lr0
    for t in range(1, epoch + 1):
        lr *= (1.0 - t / params.total_epochs) ** params.poly_power
    return lr


def filter_small_by_unique(instances, min_area):
    """`extract.filter_small` as first written: survivors ranked by a unique
    over every nonzero pixel."""
    lab = np.asarray(instances)
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


# corner-walk directions: +x, +y, -x, -y (y grows downward)
_WALK_DX = (1, 0, -1, 0)
_WALK_DY = (0, 1, 0, -1)


def trace_exterior(rows, cols):
    """Walk the outer boundary of a pixel set one pixel edge per step, in
    corner coordinates, preferring left turns so that a diagonal pinch is
    passed on the outside; `rows`/`cols` must be sorted row-major so
    (rows[0], cols[0]) is the anchor pixel."""
    r0, c0 = int(rows.min()), int(cols.min())
    g = np.zeros((int(rows.max()) - r0 + 3, int(cols.max()) - c0 + 3), bool)
    g[rows - r0 + 1, cols - c0 + 1] = True

    def has_edge(d, x, y):
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
        x += _WALK_DX[nd]
        y += _WALK_DY[nd]
        limit -= 1
        if limit < 0:
            raise AssertionError("boundary walk failed to close")

    out = np.asarray(verts, np.int64)
    out[:, 0] += c0 - 1
    out[:, 1] += r0 - 1
    return out


def walk_polygonize(instances):
    """Exterior ring of each label 1..N of a dense instance map by
    `trace_exterior`: a list of (id, ring, area_px)."""
    lab = np.asarray(instances)
    w = lab.shape[1]
    n = int(lab.max(initial=0))
    flat = lab.ravel()
    out = []
    for lbl in range(1, n + 1):
        idx = np.flatnonzero(flat == lbl)
        assert idx.size, f"label {lbl} unused"
        out.append((lbl, trace_exterior(idx // w, idx % w), int(idx.size)))
    return out


def pnm_header(data: bytes, magic: bytes):
    """A PNM header parsed from the whole file's bytes at once:
    (width, height, maxval, payload offset)."""
    if not data.startswith(magic):
        raise ValueError(f"not a {magic.decode().strip()} file")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError("truncated PNM header")
        c = data[pos:pos + 1]
        if c == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            token = data[pos:end]
            # a field is 1 to 20 ASCII digits; the reader stops at the first byte that is not
            digits = len(token) - len(token.lstrip(b"0123456789"))
            if digits < len(token) or digits > 20:
                raise ValueError("PNM header field is not 1 to 20 decimal digits")
            fields.append(int(token))
            pos = end
    if fields[0] < 1 or fields[1] < 1:
        raise ValueError(f"PNM size {fields[0]}x{fields[1]} is not positive")
    # exactly one whitespace byte separates the header from the payload
    return fields[0], fields[1], fields[2], pos + 1


def overlap_ious(pred, gt):
    """{(prediction id, ground-truth id): IoU} of every overlapping pair,
    counted pixel by pixel, each IoU a Python int / int."""
    area_p, area_g, inter = {}, {}, {}
    for pp, gg in zip(np.asarray(pred).ravel().tolist(), np.asarray(gt).ravel().tolist()):
        area_p[pp] = area_p.get(pp, 0) + 1
        area_g[gg] = area_g.get(gg, 0) + 1
        if pp and gg:
            inter[pp, gg] = inter.get((pp, gg), 0) + 1
    return {(pp, gg): ii / (area_p[pp] + area_g[gg] - ii) for (pp, gg), ii in inter.items()}


def greedy_match(ious, n_pred, n_gt, iou_threshold):
    """The sequential greedy of the SpaceNet convention over `ious` (as
    `overlap_ious` gives them): (pairs, unmatched prediction ids, unmatched
    ground-truth ids)."""
    candidates = [(iou, pp, gg) for (pp, gg), iou in ious.items() if iou >= iou_threshold]
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_p, used_g = set(), set()
    pairs = []
    for iou, pp, gg in candidates:
        if pp in used_p or gg in used_g:
            continue
        used_p.add(pp)
        used_g.add(gg)
        pairs.append((pp, gg, iou))
    return (pairs, [i for i in range(1, n_pred + 1) if i not in used_p],
            [i for i in range(1, n_gt + 1) if i not in used_g])


def paint_matches(pred, gt, pairs, unmatched_pred, unmatched_gt):
    """The colour map of a match, pixel by pixel: red for a matched
    prediction, green for an unmatched one, blue for an unmatched ground
    truth."""
    tp, fp, fn = {pp for pp, _, _ in pairs}, set(unmatched_pred), set(unmatched_gt)
    rgb = [(255 * (pp in tp), 255 * (pp in fp), 255 * (gg in fn))
           for pp, gg in zip(np.asarray(pred).ravel().tolist(), np.asarray(gt).ravel().tolist())]
    return np.array(rgb, np.uint8).reshape(np.shape(pred) + (3,))
