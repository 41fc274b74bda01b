"""Seeded corpus generators, CLI call plans and correctness checks.

Each workload writes its inputs from a seed, lists the `bfx` invocations
of one pass, and checks a pass's artifacts against values derived from the
generator alone: the rectangles it placed, the tiles it blanked, the box
its sampler draws. Nothing expected is read from the program's output.

Scenes are built from axis-aligned rectangles with integer corners, for
which every stage has a closed form: the fill is the rectangle, the border
is a 2-pixel inner ring, extraction returns each rectangle as one instance
labelled in anchor (top-left) order, and evaluation matches instances
whose rectangles are identical. Probability maps carry bounded noise
(positives in [0.55, 1], negatives in [0, 0.15]), so every average of them
thresholds at 0.3 to the clean masks.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

# fold views as `bfx fuse --tta` names them, with the transform that makes them
VIEWS = (("id", lambda a: a), ("hf", lambda a: a[..., ::-1]),
         ("vf", lambda a: a[..., ::-1, :]), ("r180", lambda a: a[..., ::-1, ::-1]))


# ---------------------------------------------------------------------------
# file codecs (written here so the checks share no code with the program)
# ---------------------------------------------------------------------------


def write_pmap(path, arr) -> None:
    a = np.ascontiguousarray(arr, "<f4")
    with open(path, "wb") as f:
        f.write(b"PMAP1\n" + struct.pack("<III", *a.shape) + a.tobytes())


def read_pmap(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"PMAP1\n"):
        raise ValueError(f"{path}: not a PMAP1 file")
    c, h, w = struct.unpack_from("<III", data, 6)
    return np.frombuffer(data, "<f4", c * h * w, 18).reshape(c, h, w)


def read_imap(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"IMAP1\n"):
        raise ValueError(f"{path}: not an IMAP1 file")
    h, w, _ = struct.unpack_from("<III", data, 6)
    return np.frombuffer(data, "<u4", h * w, 18).reshape(h, w)


def write_imap(path, labels) -> None:
    a = np.ascontiguousarray(labels, "<u4")
    with open(path, "wb") as f:
        f.write(b"IMAP1\n" + struct.pack("<III", *a.shape, int(a.max(initial=0))) + a.tobytes())


def write_pgm(path, values) -> None:
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(values, np.uint8).tobytes())


def _read_pnm(path, magic: bytes, depth: int) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    head = data.split(maxsplit=4)
    if head[0] != magic or len(head) < 5:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    w, h = int(head[1]), int(head[2])
    payload = data[len(data) - h * w * depth:]
    return np.frombuffer(payload, np.uint8).reshape((h, w, depth) if depth > 1 else (h, w))


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


# ---------------------------------------------------------------------------
# rectangle scenes
# ---------------------------------------------------------------------------


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def paint(shape, rects) -> np.ndarray:
    out = np.zeros(shape, np.uint8)
    for r0, c0, r1, c1 in rects:
        out[r0:r1, c0:c1] = 1
    return out


def ring_mask(shape, rects) -> np.ndarray:
    """Fill XOR two 3x3 erosions of each rectangle: its 2-pixel inner ring."""
    out = paint(shape, rects)
    for r0, c0, r1, c1 in rects:
        out[r0 + 2:r1 - 2, c0 + 2:c1 - 2] = 0
    return out


def label_map(shape, rects) -> np.ndarray:
    """Instance map with labels in anchor (top-left corner) order."""
    out = np.zeros(shape, np.uint32)
    for k, (r0, c0, r1, c1) in enumerate(sorted(rects), start=1):
        out[r0:r1, c0:c1] = k
    return out


def ring_points(rect) -> list[list[int]]:
    r0, c0, r1, c1 = rect
    return [[c0, r0], [c1, r0], [c1, r1], [c0, r1]]


def noisy(rng, clean) -> np.ndarray:
    """Bounded noise around a {0,1} stack: every mean of such maps keeps
    the clean mask at threshold 0.3."""
    u = rng.random(clean.shape, dtype=np.float32)
    return np.where(clean == 1, np.float32(0.55) + np.float32(0.45) * u, np.float32(0.15) * u)


@dataclass
class Scene:
    """One image: the masks the predictions encode and the instance roles.

    tp rectangles are in both prediction and ground truth, fp only in the
    prediction, fn only in the ground truth.
    """

    image_id: str
    shape: tuple[int, int]
    building: np.ndarray
    border: np.ndarray
    tp: list = field(default_factory=list)
    fp: list = field(default_factory=list)
    fn: list = field(default_factory=list)

    @property
    def pred(self):
        return self.tp + self.fp

    @property
    def gt(self):
        return self.tp + self.fn

    def clean_stack(self) -> np.ndarray:
        return np.stack([self.building, self.border, np.zeros_like(self.building)])


def f1_percent(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 100.0 if denom == 0 else 100.0 * 2 * tp / denom


def city_scene(rng, image_id, size, cell, sides, n_fn, n_fp, n_empty) -> tuple[Scene, list]:
    """One rectangle per grid cell, at least 2 px apart, with roles drawn
    at random. The first two cells always hold a ground-truth pair 2 px
    apart, so the spacing channel is never empty. Returns the scene and
    its ground-truth rectangles in cell order (the annotation order)."""
    n = size // cell
    k = n * n
    hs = rng.integers(sides[0], sides[1] + 1, k)
    ws = rng.integers(sides[0], sides[1] + 1, k)
    r0 = (np.arange(k) // n) * cell + 1 + rng.integers(0, cell - 1 - hs)
    c0 = (np.arange(k) % n) * cell + 1 + rng.integers(0, cell - 1 - ws)
    r0[0] = r0[1] = 1
    c0[0] = cell - 1 - ws[0]
    c0[1] = cell + 1
    rects = [(int(a), int(b), int(a + h), int(b + w)) for a, b, h, w in zip(r0, c0, hs, ws)]
    role = np.zeros(k, np.int8)  # 0 tp, 1 fn, 2 fp, 3 empty
    picks = 2 + rng.permutation(k - 2)[:n_fn + n_fp + n_empty]
    role[picks[:n_fn]] = 1
    role[picks[n_fn:n_fn + n_fp]] = 2
    role[picks[n_fn + n_fp:]] = 3
    by = {r: [rects[i] for i in range(k) if role[i] == r] for r in range(4)}
    shape = (size, size)
    pred = by[0] + by[2]
    scene = Scene(image_id, shape, paint(shape, pred), ring_mask(shape, pred), by[0], by[2], by[1])
    gt_in_cell_order = [rects[i] for i in range(k) if role[i] in (0, 1)]
    return scene, gt_in_cell_order


# ---------------------------------------------------------------------------
# calls and checks
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One `bfx` invocation; `outputs` are the files it must leave behind."""

    stage: str
    args: list
    outputs: list


def sidecars(stem: str) -> list[str]:
    return [stem + ".config.json", stem + ".manifest.json"]


def fuse_outputs(run, image_id) -> list[str]:
    stem = os.path.join(run, "fused", image_id)
    return [f"{stem}.{x}" for x in ("pmap", "building.pgm", "border.pgm", "spacing.pgm")] + sidecars(stem)


def extract_call(run, image_id, threads) -> Call:
    geojson = os.path.join(run, "pred", image_id + ".geojson")
    imap = os.path.join(run, "imap", image_id + ".imap")
    return Call("extract", ["extract", "--mode", "multi", "--in", os.path.join(run, "fused", image_id + ".pmap"),
                            "--image-id", image_id, "--out-geojson", geojson, "--out-imap", imap,
                            "--threads", str(threads)],
                [geojson, imap] + sidecars(geojson[:-len(".geojson")]))


def eval_call(run, pred, gt, ids, threads) -> Call:
    r = lambda *p: os.path.join(run, "eval", *p)  # noqa: E731
    return Call("eval", ["eval", "--pred", pred, "--gt", gt, "--report", r("report.json"),
                         "--csv", r("counts.csv"), "--colormap", r("cmap"), "--threads", str(threads)],
                [r("report.json"), r("counts.csv")] + [r("cmap", i + ".ppm") for i in ids] + sidecars(r("report")))


class Workload:
    """A seeded corpus plus the calls of one pass and their checks.

    `calls(run, threads)` lists the pass for output directory `run`;
    `check(run, calls, stdout)` returns, per call index, what is wrong with
    that call's artifacts (an empty list when they are correct).
    """

    name = ""
    dirs: tuple = ()
    megapixels = 0.0
    scenes = 0

    def __init__(self, corpus: str, seed: int):
        self.corpus = corpus
        os.makedirs(corpus, exist_ok=True)
        self.generate(rng_for(seed, self.name))

    def prepare(self, run: str) -> None:
        for d in self.dirs:
            os.makedirs(os.path.join(run, d), exist_ok=True)

    def c(self, *parts) -> str:
        return os.path.join(self.corpus, *parts)


def _expect(problems, cond, message):
    if not cond:
        problems.append(message)


def check_instances(problems, scene: Scene, imap_path, geojson_path) -> None:
    """Extraction must return exactly the predicted rectangles."""
    labels = read_imap(imap_path)
    _expect(problems, np.array_equal(labels, label_map(scene.shape, scene.pred)),
            f"{imap_path}: instance map differs from the generated rectangles")
    with open(geojson_path, encoding="utf-8") as f:
        doc = json.load(f)
    feats = doc.get("features", [])
    rects = sorted(scene.pred)
    _expect(problems, len(feats) == len(rects),
            f"{geojson_path}: {len(feats)} features, expected {len(rects)}")
    for k, (feat, rect) in enumerate(zip(feats, rects), start=1):
        ring = feat["geometry"]["coordinates"][0]
        r0, c0, r1, c1 = rect
        ok = (feat["properties"] == {"id": k, "area_px": (r1 - r0) * (c1 - c0)}
              and ring[0] == ring[-1] and sorted(ring[:-1]) == sorted(ring_points(rect)))
        if not ok:
            problems.append(f"{geojson_path}: feature {k} is not rectangle {rect}")
            return


def check_masks(problems, run, s: Scene) -> None:
    """The binarized channels `fuse` writes are the clean masks."""
    for name, mask in (("building", s.building), ("border", s.border), ("spacing", np.zeros_like(s.building))):
        path = os.path.join(run, "fused", f"{s.image_id}.{name}.pgm")
        _expect(problems, np.array_equal(read_pgm(path), mask * 255), f"{path}: binarized mask differs")


def check_eval(problems, scenes: list[Scene], run) -> None:
    """Counts, F1, CSV rows and colour maps from the instance roles."""
    report, csv_path, cmap_dir = (os.path.join(run, "eval", x) for x in ("report.json", "counts.csv", "cmap"))
    with open(report, encoding="utf-8") as f:
        doc = json.load(f)
    rows = [(s.image_id, len(s.tp), len(s.fp), len(s.fn)) for s in sorted(scenes, key=lambda s: s.image_id)]
    tp, fp, fn = (sum(r[i] for r in rows) for i in (1, 2, 3))
    _expect(problems, doc.get("global") == {"tp": tp, "fp": fp, "fn": fn},
            f"{report}: global counts {doc.get('global')}, expected tp={tp} fp={fp} fn={fn}")
    _expect(problems, abs(doc.get("f1_percent", -1.0) - f1_percent(tp, fp, fn)) < 1e-9,
            f"{report}: f1 {doc.get('f1_percent')}, expected {f1_percent(tp, fp, fn)}")
    per_image = [(d["image_id"], d["tp"], d["fp"], d["fn"]) for d in doc.get("per_image", [])]
    _expect(problems, per_image == rows, f"{report}: per-image counts differ")
    with open(csv_path, encoding="utf-8") as f:
        text = f.read()
    want = "image_id,tp,fp,fn\n" + "".join("%s,%d,%d,%d\n" % r for r in rows)
    _expect(problems, text == want, f"{csv_path}: rows differ")
    for s in scenes:
        rgb = np.stack([paint(s.shape, s.tp), paint(s.shape, s.fp), paint(s.shape, s.fn)], -1) * 255
        path = os.path.join(cmap_dir, s.image_id + ".ppm")
        _expect(problems, np.array_equal(read_ppm(path), rgb), f"{path}: colour map differs")


# ---------------------------------------------------------------------------
# city-1024 and tiles-256: targets -> fuse --tta -> extract -> eval
# ---------------------------------------------------------------------------


class City(Workload):
    """Synthetic cities through the whole pipeline. Two fold predictions
    per image, each written as the four TTA views."""

    dirs = ("targets", "fused", "pred", "imap", "eval")
    folds = 2

    def __init__(self, corpus, seed, name, images, size, cell, fn, fp, empty):
        self.name = name
        self.images, self.size, self.cell = images, size, cell
        self.roles = (fn, fp, empty)
        self.scenes = images
        self.megapixels = images * size * size / 1e6
        super().__init__(corpus, seed)

    def generate(self, rng) -> None:
        for d in ("preds", "gt"):
            os.makedirs(self.c(d), exist_ok=True)
        self.items = []
        annotations = {}
        for i in range(self.images):
            image_id = f"{self.name}-{i:03d}"
            scene, gt_rects = city_scene(rng, image_id, self.size, self.cell, (12, 40), *self.roles)
            annotations[image_id] = [{"points": ring_points(r)} for r in gt_rects]
            write_json(self.c("gt", image_id + ".geojson"), {
                "type": "FeatureCollection", "image_id": image_id,
                "height": self.size, "width": self.size,
                "features": [{"type": "Feature", "properties": {"id": k},
                              "geometry": {"type": "Polygon",
                                           "coordinates": [ring_points(r) + [ring_points(r)[0]]]}}
                             for k, r in enumerate(gt_rects, start=1)]})
            clean = scene.clean_stack()
            for fold in range(self.folds):
                for suffix, view in VIEWS:
                    write_pmap(self.c("preds", f"{image_id}.f{fold}.{suffix}.pmap"),
                               view(noisy(rng, clean)))
            self.items.append(scene)
        write_json(self.c("annotations.json"), annotations)

    def calls(self, run, threads):
        t = ["--threads", str(threads)]
        r = lambda *p: os.path.join(run, *p)  # noqa: E731
        ids = [s.image_id for s in self.items]
        out = [Call("targets", ["targets", "--annotations", self.c("annotations.json"),
                                "--out-dir", r("targets"), "--height", str(self.size),
                                "--width", str(self.size), "--format", "pmap", *t],
                    [r("targets", i + ".pmap") for i in ids] + sidecars(r("targets", "targets")))]
        for i in ids:
            prefixes = [self.c("preds", f"{i}.f{k}.pmap") for k in range(self.folds)]
            out.append(Call("fuse", ["fuse", "--tta", *prefixes, "--out", r("fused", i + ".pmap"), *t],
                            fuse_outputs(run, i)))
        out += [extract_call(run, i, threads) for i in ids]
        out.append(eval_call(run, r("pred"), self.c("gt"), ids, threads))
        return out

    def check(self, run, calls, stdout):
        problems = {k: [] for k in range(len(calls))}
        n = len(self.items)
        spacing_total = 0
        for k, s in enumerate(self.items):
            tgt = read_pmap(os.path.join(run, "targets", s.image_id + ".pmap"))
            gt = s.gt
            p = problems[0]
            _expect(p, np.array_equal(tgt[0], paint(s.shape, gt)), f"{s.image_id}: building channel")
            _expect(p, np.array_equal(tgt[1], ring_mask(s.shape, gt)), f"{s.image_id}: border channel")
            _expect(p, np.isin(tgt[2], (0.0, 1.0)).all() and not (tgt[2] * tgt[0]).any(),
                    f"{s.image_id}: spacing channel is not a mask outside the buildings")
            spacing_total += int(tgt[2].sum())

            p = problems[1 + k]
            mean = np.zeros((3,) + s.shape)
            for f in range(self.folds):
                for suffix, view in VIEWS:
                    mean += view(read_pmap(self.c("preds", f"{s.image_id}.f{f}.{suffix}.pmap")))
            mean /= self.folds * len(VIEWS)
            fused = read_pmap(os.path.join(run, "fused", s.image_id + ".pmap"))
            _expect(p, np.abs(fused - mean).max() <= 1e-6,
                    f"{s.image_id}: fused map is not the mean of the fold views")
            check_masks(p, run, s)

            check_instances(problems[1 + n + k], s, os.path.join(run, "imap", s.image_id + ".imap"),
                            os.path.join(run, "pred", s.image_id + ".geojson"))
        _expect(problems[0], spacing_total > 0, "spacing channel empty across the corpus")
        check_eval(problems[len(calls) - 1], self.items, run)
        return problems


# ---------------------------------------------------------------------------
# hard-extract: fused stacks that stress the watershed and the labelling
# ---------------------------------------------------------------------------


def deep_scene(rng, size=512) -> Scene:
    """One large building whose border channel leaves a 2x2 seed near a
    corner, so the watershed floods it one layer at a time."""
    sq = (8, 8, size - 8, size - 8)
    building = paint((size, size), [sq])
    border = building.copy()
    border[10:12, 10:12] = 0
    return Scene("deep", (size, size), building, border, tp=[sq])


def speckle_scene(rng, size=1024, cell=12, density=0.35, planted=24) -> Scene:
    """35 % speckle in the building channel, confined to 11x11 cell
    interiors (each cell's last row and column stay 0), so every speckle
    component is under 140 px and is dropped; buildings planted in cleared
    3x3-cell blocks are the only instances that survive."""
    n = size // cell
    inner = (cell - 1) ** 2 / cell ** 2
    building = (rng.random((size, size)) < density / inner).astype(np.uint8)
    building[cell - 1::cell, :] = 0
    building[:, cell - 1::cell] = 0
    building[n * cell:, :] = 0
    building[:, n * cell:] = 0
    blocks = rng.permutation((n // 3) ** 2)[:planted]
    rects = []
    for b in blocks:
        br, bc = (b // (n // 3)) * 3 * cell, (b % (n // 3)) * 3 * cell
        building[br:br + 3 * cell, bc:bc + 3 * cell] = 0
        h, w = (int(v) for v in rng.integers(16, 33, 2))
        r0 = br + 1 + int(rng.integers(0, 3 * cell - 2 - h))
        c0 = bc + 1 + int(rng.integers(0, 3 * cell - 2 - w))
        rects.append((r0, c0, r0 + h, c0 + w))
    building |= paint((size, size), rects)
    return Scene("speckle", (size, size), building, ring_mask((size, size), rects), tp=rects)


def packed_scene(rng, size=1024, cell=15, fn=40, fp=25) -> Scene:
    """A grid of 12-13 px squares (144-169 px, just above min_area 140),
    2 px apart; some cells are only in the prediction or only in the
    ground truth."""
    n = size // cell
    k = n * n
    hs = rng.integers(12, 14, k)
    ws = rng.integers(12, 14, k)
    r0 = (np.arange(k) // n) * cell + 1 + rng.integers(0, cell - 1 - hs)
    c0 = (np.arange(k) % n) * cell + 1 + rng.integers(0, cell - 1 - ws)
    rects = [(int(a), int(b), int(a + h), int(b + w)) for a, b, h, w in zip(r0, c0, hs, ws)]
    picks = rng.permutation(k)
    fn_set, fp_set = set(picks[:fn].tolist()), set(picks[fn:fn + fp].tolist())
    tp = [r for i, r in enumerate(rects) if i not in fn_set and i not in fp_set]
    fps = [rects[i] for i in sorted(fp_set)]
    shape = (size, size)
    return Scene("packed", shape, paint(shape, tp + fps), ring_mask(shape, tp + fps),
                 tp=tp, fp=fps, fn=[rects[i] for i in sorted(fn_set)])


class HardExtract(Workload):
    """Fused single maps: fuse, extract --mode multi, eval against IMAPs."""

    name = "hard-extract"
    dirs = ("fused", "pred", "imap", "eval")

    def generate(self, rng) -> None:
        for d in ("stacks", "gt"):
            os.makedirs(self.c(d), exist_ok=True)
        self.items = [deep_scene(rng), speckle_scene(rng), packed_scene(rng)]
        self.scenes = len(self.items)
        self.megapixels = sum(s.shape[0] * s.shape[1] for s in self.items) / 1e6
        for s in self.items:
            write_pmap(self.c("stacks", s.image_id + ".pmap"), noisy(rng, s.clean_stack()))
            write_imap(self.c("gt", s.image_id + ".imap"), label_map(s.shape, s.gt))

    def calls(self, run, threads):
        t = ["--threads", str(threads)]
        r = lambda *p: os.path.join(run, *p)  # noqa: E731
        ids = [s.image_id for s in self.items]
        out = [Call("fuse", ["fuse", self.c("stacks", i + ".pmap"), "--out", r("fused", i + ".pmap"), *t],
                    fuse_outputs(run, i)) for i in ids]
        out += [extract_call(run, i, threads) for i in ids]
        # IMAP predictions: rasterizing thousands of GeoJSON rings would make
        # eval, not extraction, the bulk of this workload
        out.append(eval_call(run, r("imap"), self.c("gt"), ids, threads))
        return out

    def check(self, run, calls, stdout):
        problems = {k: [] for k in range(len(calls))}
        n = len(self.items)
        for k, s in enumerate(self.items):
            p = problems[k]
            src = read_pmap(self.c("stacks", s.image_id + ".pmap"))
            fused = read_pmap(os.path.join(run, "fused", s.image_id + ".pmap"))
            _expect(p, np.array_equal(src, fused), f"{s.image_id}: fusing one map changed it")
            check_masks(p, run, s)
            check_instances(problems[n + k], s, os.path.join(run, "imap", s.image_id + ".imap"),
                            os.path.join(run, "pred", s.image_id + ".geojson"))
        check_eval(problems[2 * n], self.items, run)
        return problems


# ---------------------------------------------------------------------------
# prep-train: dataprep and training maths
# ---------------------------------------------------------------------------


def sample_box(h: int, w: int, seed: int):
    """The documented CutMix sampler: lam ~ U[0,1], sides sqrt(1-lam), a
    uniform centre, clipped to the canvas."""
    rng = np.random.default_rng(seed)
    frac = math.sqrt(1.0 - float(rng.uniform(0.0, 1.0)))
    bh, bw = int(round(h * frac)), int(round(w * frac))
    cy, cx = int(rng.integers(0, h)), int(rng.integers(0, w))
    r0, c0 = cy - bh // 2, cx - bw // 2
    return max(0, r0), max(0, c0), min(h, r0 + bh), min(w, c0 + bw)


def total_loss(pred, gts, weights=(1.0, 2.0, 2.0), eps=1e-4, clamp=1e-7) -> float:
    """0.5 BCE + 0.5 soft Dice per channel, weight-normalized (defaults)."""
    total = 0.0
    for p, g, w in zip(pred.astype(np.float64), gts, weights):
        g = g.astype(np.float64)
        pc = np.clip(p, clamp, 1.0 - clamp)
        bce = float(np.mean(-(g * np.log(pc) + (1.0 - g) * np.log1p(-pc))))
        tp, fp, fn = float((p * g).sum()), float((p * (1 - g)).sum()), float(((1 - p) * g).sum())
        dice = 1.0 - (2 * tp + eps) / (2 * tp + fn + fp + eps)
        total += w * (0.5 * bce + 0.5 * dice)
    return total / sum(weights)


class PrepTrain(Workload):
    """tile + split on a large PGM, loss maths, cutmix and both schedules."""

    name = "prep-train"
    dirs = ("prep",)
    raster_hw = (3000, 4000)
    tile = 256
    gradcheck_side = 40
    loss_side = 1024
    mix_side = 512

    def generate(self, rng) -> None:
        h, w = self.raster_hw
        rows, cols = h // self.tile, w // self.tile
        values = rng.integers(1, 256, (h, w), dtype=np.uint8)
        self.blank = rng.random((rows, cols)) < 0.2
        for r, c in zip(*np.nonzero(self.blank)):
            values[r * self.tile:(r + 1) * self.tile, c * self.tile:(c + 1) * self.tile] = 0
        for _ in range(40):  # partial nodata patches leave tiles non-blank
            r, c = int(rng.integers(0, h - 200)), int(rng.integers(0, w - 200))
            values[r:r + int(rng.integers(20, 200)), c:c + int(rng.integers(20, 200))] = 0
        for r, c in zip(*np.nonzero(~self.blank)):
            values[r * self.tile, c * self.tile] = 1
        write_pgm(self.c("raster.pgm"), values)

        s = self.loss_side
        self.loss_pred = rng.random((3, s, s), dtype=np.float32)
        self.loss_gt = (rng.random((3, s, s)) < 0.3).astype(np.uint8)
        write_pmap(self.c("loss.pmap"), self.loss_pred)
        for i in range(3):
            write_pgm(self.c(f"loss.gt{i}.pgm"), self.loss_gt[i] * 255)
        g = self.gradcheck_side
        write_pmap(self.c("plane.pmap"), rng.uniform(0.05, 0.95, (1, g, g)).astype(np.float32))
        write_pgm(self.c("plane.gt.pgm"), (rng.random((g, g)) < 0.5).astype(np.uint8) * 255)

        m = self.mix_side
        self.mix = [rng.random((3, m, m), dtype=np.float32),
                    (rng.random((3, m, m)) < 0.3).astype(np.float32),
                    rng.random((3, m, m), dtype=np.float32),
                    (rng.random((3, m, m)) < 0.3).astype(np.float32)]
        for name, arr in zip(("image_a", "masks_a", "image_b", "masks_b"), self.mix):
            write_pmap(self.c(name + ".pmap"), arr)
        self.mix_seed = int(rng.integers(0, 2 ** 31))
        self.scenes = 1 + 1 + 1 + 2
        self.megapixels = (h * w + 3 * s * s + g * g + 12 * m * m) / 1e6

    def calls(self, run, threads):
        t = ["--threads", str(threads)]
        r = lambda *p: os.path.join(run, "prep", *p)  # noqa: E731
        return [
            Call("prep", ["tile", "--raster", self.c("raster.pgm"), "--size", str(self.tile),
                          "--nodata", "0", "--index", r("tiles.json"), *t],
                 [r("tiles.json")] + sidecars(r("tiles"))),
            Call("prep", ["split", "--index", r("tiles.json"), "--k", "5", "--out", r("folds.json"), *t],
                 [r("folds.json")] + sidecars(r("folds"))),
            Call("lossmath", ["lossmath", "total", "--pred", self.c("loss.pmap"), "--gt",
                              *[self.c(f"loss.gt{i}.pgm") for i in range(3)], *t], []),
            Call("lossmath", ["lossmath", "gradcheck", "--pred", self.c("plane.pmap"),
                              "--gt", self.c("plane.gt.pgm"), *t], []),
            Call("prep", ["cutmix", "--image-a", self.c("image_a.pmap"), "--masks-a", self.c("masks_a.pmap"),
                          "--image-b", self.c("image_b.pmap"), "--masks-b", self.c("masks_b.pmap"),
                          "--seed", str(self.mix_seed), "--out-image", r("mixed.pmap"),
                          "--out-masks", r("mixed_masks.pmap"), *t],
                 [r("mixed.pmap"), r("mixed_masks.pmap")] + sidecars(r("mixed"))),
            Call("prep", ["lr", "--schedule", "poly", "--out", r("poly.csv"), *t],
                 [r("poly.csv")] + sidecars(r("poly"))),
            Call("prep", ["lr", "--schedule", "onecycle", "--out", r("onecycle.csv"), *t],
                 [r("onecycle.csv")] + sidecars(r("onecycle"))),
        ]

    def check(self, run, calls, stdout):
        problems = {k: [] for k in range(len(calls))}
        r = lambda *p: os.path.join(run, "prep", *p)  # noqa: E731
        rows, cols = self.blank.shape
        tiles = [{"tile_id": i * cols + j, "row": i, "col": j, "blank": bool(self.blank[i, j]),
                  "fold": None} for i in range(rows) for j in range(cols)]
        with open(r("tiles.json"), encoding="utf-8") as f:
            _expect(problems[0], json.load(f) == tiles, "tile index differs from the generated grid")
        usable = [d for d in tiles if not d["blank"]]
        for k, d in enumerate(usable):
            d["fold"] = k % 5
        with open(r("folds.json"), encoding="utf-8") as f:
            _expect(problems[1], json.load(f) == tiles, "fold assignment is not round-robin by (row, col)")

        want = total_loss(self.loss_pred, self.loss_gt)
        got = _float(stdout[2])
        _expect(problems[2], got is not None and abs(got - want) <= 1e-8 * abs(want),
                f"lossmath total printed {stdout[2]!r}, expected {want:.9g}")
        got = _float(stdout[3])
        _expect(problems[3], got is not None and 0.0 <= got <= 1e-4,
                f"gradcheck relative error {stdout[3]!r} above 1e-4")

        a_img, a_masks, b_img, b_masks = self.mix
        r0, c0, r1, c1 = sample_box(self.mix_side, self.mix_side, self.mix_seed)
        for got_path, a, b in ((r("mixed.pmap"), a_img, b_img), (r("mixed_masks.pmap"), a_masks, b_masks)):
            want = a.copy()
            want[:, r0:r1, c0:c1] = b[:, r0:r1, c0:c1]
            _expect(problems[4], np.array_equal(read_pmap(got_path), want), f"{got_path}: cutmix output")

        for k, name, ends in ((5, "poly.csv", (1e-3, 0.0)), (6, "onecycle.csv", (5e-6, 5e-9))):
            with open(r(name), encoding="utf-8") as f:
                lines = f.read().split()
            lr = [float(line.split(",")[1]) for line in lines[1:]]
            ok = (lines[0] == "epoch,lr" and len(lr) == 101 and (lr[0], lr[-1]) == ends
                  and (name == "poly.csv" or lr[40] == 1e-4))
            _expect(problems[k], ok, f"{name}: schedule endpoints differ")
        return problems


def _float(text):
    try:
        return float(text.strip())
    except (AttributeError, ValueError):
        return None


def make(name: str, corpus: str, seed: int) -> Workload:
    if name == "city-1024":
        return City(corpus, seed, name, images=2, size=1024, cell=60, fn=12, fp=9, empty=0)
    if name == "tiles-256":
        return City(corpus, seed, name, images=8, size=256, cell=64, fn=1, fp=2, empty=3)
    if name == "hard-extract":
        return HardExtract(corpus, seed)
    if name == "prep-train":
        return PrepTrain(corpus, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("city-1024", "hard-extract", "tiles-256", "prep-train")
