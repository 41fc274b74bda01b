"""Golden digests of all nine stages on a small seeded corpus.

One pass runs the corpus through targets, fuse (plain and `--tta`),
extract, eval, tile, split, lr, lossmath and cutmix in process, and the
sha256 of every file it leaves (corpus, artifacts, sidecars) and of the
calls' stdout must equal `tests/golden.json`. The same pass must give the
same bytes at `--threads` 2, with the whole tree at another path, and with
`fuse`'s folds listed in reverse order.

Bytes that rest on libm or SIMD transcendentals are not digested, since
numpy and the platform may round those differently: `lossmath`'s printed
values (`np.log`, `np.log1p`) and the `lr` CSVs (`math.cos`, float `**`)
are compared as numbers within the tolerances below, and `cutmix` runs
with an explicit `--box` rather than a sampled one. Everything else comes
from comparisons, integer work and IEEE basic arithmetic.

A change that alters bytes on purpose replaces `tests/golden.json` with the
map that a failing run writes (its path is in the failure message).
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from bfx import cli, formats
from bfx.stages.fuse import VIEW_SUFFIXES

from _oracles import copy_view, disjoint_rectangles

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SIZE = 96
IMAGES = ("img0", "img1", "img2")
FOLDS = 3
# a 1-ulp difference in a logarithm or cosine stays far inside these
LOSS_TOLERANCE = {"rel_tol": 1e-6, "abs_tol": 1e-9}  # printed with 9 significant digits
LR_TOLERANCE = {"rel_tol": 1e-12}  # printed with repr
LOSS_OPS = ("dice", "bce", "channel", "gradcheck", "total")


class _Stream:
    """A fixed integer stream offering the `integers(low, high)` call that
    `disjoint_rectangles` makes. numpy's Generator streams may change
    between numpy versions (NEP 19); this corpus must not."""

    def __init__(self, seed):
        self.state = seed

    def integers(self, low, high):
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        return low + (self.state >> 32) % (high - low)


def _fold_stack(boxes, image, fold, salt):
    """A (3, SIZE, SIZE) float32 probability stack: high inside the boxes
    (building) and along their 2-px rims (border), a ramp pattern elsewhere.
    Only exactly rounded float32 operations, so the bytes are portable."""
    r, c = np.mgrid[:SIZE, :SIZE]
    pattern = ((r * 7 + c * 13 + 29 * fold + 53 * salt + 17 * image) % 101).astype(np.float32)
    pattern /= np.float32(100)
    inside = np.zeros((SIZE, SIZE), bool)
    rim = np.zeros((SIZE, SIZE), bool)
    for r0, c0, r1, c1 in boxes:
        inside[r0:r1, c0:c1] = True
        rim[r0:r1, c0:c1] = True
        rim[r0 + 2:r1 - 2, c0 + 2:c1 - 2] = False
    building = np.where(inside, np.float32(0.55) + np.float32(0.45) * pattern, np.float32(0.28) * pattern)
    border = np.where(rim, np.float32(0.6) + np.float32(0.4) * pattern, np.float32(0.25) * pattern)
    spacing = np.float32(0.5) * pattern
    return np.stack([building, border, spacing])


def make_corpus(corpus):
    """Annotations, plain and per-view fold stacks, and a tile raster."""
    corpus.mkdir(parents=True)
    stream = _Stream(10)
    ann = {}
    for k, image_id in enumerate(IMAGES):
        rings, boxes = disjoint_rectangles(stream, SIZE, SIZE, 6, min_side=13, max_side=20, gap=3)
        ann[image_id] = [{"points": ring.tolist()} for ring in rings]
        for f in range(FOLDS):
            formats.write_pmap(corpus / f"{image_id}.f{f}.pmap", _fold_stack(boxes, k, f, 0))
            for v, (view, suffix) in enumerate(VIEW_SUFFIXES):
                formats.write_pmap(corpus / f"{image_id}.f{f}.{suffix}.pmap",
                                   copy_view(_fold_stack(boxes, k, f, v + 1), view))
    (corpus / "ann.json").write_text(json.dumps(ann, sort_keys=True))
    r, c = np.mgrid[:SIZE, :160]
    raster = ((r * 3 + c * 5) % 251 + 1).astype(np.uint8)
    raster[:32, :64] = 0  # two all-nodata tiles
    raster[40:50, 100:120] = 0  # and a partly blank one
    (corpus / "raster.pgm").write_bytes(b"P5\n160 %d\n255\n" % SIZE + raster.tobytes())


def calls(root, reverse_folds):
    c, o = root / "corpus", root / "out"
    folds = range(FOLDS - 1, -1, -1) if reverse_folds else range(FOLDS)
    gt = [o / "tgt-pgm" / f"img0.{name}.pgm" for name in formats.CHANNEL_NAMES]
    yield ["targets", "--annotations", c / "ann.json", "--out-dir", o / "tgt", "--height", SIZE,
           "--width", SIZE, "--format", "pmap"]
    yield ["targets", "--annotations", c / "ann.json", "--out-dir", o / "tgt-pgm", "--height", SIZE,
           "--width", SIZE, "--erosion-iterations", 1]
    for image_id in IMAGES:
        prefixes = [c / f"{image_id}.f{f}.pmap" for f in folds]
        yield ["fuse", *prefixes, "--out", o / "fused" / f"{image_id}.pmap"]
        yield ["fuse", "--tta", *prefixes, "--out", o / "tta" / f"{image_id}.pmap", "--threshold", 0.45]
        yield ["extract", "--in", o / "fused" / f"{image_id}.pmap", "--image-id", image_id,
               "--out-geojson", o / "pred" / f"{image_id}.geojson",
               "--out-imap", o / "pred-imap" / f"{image_id}.imap"]
        tgt = [o / "tgt-pgm" / f"{image_id}.{name}.pgm" for name in formats.CHANNEL_NAMES]
        yield ["extract", "--building", tgt[0], "--border", tgt[1], "--spacing", tgt[2],
               "--out-geojson", o / "gt" / f"{image_id}.geojson",
               "--out-imap", o / "gt-imap" / f"{image_id}.imap"]
    yield ["extract", "--mode", "single", "--in", o / "tta" / "img0.building.pgm", "--min-area", 20,
           "--out-geojson", o / "single.geojson", "--out-imap", o / "single.imap"]
    yield ["eval", "--pred", o / "pred", "--gt", o / "gt-imap", "--report", o / "eval" / "report.json",
           "--csv", o / "eval" / "counts.csv", "--colormap", o / "eval" / "cmaps"]
    yield ["eval", "--pred", o / "pred" / "img1.geojson", "--gt", o / "gt" / "img2.geojson",
           "--iou", 0.3, "--colormap", o / "one.ppm", "--report", o / "one.json"]
    yield ["tile", "--raster", c / "raster.pgm", "--size", 32, "--index", o / "tiles.json"]
    yield ["split", "--index", o / "tiles.json", "--k", 3, "--out", o / "folds.json"]
    yield ["lr", "--schedule", "onecycle", "--total-epochs", 60, "--up-epochs", 25,
           "--out", o / "lr" / "onecycle.csv"]
    yield ["lr", "--schedule", "poly", "--total-epochs", 60, "--out", o / "lr" / "poly.csv"]
    yield ["lr", "--schedule", "poly", "--poly-recursive", "--total-epochs", 60,
           "--out", o / "lr" / "poly-recursive.csv"]
    for op in LOSS_OPS:
        pred = o / "fused" / "img0.pmap"
        if op == "total":
            yield ["lossmath", op, "--pred", pred, "--gt", *gt]
        else:
            yield ["lossmath", op, "--pred", pred, "--gt", gt[1], "--channel", 1]
    yield ["cutmix", "--image-a", c / "img0.f0.pmap", "--masks-a", o / "tgt" / "img0.pmap",
           "--image-b", c / "img1.f1.pmap", "--masks-b", o / "tgt" / "img1.pmap", "--box", "10,20,60,75",
           "--out-image", o / "mix" / "image.pmap", "--out-masks", o / "mix" / "masks.pmap"]


def run_pass(root, threads, reverse_folds=False):
    """Build the corpus under `root`, run every call on it, and return
    ({relative path: bytes} of the tree, the calls' stdout, lossmath's
    printed values by op)."""
    make_corpus(root / "corpus")
    for sub in ("fused", "tta", "pred", "pred-imap", "gt", "gt-imap", "eval", "lr", "mix"):
        (root / "out" / sub).mkdir(parents=True)
    stdout = io.StringIO()
    losses = {}
    for argv in calls(root, reverse_folds):
        argv = [str(a) for a in argv] + ["--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0, argv
        if argv[0] == "lossmath":
            losses[argv[1]] = float(out.getvalue())
        else:
            stdout.write(out.getvalue())
    tree = {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
    return tree, stdout.getvalue(), losses


def _is_lr_csv(rel):
    return rel.startswith("out/lr/") and rel.endswith(".csv")


def golden_doc(tree, stdout, losses):
    """The golden.json document of one pass."""
    digests = {rel: hashlib.sha256(data).hexdigest() for rel, data in tree.items() if not _is_lr_csv(rel)}
    digests["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
    lrs = {rel: [float(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
           for rel, data in tree.items() if _is_lr_csv(rel)}
    return {"digests": digests, "lossmath": losses, "lr": lrs}


@pytest.fixture(scope="module")
def forward(tmp_path_factory):
    return run_pass(tmp_path_factory.mktemp("golden") / "run", 1)


def test_every_stage_matches_the_golden_digests(forward, tmp_path):
    doc = golden_doc(*forward)
    golden = json.loads(GOLDEN.read_text())
    new = tmp_path / "golden.json"
    new.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    hint = f"; the new map is in {new}"
    differing = [rel for rel in sorted(set(golden["digests"]) | set(doc["digests"]))
                 if doc["digests"].get(rel) != golden["digests"].get(rel)]
    assert not differing, f"{differing[0]} differs from {GOLDEN.name} ({len(differing)} entries){hint}"
    assert sorted(doc["lossmath"]) == sorted(golden["lossmath"]) == sorted(LOSS_OPS)
    for op, value in golden["lossmath"].items():
        assert math.isclose(doc["lossmath"][op], value, **LOSS_TOLERANCE), f"lossmath {op}{hint}"
    assert sorted(doc["lr"]) == sorted(golden["lr"])
    for rel, values in golden["lr"].items():
        got = doc["lr"][rel]
        assert len(got) == len(values) and all(
            math.isclose(a, b, **LR_TOLERANCE) for a, b in zip(got, values)), f"{rel} differs{hint}"


def test_thread_count_and_location_change_no_byte(forward, tmp_path):
    moved = run_pass(tmp_path / "elsewhere" / "deeper", 2)
    for rel in sorted(set(forward[0]) | set(moved[0])):
        assert moved[0].get(rel) == forward[0].get(rel), rel
    assert moved[1:] == forward[1:]


def _inputs_unordered(data):
    """A fuse sidecar with its input lists sorted."""
    doc = json.loads(data)
    for part in (doc, doc.get("config", {})):
        if "inputs" in part:
            part["inputs"] = sorted(part["inputs"])
    return doc


def test_fold_order_changes_no_byte(forward, tmp_path):
    reversed_ = run_pass(tmp_path / "run", 1, reverse_folds=True)
    assert sorted(reversed_[0]) == sorted(forward[0])
    for rel, data in forward[0].items():
        if reversed_[0][rel] == data:
            continue
        # only the fuse sidecars list the folds, in the order given
        assert rel.startswith(("out/fused/", "out/tta/")) and rel.endswith(
            (".config.json", ".manifest.json")), rel
        assert _inputs_unordered(reversed_[0][rel]) == _inputs_unordered(data), rel
    assert reversed_[1:] == forward[1:]
