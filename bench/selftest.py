"""The benchmark's own checks; run them with `python3 bench/run.py --selftest`.

1. The same seed writes a byte-identical corpus; another seed does not.
2. Self-time arithmetic on a hand-built nested span set, including
   children that overlap on worker threads, and the tracer's wrapping of
   functions bound in several module namespaces.
3. The correctness gate fires when one byte of an IMAP artifact flips.
"""

from __future__ import annotations

import os
import shutil

import run
import spans
import workloads


def _files(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def check_corpus_determinism(work):
    for name in workloads.NAMES:
        trees = []
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            corpus = os.path.join(work, f"{name}-{tag}")
            workloads.make(name, corpus, seed)
            trees.append(_files(corpus))
            shutil.rmtree(corpus)
        assert trees[0] and trees[0] == trees[1], f"{name}: seed 7 gave two different corpora"
        assert trees[0] != trees[2], f"{name}: seeds 7 and 8 gave the same corpus"


def check_self_times(work):
    # (id, name, parent, start, end, thread, request); spans 2 and 3 run on
    # two worker threads under span 1 and overlap during [30, 40)
    hand = [(1, "cli.main", None, 0, 100, 1, 1),
            (2, "fusion.tta_average", 1, 10, 40, 2, 1),
            (3, "fusion.tta_average", 1, 30, 60, 3, 1),
            (4, "formats.read_pmap", 2, 15, 20, 2, 1),
            (5, "cli.main", None, 200, 210, 1, 2)]
    got = spans.self_times(hand)
    assert got == {1: 50, 2: 25, 3: 30, 4: 5, 5: 10}, got
    tracer = spans.Tracer()
    tracer.spans = hand
    s = spans.summarize(tracer)
    layers = {k: round(v * 1e6) for k, v in s["layer_self_ms"].items()}  # back to ns
    assert layers == {"cli": 60, "fusion": 55, "formats": 5}, layers

    run.import_package()
    import bfx
    from bfx import dataprep, targets
    original = targets.rasterize_polygon
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dataprep.rasterize_polygon is targets.rasterize_polygon is bfx.rasterize_polygon
        assert targets.rasterize_polygon is not original
        ring = [(1, 1), (9, 1), (9, 9), (1, 9)]
        targets.assemble_targets([ring], 12, 12)
        dataprep.subdivide_tile(None, [[(1, 1), (60, 1), (60, 60), (1, 60)]], 64, 32)
    finally:
        tracer.uninstall()
    assert targets.rasterize_polygon is original and dataprep.rasterize_polygon is original
    by_id = {sp[0]: sp for sp in tracer.spans}
    names = [sp[1] for sp in tracer.spans]
    assert names.count("targets.assemble_targets") == 1 and "dataprep.subdivide_tile" in names
    assert tracer.calls["targets.rasterize_polygon"] == 5  # 1 in targets, 4 crops via dataprep
    assert tracer.calls["raster.as_mask"] > 0 and "raster.as_mask" not in names  # folded helper
    for sp in tracer.spans:
        if sp[1] == "targets.rasterize_polygon":
            assert by_id[sp[2]][1] in ("targets.assemble_targets", "dataprep.subdivide_tile")


def check_gate(work):
    run.import_package()
    wl = workloads.make("tiles-256", os.path.join(work, "corpus"), 3)
    run_dir = os.path.join(work, "run")
    ref = run.reference_pass(wl, run_dir, 1, run.run_in_process)
    assert not ref.bad, ref.problems
    again = run.Pass(wl, run_dir, 2, run.run_in_process)
    assert not again.failed_calls(ref), "a correct pass was flagged"

    k = next(i for i, c in enumerate(again.calls) if c.stage == "extract")
    imap = next(p for p in again.calls[k].outputs if p.endswith(".imap"))
    with open(imap, "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        f.seek(0)
        f.write(data)
    again.digests = [[run.digest(p) for p in c.outputs] for c in again.calls]
    assert again.failed_calls(ref) == {k}, "byte-identity gate missed the flipped byte"
    problems = wl.check(run_dir, again.calls, [r[3] for r in again.results])
    assert problems[k] and not any(v for i, v in problems.items() if i != k), problems


def main() -> int:
    work = os.path.join(run.WORK, "selftest")
    failed = 0
    for check in (check_corpus_determinism, check_self_times, check_gate):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            check(work)
            print(f"PASS  {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {check.__name__}: {exc}")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0
