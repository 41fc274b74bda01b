"""Seeded mutation fuzz of the binary readers against the CLI's exit contract.

Valid PMAP1, IMAP1 and PGM files are truncated, have bytes flipped (half
of them in the header) or are spliced onto one another, and each mutant
goes through the stages that read its format, in process. Every call must
exit 0, 1 or 2 with no traceback and no warning; a failed call prints one
`bfx: error:` or `bfx: i/o error:` line and leaves no file behind.
"""

import warnings

import numpy as np
import pytest

from bfx import cli, formats

MUTANTS = 200  # per format
HEADER = 24  # bytes counted as the header by the flips


def blocks(shape, rects):
    """A {0,1} mask of `shape` holding the given (r0, c0, r1, c1) blocks."""
    m = np.zeros(shape, np.uint8)
    for r0, c0, r1, c1 in rects:
        m[r0:r1, c0:c1] = 1
    return m


def fused_stack(shape, rects):
    """A building/border/spacing stack whose blocks are bordered buildings."""
    building = blocks(shape, rects).astype(np.float32)
    inner = blocks(shape, [(r0 + 1, c0 + 1, r1 - 1, c1 - 1) for r0, c0, r1, c1 in rects])
    border = building - inner
    return np.stack([0.9 * building, 0.8 * border, np.zeros(shape, np.float32)])


def label_map(shape, rects):
    lab = np.zeros(shape, np.uint32)
    for k, (r0, c0, r1, c1) in enumerate(rects, start=1):
        lab[r0:r1, c0:c1] = k
    return lab


RECTS = [[(1, 1, 6, 6), (2, 7, 9, 11)], [(0, 0, 4, 9), (5, 3, 9, 15), (6, 0, 9, 2)]]
SHAPES = [(12, 12), (10, 16)]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid files of each format, as bytes, as its writer makes them."""
    path = tmp_path_factory.mktemp("valid") / "file"

    def written(write, arr):
        write(path, arr)
        return path.read_bytes()

    return {
        "pmap": [written(formats.write_pmap, fused_stack(s, r)) for s, r in zip(SHAPES, RECTS)]
        + [written(formats.write_pmap, fused_stack(SHAPES[0], RECTS[0])[:2])],
        "imap": [written(formats.write_imap, label_map(s, r)) for s, r in zip(SHAPES, RECTS)],
        "pgm": [written(formats.write_pgm, blocks(s, r)) for s, r in zip(SHAPES, RECTS)],
    }


def mutants(valid, seed):
    """(kind, bytes) of `MUTANTS` seeded mutations of the valid files."""
    rng = np.random.default_rng(seed)
    for i in range(MUTANTS):
        data = bytearray(valid[rng.integers(len(valid))])
        kind = ("truncate", "flip", "splice")[i % 3]
        if kind == "truncate":
            data = data[:rng.integers(len(data))]
        elif kind == "flip":
            for _ in range(rng.integers(1, 4)):
                span = HEADER if rng.random() < 0.5 else len(data)
                data[rng.integers(span)] ^= rng.integers(1, 256)
        else:  # the head of one valid file onto the tail of another
            other = valid[rng.integers(len(valid))]
            data = data[:rng.integers(len(data) + 1)] + other[rng.integers(len(other) + 1):]
        yield kind, bytes(data)


def stage_calls(fmt, path, out, gt):
    """The calls that read a `fmt` file at `path`, writing under `out`;
    `eval` scores it against the valid instance map `gt`."""
    extract = ["--out-geojson", f"{out}/p.geojson", "--out-imap", f"{out}/p.imap", "--min-area", "2"]
    if fmt == "pmap":
        return [["fuse", path, "--out", f"{out}/f.pmap"], ["extract", "--in", path, *extract]]
    if fmt == "pgm":
        return [["extract", "--mode", "single", "--in", path, *extract]]
    return [["eval", "--pred", path, "--gt", gt, "--report", f"{out}/r.json"]]


@pytest.mark.parametrize("fmt,seed", [("pmap", 1), ("imap", 2), ("pgm", 3)])
def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys, valid, fmt, seed):
    gt = tmp_path / "gt.imap"
    gt.write_bytes(valid["imap"][0])
    out = tmp_path / "out"
    out.mkdir()
    path = tmp_path / f"mutant.{fmt}"
    codes = set()
    for i, (kind, data) in enumerate(mutants(valid[fmt], seed)):
        path.write_bytes(data)
        for argv in stage_calls(fmt, str(path), str(out), str(gt)):
            where = f"{argv[0]} on {kind} mutant {i} of {fmt}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except Exception as exc:  # any traceback breaks the contract
                    pytest.fail(f"{where} raised {exc!r}")
            stdout, stderr = capsys.readouterr()
            assert not caught, f"{where} warned: {caught[0].message}"
            assert stdout == "", where
            if code == 0:
                assert stderr == "", where
                for p in out.iterdir():
                    p.unlink()
            else:
                assert code in (1, 2), where
                lines = stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith(("bfx: error:", "bfx: i/o error:")), where
                assert list(out.iterdir()) == [], where
            codes.add(code)
    assert {0, 1} <= codes  # the mutations reach both the readers' checks and valid files
