import inspect
import math
import os
import stat
import struct
import time

import numpy as np
import pytest

from bfx import fileio, formats

from _memory import traced_peak
from _oracles import pnm_header


def written(tmp_path, write, arr) -> bytes:
    """The bytes of the file `write` makes of `arr`."""
    path = tmp_path / "written"
    write(path, arr)
    return path.read_bytes()


def file_of(tmp_path, data: bytes):
    path = tmp_path / "x.bin"
    path.write_bytes(data)
    return path


def read_pnm(path, magic):
    """The shape, maxval and whole payload, in one bytearray, of a PGM or PPM file."""
    with fileio.open_payload(path, fileio.pnm_header, magic) as (shape, maxval, fill):
        payload = bytearray(math.prod(shape))
        fill(payload)
    return shape, maxval, payload


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mask = (rng.random((11, 7)) < 0.5).astype(np.uint8)
    path = tmp_path / "m.pgm"
    formats.write_pgm(path, mask)
    assert np.array_equal(formats.read_pgm(path), mask)
    shape, maxval, raw = read_pnm(path, b"P5")
    assert shape == mask.shape and maxval == 255 and set(raw) <= {0, 255}


def test_pgm_header_and_encoding(tmp_path):
    mask = np.array([[0, 1], [1, 0]], np.uint8)
    data = written(tmp_path, formats.write_pgm, mask)
    assert data.startswith(b"P5\n2 2\n255\n")  # width then height
    assert data[-4:] == bytes([0, 255, 255, 0])


def test_pgm_loader_threshold_at_127(tmp_path):
    header = b"P5\n4 1\n255\n"
    payload = bytes([0, 127, 128, 255])
    assert formats.read_pgm(file_of(tmp_path, header + payload)).tolist() == [[0, 0, 1, 1]]


@pytest.mark.parametrize("maxval,payload,want", [
    (1, [0, 1, 1, 0], [0, 1, 1, 0]),
    (2, [0, 1, 2, 2], [0, 0, 1, 1]),  # 2v > maxval: the midpoint loads as 0
    (3, [0, 1, 2, 3], [0, 0, 1, 1]),
    (254, [0, 127, 128, 254], [0, 0, 1, 1])])
def test_pgm_loader_threshold_is_half_the_maxval(tmp_path, maxval, payload, want):
    data = b"P5\n4 1\n%d\n" % maxval + bytes(payload)
    assert formats.read_pgm(file_of(tmp_path, data)).tolist() == [want]


def test_pgm_comments_in_header(tmp_path):
    data = b"P5\n# a comment\n3 1\n# more\n255\n" + bytes([0, 255, 0])
    assert formats.read_pgm(file_of(tmp_path, data)).tolist() == [[0, 1, 0]]


def test_pgm_bad_magic_and_truncation(tmp_path):
    with pytest.raises(ValueError):
        formats.read_pgm(file_of(tmp_path, b"P6\n1 1\n255\n\x00"))
    with pytest.raises(ValueError):
        formats.read_pgm(file_of(tmp_path, b"P5\n4 4\n255\n\x00\x00"))


def test_pmap_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pmap = rng.random((3, 5, 4)).astype(np.float32)
    path = tmp_path / "p.pmap"
    formats.write_pmap(path, pmap)
    out = formats.read_pmap(path)
    assert out.dtype == np.float32 and out.shape == (3, 5, 4)
    assert np.array_equal(out, pmap)


def test_pmap_layout_is_channel_major_little_endian(tmp_path):
    pmap = np.zeros((2, 1, 2), np.float32)
    pmap[1, 0, 1] = 0.5
    data = written(tmp_path, formats.write_pmap, pmap)
    assert data.startswith(b"PMAP1\n")
    c, h, w = struct.unpack_from("<III", data, 6)
    assert (c, h, w) == (2, 1, 2)
    floats = struct.unpack_from("<4f", data, 18)
    assert floats == (0.0, 0.0, 0.0, 0.5)


def test_pmap_rejects_out_of_range_values(tmp_path):
    with pytest.raises(ValueError):
        formats.write_pmap(tmp_path / "p.pmap", np.full((1, 2, 2), 1.5, np.float32))
    good = written(tmp_path, formats.write_pmap, np.zeros((1, 2, 2), np.float32))
    bad = bytearray(good)
    bad[-4:] = np.array([2.0], "<f4").tobytes()
    with pytest.raises(ValueError):
        formats.read_pmap(file_of(tmp_path, bytes(bad)))


def test_imap_round_trip(tmp_path):
    labels = np.array([[0, 1, 1], [2, 2, 0]], np.uint32)
    path = tmp_path / "x.imap"
    formats.write_imap(path, labels)
    assert np.array_equal(formats.read_imap(path), labels)


def test_imap_header_fields(tmp_path):
    labels = np.array([[0, 3]], np.uint32)
    data = written(tmp_path, formats.write_imap, labels)
    assert data.startswith(b"IMAP1\n")
    h, w, max_label = struct.unpack_from("<III", data, 6)
    assert (h, w, max_label) == (1, 2, 3)
    with pytest.raises(ValueError):
        formats.read_imap(file_of(tmp_path, b"IMAP2\n" + data[6:]))


def test_ppm_round_trip(tmp_path):
    rgb = np.zeros((3, 2, 3), np.uint8)
    rgb[0, 0] = (255, 0, 255)
    path = tmp_path / "c.ppm"
    formats.write_ppm(path, rgb)
    assert np.array_equal(formats.read_ppm(path), rgb)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 3\n255\n")


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "f.bin"
    fileio.atomic_write_bytes(path, [b"first"])
    fileio.atomic_write_bytes(path, (part for part in (b"sec", b"ond")))
    assert path.read_bytes() == b"second"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "f.bin"]
    assert leftovers == []  # no temp files left behind


def test_a_staged_commit_logs_every_write_and_renames_them_in_order(tmp_path):
    with fileio.staged_commit() as commit:
        fileio.atomic_write_text(tmp_path / "b.txt", "b")
        fileio.atomic_write_text(str(tmp_path / "a.txt"), "a")
        assert [path for _, path in commit.writes] == [str(tmp_path / "b.txt"), str(tmp_path / "a.txt")]
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(tmp) for tmp, _ in commit.writes)
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]


def test_a_rename_that_raises_a_value_error_unlinks_the_temp_files_after_it(tmp_path):
    with pytest.raises(ValueError, match="null byte"):
        with fileio.staged_commit():
            fileio.atomic_write_text(tmp_path / "a.txt", "a")
            fileio.atomic_write_text(str(tmp_path / "b\x00.txt"), "b")  # the temp file has no NUL
            fileio.atomic_write_text(tmp_path / "c.txt", "c")
    assert os.listdir(tmp_path) == ["a.txt"]  # renamed before the failing rename, as any such file


@pytest.mark.parametrize("second", ["a.txt", "./a.txt", "sub/../a.txt", "link/a.txt"])
def test_two_writes_to_one_file_are_refused_before_any_rename(tmp_path, monkeypatch, second):
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    os.symlink(".", "link")
    with pytest.raises(ValueError) as caught:
        with fileio.staged_commit():
            fileio.atomic_write_text("a.txt", "first")
            fileio.atomic_write_text("b.txt", "other")
            fileio.atomic_write_text(second, "second")
    assert str(caught.value) == f"the call writes {second!r} twice"
    assert sorted(os.listdir()) == ["link", "sub"]


def test_make_dirs_outside_a_commit_is_makedirs(tmp_path):
    fileio.make_dirs(tmp_path / "a" / "b")
    fileio.make_dirs(tmp_path / "a" / "b")
    assert (tmp_path / "a" / "b").is_dir()
    (tmp_path / "f").write_text("")
    with pytest.raises(FileExistsError):
        fileio.make_dirs(tmp_path / "f")


def test_a_failed_commit_removes_the_empty_directories_it_made(tmp_path):
    (tmp_path / "old").mkdir()
    with pytest.raises(RuntimeError):
        with fileio.staged_commit():
            fileio.make_dirs(tmp_path / "old" / "new" / "deep")
            fileio.make_dirs(str(tmp_path / "old" / "new" / "deep" / "er") + os.sep)
            fileio.make_dirs(tmp_path / "kept" / "x")
            fileio.atomic_write_text(tmp_path / "old" / "new" / "deep" / "er" / "f.txt", "f")
            (tmp_path / "kept" / "other.txt").write_text("not the commit's")
            raise RuntimeError
    # every level the commit made is gone unless something else lies in it
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "kept", "kept/other.txt", "old"]


def test_a_commit_that_succeeds_keeps_the_directories_it_made(tmp_path):
    with fileio.staged_commit():
        fileio.make_dirs(tmp_path / "new" / "deep")
    assert (tmp_path / "new" / "deep").is_dir()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_applies_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        fileio.atomic_write_text(tmp_path / "f.txt", "x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == mode


BINARY = [pytest.param(formats.read_pmap, formats.write_pmap, formats.PMAP_MAGIC, "PMAP1", (1, 2, 3), id="pmap"),
          pytest.param(formats.read_imap, formats.write_imap, formats.IMAP_MAGIC, "IMAP1", (2, 3, 0), id="imap")]


@pytest.mark.parametrize("read,write,magic,name,fields", BINARY)
def test_truncated_binary_header_is_value_error(tmp_path, read, write, magic, name, fields):
    for cut in (0, 4, 11):
        with pytest.raises(ValueError, match=f"^truncated {name} header$"):
            read(file_of(tmp_path, magic + bytes(cut)))


@pytest.mark.parametrize("size", [b"3 -2", b"0 4", b"4 0"])
def test_pnm_rejects_non_positive_size(tmp_path, size):
    # a sign is no digit: a negative size is refused as a header field
    message = "^PNM header field is not 1 to 20 decimal digits$" if b"-" in size else "not positive"
    with pytest.raises(ValueError, match=message):
        read_pnm(file_of(tmp_path, b"P5\n" + size + b"\n255\n"), b"P5")


@pytest.mark.parametrize("read,write,magic,name,fields", BINARY)
def test_payload_size_is_checked_against_the_file_before_allocating(tmp_path, read, write, magic, name, fields):
    path = tmp_path / "x.bin"
    for declared in ((65535, 65535, 65535), (2 ** 32 - 1, 2 ** 32 - 1, 1)):
        path.write_bytes(magic + struct.pack("<III", *declared))
        with pytest.raises(ValueError, match=f"^truncated {name} payload$"):
            read(path)
    count = fields[0] * fields[1] * (fields[2] if name == "PMAP1" else 1)
    path.write_bytes(magic + struct.pack("<III", *fields) + bytes(4 * count - 1))
    with pytest.raises(ValueError, match=f"^truncated {name} payload$"):
        read(path)


@pytest.mark.parametrize("read,write,magic,name,fields", BINARY)
def test_zero_dimensions_are_rejected_before_allocating(tmp_path, read, write, magic, name, fields):
    path = tmp_path / "x.bin"
    huge = 2 ** 32 - 1
    declared = [(huge, huge, 0), (0, huge, huge), (0, 0, 0)] if name == "PMAP1" else [(huge, 0, 0), (0, huge, 0)]
    for dims in declared:
        path.write_bytes(magic + struct.pack("<III", *dims))
        with pytest.raises(ValueError, match=f"^{name} header declares a zero dimension"):
            read(path)


@pytest.mark.parametrize("write,shape", [(formats.write_pmap, (3, 0, 5)), (formats.write_pmap, (0, 4, 4)),
                                         (formats.write_imap, (0, 4)), (formats.write_ppm, (0, 4, 3))])
def test_writers_refuse_what_readers_refuse(tmp_path, write, shape):
    with pytest.raises(ValueError, match="zero dimension"):
        write(tmp_path / "x.bin", np.zeros(shape, np.float32 if write is formats.write_pmap else np.uint8))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("read,write,magic,name,fields", BINARY)
def test_trailing_bytes_are_ignored(tmp_path, read, write, magic, name, fields):
    arr = np.full((2, 3, 4), 0.25, np.float32) if name == "PMAP1" else np.arange(12, dtype=np.uint32).reshape(3, 4)
    data = written(tmp_path, write, arr)
    out = read(file_of(tmp_path, data + b"trailing"))
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert out.tobytes() == arr.tobytes() == data[18:]


@pytest.mark.parametrize("read,write,magic,name,fields", BINARY)
def test_binary_header_errors_name_the_format(tmp_path, read, write, magic, name, fields):
    bad_magic = "not a PMAP1 file" if name == "PMAP1" else "not an IMAP1 file"
    for data, message in ((b"", bad_magic), (magic[:3], bad_magic), (b"XXXXX\n" + bytes(12), bad_magic),
                          (magic + bytes(5), f"truncated {name} header")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(file_of(tmp_path, data))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-38, 1.0000001])
def test_pmap_non_finite_or_out_of_range_payload_is_rejected(tmp_path, bad):
    pmap = np.full((2, 2, 3), 0.5, np.float32)
    pmap[1, 1, 2] = bad  # in the last plane, cast and checked after the first is written
    for stack in (pmap, pmap.astype(np.float64)):
        with pytest.raises(ValueError, match=r"^probability values must lie in \[0, 1\]$"):
            formats.write_pmap(tmp_path / "p.pmap", stack)
        assert list(tmp_path.iterdir()) == []  # no file, and no `.tmp.*`
    data = formats.PMAP_MAGIC + struct.pack("<III", *pmap.shape) + pmap.astype("<f4").tobytes()
    with pytest.raises(ValueError, match=r"^PMAP1 values outside \[0, 1\]$"):
        formats.read_pmap(file_of(tmp_path, data))


def test_pmap_accepts_both_zeros_and_the_unit_interval_ends(tmp_path):
    pmap = np.array([[[0.0, -0.0, 1.0, 2 ** -149]]], np.float32)
    formats.write_pmap(tmp_path / "p.pmap", pmap)
    assert formats.read_pmap(tmp_path / "p.pmap").tobytes() == pmap.tobytes()


def test_writers_emit_c_order_bytes_for_any_input_layout(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.random((3, 5, 7))
    # cast to float32, these read 0.0, 1.0, -0.0 and 1.0, so the stack is written
    values[2, 4, 0:4] = [1e-50, 1 - 1e-12, -1e-50, 1 + 1e-12]
    big = np.zeros((3, 11, 21))
    big[:, 1::2, ::3] = values
    binary = values < 0.5
    for pmap in (values, np.asfortranarray(values), big[:, 1::2, ::3], values[:, ::-1, ::-1],
                 binary, binary.astype(np.uint8)):
        data = written(tmp_path, formats.write_pmap, pmap)
        assert data == formats.PMAP_MAGIC + struct.pack("<III", 3, 5, 7) + np.ascontiguousarray(pmap, "<f4").tobytes()
        assert formats.read_pmap(tmp_path / "written").flags.c_contiguous
    labels = rng.integers(0, 9, (6, 4)).astype(np.int64)
    for lab in (labels, np.asfortranarray(labels), labels[::-1, ::2], labels.astype(np.uint8)):
        assert written(tmp_path, formats.write_imap, lab) == formats.IMAP_MAGIC + struct.pack(
            "<III", *lab.shape, lab.max()) + np.ascontiguousarray(lab, "<u4").tobytes()
    mask = (rng.random((4, 6)) < 0.5).astype(np.uint8)
    for m in (np.asfortranarray(mask), mask[::-1], mask.astype(bool)):
        formats.write_pgm(tmp_path / "m.pgm", m)
        assert (tmp_path / "m.pgm").read_bytes() == b"P5\n6 4\n255\n" + (np.ascontiguousarray(m) * 255).astype(np.uint8).tobytes()
    rgb = rng.integers(0, 256, (4, 6, 3)).astype(np.uint8)
    formats.write_ppm(tmp_path / "c.ppm", np.asfortranarray(rgb))
    assert (tmp_path / "c.ppm").read_bytes() == b"P6\n6 4\n255\n" + rgb.tobytes()


def test_read_pmap_into_a_buffer(tmp_path):
    rng = np.random.default_rng(3)
    pmap = rng.random((2, 3, 4)).astype(np.float32)
    formats.write_pmap(tmp_path / "p.pmap", pmap)
    buf = np.full((2, 3, 4), 0.5, np.float32)
    assert formats.read_pmap(tmp_path / "p.pmap", out=buf) is buf
    assert buf.tobytes() == pmap.tobytes()
    for bad, message in [(np.zeros((2, 4, 3), np.float32), r"^PMAP1 payload has shape \(2, 3, 4\), expected"),
                         (np.zeros((2, 3, 4)), "C-order <f4"),
                         (np.zeros((2, 3, 8), np.float32)[..., ::2], "C-order <f4"),
                         (np.zeros((4, 3, 2), np.float32).T, "C-order <f4")]:
        before = bad.copy()
        with pytest.raises(ValueError, match=message):
            formats.read_pmap(tmp_path / "p.pmap", out=bad)
        assert np.array_equal(bad, before)


def test_writers_pass_ready_payloads_through_without_a_copy(tmp_path, monkeypatch):
    payloads = []
    monkeypatch.setattr(formats, "atomic_write_bytes", lambda path, parts: payloads.append(list(parts)[1:]))
    labels = np.arange(6, dtype=np.uint32).reshape(2, 3)
    rgb = np.zeros((2, 3, 3), np.uint8)
    for write, arr in ((formats.write_imap, labels), (formats.write_ppm, rgb)):
        write(tmp_path / "x", arr)
        (payload,) = payloads.pop()
        assert payload is arr
    # a PMAP1 stack is handed over plane by plane: views of a ready stack
    pmap = np.full((2, 2, 3), 0.5, np.float32)
    formats.write_pmap(tmp_path / "x", pmap)
    planes = payloads.pop()
    assert len(planes) == 2 and all(p.base is pmap for p in planes)
    formats.write_pmap(tmp_path / "x", np.asfortranarray(pmap))
    assert not any(np.shares_memory(p, pmap) for p in payloads.pop())


def test_pgm_truncated_payload_is_rejected(tmp_path):
    header = b"P5\n4 3\n255\n"
    for cut in (0, 1, 11):
        path = file_of(tmp_path, header + bytes(range(cut)))
        for read in (lambda p: read_pnm(p, b"P5"), formats.read_pgm):
            with pytest.raises(ValueError, match="^truncated PGM payload$"):
                read(path)
    full = header + bytes(range(12)) + b"trailing"
    assert read_pnm(file_of(tmp_path, full), b"P5") == ((3, 4), 255, bytes(range(12)))


def straddle(head: bytes, tail: bytes, filler: bytes = b" ") -> bytes:
    """`head`, filler, then `tail` starting one byte before the 4096th: a
    header whose tokens cross the 4096-byte boundary, where file reads are
    commonly cut."""
    return head + filler * (4095 - len(head)) + tail


@pytest.mark.parametrize("header", [
    b"P5\n# " + b"c" * 5000 + b"\n2 1\n255\n",  # a comment longer than 4096 bytes
    straddle(b"P5", b"12 1\n255\n"),  # the width straddles the boundary
    straddle(b"P5\n2 1", b"255\n", b"\n"),  # so does the maxval
    b"P5\n2 1" + b"\n" * 4086 + b"255\n",  # the separator byte is the 4096th
    straddle(b"P5", b"-5 1\n255\n"),  # an invalid size split after its sign
    b"P5\n2 1\n255",  # no separator at all
    b"P5\n2 1\n25",
    b"P5\n2 1\n300\n",
    b"P5\n2 x\n255\n",
    b"P6\n2 1\n255\n",
    b"P5\n2 -1\n255\n",
    b"P5\n# open comment " + b"x" * 9000,
    b"P5\n1_0 1 255\n",  # only ASCII digits make a field: no separators, signs or letters
    b"P5\n+4 +1 +255\n",
    b"P5\n3 -2\n255\n",
    b"P5\nxxx 1\n255\n",
    b"P5\n2 1\n25#5\n",
    b"P5\n2\x001\n255\n",
    b"P5\n00000000000000000002 1\n0255\n",  # 20 digits, leading zeros included
    b"P5\n000000000000000000002 1\n255\n",  # 21
    b"P5\n2 1\n" + b"1" * 5000,  # a field running across the 4096th byte
    b"P5\n" + b"1" * 5000 + b"x",
])
def test_pgm_header_parse_from_file_matches_bytes(tmp_path, header):
    for data in (header, header + bytes(range(12)), header + bytes(5000)):
        try:  # the whole file's bytes parsed at once
            w, h, maxval, offset = pnm_header(data, b"P5")
            if not 0 < maxval < 256:
                raise ValueError(f"unsupported PGM maxval {maxval}")
            if len(data) - offset < w * h:
                raise ValueError("truncated PGM payload")
            want = np.frombuffer(data, np.uint8, w * h, offset)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_pnm(file_of(tmp_path, data), b"P5")
            assert str(got.value) == str(exc)
        else:
            assert read_pnm(file_of(tmp_path, data), b"P5") == ((h, w), maxval, want.tobytes())


def test_an_unterminated_header_comment_is_read_in_bounded_pieces(tmp_path):
    path = file_of(tmp_path, b"P5\n#" + b"c" * (8 << 20))  # 8 MiB of comment, no newline

    def read():
        with pytest.raises(ValueError, match="^truncated PNM header$"):
            read_pnm(path, b"P5")

    _, peak = traced_peak(read)
    assert peak < 1 << 20


def test_a_long_header_field_is_refused_at_its_21st_digit(tmp_path):
    path = file_of(tmp_path, b"P5\n" + b"1" * (8 << 20))  # 8 MiB of digits

    def read():
        with pytest.raises(ValueError, match="^PNM header field is not 1 to 20 decimal digits$"):
            read_pnm(path, b"P5")

    start = time.perf_counter()
    read()
    assert time.perf_counter() - start < 0.05
    _, peak = traced_peak(read)
    assert peak < 1 << 20


def test_fill_reads_as_many_bytes_as_the_buffer_holds(tmp_path):
    path = file_of(tmp_path, b"P5\n4 3\n255\n" + bytes(range(12)))
    with fileio.open_payload(path, fileio.pnm_header, b"P5") as (shape, maxval, fill):
        rows = np.zeros(shape, np.uint8)  # 2-D: its length is its 3 rows, its size 12 bytes
        fill(rows)
        with pytest.raises(ValueError, match="^truncated PGM payload$"):
            fill(bytearray(1))
    assert (shape, maxval) == ((3, 4), 255) and rows.tobytes() == bytes(range(12))
    with fileio.open_payload(path, fileio.pnm_header, b"P5") as (_, _, fill):
        words = np.zeros(4, "<u4")  # 4 elements of 16 bytes: more than the payload holds
        with pytest.raises(ValueError, match="^truncated PGM payload$"):
            fill(words)


def test_ppm_round_trip_and_truncation(tmp_path):
    rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    formats.write_ppm(tmp_path / "c.ppm", rgb)
    data = (tmp_path / "c.ppm").read_bytes()
    assert data == b"P6\n4 2\n255\n" + rgb.tobytes()
    (tmp_path / "c.ppm").write_bytes(data + b"x")
    assert np.array_equal(formats.read_ppm(tmp_path / "c.ppm"), rgb)
    (tmp_path / "c.ppm").write_bytes(data[:-1])
    with pytest.raises(ValueError, match="^truncated PPM payload$"):
        formats.read_ppm(tmp_path / "c.ppm")
    (tmp_path / "c.ppm").write_bytes(data.replace(b"255", b"254", 1))
    with pytest.raises(ValueError, match="^unsupported PPM maxval 254$"):
        formats.read_ppm(tmp_path / "c.ppm")


def test_formats_offers_one_reader_and_one_writer_per_format():
    public = {name for name, value in vars(formats).items() if not name.startswith("_")
              and not inspect.ismodule(value) and getattr(value, "__module__", formats.__name__) == formats.__name__}
    assert public == {"PMAP_MAGIC", "IMAP_MAGIC", "CHANNEL_NAMES", "write_pgm", "read_pgm",
                      "write_ppm", "read_ppm", "write_pmap", "read_pmap", "write_imap", "read_imap"}
