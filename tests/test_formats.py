import numpy as np
import pytest

from bfx import formats


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mask = (rng.random((11, 7)) < 0.5).astype(np.uint8)
    path = tmp_path / "m.pgm"
    formats.write_pgm(path, mask)
    assert np.array_equal(formats.read_pgm(path), mask)
    raw = formats.read_pgm_raw(path)
    assert set(np.unique(raw)) <= {0, 255}


def test_pgm_header_and_encoding():
    mask = np.array([[0, 1], [1, 0]], np.uint8)
    data = formats.encode_pgm(mask)
    assert data.startswith(b"P5\n2 2\n255\n")  # width then height
    assert data[-4:] == bytes([0, 255, 255, 0])


def test_pgm_loader_threshold_at_127():
    header = b"P5\n4 1\n255\n"
    payload = bytes([0, 127, 128, 255])
    assert formats.decode_pgm(header + payload).tolist() == [[0, 0, 1, 1]]


def test_pgm_comments_in_header():
    data = b"P5\n# a comment\n3 1\n# more\n255\n" + bytes([0, 255, 0])
    assert formats.decode_pgm(data).tolist() == [[0, 1, 0]]


def test_pgm_bad_magic_and_truncation():
    with pytest.raises(ValueError):
        formats.decode_pgm(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        formats.decode_pgm(b"P5\n4 4\n255\n\x00\x00")


def test_pmap_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pmap = rng.random((3, 5, 4)).astype(np.float32)
    path = tmp_path / "p.pmap"
    formats.write_pmap(path, pmap)
    out = formats.read_pmap(path)
    assert out.dtype == np.float32 and out.shape == (3, 5, 4)
    assert np.array_equal(out, pmap)


def test_pmap_layout_is_channel_major_little_endian():
    pmap = np.zeros((2, 1, 2), np.float32)
    pmap[1, 0, 1] = 0.5
    data = formats.encode_pmap(pmap)
    assert data.startswith(b"PMAP1\n")
    import struct
    c, h, w = struct.unpack_from("<III", data, 6)
    assert (c, h, w) == (2, 1, 2)
    floats = struct.unpack_from("<4f", data, 18)
    assert floats == (0.0, 0.0, 0.0, 0.5)


def test_pmap_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        formats.encode_pmap(np.full((1, 2, 2), 1.5, np.float32))
    good = formats.encode_pmap(np.zeros((1, 2, 2), np.float32))
    bad = bytearray(good)
    bad[-4:] = np.array([2.0], "<f4").tobytes()
    with pytest.raises(ValueError):
        formats.decode_pmap(bytes(bad))


def test_imap_round_trip(tmp_path):
    labels = np.array([[0, 1, 1], [2, 2, 0]], np.uint32)
    path = tmp_path / "x.imap"
    formats.write_imap(path, labels)
    assert np.array_equal(formats.read_imap(path), labels)


def test_imap_header_fields():
    labels = np.array([[0, 3]], np.uint32)
    data = formats.encode_imap(labels)
    assert data.startswith(b"IMAP1\n")
    import struct
    h, w, max_label = struct.unpack_from("<III", data, 6)
    assert (h, w, max_label) == (1, 2, 3)
    with pytest.raises(ValueError):
        formats.decode_imap(b"IMAP2\n" + data[6:])


def test_ppm_round_trip(tmp_path):
    rgb = np.zeros((3, 2, 3), np.uint8)
    rgb[0, 0] = (255, 0, 255)
    path = tmp_path / "c.ppm"
    formats.write_ppm(path, rgb)
    assert np.array_equal(formats.read_ppm(path), rgb)
    data = formats.encode_ppm(rgb)
    assert data.startswith(b"P6\n2 3\n255\n")


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "f.bin"
    formats.atomic_write_bytes(path, b"first")
    formats.atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "f.bin"]
    assert leftovers == []  # no temp files left behind


@pytest.mark.parametrize("decode,magic", [(formats.decode_pmap, formats.PMAP_MAGIC),
                                          (formats.decode_imap, formats.IMAP_MAGIC)])
def test_truncated_binary_header_is_value_error(decode, magic):
    for cut in (0, 4, 11):
        with pytest.raises(ValueError, match="truncated .* header"):
            decode(magic + bytes(cut))


@pytest.mark.parametrize("size", [b"3 -2", b"0 4", b"4 0"])
def test_pnm_rejects_non_positive_size(size):
    with pytest.raises(ValueError, match="not positive"):
        formats.decode_pgm_raw(b"P5\n" + size + b"\n255\n")
