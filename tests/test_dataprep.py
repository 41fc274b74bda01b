import numpy as np
import pytest

from bfx.annotations import AnnotationError, ingest_annotations
from bfx.dataprep import subdivide_tile
from bfx.targets import rasterize_polygon
from bfx.tiling import TileRecord, kfold_assign, tile_index


def rect_ring(x0, y0, x1, y1):
    return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], float)


# ---------------------------------------------------------------------------
# tile_index
# ---------------------------------------------------------------------------


def never_blank(row, col):
    return False


def test_tile_grid_4096():
    tiles = tile_index(4096, 4096, 1024, never_blank)
    assert len(tiles) == 16
    assert [t.tile_id for t in tiles] == list(range(16))
    assert tiles[5] == TileRecord(5, 1, 1)


def test_tile_partial_bottom_row_dropped():
    tiles = tile_index(4500, 4096, 1024, never_blank)
    assert len(tiles) == 16  # 4 rows fit, the 404-px remainder is dropped


def test_tile_probe_marks_blanks():
    values = np.zeros((64, 64), np.uint8)
    values[0:32, 0:32] = 7

    def probe(row, col):
        return (values[row * 32:(row + 1) * 32, col * 32:(col + 1) * 32] == 0).all()

    tiles = tile_index(64, 64, 32, probe)
    assert [t.blank for t in tiles] == [False, True, True, True]
    assert all(type(t.blank) is bool for t in tiles)  # a numpy bool would not be JSON


def test_tile_all_nodata_source():
    tiles = tile_index(64, 64, 32, lambda row, col: True)
    assert all(t.blank for t in tiles)
    assert all(t.fold is None for t in tiles)


def test_tiles_partition_without_overlap():
    tiles = tile_index(96, 128, 32, never_blank)
    seen = np.zeros((96, 128), np.int32)
    for t in tiles:
        seen[t.row * 32:(t.row + 1) * 32, t.col * 32:(t.col + 1) * 32] += 1
    assert seen.max() == 1  # no overlap; union within the source extent


def test_tile_size_validation():
    with pytest.raises(ValueError):
        tile_index(100, 100, 0, never_blank)


# ---------------------------------------------------------------------------
# subdivide_tile
# ---------------------------------------------------------------------------


def test_subdivide_polygon_in_far_quadrant():
    ring = rect_ring(600, 600, 620, 620)
    crops = subdivide_tile(None, [ring])
    assert [c.offset for c in crops] == [(0, 0), (0, 512), (512, 0), (512, 512)]
    with_poly = [c for c in crops if c.rings]
    assert len(with_poly) == 1 and with_poly[0].offset == (512, 512)
    moved = with_poly[0].rings[0]
    assert moved.min(axis=0).tolist() == [88.0, 88.0]
    assert moved.max(axis=0).tolist() == [108.0, 108.0]


def test_subdivide_polygon_inside_first_quadrant_unchanged():
    ring = rect_ring(10, 10, 40, 40)
    crops = subdivide_tile(None, [ring])
    assert np.array_equal(crops[0].rings[0], ring)
    assert all(not c.rings for c in crops[1:])


def test_subdivide_straddling_polygon_conserves_fill():
    ring = rect_ring(500, 100, 530, 140)  # straddles x=512
    crops = subdivide_tile(None, [ring])
    fragments = [c for c in crops if c.rings]
    assert len(fragments) == 2
    parent = int(rasterize_polygon(ring, 1024, 1024).sum())
    total = sum(int(rasterize_polygon(r, 512, 512).sum()) for c in fragments for r in c.rings)
    assert total == parent


def test_subdivide_random_scenes_conserve_fill():
    rng = np.random.default_rng(0)
    for _ in range(4):
        n = int(rng.integers(2, 6))
        rings = [rng.uniform(0, 1024, size=(int(rng.integers(3, 7)), 2)) for _ in range(n)]
        crops = subdivide_tile(None, rings)
        parent = sum(int(rasterize_polygon(r, 1024, 1024).sum()) for r in rings)
        total = sum(int(rasterize_polygon(r, 512, 512).sum()) for c in crops for r in c.rings)
        assert total == parent


def test_subdivide_crops_image_quadrants():
    img = np.arange(1024 * 1024, dtype=np.float32).reshape(1024, 1024)
    crops = subdivide_tile(img, [])
    assert crops[3].image[0, 0] == img[512, 512]
    assert crops[0].image.shape == (512, 512)


def test_subdivide_rejects_wrong_tile_size():
    with pytest.raises(ValueError):
        subdivide_tile(np.zeros((1000, 1024)), [])


# ---------------------------------------------------------------------------
# kfold_assign
# ---------------------------------------------------------------------------


def make_tiles(n_rows, n_cols, blank=()):
    tiles = []
    for r in range(n_rows):
        for c in range(n_cols):
            tid = r * n_cols + c
            tiles.append(TileRecord(tid, r, c, blank=tid in blank))
    return tiles


def test_kfold_round_robin_single_row():
    tiles = make_tiles(1, 10)
    out = kfold_assign(tiles, 5)
    assert [t.fold for t in out] == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]


def test_kfold_sizes_differ_by_at_most_one():
    tiles = make_tiles(26, 52)  # 1352 tiles
    out = kfold_assign(tiles, 5)
    sizes = [sum(1 for t in out if t.fold == k) for k in range(5)]
    assert sorted(sizes) == [270, 270, 270, 271, 271]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_k2_three_tiles():
    out = kfold_assign(make_tiles(1, 3), 2)
    sizes = [sum(1 for t in out if t.fold == k) for k in range(2)]
    assert sorted(sizes) == [1, 2]


def test_kfold_skips_blanks_and_errors_when_too_few():
    tiles = make_tiles(1, 4, blank={1, 2})
    out = kfold_assign(tiles, 2)
    assert [t.fold for t in out] == [0, None, None, 1]
    with pytest.raises(ValueError):
        kfold_assign(make_tiles(1, 4, blank={0, 1, 2}), 2)
    with pytest.raises(ValueError):
        kfold_assign(make_tiles(1, 4), 1)


def test_kfold_rejects_a_repeated_tile_id():
    # keyed by tile_id, a repeat would give both records the later one's fold
    tiles = make_tiles(1, 6)
    tiles[1] = tiles[1]._replace(tile_id=0)
    with pytest.raises(ValueError, match="tile_id 0 "):
        kfold_assign(tiles, 2)


def test_kfold_permutation_invariant():
    tiles = make_tiles(3, 4)
    rng = np.random.default_rng(1)
    shuffled = [tiles[i] for i in rng.permutation(len(tiles))]
    a = {t.tile_id: t.fold for t in kfold_assign(tiles, 3)}
    b = {t.tile_id: t.fold for t in kfold_assign(shuffled, 3)}
    assert a == b


def test_tile_record_json_round_trip():
    rec = TileRecord(7, 1, 3, blank=False, fold=2)
    assert rec.to_json() == {"tile_id": 7, "row": 1, "col": 3, "blank": False, "fold": 2}
    back = TileRecord.from_json(rec.to_json())
    assert back == rec


@pytest.mark.parametrize("obj", [1, [7, 1, 3], {"row": 1, "col": 3, "blank": False},
                                 {"tile_id": None, "row": 1, "col": 3, "blank": False}])
def test_tile_record_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError, match="tile record"):
        TileRecord.from_json(obj)


RECORD = {"tile_id": 3, "row": 1, "col": 2, "blank": False, "fold": None}


@pytest.mark.parametrize("member,value", [("blank", "false"), ("blank", 0), ("blank", None),
                                          ("tile_id", "3"), ("tile_id", 3.0), ("row", 1.9),
                                          ("col", True), ("fold", 1.5), ("fold", "2"), ("fold", False)])
def test_tile_record_fields_must_be_json_integers_and_a_boolean(member, value):
    with pytest.raises(ValueError, match="tile record"):
        TileRecord.from_json(dict(RECORD, **{member: value}))


def test_tile_record_fold_may_be_null_or_absent():
    assert TileRecord.from_json(RECORD) == TileRecord(3, 1, 2, False, None)
    assert TileRecord.from_json({k: v for k, v in RECORD.items() if k != "fold"}).fold is None
    assert TileRecord.from_json(dict(RECORD, fold=0, blank=True)) == TileRecord(3, 1, 2, True, 0)


# ---------------------------------------------------------------------------
# ingest_annotations
# ---------------------------------------------------------------------------


def test_ingest_plain_schema():
    doc = {"img1": [{"points": [[0, 0], [4, 0], [4, 4], [0, 4]]}]}
    out = ingest_annotations(doc)
    assert list(out) == ["img1"]
    assert out["img1"][0].shape == (4, 2)


def test_ingest_empty_object():
    assert ingest_annotations({}) == {}


def test_ingest_rejects_two_point_ring_with_location():
    doc = {"img1": [{"points": [[0, 0], [4, 4]]}]}
    with pytest.raises(AnnotationError, match=r"image 'img1' polygon 0"):
        ingest_annotations(doc)


@pytest.mark.parametrize("points", [[[0, 0], [4, "0"], [4, 4]], [[0, 0], [4, 0], [True, 4]],
                                    [["0", "0"], ["4", "0"], ["4", "4"]], [[0, 0], [4, 0], [4, None]]],
                         ids=["string", "boolean", "all-strings", "null"])
def test_ingest_rejects_non_number_coordinates_with_location(points):
    with pytest.raises(AnnotationError, match=r"^image 'img1' polygon 0: "):
        ingest_annotations({"img1": [{"points": points}]})


def test_ingest_rejects_negative_coordinates():
    doc = {"img1": [{"points": [[-1, 0], [4, 0], [4, 4]]}]}
    with pytest.raises(AnnotationError, match="negative"):
        ingest_annotations(doc)


def test_ingest_geojson_feature_collection():
    doc = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"image_id": "t1"},
             "geometry": {"type": "Polygon",
                          "coordinates": [[[0, 0], [8, 0], [8, 8], [0, 8], [0, 0]]]}},
            {"type": "Feature", "properties": {"image_id": "t1"},
             "geometry": {"type": "Polygon",
                          "coordinates": [[[10, 10], [14, 10], [14, 14], [10, 10]]]}},
        ],
    }
    out = ingest_annotations(doc)
    assert set(out) == {"t1"}
    assert len(out["t1"]) == 2
    assert len(out["t1"][0]) == 4  # closing vertex dropped


def test_ingest_geojson_rejects_non_polygon():
    doc = {"type": "FeatureCollection",
           "features": [{"type": "Feature", "properties": {},
                         "geometry": {"type": "Point", "coordinates": [0, 0]}}]}
    with pytest.raises(AnnotationError):
        ingest_annotations(doc)


@pytest.mark.parametrize("feature", [1, {"geometry": "x"}, {"properties": [1]}],
                         ids=["not-object", "geometry-not-object", "properties-not-object"])
def test_ingest_geojson_rejects_non_object_feature(feature):
    with pytest.raises(AnnotationError, match="feature 0"):
        ingest_annotations({"type": "FeatureCollection", "features": [feature]})


def test_ingest_geojson_rejects_non_list_coordinates():
    doc = {"type": "FeatureCollection",
           "features": [{"geometry": {"type": "Polygon", "coordinates": {"a": 1}}}]}
    with pytest.raises(AnnotationError, match="coordinates"):
        ingest_annotations(doc)
