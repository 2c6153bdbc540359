import json
from fractions import Fraction as F

import pytest

from bmink.exact2d import ConvexPolygon, GeometryError
from bmink.generators import GridGenParams, gen_connected_boundary_set, trial_rng
from bmink.serialize import (dumps_canonical, frac_to_str, gridset_from_rle_json,
                             spec_true_area,
                             gridset_to_rle_json, load_shape_file, parse_number,
                             polygon_from_json, polygon_to_json,
                             shapespec_from_json, shapespec_to_json,
                             spec_from_polygon, spec_to_polygon)
from bmink.voxel import ShapeSpec, rasterize


def test_fraction_strings_roundtrip():
    assert frac_to_str(F(3, 4)) == "3/4"
    assert frac_to_str(F(8, 2)) == "4"
    assert parse_number("3/4") == F(3, 4)
    assert parse_number(7) == 7
    assert parse_number(0.5) == 0.5
    with pytest.raises(GeometryError):
        parse_number(True)
    with pytest.raises(GeometryError):
        parse_number("x")


def test_polygon_json_roundtrip():
    p = ConvexPolygon([(F(-1, 3), 0), (1, F(1, 7)), (0, 2)])
    data = polygon_to_json(p)
    assert data["vertices"][0] == ["-1/3", "0"]
    assert polygon_from_json(data) == p


def test_polygon_json_canonicalizes_clockwise_input():
    data = {"vertices": [["-1", "-1"], ["-1", "1"], ["1", "1"], ["1", "-1"]]}
    assert polygon_from_json(data) == ConvexPolygon.box((-1, -1), (1, 1))


def test_polygon_json_rejects_garbage():
    with pytest.raises(GeometryError):
        polygon_from_json({"not_vertices": []})
    with pytest.raises(GeometryError):
        polygon_from_json({"vertices": [["a", "0"], ["1", "0"], ["0", "1"]]})


def test_shapespec_json_roundtrip():
    spec = ShapeSpec.union_of(
        ShapeSpec.translated(ShapeSpec.scaled(ShapeSpec.ball((0, 0), F(1, 2)),
                                              F(3, 2)), (1, F(-1, 4))),
        ShapeSpec.reflected(ShapeSpec.box((-1, -1), (0, 0))))
    data = shapespec_to_json(spec)
    again = shapespec_from_json(data)
    assert again == spec
    assert json.loads(dumps_canonical(data)) == data


def test_shapespec_polygon_and_simplex_roundtrip():
    spec = ShapeSpec.polygon([(0, 0), (1, 0), (0, 1)])
    assert shapespec_from_json(shapespec_to_json(spec)) == spec
    simplex = ShapeSpec.simplex(3)
    assert shapespec_from_json(shapespec_to_json(simplex)) == simplex


def test_spec_polygon_conversions():
    p = ConvexPolygon([(0, 0), (2, 0), (1, 2)])
    spec = spec_from_polygon(p)
    assert spec_to_polygon(spec) == p
    box = spec_to_polygon(ShapeSpec.box((-1, -1), (1, 1)))
    assert box == ConvexPolygon.box((-1, -1), (1, 1))
    tri = spec_to_polygon(ShapeSpec.simplex(2))
    assert tri == ConvexPolygon([(0, 0), (1, 0), (0, 1)])


def test_spec_to_polygon_rejects_union():
    u = ShapeSpec.union_of(ShapeSpec.box((0, 0), (1, 1)),
                           ShapeSpec.box((2, 2), (3, 3)))
    with pytest.raises(GeometryError):
        spec_to_polygon(u)


def test_spec_to_polygon_disk_area_gap():
    import math
    gon = spec_to_polygon(ShapeSpec.ball((0, 0), 1), disk_sides=64)
    gap = math.pi - float(gon.area)
    assert 0 < gap < 0.01


def test_spec_true_area():
    import math
    assert spec_true_area(ShapeSpec.box((-1, -1), (1, 1))) == 4.0
    assert spec_true_area(ShapeSpec.simplex(2)) == 0.5
    ball = ShapeSpec.scaled(ShapeSpec.ball((0, 0), 1), F(1, 2))
    assert spec_true_area(ball) == pytest.approx(math.pi / 4)
    tri = ShapeSpec.polygon([(0, 0), (2, 0), (0, 2)])
    assert spec_true_area(ShapeSpec.reflected(tri)) == 2.0


def test_gridset_rle_roundtrip():
    rng = trial_rng(11, 0)
    g, _ = gen_connected_boundary_set(rng, GridGenParams(), 2, 1 / 16)
    data = gridset_to_rle_json(g)
    again = gridset_from_rle_json(data)
    assert again == g


def test_gridset_rle_rejects_bad_runs():
    g = rasterize(ShapeSpec.box((0, 0), (1, 1)), 1 / 4)
    data = gridset_to_rle_json(g)
    data["runs"] = data["runs"][:-1]
    with pytest.raises(GeometryError):
        gridset_from_rle_json(data)


def test_load_shape_file_both_formats(tmp_path):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(
        {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    spec = load_shape_file(str(poly_path))
    assert spec.kind == "polygon"

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(shapespec_to_json(
        ShapeSpec.ball((0, 0), 1))))
    spec = load_shape_file(str(spec_path))
    assert spec.kind == "ball"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"something": 1}))
    with pytest.raises(GeometryError):
        load_shape_file(str(bad))
