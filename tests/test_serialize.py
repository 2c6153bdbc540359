import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bmink.exact2d import ConvexPolygon, GeometryError
from bmink.inequalities import InequalityReport
from bmink.serialize import (_over, dumps_canonical, encode_number,
                             json_value,
                             load_shape_file, parse_number, polygon_from_json,
                             polygon_to_json, realize_spec, shape_node_json,
                             shapespec_from_json, shapespec_to_json,
                             spec_from_polygon)
from bmink.voxel import ShapeSpec


def test_fraction_strings_roundtrip():
    assert encode_number(F(3, 4)) == "3/4"
    assert encode_number(F(8, 2)) == "4"
    assert parse_number("3/4") == F(3, 4)
    assert parse_number(7) == 7
    assert parse_number(0.5) == 0.5
    with pytest.raises(GeometryError):
        parse_number(True)
    with pytest.raises(GeometryError):
        parse_number("x")


class _Half(F):
    """A Fraction subclass: the exact-type tests must not miss it."""


def test_number_and_detail_encoding_by_type():
    # Exact types take the fast path; subclasses, bools and numpy scalars
    # take the isinstance chain and encode as they always have.
    assert encode_number(3) == 3 and encode_number(0.25) == 0.25
    assert encode_number(True) == 1 and type(encode_number(True)) is int
    assert encode_number(_Half(1, 2)) == "1/2"
    assert type(encode_number(np.int64(5))) is int
    assert type(encode_number(np.float64(0.5))) is float
    with pytest.raises(GeometryError):
        encode_number("1/2")
    for value in (True, 3, 0.5, "x", None, [1, 2]):
        assert json_value(value) == dumps_canonical(value)
    assert json_value(F(6, 4)) == '"3/2"'
    assert json_value(_Half(1, 3)) == '"1/3"'
    assert dumps_canonical({"b": True, "a": [0.5, None]}) == \
        '{"a":[0.5,null],"b":true}'


@pytest.mark.parametrize("value,expected", [
    (np.int32(-7), -7),
    (np.int64(2 ** 40), 2 ** 40),
    (np.float32(0.1), 0.10000000149011612),
    (np.float64(0.1), 0.1),
], ids=lambda v: type(v).__name__)
def test_numpy_scalars_encode_as_plain_numbers(value, expected):
    # Voxel reports carry numpy scalars; they encode as the plain Python
    # number of the same value, and exactly as in the JSON bytes.
    encoded = encode_number(value)
    assert type(encoded) is type(expected) and encoded == expected
    assert dumps_canonical(encoded) == dumps_canonical(expected)
    assert json_value(encode_number(value)) == dumps_canonical(expected)


def test_numpy_bool_is_not_a_number():
    for value in (np.bool_(True), np.bool_(False)):
        with pytest.raises(GeometryError, match="cannot encode number"):
            encode_number(value)
        with pytest.raises(GeometryError, match="cannot encode number"):
            json_value(encode_number(value))


def test_polygon_json_roundtrip():
    p = ConvexPolygon([(F(-1, 3), 0), (1, F(1, 7)), (0, 2)])
    data = polygon_to_json(p)
    assert data["vertices"][0] == ["-1/3", "0"]
    assert polygon_from_json(data) == p


@given(st.one_of(st.integers(), st.integers(-2 ** 130, 2 ** 130)),
       st.one_of(st.integers(1, 64), st.integers(1, 2 ** 130)))
@example(0, 1)
@example(0, 12)
@example(-7, 1)
@example(-6, 4)
@example(2 ** 64 + 1, 1)
@example(-(3 ** 50) * 2 ** 70, 3 ** 20 * 2 ** 66)
def test_ring_writer_writes_what_fraction_writes(n, den):
    assert _over(n, den) == str(F(n, den))


def test_polygon_nodes_from_the_ring_match_the_spec_path():
    # Negative, zero, integer and 64-bit-plus coordinates: the node written
    # from the ring is the node of the polygon's spec, and so is the region
    # that `bmink erode` writes.
    wide = 2 ** 70 + 1
    p = ConvexPolygon([(F(-wide, 3), 0), (F(wide, 3), F(-1, 2 ** 66)),
                       (0, wide)])
    node = shapespec_to_json(p)
    assert node == shapespec_to_json(spec_from_polygon(p))
    assert node["vertices"][0] == [f"-{wide}/3", "0"]
    assert polygon_to_json(p) == {"vertices": node["vertices"]}
    assert realize_spec(shapespec_from_json(node))[0] == p


def test_shapes_text_is_what_the_encoder_writes():
    # InequalityReport.shapes_json writes polygons from their rings; any
    # tuple of polygons and specs, in either order, gives the bytes of
    # dumps_canonical over their spec nodes.
    wide = 2 ** 70 + 1
    p = ConvexPolygon([(F(-wide, 3), 0), (F(wide, 3), F(-1, 2 ** 66)),
                       (0, wide)])
    box = ShapeSpec.box((0, 0), (1, F(1, 3)))
    for shapes in [(p, p), (p, box), (box, p), (box,), ()]:
        report = InequalityReport("thm-av", "exact", 1, 0, shapes=shapes)
        assert report.shapes_json() == dumps_canonical(
            [shapespec_to_json(s) for s in shapes])
        assert all(shape_node_json(s) == dumps_canonical(shapespec_to_json(s))
                   for s in shapes)


def test_polygon_json_canonicalizes_clockwise_input():
    data = {"vertices": [["-1", "-1"], ["-1", "1"], ["1", "1"], ["1", "-1"]]}
    assert polygon_from_json(data) == ConvexPolygon.box((-1, -1), (1, 1))


PENTAGON = [["2", "0"], ["0", "2"], ["-2", "1"], ["-1", "-2"], ["1", "-2"]]


@pytest.mark.parametrize("ring", [
    PENTAGON,
    PENTAGON[::-1],
    PENTAGON[2:] + PENTAGON[:2],
    PENTAGON[:1] + [["1", "1"]] + PENTAGON[1:4] + [["0", "-2"]] + PENTAGON[4:],
    # every turn of the star is a left turn, but its ring winds twice
    [PENTAGON[i] for i in (0, 2, 4, 1, 3)],
], ids=["ccw", "cw", "rotated", "collinear", "pentagram"])
def test_polygon_file_loads_as_the_hull_of_its_vertices(tmp_path, ring):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"vertices": ring}))
    hull = ConvexPolygon.hull([(F(x), F(y)) for x, y in PENTAGON])
    assert load_shape_file(str(path)) == spec_from_polygon(hull)
    assert hull.area == F(21, 2)


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
    assert realize_spec(spec)[0] == p
    box = realize_spec(ShapeSpec.box((-1, -1), (1, 1)))[0]
    assert box == ConvexPolygon.box((-1, -1), (1, 1))
    tri = realize_spec(ShapeSpec.simplex(2))[0]
    assert tri == ConvexPolygon([(0, 0), (1, 0), (0, 1)])


def test_spec_to_polygon_rejects_union():
    u = ShapeSpec.union_of(ShapeSpec.box((0, 0), (1, 1)),
                           ShapeSpec.box((2, 2), (3, 3)))
    with pytest.raises(GeometryError):
        realize_spec(u)


def test_spec_to_polygon_disk_area_gap():
    import math
    gon, true_area = realize_spec(ShapeSpec.ball((0, 0), 1))
    assert true_area == math.pi
    assert 0 < true_area - float(gon.area) < 0.01


def test_spec_true_area():
    import math
    assert realize_spec(ShapeSpec.box((-1, -1), (1, 1)))[1] == 4.0
    assert realize_spec(ShapeSpec.simplex(2))[1] == 0.5
    ball = ShapeSpec.scaled(ShapeSpec.ball((0, 0), 1), F(1, 2))
    assert realize_spec(ball)[1] == pytest.approx(math.pi / 4)
    tri = ShapeSpec.polygon([(0, 0), (2, 0), (0, 2)])
    assert realize_spec(ShapeSpec.reflected(tri))[1] == 2.0


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


def test_shapespec_json_bytes_of_every_kind():
    # Literal bytes: all 8 kinds, with Fraction, float and int payloads.
    spec = ShapeSpec.union_of(
        ShapeSpec.translated(ShapeSpec.scaled(
            ShapeSpec.ball((F(1, 3), 0.5), 1), F(3, 2)), (1, F(-1, 4))),
        ShapeSpec.union_of(
            ShapeSpec.reflected(ShapeSpec.box((-1, F(-1, 2)), (0.25, 0))),
            ShapeSpec.union_of(
                ShapeSpec.simplex(2),
                ShapeSpec.polygon([(0, 0), (F(1, 2), 0), (0, 1.5)]))))
    text = dumps_canonical(shapespec_to_json(spec))
    assert text == (
        '{"kind":"union","parts":[{"child":{"child":{"center":["1/3",0.5],'
        '"kind":"ball","radius":1},"factor":"3/2","kind":"scaled"},'
        '"kind":"translated","vector":[1,"-1/4"]},{"kind":"union","parts":'
        '[{"child":{"hi":[0.25,0],"kind":"box","lo":[-1,"-1/2"]},'
        '"kind":"reflected"},{"kind":"union","parts":[{"dim":2,'
        '"kind":"simplex"},{"kind":"polygon","vertices":[[0,0],["1/2",0],'
        '[0,1.5]]}]}]}]}')
    assert shapespec_from_json(json.loads(text)) == spec
