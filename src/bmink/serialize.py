"""Shape specs, and the JSON wire formats of polygons, shape specs and
report lines.

A ShapeSpec is the engine-neutral description of a test shape.  Its data,
its checked constructors and GridError live here, beside the kind table
that encodes and realizes it, so the exact engine reads shape files
without loading the voxel engine; voxel.py rasterizes specs and
re-exports both names.  This module imports no numpy: numpy scalars in
voxel reports encode through the numbers ABCs that numpy registers them
with.

Rationals travel as "p/q" strings so exact values survive the round trip;
plain ints and floats are passed through.  All output is canonical JSON
(sorted keys, compact separators), so repeated runs produce identical
bytes; InequalityReport.line() writes it with json_value.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Optional, Sequence, Union

from .exact2d import (ConvexPolygon, GeometryError, Point2, reflect, scale,
                      translate)

REPORT_VERSION = 1

ALLOWED_DIMS = (2, 3, 4)  # the dimensions of voxel grids

Number = Union[int, float, Fraction]


class GridError(Exception):
    """Invalid grid input or operation."""


@dataclass(frozen=True)
class ShapeSpec:
    """Constructive, serializable description of a test shape.

    A tagged tree: primitives box / ball / simplex / polygon, combined with
    scaled / translated / reflected / union nodes.  Numeric payloads may be
    Fractions (kept exact through JSON) or floats; evaluation is float64.
    Every constructor stores its node's dimension in ndim.
    """

    kind: str
    lo: Optional[tuple] = None
    hi: Optional[tuple] = None
    center: Optional[tuple] = None
    radius: Optional[Number] = None
    ndim: Optional[int] = None
    vertices: Optional[tuple] = None
    factor: Optional[Number] = None
    vector: Optional[tuple] = None
    children: tuple = ()

    @staticmethod
    def box(lo: Sequence[Number], hi: Sequence[Number]) -> "ShapeSpec":
        if len(lo) != len(hi):
            raise GridError("box corners must share dimension")
        if not all(float(a) < float(b) for a, b in zip(lo, hi)):
            raise GridError("box needs lo < hi on every axis")
        return ShapeSpec("box", lo=tuple(lo), hi=tuple(hi), ndim=len(lo))

    @staticmethod
    def ball(center: Sequence[Number], radius: Number) -> "ShapeSpec":
        if not float(radius) > 0:
            raise GridError("ball radius must be positive")
        return ShapeSpec("ball", center=tuple(center), radius=radius,
                         ndim=len(center))

    @staticmethod
    def simplex(ndim: int) -> "ShapeSpec":
        """Standard simplex: x >= 0 componentwise with sum(x) <= 1."""
        return ShapeSpec("simplex", ndim=int(ndim))

    @staticmethod
    def polygon(vertices: Sequence[Sequence[Number]]) -> "ShapeSpec":
        verts = tuple(tuple(v) for v in vertices)
        if len(verts) < 3 or any(len(v) != 2 for v in verts):
            raise GridError("polygon spec needs >= 3 two-dimensional vertices")
        return ShapeSpec("polygon", vertices=verts, ndim=2)

    @staticmethod
    def scaled(child: "ShapeSpec", factor: Number) -> "ShapeSpec":
        if not float(factor) > 0:
            raise GridError("scale factor must be positive")
        return ShapeSpec("scaled", factor=factor, children=(child,),
                         ndim=child.ndim)

    @staticmethod
    def translated(child: "ShapeSpec", vector: Sequence[Number]) -> "ShapeSpec":
        if len(vector) != child.ndim:
            raise GridError("translation vector must match the shape's "
                            "dimension")
        return ShapeSpec("translated", vector=tuple(vector), children=(child,),
                         ndim=child.ndim)

    @staticmethod
    def reflected(child: "ShapeSpec") -> "ShapeSpec":
        return ShapeSpec("reflected", children=(child,), ndim=child.ndim)

    @staticmethod
    def union_of(a: "ShapeSpec", b: "ShapeSpec") -> "ShapeSpec":
        if a.ndim != b.ndim:
            raise GridError("union parts must share dimension")
        return ShapeSpec("union", children=(a, b), ndim=a.ndim)


# Fraction computes 10**exponent exactly, at a cost in time and memory that
# grows with the exponent, so a longer one is rejected before it is parsed.
# The bound lies far outside the float range, and matches the longest digit
# string that int() parses by default.
MAX_DECIMAL_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """A rational number from text such as "3/4", "0.25" or "1e-3"."""
    _, e, exponent = text.lower().partition("e")
    try:
        bounded = not e or abs(int(exponent)) <= MAX_DECIMAL_EXPONENT
    except ValueError:  # not an exponent: Fraction rejects the text
        bounded = True
    if not bounded:
        raise GeometryError(f"decimal exponent of {text!r} is beyond "
                            f"+-{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GeometryError(f"not a rational number: {text!r}") from None


def parse_number(value: Any) -> Any:
    """Decode a JSON payload number: "p/q" strings become Fractions.

    Both engines turn payload numbers into floats somewhere, so a number
    beyond the float range, infinities and NaN included, is rejected here.
    """
    if isinstance(value, str):
        number = parse_rational(value)
    elif isinstance(value, bool):
        raise GeometryError("boolean is not a number")
    elif isinstance(value, (int, float)):
        number = value
    else:
        raise GeometryError(f"cannot parse number from {value!r}")
    try:
        if math.isfinite(number):
            return number
    except OverflowError:  # an int or a Fraction beyond the float range
        pass
    raise GeometryError(f"number {value!r} is not finite as a float")


def encode_number(value: Any) -> Any:
    # isinstance(v, Fraction) goes through ABCMeta unless v is a Fraction,
    # at a cost above the encoding itself, so plain types are tested first.
    if type(value) in (int, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    # numpy registers its integer scalars as Integral and its floating
    # ones as Real; numpy.bool_ is neither, and is rejected.
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise GeometryError(f"cannot encode number {value!r}")


# One encoder serves every call; json.dumps would build a new one each time.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj: Any) -> str:
    return _CANONICAL.encode(obj)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def json_value(value: Any) -> str:
    """value as dumps_canonical writes it, a Fraction as its "p/q" string:
    the common types are written here, anything else by the encoder."""
    cls = type(value)
    if cls is int or cls is float and value - value == 0:  # a finite float
        return repr(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is bool or value is None:
        return _CONSTANTS[value]
    if isinstance(value, Fraction):
        return encode_basestring_ascii(str(value))
    return dumps_canonical(value)


def _array(value: Any) -> list:
    """A payload list, which must be a JSON array: iterating a string or an
    object would read its characters or keys as the list's items."""
    if type(value) is not list:
        raise GeometryError(f"expected a JSON array, not {value!r}")
    return value


# -- polygons ---------------------------------------------------------------

def _over(n: int, den: int) -> str:
    """n/den in lowest terms as str(Fraction(n, den)) writes it, for den > 0:
    "n" when it is an integer, "n/d" otherwise."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def polygon_to_json(poly: ConvexPolygon) -> dict:
    """The canonical vertex ring as [x, y] rational strings, written
    straight from the integer ring and its denominator."""
    den = poly._den
    return {"vertices": [[_over(x, den), _over(y, den)]
                         for x, y in poly._ring]}


def shape_node_json(shape: Union[ShapeSpec, ConvexPolygon]) -> str:
    """dumps_canonical(shapespec_to_json(shape)), a polygon's from its ring."""
    if type(shape) is not ConvexPolygon:
        return dumps_canonical(shapespec_to_json(shape))
    d = shape._den
    return '{"kind":"polygon","vertices":[' + ",".join(
        [f'["{_over(x, d)}","{_over(y, d)}"]' for x, y in shape._ring]) + "]}"


def polygon_from_json(data: dict) -> ConvexPolygon:
    """Load a polygon as the convex hull of its vertices, so any vertex
    order, orientation or collinear vertex gives the same polygon."""
    try:
        pts = [(Fraction(parse_number(x)), Fraction(parse_number(y)))
               for x, y in map(_array, _array(data["vertices"]))]
    except (TypeError, KeyError, ValueError):
        raise GeometryError("polygon JSON needs a 'vertices' list of "
                            "[x, y] rationals") from None
    return ConvexPolygon.hull(pts)


# -- shape specs --------------------------------------------------------------

def _dim_in(value, depth: int) -> int:
    # Compare the type itself: bool is a subclass of int.
    if type(value) is not int:
        raise GeometryError(f"simplex dim must be an integer, not {value!r}")
    return value


def _polygon(points: list) -> ShapeSpec:
    # The hull of the vertices, as for a polygon file, so that any vertex
    # order gives the same body on both engines.
    return spec_from_polygon(ConvexPolygon.hull(points))


def _union(parts: list) -> ShapeSpec:
    if len(parts) != 2:
        raise GeometryError("union spec needs exactly two parts")
    return ShapeSpec.union_of(*parts)


# The codec of each payload value type: an encoder of (spec, key) and a
# decoder of (value, depth of the node's children).
_NUMBER = (lambda spec, key: encode_number(getattr(spec, key)),
           lambda v, depth: parse_number(v))
_NUMBERS = (lambda spec, key: [encode_number(v) for v in getattr(spec, key)],
            lambda vs, depth: [parse_number(v) for v in _array(vs)])
_POINTS = (lambda spec, key: [[encode_number(x), encode_number(y)]
                              for x, y in spec.vertices],
           lambda vs, depth: [(parse_number(x), parse_number(y))
                              for x, y in map(_array, _array(vs))])
_DIM = (lambda spec, key: spec.ndim, _dim_in)
_CHILD = (lambda spec, key: shapespec_to_json(spec.children[0]),
          lambda v, depth: _shapespec_from_json(v, depth))
_PARTS = (lambda spec, key: [shapespec_to_json(c) for c in spec.children],
          lambda vs, depth: [_shapespec_from_json(v, depth)
                             for v in _array(vs)])

# Each shape kind: its checked constructor and its JSON payload keys, in the
# constructor's argument order, with their codecs.
_KINDS = {
    "box": (ShapeSpec.box, (("lo", _NUMBERS), ("hi", _NUMBERS))),
    "ball": (ShapeSpec.ball, (("center", _NUMBERS), ("radius", _NUMBER))),
    "simplex": (ShapeSpec.simplex, (("dim", _DIM),)),
    "polygon": (_polygon, (("vertices", _POINTS),)),
    "scaled": (ShapeSpec.scaled, (("child", _CHILD), ("factor", _NUMBER))),
    "translated": (ShapeSpec.translated,
                   (("child", _CHILD), ("vector", _NUMBERS))),
    "reflected": (ShapeSpec.reflected, (("child", _CHILD),)),
    "union": (_union, (("parts", _PARTS),)),
}


def shapespec_to_json(spec: Union[ShapeSpec, ConvexPolygon]) -> dict:
    """A spec's JSON node.  An exact polygon is written as the polygon node
    of its ring, the node of spec_from_polygon(poly), without building
    that spec."""
    if type(spec) is ConvexPolygon:
        return {"kind": "polygon", **polygon_to_json(spec)}
    return {"kind": spec.kind, **{key: encode(spec, key)
                                  for key, (encode, _) in _KINDS[spec.kind][1]}}


# Every spec operation recurses once per node level, so a deeper spec would
# exhaust the interpreter's recursion limit instead of failing cleanly.
MAX_SPEC_DEPTH = 256


def shapespec_from_json(data: dict) -> ShapeSpec:
    try:
        return _shapespec_from_json(data, 0)
    except KeyError as exc:
        raise GeometryError(f"shape spec is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"malformed shape spec: {exc}") from None


def _shapespec_from_json(data: dict, depth: int) -> ShapeSpec:
    if depth > MAX_SPEC_DEPTH:
        raise GeometryError(
            f"shape spec nests deeper than {MAX_SPEC_DEPTH} levels")
    if not isinstance(data, dict):
        raise GeometryError("shape spec node must be a JSON object")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise GeometryError(f"unknown shape kind {kind!r}")
    build, keys = _KINDS[kind]
    return build(*[decode(data[key], depth + 1) for key, (_, decode) in keys])


def spec_from_polygon(poly: ConvexPolygon) -> ShapeSpec:
    """The polygon spec of the canonical vertex ring, read from the integer
    ring and its denominator."""
    d = poly._den
    return ShapeSpec.polygon([(Fraction(x, d), Fraction(y, d))
                              for x, y in poly._ring])


DISK_SIDES = 64  # the exact engine realizes a ball as a regular 64-gon


def realize_spec(spec: ShapeSpec) -> tuple[ConvexPolygon, float]:
    """Realize a convex 2D spec as an exact polygon, with the area of the
    continuum set it describes.

    Balls become regular DISK_SIDES-gons snapped to rational coordinates, so
    the polygon's area falls short of the true one by the input
    approximation gap.  Unions are rejected.
    """
    if spec.ndim != 2:
        raise GeometryError("exact engine is two-dimensional")
    try:
        return _realize(spec)
    except OverflowError:
        raise GeometryError("shape area is too large for a float") from None


def _realize(spec: ShapeSpec) -> tuple[ConvexPolygon, float]:
    # The exact engine's constructors and transforms convert floats exactly.
    kind = spec.kind
    if kind == "ball":
        gon = ConvexPolygon.regular_gon(DISK_SIDES, spec.radius)
        return (translate(gon, Point2(*spec.center)),
                math.pi * float(spec.radius) ** 2)
    if kind in ("scaled", "translated", "reflected"):
        poly, true_area = _realize(spec.children[0])
        if kind == "scaled":
            return scale(poly, spec.factor), float(spec.factor) ** 2 * true_area
        if kind == "translated":
            return translate(poly, Point2(*spec.vector)), true_area
        return reflect(poly), true_area
    if kind == "box":
        poly = ConvexPolygon.box(spec.lo, spec.hi)
    elif kind == "simplex":
        poly = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    elif kind == "polygon":
        poly = ConvexPolygon.hull(spec.vertices)
    else:
        raise GeometryError("unions are not convex; exact engine rejects them")
    return poly, float(poly.area)


def load_shape_file(path: str) -> ShapeSpec:
    """Read either a polygon JSON file or a ShapeSpec JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise GeometryError(f"{path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise GeometryError(f"{path} nests too deeply to parse") from None
    if isinstance(data, dict) and "kind" in data:
        return shapespec_from_json(data)
    if isinstance(data, dict) and "vertices" in data:
        return spec_from_polygon(polygon_from_json(data))
    raise GeometryError(f"unrecognized shape file format: {path}")
