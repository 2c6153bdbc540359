"""JSON wire formats: polygons, shape specs, grid RLE dumps, report lines.

Rationals travel as "p/q" strings so exact values survive the round trip;
plain ints and floats are passed through.  All dumps are deterministic
(sorted keys, compact separators) so repeated runs produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

import numpy as np

from .exact2d import ConvexPolygon, GeometryError, Point2
from .voxel import GridSet, ShapeSpec

REPORT_VERSION = 1


def frac_to_str(value: Fraction) -> str:
    return str(Fraction(value))


def parse_number(value: Any) -> Any:
    """Decode a JSON payload number: "p/q" strings become Fractions."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GeometryError(f"not a rational number: {value!r}") from None
    if isinstance(value, bool):
        raise GeometryError("boolean is not a number")
    if isinstance(value, (int, float)):
        return value
    raise GeometryError(f"cannot parse number from {value!r}")


def encode_number(value: Any) -> Any:
    if isinstance(value, Fraction):
        return frac_to_str(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise GeometryError(f"cannot encode number {value!r}")


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- polygons ---------------------------------------------------------------

def polygon_to_json(poly: ConvexPolygon) -> dict:
    return {"vertices": [[frac_to_str(p.x), frac_to_str(p.y)]
                         for p in poly.vertices]}


def polygon_from_json(data: dict) -> ConvexPolygon:
    """Load a polygon, canonicalizing: accepts any vertex order and falls
    back to the convex hull when the ring is not already counterclockwise."""
    try:
        pts = [(Fraction(x), Fraction(y)) for x, y in data["vertices"]]
    except (TypeError, KeyError, ValueError, ZeroDivisionError):
        raise GeometryError("polygon JSON needs a 'vertices' list of "
                            "[x, y] rationals") from None
    try:
        return ConvexPolygon(pts)
    except GeometryError:
        return ConvexPolygon.hull(pts)


# -- shape specs --------------------------------------------------------------

def shapespec_to_json(spec: ShapeSpec) -> dict:
    out: dict[str, Any] = {"kind": spec.kind}
    if spec.kind == "box":
        out["lo"] = [encode_number(v) for v in spec.lo]
        out["hi"] = [encode_number(v) for v in spec.hi]
    elif spec.kind == "ball":
        out["center"] = [encode_number(v) for v in spec.center]
        out["radius"] = encode_number(spec.radius)
    elif spec.kind == "simplex":
        out["dim"] = spec.ndim
    elif spec.kind == "polygon":
        out["vertices"] = [[encode_number(x), encode_number(y)]
                           for x, y in spec.vertices]
    elif spec.kind == "scaled":
        out["factor"] = encode_number(spec.factor)
        out["child"] = shapespec_to_json(spec.children[0])
    elif spec.kind == "translated":
        out["vector"] = [encode_number(v) for v in spec.vector]
        out["child"] = shapespec_to_json(spec.children[0])
    elif spec.kind == "reflected":
        out["child"] = shapespec_to_json(spec.children[0])
    elif spec.kind == "union":
        out["parts"] = [shapespec_to_json(c) for c in spec.children]
    else:
        raise GeometryError(f"unknown shape kind {spec.kind!r}")
    return out


def shapespec_from_json(data: dict) -> ShapeSpec:
    try:
        return _shapespec_from_json(data)
    except KeyError as exc:
        raise GeometryError(f"shape spec is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"malformed shape spec: {exc}") from None


def _shapespec_from_json(data: dict) -> ShapeSpec:
    kind = data.get("kind")
    if kind == "box":
        return ShapeSpec.box([parse_number(v) for v in data["lo"]],
                             [parse_number(v) for v in data["hi"]])
    if kind == "ball":
        return ShapeSpec.ball([parse_number(v) for v in data["center"]],
                              parse_number(data["radius"]))
    if kind == "simplex":
        return ShapeSpec.simplex(int(data["dim"]))
    if kind == "polygon":
        return ShapeSpec.polygon([(parse_number(x), parse_number(y))
                                  for x, y in data["vertices"]])
    if kind == "scaled":
        return ShapeSpec.scaled(shapespec_from_json(data["child"]),
                                parse_number(data["factor"]))
    if kind == "translated":
        return ShapeSpec.translated(shapespec_from_json(data["child"]),
                                    [parse_number(v) for v in data["vector"]])
    if kind == "reflected":
        return ShapeSpec.reflected(shapespec_from_json(data["child"]))
    if kind == "union":
        parts = [shapespec_from_json(c) for c in data["parts"]]
        if len(parts) != 2:
            raise GeometryError("union spec needs exactly two parts")
        return ShapeSpec.union_of(parts[0], parts[1])
    raise GeometryError(f"unknown shape kind {kind!r}")


def spec_from_polygon(poly: ConvexPolygon) -> ShapeSpec:
    return ShapeSpec.polygon([(p.x, p.y) for p in poly.vertices])


def spec_true_area(spec: ShapeSpec) -> float:
    """Area of the continuum set a convex 2D spec describes.

    Used to report the approximation gap when balls are realized as regular
    polygons; unions are rejected like in spec_to_polygon.
    """
    import math

    if spec.dim() != 2:
        raise GeometryError("true area is only defined for 2D specs here")
    if spec.kind == "box":
        return float((Fraction(spec.hi[0]) - Fraction(spec.lo[0]))
                     * (Fraction(spec.hi[1]) - Fraction(spec.lo[1])))
    if spec.kind == "ball":
        return math.pi * float(spec.radius) ** 2
    if spec.kind == "simplex":
        return 0.5
    if spec.kind == "polygon":
        return float(ConvexPolygon.hull([(Fraction(x), Fraction(y))
                                         for x, y in spec.vertices]).area)
    if spec.kind == "scaled":
        return float(spec.factor) ** 2 * spec_true_area(spec.children[0])
    if spec.kind in ("translated", "reflected"):
        return spec_true_area(spec.children[0])
    if spec.kind == "union":
        raise GeometryError("unions are not convex; exact engine rejects them")
    raise GeometryError(f"unknown shape kind {spec.kind!r}")


def spec_to_polygon(spec: ShapeSpec, disk_sides: int = 64) -> ConvexPolygon:
    """Realize a convex 2D spec as an exact polygon.

    Balls become regular disk_sides-gons snapped to rational coordinates
    (the engine stays purely rational); unions are rejected.
    """
    from .exact2d import reflect, scale, translate

    if spec.dim() != 2:
        raise GeometryError("exact engine is two-dimensional")
    if spec.kind == "box":
        return ConvexPolygon.box([Fraction(v) for v in spec.lo],
                                 [Fraction(v) for v in spec.hi])
    if spec.kind == "ball":
        gon = ConvexPolygon.regular_gon(disk_sides, Fraction(spec.radius))
        center = Point2(Fraction(spec.center[0]), Fraction(spec.center[1]))
        return translate(gon, center)
    if spec.kind == "simplex":
        return ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    if spec.kind == "polygon":
        return ConvexPolygon.hull([(Fraction(x), Fraction(y))
                                   for x, y in spec.vertices])
    if spec.kind == "scaled":
        return scale(spec_to_polygon(spec.children[0], disk_sides),
                     Fraction(spec.factor))
    if spec.kind == "translated":
        v = Point2(Fraction(spec.vector[0]), Fraction(spec.vector[1]))
        return translate(spec_to_polygon(spec.children[0], disk_sides), v)
    if spec.kind == "reflected":
        return reflect(spec_to_polygon(spec.children[0], disk_sides))
    if spec.kind == "union":
        raise GeometryError("unions are not convex; exact engine rejects them")
    raise GeometryError(f"unknown shape kind {spec.kind!r}")


# -- grid sets (debug export) -------------------------------------------------

def gridset_to_rle_json(grid: GridSet) -> dict:
    """Run-length encode the flattened occupancy (C order, runs alternate
    empty/occupied starting with empty)."""
    flat = grid.occ.ravel()
    runs: list[int] = []
    current = False
    length = 0
    for bit in flat:
        if bool(bit) == current:
            length += 1
        else:
            runs.append(length)
            current = not current
            length = 1
    runs.append(length)
    return {
        "dim": grid.dim,
        "h": grid.h,
        "origin": list(grid.origin),
        "shape": list(grid.shape),
        "runs": runs,
    }


def gridset_from_rle_json(data: dict) -> GridSet:
    shape = tuple(int(n) for n in data["shape"])
    total = int(np.prod(shape))
    flat = np.zeros(total, dtype=bool)
    pos = 0
    current = False
    for run in data["runs"]:
        if current:
            flat[pos:pos + run] = True
        pos += run
        current = not current
    if pos != total:
        raise GeometryError("run lengths do not cover the grid")
    return GridSet(int(data["dim"]), float(data["h"]),
                   tuple(int(v) for v in data["origin"]),
                   flat.reshape(shape))


def load_shape_file(path: str) -> ShapeSpec:
    """Read either a polygon JSON file or a ShapeSpec JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise GeometryError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(data, dict) and "kind" in data:
        return shapespec_from_json(data)
    if isinstance(data, dict) and "vertices" in data:
        return spec_from_polygon(polygon_from_json(data))
    raise GeometryError(f"unrecognized shape file format: {path}")
