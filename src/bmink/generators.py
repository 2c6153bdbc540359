"""Randomized shape generators with deterministic per-seed output.

Polygons come from convex hulls of points snapped to a rational grid, so
every generated vertex is exact.  The points and the planted translations
stay integers over SNAP from the draw to the hull; each coordinate is drawn
with getrandbits exactly as random.randint would draw it, so the streams
are those of randint.  Grid sets are unions of boxes and balls, each
rasterized once into its own GridSet: a part joins the body when its cells
overlap those of an accepted part or share a face with one, which keeps
the occupancy face-connected (see gen_connected_boundary_set for why), the
accepted parts are joined by one voxel.union, and a body is kept when its
boundary is connected.  Pairs destined for cell-exact decomposition checks
additionally restrict the smaller body to a plain box (see
gen_decomposition_pair).  Because random pairs essentially never achieve
equality in the volume bounds, the pair generators can deliberately plant
translate and symmetric-homothet pairs at a configured rate.

The generator settings are the module constants below; each generator
reads them when it runs.

The grid generators look up bmink.voxel when they run, so drawing
polygons never loads numpy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .exact2d import (ConvexPolygon, GeometryError, IntPoint, _Lattice, scale,
                      translate)
from .serialize import ShapeSpec

if TYPE_CHECKING:
    from .voxel import GridSet

PLANT_TRANSLATE = "translate"
PLANT_HOMOTHETIC_SYMMETRIC = "homothetic_symmetric"

# Polygons: hulls of MIN_VERTICES + 3 to MAX_VERTICES + 3 points with
# coordinates in [-COORD_RANGE, COORD_RANGE], on the grid of step 1/SNAP.
MIN_VERTICES = 3
MAX_VERTICES = 10
COORD_RANGE = 3
SNAP = 16
POLYGON_RETRIES = 64

# Grid sets: unions of 1 to MAX_PRIMITIVES boxes and balls of size MIN_SIZE
# to MAX_SIZE, the first centred in a cube of side CENTER_RANGE.
MAX_PRIMITIVES = 3
MIN_SIZE = 0.4
MAX_SIZE = 1.0
CENTER_RANGE = 0.6
GRID_RETRIES = 60
# Each primitive's half-width or radius is at least 2.5 cells, and a snap
# moves a coordinate by at most 1/8 cell.  So a box side is at least 4.75
# cells long.  A ball's row of cells nearest its center (in at most 4
# dimensions, at most sqrt(3)/2 cells off it) crosses it on a chord of at
# least 2 sqrt(2.5^2 - 3/4) > 4.6 cells.  Under the cell-center rule every
# generated body therefore spans at least MIN_BODY_CELLS cells per axis.
MIN_BODY_CELLS = 4


def trial_rng(root_seed: int, trial: int) -> random.Random:
    """Independent stream for one trial, reproducible in isolation."""
    return random.Random(f"{root_seed}:{trial}")


def _snapped_points(rng: random.Random, count: int) -> list[IntPoint]:
    """count points of the snap grid, as integers over SNAP.

    Each coordinate is drawn as rng.randint(-span, span) draws it, with
    span = COORD_RANGE * SNAP: getrandbits of the bit length of the width
    2 * span + 1, redrawn while it is not below the width.  That is
    Random._randbelow_with_getrandbits, so the coordinates and the state
    the stream is left in are those of randint, without its per-call
    argument checks.
    """
    span = COORD_RANGE * SNAP
    width = 2 * span + 1
    bits = width.bit_length()
    draw = rng.getrandbits
    coords = []
    for _ in range(2 * count):
        c = draw(bits)
        while c >= width:
            c = draw(bits)
        coords.append(c - span)
    pairs = iter(coords)
    return list(zip(pairs, pairs))


def gen_convex_polygon(rng: random.Random) -> ConvexPolygon:
    """Random convex polygon: hull of snapped points, vertex count bounded.

    Degenerate draws (hull too thin or too many vertices) are retried up to
    POLYGON_RETRIES times.
    """
    for _ in range(POLYGON_RETRIES):
        n_points = rng.randint(MIN_VERTICES, MAX_VERTICES) + 3
        pts = _snapped_points(rng, n_points)
        try:
            poly = ConvexPolygon.hull(_Lattice(pts, SNAP))
        except GeometryError:
            continue
        if MIN_VERTICES <= len(poly) <= MAX_VERTICES:
            return poly
    raise GeometryError("polygon generator exhausted its retry budget")


def gen_symmetric_polygon(rng: random.Random) -> ConvexPolygon:
    """Random centrally symmetric polygon (hull of a point set and its
    reflection, so -P equals P exactly)."""
    for _ in range(POLYGON_RETRIES):
        half = max(2, rng.randint(MIN_VERTICES, MAX_VERTICES) // 2)
        pts = _snapped_points(rng, half + 1)
        pts += [(-x, -y) for x, y in pts]
        try:
            poly = ConvexPolygon.hull(_Lattice(pts, SNAP))
        except GeometryError:
            continue
        if len(poly) <= MAX_VERTICES + 2:
            return poly
    raise GeometryError("symmetric polygon generator exhausted its retry budget")


def random_lattice_shift(rng: random.Random) -> _Lattice:
    """A translation vector of the snap grid, as one integer point over
    SNAP (translate takes it as it is)."""
    return _Lattice(_snapped_points(rng, 1), SNAP)


def gen_polygon_pair(rng: random.Random, plant_rate: float = 0.0,
                     plant_mode: Optional[str] = None
                     ) -> tuple[ConvexPolygon, ConvexPolygon, Optional[str]]:
    """Generate (K, T) with optional equality-case planting.

    With probability plant_rate the pair is a planted equality case:
    either a translate pair, or a symmetric body with a scaled translate
    (mode picked at random unless forced via plant_mode).  Returns the
    planted mode (None for an independent pair).
    """
    if not 0.0 <= plant_rate <= 1.0:
        raise GeometryError("plant rate must lie in [0, 1]")
    if rng.random() < plant_rate:
        mode = plant_mode or rng.choice(
            [PLANT_TRANSLATE, PLANT_HOMOTHETIC_SYMMETRIC])
        if mode == PLANT_TRANSLATE:
            k = gen_convex_polygon(rng)
            t = translate(k, random_lattice_shift(rng))
            return k, t, mode
        if mode == PLANT_HOMOTHETIC_SYMMETRIC:
            k = gen_symmetric_polygon(rng)
            ratio = Fraction(rng.randint(1, 2 * SNAP), SNAP)
            if ratio == 1:
                ratio = Fraction(SNAP + 1, SNAP)
            t = translate(scale(k, ratio), random_lattice_shift(rng))
            return k, t, mode
        raise GeometryError(f"unknown plant mode {mode!r}")
    return gen_convex_polygon(rng), gen_convex_polygon(rng), None


# ---------------------------------------------------------------------------
# Connected-boundary grid sets
# ---------------------------------------------------------------------------

def _snap(value: float, h: float) -> float:
    # Snap world coordinates to quarter cells: keeps specs reproducible in
    # JSON (short decimal fractions) without aligning to cell boundaries.
    q = h / 4.0
    return round(value / q) * q


def _random_primitive(rng: random.Random, dim: int, h: float,
                      center: list[float]) -> ShapeSpec:
    size = rng.uniform(MIN_SIZE, MAX_SIZE)
    if rng.random() < 0.5:
        return ShapeSpec.ball([_snap(c, h) for c in center],
                              _snap(max(size / 2, 2.5 * h), h))
    half = [max(rng.uniform(0.4, 1.0) * size / 2, 2.5 * h) for _ in range(dim)]
    return ShapeSpec.box([_snap(c - w, h) for c, w in zip(center, half)],
                         [_snap(c + w, h) for c, w in zip(center, half)])


def gen_connected_boundary_set(seed_rng: random.Random, dim: int, h: float
                               ) -> tuple[GridSet, ShapeSpec]:
    """Random union of primitives with a face-connected occupancy and a
    connected boundary.

    Each drawn primitive is rasterized once, by voxel.rasterize, into its
    own GridSet.  A part joins the body when it is empty or when it
    overlaps the body or shares a face with it.  The body is the union of
    the parts accepted so far, so it is in contact with a part exactly
    when one of those parts is, and voxel.in_contact compares the new part
    with each accepted part in turn.  The accepted parts are joined once,
    at the end, by voxel.union.  The final body must also pass the
    boundary-connectivity filter (an annulus made by near-coincident parts
    would fail it), which builds and caches its boundary for the checkers.
    Rejected draws are resampled within a bounded budget.

    The contact rule keeps the body face-connected by induction, because a
    nonempty rasterized box or ball is face-connected:

    - Box: its cells are a product of one index interval per axis.
    - Ball: along an axis line the other coordinates are fixed, and
      round-to-nearest subtraction, squaring and addition are monotone, so
      the float sum of squares is unimodal in the cell index and the cells
      that pass ``sum <= r*r`` form an interval.  If that interval is
      nonempty it contains the index that minimizes ``fl(x - c)**2`` on
      this axis, which does not depend on the other coordinates.  Walking
      from any cell to those minimizing indices one axis at a time stays
      inside the ball, so every cell reaches one common cell.

    The union of two face-connected sets is face-connected exactly when
    they overlap or some cell of one shares a face with a cell of the
    other.  So the rule accepts exactly the parts whose union with the body
    is face-connected, and the returned grid equals ``rasterize(spec, h)``.
    """
    from . import voxel
    for _ in range(GRID_RETRIES):
        n_parts = seed_rng.randint(1, MAX_PRIMITIVES)
        center = [seed_rng.uniform(-CENTER_RANGE / 2, CENTER_RANGE / 2)
                  for _ in range(dim)]
        spec = _random_primitive(seed_rng, dim, h, center)
        part = voxel.rasterize(spec, h)
        parts = [] if part.is_empty else [part]
        accepted = 1
        attempts = 0
        while parts and accepted < n_parts and attempts < 8:
            attempts += 1
            lo, hi = voxel.bbox(spec)
            new_center = [seed_rng.uniform(lo[k] - 0.2, hi[k] + 0.2)
                          for k in range(dim)]
            part_spec = _random_primitive(seed_rng, dim, h, new_center)
            part = voxel.rasterize(part_spec, h)
            if part.is_empty or any(voxel.in_contact(p, part) for p in parts):
                spec = ShapeSpec.union_of(spec, part_spec)
                if not part.is_empty:
                    parts.append(part)
                accepted += 1
        if parts:
            grid = voxel.union(*parts)
            if voxel.is_boundary_connected(grid):
                return grid, spec
    raise GeometryError("grid generator exhausted its rejection budget")


def gen_box_set(rng: random.Random, dim: int, h: float
                ) -> tuple[GridSet, ShapeSpec]:
    """Single axis-aligned box, randomly placed and sized."""
    from . import voxel
    center = [rng.uniform(-0.3, 0.3) for _ in range(dim)]
    half = [max(rng.uniform(0.3, 0.9) / 2, 2.5 * h) for _ in range(dim)]
    spec = ShapeSpec.box([_snap(c - w, h) for c, w in zip(center, half)],
                         [_snap(c + w, h) for c, w in zip(center, half)])
    return voxel.rasterize(spec, h), spec


def gen_decomposition_pair(rng: random.Random, dim: int, h: float
                           ) -> tuple[GridSet, ShapeSpec, GridSet, ShapeSpec]:
    """Pair (K, T) that meets voxel.decompose_sum's precondition (see
    there why T must be a box): K is a random connected-boundary union, T
    a plain box no larger than K.

    T is shrunk until |T| <= |K|.  When the 2h half-width floor stops it
    from shrinking further, K is too small for any such box and the pair
    is redrawn, up to GRID_RETRIES times.
    """
    from . import voxel
    for _ in range(GRID_RETRIES):
        k_grid, k_spec = gen_connected_boundary_set(rng, dim, h)
        t_grid, t_spec = gen_box_set(rng, dim, h)
        while t_grid.count > k_grid.count:
            lo, hi = voxel.bbox(t_spec)
            shrink = 0.8 * (k_grid.count / t_grid.count) ** (1.0 / dim)
            center = (lo + hi) / 2
            half = (hi - lo) / 2 * shrink
            half = [max(float(w), 2.0 * h) for w in half]
            t_spec = ShapeSpec.box([_snap(float(c - w), h)
                                    for c, w in zip(center, half)],
                                   [_snap(float(c + w), h)
                                    for c, w in zip(center, half)])
            shrunk = voxel.rasterize(t_spec, h)
            if shrunk.count == t_grid.count:
                break
            t_grid = shrunk
        if t_grid.count <= k_grid.count:
            return k_grid, k_spec, t_grid, t_spec
    raise GeometryError("decomposition pair generator exhausted its retry "
                        "budget")
