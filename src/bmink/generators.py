"""Randomized shape generators with deterministic per-seed output.

Polygons come from convex hulls of points snapped to a rational grid, so
every generated vertex is exact.  Grid sets are unions of boxes and balls,
each rasterized once: a part joins the body when it overlaps the body or
shares a face with it, which keeps the occupancy face-connected (see
gen_connected_boundary_set for why), and a body is kept when its boundary
is connected.  Pairs destined for cell-exact decomposition checks
additionally restrict the smaller body to a plain box (see
gen_decomposition_pair).  Because random pairs essentially never achieve
equality in the volume bounds, the pair generators can deliberately plant
translate and symmetric-homothet pairs at a configured rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact2d import (ConvexPolygon, GeometryError, Point2, _Lattice, scale,
                      translate)
from .voxel import (GridSet, ShapeSpec, attach, is_boundary_connected,
                    rasterize)

PLANT_TRANSLATE = "translate"
PLANT_HOMOTHETIC_SYMMETRIC = "homothetic_symmetric"


def trial_rng(root_seed: int, trial: int) -> random.Random:
    """Independent stream for one trial, reproducible in isolation."""
    return random.Random(f"{root_seed}:{trial}")


@dataclass(frozen=True)
class PolygonGenParams:
    min_vertices: int = 3
    max_vertices: int = 10
    coord_range: int = 3          # coordinates drawn from [-range, range]
    snap_denominator: int = 16
    max_retries: int = 64

    def validate(self) -> None:
        if not (3 <= self.min_vertices <= self.max_vertices):
            raise GeometryError("vertex count range must satisfy 3 <= lo <= hi")
        if self.coord_range <= 0 or self.snap_denominator <= 0:
            raise GeometryError("coordinate range and snap must be positive")


def _snapped_point(rng: random.Random, params: PolygonGenParams
                   ) -> tuple[int, int]:
    """A point of the snap grid as integers over params.snap_denominator."""
    span = params.coord_range * params.snap_denominator
    return rng.randint(-span, span), rng.randint(-span, span)


def gen_convex_polygon(rng: random.Random,
                       params: PolygonGenParams = PolygonGenParams()
                       ) -> ConvexPolygon:
    """Random convex polygon: hull of snapped points, vertex count bounded.

    Degenerate draws (hull too thin or too many vertices) are retried up to
    the configured budget.
    """
    params.validate()
    for _ in range(params.max_retries):
        n_points = rng.randint(params.min_vertices, params.max_vertices) + 3
        pts = [_snapped_point(rng, params) for _ in range(n_points)]
        try:
            poly = ConvexPolygon.hull(_Lattice(pts, params.snap_denominator))
        except GeometryError:
            continue
        if params.min_vertices <= len(poly) <= params.max_vertices:
            return poly
    raise GeometryError("polygon generator exhausted its retry budget")


def gen_symmetric_polygon(rng: random.Random,
                          params: PolygonGenParams = PolygonGenParams()
                          ) -> ConvexPolygon:
    """Random centrally symmetric polygon (hull of a point set and its
    reflection, so -P equals P exactly)."""
    params.validate()
    for _ in range(params.max_retries):
        half = max(2, rng.randint(params.min_vertices, params.max_vertices) // 2)
        pts = [_snapped_point(rng, params) for _ in range(half + 1)]
        pts += [(-x, -y) for x, y in pts]
        try:
            poly = ConvexPolygon.hull(_Lattice(pts, params.snap_denominator))
        except GeometryError:
            continue
        if len(poly) <= params.max_vertices + 2:
            return poly
    raise GeometryError("symmetric polygon generator exhausted its retry budget")


def random_lattice_shift(rng: random.Random,
                         params: PolygonGenParams) -> Point2:
    d = params.snap_denominator
    span = params.coord_range * d
    return Point2(Fraction(rng.randint(-span, span), d),
                  Fraction(rng.randint(-span, span), d))


def gen_polygon_pair(rng: random.Random,
                     params: PolygonGenParams = PolygonGenParams(),
                     plant_rate: float = 0.0,
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
            k = gen_convex_polygon(rng, params)
            t = translate(k, random_lattice_shift(rng, params))
            return k, t, mode
        if mode == PLANT_HOMOTHETIC_SYMMETRIC:
            k = gen_symmetric_polygon(rng, params)
            d = params.snap_denominator
            ratio = Fraction(rng.randint(1, 2 * d), d)
            if ratio == 1:
                ratio = Fraction(d + 1, d)
            t = translate(scale(k, ratio), random_lattice_shift(rng, params))
            return k, t, mode
        raise GeometryError(f"unknown plant mode {mode!r}")
    return (gen_convex_polygon(rng, params),
            gen_convex_polygon(rng, params), None)


# ---------------------------------------------------------------------------
# Connected-boundary grid sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridGenParams:
    max_primitives: int = 3
    min_size: float = 0.4
    max_size: float = 1.0
    center_range: float = 0.6
    allow_balls: bool = True
    max_retries: int = 60

    def validate(self) -> None:
        if not (0 < self.min_size <= self.max_size):
            raise GeometryError("size range must satisfy 0 < lo <= hi")
        if self.max_primitives < 1:
            raise GeometryError("need at least one primitive")


def _snap(value: float, h: float) -> float:
    # Snap world coordinates to quarter cells: keeps specs reproducible in
    # JSON (short decimal fractions) without aligning to cell boundaries.
    q = h / 4.0
    return round(value / q) * q


def _random_primitive(rng: random.Random, params: GridGenParams, dim: int,
                      h: float, center: list[float]) -> ShapeSpec:
    size = rng.uniform(params.min_size, params.max_size)
    if params.allow_balls and rng.random() < 0.5:
        return ShapeSpec.ball([_snap(c, h) for c in center],
                              _snap(max(size / 2, 2.5 * h), h))
    half = [max(rng.uniform(0.4, 1.0) * size / 2, 2.5 * h) for _ in range(dim)]
    return ShapeSpec.box([_snap(c - w, h) for c, w in zip(center, half)],
                         [_snap(c + w, h) for c, w in zip(center, half)])


def gen_connected_boundary_set(seed_rng: random.Random,
                               params: GridGenParams,
                               dim: int, h: float
                               ) -> tuple[GridSet, ShapeSpec]:
    """Random union of primitives with a face-connected occupancy and a
    connected boundary.

    Each drawn primitive is rasterized once.  A part joins the body when it
    is empty or when it overlaps the body or shares a face with it; the
    final body must also pass the boundary-connectivity filter (an annulus
    made by near-coincident parts would fail it).  Rejected draws are
    resampled within a bounded budget.

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
    params.validate()
    for _ in range(params.max_retries):
        n_parts = seed_rng.randint(1, params.max_primitives)
        center = [seed_rng.uniform(-params.center_range / 2,
                                   params.center_range / 2) for _ in range(dim)]
        spec = _random_primitive(seed_rng, params, dim, h, center)
        grid = rasterize(spec, h)
        parts = 1
        attempts = 0
        while not grid.is_empty and parts < n_parts and attempts < 8:
            attempts += 1
            lo, hi = spec.bbox()
            new_center = [seed_rng.uniform(lo[k] - 0.2, hi[k] + 0.2)
                          for k in range(dim)]
            part_spec = _random_primitive(seed_rng, params, dim, h, new_center)
            part = rasterize(part_spec, h)
            joined = grid if part.is_empty else attach(grid, part)
            if joined is not None:
                spec = ShapeSpec.union_of(spec, part_spec)
                grid = joined
                parts += 1
        if is_boundary_connected(grid):
            return grid, spec
    raise GeometryError("grid generator exhausted its rejection budget")


def gen_box_set(rng: random.Random, dim: int, h: float,
                min_size: float = 0.3, max_size: float = 0.9
                ) -> tuple[GridSet, ShapeSpec]:
    """Single axis-aligned box, randomly placed and sized."""
    center = [rng.uniform(-0.3, 0.3) for _ in range(dim)]
    half = [max(rng.uniform(min_size, max_size) / 2, 2.5 * h)
            for _ in range(dim)]
    spec = ShapeSpec.box([_snap(c - w, h) for c, w in zip(center, half)],
                         [_snap(c + w, h) for c, w in zip(center, half)])
    return rasterize(spec, h), spec


def gen_decomposition_pair(rng: random.Random, params: GridGenParams,
                           dim: int, h: float
                           ) -> tuple[GridSet, ShapeSpec, GridSet, ShapeSpec]:
    """Pair (K, T) safe for cell-exact decomposition checks: K is a random
    connected-boundary union, T a plain box no larger than K.

    A one-cell-thick boundary can be crossed diagonally by a full-adjacency
    path wherever it steps diagonally itself (digital topology: 8-paths
    cross 4-thin curves), which breaks the discrete sum decomposition when
    the smaller body's rim has such steps (balls, reflex corners).  An
    axis-aligned box rim has none, so restricting the smaller body to plain
    boxes keeps every decomposition identity cell-exact.

    T is shrunk until |T| <= |K|.  When the 2h half-width floor stops it
    from shrinking further, K is too small for any such box and the pair
    is redrawn, within the generator's retry budget.
    """
    for _ in range(params.max_retries):
        k_grid, k_spec = gen_connected_boundary_set(rng, params, dim, h)
        t_grid, t_spec = gen_box_set(rng, dim, h)
        while t_grid.count > k_grid.count:
            lo, hi = t_spec.bbox()
            shrink = 0.8 * (k_grid.count / t_grid.count) ** (1.0 / dim)
            center = (lo + hi) / 2
            half = (hi - lo) / 2 * shrink
            half = [max(float(w), 2.0 * h) for w in half]
            t_spec = ShapeSpec.box([_snap(float(c - w), h)
                                    for c, w in zip(center, half)],
                                   [_snap(float(c + w), h)
                                    for c, w in zip(center, half)])
            shrunk = rasterize(t_spec, h)
            if shrunk.count == t_grid.count:
                break
            t_grid = shrunk
        if t_grid.count <= k_grid.count:
            return k_grid, k_spec, t_grid, t_spec
    raise GeometryError("decomposition pair generator exhausted its retry "
                        "budget")
