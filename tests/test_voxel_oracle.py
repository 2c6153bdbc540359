"""The voxel engine's fast paths against the simple code they replaced.

`dilate_loop`, `erode_open_loop` and `admitted_pair_count_loop` are the
brute-force per-cell implementations of the kernel-based operations; both
dilation kernels, pair scattering and the FFT convolution, are checked
against `dilate_loop` on their own as well as through `dilate`.
`contains_points` and `rasterize_points` evaluate a shape spec on a
(cells x dim) matrix of cell centers, as rasterization did before it moved
to an open mesh.  `gen_connected_boundary_set_ref` is the body generator
before each primitive was rasterized once: it re-rasterizes the whole
union for every candidate part and labels it.  Every property asserts
cell-exact agreement: the same origin, the same occupancy and the same
pair count, and for the generator the same spec and random state.
"""

import itertools
import math
import random
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scipy import ndimage

from bmink.exact2d import GeometryError
from bmink.generators import (GridGenParams, _random_primitive,
                              gen_connected_boundary_set, trial_rng)
from bmink.restricted import restricted_sum
from bmink.voxel import (_PAIR_COST, ALLOWED_DIMS, GridSet, ShapeSpec,
                         _convolve, _frames, _interior_array, _pair_sums,
                         _poly_signed_area, attach, difference, dilate,
                         erode_open, in_contact, is_boundary_connected,
                         rasterize, union)

H = 0.5
SIDE = {2: 6, 3: 4, 4: 3}  # keeps every example within a few hundred cells


def _empty(dim: int) -> GridSet:
    return GridSet(dim, H, (0,) * dim, np.zeros((1,) * dim, bool))


def dilate_loop(a: GridSet, b: GridSet) -> GridSet:
    """OR a translate of the larger operand per occupied cell of the smaller."""
    if a.is_empty or b.is_empty:
        return _empty(a.dim)
    small, big = (a, b) if a.count <= b.count else (b, a)
    out_shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    out = np.zeros(out_shape, dtype=bool)
    for cell in np.argwhere(small.occ):
        sl = tuple(slice(int(c), int(c) + n) for c, n in zip(cell, big.shape))
        out[sl] |= big.occ
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    return GridSet(a.dim, a.h, origin, out)


def erode_open_loop(a: GridSet, b: GridSet) -> GridSet:
    """AND a shifted copy of interior(a) per occupied cell of b."""
    if a.is_empty:
        return _empty(a.dim)
    inter = _interior_array(a)
    cells = np.argwhere(b.occ)
    b0 = cells[0]
    pad = b.shape
    padded = np.zeros(tuple(n + 2 * p for n, p in zip(inter.shape, pad)), bool)
    padded[tuple(slice(p, p + n) for p, n in zip(pad, inter.shape))] = inter
    acc = inter.copy()
    for cell in cells[1:]:
        d = b0 - cell
        view = padded[tuple(slice(p + int(dd), p + int(dd) + n)
                            for p, dd, n in zip(pad, d, inter.shape))]
        acc &= view
    origin = tuple(oa + ob + int(c)
                   for oa, ob, c in zip(a.origin, b.origin, b0))
    return GridSet(a.dim, a.h, origin, acc)


def admitted_pair_count_loop(k: GridSet, t: GridSet, erosion: GridSet) -> int:
    """Count pairs (x, y) in K x T with x outside (erosion - y), sweeping y."""
    total = k.count * t.count
    if erosion.is_empty:
        return total
    base = tuple(ok + ot - oe for ok, ot, oe
                 in zip(k.origin, t.origin, erosion.origin))
    # Padding by |base| as well keeps the views in range for an erosion
    # anywhere on the lattice, not only inside the frame of K + T.
    pad = tuple(a + b + abs(c) for a, b, c in zip(k.shape, t.shape, base))
    padded = np.zeros(tuple(n + 2 * p for n, p in zip(erosion.shape, pad)),
                      dtype=bool)
    padded[tuple(slice(p, p + n) for p, n in zip(pad, erosion.shape))] = \
        erosion.occ
    excluded = 0
    for cell in np.argwhere(t.occ):
        d = tuple(b + int(c) for b, c in zip(base, cell))
        view = padded[tuple(slice(p + dd, p + dd + n)
                            for p, dd, n in zip(pad, d, k.shape))]
        excluded += int(np.count_nonzero(k.occ & view))
    return total - excluded


@st.composite
def grids(draw, dim):
    """A random or solid occupancy block at a random origin."""
    shape = tuple(draw(st.integers(1, SIDE[dim])) for _ in range(dim))
    if draw(st.booleans()):
        occ = np.ones(shape, dtype=bool)
    else:
        occ = draw(arrays(bool, shape))
    origin = tuple(draw(st.integers(-4, 4)) for _ in range(dim))
    return GridSet(dim, H, origin, occ)


@st.composite
def grid_tuples(draw, n):
    dim = draw(st.integers(2, 4))
    return tuple(draw(grids(dim)) for _ in range(n))


def _grid(origin, occ) -> GridSet:
    occ = np.asarray(occ, dtype=bool)
    return GridSet(occ.ndim, H, origin, occ)


EMPTY = _grid((2, 2), np.zeros((2, 2)))
SINGLE = _grid((3, -2), [[1]])
SOLID_2X2 = _grid((0, 0), np.ones((2, 2)))    # no interior: empty erosions
SOLID_5X5 = _grid((-1, 1), np.ones((5, 5)))
SOLID_3D = _grid((1, 0, -1), np.ones((4, 4, 4)))


SOLID_7X7 = _grid((2, -3), np.ones((7, 7)))
SOLID_8X8 = _grid((-3, 0), np.ones((8, 8)))
# dilate's cost rule puts SOLID_7X7 + SOLID_7X7 on the pair side and
# SOLID_8X8 + SOLID_8X8 on the FFT side (test_examples_straddle_cost_rule).
PAIR_SIDE = (SOLID_7X7, SOLID_7X7)
FFT_SIDE = (SOLID_8X8, SOLID_8X8)


def _padded_cells(a: GridSet, b: GridSet) -> int:
    return math.prod(_frames(a.occ, b.occ)[1])


def _from_kernel(a: GridSet, b: GridSet, occ: np.ndarray) -> GridSet:
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    return GridSet(a.dim, a.h, origin, occ)


def test_examples_straddle_cost_rule():
    a, b = PAIR_SIDE
    assert a.count * b.count <= _PAIR_COST * _padded_cells(a, b)
    a, b = FFT_SIDE
    assert a.count * b.count > _PAIR_COST * _padded_cells(a, b)


@given(grid_tuples(2))
@example((SINGLE, _grid((-1, 4), [[1]])))
@example((EMPTY, SOLID_5X5))
@example((SINGLE, SOLID_5X5))
@example((SOLID_5X5, SOLID_2X2))
@example(PAIR_SIDE)
@example(FFT_SIDE)
@settings(max_examples=150, deadline=None)
def test_dilate_matches_cell_loop(pair):
    a, b = pair
    assert dilate(a, b) == dilate_loop(a, b)


@given(grid_tuples(2))
@example((EMPTY, SOLID_5X5))
@example(PAIR_SIDE)
@example(FFT_SIDE)
@settings(max_examples=100, deadline=None)
def test_pair_sums_matches_cell_loop(pair):
    a, b = pair
    assert _from_kernel(a, b, _pair_sums(a.occ, b.occ)) == dilate_loop(a, b)


@given(grid_tuples(2))
@example((EMPTY, SOLID_5X5))
@example(PAIR_SIDE)
@example(FFT_SIDE)
@settings(max_examples=100, deadline=None)
def test_convolution_dilation_matches_cell_loop(pair):
    a, b = pair
    assert (_from_kernel(a, b, _convolve(a.occ, b.occ) > 0)
            == dilate_loop(a, b))


@given(grid_tuples(2))
@example((EMPTY, SINGLE))
@example((SOLID_2X2, SINGLE))
@example((SOLID_5X5, SINGLE))
@example((SOLID_5X5, SOLID_2X2))
@example((SOLID_2X2, SOLID_5X5))
@example((SOLID_3D, _grid((0, 0, 0), [[[1, 1]]])))
@settings(max_examples=150, deadline=None)
def test_erode_open_matches_cell_loop(pair):
    a, b = pair
    assume(not b.is_empty)
    assert erode_open(a, b) == erode_open_loop(a, b)


@given(grid_tuples(3))
@example((SOLID_5X5, SOLID_2X2, SINGLE))
@example((EMPTY, SOLID_2X2, SINGLE))
@example((SOLID_2X2, SOLID_5X5, SOLID_5X5))
@settings(max_examples=150, deadline=None)
def test_restricted_sum_matches_cell_loop(triple):
    k, t, other = triple
    # The erosion fit the campaigns use, and an arbitrary set that may reach
    # outside the frame of K + T.
    erosions = [other] if t.is_empty else [erode_open_loop(k, t), other]
    for erosion in erosions:
        sum_set, admitted = restricted_sum(k, t, erosion)
        assert admitted == admitted_pair_count_loop(k, t, erosion)
        assert sum_set == difference(dilate_loop(k, t), erosion)


def contains_points(spec: ShapeSpec, points: np.ndarray) -> np.ndarray:
    """Closed-set membership for points of shape (m, dim)."""
    pts = np.asarray(points, dtype=float)
    kind, parts = spec.kind, spec.children
    if kind == "box":
        lo = np.array([float(v) for v in spec.lo])
        hi = np.array([float(v) for v in spec.hi])
        return np.all((pts >= lo) & (pts <= hi), axis=1)
    if kind == "ball":
        c = np.array([float(v) for v in spec.center])
        r = float(spec.radius)
        return np.sum((pts - c) ** 2, axis=1) <= r * r
    if kind == "simplex":
        return np.all(pts >= 0.0, axis=1) & (pts.sum(axis=1) <= 1.0)
    if kind == "polygon":
        verts = np.array([[float(x), float(y)] for x, y in spec.vertices])
        if _poly_signed_area(verts) < 0:
            verts = verts[::-1]
        ok = np.ones(len(pts), dtype=bool)
        for i in range(len(verts)):
            a = verts[i]
            e = verts[(i + 1) % len(verts)] - a
            rel = pts - a
            ok &= e[0] * rel[:, 1] - e[1] * rel[:, 0] >= 0.0
        return ok
    if kind == "scaled":
        return contains_points(parts[0], pts / float(spec.factor))
    if kind == "translated":
        v = np.array([float(x) for x in spec.vector])
        return contains_points(parts[0], pts - v)
    if kind == "reflected":
        return contains_points(parts[0], -pts)
    assert kind == "union"
    return contains_points(parts[0], pts) | contains_points(parts[1], pts)


def rasterize_points(spec: ShapeSpec, h: float) -> GridSet:
    """Cell-center rasterization through a (cells x dim) matrix of all cell
    centers, the rasterizer before the open mesh."""
    dim = spec.dim()
    lo, hi = spec.bbox()
    imin = np.floor(lo / h - 0.5).astype(int)
    imax = np.ceil(hi / h - 0.5).astype(int)
    shape = tuple(int(n) for n in imax - imin + 1)
    axes = [(np.arange(imin[k], imax[k] + 1) + 0.5) * h for k in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    occ = contains_points(spec, pts).reshape(shape)
    return GridSet(dim, h, tuple(int(i) for i in imin), occ)


# The cell sizes keep most meshes within a few ten thousand cells; larger
# windows are filtered out.  Coordinates are either snapped to quarter
# cells, so that corners, radii and vertices sit exactly on cell centers
# and faces, or arbitrary floats.
RES = {2: (1 / 16, 1 / 10, 3 / 32), 3: (1 / 8, 1 / 6), 4: (1 / 4, 1 / 3)}


@st.composite
def coords(draw, h):
    if draw(st.booleans()):
        return draw(st.integers(-40, 40)) * h / 4
    return draw(st.floats(-1.5, 1.5, allow_nan=False))


@st.composite
def leaves(draw, dim, h):
    kind = draw(st.sampled_from(("box", "ball", "simplex", "polygon")
                                if dim == 2 else ("box", "ball", "simplex")))
    if kind == "box":
        lo = [draw(coords(h)) for _ in range(dim)]
        width = [draw(st.integers(1, 12)) * h / 4 for _ in range(dim)]
        return ShapeSpec.box(lo, [a + w for a, w in zip(lo, width)])
    if kind == "ball":
        radius = draw(st.one_of(st.integers(1, 12).map(lambda n: n * h / 4),
                                st.floats(0.05, 1.0)))
        return ShapeSpec.ball([draw(coords(h)) for _ in range(dim)], radius)
    if kind == "simplex":
        return ShapeSpec.simplex(dim)
    verts = [(draw(coords(h)), draw(coords(h)))
             for _ in range(draw(st.integers(3, 6)))]
    return ShapeSpec.polygon(verts[::-1] if draw(st.booleans()) else verts)


@st.composite
def spec_trees(draw, dim, h, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(leaves(dim, h))
    node = draw(st.sampled_from(("scaled", "translated", "reflected",
                                 "union")))
    child = draw(spec_trees(dim, h, depth - 1))
    if node == "scaled":
        return ShapeSpec.scaled(child, draw(st.sampled_from(
            (0.5, 0.75, 1.5, 0.3, 1.1))))
    if node == "translated":
        return ShapeSpec.translated(child, [draw(coords(h))
                                            for _ in range(dim)])
    if node == "reflected":
        return ShapeSpec.reflected(child)
    return ShapeSpec.union_of(child, draw(spec_trees(dim, h, depth - 1)))


@st.composite
def rasterize_cases(draw):
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    h = draw(st.sampled_from(RES[dim]))
    return draw(spec_trees(dim, h)), h


TRIANGLE = [(0, 0), (0.5, 0), (0, 0.5)]


@given(rasterize_cases())
@example((ShapeSpec.polygon(TRIANGLE), 1 / 16))
@example((ShapeSpec.polygon(TRIANGLE[::-1]), 1 / 16))
@example((ShapeSpec.translated(ShapeSpec.reflected(ShapeSpec.simplex(3)),
                               (1 / 16, 0, -3 / 16)), 1 / 8))
@example((ShapeSpec.scaled(ShapeSpec.ball((1 / 8, 0, 0, 0), 5 / 8), 1.5),
          1 / 4))
@example((ShapeSpec.union_of(ShapeSpec.box((-1 / 32, -1 / 32), (9 / 32, 1)),
                             ShapeSpec.ball((0.5, 0.5), 0.40625)), 1 / 16))
@settings(max_examples=200, deadline=None)
def test_rasterize_matches_point_matrix(case):
    spec, h = case
    lo, hi = spec.bbox()
    assume(np.prod(np.ceil(hi / h) - np.floor(lo / h) + 1) <= 200_000)
    assert rasterize(spec, h) == rasterize_points(spec, h)


@pytest.mark.parametrize("dim,h", [(2, 1 / 64), (3, 1 / 16), (4, 1 / 8)])
def test_generated_unions_match_point_matrix(dim, h):
    params = GridGenParams()
    for trial in range(6):
        grid, spec = gen_connected_boundary_set(trial_rng(dim, trial),
                                                params, dim, h)
        assert grid == rasterize_points(spec, h)


def _rounding_edge_ball(dim: int, h: float, grouping) -> ShapeSpec:
    """A ball whose r*r lies between two groupings of one cell center's sum
    of squares: left to right, and as `grouping` adds them.  A rasterizer
    that sums in the second order flips that cell."""
    center = [0.0137 * (k + 1) for k in range(dim)]
    x = [(i + 0.5) * h for i in range(-6, 6)]
    for p in itertools.product(x, repeat=dim):
        sq = [(a - c) * (a - c) for a, c in zip(p, center)]
        low, high = sorted((reduce(add, sq), grouping(sq)))
        r = math.sqrt(low)
        for radius in (r, math.nextafter(r, 2.0), math.nextafter(r, 0.0)):
            if low <= radius * radius < high:
                return ShapeSpec.ball(center, radius)
    raise AssertionError("no cell center separates the two sums")


@pytest.mark.parametrize("grouping", [
    lambda sq: sq[0] + reduce(add, sq[1:]),
    lambda sq: reduce(add, sq[::-1]),
], ids=["pairwise", "reversed"])
@pytest.mark.parametrize("dim,h", [(3, 0.1), (4, 1 / 8)])
def test_ball_sums_squares_left_to_right(dim, h, grouping):
    spec = _rounding_edge_ball(dim, h, grouping)
    assert rasterize(spec, h) == rasterize_points(spec, h)


def face_components(grid: GridSet) -> int:
    structure = ndimage.generate_binary_structure(grid.dim, 1)
    return ndimage.label(grid.occ, structure=structure)[1]


def gen_connected_boundary_set_ref(seed_rng: random.Random,
                                   params: GridGenParams, dim: int, h: float
                                   ) -> tuple[GridSet, ShapeSpec]:
    """Keep a candidate part when the rasterized union spec has one face
    component; keep the body when its boundary is connected."""
    params.validate()
    for _ in range(params.max_retries):
        n_parts = seed_rng.randint(1, params.max_primitives)
        center = [seed_rng.uniform(-params.center_range / 2,
                                   params.center_range / 2) for _ in range(dim)]
        spec = _random_primitive(seed_rng, params, dim, h, center)
        grid = rasterize(spec, h)
        ok = grid.count > 0 and face_components(grid) == 1
        parts = 1
        attempts = 0
        while ok and parts < n_parts and attempts < 8:
            attempts += 1
            lo, hi = spec.bbox()
            new_center = [seed_rng.uniform(lo[k] - 0.2, hi[k] + 0.2)
                          for k in range(dim)]
            candidate = ShapeSpec.union_of(
                spec, _random_primitive(seed_rng, params, dim, h, new_center))
            candidate_grid = rasterize(candidate, h)
            if face_components(candidate_grid) == 1:
                spec, grid = candidate, candidate_grid
                parts += 1
        if ok and is_boundary_connected(grid):
            return grid, spec
    raise GeometryError("grid generator exhausted its rejection budget")


# Dyadic and non-dyadic cell sizes per dimension; in 3D and 4D the finest
# ones stay coarse enough that each example is a few ten thousand cells.
GEN_RES = {2: (1 / 3, 1 / 7, 1 / 10, 0.013, 1 / 128),
           3: (1 / 3, 1 / 7, 1 / 10, 1 / 16),
           4: (1 / 3, 1 / 5, 1 / 7, 1 / 8)}


@st.composite
def gen_cases(draw):
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    h = draw(st.sampled_from(GEN_RES[dim]))
    return dim, h, draw(st.integers(0, 2 ** 32))


def _generated(generate, dim, h, seed):
    rng = random.Random(seed)
    try:
        grid, spec = generate(rng, GridGenParams(), dim, h)
    except GeometryError as exc:
        return str(exc), None, rng.getstate()
    return grid, spec, rng.getstate()


@given(gen_cases())
@example((2, 0.013, 0))
@example((3, 1 / 7, 1))
@example((4, 1 / 8, 2))
@settings(max_examples=120, deadline=None)
def test_generator_matches_union_relabelling(case):
    dim, h, seed = case
    got = _generated(gen_connected_boundary_set, dim, h, seed)
    assert got == _generated(gen_connected_boundary_set_ref, dim, h, seed)
    grid, spec, _ = got
    if spec is not None:
        assert grid == rasterize(spec, h)


# The lemma the contact rule rests on: a rasterized primitive of the
# generator is nonempty and face-connected, so the union of two of them is
# face-connected exactly when they overlap or share a face.
PRIM_RES = {2: (1 / 7, 1 / 10, 1 / 16, 0.013, 1 / 64),
            3: (1 / 7, 1 / 10, 1 / 16),
            4: (1 / 5, 1 / 7, 1 / 8)}


@st.composite
def primitives(draw, dim, h, near=None):
    """A primitive drawn as the generator draws one, centred anywhere in
    [-1, 1]^dim, or near the window of `near` like a candidate part."""
    if near is None:
        center = [draw(st.floats(-1, 1)) for _ in range(dim)]
    else:
        lo, hi = near.bbox()
        center = [draw(st.floats(float(a) - 0.2, float(b) + 0.2))
                  for a, b in zip(lo, hi)]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return _random_primitive(rng, GridGenParams(), dim, h, center)


@st.composite
def primitive_cases(draw):
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    h = draw(st.sampled_from(PRIM_RES[dim]))
    return draw(primitives(dim, h)), h


@given(primitive_cases())
@settings(max_examples=150, deadline=None)
def test_rasterized_primitive_is_one_face_component(case):
    spec, h = case
    grid = rasterize(spec, h)
    assert not grid.is_empty
    assert face_components(grid) == 1


@st.composite
def primitive_pairs(draw):
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    h = draw(st.sampled_from(PRIM_RES[dim]))
    first = draw(primitives(dim, h))
    return first, draw(primitives(dim, h, near=first)), h


@given(primitive_pairs())
@settings(max_examples=150, deadline=None)
def test_contact_agrees_with_labelling_the_union(case):
    first, second, h = case
    a, b = rasterize(first, h), rasterize(second, h)
    assert in_contact(a, b) == in_contact(b, a)
    assert in_contact(a, b) == (face_components(union(a, b)) == 1)


@given(primitive_pairs())
@settings(max_examples=100, deadline=None)
def test_attach_is_contact_then_union(case):
    first, second, h = case
    a, b = rasterize(first, h), rasterize(second, h)
    assert attach(a, b) == (union(a, b) if in_contact(a, b) else None)


def _box_cells(lo, hi) -> ShapeSpec:
    """Box whose rasterization at h = 1/4 is the cells lo..hi (inclusive)
    per axis."""
    return ShapeSpec.box([(i + 0.25) / 4 for i in lo],
                         [(i + 0.75) / 4 for i in hi])


@pytest.mark.parametrize("lo,hi,touching", [
    ((2, 2), (3, 3), False),              # corner only
    ((2, 1), (3, 3), True),               # one shared face
    ((1, 1), (3, 3), True),               # overlap
    ((2, 2, 0), (3, 3, 1), False),        # 3D edge only
    ((2, 2, 2), (2, 2, 2), False),        # 3D corner only
    ((2, 0, 0), (2, 1, 1), True),         # 3D face
    ((2,) * 4, (3,) * 4, False),          # 4D corner only
])
def test_contact_rejects_edge_and_corner_meetings(lo, hi, touching):
    a = rasterize(_box_cells((0,) * len(lo), (1,) * len(lo)), 1 / 4)
    b = rasterize(_box_cells(lo, hi), 1 / 4)
    assert in_contact(a, b) is touching
    assert (face_components(union(a, b)) == 1) is touching
