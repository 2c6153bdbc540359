"""The voxel engine's fast paths against the simple code they replaced.

`dilate_loop`, `erode_open_loop`, `boundary_loop` and
`admitted_pair_count_loop` are the brute-force per-cell implementations of
the kernel-based operations; the pair scattering and FFT convolution
kernels of dilation are checked against `dilate_loop` on their own as well
as through `dilate`, and the box runs, which take every box operand and
box face boundary, through `dilate` and `erode_open` with the other two
kernels unable to run.  `restricted_sum` forms the restricted sum set and
its admitted pair count from the convolution of K with T, and `is_subset`
compares two cell sets; together they are the oracle for the eq-4.2
containment verdict, which the engine decides by comparing K + T with the
boundary sum cell by cell.  `full_components` counts full-adjacency
components with scipy's `ndimage.label`, which the engine's run-graph
labeller `_full_components` replaced; scipy is a test dependency only.
`dilate_loop` is also the oracle of `_dilate_boundary`, which sums X with
a boundary connected under full adjacency through X's edge cells
(`full_edge_loop` by loops) and one translate of X; `lemma_sum` forms that
union by loops, for a disconnected summand where it falls short.
`convolve_loop` counts the pairs at every cell of the full sum frame, and
the FFT convolution over any window of that frame must return the same
counts there.  `runs_per_axis` is the box-run kernel before it moved to
the flat array, the oracle of `_runs` on every entry its callers keep.
`lemma_whole` forms K + T for a box T as (bK + T) u (K + t0) by loops, the
identity the eq-4.2 containment verdict uses instead of a second sum.
`dilate` and `boundary` build their GridSets without normalizing them, so
their results are also checked against the same cells normalized by the
public constructor.  `contains_points` and `rasterize_points` evaluate a
shape spec on a (cells x dim) matrix of cell centers, as rasterization did
before it moved to an open mesh, and `_meshed` rasterizes a box on the
open mesh, as it was before boxes were rasterized as boxes.
`gen_connected_boundary_set_ref` is the body generator before each
primitive was rasterized once: it re-rasterizes the whole union for every
candidate part and labels it.  Every property asserts cell-exact
agreement: the same origin, the same occupancy and the same pair count,
and for the generator the same spec and random state.
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

from bmink import generators, voxel
from bmink.exact2d import GeometryError
from bmink.generators import (_random_primitive, gen_connected_boundary_set,
                              gen_decomposition_pair, trial_rng)
from bmink.inequalities import check_thm_4_2
from bmink.voxel import (_PAIR_COST, ALLOWED_DIMS, GridError, GridSet,
                         ShapeSpec, _box_kind, _common_frame, _convolve,
                         _embed, _frames, _in_contact, _or_windows,
                         _pair_sums, _poly_signed_area, _raster_window,
                         _require_same_grid, _restricted_sum_contained, bbox,
                         boundary, dilate, erode_open, is_boundary_connected,
                         rasterize, union)

H = 0.5
SIDE = {2: 6, 3: 4, 4: 3}  # keeps every example within a few hundred cells


def _empty(like: GridSet) -> GridSet:
    """The empty set on the grid of `like`."""
    return GridSet(like.dim, like.h, (0,) * like.dim,
                   np.zeros((1,) * like.dim, bool))


def dilate_loop(a: GridSet, b: GridSet) -> GridSet:
    """OR a translate of the larger operand per occupied cell of the smaller."""
    if a.is_empty or b.is_empty:
        return _empty(a)
    small, big = (a, b) if a.count <= b.count else (b, a)
    out_shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    out = np.zeros(out_shape, dtype=bool)
    for cell in np.argwhere(small.occ):
        sl = tuple(slice(int(c), int(c) + n) for c, n in zip(cell, big.shape))
        out[sl] |= big.occ
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    return GridSet(a.dim, a.h, origin, out)


def boundary_loop(a: GridSet) -> GridSet:
    """Keep each occupied cell that has an unoccupied face neighbor."""
    cells = {tuple(int(v) for v in c) for c in a.cells()}
    kept = np.zeros(a.shape, dtype=bool)
    for c in cells:
        for k in range(a.dim):
            for step in (1, -1):
                if c[:k] + (c[k] + step,) + c[k + 1:] not in cells:
                    kept[tuple(v - o for v, o in zip(c, a.origin))] = True
    return GridSet(a.dim, a.h, a.origin, kept)


def difference(a: GridSet, b: GridSet) -> GridSet:
    """Cells of a that are not cells of b."""
    lo, av, bv = _common_frame(a, b)
    return GridSet(a.dim, a.h, lo, av & ~bv)


def interior_array(a: GridSet) -> np.ndarray:
    """Cells whose 2*dim face neighbors are all occupied, in a's array:
    a's cells outside boundary_loop(a)."""
    edge = boundary_loop(a)
    return a.occ & ~_embed(edge.origin, edge.occ, a.origin, a.shape)


def interior(a: GridSet) -> GridSet:
    return GridSet(a.dim, a.h, a.origin, interior_array(a))


def is_subset(a: GridSet, b: GridSet) -> bool:
    """Every cell of a is a cell of b."""
    _require_same_grid(a, b)
    _, av, bv = _common_frame(a, b)
    return not (av & ~bv).any()


def restricted_sum(a: GridSet, b: GridSet,
                   erosion: GridSet) -> tuple[GridSet, int]:
    """Sum {x + y} over the pairs of A x B with x outside (erosion - y),
    and the number of those admitted pairs.

    The sum set is dilate(A, B) minus the erosion.  One convolution of A
    with B gives both: its positive cells are dilate(A, B), and its counts
    summed over the erosion's cells are the excluded pairs.
    """
    _require_same_grid(a, b)
    _require_same_grid(a, erosion)
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    counts = _convolve(a.occ, b.occ)
    hole = _embed(erosion.origin, erosion.occ, origin, counts.shape)
    admitted = a.count * b.count - int(counts[hole].sum())
    return GridSet(a.dim, a.h, origin, (counts > 0) & ~hole), admitted


def convolve_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pair counts over the full sum frame: add a translate of b per
    occupied cell of a."""
    out = np.zeros([m + n - 1 for m, n in zip(a.shape, b.shape)], dtype=int)
    for cell in np.argwhere(a):
        out[tuple(slice(int(c), int(c) + n)
                  for c, n in zip(cell, b.shape))] += b
    return out


def erode_open_loop(a: GridSet, b: GridSet) -> GridSet:
    """AND a shifted copy of interior(a) per occupied cell of b."""
    if a.is_empty:
        return _empty(a)
    inter = interior_array(a)
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
SOLID_8X8 = _grid((-3, 0), np.ones((8, 8)))


def _cornerless(side: int) -> np.ndarray:
    """A solid square with one corner cell missing: dense, but not a box."""
    occ = np.ones((side, side), dtype=bool)
    occ[0, 0] = False
    return occ


CORNERLESS_7X7 = _grid((2, -3), _cornerless(7))
CORNERLESS_8X8 = _grid((-3, 0), _cornerless(8))
# dilate's cost rule puts CORNERLESS_7X7 + CORNERLESS_7X7 on the pair side
# and CORNERLESS_8X8 + CORNERLESS_8X8 on the FFT side; neither is a box, so
# neither takes the box runs (test_examples_straddle_cost_rule).
PAIR_SIDE = (CORNERLESS_7X7, CORNERLESS_7X7)
FFT_SIDE = (CORNERLESS_8X8, CORNERLESS_8X8)


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
    assert _box_kind(PAIR_SIDE[0]) is _box_kind(FFT_SIDE[0]) is None


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


def _renormalized(g: GridSet) -> GridSet:
    """The same cells through the public, normalizing constructor."""
    return GridSet(g.dim, g.h, g.origin, g.occ.copy())


@st.composite
def pairs_with_empties(draw):
    """Two grids of one dimension, one of them the empty set in about a
    quarter of the cases."""
    pair = list(draw(grid_tuples(2)))
    if draw(st.integers(0, 3)) == 0:
        pair[draw(st.integers(0, 1))] = _empty(pair[0])
    return tuple(pair)


@given(pairs_with_empties())
@example((EMPTY, SOLID_5X5))
@example((SOLID_5X5, EMPTY))
@example((SINGLE, SINGLE))
@example(PAIR_SIDE)
@example(FFT_SIDE)
@example((SOLID_3D, _grid((0, 0, 0), [[[1, 0, 1]]])))
@settings(max_examples=150, deadline=None)
def test_trusted_outputs_are_normalized(pair):
    a, b = pair
    total = dilate(a, b)
    assert total == _renormalized(total) == dilate_loop(a, b)
    for g in (a, b, total):
        shell = boundary(g)
        assert shell == _renormalized(shell) == boundary_loop(g)
        assert boundary(g) is shell
        for x in (g, shell):
            assert x.count == int(x.occ.sum())
            assert x.is_empty == (x.count == 0)


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


# -- the box runs: dilation and erosion by a box or a box's face boundary --

def _no_fft_or_pairs(*args):
    raise AssertionError("a box operand must take the box runs")


def _box_operand_cases(box: GridSet, other: GridSet) -> None:
    """dilate and erode_open with the box operand `box` (a box or a box's
    face boundary) against the cell loops, in both operand orders and with
    the empty set, with _convolve and _pair_sums unable to run; erosion by
    a face boundary, which convolves, runs with them."""
    empty = _empty(box)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voxel, "_convolve", _no_fft_or_pairs)
        mp.setattr(voxel, "_pair_sums", _no_fft_or_pairs)
        for a, b in ((box, other), (other, box), (box, box), (box, empty),
                     (empty, box)):
            assert dilate(a, b) == dilate_loop(a, b)
        if _box_kind(box) == "shell":
            mp.undo()
        for k in (box, other):
            assert erode_open(k, box) == erode_open_loop(k, box)


@st.composite
def box_operands(draw):
    """A box of sides 1 to 5 at a random origin, or its face boundary."""
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    sides = tuple(draw(st.integers(1, 5)) for _ in range(dim))
    origin = tuple(draw(st.integers(-4, 4)) for _ in range(dim))
    box = GridSet(dim, H, origin, np.ones(sides, dtype=bool))
    return boundary(box) if draw(st.booleans()) else box


@given(box_operands(), st.data())
@settings(max_examples=150, deadline=None)
def test_box_operands_match_cell_loops(box, data):
    _box_operand_cases(box, data.draw(grids(box.dim)))


# Per dimension, cubes of side 1 to 5 and boxes with unequal sides; side 3
# is the shell whose core is one cell.
BOX_SIDES = [(side,) * dim for dim in ALLOWED_DIMS for side in range(1, 6)] + [
    (1, 4), (5, 2), (3, 5), (3, 1, 4), (4, 3, 5), (2, 5, 3, 1), (3, 4, 3, 5)]


@pytest.mark.parametrize("sides", BOX_SIDES, ids=str)
def test_boxes_and_shells_match_cell_loops(sides):
    dim = len(sides)
    box = _grid((1, -2, 0, 3)[:dim], np.ones(sides))
    shell = boundary(box)
    assert _box_kind(box) == "box"
    assert _box_kind(shell) == ("shell" if min(sides) >= 3 else "box")
    rng = np.random.default_rng(list(sides))
    other = _grid((-2,) * dim, rng.random((4,) * dim) < 0.5)
    for operand in (box, shell):
        _box_operand_cases(operand, other)
    # K one cell narrower than the box on axis 0 (the empty set for side
    # 1) and as wide on the others: the erosion is empty.  K two cells
    # wider on every axis: the box fits at 3^dim positions, cells of
    # interior(K).  The same K without its center cell, where a face
    # boundary of side 5 fits around the hole and its box does not.
    narrow = _grid((0,) * dim, np.ones((sides[0] - 1,) + sides[1:]))
    wide = _grid((-3,) * dim, np.ones([n + 4 for n in sides]))
    holed = wide.occ.copy()
    holed[tuple(n // 2 for n in holed.shape)] = False
    holed = _grid(wide.origin, holed)
    assert erode_open(wide, box).count == 3 ** dim
    for k in (narrow, wide, holed):
        for t in (box, shell):
            assert erode_open(k, t) == erode_open_loop(k, t)


def _near_misses(dim: int, side: int) -> list:
    """Operands that are neither a box nor a box's face boundary: a shell
    missing one face cell, a shell with one face cell moved into its core,
    a shell plus one core cell (side 4 and up: at side 3 that is the box),
    a box minus a corner (at side 3 it has a shell's count) and, in 3D,
    the two end cells of a row, as many as the shell of a 1 x 1 x side box
    would have by the count formula."""
    inner = (slice(1, -1),) * dim
    shell = np.zeros((side + 2,) * dim, dtype=bool)
    shell[inner] = True
    shell[(slice(2, -2),) * dim] = False
    face, core = (1,) + (2,) * (dim - 1), (2,) * dim
    missing, moved, plus_core = shell.copy(), shell.copy(), shell.copy()
    missing[face] = moved[face] = False
    moved[core] = plus_core[core] = True
    cornerless = np.zeros_like(shell)
    cornerless[inner] = True
    cornerless[(1,) * dim] = False
    cases = [missing, moved, cornerless] + ([plus_core] if side > 3 else [])
    if dim == 3:
        ends = np.zeros((3, 3, side + 2), dtype=bool)
        ends[1, 1, 1] = ends[1, 1, side] = True
        cases.append(ends)
    return [_grid((0,) * dim, occ) for occ in cases]


@pytest.mark.parametrize("dim,side", [(d, s) for d in ALLOWED_DIMS
                                      for s in (3, 4, 5)])
def test_near_miss_operands_are_not_boxes(dim, side):
    other = _grid((1,) * dim, np.ones((3,) * dim))
    for near in _near_misses(dim, side):
        assert _box_kind(near) is None
        assert dilate(near, other) == dilate_loop(near, other)
        assert erode_open(other, near) == erode_open_loop(other, near)


@st.composite
def windowed_pairs(draw):
    """Two arrays and a window of their full sum frame: per axis a first
    and an end index, first < end <= the frame's length."""
    a, b = draw(grid_tuples(2))
    window = []
    for m, n in zip(a.shape, b.shape):
        first = draw(st.integers(0, m + n - 2))
        window.append((first, draw(st.integers(first + 1, m + n - 1))))
    return a.occ, b.occ, tuple(window)


def _fit_window(a: GridSet, b: GridSet) -> tuple:
    return a.occ, b.occ, tuple((n - 1, m) for m, n in zip(a.shape, b.shape))


@given(windowed_pairs())
@example(_fit_window(SOLID_8X8, SOLID_5X5))  # transformed at 10 of 16
@example(_fit_window(SOLID_3D, _grid((0, 0, 0), [[[1, 1]]])))
@example(_fit_window(SOLID_5X5, SOLID_5X5))  # one-entry window
@settings(max_examples=150, deadline=None)
def test_windowed_convolution_crops_the_full_frame(case):
    # Per axis the window may start anywhere and end anywhere after it, so
    # the transform length, the 5-smooth length at least max(end, full
    # length - first), often falls short of the full frame and the circular
    # convolution wraps.
    a, b, window = case
    expected = convolve_loop(a, b)[tuple(slice(*w) for w in window)]
    assert np.array_equal(_convolve(a, b, window), expected)


# Solids at an exact fit: T fits in interior(K) at one position only.
EXACT_FITS = (
    (SOLID_5X5, _grid((0, 0), np.ones((3, 3)))),
    (SOLID_3D, _grid((2, 0, 1), np.ones((2, 2, 2)))),
    (_grid((0,) * 4, np.ones((4,) * 4)), _grid((-1,) * 4, np.ones((2,) * 4))),
)
# T as wide as interior(K) on axis 0 only: an exact fit there, with room on
# axis 1.  T as wide as K on axis 0 only: the fit window is one entry long
# there and holds no erosion cell.
FIT_ON_ONE_AXIS = (SOLID_5X5, _grid((1, 0), np.ones((3, 1))))
AS_WIDE_AS_K = (SOLID_5X5, _grid((1, 0), np.ones((5, 1))))


def test_fit_examples_erode_to_the_expected_cells():
    for k, t in EXACT_FITS:
        assert erode_open(k, t).count == 1
    assert erode_open(*FIT_ON_ONE_AXIS).count == 3
    assert erode_open(*AS_WIDE_AS_K).is_empty


@given(grid_tuples(2))
@example(EXACT_FITS[0])
@example(EXACT_FITS[1])
@example(EXACT_FITS[2])
@example(FIT_ON_ONE_AXIS)
@example(AS_WIDE_AS_K)
@example((GridSet(2, 0.25, (0, 0), np.zeros((1, 1), bool)),
          GridSet(2, 0.25, (0, 0), np.ones((2, 2), bool))))
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


def _rows(rows) -> GridSet:
    """A 2D grid at origin 0 and h = 1 from rows of 0/1."""
    return GridSet(2, 1.0, (0, 0), np.array(rows, dtype=bool))


# (K, T) pairs whose verdicts single out wrong ways to decide containment.
# The first is contained, though a hole of K + T is a bounded gap of
# bK + bT outside the erosion: a point test that always fails gets it
# wrong.  In the second a bounded gap lies inside K + T, so a verdict that
# never runs the point test gets it wrong.  The last two are not contained
# either, and labelling the gaps with full (3^n - 1) adjacency calls them
# contained.
CONTAINMENT_CASES = (
    (_rows([[0, 0, 1, 1, 1], [1, 1, 0, 0, 1], [0, 0, 0, 1, 0],
            [1, 0, 1, 0, 1], [0, 1, 0, 0, 1]]), _rows([[1, 1]])),
    (_rows([[1, 1, 0], [0, 0, 1], [0, 0, 0], [1, 0, 0]]),
     _rows(np.ones((3, 3)))),
    (_rows([[1, 1, 0, 0, 1, 1], [1, 1, 0, 1, 1, 0], [1, 1, 1, 1, 1, 1],
            [1, 1, 0, 0, 0, 1]]), _rows([[1], [1], [0], [1]])),
    (_rows([[1, 1, 1, 1], [1, 0, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0],
            [1, 1, 1, 1], [1, 0, 1, 1]]), _rows([[1, 0, 0, 1]])),
)


# Pairs whose T is not a box, outside decompose_sum's precondition; their
# K + T takes dilate's pair scattering (the first and third) or its FFT
# (the second).  The third is not contained: the oracle's verdicts on them
# record why the precondition exists.
GENERAL_T_CASES = (
    (rasterize(ShapeSpec.ball((0, 0), 9), 1.0),
     _rows([[1, 1, 1], [1, 0, 0], [1, 0, 0]])),
    (rasterize(ShapeSpec.ball((0, 0), 9), 1.0), _rows(_cornerless(8))),
    (rasterize(ShapeSpec.ball((0, 0), 9), 1.0),
     _rows([[0, 1, 0], [1, 1, 1], [0, 1, 0]])),
)


def test_general_t_cases_take_the_general_kernels():
    costs = [k.count * t.count <= _PAIR_COST * _padded_cells(k, t)
             for k, t in GENERAL_T_CASES]
    assert costs == [True, False, True]
    assert all(_box_kind(t) is None for _, t in GENERAL_T_CASES)


def oracle_contained(k: GridSet, t: GridSet) -> bool:
    """The eq-4.2 containment verdict by the definition, for any K and T:
    the restricted sum lies inside bK + bT."""
    return is_subset(restricted_sum(k, t, erode_open(k, t))[0],
                     dilate(boundary(k), boundary(t)))


def meets_precondition(k: GridSet, t: GridSet) -> bool:
    """decompose_sum's precondition: T a box, |K| >= |T|, bK connected."""
    return (_box_kind(t) == "box" and k.count >= t.count
            and is_boundary_connected(k))


def test_containment_cases_have_their_verdicts():
    assert [oracle_contained(k, t) for k, t in CONTAINMENT_CASES] == [
        True, False, False, False]
    assert [oracle_contained(k, t) for k, t in GENERAL_T_CASES] == [
        True, True, False]


@st.composite
def precondition_pairs(draw):
    """K a random grid or a body of the voxel campaigns' generator, in
    dims 2-4, with a connected boundary, and T a box at a random origin,
    its sides drawn up to K's array's and then cut, the longest first,
    until |T| <= |K|."""
    if draw(st.booleans()):
        k = draw(grid_tuples(1))[0]
    else:
        dim = draw(st.sampled_from(ALLOWED_DIMS))
        h = {2: 1 / 16, 3: 1 / 8, 4: 1 / 4}[dim]
        k = gen_connected_boundary_set(
            random.Random(draw(st.integers(0, 2 ** 32))), dim, h)[0]
    assume(is_boundary_connected(k))
    sides = [draw(st.integers(1, n)) for n in k.shape]
    while math.prod(sides) > k.count:
        sides[sides.index(max(sides))] -= 1
    origin = tuple(draw(st.integers(-4, 4)) for _ in sides)
    return k, GridSet(k.dim, k.h, origin, np.ones(sides, bool))


@given(precondition_pairs())
@example(CONTAINMENT_CASES[0])
@settings(max_examples=200, deadline=None)
def test_containment_verdict_matches_restricted_sum(pair):
    # Every such pair is contained, so the verdict is also asked with the
    # erosion cut (see _lemma_cases), where it must fail.
    _lemma_cases(*pair)


# Pairs outside decompose_sum's precondition, each with the error it
# raises: the three T that are not boxes; a 3 x 3 K with a 6 x 6 box T,
# where bK + T would be full while bK + bT misses the middle cells; and a
# box T with a K whose boundary falls apart.
OUTSIDE_PRECONDITION = {
    **{f"general-t-{i}": (k, t, "box")
       for i, (k, t) in enumerate(GENERAL_T_CASES)},
    "box-t-larger-than-k": (
        rasterize(ShapeSpec.box((0, 0), (3 / 16, 3 / 16)), 1 / 16),
        rasterize(ShapeSpec.box((0, 0), (6 / 16, 6 / 16)), 1 / 16),
        "swap the pair"),
    "k-boundary-disconnected": (_grid((0, 0), [[1, 1, 0, 0, 1, 1]] * 2),
                                _grid((0, 0), [[1]]), "connected"),
}


@pytest.mark.parametrize("case", OUTSIDE_PRECONDITION)
@pytest.mark.parametrize("check", [voxel.decompose_sum, check_thm_4_2],
                         ids=["decompose_sum", "check_thm_4_2"])
def test_pairs_outside_the_precondition_raise(check, case):
    k, t, message = OUTSIDE_PRECONDITION[case]
    assert not meets_precondition(k, t)
    with pytest.raises(GridError, match=message):
        check(k, t)


def full_components(occ: np.ndarray) -> int:
    """The number of full-adjacency components of occ, by ndimage.label:
    the labeller that _full_components replaced."""
    return ndimage.label(occ, structure=np.ones((3,) * occ.ndim))[1]


@st.composite
def margined_arrays(draw):
    """A random boolean array in dims 2-4 with an empty one-cell margin."""
    dim = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 2 * SIDE[dim])) for _ in range(dim))
    return np.pad(draw(arrays(bool, shape)), 1)


def _marked(shape, cells) -> np.ndarray:
    """An array of the given shape plus a one-cell margin, with the given
    cells (indices inside the margin) occupied."""
    occ = np.zeros([n + 2 for n in shape], bool)
    for cell in cells:
        occ[tuple(c + 1 for c in cell)] = True
    return occ


# Cells that meet only along edges or at corners, one component under full
# adjacency; two diagonals three columns apart are two.  Every direction of a
# neighbor row, earlier and later, is taken by some case.
DIAGONAL_CASES = [
    (_marked((5, 5), [(i, i) for i in range(5)]), 1),
    (_marked((5, 5), [(i, 4 - i) for i in range(5)]), 1),
    (_marked((6, 6), [(i, j) for i in range(6) for j in range(6)
                      if (i + j) % 2 == 0]), 1),
    (_marked((6, 6), [(i, i) for i in range(4)]
             + [(i, i + 3) for i in range(3)]), 2),
    (_marked((4, 4, 4), [(i, i, i) for i in range(4)]), 1),
    (_marked((4, 4, 4), [(i, 3 - i, i) for i in range(4)]), 1),
    (_marked((4, 4, 4), [(i, 3 - i, 3 - i) for i in range(4)]), 1),
    (_marked((4, 4, 4), [(0, 0, 0), (1, 1, 0), (3, 3, 3)]), 2),
    (_marked((3, 3, 3, 3), [(i, 2 - i, i, 2 - i) for i in range(3)]), 1),
    (_marked((3, 3, 3, 3), [(0, 0, 0, 0), (2, 2, 2, 2)]), 2),
] + [(_marked((1,) * dim, [(0,) * dim]), 1) for dim in ALLOWED_DIMS] + [
    (np.zeros((1,) * dim, bool), 0) for dim in ALLOWED_DIMS]


@given(margined_arrays())
@settings(max_examples=300, deadline=None)
def test_run_labeller_matches_ndimage(occ):
    assert voxel._full_components(occ) == full_components(occ)


@pytest.mark.parametrize("occ,components", DIAGONAL_CASES)
def test_run_labeller_joins_diagonal_contacts(occ, components):
    assert voxel._full_components(occ) == full_components(occ) == components


def _holed_square(side: int) -> GridSet:
    """A side x side square of cells at h = 1/8 with a 3 x 3 hole in its
    middle."""
    occ = np.ones((side, side), bool)
    mid = (side - 3) // 2
    occ[mid:mid + 3, mid:mid + 3] = False
    return GridSet(2, 1 / 8, (0, 0), occ)


def test_holed_squares_keep_their_verdicts():
    # The ring two cells thick passes: its face boundary is one component
    # under full adjacency, though its topological boundary is two curves.
    # The ring four cells thick does not.
    verdicts = []
    for side in (7, 11):
        grid = _holed_square(side)
        occ = boundary(grid).occ
        assert voxel._full_components(occ) == full_components(occ)
        verdicts.append(is_boundary_connected(grid))
    assert verdicts == [True, False]


def _holed_generated_body() -> GridSet:
    """The 2D body the generator draws first from trial_rng(9, 181) at
    h = 1/128, taken with its connectivity filter accepting every body, so
    that the draw does not depend on is_boundary_connected."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voxel, "is_boundary_connected", lambda a: True)
        return gen_connected_boundary_set(trial_rng(9, 181), 2, 1 / 128)[0]


def test_a_generated_body_has_two_holes():
    # The padded complement has three full-adjacency components: the
    # outside and holes of 127 and 2 cells.
    body = _holed_generated_body()
    assert (body.count, body.shape) == (13744, (139, 153))
    labels, n = ndimage.label(np.pad(~body.occ, 1), structure=np.ones((3, 3)))
    assert n == 3
    assert sorted(np.bincount(labels.ravel())[1:])[:2] == [2, 127]


@pytest.mark.xfail(strict=True, reason="the voxel connectivity test accepts "
                   "bodies with holes (ROADMAP, Smaller fixes)")
def test_a_generated_body_with_holes_has_a_disconnected_boundary():
    assert not is_boundary_connected(_holed_generated_body())


@pytest.mark.parametrize("dim,h", [(2, 1 / 128), (3, 1 / 32)])
def test_run_labeller_matches_ndimage_on_generated_bodies(dim, h):
    # The generator keeps bodies with connected boundaries; with every
    # third row along the first axis cleared, a boundary falls apart.
    for trial in range(6):
        occ = boundary(gen_connected_boundary_set(
            trial_rng(dim, trial), dim, h)[0]).occ
        striped = occ.copy()
        striped[::3] = False
        assert voxel._full_components(occ) == full_components(occ) == 1
        assert voxel._full_components(striped) == full_components(striped)


def full_edge_loop(x: GridSet) -> GridSet:
    """Keep each occupied cell that has an unoccupied cell among its
    3^dim - 1 neighbors."""
    cells = {tuple(int(v) for v in c) for c in x.cells()}
    steps = [s for s in itertools.product((-1, 0, 1), repeat=x.dim) if any(s)]
    kept = np.zeros(x.shape, dtype=bool)
    for c in cells:
        if any(tuple(map(add, c, s)) not in cells for s in steps):
            kept[tuple(v - o for v, o in zip(c, x.origin))] = True
    return GridSet(x.dim, x.h, x.origin, kept)


def lemma_sum(x: GridSet, b: GridSet) -> GridSet:
    """(E + B) u (X + b0), E = full_edge_loop(X) and b0 B's first cell:
    X + B when B is connected under full adjacency."""
    b0 = b.cells()[0]
    moved = GridSet(x.dim, x.h, tuple(map(add, x.origin, b0)), x.occ)
    return union(dilate_loop(full_edge_loop(x), b), moved)


@st.composite
def walks(draw, dim, h):
    """A body whose boundary is one component under full adjacency: the
    cells of a walk of full-adjacency steps, kept when its face boundary
    stays connected."""
    steps = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * dim),
                          min_size=2, max_size=4 * SIDE[dim]))
    cells = np.array(list(itertools.accumulate(
        steps, lambda c, s: tuple(map(add, c, s)), initial=(0,) * dim)))
    lo = cells.min(axis=0)
    occ = np.zeros(cells.max(axis=0) - lo + 1, bool)
    occ[tuple((cells - lo).T)] = True
    body = GridSet(dim, h, tuple(lo.tolist()), occ)
    assume(is_boundary_connected(body))
    return body


@st.composite
def connected_summands(draw):
    """X and a body whose boundary is connected under full adjacency, in
    dims 2-4.  X is a random block or a generated body; the body is a
    generated one or a walk."""
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    h = {2: 1 / 16, 3: 1 / 8, 4: 1 / 4}[dim]

    def generated():
        return gen_connected_boundary_set(
            random.Random(draw(st.integers(0, 2 ** 32))), dim, h)[0]

    x = generated() if draw(st.booleans()) else GridSet(dim, h, (0,) * dim, (
        draw(arrays(bool, tuple(draw(st.integers(1, SIDE[dim]))
                                for _ in range(dim))))))
    return x, generated() if draw(st.booleans()) else draw(walks(dim, h))


@given(connected_summands())
@settings(max_examples=200, deadline=None)
def test_boundary_sum_lemma_matches_cell_loop(pair):
    x, body = pair
    got = voxel._dilate_boundary(x, body)
    assert got == _renormalized(got) == dilate_loop(x, boundary(body))


def test_lemma_needs_a_connected_summand():
    # X a solid 3 x 3 square and B two cells five apart: X + B is two
    # squares, but no edge cell of X plus a cell of B reaches the center
    # of the far square.  B is its own boundary, and the helper refuses it.
    x = _grid((0, 0), np.ones((3, 3)))
    b = _grid((0, 0), [[1, 0, 0, 0, 0, 1]])
    assert difference(dilate_loop(x, b), lemma_sum(x, b)).cells().tolist() \
        == [[1, 6]]
    walk = _grid((0, 0), [[1, 0, 0], [0, 1, 1]])
    assert lemma_sum(x, walk) == dilate_loop(x, walk)
    assert not is_boundary_connected(b)
    with pytest.raises(GridError, match="connected"):
        voxel._dilate_boundary(x, b)


def test_boundary_sum_of_two_bodies_needs_no_connected_boundary():
    # Two boundaries are summed by dilate alone, so a body whose boundary
    # falls apart (as a scaled thm-bbm body may) is summed as it is; a
    # third body joins through the lemma, and must have a connected one.
    x = _grid((0, 0), np.ones((3, 3)))
    b = _grid((0, 0), [[1, 0, 0, 0, 0, 1]])
    assert voxel.boundary_sum([b, x]) == dilate_loop(boundary(x), b)
    with pytest.raises(GridError, match="connected"):
        voxel.boundary_sum([x, x, b])


def _recorded_shells(monkeypatch) -> list:
    """The shell argument of each _box_sum call from now on."""
    shells, original = [], voxel._box_sum

    def recorded(a, box, shell):
        shells.append(shell)
        return original(a, box, shell)

    monkeypatch.setattr(voxel, "_box_sum", recorded)
    return shells


@pytest.mark.parametrize("dim,h", [(2, 1 / 128), (3, 1 / 32)])
def test_box_sum_replaces_the_shell_sum_on_generated_pairs(monkeypatch, dim,
                                                           h):
    # T is a box.  bK + T is bK + bT, and the checker forms it by the box
    # runs, not the shell runs; K + T of the containment test comes from
    # it and one translate of K, with no second sum.
    shells = _recorded_shells(monkeypatch)
    for trial in range(12):
        k, _, t, _ = gen_decomposition_pair(trial_rng(dim, trial), dim, h)
        bk = boundary(k)
        assert dilate(bk, t) == dilate(bk, boundary(t))
        shells.clear()
        check_thm_4_2(k, t)
        assert shells == [False]


@pytest.mark.parametrize("lo,hi", [((0, 0), (1, 1 / 2)),
                                   ((0, 0, 0), (1 / 2, 1 / 4, 1))])
def test_a_translate_of_t_sums_as_its_boundary(monkeypatch, lo, hi):
    # K fits in T's box, so it is a translate of T.  bK + T and bK + bT
    # can differ only in the cells of T + k common to every cell k of bK:
    # the one cell T's last corner plus K's first, which is in bK + bT.
    shells = _recorded_shells(monkeypatch)
    t = rasterize(ShapeSpec.box(lo, hi), 1 / 16)
    k = rasterize(ShapeSpec.translated(ShapeSpec.box(lo, hi),
                                       [3 / 16] * len(lo)), 1 / 16)
    assert k.shape == t.shape and k.count == t.count
    bk = boundary(k)
    assert dilate(bk, t) == dilate_loop(bk, boundary(t))
    shells.clear()
    reports = check_thm_4_2(k, t)
    assert shells == [False]
    assert "containment_failed" not in reports[1].flags


# -- the flat run kernel and the parts of a voxel thm-4.2 trial --

def runs_per_axis(x: np.ndarray, ax: int, length: int, op) -> None:
    """The box runs before they moved to the flat array: op over
    x[..., i - length + 1 .. i, ...] along axis ax, in place, by
    log-doubling shifts of per-axis slices.  A run that starts before
    index 0 covers only the part of it inside the array."""
    done = 1
    while done < length:
        step = min(done, length - done)
        head = (slice(None),) * ax + (slice(step, None),)
        tail = (slice(None),) * ax + (slice(None, -step),)
        op(x[head], x[tail], out=x[head])
        done += step


# Each op with its identity: the value a cell read across a row must hold
# to change nothing.
RUN_OPS = {"or": (np.logical_or, False), "and": (np.logical_and, True)}


@st.composite
def run_cases(draw):
    """An array in dims 2-4, an axis, a run length from 1 to the axis
    length + 2 and an op."""
    dim = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 2 * SIDE[dim])) for _ in range(dim))
    ax = draw(st.integers(0, dim - 1))
    return (draw(arrays(bool, shape)), ax,
            draw(st.integers(1, shape[ax] + 2)),
            draw(st.sampled_from(sorted(RUN_OPS))))


def _both_runs(x: np.ndarray, ax: int, length: int, op):
    """The flat kernel's result and the per-axis one's, on copies of x."""
    got, expected = x.copy(), x.copy()
    voxel._runs(got, ax, length, op)
    runs_per_axis(expected, ax, length, op)
    return got, expected


@given(run_cases())
@example((np.ones((3, 4), bool), 1, 3, "or"))
@example((np.eye(4, dtype=bool), 0, 6, "and"))
@settings(max_examples=300, deadline=None)
def test_flat_runs_match_per_axis_runs(case):
    x, ax, length, name = case
    op, identity = RUN_OPS[name]
    # The entries at index length - 1 and later along ax, whose run stays
    # in its row: the ones _box_fit and _dilate_boundary keep.
    own = (slice(None),) * ax + (slice(length - 1, None),)
    got, expected = _both_runs(x, ax, length, op)
    assert np.array_equal(got[own], expected[own])
    # Every entry, when the last length - 1 entries of each row hold the
    # op's identity, as the empty tail of _box_sum's frame does for OR.
    tail = (slice(None),) * ax + (slice(max(x.shape[ax] - length + 1, 0),
                                         None),)
    x = x.copy()
    x[tail] = identity
    got, expected = _both_runs(x, ax, length, op)
    assert np.array_equal(got, expected)


def test_flat_runs_refuse_a_non_contiguous_array():
    # A strided view's flat view is a copy: runs on it would be lost.
    x = np.zeros((4, 6), bool)
    x[:, 0] = True
    with pytest.raises(ValueError, match="contiguous"):
        voxel._runs(x[:, ::2], 1, 2, np.logical_or)
    assert x[:, 0].all() and not x[:, 2].any()


@pytest.mark.parametrize("dim,h", [(2, 1 / 32), (3, 1 / 16), (4, 1 / 6)])
def test_box_runs_match_cell_loops_on_generated_bodies(dim, h):
    # The three callers of the run kernel: the box and shell sums, the box
    # fit of the open erosion and the edge of a sum with a connected
    # boundary.  The sums run with the other kernels unable to.
    for trial in range(3):
        k, _, t, _ = gen_decomposition_pair(trial_rng(dim, trial), dim, h)
        other = gen_connected_boundary_set(trial_rng(dim, 50 + trial),
                                           dim, h)[0]
        assert _box_kind(t) == "box"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(voxel, "_convolve", _no_fft_or_pairs)
            mp.setattr(voxel, "_pair_sums", _no_fft_or_pairs)
            for body in (k, boundary(k), other):
                for box in (t, boundary(t)):
                    got = dilate(body, box)
                    assert got == _renormalized(got) == dilate_loop(body, box)
        for body in (k, other):
            assert erode_open(body, t) == erode_open_loop(body, t)
        got = voxel._dilate_boundary(k, other)
        assert got == _renormalized(got) == dilate_loop(k, boundary(other))


def lemma_whole(k: GridSet, t: GridSet) -> GridSet:
    """(bK + T) u (K + t0), t0 T's first cell, by loops: K + T when T is a
    box."""
    t0 = t.cells()[0]
    moved = GridSet(k.dim, k.h, tuple(map(add, k.origin, t0)), k.occ)
    return union(dilate_loop(boundary(k), t), moved)


def _recorded_dilates(monkeypatch) -> list:
    """The operands of each dilate call from now on."""
    calls, original = [], voxel.dilate

    def recorded(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(voxel, "dilate", recorded)
    return calls


def _lemma_cases(k: GridSet, t: GridSet) -> None:
    """K + T by the lemma against the cell loop, and the engine's eq-4.2
    verdict, formed without dilate(K, T), against the oracle's.  The
    verdict is also asked with no erosion and with the erosion less one
    cell, where K + T holds cells outside bK + bT, so that a verdict which
    misses a part of K + T fails."""
    assert meets_precondition(k, t)
    assert lemma_whole(k, t) == dilate_loop(k, t)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_dilates(mp)
        bsum, erosion, contained = voxel.decompose_sum(k, t)
        holes = [erosion, _empty(k)]
        if erosion.count > 1:
            occ = erosion.occ.copy()
            occ[tuple(np.argwhere(occ)[-1])] = False
            holes.append(GridSet(k.dim, k.h, erosion.origin, occ))
        verdicts = [_restricted_sum_contained(k, hole, bsum)
                    for hole in holes]
    assert all(a is not k for a, _ in calls)
    assert verdicts[0] == contained
    assert verdicts == [is_subset(restricted_sum(k, t, hole)[0], bsum)
                        for hole in holes]


@pytest.mark.parametrize("dim,h,trials", [(2, 1 / 128, 4), (3, 1 / 32, 2),
                                          (4, 1 / 8, 3)])
def test_k_plus_t_lemma_on_generated_pairs(dim, h, trials):
    for trial in range(trials):
        k, _, t, _ = gen_decomposition_pair(trial_rng(dim, trial), dim, h)
        _lemma_cases(k, t)


# Boxes with a side of 1 or 2 cells, their own face boundaries.
THIN_SIDES = [(1, 5), (2, 2), (5, 1), (2, 1, 3), (1, 1, 1), (2, 3, 2, 1)]


@pytest.mark.parametrize("sides", THIN_SIDES, ids=str)
def test_k_plus_t_lemma_on_thin_boxes_and_translates(sides):
    # K a translate of T, a box two cells wider per axis than the largest
    # T, and a random blob when its boundary is connected.
    dim = len(sides)
    t = _grid((1, -2, 0, 3)[:dim], np.ones(sides))
    translate = _grid((-4,) * dim, np.ones(sides))
    rng = np.random.default_rng(list(sides))
    blob = _grid((2,) * dim, rng.random((6,) * dim) < 0.7)
    for k in (translate, _grid((0,) * dim, np.ones((7,) * dim)), blob):
        if k is not blob or is_boundary_connected(k):
            _lemma_cases(k, t)


@pytest.mark.parametrize("dim,h", [(2, 1 / 128), (3, 1 / 32)])
def test_a_trial_makes_one_box_sum_and_builds_no_boundary_of_t(
        monkeypatch, dim, h):
    shells = _recorded_shells(monkeypatch)
    calls = _recorded_dilates(monkeypatch)
    for trial in range(6):
        k, _, t, _ = gen_decomposition_pair(trial_rng(dim, trial), dim, h)
        shells.clear()
        calls.clear()
        check_thm_4_2(k, t)
        assert shells == [False]
        assert all(a is not k for a, _ in calls)
        assert t._boundary is None


@pytest.mark.parametrize("dim", ALLOWED_DIMS)
def test_boundary_count_reads_a_box_from_its_sides(dim):
    for sides in itertools.product(range(1, 6), repeat=dim):
        box = _grid((0,) * dim, np.ones(sides))
        assert voxel.boundary_count(box) == boundary(box).count
        fresh = _grid((0,) * dim, np.ones(sides))
        voxel.boundary_count(fresh)
        assert fresh._boundary is None
    body = _grid((0,) * dim, _near_misses(dim, 4)[0].occ)
    assert voxel.boundary_count(body) == boundary_loop(body).count


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
    dim = spec.ndim
    lo, hi = bbox(spec)
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
    lo, hi = bbox(spec)
    assume(np.prod(np.ceil(hi / h) - np.floor(lo / h) + 1) <= 200_000)
    assert rasterize(spec, h) == rasterize_points(spec, h)


@pytest.mark.parametrize("dim,h", [(2, 1 / 64), (3, 1 / 16), (4, 1 / 8)])
def test_generated_unions_match_point_matrix(dim, h):
    for trial in range(6):
        grid, spec = gen_connected_boundary_set(trial_rng(dim, trial), dim, h)
        assert grid == rasterize_points(spec, h)


@st.composite
def box_specs(draw):
    """A box in dims 2-4 and a cell size: corners on quarter cells (faces
    on cell centers and between them) or arbitrary floats, negative ones
    included, and widths from a quarter cell, thinner than a cell, up."""
    dim = draw(st.sampled_from(ALLOWED_DIMS))
    h = draw(st.sampled_from(RES[dim]))
    lo = [draw(coords(h)) for _ in range(dim)]
    width = [draw(st.one_of(st.integers(1, 12).map(lambda n: n * h / 4),
                            st.floats(1e-3, 1.0))) for _ in range(dim)]
    return ShapeSpec.box(lo, [a + w for a, w in zip(lo, width)]), h


def _meshed(spec: ShapeSpec, h: float) -> GridSet:
    """rasterize before boxes skipped the mesh: the window's occupancy on
    the open mesh, normalized by the public constructor."""
    origin, occ = _raster_window(spec, h)
    return GridSet(spec.ndim, h, origin, occ)


@given(box_specs())
@example((ShapeSpec.box((1 / 32, -3 / 32), (5 / 32, 1 / 32)), 1 / 16))
@example((ShapeSpec.box((3 / 64, 0), (5 / 64, 1)), 1 / 16))
@example((ShapeSpec.box((-0.3, -0.2, -1), (-0.25, 0.2, -0.5)), 1 / 8))
@example((ShapeSpec.box((-1, -1, -1, -1), (-0.5, 1, -0.75, 0)), 1 / 4))
@settings(max_examples=300, deadline=None)
def test_boxes_rasterize_as_the_mesh_does(case):
    # The first example's faces sit on cell centers; the second is thinner
    # than a cell and holds none.
    spec, h = case
    got = rasterize(spec, h)
    assert got == _renormalized(got) == _meshed(spec, h)
    assert got.count == int(got.occ.sum())


@pytest.mark.parametrize("spec", [
    ShapeSpec.box((0, 0), (math.inf, 1)),
    ShapeSpec.box((-math.inf, 0, 0), (0, 1, 1)),
    ShapeSpec.box((0, 0), (1e300, 1)),
    ShapeSpec.box((2.0 ** 50, 0), (2.0 ** 50 + 1, 1)),
    ShapeSpec.box((0, 0), (2.0 ** 35, 1)),
], ids=["infinite", "minus-infinite", "far", "beyond-2**52", "extent-cap"])
def test_box_path_raises_the_mesh_path_error(spec):
    with pytest.raises(GridError) as box:
        rasterize(spec, 1 / 32)
    with pytest.raises(GridError) as mesh:
        _raster_window(spec, 1 / 32)
    assert type(box.value) is type(mesh.value)
    assert str(box.value) == str(mesh.value)


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


def gen_connected_boundary_set_ref(seed_rng: random.Random, dim: int,
                                   h: float) -> tuple[GridSet, ShapeSpec]:
    """Keep a candidate part when the rasterized union spec has one face
    component; keep the body when its boundary is connected."""
    half_range = generators.CENTER_RANGE / 2
    for _ in range(generators.GRID_RETRIES):
        n_parts = seed_rng.randint(1, generators.MAX_PRIMITIVES)
        center = [seed_rng.uniform(-half_range, half_range)
                  for _ in range(dim)]
        spec = _random_primitive(seed_rng, dim, h, center)
        grid = rasterize(spec, h)
        ok = grid.count > 0 and face_components(grid) == 1
        parts = 1
        attempts = 0
        while ok and parts < n_parts and attempts < 8:
            attempts += 1
            lo, hi = bbox(spec)
            new_center = [seed_rng.uniform(lo[k] - 0.2, hi[k] + 0.2)
                          for k in range(dim)]
            candidate = ShapeSpec.union_of(
                spec, _random_primitive(seed_rng, dim, h, new_center))
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
        grid, spec = generate(rng, dim, h)
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
        lo, hi = bbox(near)
        center = [draw(st.floats(float(a) - 0.2, float(b) + 0.2))
                  for a, b in zip(lo, hi)]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return _random_primitive(rng, dim, h, center)


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
    a, b = _raster_window(first, h), _raster_window(second, h)
    touching = _in_contact(a, b)
    assert touching == _in_contact(b, a)
    assert touching == (face_components(union(rasterize(first, h),
                                              rasterize(second, h))) == 1)


@given(primitive_pairs())
@settings(max_examples=100, deadline=None)
def test_contact_then_or_is_the_connected_union(case):
    # The generator's step: a part in contact is ORed into the body.
    first, second, h = case
    a, b = _raster_window(first, h), _raster_window(second, h)
    joined = union(rasterize(first, h), rasterize(second, h))
    dim = first.ndim
    assert _or_windows(dim, h, [a]) == rasterize(first, h)
    assert ((_or_windows(dim, h, [a, b]) if _in_contact(a, b) else None)
            == (joined if face_components(joined) == 1 else None))


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
    first = _box_cells((0,) * len(lo), (1,) * len(lo))
    second = _box_cells(lo, hi)
    a, b = _raster_window(first, 1 / 4), _raster_window(second, 1 / 4)
    assert _in_contact(a, b) is touching
    assert (face_components(union(rasterize(first, 1 / 4),
                                  rasterize(second, 1 / 4))) == 1) is touching


@pytest.mark.parametrize("offset,touching", [
    ((2, 0), True), ((0, -1), True), ((2, 2), False), ((-1, 2), False),
    ((3, 0), False), ((2, 0, 1), True), ((2, 2, 0), False),
    ((0, 0, 0, -1), True), ((2, 2, 2, 2), False),
])
def test_contact_across_abutting_windows(offset, touching):
    # Windows without an empty rim: a face contact joins cells on the
    # edges of two windows that do not overlap.
    dim = len(offset)
    a = ((0,) * dim, np.ones((2,) * dim, dtype=bool))
    b = (offset, np.ones((1,) * dim, dtype=bool))
    assert _in_contact(a, b) is touching
    assert _in_contact(b, a) is touching
    joined = union(GridSet(dim, H, *a), GridSet(dim, H, *b))
    assert (face_components(joined) == 1) is touching
