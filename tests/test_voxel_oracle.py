"""The convolution-based voxel operations against the cell loops they replaced.

`dilate_loop`, `erode_open_loop` and `admitted_pair_count_loop` are the
brute-force per-cell implementations, kept here as the reference.  Every
property asserts cell-exact agreement: the same origin, the same occupancy
and the same pair count.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bmink.restricted import restricted_sum
from bmink.voxel import (GridSet, _interior_array, difference, dilate,
                         erode_open)

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


@given(grid_tuples(2))
@example((SINGLE, _grid((-1, 4), [[1]])))
@example((EMPTY, SOLID_5X5))
@example((SINGLE, SOLID_5X5))
@example((SOLID_5X5, SOLID_2X2))
@settings(max_examples=150, deadline=None)
def test_dilate_matches_cell_loop(pair):
    a, b = pair
    assert dilate(a, b) == dilate_loop(a, b)


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
