"""Voxel engine: occupancy grids in dimensions 2-4 with exact cell-set ops.

A GridSet is a dense boolean occupancy array over a bounded window of the
integer lattice, scaled by a cell size h.  Dilation (discrete Minkowski
sum) and open erosion by a box separate into runs of shifted ORs or ANDs
along each axis, which one kernel, _runs, forms on the flat array; the
voxel thm-4.2 trials take them, T being a box by decompose_sum's
precondition, and form K + T from bK + T and one translate of K.
Dilation by a box's face boundary is a union of such runs, which the
boundary sums of one-box bodies take.  Other open erosions threshold the
convolution of two occupancy arrays as exact integer cell counts over the
fit window, the part of the sum frame that can hold an erosion cell.
Other dilations scatter every pair of occupied cells when the operands
are sparse, as 2D boundary sums are, and threshold the same convolution
when they are dense.  The checkers take their boundary sums from
boundary_sum and the parts of K + T from decompose_sum.  Interior and
boundary come from face-neighbor shifts, and is_boundary_connected counts
the components of a graph of runs along the last axis, so set identities
are exact, only the conversion from cell counts to volumes involves
floating point, and the engine needs numpy alone.

This engine doubles as the brute-force oracle for the exact polygon engine
and is the only engine for non-convex sets.  It is the only module of the
package that imports numpy.  The exact and scalar checks never load it:
the other modules look it up at call time, in their voxel branches, and a
voxel campaign loads it when its config is validated.  ShapeSpec and
GridError live in serialize.py and are re-exported here; rasterize
evaluates a spec through bbox and _on_mesh, and a box straight as a box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .serialize import ALLOWED_DIMS, GridError, ShapeSpec

MAX_EXTENT = 4096
MAX_CELLS = 2 ** 24  # 4096^2: every 2D grid within MAX_EXTENT stays legal
_MAX_INDEX = 2 ** 52  # beyond it, i + 0.5 is not exact in float64


class GridExtentError(GridError):
    """An operation would exceed the per-axis extent or total cell cap."""


def _check_extent(shape: Sequence[int]) -> None:
    if any(n > MAX_EXTENT for n in shape):
        raise GridExtentError(f"extent {tuple(shape)} exceeds cap {MAX_EXTENT}")
    if math.prod(shape) > MAX_CELLS:
        raise GridExtentError(
            f"extent {tuple(shape)} exceeds the {MAX_CELLS}-cell budget")


class GridSet:
    """Occupancy set on a uniform lattice with cell side length h.

    Cell with array index ``i`` sits at absolute lattice position
    ``origin + i``; its center in world coordinates is
    ``(origin + i + 0.5) * h`` per axis.  Instances are normalized so the
    occupied cells fit strictly inside the array with a one-cell empty
    margin (boundary extraction never clips), which also makes set equality
    a plain array comparison.  The empty set is the one instance whose
    array is a single cell.

    Immutable after construction.  Three private slots cache what the
    occupancy determines: the cell count, the boundary GridSet and the
    is_boundary_connected verdict.

    The public constructor normalizes any array: it finds the occupied box
    by one projection per axis and copies it into a frame with the margin.
    GridSet._tight skips both for an array that already is normalized: a
    nonempty bool array of rank dim whose margin is empty and whose inner
    box ``occ[1:-1, ..., 1:-1]`` has an occupied cell on each of its faces.
    Only kernels that prove that invariant for their output call it.
    """

    __slots__ = ("dim", "h", "origin", "occ", "_count", "_boundary",
                 "_boundary_connected")

    def __init__(self, dim: int, h: float, origin: Sequence[int],
                 occupancy: np.ndarray):
        if dim not in ALLOWED_DIMS:
            raise GridError(f"dim must be one of {ALLOWED_DIMS}, got {dim}")
        if not h > 0:
            raise GridError("resolution h must be positive")
        occ = np.asarray(occupancy, dtype=bool)
        if occ.ndim != dim:
            raise GridError("occupancy rank does not match dim")
        self.dim = dim
        self.h = float(h)
        self._count: Optional[int] = None
        self._boundary: Optional[GridSet] = None
        self._boundary_connected: Optional[bool] = None
        if not occ.any():
            self.origin = (0,) * dim
            self.occ = np.zeros((1,) * dim, dtype=bool)
            self.occ.setflags(write=False)
            self._count = 0
            return
        lo = []
        hi = []
        for ax in range(dim):
            other = tuple(a for a in range(dim) if a != ax)
            proj = occ.any(axis=other)
            nz = np.flatnonzero(proj)
            lo.append(int(nz[0]))
            hi.append(int(nz[-1]) + 1)
        core = occ[tuple(slice(a, b) for a, b in zip(lo, hi))]
        _check_extent([n + 2 for n in core.shape])
        self.occ = np.zeros([n + 2 for n in core.shape], dtype=bool)
        self.occ[(slice(1, -1),) * dim] = core
        self.occ.setflags(write=False)
        self.origin = tuple(int(o) + a - 1 for o, a in zip(origin, lo))

    @classmethod
    def _tight(cls, dim: int, h: float, origin: tuple[int, ...],
               occ: np.ndarray) -> "GridSet":
        """A GridSet over occ as it is; occ must already be normalized (see
        the class docstring).  dim and h come from a valid GridSet."""
        grid = object.__new__(cls)
        grid.dim, grid.h, grid.origin, grid.occ = dim, h, origin, occ
        occ.setflags(write=False)
        grid._count = grid._boundary = grid._boundary_connected = None
        return grid

    @property
    def count(self) -> int:
        if self._count is None:
            self._count = int(np.count_nonzero(self.occ))
        return self._count

    @property
    def is_empty(self) -> bool:
        return self.occ.size == 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.occ.shape

    def cells(self) -> np.ndarray:
        """Absolute lattice indices of occupied cells, shape (count, dim)."""
        return np.argwhere(self.occ) + np.asarray(self.origin)

    def same_grid(self, other: "GridSet") -> bool:
        return self.dim == other.dim and self.h == other.h

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GridSet) and self.same_grid(other)
                and self.origin == other.origin
                and np.array_equal(self.occ, other.occ))

    def __repr__(self) -> str:
        return (f"GridSet(dim={self.dim}, h={self.h}, origin={self.origin}, "
                f"cells={self.count})")


def volume(a: GridSet) -> float:
    """Occupied-cell count times h^dim (count exact, scaling binary64)."""
    return a.count * a.h ** a.dim


def _require_same_grid(a: GridSet, b: GridSet) -> None:
    if not a.same_grid(b):
        raise GridError("operands must share dimension and resolution")


def _embed(src_origin: Sequence[int], src: np.ndarray,
           origin: Sequence[int], shape: Sequence[int]) -> np.ndarray:
    """The array src, whose cell 0 sits at src_origin, in the window with
    the given origin and shape, clipped to that window."""
    out = np.zeros(shape, dtype=bool)
    from_, to = [], []
    for o, n, wo, wn in zip(src_origin, src.shape, origin, shape):
        lo, hi = max(o, wo), min(o + n, wo + wn)
        if lo >= hi:
            return out
        from_.append(slice(lo - o, hi - o))
        to.append(slice(lo - wo, hi - wo))
    out[tuple(to)] = src[tuple(from_)]
    return out


def _common_frame(a: GridSet, b: GridSet):
    """The smallest frame that holds the arrays of both operands, and each
    operand's array in it.  The empty set's one-cell array sits at the
    lattice origin, so an empty operand adds nothing to the frame."""
    frames = [g for g in (a, b) if not g.is_empty] or [a]
    lo = np.min([g.origin for g in frames], axis=0)
    hi = np.max([np.add(g.origin, g.shape) for g in frames], axis=0)
    shape = tuple(int(n) for n in hi - lo)
    _check_extent(shape)
    return (lo, _embed(a.origin, a.occ, lo, shape),
            _embed(b.origin, b.occ, lo, shape))


def _smooth_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _frames(a: np.ndarray, b: np.ndarray
            ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The full sum frame of two arrays, shape a.shape + b.shape - 1, and
    its 5-smooth FFT padding."""
    shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    return shape, tuple(_smooth_length(n) for n in shape)


def _convolve(a: np.ndarray, b: np.ndarray,
              window: Optional[Sequence[tuple[int, int]]] = None
              ) -> np.ndarray:
    """Linear convolution of two boolean arrays as exact cell counts, over a
    window of the full sum frame.

    Entry j of the full sum frame (shape a.shape + b.shape - 1) counts the
    pairs of occupied cells (p, q) of a and b with p + q = j.  window gives
    per axis the first index and the end index (exclusive) of the entries
    returned, first < end <= full length; by default the whole frame.

    Each axis is transformed at L, the smallest 5-smooth length at least
    max(end, full length - first), and cropped to the window right after
    its inverse transform.  No aliasing: a length-L transform computes the
    circular convolution, which adds full entry j into entry j - L when
    j >= L.  Every j <= full length - 1 < L + first, so a wrapped entry
    lands below first, outside the window; and every window index is below
    end <= L, so none is wrapped.  For the whole frame L is the frame's
    5-smooth padding: the plain linear convolution.

    The counts are integers held exactly in float64.  They are rounded to
    the nearest integer.  The rounding is safe because the FFT's absolute
    error is at most about eps * log2(N) * sqrt(|a| * |b|) for N padded
    cells and |a|, |b| occupied cells, which stays below 1e-7 under
    MAX_CELLS.  Any entry of the window farther than 0.25 from an integer
    raises GridError instead of being rounded.
    """
    shape = tuple(m + n - 1 for m, n in zip(a.shape, b.shape))
    if window is None:
        window = tuple((0, n) for n in shape)
    fshape = tuple(_smooth_length(max(end, n - first))
                   for n, (first, end) in zip(shape, window))
    _check_extent(fshape)
    axes = tuple(range(a.ndim))
    spectrum = np.fft.rfftn(a, fshape, axes=axes)
    spectrum *= np.fft.rfftn(b, fshape, axes=axes)
    # The inverse runs axis by axis, rebinding `spectrum`, so at most two
    # spectra are alive at once; np.fft.irfftn would also keep the product.
    for ax in axes[:-1]:
        spectrum = np.fft.ifft(spectrum, axis=ax)[
            (slice(None),) * ax + (slice(*window[ax]),)]
    counts = np.fft.irfft(spectrum, fshape[-1], axis=-1)[
        ..., slice(*window[-1])]
    del spectrum  # freed before the rounding temporaries are allocated
    rounded = np.rint(counts)
    counts -= rounded
    np.abs(counts, out=counts)
    if counts.max() >= 0.25:
        raise GridError("FFT convolution lost integer exactness")
    return rounded


def _pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Occupancy of the full sum frame of two boolean arrays: entry i is set
    when some occupied cells p of a and q of b have p + q = i.

    Each occupied cell maps to its linear index in the sum frame (shape
    a.shape + b.shape - 1).  Since p + q stays inside the frame on every
    axis, the index of p + q is the index of p plus the index of q, so
    np.add.outer of the two index lists names every sum cell.  The work is
    integer-exact, with no rounding, and costs O(|a| * |b|).  The pairs go
    in blocks of at most P indices, P the padded cell count _convolve would
    transform, so the scratch stays below the FFT's own spectra.
    """
    shape, fshape = _frames(a, b)
    _check_extent(shape)
    out = np.zeros(math.prod(shape), dtype=bool)
    ia = np.ravel_multi_index(np.nonzero(a), shape)
    ib = np.ravel_multi_index(np.nonzero(b), shape)
    rows = math.prod(fshape) // max(len(ib), 1)
    for start in range(0, len(ia), rows):
        out[np.add.outer(ia[start:start + rows], ib).ravel()] = True
    return out.reshape(shape)


def union(a: GridSet, b: GridSet) -> GridSet:
    _require_same_grid(a, b)
    lo, av, bv = _common_frame(a, b)
    return GridSet(a.dim, a.h, lo, av | bv)


# A window is a raw occupancy array with the lattice position of its cell 0:
# a rasterized shape before it is normalized into a GridSet.
_Window = tuple[tuple[int, ...], np.ndarray]


def _in_contact(a: _Window, b: _Window) -> bool:
    """True when two windows share an occupied cell or have two occupied
    cells that share a face.

    Such a pair of cells lies in the box where the windows, each grown by
    one cell, overlap, so only that box of each is compared: both arrays
    are clipped to it, and a face contact is an overlap after a one-cell
    shift along some axis.
    """
    (oa, av), (ob, bv) = a, b
    lo = [max(p, q) - 1 for p, q in zip(oa, ob)]
    hi = [min(p + m, q + n) + 1
          for p, m, q, n in zip(oa, av.shape, ob, bv.shape)]
    if any(l >= u for l, u in zip(lo, hi)):
        return False
    shape = [u - l for l, u in zip(lo, hi)]
    av, bv = _embed(oa, av, lo, shape), _embed(ob, bv, lo, shape)
    if (av & bv).any():
        return True
    for ax in range(av.ndim):
        head = tuple(slice(None, -1) if k == ax else slice(None)
                     for k in range(av.ndim))
        tail = tuple(slice(1, None) if k == ax else slice(None)
                     for k in range(av.ndim))
        if (av[head] & bv[tail]).any() or (av[tail] & bv[head]).any():
            return True
    return False


def _box_kind(g: GridSet) -> Optional[str]:
    """"box" when g's cells fill its inner box, "shell" when they are that
    box's face boundary and every side of the box is at least 3, else None.

    A shell's cells lie on the faces of the inner box, so it has exactly
    _shell_count(sides) of them and none in occ[2:-2, ...]; with that
    count and no such cell, every face cell is occupied.  A box with a
    side below 3 is its own face boundary, and reads "box".  The count is
    cached, so a body that is neither costs O(1) unless the counts match.
    """
    if g.is_empty:
        return None
    sides = [n - 2 for n in g.shape]
    if g.count == math.prod(sides):
        return "box"
    if (min(sides) >= 3 and g.count == _shell_count(sides)
            and not g.occ[(slice(2, -2),) * g.dim].any()):
        return "shell"
    return None


def _shell_count(sides: Sequence[int]) -> int:
    """The cells of the face boundary of a box with the given sides: all
    of them, minus the box of sides s - 2 inside (none when a side is
    below 3, and then the box is its own boundary)."""
    return math.prod(sides) - math.prod(max(s - 2, 0) for s in sides)


def _runs(x: np.ndarray, ax: int, length: int, op: np.ufunc) -> None:
    """Run op over `length` cells along axis ax of a C-contiguous array, in
    place, on its flat view: flat entry j becomes op over the entries
    j - k * stride, 0 <= k < length, that are >= 0, for stride =
    prod(x.shape[ax + 1:]), the flat distance of one step along ax.

    The run goes by log-doubling shifts, the logarithmic decomposition of a
    line segment into two-point structuring elements (van den Boomgaard &
    van Balen, CVGIP: Graphical Models and Image Processing 54(3), 1992):
    after a shift by `step` axis steps an entry covers `step` more of its
    run, so a run of L cells takes ceil(log2 L) shifts.  Each shift reads
    one buffer and writes the other, so no operand overlaps its output, and
    the result ends in x.  An entry at index i >= length - 1 along ax
    covers the cells i - length + 1 to i of its own row, as a run along the
    axis would.  An entry at a smaller index covers the row's cells 0 to i
    and then reads across the row: into the last length - 1 - i entries of
    the row before it in the flat order (the row with the same indices on
    the later axes and the flat-previous ones on the earlier axes), or
    nothing in the first row.  Each caller proves that no entry it keeps is
    changed by that.  A non-contiguous array is refused: its flat view
    would be a copy, and the result would be lost.
    """
    if not x.flags.c_contiguous:
        raise ValueError("_runs needs a C-contiguous array")
    stride = math.prod(x.shape[ax + 1:])
    flat = src = x.reshape(-1)
    dst = np.empty_like(flat)
    done = 1
    while done < length:
        step = min(done, length - done)
        shift = step * stride
        op(src[shift:], src[:-shift], out=dst[shift:])
        dst[:shift] = src[:shift]
        src, dst = dst, src
        done += step
    if src is not flat:
        flat[:] = src


def _box_sum(a: np.ndarray, box: Sequence[int], shell: bool) -> np.ndarray:
    """The full sum frame of a and a box operand, without its one-cell
    margin: the array dilate returns for them.

    box is the shape of the box operand's normalized array, so the box
    has sides box - 2 and its cells sit at indices 1 to box - 2.  A cell
    p of a plus the box cell at index 1 + q lands at index p + q of the
    returned frame, shape a.shape + box - 3.  The sum with a box separates
    by axis: a run of `side` cells along each axis in turn.  A shell is
    the union over axes of the box's two faces across that axis, one cell
    thick there and full length along the others, and dilation
    distributes over the union.  The work is boolean ORs of shifted
    arrays, with no rounding; the sum frame passes _check_extent first.

    Every entry is kept, and none is changed by a run of _runs reading
    across a row.  Along an axis with a run of `side` cells, the array
    holds a in its first a.shape[ax] entries and nothing in the side - 1
    after them (the frame's empty tail), and runs along the other axes
    move no cell along this one.  An entry reads across a row only into
    the last side - 1 entries of the row before, which are empty, and an
    OR with empty cells changes nothing.
    """
    frame = [m + n - 1 for m, n in zip(a.shape, box)]
    _check_extent(frame)
    sides = [n - 2 for n in box]
    out = np.zeros([n - 2 for n in frame], bool)
    if not shell:
        out[tuple(slice(0, m) for m in a.shape)] = a
        for ax, side in enumerate(sides):
            _runs(out, ax, side, np.logical_or)
        return out
    for ax, side in enumerate(sides):
        faces = np.zeros(out.shape[:ax] + a.shape[ax:ax + 1]
                         + out.shape[ax + 1:], bool)
        faces[tuple(slice(0, m) for m in a.shape)] = a
        for k, run in enumerate(sides):
            if k != ax:
                _runs(faces, k, run, np.logical_or)
        for first in (0, side - 1):
            out[(slice(None),) * ax
                + (slice(first, first + a.shape[ax]),)] |= faces
    return out


_PAIR_COST = 8  # pairs per padded FFT cell at dilate's break-even


def dilate(a: GridSet, b: GridSet) -> GridSet:
    """Discrete Minkowski sum: every pairwise sum of occupied cells.

    Three exact kernels give the same cells.  When either operand is a box
    or a box's face boundary (see _box_kind), _box_sum ORs shifted copies
    of the other operand, a run per axis on the flat array (_runs).
    Otherwise _pair_sums sets the sum of every pair of occupied cells, at
    a cost of |A| * |B| pairs, and _convolve transforms P padded cells, a
    cell being in the sum exactly when the convolution count there is
    positive.  dilate scatters the
    pairs when |A| * |B| <= _PAIR_COST * P, and convolves otherwise.

    In the campaigns, the voxel thm-4.2 sum bK + T takes the plain box
    runs, one call per trial (decompose_sum requires a box T, see its
    precondition, and forms K + T from bK + T with no second sum), and a
    boundary sum with a one-box body takes the shell runs.  The 2D boundary
    sums of two general bodies take the pairs, and so does most of the
    multi-body band, which _dilate_boundary hands over as its edge cells
    only; the CLI's sums of general full bodies take the FFT.  Over chunks
    0-4 of voxel-sparse at seed 0 (one worker), the shell runs took 213 of
    the 700 kernel calls, the pairs 480, the FFT 6 and the plain box runs
    1.

    _PAIR_COST is the measured break-even.  On the benchmark's 2D boundary
    sums (h = 1/128, numpy FFT, a 2-CPU x86-64 machine) a pair cost about
    5.4 ns and a padded FFT cell about 45 ns: a break-even of 8.3, and 7 to
    11 from the 10th to the 90th percentile of calls.  Over three chunks
    of each voxel workload, those 2D sums had |A| * |B| / P from 0.3 to 4.2
    and take the pair path.  The whole multi-body band (63 to 143) would
    take the FFT; its edge (1.4 to 13 over 120 trials of the 2D cor-multi
    campaign) takes the pairs in 70 of 83 sums.  Either way the result is
    cell-exact and exactly commutative.

    For two nonempty operands the output needs no normalizing.  Per axis,
    the smallest cell of A + B is min A + min B, and that sum is attained,
    by a pair of extreme cells; the same holds for the largest.  Both
    operands are normalized, so their extreme cells sit at index 1 and
    index n - 2 of arrays of length n.  Their sums therefore sit at index
    2 and at the third-to-last index of the full sum frame, shape
    a.shape + b.shape - 1, and the frame's [1:-1] slice, origin
    a.origin + b.origin + 1, holds them with an empty one-cell margin.
    """
    _require_same_grid(a, b)
    origin = tuple(oa + ob + 1 for oa, ob in zip(a.origin, b.origin))
    if a.is_empty or b.is_empty:
        return a if a.is_empty else b
    for body, box in ((a, b), (b, a)):
        kind = _box_kind(box)
        if kind is not None:
            return GridSet._tight(a.dim, a.h, origin, _box_sum(
                body.occ, box.shape, kind == "shell"))
    _, fshape = _frames(a.occ, b.occ)
    if a.count * b.count <= _PAIR_COST * math.prod(fshape):
        occ = _pair_sums(a.occ, b.occ)
    else:
        occ = _convolve(a.occ, b.occ) > 0
    return GridSet._tight(a.dim, a.h, origin, occ[(slice(1, -1),) * a.dim])


def _dilate_boundary(x: GridSet, body: GridSet) -> GridSet:
    """dilate(x, boundary(body)) for a body whose boundary B is connected
    under full adjacency, as (E + B) u (x + b0): E the cells of x with an
    empty cell among their 3^dim - 1 neighbors, b0 any cell of B (the
    lemma of boundary_sum).  E, x minus an AND of runs of 3 cells per
    axis, keeps x's extreme cells, so E + B lands in dilate's frame for x
    and B, where dilate's cost rule picks its kernel, and x + b0 inside
    it.  Empty, box and shell operands take dilate itself.  E keeps the
    runs at index 2 and later along every axis (inner[2:, ...]), past the
    first two entries, the only ones whose run of 3 reaches across a row;
    x's first index per axis is its empty margin, and is kept as it is.
    """
    if not is_boundary_connected(body):
        raise GridError("voxel checks require connected boundaries")
    bb = boundary(body)
    if x.is_empty or _box_kind(x) or _box_kind(bb):
        return dilate(x, bb)
    inner = x.occ.copy()
    for ax in range(x.dim):
        _runs(inner, ax, 3, np.logical_and)
    edge = x.occ.copy()
    edge[(slice(1, -1),) * x.dim] &= ~inner[(slice(2, None),) * x.dim]
    out = dilate(GridSet._tight(x.dim, x.h, x.origin, edge), bb)
    b0 = bb.cells()[0] + x.origin
    occ = out.occ | _embed(b0, x.occ, out.origin, out.shape)
    return GridSet._tight(x.dim, x.h, out.origin, occ)


def boundary_sum(bodies: Sequence[GridSet]) -> GridSet:
    """The sum bK_1 + ... + bK_m of m >= 2 bodies' face boundaries.

    Lemma: for B connected under full (3^n - 1) adjacency, any X and b0 in
    B, X + B = (E + B) u (X + b0), E the cells of X with an empty cell
    among their 3^n - 1 neighbors.  Proof: c - B, for c in X + B, is
    connected and meets X, so it lies in X (then c - b0 is in X) or steps
    out of X from a cell of E.

    dilate sums the two boundaries with the most cells, and
    _dilate_boundary adds each other one to that band by its edge E, the
    smallest last; addition commutes, so the cells are the same.  Every
    body but those two must therefore have a connected boundary, and two
    bodies need none.  Per axis, A + B spans e_A + e_B - 1 occupied cells,
    so with more than two bodies the sum's extent (with its margin) is
    checked first: a sum beyond the caps fails before the first dilation,
    not after m - 2 of them.
    """
    m = len(bodies)
    if m < 2:
        raise GridError("a boundary sum needs at least two bodies")
    if m > 2:
        _check_extent([sum(b.shape[ax] - 2 for b in bodies) - (m - 1) + 2
                       for ax in range(bodies[0].dim)])
    first, second, *rest = sorted(bodies, key=lambda b: boundary(b).count,
                                  reverse=True)
    acc = dilate(boundary(first), boundary(second))
    for b in rest:
        acc = _dilate_boundary(acc, b)
    return acc


def decompose_sum(k: GridSet, t: GridSet
                  ) -> tuple[GridSet, GridSet, bool]:
    """bK + bT, the open erosion K (-) T and whether K + T minus the
    erosion lies in bK + bT (eq-4.2's containment verdict), for K and T on
    one grid.

    Precondition, else GridError: T is a box (see _box_kind), |K| >= |T|
    and bK is connected under full adjacency.  Each test reads a cached
    count or verdict.  Only for a box T is the decomposition
    K + T = (bK + bT) u (K (-) T) cell-exact on a grid.  A one-cell-thick
    boundary can be crossed diagonally by a full-adjacency path wherever
    it steps diagonally itself (digital topology: 8-paths cross 4-thin
    curves; Klette & Rosenfeld, Digital Geometry, 2004), which breaks the
    identity when T's rim has such steps (balls, reflex corners).  An
    axis-aligned box rim has none.  Measured with a T that is not a box,
    two gen_connected_boundary_set bodies drawn from trial_rng(3, i) with
    the larger as K: the containment fails on 90 of 154 such 2D pairs
    (i < 212, h = 1/32) and on 1 of 52 3D pairs (i < 69, h = 1/16), and
    the brute-force oracle agrees on each of the 50 it was run on.  Those
    verdicts would be artifacts of the grid, not findings.

    bK + bT is formed as bK + T, one pass of box runs, and
    _restricted_sum_contained forms K + T from it and one translate of K,
    with no second sum.  By the lemma of boundary_sum (X = T, E = bT,
    B = bK), bK + T minus bK + bT lies in T + k for every k in bK.  If K's
    array is longer than T's on some axis, two such T + k are disjoint; if
    not, |K| >= |T| makes K a translate of T, and the T + k of K's extreme
    corners share one cell, T's last corner plus K's first, in bT + bK.
    """
    if _box_kind(t) != "box":
        raise GridError("voxel thm-4.2 requires T to be a box")
    if k.count < t.count:
        raise GridError("requires volume(K) >= volume(T); swap the pair")
    if not is_boundary_connected(k):
        raise GridError("voxel checks require connected boundaries")
    bsum = dilate(boundary(k), t)
    erosion = erode_open(k, t)
    return bsum, erosion, _restricted_sum_contained(k, erosion, bsum)


def boundary(a: GridSet) -> GridSet:
    """Occupied cells with some unoccupied face neighbor (a minus interior).

    Interior cells are inner cells whose 2*dim face neighbors are all
    occupied.  An extreme cell of a on some axis has an empty neighbor in
    the margin, so the boundary keeps a's box and array frame, and needs
    no normalizing.  It is built once per GridSet and cached.
    """
    if a.is_empty:
        return a
    if a._boundary is None:
        occ, inner = a.occ, (slice(1, -1),) * a.dim
        edge = occ.copy()
        core = occ[inner].copy()
        for ax in range(a.dim):
            for lo, hi in ((None, -2), (2, None)):
                core &= occ[inner[:ax] + (slice(lo, hi),) + inner[ax + 1:]]
        edge[inner] &= ~core
        a._boundary = GridSet._tight(a.dim, a.h, a.origin, edge)
    return a._boundary


def boundary_count(a: GridSet) -> int:
    """|boundary(a)|; for a box (see _box_kind) read from its sides, with
    no boundary built."""
    if _box_kind(a) == "box":
        return _shell_count([n - 2 for n in a.shape])
    return boundary(a).count


def erode_open(a: GridSet, b: GridSet) -> GridSet:
    """Cells x with x - b in interior(a) for every occupied cell b.

    This is the discrete Minkowski difference with an open fit: translates
    of -B must land strictly inside A.  The empty result is allowed.  When
    b is a box, as the voxel thm-4.2 trials' T is, _box_fit ANDs runs of
    interior(a) along each axis.  Otherwise, as for the CLI's general
    bodies, the convolution of interior(a) with b counts, at each x, the
    cells b with x - b in interior(a); x is in the erosion exactly when
    that count is |b|.

    Only the fit window of the full sum frame is computed: indices n - 1
    to m - 1 per axis, for arrays of length m (a) and n (b), which _convolve
    transforms at the 5-smooth length of m.  The window holds every erosion
    cell.  a is normalized, so its occupied cells lie in [1, m - 2], and an
    interior cell, whose face neighbors are occupied, in [2, m - 3].  b's
    extreme cells sit at indices 1 and n - 2.  An erosion cell j has
    j - (n - 2) and j - 1 both in [2, m - 3], so j lies in [n, m - 2],
    inside the window with a one-cell margin.  When some axis has m < n the
    window is empty, and so is the erosion: no kernel is needed.
    """
    _require_same_grid(a, b)
    if b.is_empty:
        raise GridError("erosion by the empty set is unbounded")
    if any(m < n for m, n in zip(a.shape, b.shape)):
        return GridSet(a.dim, a.h, a.origin, np.zeros((1,) * a.dim, bool))
    origin = tuple(oa + ob + n - 1
                   for oa, ob, n in zip(a.origin, b.origin, b.shape))
    inter = a.occ & ~boundary(a).occ
    if _box_kind(b) == "box":
        return GridSet(a.dim, a.h, origin, _box_fit(inter, b.shape))
    counts = _convolve(inter, b.occ,
                       [(n - 1, m) for m, n in zip(a.shape, b.shape)])
    return GridSet(a.dim, a.h, origin, counts == b.count)


def _box_fit(inter: np.ndarray, box: Sequence[int]) -> np.ndarray:
    """erode_open's fit window for a box operand, from interior(a) in a's
    array (modified in place).

    box is the shape of the box's normalized array, sides box - 2.  Fit
    window entry j, full sum frame index j + n - 1 for n = box per axis,
    is in the erosion when interior(a) holds the cells j + 1 to j + n - 2:
    x minus each box cell, at indices 1 to n - 2.  That is an AND over a
    run of n - 2 cells per axis, which _runs leaves at the run's last
    index j + n - 2: the window is [n - 2, m - 1) of the runs.  The work
    is boolean ANDs within a's array, which is already within the extent
    caps.

    The window is cropped once, after the runs along every axis, and no
    entry it keeps reads across a row.  Along each axis a kept entry sits
    at index n - 2 or later, past the n - 3 first entries, the only ones
    whose run reaches across a row.  A run along one axis combines only
    entries with the same indices on the other axes, so a kept entry
    depends only on entries at kept indices along every axis run before.
    """
    for ax, n in enumerate(box):
        _runs(inter, ax, n - 2, np.logical_and)
    return inter[tuple(slice(n - 2, m - 1)
                       for m, n in zip(inter.shape, box))]


def is_boundary_connected(a: GridSet) -> bool:
    """True when boundary(a) forms one component under full adjacency.

    Full (3^dim - 1)-neighborhood adjacency keeps diagonal contacts
    connected; the empty set has no boundary and reports False.  A box's
    boundary is connected (a box with a side below 3 is its own boundary,
    and a larger one's is its face shell), so a box (see _box_kind) skips
    the labelling; any other body's boundary is labelled by
    _full_components.  The verdict is cached on the GridSet, and so is the
    boundary it labels, so a body's boundary is built and labelled once
    however many checks ask: the generator's filter and then each
    checker's precondition and sums.
    """
    if a._boundary_connected is None:
        a._boundary_connected = (_box_kind(a) == "box"
                                 or _full_components(boundary(a).occ) == 1)
    return a._boundary_connected


def _full_components(occ: np.ndarray) -> int:
    """The number of components of occ's cells under full (3^dim - 1)
    adjacency, for an array with an empty one-cell margin.

    The nodes are the runs of occupied cells along the last axis (a
    scan-line run graph: He, Chao & Suzuki, IEEE Trans. Image Process.
    17(5), 2008).  The margin keeps every row's first and last cell empty,
    so in the flat array the changes of value alternate run starts and
    run ends, and no run wraps a row.  Two runs of one row are never
    adjacent.  A neighbor row lies a fixed flat offset away, and the
    margin makes every side at least 3, so the rows that come later in
    the flat array are those at the (3^(dim-1) - 1) / 2 positive offsets;
    adjacency is symmetric, so only they are searched.  A run [s, e)
    touches a run of the row at offset `off` when that run meets the
    cells s + off - 1 to e + off: it ends at or after s + off and starts
    at or before e + off.  Runs are sorted by start and by end alike, so
    two searchsorted calls give each run's adjacent runs in that row as
    one index range.

    Components come from hooking: each round hooks the larger of the two
    roots of every edge that joins two trees onto the smaller, then
    squares the parent pointers until each points at a root.  A parent
    never exceeds its node, so no cycle forms, and every round with an
    edge left hooks at least one root.
    """
    flat = occ.ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = change[0::2], change[1::2]
    offsets = [0]
    for k in range(occ.ndim - 1):
        stride = math.prod(occ.shape[k + 1:])
        offsets = [o + c * stride for o in offsets for c in (-1, 0, 1)]
    offsets = np.array([[o] for o in offsets if o > 0])
    lo = np.searchsorted(ends, starts + offsets).ravel()
    count = np.searchsorted(starts, ends + offsets, "right").ravel() - lo
    # run u meets runs lo to lo + count - 1 of the row at each offset
    u = np.repeat(np.arange(len(lo)) % len(starts), count)
    v = np.arange(len(u)) + np.repeat(lo - np.cumsum(count) + count, count)
    parent = np.arange(len(starts))
    while u.size:
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        grand = parent[parent]
        while (grand != parent).any():
            parent, grand = grand, grand[grand]
        u, v = parent[u], parent[v]
        apart = u != v
        u, v = u[apart], v[apart]
    return int(np.count_nonzero(parent == np.arange(len(starts))))


def _restricted_sum_contained(k: GridSet, erosion: GridSet,
                              bsum: GridSet) -> bool:
    """Whether (K + T) minus the erosion lies inside bsum = bK + bT, for a
    pair of decompose_sum's: by the definition, no cell of K + T lies
    outside both.

    There bsum is also bK + T, and K + T is bsum u (K + t0), t0 T's first
    cell; only K + t0, a translate of K's array, can then hold a cell
    outside bsum.  Proof: for p in K + T, the box p - T meets K.  If it
    holds a cell of bK, p is in bK + T.  If not, every cell it shares with
    K is interior, so its face neighbors are in K; a box is
    face-connected, so p - T lies in K, and p - t0 is in K.  T's first
    cell sits at index 1 of its array, so K + t0 has its array at origin
    K.origin + T.origin + 1, the origin of dilate's frame for bK and T:
    only the first K.shape entries of bsum's frame are compared.
    """
    hole = _embed(erosion.origin, erosion.occ, bsum.origin, k.shape)
    inside = bsum.occ[tuple(slice(0, n) for n in k.shape)]
    return not (k.occ & ~inside & ~hole).any()


@dataclass(frozen=True)
class DecompositionReport:
    """Cell-exact verdicts for the sum decomposition of a pair of grids.

    The four verdicts, in order, for K the larger-volume body:
      full_vs_boundary:  K+T equals K+boundary(T)
      full_vs_union:     K+T equals (bK+bT) union erode_open(K,T)
      union_disjoint:    those two union parts are disjoint
      boundary_vs_mixed: bK+bT equals bK+T
    """

    swapped: bool
    verdicts: dict
    volumes: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def decomposition_check(k: GridSet, t: GridSet) -> DecompositionReport:
    """Verify the boundary-sum decomposition cell-exactly on a grid pair.

    Both boundaries must be connected; the pair is swapped internally so the
    erosion is taken of the larger-volume body.  Any failed verdict is a
    finding carried in the report, not an exception.
    """
    _require_same_grid(k, t)
    if not (is_boundary_connected(k) and is_boundary_connected(t)):
        raise GridError("decomposition check requires connected boundaries")
    swapped = False
    if k.count < t.count:
        k, t = t, k
        swapped = True
    bk, bt = boundary(k), boundary(t)
    full = dilate(k, t)
    bsum = dilate(bk, bt)
    hole = erode_open(k, t)
    parts = union(bsum, hole)
    return DecompositionReport(
        swapped=swapped,
        verdicts={
            "full_vs_boundary": full == dilate(k, bt),
            "full_vs_union": full == parts,
            # disjoint exactly when no cell is counted twice
            "union_disjoint": parts.count == bsum.count + hole.count,
            "boundary_vs_mixed": bsum == dilate(bk, t),
        },
        volumes={
            "k": volume(k),
            "t": volume(t),
            "sum": volume(full),
            "boundary_sum": volume(bsum),
            "erosion": volume(hole),
        },
    )


# ---------------------------------------------------------------------------
# Rasterization of shape specs
# ---------------------------------------------------------------------------

def _on_mesh(spec: ShapeSpec, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Closed-set membership of spec on an open mesh.

    axes[k] holds the coordinates along axis k, shaped to broadcast along
    that axis only; the result broadcasts to the full mesh.  Each mesh
    point goes through the float operations of evaluating the spec at that
    one point, and sums over axes run left to right.
    """
    kind = spec.kind
    if kind == "box":
        return reduce(np.logical_and,
                      [(x >= float(a)) & (x <= float(b))
                       for x, a, b in zip(axes, spec.lo, spec.hi)])
    if kind == "ball":
        r = float(spec.radius)
        return reduce(np.add, [(x - float(c)) ** 2 for x, c
                               in zip(axes, spec.center)]) <= r * r
    if kind == "simplex":
        return (reduce(np.logical_and, [x >= 0.0 for x in axes])
                & (reduce(np.add, axes) <= 1.0))
    if kind == "polygon":
        verts = np.array([[float(x), float(y)] for x, y in spec.vertices])
        if _poly_signed_area(verts) < 0:
            verts = verts[::-1]
        x, y = axes
        ok = True
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            e = b - a
            ok = ok & (e[0] * (y - a[1]) - e[1] * (x - a[0]) >= 0.0)
        return ok
    if kind == "scaled":
        f = float(spec.factor)
        return _on_mesh(spec.children[0], [x / f for x in axes])
    if kind == "translated":
        return _on_mesh(spec.children[0], [x - float(v) for x, v
                                           in zip(axes, spec.vector)])
    if kind == "reflected":
        return _on_mesh(spec.children[0], [-x for x in axes])
    if kind == "union":
        return (_on_mesh(spec.children[0], axes)
                | _on_mesh(spec.children[1], axes))
    raise GridError(f"unknown shape kind {kind!r}")


def bbox(spec: ShapeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The corners (lo, hi) of the axis-aligned box that holds spec."""
    kind = spec.kind
    if kind == "box":
        return (np.array([float(v) for v in spec.lo]),
                np.array([float(v) for v in spec.hi]))
    if kind == "ball":
        c = np.array([float(v) for v in spec.center])
        r = float(spec.radius)
        return c - r, c + r
    if kind == "simplex":
        return np.zeros(spec.ndim), np.ones(spec.ndim)
    if kind == "polygon":
        verts = np.array([[float(x), float(y)] for x, y in spec.vertices])
        return verts.min(axis=0), verts.max(axis=0)
    if kind == "scaled":
        lo, hi = bbox(spec.children[0])
        f = float(spec.factor)
        return lo * f, hi * f
    if kind == "translated":
        lo, hi = bbox(spec.children[0])
        v = np.array([float(x) for x in spec.vector])
        return lo + v, hi + v
    if kind == "reflected":
        lo, hi = bbox(spec.children[0])
        return -hi, -lo
    if kind == "union":
        lo_a, hi_a = bbox(spec.children[0])
        lo_b, hi_b = bbox(spec.children[1])
        return np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)
    raise GridError(f"unknown shape kind {kind!r}")


def _poly_signed_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def rasterize(spec: ShapeSpec, h: float) -> GridSet:
    """Rasterize by the cell-center rule: a cell is occupied exactly when
    its center lies in the closed set described by the spec.

    The spec is evaluated on an open mesh, one vector of cell-center
    coordinates per axis, so no (cells x dim) point matrix is built.  A
    shape window that is not finite, or whose lattice indices exceed 2**52
    (where cell centers stop being exact in float64), raises GridError, as
    does a window beyond the extent caps.  A box is rasterized as a box
    (see _raster_box), with no mesh and no normalizing pass.
    """
    if spec.kind == "box":
        return _raster_box(spec, h)
    origin, occ = _raster_window(spec, h)
    return GridSet(occ.ndim, h, origin, occ)


def _raster_window(spec: ShapeSpec, h: float) -> _Window:
    """rasterize(spec, h) before normalizing: the occupancy of every cell
    whose center lies in the spec's bounding box, and the lattice position
    of the first of them."""
    first, shape = _window_extent(spec, h)
    axes = []
    for k, (i, n) in enumerate(zip(first, shape)):
        axes.append(_centers(i, n, h).reshape(
            [n if j == k else 1 for j in range(len(shape))]))
    return tuple(first), _on_mesh(spec, axes)


def _raster_box(spec: ShapeSpec, h: float) -> GridSet:
    """rasterize(spec, h) for a box spec, straight as its tight GridSet.

    A cell center passes _on_mesh's box test when each coordinate passes
    that axis's interval test, which this evaluates on the same center
    vector of the same window.  Cell centers do not decrease with the
    index (rounding is monotone and h > 0), so the centers that pass on
    an axis form one run of indices, and the box's cells are the product
    of those runs: an all-true array with the one-cell margin, or the
    empty set when some run is empty.
    """
    first, shape = _window_extent(spec, h)
    dim, lo, sides = len(shape), [], []
    for i, n, a, b in zip(first, shape, spec.lo, spec.hi):
        x = _centers(i, n, h)
        hit = np.flatnonzero((x >= float(a)) & (x <= float(b)))
        if not hit.size:
            return GridSet(dim, h, first, np.zeros((1,) * dim, bool))
        lo.append(i + int(hit[0]) - 1)
        sides.append(hit.size)
    occ = np.zeros([s + 2 for s in sides], bool)
    occ[(slice(1, -1),) * dim] = True
    grid = GridSet._tight(dim, float(h), tuple(lo), occ)
    grid._count = math.prod(sides)
    return grid


def _centers(first: int, n: int, h: float) -> np.ndarray:
    """World coordinates of the centers of n cells along one axis, from
    lattice index `first`."""
    return (np.arange(first, first + n) + 0.5) * h


def _window_extent(spec: ShapeSpec, h: float
                   ) -> tuple[list[int], list[int]]:
    """The first lattice index and the cell count per axis of the cells
    whose centers lie in spec's bounding box, checked against the lattice
    index bound and the extent caps before anything is allocated."""
    if not h > 0:
        raise GridError("resolution h must be positive")
    dim = spec.ndim
    if dim not in ALLOWED_DIMS:
        raise GridError(f"shape dimension {dim} not in {ALLOWED_DIMS}")
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = bbox(spec)
    # Float division overflows to inf, and NaN fails the comparison, so a
    # window that is not finite fails the same test as one beyond 2**52.
    # Floats beyond 2**52 are integers, so |floor(x)| <= 2**52 exactly when
    # |x| <= 2**52.
    first, shape = [], []
    for a, b in zip(lo.tolist(), hi.tolist()):
        i, j = a / h - 0.5, b / h - 0.5
        if not (abs(i) <= _MAX_INDEX and abs(j) <= _MAX_INDEX):
            raise GridError(
                f"shape bounding box {lo.tolist()}..{hi.tolist()} at h={h} "
                "is not finite or lies beyond lattice index 2**52")
        first.append(math.floor(i))
        shape.append(math.ceil(j) - first[-1] + 1)
    _check_extent([n + 2 for n in shape])
    return first, shape


def _or_windows(dim: int, h: float, windows: Sequence[_Window]) -> GridSet:
    """The GridSet of the union of the windows' occupied cells.

    The windows are ORed into the smallest window that holds them all,
    which must pass the extent caps with its margin, and normalized once.
    """
    lo = [min(o[k] for o, _ in windows) for k in range(dim)]
    hi = [max(o[k] + w.shape[k] for o, w in windows) for k in range(dim)]
    shape = [b - a for a, b in zip(lo, hi)]
    _check_extent([n + 2 for n in shape])
    out = np.zeros(shape, dtype=bool)
    for origin, occ in windows:
        out[tuple(slice(o - a, o - a + n)
                  for o, a, n in zip(origin, lo, occ.shape))] |= occ
    return GridSet(dim, h, lo, out)
