"""Voxel engine: occupancy grids in dimensions 2-4 with exact cell-set ops.

A GridSet is a dense boolean occupancy array over a bounded window of the
integer lattice, scaled by a cell size h.  Open erosion thresholds the
convolution of two occupancy arrays as exact integer cell counts.
Dilation (discrete Minkowski sum) scatters every pair of occupied cells
when the operands are sparse, and thresholds the same convolution when
they are dense.  Interior and boundary come from face-neighbor shifts.
Set identities between them can therefore be asserted exactly; only the
conversion from cell counts to volumes involves floating point.

This engine doubles as the brute-force oracle for the exact polygon engine
and is the only engine for non-convex sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np
from scipy import ndimage

MAX_EXTENT = 4096
MAX_CELLS = 2 ** 24  # 4096^2: every 2D grid within MAX_EXTENT stays legal
_MAX_INDEX = 2 ** 52  # beyond it, i + 0.5 is not exact in float64
ALLOWED_DIMS = (2, 3, 4)

Number = Union[int, float, Fraction]


class GridError(Exception):
    """Invalid grid input or operation."""


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
    a plain array comparison.  Immutable after construction; the one
    private slot caches the is_boundary_connected verdict, which the
    occupancy determines.
    """

    __slots__ = ("dim", "h", "origin", "occ", "_boundary_connected")

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
        self._boundary_connected: Optional[bool] = None
        if not occ.any():
            self.origin = (0,) * dim
            self.occ = np.zeros((1,) * dim, dtype=bool)
            self.occ.setflags(write=False)
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

    @property
    def count(self) -> int:
        return int(self.occ.sum())

    @property
    def is_empty(self) -> bool:
        return not self.occ.any()

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


def _embed(g: GridSet, origin: Sequence[int],
           shape: Sequence[int]) -> np.ndarray:
    """g's occupancy in the window with the given origin and shape, clipped
    to that window."""
    out = np.zeros(shape, dtype=bool)
    src, dst = [], []
    for o, n, wo, wn in zip(g.origin, g.shape, origin, shape):
        lo, hi = max(o, wo), min(o + n, wo + wn)
        if lo >= hi:
            return out
        src.append(slice(lo - o, hi - o))
        dst.append(slice(lo - wo, hi - wo))
    out[tuple(dst)] = g.occ[tuple(src)]
    return out


def _common_frame(a: GridSet, b: GridSet):
    lo = np.minimum(a.origin, b.origin)
    hi = np.maximum(np.add(a.origin, a.shape), np.add(b.origin, b.shape))
    shape = tuple(int(n) for n in hi - lo)
    _check_extent(shape)
    return lo, _embed(a, lo, shape), _embed(b, lo, shape)


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


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two boolean arrays as exact cell counts.

    Entry i of the result (shape a.shape + b.shape - 1) counts the pairs of
    occupied cells (p, q) of a and b with p + q = i.  The counts are
    integers held exactly in float64.  They are computed by FFT over
    5-smooth padded lengths and rounded to the nearest integer.  The
    rounding is safe because the FFT's absolute error is at most about
    eps * log2(N) * sqrt(|a| * |b|) for N padded cells and |a|, |b|
    occupied cells, which stays below 1e-7 under MAX_CELLS.  Any entry
    farther than 0.25 from an integer raises GridError instead of being
    rounded.
    """
    shape, fshape = _frames(a, b)
    _check_extent(fshape)
    axes = tuple(range(a.ndim))
    spectrum = np.fft.rfftn(a, fshape, axes=axes)
    spectrum *= np.fft.rfftn(b, fshape, axes=axes)
    # The inverse runs axis by axis, rebinding `spectrum`, so at most two
    # spectra are alive at once; np.fft.irfftn would also keep the product.
    for ax in axes[:-1]:
        spectrum = np.fft.ifft(spectrum, axis=ax)
    counts = np.fft.irfft(spectrum, fshape[-1], axis=-1)
    del spectrum  # freed before the rounding temporaries are allocated
    counts = counts[tuple(slice(0, n) for n in shape)]
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


def intersection(a: GridSet, b: GridSet) -> GridSet:
    _require_same_grid(a, b)
    lo, av, bv = _common_frame(a, b)
    return GridSet(a.dim, a.h, lo, av & bv)


def difference(a: GridSet, b: GridSet) -> GridSet:
    _require_same_grid(a, b)
    lo, av, bv = _common_frame(a, b)
    return GridSet(a.dim, a.h, lo, av & ~bv)


def in_contact(a: GridSet, b: GridSet) -> bool:
    """True when a and b share a cell or have two cells that share a face.

    For face-connected a and b this holds exactly when their union is
    face-connected.
    """
    _require_same_grid(a, b)
    _, av, bv = _common_frame(a, b)
    return _touching(av, bv)


def attach(body: GridSet, part: GridSet) -> Optional[GridSet]:
    """union(body, part) when in_contact(body, part), else None.

    One common frame serves both the contact test and the union.
    """
    _require_same_grid(body, part)
    lo, av, bv = _common_frame(body, part)
    if not _touching(av, bv):
        return None
    return GridSet(body.dim, body.h, lo, av | bv)


def _touching(av: np.ndarray, bv: np.ndarray) -> bool:
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


def is_subset(a: GridSet, b: GridSet) -> bool:
    _require_same_grid(a, b)
    _, av, bv = _common_frame(a, b)
    return not (av & ~bv).any()


def reflect(a: GridSet) -> GridSet:
    """Reflection through the lattice origin (cell i maps to -i)."""
    occ = a.occ[tuple(slice(None, None, -1) for _ in range(a.dim))]
    origin = tuple(-(o + n - 1) for o, n in zip(a.origin, a.shape))
    return GridSet(a.dim, a.h, origin, occ)


_PAIR_COST = 8  # pairs per padded FFT cell at dilate's break-even


def dilate(a: GridSet, b: GridSet) -> GridSet:
    """Discrete Minkowski sum: every pairwise sum of occupied cells.

    Two exact kernels give the same cells.  _pair_sums sets the sum of
    every pair of occupied cells, at a cost of |A| * |B| pairs.  _convolve
    transforms P padded cells, and a cell is in the sum exactly when the
    convolution count there is positive.  dilate scatters the pairs when
    |A| * |B| <= _PAIR_COST * P, and convolves otherwise.

    _PAIR_COST is the measured break-even.  On the benchmark's 2D boundary
    sums (h = 1/128, numpy FFT, a 2-CPU x86-64 machine) a pair cost about
    5.4 ns and a padded FFT cell about 45 ns: a break-even of 8.3, and 7 to
    11 from the 10th to the 90th percentile of calls.  Over three chunks
    of each voxel workload, those 2D sums had |A| * |B| / P from 0.3 to 4.2
    and take the pair path.  The 3D voxel-dense sums (14 to 48, break-even
    about 14) and the accumulated multi-body band (63 to 143) stay on the
    FFT.  Either way the result is cell-exact and exactly commutative.
    """
    _require_same_grid(a, b)
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    _, fshape = _frames(a.occ, b.occ)
    if a.count * b.count <= _PAIR_COST * math.prod(fshape):
        occ = _pair_sums(a.occ, b.occ)
    else:
        occ = _convolve(a.occ, b.occ) > 0
    return GridSet(a.dim, a.h, origin, occ)


def interior(a: GridSet) -> GridSet:
    """Cells whose 2*dim face neighbors are all occupied."""
    return GridSet(a.dim, a.h, a.origin, _interior_array(a))


def _interior_array(a: GridSet) -> np.ndarray:
    occ = a.occ
    inter = occ.copy()
    for ax in range(a.dim):
        for step in (1, -1):
            shifted = np.zeros_like(occ)
            src = [slice(None)] * a.dim
            dst = [slice(None)] * a.dim
            if step == 1:
                src[ax] = slice(1, None)
                dst[ax] = slice(None, -1)
            else:
                src[ax] = slice(None, -1)
                dst[ax] = slice(1, None)
            shifted[tuple(dst)] = occ[tuple(src)]
            inter &= shifted
    return inter


def boundary(a: GridSet) -> GridSet:
    """Occupied cells with some unoccupied face neighbor (a minus interior)."""
    return GridSet(a.dim, a.h, a.origin, a.occ & ~_interior_array(a))


def erode_open(a: GridSet, b: GridSet) -> GridSet:
    """Cells x with x - b in interior(a) for every occupied cell b.

    This is the discrete Minkowski difference with an open fit: translates
    of -B must land strictly inside A.  The convolution of interior(a) with
    b counts, at each x, the cells b with x - b in interior(a); x is in the
    erosion exactly when that count is |b|.  The empty result is allowed.
    """
    _require_same_grid(a, b)
    if b.is_empty:
        raise GridError("erosion by the empty set is unbounded")
    counts = _convolve(_interior_array(a), b.occ)
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    return GridSet(a.dim, a.h, origin, counts == b.count)


def is_boundary_connected(a: GridSet) -> bool:
    """True when boundary(a) forms one component under full adjacency.

    Full (3^dim - 1)-neighborhood adjacency keeps diagonal contacts
    connected; the empty set has no boundary and reports False.  The
    verdict is cached on the GridSet, so a body is labelled once however
    many checks ask: the generator's filter and then each checker's
    precondition.
    """
    if a._boundary_connected is None:
        bnd = a.occ & ~_interior_array(a)
        a._boundary_connected = bool(bnd.any()) and ndimage.label(
            bnd, structure=np.ones((3,) * a.dim, dtype=int))[1] == 1
    return a._boundary_connected


def check_lemma_bc(k: GridSet, t: GridSet) -> bool:
    """Boundary-containment implication on a grid instance.

    Returns True when "boundary(T) inside interior(K)" implies "T inside
    interior(K)" for these inputs; vacuously True when the premise fails.
    """
    _require_same_grid(k, t)
    inter_k = interior(k)
    if not is_subset(boundary(t), inter_k):
        return True
    return is_subset(t, inter_k)


@dataclass(frozen=True)
class DecompositionReport:
    """Cell-exact verdicts for the sum decomposition of a pair of grids.

    The four verdicts, for K the larger-volume body:
      full_vs_boundary:  K+T equals K+boundary(T)
      full_vs_union:     K+T equals (bK+bT) union erode_open(K,T)
      union_disjoint:    those two union parts are disjoint
      boundary_vs_mixed: bK+bT equals bK+T
    """

    swapped: bool
    full_vs_boundary: bool
    full_vs_union: bool
    union_disjoint: bool
    boundary_vs_mixed: bool
    volumes: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return (self.full_vs_boundary and self.full_vs_union
                and self.union_disjoint and self.boundary_vs_mixed)

    def verdicts(self) -> dict:
        return {
            "full_vs_boundary": self.full_vs_boundary,
            "full_vs_union": self.full_vs_union,
            "union_disjoint": self.union_disjoint,
            "boundary_vs_mixed": self.boundary_vs_mixed,
        }


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
    report = DecompositionReport(
        swapped=swapped,
        full_vs_boundary=(full == dilate(k, bt)),
        full_vs_union=(full == union(bsum, hole)),
        union_disjoint=intersection(bsum, hole).is_empty,
        boundary_vs_mixed=(bsum == dilate(bk, t)),
        volumes={
            "k": volume(k),
            "t": volume(t),
            "sum": volume(full),
            "boundary_sum": volume(bsum),
            "erosion": volume(hole),
        },
    )
    return report


# ---------------------------------------------------------------------------
# Constructive shape descriptions and rasterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeSpec:
    """Constructive, serializable description of a test shape.

    A tagged tree: primitives box / ball / simplex / polygon, combined with
    scaled / translated / reflected / union nodes.  Numeric payloads may be
    Fractions (kept exact through JSON) or floats; evaluation is float64.
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

    # -- constructors -------------------------------------------------------

    @staticmethod
    def box(lo: Sequence[Number], hi: Sequence[Number]) -> "ShapeSpec":
        if len(lo) != len(hi):
            raise GridError("box corners must share dimension")
        if not all(float(a) < float(b) for a, b in zip(lo, hi)):
            raise GridError("box needs lo < hi on every axis")
        return ShapeSpec("box", lo=tuple(lo), hi=tuple(hi))

    @staticmethod
    def ball(center: Sequence[Number], radius: Number) -> "ShapeSpec":
        if not float(radius) > 0:
            raise GridError("ball radius must be positive")
        return ShapeSpec("ball", center=tuple(center), radius=radius)

    @staticmethod
    def simplex(ndim: int) -> "ShapeSpec":
        """Standard simplex: x >= 0 componentwise with sum(x) <= 1."""
        return ShapeSpec("simplex", ndim=int(ndim))

    @staticmethod
    def polygon(vertices: Sequence[Sequence[Number]]) -> "ShapeSpec":
        verts = tuple(tuple(v) for v in vertices)
        if len(verts) < 3 or any(len(v) != 2 for v in verts):
            raise GridError("polygon spec needs >= 3 two-dimensional vertices")
        return ShapeSpec("polygon", vertices=verts)

    @staticmethod
    def scaled(child: "ShapeSpec", factor: Number) -> "ShapeSpec":
        if not float(factor) > 0:
            raise GridError("scale factor must be positive")
        return ShapeSpec("scaled", factor=factor, children=(child,))

    @staticmethod
    def translated(child: "ShapeSpec", vector: Sequence[Number]) -> "ShapeSpec":
        if len(vector) != child.dim():
            raise GridError("translation vector must match the shape's "
                            "dimension")
        return ShapeSpec("translated", vector=tuple(vector), children=(child,))

    @staticmethod
    def reflected(child: "ShapeSpec") -> "ShapeSpec":
        return ShapeSpec("reflected", children=(child,))

    @staticmethod
    def union_of(a: "ShapeSpec", b: "ShapeSpec") -> "ShapeSpec":
        if a.dim() != b.dim():
            raise GridError("union parts must share dimension")
        return ShapeSpec("union", children=(a, b))

    # -- evaluation ----------------------------------------------------------

    def dim(self) -> int:
        if self.kind == "box":
            return len(self.lo)
        if self.kind == "ball":
            return len(self.center)
        if self.kind == "simplex":
            return self.ndim
        if self.kind == "polygon":
            return 2
        return self.children[0].dim()

    def _on_mesh(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Closed-set membership on an open mesh.

        axes[k] holds the coordinates along axis k, shaped to broadcast
        along that axis only; the result broadcasts to the full mesh.  Each
        mesh point goes through the float operations of evaluating the spec
        at that one point, and sums over axes run left to right.
        """
        if self.kind == "box":
            return reduce(np.logical_and,
                          [(x >= float(a)) & (x <= float(b))
                           for x, a, b in zip(axes, self.lo, self.hi)])
        if self.kind == "ball":
            r = float(self.radius)
            return reduce(np.add, [(x - float(c)) ** 2 for x, c
                                   in zip(axes, self.center)]) <= r * r
        if self.kind == "simplex":
            return (reduce(np.logical_and, [x >= 0.0 for x in axes])
                    & (reduce(np.add, axes) <= 1.0))
        if self.kind == "polygon":
            verts = np.array([[float(x), float(y)] for x, y in self.vertices])
            if _poly_signed_area(verts) < 0:
                verts = verts[::-1]
            x, y = axes
            ok = True
            for a, b in zip(verts, np.roll(verts, -1, axis=0)):
                e = b - a
                ok = ok & (e[0] * (y - a[1]) - e[1] * (x - a[0]) >= 0.0)
            return ok
        if self.kind == "scaled":
            f = float(self.factor)
            return self.children[0]._on_mesh([x / f for x in axes])
        if self.kind == "translated":
            return self.children[0]._on_mesh(
                [x - float(v) for x, v in zip(axes, self.vector)])
        if self.kind == "reflected":
            return self.children[0]._on_mesh([-x for x in axes])
        if self.kind == "union":
            return (self.children[0]._on_mesh(axes)
                    | self.children[1]._on_mesh(axes))
        raise GridError(f"unknown shape kind {self.kind!r}")

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return (np.array([float(v) for v in self.lo]),
                    np.array([float(v) for v in self.hi]))
        if self.kind == "ball":
            c = np.array([float(v) for v in self.center])
            r = float(self.radius)
            return c - r, c + r
        if self.kind == "simplex":
            return np.zeros(self.ndim), np.ones(self.ndim)
        if self.kind == "polygon":
            verts = np.array([[float(x), float(y)] for x, y in self.vertices])
            return verts.min(axis=0), verts.max(axis=0)
        if self.kind == "scaled":
            lo, hi = self.children[0].bbox()
            f = float(self.factor)
            return lo * f, hi * f
        if self.kind == "translated":
            lo, hi = self.children[0].bbox()
            v = np.array([float(x) for x in self.vector])
            return lo + v, hi + v
        if self.kind == "reflected":
            lo, hi = self.children[0].bbox()
            return -hi, -lo
        if self.kind == "union":
            lo_a, hi_a = self.children[0].bbox()
            lo_b, hi_b = self.children[1].bbox()
            return np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)
        raise GridError(f"unknown shape kind {self.kind!r}")


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
    does a window beyond the extent caps.
    """
    if not h > 0:
        raise GridError("resolution h must be positive")
    dim = spec.dim()
    if dim not in ALLOWED_DIMS:
        raise GridError(f"shape dimension {dim} not in {ALLOWED_DIMS}")
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = spec.bbox()
        first = np.floor(lo / h - 0.5)
        last = np.ceil(hi / h - 0.5)
    if not (np.all(np.abs(first) <= _MAX_INDEX)
            and np.all(np.abs(last) <= _MAX_INDEX)):
        raise GridError(f"shape bounding box {lo.tolist()}..{hi.tolist()} at "
                        f"h={h} is not finite or lies beyond lattice index "
                        "2**52")
    imin = [int(i) for i in first]
    shape = [int(n) for n in last - first + 1]
    _check_extent([n + 2 for n in shape])
    axes = []
    for k, (i, n) in enumerate(zip(imin, shape)):
        x = (np.arange(i, i + n) + 0.5) * h
        axes.append(x.reshape([n if j == k else 1 for j in range(dim)]))
    return GridSet(dim, h, imin, spec._on_mesh(axes))
