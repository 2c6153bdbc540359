"""Restricted Minkowski sums and the arithmetic bound thm-4.2.

A restriction admits only certain (x, y) cell pairs of K x T into the sum.
The supported restriction is the complement of the erosion fit ("x not in
(erosion - y)"), whose sum lands inside the boundary sum.  The admitted-pair
set is never materialized in 2n dimensions: the convolution of K with T
counts, at each cell z, the pairs (x, y) with x + y = z, so the excluded
pairs are that count summed over the erosion's cells and memory stays
linear in the grid.

On voxels, thm-4.2 and its restricted-sum bounds eq-4.2 and eq-4.3 are
checked in one pass per pair (check_thm_4_2_voxel): bK, bT and bK + bT,
the erosion and the K * T convolution are each built once and shared by
the three reports.  check_arithmetic_bm is thm-4.2 on the exact engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import exact2d
from .exact2d import ConvexPolygon, GeometryError
from .inequalities import (EXACT, VOXEL, InequalityReport, _require_connected,
                           voxel_slack_tolerance)
from .voxel import (GridError, GridSet, _convolve, _embed, _require_same_grid,
                    boundary, dilate, erode_open, is_subset, volume)


def restricted_sum(a: GridSet, b: GridSet,
                   erosion: GridSet) -> tuple[GridSet, int]:
    """Sum {x + y} over the pairs of A x B with x outside (erosion - y),
    and the number of those admitted pairs.

    The sum set is dilate(A, B) minus the erosion.  One convolution of A
    with B gives both: its positive cells are dilate(A, B), and its counts
    summed over the erosion's cells are the excluded pairs.

    For the open erosion, erode_open(A, B), the count is an identity: every
    erosion cell x has x - B inside interior(A), a subset of A, so the
    convolution count at x is exactly |B|, and the admitted pairs are
    always |B| (|A| - |erosion|).
    """
    _require_same_grid(a, b)
    _require_same_grid(a, erosion)
    origin = tuple(oa + ob for oa, ob in zip(a.origin, b.origin))
    counts = _convolve(a.occ, b.occ)
    hole = _embed(erosion.origin, erosion.occ, origin, counts.shape)
    admitted = a.count * b.count - int(counts[hole].sum())
    return GridSet(a.dim, a.h, origin, (counts > 0) & ~hole), admitted


def check_thm_4_2_voxel(k: GridSet, t: GridSet) -> list[InequalityReport]:
    """The reports thm-4.2, eq-4.2 and eq-4.3 of one voxel pair, in order.

    thm-4.2 (tolerance): vol(bK + bT)^(2/n) >= vol(K)^(2/n) + vol(T)^(2/n),
    ratio-tagged as in check_arithmetic_bm.
    eq-4.2 (cell-exact): admitted pairs >= |T| (|K| - |K erosion T|) for
    the erosion-complement restriction; its sum set must lie inside
    bK + bT, else the report is flagged containment_failed.  On voxels the
    pair count holds with equality by construction (see restricted_sum):
    the slack is always 0 and equality always true, so eq-4.2 carries only
    the containment verdict.
    eq-4.3 (tolerance): vol(K erosion T)^(1/n) <= vol(K)^(1/n) - vol(T)^(1/n),
    allowing first-order discretization error in the linear scale.
    """
    _require_same_grid(k, t)
    if k.count < t.count:
        raise GridError("requires volume(K) >= volume(T); swap the pair")
    _require_connected(k, t)
    n, h = k.dim, k.h
    bk, bt = boundary(k), boundary(t)
    bsum_set = dilate(bk, bt)
    vol_k, vol_t, bsum = volume(k), volume(t), volume(bsum_set)

    lhs = bsum ** (2.0 / n)
    rhs = vol_k ** (2.0 / n) + vol_t ** (2.0 / n)
    vol_tol = voxel_slack_tolerance(n, h, bk.count + bt.count)
    vref = max(min(vol_k, vol_t, max(bsum, 1e-12)), 1e-12)
    tol = vol_tol * (2.0 / n) * vref ** (2.0 / n - 1.0)
    ratio = (vol_k / vol_t) ** (1.0 / n) if vol_t > 0 else math.inf
    ratio_ok = (1.0 / math.sqrt(n)) <= ratio <= math.sqrt(n)
    arithmetic = InequalityReport(
        theorem_id="thm-4.2", engine=VOXEL,
        lhs=lhs, rhs=rhs, slack=lhs - rhs,
        equality=abs(lhs - rhs) <= tol, tolerance=tol,
        flags=() if ratio_ok else ("ratio_condition_violated",),
        details={"vol_k": vol_k, "vol_t": vol_t,
                 "ratio_ok": ratio_ok, "ratio": ratio})

    erosion = erode_open(k, t)
    sum_set, admitted = restricted_sum(k, t, erosion)
    contained = is_subset(sum_set, bsum_set)
    vols = {"vol_k": vol_k, "vol_t": vol_t, "vol_erosion": volume(erosion),
            "vol_theta": admitted * h ** (2 * n)}  # product-measure units
    pair_floor = t.count * (k.count - erosion.count)
    pairs = InequalityReport(
        theorem_id="eq-4.2", engine=VOXEL,
        lhs=admitted, rhs=pair_floor, slack=admitted - pair_floor,
        equality=(admitted == pair_floor),
        flags=() if contained else ("containment_failed",),
        details={**vols, "admitted_pairs": admitted,
                 "containment_verdict": contained})

    root_gap = vol_k ** (1.0 / n) - vol_t ** (1.0 / n)
    root_erosion = vols["vol_erosion"] ** (1.0 / n)
    roots = InequalityReport(
        theorem_id="eq-4.3", engine=VOXEL,
        lhs=root_gap, rhs=root_erosion, slack=root_gap - root_erosion,
        equality=(abs(root_gap - root_erosion) <= 3.0 * n * h),
        tolerance=3.0 * n * h, details=vols)
    return [arithmetic, pairs, roots]


def check_arithmetic_bm(k: ConvexPolygon, t: ConvexPolygon) -> InequalityReport:
    """vol(bK + bT) >= vol(K) + vol(T) on exact polygons, ratio-tagged
    (thm-4.2 in the plane, where the exponent 2/n is 1).

    The volume-ratio window (vol K / vol T)^(1/n) in [1/sqrt(n), sqrt(n)]
    is recorded but not enforced: out-of-window pairs are admitted to map
    where the unconditioned inequality fails, and their failures are tagged
    expected findings instead of violations.
    """
    vol_k, vol_t = k.area, t.area
    lhs = exact2d.partial_sum_area(k, t)
    rhs = vol_k + vol_t
    slack = lhs - rhs
    ratio = vol_k / vol_t
    ratio_ok = Fraction(1, 2) <= ratio <= 2  # (r^(1/2) in [1/sqrt2, sqrt2])
    return InequalityReport(
        theorem_id="thm-4.2", engine=EXACT,
        lhs=lhs, rhs=rhs, slack=slack, equality=(slack == 0),
        flags=() if ratio_ok else ("ratio_condition_violated",),
        details={"vol_k": vol_k, "vol_t": vol_t,
                 "ratio_ok": ratio_ok, "ratio": float(ratio)},
    )


def shrinking_pair_demo(a: Fraction = Fraction(1, 100)) -> dict:
    """Closed-form counterexample to the unconditioned arithmetic bound.

    For the square [-1,1]^2 paired with its a-scaled copy the boundary-sum
    volume is 16a (vanishing with a) while the right side stays near the
    square's volume, so the inequality must fail for small a: the ratio
    condition cannot be dropped.
    """
    a = Fraction(a)
    if not 0 < a < 1:
        raise GeometryError("demo scale must lie strictly between 0 and 1")
    square = ConvexPolygon.box((-1, -1), (1, 1))
    small = exact2d.scale(square, a)
    report = check_arithmetic_bm(square, small)
    return {
        "a": a,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "holds": not report.slack < 0,
        "ratio_ok": report.details["ratio_ok"],
        "report": report,
    }
