"""Restricted Minkowski sums on voxel grids.

A restriction admits only certain (x, y) cell pairs of K x T into the sum.
The supported restriction is the complement of the erosion fit ("x not in
(erosion - y)"), whose sum lands inside the boundary sum.  The admitted-pair
set is never materialized in 2n dimensions; pairs are counted by sweeping y
over T and intersecting K with the translated erosion, so memory stays
linear in the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import exact2d
from .exact2d import ConvexPolygon, GeometryError
from .inequalities import (EXACT, VOXEL, InequalityReport, ShapeSpec,
                           voxel_slack_tolerance)
from .voxel import (GridError, GridSet, boundary, difference, dilate,
                    erode_open, is_boundary_connected, is_subset, volume)


@dataclass(frozen=True)
class ThetaSpec:
    """The (x, y) pairs of K x T admitted into the restricted sum: those
    with x outside (erosion - y)."""

    k: GridSet
    t: GridSet
    erosion: GridSet

    @staticmethod
    def erosion_complement(k: GridSet, t: GridSet,
                           erosion: Optional[GridSet] = None) -> "ThetaSpec":
        if erosion is None:
            erosion = erode_open(k, t)
        if not (erosion.same_grid(k) and k.same_grid(t)):
            raise GridError("erosion must live on the same grid as K and T")
        return ThetaSpec(k, t, erosion)


@dataclass(frozen=True)
class RestrictedSumResult:
    sum_set: GridSet
    admitted_pairs: int
    theta_volume: float  # admitted pairs * h^(2n), product-measure units
    containment_verdict: bool  # sum inside bK + bT


def _admitted_pair_count(k: GridSet, t: GridSet, erosion: GridSet) -> int:
    """Count pairs (x, y) in K x T with x outside (erosion - y)."""
    total = k.count * t.count
    if erosion.is_empty:
        return total
    # Pad the erosion so every translated lookup is a pure view.
    pad = tuple(a + b for a, b in zip(k.shape, t.shape))
    padded = np.zeros(tuple(n + 2 * p for n, p in zip(erosion.shape, pad)),
                      dtype=bool)
    padded[tuple(slice(p, p + n) for p, n in zip(pad, erosion.shape))] = \
        erosion.occ
    excluded = 0
    base = tuple(ok + ot - oe for ok, ot, oe
                 in zip(k.origin, t.origin, erosion.origin))
    for cell in np.argwhere(t.occ):
        # x in K with x + y in erosion: erosion index = i + origin_k + y - origin_e
        d = tuple(b + int(c) for b, c in zip(base, cell))
        view = padded[tuple(slice(p + dd, p + dd + n)
                            for p, dd, n in zip(pad, d, k.shape))]
        excluded += int(np.count_nonzero(k.occ & view))
    return total - excluded


def restricted_sum(a: GridSet, b: GridSet,
                   theta: ThetaSpec) -> RestrictedSumResult:
    """Sum {x + y} over the admitted pairs of the restriction.

    Admitting exactly the pairs with x outside (erosion - y) makes the sum
    set equal to dilate(A, B) minus the erosion, and the containment
    verdict checks it lands inside the boundary sum.
    """
    if not a.same_grid(b):
        raise GridError("operands must share dimension and resolution")
    if theta.k != a or theta.t != b:
        raise GridError("theta was built for a different (K, T) pair")
    admitted = _admitted_pair_count(a, b, theta.erosion)
    sum_set = difference(dilate(a, b), theta.erosion)
    return RestrictedSumResult(
        sum_set=sum_set, admitted_pairs=admitted,
        theta_volume=admitted * a.h ** (2 * a.dim),
        containment_verdict=is_subset(sum_set,
                                      dilate(boundary(a), boundary(b))))


def check_theta_bounds(k: GridSet, t: GridSet, *,
                       shapes: Sequence[ShapeSpec] = (),
                       seed: Optional[int] = None,
                       trial: Optional[int] = None
                       ) -> tuple[InequalityReport, InequalityReport]:
    """Both volume bounds for the erosion-complement restriction.

    eq-4.2 (cell-exact): admitted pairs >= |T| (|K| - |K erosion T|).
    eq-4.3 (tolerance): vol(K erosion T)^(1/n) <= vol(K)^(1/n) - vol(T)^(1/n),
    allowing first-order discretization error in the linear scale.
    """
    if not k.same_grid(t):
        raise GridError("operands must share dimension and resolution")
    if k.count < t.count:
        raise GridError("requires volume(K) >= volume(T); swap the pair")
    if not (is_boundary_connected(k) and is_boundary_connected(t)):
        raise GridError("theta bounds require connected boundaries")
    n, h = k.dim, k.h
    erosion = erode_open(k, t)
    theta = ThetaSpec.erosion_complement(k, t, erosion)
    result = restricted_sum(k, t, theta)
    vols = {
        "vol_k": volume(k),
        "vol_t": volume(t),
        "vol_erosion": volume(erosion),
        "vol_theta": result.theta_volume,
    }
    pair_floor = t.count * (k.count - erosion.count)
    report_pairs = InequalityReport(
        theorem_id="eq-4.2", engine=VOXEL,
        lhs=result.admitted_pairs, rhs=pair_floor,
        slack=result.admitted_pairs - pair_floor,
        equality=(result.admitted_pairs == pair_floor),
        shapes=tuple(shapes), seed=seed, trial=trial,
        details={**vols, "admitted_pairs": result.admitted_pairs,
                 "containment_verdict": result.containment_verdict},
    )
    lhs_root = volume(erosion) ** (1.0 / n)
    rhs_root = volume(k) ** (1.0 / n) - volume(t) ** (1.0 / n)
    report_root = InequalityReport(
        theorem_id="eq-4.3", engine=VOXEL,
        lhs=rhs_root, rhs=lhs_root, slack=rhs_root - lhs_root,
        equality=(abs(rhs_root - lhs_root) <= 3.0 * n * h),
        tolerance=3.0 * n * h,
        shapes=tuple(shapes), seed=seed, trial=trial,
        details=vols,
    )
    return report_pairs, report_root


def check_arithmetic_bm(k, t, engine: str = EXACT, *,
                        shapes: Sequence[ShapeSpec] = (),
                        seed: Optional[int] = None,
                        trial: Optional[int] = None) -> InequalityReport:
    """vol(bK + bT)^(2/n) >= vol(K)^(2/n) + vol(T)^(2/n), ratio-tagged.

    The volume-ratio window (vol K / vol T)^(1/n) in [1/sqrt(n), sqrt(n)]
    is recorded but not enforced: out-of-window pairs are admitted to map
    where the unconditioned inequality fails, and their failures are tagged
    expected findings instead of violations.
    """
    if engine == EXACT:
        n = 2
        vol_k, vol_t = k.area, t.area
        lhs = exact2d.partial_sum_area(k, t)  # exponent 2/n = 1 in the plane
        rhs = vol_k + vol_t
        slack = lhs - rhs
        ratio = vol_k / vol_t
        ratio_ok = Fraction(1, 2) <= ratio <= 2  # (r^(1/2) in [1/sqrt2, sqrt2])
        flags = () if ratio_ok else ("ratio_condition_violated",)
        tol = 0.0
    elif engine == VOXEL:
        n, h = k.dim, k.h
        bk, bt = boundary(k), boundary(t)
        vol_k, vol_t = volume(k), volume(t)
        bsum = volume(dilate(bk, bt))
        lhs = bsum ** (2.0 / n)
        rhs = vol_k ** (2.0 / n) + vol_t ** (2.0 / n)
        vol_tol = voxel_slack_tolerance(n, h, bk.count + bt.count)
        vref = max(min(vol_k, vol_t, max(bsum, 1e-12)), 1e-12)
        tol = vol_tol * (2.0 / n) * vref ** (2.0 / n - 1.0)
        slack = lhs - rhs
        ratio = (vol_k / vol_t) ** (1.0 / n) if vol_t > 0 else math.inf
        ratio_ok = (1.0 / math.sqrt(n)) <= ratio <= math.sqrt(n)
        flags = () if ratio_ok else ("ratio_condition_violated",)
    else:
        raise GeometryError(f"unknown engine {engine!r}")
    report = InequalityReport(
        theorem_id="thm-4.2", engine=engine,
        lhs=lhs, rhs=rhs, slack=slack,
        equality=(slack == 0 if engine == EXACT else abs(slack) <= tol),
        tolerance=tol, shapes=tuple(shapes), seed=seed, trial=trial,
        flags=flags,
        details={"vol_k": vol_k, "vol_t": vol_t,
                 "ratio_ok": ratio_ok,
                 "ratio": float(ratio) if engine == EXACT else ratio},
    )
    return report


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
    report = check_arithmetic_bm(square, small, engine=EXACT)
    return {
        "a": a,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "holds": not report.slack < 0,
        "ratio_ok": report.details["ratio_ok"],
        "report": report,
    }
