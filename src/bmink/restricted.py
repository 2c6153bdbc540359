"""Restricted Minkowski sums and the arithmetic bound thm-4.2 on voxels.

A restriction admits only certain (x, y) cell pairs of K x T into the sum.
The supported restriction is the complement of the erosion fit ("x not in
(erosion - y)"), whose sum set is (K + T) minus the erosion; eq-4.2 asks
that it land inside the boundary sum bK + bT.  Neither the admitted-pair
set nor K + T is ever materialized: on voxels the admitted pair count is
an identity, and the containment is decided by labelling the gaps of
bK + bT (_restricted_sum_contained).

On voxels, thm-4.2 and its restricted-sum bounds eq-4.2 and eq-4.3 are
checked in one pass per pair (check_thm_4_2_voxel): bK, bT and bK + bT
and the erosion are each built once and shared by the three reports.

This is a voxel module: it and voxel.py are the only modules of the
package that import numpy or scipy.  thm-4.2 on the exact engine,
check_arithmetic_bm, and its closed-form demo shrinking_pair_demo live in
inequalities.py beside the other exact checkers; both names stay
importable from here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .inequalities import VOXEL, InequalityReport, voxel_slack_tolerance
from .inequalities import (  # noqa: F401  (re-exported from their old home)
    check_arithmetic_bm, shrinking_pair_demo)
from .voxel import (GridError, GridSet, _embed, _require_connected,
                    _require_same_grid, boundary, dilate, erode_open, volume)


def _restricted_sum_contained(k: GridSet, t: GridSet, erosion: GridSet,
                              bsum: GridSet) -> bool:
    """Whether (K + T) minus the erosion lies inside bsum = bK + bT, for
    bK, bT the face boundaries and the erosion erode_open(K, T).

    Neither K + T nor a convolution of K with T is formed.  The verdict
    rests on a lattice lemma that holds for all finite K and T (nonempty
    T), connected boundaries or not:

    1. If w is in K + T and w + e is not, for a signed unit vector e, then
       w is in bK + bT.  Write w = x + y with x in K, y in T.  Then x + e
       is not in K and y + e is not in T, else w + e would be in K + T; so
       x and y each have an empty face neighbor, and lie in bK and bT.
    2. So a face-connected set of cells outside bK + bT lies wholly inside
       K + T or wholly outside it: a step that left K + T would start
       from a cell of bK + bT.  Every cell of K + T lies inside the box of
       bK + bT (walk from it along +e or -e until K + T ends: the last
       cell is in bK + bT by 1), so the empty margin of bsum's array lies
       outside K + T.  The margin is one face-connected shell, so the
       component of the complement that holds it lies outside.
    3. The erosion lies inside K + T: for x in it and any y in T, x - y is
       in interior(K), a subset of K, and x = (x - y) + y.

    So containment fails exactly when some other (bounded) face component
    of the complement has a cell z outside the erosion with z in K + T.
    By 2 one such cell per component decides it; z is in K + T exactly
    when z - T meets K, an O(|T|) test.  The lemma needs face adjacency:
    labelling with full (3^n - 1) adjacency joins gaps across diagonal
    contacts, where step 1 does not apply.  A wider boundary (one that
    holds the face boundary) keeps every step.
    """
    gaps = ndimage.label(~bsum.occ)[0]  # the default structure: faces
    hole = _embed(erosion.origin, erosion.occ, bsum.origin, bsum.shape)
    cells = np.flatnonzero((gaps != gaps[(0,) * bsum.dim]) & ~bsum.occ & ~hole)
    _, first = np.unique(gaps.ravel()[cells], return_index=True)
    # k's array index of z - y, for z in bsum's array and y in t's array
    shifts = (np.subtract(bsum.origin, np.add(k.origin, t.origin))
              - np.argwhere(t.occ))
    for z in np.transpose(np.unravel_index(cells[first], bsum.shape)):
        idx = z + shifts
        inside = ((idx >= 0) & (idx < k.shape)).all(axis=1)
        if k.occ[tuple(idx[inside].T)].any():
            return False
    return True


def check_thm_4_2_voxel(k: GridSet, t: GridSet) -> list[InequalityReport]:
    """The reports thm-4.2, eq-4.2 and eq-4.3 of one voxel pair, in order.

    thm-4.2 (tolerance): vol(bK + bT)^(2/n) >= vol(K)^(2/n) + vol(T)^(2/n),
    ratio-tagged as in check_arithmetic_bm.
    eq-4.2 (cell-exact): admitted pairs >= |T| (|K| - |K erosion T|) for
    the erosion-complement restriction; its sum set must lie inside
    bK + bT, else the report is flagged containment_failed.  On voxels the
    pair count holds with equality by construction: every erosion cell x
    has x - T inside interior(K), a subset of K, so exactly |T| pairs of
    K x T sum to x, and the admitted pairs are always |T| (|K| - |K erosion
    T|).  The slack is always 0 and equality always true, so eq-4.2
    carries only the containment verdict, which _restricted_sum_contained
    decides from bK + bT and the erosion without convolving K with T.
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
    admitted = t.count * (k.count - erosion.count)  # the identity above
    contained = _restricted_sum_contained(k, t, erosion, bsum_set)
    vols = {"vol_k": vol_k, "vol_t": vol_t, "vol_erosion": volume(erosion),
            "vol_theta": admitted * h ** (2 * n)}  # product-measure units
    pairs = InequalityReport(
        theorem_id="eq-4.2", engine=VOXEL,
        lhs=admitted, rhs=admitted, slack=0, equality=True,
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
