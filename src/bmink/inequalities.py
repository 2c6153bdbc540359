"""Checkers for the boundary-sum volume inequalities and their equality cases.

Each checker produces an InequalityReport whose lhs/rhs are stored in the
*comparable form* actually used for the test: on the exact engine roots are
eliminated by raising both sides to matching powers, so every comparison is
a rational comparison and equality detection is exact.  On the voxel engine
sides are binary64 and a discretization tolerance (first order in the cell
size, scaled by a perimeter proxy) separates findings from noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import exact2d, voxel
from .exact2d import (ConvexPolygon, EqualityClass, EqualityTag, GeometryError,
                      classify_equality, is_centrally_symmetric, minkowski_sum)
from .voxel import GridSet, ShapeSpec, boundary, dilate, is_boundary_connected, volume

Value = Union[Fraction, float]

EXACT = "exact"
VOXEL = "voxel"


@dataclass
class InequalityReport:
    """Outcome of one inequality check.

    lhs/rhs/slack are in the comparable form (see module docstring); slack
    is lhs - rhs, so a pass means slack >= -tolerance.  A negative slack
    beyond tolerance marks the report as a violation; it is recorded, never
    dropped.  equality_class is populated on the exact engine only.
    """

    theorem_id: str
    engine: str
    lhs: Value
    rhs: Value
    slack: Value
    equality: bool
    equality_class: Optional[EqualityClass] = None
    shapes: tuple[ShapeSpec, ...] = ()
    lam: Optional[Fraction] = None
    seed: Optional[int] = None
    trial: Optional[int] = None
    tolerance: float = 0.0
    flags: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    @property
    def violation(self) -> bool:
        return self.slack < -self.tolerance

    def to_json_dict(self) -> dict:
        from .serialize import REPORT_VERSION, encode_number, shapespec_to_json

        eq_class = None
        if self.equality_class is not None:
            eq_class = {"tag": self.equality_class.tag.value}
            if self.equality_class.translation is not None:
                t = self.equality_class.translation
                eq_class["translation"] = [encode_number(t.x), encode_number(t.y)]
            if self.equality_class.ratio is not None:
                eq_class["ratio"] = encode_number(self.equality_class.ratio)
        return {
            "v": REPORT_VERSION,
            "theorem_id": self.theorem_id,
            "engine": self.engine,
            "lhs": encode_number(self.lhs),
            "rhs": encode_number(self.rhs),
            "slack": encode_number(self.slack),
            "equality": self.equality,
            "equality_class": eq_class,
            "shapes": [shapespec_to_json(s) for s in self.shapes],
            "lambda": None if self.lam is None else encode_number(self.lam),
            "seed": self.seed,
            "trial": self.trial,
            "tolerance": self.tolerance,
            "violation": self.violation,
            "flags": list(self.flags),
            "details": {k: encode_number(v) if isinstance(v, Fraction) else v
                        for k, v in sorted(self.details.items())},
        }


def voxel_slack_tolerance(n: int, h: float, boundary_cells: int) -> float:
    """Allowed negative slack (volume units) for voxel-engine comparisons.

    Minkowski-volume discretization error is first order in h and scales
    with boundary measure, estimated as boundary cell count * h^(n-1).
    """
    return 3.0 * n * h * (boundary_cells * h ** (n - 1))


# ---------------------------------------------------------------------------
# Average-of-boundaries bound (two bodies)
# ---------------------------------------------------------------------------

def check_thm_av(k, t, engine: str = EXACT, *,
                 shapes: Sequence[ShapeSpec] = (),
                 seed: Optional[int] = None,
                 trial: Optional[int] = None) -> InequalityReport:
    """vol((bK + bT)/2) >= sqrt(vol K * vol T).

    Exact engine (convex polygons): compared squared, so lhs/rhs in the
    report are the squared sides and equality detection is exact.  Voxel
    engine (connected-boundary grids, convexity not required): direct
    float comparison against the discretization tolerance.
    """
    if engine == EXACT:
        bsv = exact2d.boundary_sum_volume(k, t, Fraction(1, 2))
        lhs = bsv * bsv
        rhs = k.area * t.area
        slack = lhs - rhs
        eq_class = classify_equality(k, t)
        return InequalityReport(
            theorem_id="thm-av", engine=EXACT,
            lhs=lhs, rhs=rhs, slack=slack,
            equality=(slack == 0), equality_class=eq_class,
            shapes=tuple(shapes), seed=seed, trial=trial,
            details={"boundary_sum_volume": bsv},
        )
    if engine == VOXEL:
        _require_connected(k, t)
        bk, bt = boundary(k), boundary(t)
        n = k.dim
        lhs = volume(dilate(bk, bt)) / 2 ** n
        rhs = math.sqrt(volume(k) * volume(t))
        tol = voxel_slack_tolerance(n, k.h, bk.count + bt.count)
        slack = lhs - rhs
        return InequalityReport(
            theorem_id="thm-av", engine=VOXEL,
            lhs=lhs, rhs=rhs, slack=slack,
            equality=(abs(slack) <= tol), tolerance=tol,
            shapes=tuple(shapes), seed=seed, trial=trial,
            details={"vol_k": volume(k), "vol_t": volume(t)},
        )
    raise GeometryError(f"unknown engine {engine!r}")


def _require_connected(*grids: GridSet) -> None:
    for g in grids:
        if not is_boundary_connected(g):
            raise voxel.GridError("voxel checks require connected boundaries")


# ---------------------------------------------------------------------------
# Multi-body average bound
# ---------------------------------------------------------------------------

def multi_boundary_sum_volume(bodies: Sequence[ConvexPolygon]) -> Fraction:
    """Exact volume of bK_1 + ... + bK_m for convex polygons.

    All bodies except the largest can be completed to full bodies without
    changing the sum (pairwise, the smaller body of a pair completes), so
    after sorting by volume the sum is bBig + (rest summed), whose volume is
    area(Big + rest) minus the erosion hole of Big by the rest.
    """
    if len(bodies) < 2:
        raise GeometryError("need at least two bodies")
    ordered = sorted(bodies, key=lambda p: p.area, reverse=True)
    big = ordered[0]
    rest = ordered[1]
    for body in ordered[2:]:
        rest = minkowski_sum(rest, body)
    total = minkowski_sum(big, rest).area
    hole = exact2d.erode(big, rest)
    return total - hole.area


def check_cor_multi(bodies, engine: str = EXACT, *,
                    shapes: Sequence[ShapeSpec] = (),
                    seed: Optional[int] = None,
                    trial: Optional[int] = None) -> InequalityReport:
    """vol((bK_1 + ... + bK_m)/m) >= (vol K_1 * ... * vol K_m)^(1/m), m >= 3.

    Exact engine compares m-th powers to stay rational.  Equality is
    expected exactly when all bodies are translates of one another.
    """
    m = len(bodies)
    if m < 3:
        raise GeometryError("multi-body check needs m >= 3")
    if engine == EXACT:
        n = 2
        lhs_side = multi_boundary_sum_volume(bodies) / Fraction(m) ** n
        lhs = lhs_side ** m
        rhs = Fraction(1)
        for b in bodies:
            rhs *= b.area
        slack = lhs - rhs
        all_translates = all(
            classify_equality(bodies[0], b).tag is EqualityTag.TRANSLATE
            for b in bodies[1:])
        eq_class = EqualityClass(EqualityTag.TRANSLATE) if all_translates \
            else EqualityClass(EqualityTag.NO_EQUALITY)
        return InequalityReport(
            theorem_id="cor-multi", engine=EXACT,
            lhs=lhs, rhs=rhs, slack=slack,
            equality=(slack == 0), equality_class=eq_class,
            shapes=tuple(shapes), seed=seed, trial=trial,
            details={"m": m, "scaled_boundary_sum_volume": lhs_side},
        )
    if engine == VOXEL:
        _require_connected(*bodies)
        n = bodies[0].dim
        acc = boundary(bodies[0])
        bcells = acc.count
        for b in bodies[1:]:
            bb = boundary(b)
            bcells += bb.count
            acc = dilate(acc, bb)
        lhs = volume(acc) / m ** n
        rhs = math.prod(volume(b) for b in bodies) ** (1.0 / m)
        tol = voxel_slack_tolerance(n, bodies[0].h, bcells)
        slack = lhs - rhs
        return InequalityReport(
            theorem_id="cor-multi", engine=VOXEL,
            lhs=lhs, rhs=rhs, slack=slack,
            equality=(abs(slack) <= tol), tolerance=tol,
            shapes=tuple(shapes), seed=seed, trial=trial,
            details={"m": m},
        )
    raise GeometryError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# Weighted two-body product bound
# ---------------------------------------------------------------------------

def check_thm_bbm(k, t, lam, engine: str = EXACT, *, h: Optional[float] = None,
                  shapes: Sequence[ShapeSpec] = (),
                  seed: Optional[int] = None,
                  trial: Optional[int] = None) -> InequalityReport:
    """vol(l*bK + (1-l)*bT) * vol(l*bT + (1-l)*bK)
       >= vol(K) vol(T) (1 - |1-2l|^n)^2.

    Exact engine: k, t are convex polygons and everything stays rational.
    Voxel engine: k, t are ShapeSpecs (scaling needs re-rasterization) and h
    is required.  For l != 1/2, exact-equality pairs that are not
    translates-of-homothets of a centrally symmetric body are flagged rather
    than classified.
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise GeometryError("lambda must lie strictly between 0 and 1")
    if engine == EXACT:
        n = 2
        f_kt = exact2d.boundary_sum_volume(k, t, lam)
        f_tk = exact2d.boundary_sum_volume(t, k, lam)
        lhs = f_kt * f_tk
        rhs = k.area * t.area * (1 - abs(1 - 2 * lam) ** n) ** 2
        slack = lhs - rhs
        eq = slack == 0
        eq_class = classify_equality(k, t)
        flags = []
        if eq and lam != Fraction(1, 2):
            translate_symmetric = (eq_class.tag is EqualityTag.TRANSLATE
                                   and is_centrally_symmetric(k))
            homothet_symmetric = (
                eq_class.tag is EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D)
            if not (translate_symmetric or homothet_symmetric):
                flags.append("equality_outside_characterization")
        return InequalityReport(
            theorem_id="thm-bbm", engine=EXACT,
            lhs=lhs, rhs=rhs, slack=slack,
            equality=eq, equality_class=eq_class,
            shapes=tuple(shapes), lam=lam, seed=seed, trial=trial,
            flags=tuple(flags),
            details={"factor_kt": f_kt, "factor_tk": f_tk},
        )
    if engine == VOXEL:
        if h is None:
            raise GeometryError("voxel engine needs a resolution h")
        lam_f = float(lam)
        gk = voxel.rasterize(k, h)
        gt = voxel.rasterize(t, h)
        _require_connected(gk, gt)
        n = gk.dim

        def weighted(a_spec, b_spec, w):
            ba = boundary(voxel.rasterize(ShapeSpec.scaled(a_spec, w), h))
            bb = boundary(voxel.rasterize(ShapeSpec.scaled(b_spec, 1 - w), h))
            return volume(dilate(ba, bb)), ba.count + bb.count

        f_kt, cells_kt = weighted(k, t, Fraction(lam))
        f_tk, cells_tk = weighted(t, k, Fraction(lam))
        lhs = f_kt * f_tk
        rhs = (volume(gk) * volume(gt)
               * (1 - abs(1 - 2 * lam_f) ** n) ** 2)
        vol_tol = voxel_slack_tolerance(n, h, cells_kt + cells_tk)
        # Error in a product of volumes is first order: dV * (|f1| + |f2|).
        tol = vol_tol * (f_kt + f_tk + 1.0)
        slack = lhs - rhs
        return InequalityReport(
            theorem_id="thm-bbm", engine=VOXEL,
            lhs=lhs, rhs=rhs, slack=slack,
            equality=(abs(slack) <= tol), tolerance=tol,
            shapes=tuple(shapes) or (k, t), lam=lam, seed=seed, trial=trial,
            details={"factor_kt": f_kt, "factor_tk": f_tk},
        )
    raise GeometryError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# The scale-ratio function R_n and the auxiliary scalar inequality
# ---------------------------------------------------------------------------

def rn_value(n: int, lam: float, x: float) -> float:
    """Ratio lower-bound function of the weighted product inequality.

    Constant (16 l^2 (1-l)^2) for n = 2; for n > 2 it attains a strict
    minimum at x = 1 with value (1 - |1-2l|^n)^2 and satisfies
    R(x) = R(1/x).
    """
    if n < 2:
        raise GeometryError("dimension must be at least 2")
    if not x > 0:
        raise GeometryError("x must be positive")
    if not 0.0 <= lam <= 1.0:
        raise GeometryError("lambda must lie in [0, 1]")
    a = abs((1 - lam) * x + lam) ** n - abs((1 - lam) * x - lam) ** n
    b = abs((1 - lam) + lam * x) ** n - abs((1 - lam) - lam * x) ** n
    return a * b / x ** n


def check_rn(n: int, lam: float, x: float, *,
             seed: Optional[int] = None,
             trial: Optional[int] = None) -> InequalityReport:
    """R_n(x) >= R_n(1); equality at x = 1 and everywhere for n = 2."""
    value = rn_value(n, lam, x)
    base = rn_value(n, lam, 1.0)
    slack = value - base
    tol = 1e-9 * max(1.0, abs(base))
    return InequalityReport(
        theorem_id="rn", engine="float",
        lhs=value, rhs=base, slack=slack,
        equality=(abs(slack) <= tol), tolerance=tol,
        seed=seed, trial=trial,
        details={"n": n, "lam": lam, "x": x},
    )


def check_lemma_pbm(xs: Sequence[float], *,
                    seed: Optional[int] = None,
                    trial: Optional[int] = None) -> InequalityReport:
    """(2/(m+1)) sqrt((x_1+...+x_m) x_{m+1}) >= (x_1...x_{m+1})^(1/(m+1)).

    Requires x_i >= 0 and x_1+...+x_m <= x_{m+1} (violating tuples are
    invalid input, not counterexamples).  Strict whenever m > 1, the last
    coordinate is positive and the prefix sum is nonzero; m = 1 always
    gives equality.
    """
    xs = [float(v) for v in xs]
    m = len(xs) - 1
    if m < 1:
        raise GeometryError("need at least two values")
    if any(v < 0 for v in xs):
        raise GeometryError("values must be non-negative")
    prefix = sum(xs[:-1])
    last = xs[-1]
    if prefix > last * (1 + 1e-12):
        raise GeometryError("constraint sum(x_1..x_m) <= x_{m+1} violated")
    lhs = (2.0 / (m + 1)) * math.sqrt(prefix * last)
    rhs = math.prod(xs) ** (1.0 / (m + 1))
    slack = lhs - rhs
    tol = 1e-12 * max(1.0, lhs, rhs)
    strict_expected = m > 1 and last > 0 and prefix > 0
    return InequalityReport(
        theorem_id="lemma-pbm", engine="float",
        lhs=lhs, rhs=rhs, slack=slack,
        equality=(abs(slack) <= tol), tolerance=tol,
        seed=seed, trial=trial,
        details={"m": m, "strict_expected": strict_expected},
    )
