"""Checkers for the boundary-sum volume inequalities and their equality cases.

Each checker produces an InequalityReport whose lhs/rhs are stored in the
*comparable form* actually used for the test: on the exact engine roots are
eliminated by raising both sides to matching powers, so every comparison is
a rational comparison and equality detection is exact.  On the voxel engine
sides are binary64 and a discretization tolerance (first order in the cell
size, scaled by a perimeter proxy) separates findings from noise.

Each statement is written here once, for both engines, and the engines
supply its volumes through their public functions: exact2d the areas of
bodies and boundary sums as Fractions, bmink.voxel cell counts, volumes
and the parts of a sum.  A voxel checker looks up bmink.voxel when it
runs, so the exact and scalar checks never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence, Union

from . import exact2d
from .exact2d import (ConvexPolygon, EqualityClass, EqualityTag, GeometryError,
                      classify_equality, is_centrally_symmetric)
from .serialize import (REPORT_VERSION, GridError, ShapeSpec, encode_number,
                        json_value, shape_node_json)

Value = Union[Fraction, float]

EXACT = "exact"
VOXEL = "voxel"


@dataclass
class InequalityReport:
    """Outcome of one inequality check.

    lhs/rhs are in the comparable form (see module docstring).  The
    verdicts follow from them and the flags once, at construction: slack
    is lhs - rhs, equality is |slack| <= tolerance, and violation, the one
    verdict the campaign counts, is any containment_failed flag (eq-4.2's
    containment failed) or a slack below -tolerance without the flag
    ratio_condition_violated (outside thm-4.2's volume-ratio window, where
    the bound is not claimed, a failure is a finding).  A violation is
    recorded, never dropped.  A zero tolerance is compared as the int 0,
    so an exact Fraction slack is never compared with a float.
    equality_class is populated on the exact engine only.  shapes, seed
    and trial identify the trial: checkers leave them empty and the
    campaign sets them.  A shape is a ShapeSpec or an exact
    ConvexPolygon, which line() writes as the polygon node of its ring.
    """

    theorem_id: str
    engine: str
    lhs: Value
    rhs: Value
    slack: Value = field(init=False)
    equality: bool = field(init=False)
    violation: bool = field(init=False)
    equality_class: Optional[EqualityClass] = None
    shapes: tuple[Union[ShapeSpec, ConvexPolygon], ...] = ()
    lam: Optional[Fraction] = None
    seed: Optional[int] = None
    trial: Optional[int] = None
    tolerance: float = 0.0
    flags: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        slack = self.slack = self.lhs - self.rhs
        tol = self.tolerance or 0
        # bool(): a numpy side would otherwise leave numpy.bool_ verdicts
        self.equality = bool(abs(slack) <= tol)
        self.violation = ("containment_failed" in self.flags
                          or bool(slack < -tol)
                          and "ratio_condition_violated" not in self.flags)

    def shapes_json(self) -> str:
        """The "shapes" value of line(), which the reports of one trial
        share and their caller may pass in: each shape's node as
        shape_node_json writes it, in a list as dumps_canonical writes one."""
        return "[" + ",".join(map(shape_node_json, self.shapes)) + "]"

    def line(self, shapes: Optional[str] = None) -> str:
        """The report's JSON line, without its newline, as dumps_canonical
        writes its 16 fields: json_value writes each value, a number after
        encode_number (rationals as "p/q" strings), and shapes_json() the
        shapes.  details keys are strings."""
        eq, eq_class = self.equality_class, "null"
        if eq is not None:
            t = eq.translation
            ratio = ("" if eq.ratio is None else
                     f'"ratio":{json_value(encode_number(eq.ratio))},')
            moved = ("" if t is None else ',"translation":[' + ",".join(
                [json_value(encode_number(c)) for c in t]) + "]")
            eq_class = f'{{{ratio}"tag":{json_value(eq.tag.value)}{moved}}}'
        details = ",".join([f"{encode_basestring_ascii(k)}:{json_value(v)}"
                            for k, v in sorted(self.details.items())])
        if shapes is None:
            shapes = self.shapes_json()
        lam, lhs, rhs, slack = [
            "null" if v is None else json_value(encode_number(v))
            for v in (self.lam, self.lhs, self.rhs, self.slack)]
        return (f'{{"details":{{{details}}},'
                f'"engine":{json_value(self.engine)},'
                f'"equality":{json_value(self.equality)},'
                f'"equality_class":{eq_class},'
                f'"flags":[{",".join(map(json_value, self.flags))}],'
                f'"lambda":{lam},"lhs":{lhs},"rhs":{rhs},'
                f'"seed":{json_value(self.seed)},"shapes":{shapes},'
                f'"slack":{slack},"theorem_id":{json_value(self.theorem_id)},'
                f'"tolerance":{json_value(self.tolerance)},'
                f'"trial":{json_value(self.trial)},"v":{REPORT_VERSION},'
                f'"violation":{json_value(self.violation)}}}')


def voxel_slack_tolerance(n: int, h: float, boundary_cells: int) -> float:
    """Allowed negative slack (volume units) for voxel-engine comparisons.

    Minkowski-volume discretization error is first order in h and scales
    with boundary measure, estimated as boundary cell count * h^(n-1).
    """
    return 3.0 * n * h * (boundary_cells * h ** (n - 1))


def _require_voxel_hypotheses(*grids) -> None:
    """The voxel checkers' hypotheses: one grid, every boundary connected."""
    from . import voxel
    if not all(g.same_grid(grids[0]) for g in grids):
        raise GridError("operands must share dimension and resolution")
    if not all(map(voxel.is_boundary_connected, grids)):
        raise GridError("voxel checks require connected boundaries")


# ---------------------------------------------------------------------------
# The power-mean bounds: thm-av (two bodies) and cor-multi (m >= 3)
# ---------------------------------------------------------------------------

def _power_mean(bodies) -> tuple[Value, Value, Value, float]:
    """vol((bK_1 + ... + bK_m)/m) >= (vol K_1 * ... * vol K_m)^(1/m), the
    side vol(bK_1 + ... + bK_m) / m^n supplied by the engine.  Returns the
    side, lhs, rhs and tolerance: on polygons (n = 2) side^m against the
    area product, rational, so equality is exact; on voxels the side
    against the m-th root of the volume product, math.sqrt's for two
    bodies (a float power 1/2 can differ in the last bit).
    """
    m = len(bodies)
    if isinstance(bodies[0], ConvexPolygon):
        side = exact2d.multi_boundary_sum_volume(bodies) / (m * m)
        return side, side ** m, exact2d.area_product(bodies), 0.0
    from . import voxel
    _require_voxel_hypotheses(*bodies)
    n = bodies[0].dim
    side = voxel.volume(voxel.boundary_sum(bodies)) / m ** n
    product = math.prod(map(voxel.volume, bodies))
    root = math.sqrt(product) if m == 2 else product ** (1.0 / m)
    tol = voxel_slack_tolerance(
        n, bodies[0].h, sum(voxel.boundary(b).count for b in bodies))
    return side, side, root, tol


def check_thm_av(k, t) -> InequalityReport:
    """vol((bK + bT)/2) >= sqrt(vol K * vol T), _power_mean's statement for
    two bodies.  On convex polygons lhs/rhs are the squared sides and
    classify_equality classifies equality; on grids (connected boundaries,
    convexity not required) they are the sides.  The engine follows from
    the type of k."""
    side, lhs, rhs, tol = _power_mean((k, t))
    if isinstance(k, ConvexPolygon):
        return InequalityReport(
            theorem_id="thm-av", engine=EXACT, lhs=lhs, rhs=rhs,
            equality_class=classify_equality(k, t),
            details={"boundary_sum_volume": side})
    from . import voxel
    return InequalityReport(
        theorem_id="thm-av", engine=VOXEL, lhs=lhs, rhs=rhs, tolerance=tol,
        details={"vol_k": voxel.volume(k), "vol_t": voxel.volume(t)})


def check_cor_multi(bodies) -> InequalityReport:
    """vol((bK_1 + ... + bK_m)/m) >= (vol K_1 * ... * vol K_m)^(1/m), m >= 3,
    _power_mean's statement: convex polygons compare m-th powers, grids
    the sides.  Equality is expected exactly when all bodies are
    translates of one another."""
    m = len(bodies)
    if m < 3:
        raise GeometryError("multi-body check needs m >= 3")
    side, lhs, rhs, tol = _power_mean(bodies)
    if isinstance(bodies[0], ConvexPolygon):
        eq_class = EqualityClass(EqualityTag.TRANSLATE if all(
            classify_equality(bodies[0], b).tag is EqualityTag.TRANSLATE
            for b in bodies[1:]) else EqualityTag.NO_EQUALITY)
        return InequalityReport(
            theorem_id="cor-multi", engine=EXACT, lhs=lhs, rhs=rhs,
            equality_class=eq_class,
            details={"m": m, "scaled_boundary_sum_volume": side})
    return InequalityReport(
        theorem_id="cor-multi", engine=VOXEL, lhs=lhs, rhs=rhs,
        tolerance=tol, details={"m": m})


# ---------------------------------------------------------------------------
# Weighted two-body product bound
# ---------------------------------------------------------------------------

def check_thm_bbm(k, t, lam) -> InequalityReport:
    """vol(l*bK + (1-l)*bT) * vol(l*bT + (1-l)*bK)
       >= vol(K) vol(T) (1 - |1-2l|^n)^2.

    Exact engine: k, t are convex polygons and everything stays rational.
    Voxel engine: k, t are (GridSet, ShapeSpec) pairs, a body and the spec
    it was rasterized from.  The grids give vol K, vol T and the resolution
    h; the scaled bodies are rasterized from the specs at that h, and their
    boundary sum needs no connected boundary.  The engine follows from the
    type of k.  For l != 1/2, exact-equality pairs that are not
    translates-of-homothets of a centrally symmetric body are flagged
    rather than classified.
    """
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise GeometryError("lambda must lie strictly between 0 and 1")
    if isinstance(k, ConvexPolygon):
        f_kt = exact2d.boundary_sum_volume(k, t, lam)
        f_tk = exact2d.boundary_sum_volume(t, k, lam)
        lhs = f_kt * f_tk
        p, q = lam.numerator, lam.denominator  # 1 - |1 - 2l|^2 = 4l(1 - l)
        rhs = k.area * t.area * Fraction((4 * p * (q - p)) ** 2, q ** 4)
        eq_class = classify_equality(k, t)
        tag = eq_class.tag
        outside = lhs == rhs and lam != Fraction(1, 2) and not (
            tag is EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D
            or tag is EqualityTag.TRANSLATE and is_centrally_symmetric(k))
        return InequalityReport(
            theorem_id="thm-bbm", engine=EXACT, lhs=lhs, rhs=rhs,
            equality_class=eq_class, lam=lam,
            flags=("equality_outside_characterization",) if outside else (),
            details={"factor_kt": f_kt, "factor_tk": f_tk})
    from . import voxel
    (gk, k_spec), (gt, t_spec) = k, t
    _require_voxel_hypotheses(gk, gt)
    n, h = gk.dim, gk.h

    def weighted(a_spec, b_spec):
        pair = [voxel.rasterize(ShapeSpec.scaled(a_spec, lam), h),
                voxel.rasterize(ShapeSpec.scaled(b_spec, 1 - lam), h)]
        return (voxel.volume(voxel.boundary_sum(pair)),
                sum(voxel.boundary(g).count for g in pair))

    f_kt, cells_kt = weighted(k_spec, t_spec)
    f_tk, cells_tk = weighted(t_spec, k_spec)
    lhs = f_kt * f_tk
    rhs = (voxel.volume(gk) * voxel.volume(gt)
           * (1 - abs(1 - 2 * float(lam)) ** n) ** 2)
    vol_tol = voxel_slack_tolerance(n, h, cells_kt + cells_tk)
    # Error in a product of volumes is first order: dV * (|f1| + |f2|).
    tol = vol_tol * (f_kt + f_tk + 1.0)
    return InequalityReport(
        theorem_id="thm-bbm", engine=VOXEL, lhs=lhs, rhs=rhs, tolerance=tol,
        lam=lam, details={"factor_kt": f_kt, "factor_tk": f_tk})


# ---------------------------------------------------------------------------
# The arithmetic bound thm-4.2 and the restricted-sum bounds eq-4.2, eq-4.3
# ---------------------------------------------------------------------------

def _in_window(n: int, vol_k, vol_t) -> bool:
    """(vol K / vol T)^(1/n) in [1/sqrt(n), sqrt(n)], decided exactly on
    volumes in one unit: vol_t^2 <= n^n vol_k^2 and vol_k^2 <= n^n vol_t^2."""
    return (vol_t * vol_t <= n ** n * vol_k * vol_k
            and vol_k * vol_k <= n ** n * vol_t * vol_t)


def check_thm_4_2(k, t) -> list[InequalityReport]:
    """thm-4.2: vol(bK + bT)^(2/n) >= vol(K)^(2/n) + vol(T)^(2/n), and on
    voxels the bounds eq-4.2 and eq-4.3 of its proof: the reports
    thm-4.2, eq-4.2 and eq-4.3 of one pair, in order.

    The volume-ratio window (vol K / vol T)^(1/n) in [1/sqrt(n), sqrt(n)]
    is recorded but not enforced (_in_window decides it, on the exact
    areas or the cell counts): out-of-window pairs are admitted to map
    where the unconditioned inequality fails, and their failures are
    tagged expected findings instead of violations.  Voxel reports also
    record details.ratio, (vol K / vol T)^(1/n) as a float; exact reports
    carry only the exact vol_k and vol_t, from which the ratio follows.

    Exact engine (convex polygons, n = 2, so the exponent 2/n is 1): one
    report, compared in rationals.  Voxel engine, with the parts of K + T
    from voxel.decompose_sum, whose precondition (T a box, |K| >= |T|, bK
    connected) is the checker's: thm-4.2 (tolerance), then
    eq-4.2 (cell-exact): the pairs (x, y) of K x T with x not in
    (erosion - y) number at least |T| (|K| - |K erosion T|), and their sum
    set, (K + T) minus the erosion, lies inside bK + bT, else the report is
    flagged containment_failed.  On voxels the count holds with equality:
    every erosion cell x has x - T inside interior(K), so exactly |T|
    pairs of K x T sum to x.  Slack 0 and equality true always, so eq-4.2
    carries only the containment verdict.
    eq-4.3 (tolerance): vol(K erosion T)^(1/n) <= vol(K)^(1/n) - vol(T)^(1/n),
    allowing first-order discretization error in the linear scale.
    """
    if isinstance(k, ConvexPolygon):
        n, vol_k, vol_t = 2, k.area, t.area
        sizes, engine, proof = (vol_k, vol_t), EXACT, []
        lhs, rhs, tol = exact2d.partial_sum_area(k, t), vol_k + vol_t, 0.0
    else:
        from . import voxel
        bsum_set, erosion, contained = voxel.decompose_sum(k, t)
        n, h = k.dim, k.h
        vol_k, vol_t = voxel.volume(k), voxel.volume(t)
        sizes, engine = (k.count, t.count), VOXEL
        bsum = voxel.volume(bsum_set)
        lhs = bsum ** (2.0 / n)
        rhs = vol_k ** (2.0 / n) + vol_t ** (2.0 / n)
        vol_tol = voxel_slack_tolerance(
            n, h, voxel.boundary_count(k) + voxel.boundary_count(t))
        vref = max(min(vol_k, vol_t, max(bsum, 1e-12)), 1e-12)
        tol = vol_tol * (2.0 / n) * vref ** (2.0 / n - 1.0)

        admitted = t.count * (k.count - erosion.count)  # the identity above
        vols = {"vol_k": vol_k, "vol_t": vol_t,
                "vol_erosion": voxel.volume(erosion),
                "vol_theta": admitted * h ** (2 * n)}  # product-measure units
        pairs = InequalityReport(
            theorem_id="eq-4.2", engine=VOXEL, lhs=admitted, rhs=admitted,
            flags=() if contained else ("containment_failed",),
            details={**vols, "admitted_pairs": admitted,
                     "containment_verdict": contained})
        roots = InequalityReport(
            theorem_id="eq-4.3", engine=VOXEL,
            lhs=vol_k ** (1.0 / n) - vol_t ** (1.0 / n),
            rhs=vols["vol_erosion"] ** (1.0 / n),
            tolerance=3.0 * n * h, details=vols)
        proof = [pairs, roots]
    ratio_ok = _in_window(n, *sizes)
    details = {"vol_k": vol_k, "vol_t": vol_t, "ratio_ok": ratio_ok}
    if engine == VOXEL:
        details["ratio"] = (vol_k / vol_t) ** (1.0 / n)
    return [InequalityReport(
        theorem_id="thm-4.2", engine=engine, lhs=lhs, rhs=rhs, tolerance=tol,
        flags=() if ratio_ok else ("ratio_condition_violated",),
        details=details), *proof]


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
    report, = check_thm_4_2(square, small)
    return {"a": a, "lhs": report.lhs, "rhs": report.rhs,
            "holds": not report.slack < 0,
            "ratio_ok": report.details["ratio_ok"], "report": report}


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


def check_rn(n: int, lam: float, x: float) -> InequalityReport:
    """R_n(x) >= R_n(1); equality at x = 1 and everywhere for n = 2."""
    value = rn_value(n, lam, x)
    base = rn_value(n, lam, 1.0)
    return InequalityReport(
        theorem_id="rn", engine="float", lhs=value, rhs=base,
        tolerance=1e-9 * max(1.0, abs(base)),
        details={"n": n, "lam": lam, "x": x},
    )


def left_sum(xs: Iterable[float]) -> float:
    """The float sum of xs added left to right, rounded once per term.
    Since Python 3.12 the built-in sum() of floats compensates its
    rounding, so its last bit, and a report's bytes, would depend on the
    Python version."""
    total = 0.0
    for x in xs:
        total += x
    return total


def check_lemma_pbm(xs: Sequence[float]) -> InequalityReport:
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
    prefix = left_sum(xs[:-1])
    last = xs[-1]
    if prefix > last * (1 + 1e-12):
        raise GeometryError("constraint sum(x_1..x_m) <= x_{m+1} violated")
    lhs = (2.0 / (m + 1)) * math.sqrt(prefix * last)
    rhs = math.prod(xs) ** (1.0 / (m + 1))
    strict_expected = m > 1 and last > 0 and prefix > 0
    return InequalityReport(
        theorem_id="lemma-pbm", engine="float", lhs=lhs, rhs=rhs,
        tolerance=1e-12 * max(1.0, lhs, rhs),
        details={"m": m, "strict_expected": strict_expected},
    )
