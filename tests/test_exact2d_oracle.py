"""The integer-lattice exact engine against the Fraction implementation it
replaced.

The `ref_*` functions below are the former `fractions.Fraction` code of
`bmink.exact2d`, kept here as the reference: they work on tuples of
`Point2` vertices and never leave `Fraction` arithmetic.  Every property
asserts exact agreement: the same canonical vertex tuples, the same areas,
the same erosion emptiness and regions, and the same equality tags and
witnesses.  Inputs mix non-dyadic denominators (1/3, 1/7) with the 1/16 grid
of the generators, λ = k/16 and λ = p/q with q up to 21 (so p and q share
factors with the ring denominators), a 64-gon on the 2**-20 grid, and
translate, homothet and equal-area pairs; the multi-body boundary sum is
checked on three and four bodies.

The hull builds its polygon straight from the monotone-chain ring;
`walked_hull` is the former path, which handed that ring to the
constructor to be walked again by `_canonical_ring`, and stays here as
the oracle of the hull.

`_erosion_ring` intersects K's edge half-planes in one sorted deque sweep;
`clipped_erosion_ring` is the integer clip it replaced, which cut a box by
each half-plane in turn (Sutherland-Hodgman), and stays here beside
`ref_erode` as the oracle of the erosion.
"""

from fractions import Fraction as F
from math import gcd, lcm
from typing import Optional, Sequence

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bmink.exact2d import (ConvexPolygon, EqualityTag, GeometryError, Point2,
                           _Lattice, _area2, _common, _erosion_ring, _rings,
                           _sum_ring, boundary_sum_volume, classify_equality,
                           erode, is_centrally_symmetric, minkowski_sum,
                           multi_boundary_sum_volume, partial_sum_area,
                           reflect, scale, translate)

Ring = tuple[Point2, ...]


class EngineInconsistencyError(GeometryError):
    """An invariant of the reference failed; indicates a bug, not bad input."""


def dot(a: Point2, b: Point2) -> F:
    return a.x * b.x + a.y * b.y


# -- the Fraction reference ------------------------------------------------------

def ref_canonical_ring(vertices: Sequence[Sequence]) -> Ring:
    """Collapse duplicates/collinear triples and rotate to the lex-min vertex."""
    verts = [Point2(F(p[0]), F(p[1])) for p in vertices]
    dedup: list[Point2] = []
    for p in verts:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    changed = True
    while changed and len(dedup) >= 3:
        changed = False
        out: list[Point2] = []
        n = len(dedup)
        for i in range(n):
            a, b, c = dedup[i - 1], dedup[i], dedup[(i + 1) % n]
            turn = (b - a).cross(c - b)
            if turn < 0:
                raise GeometryError("vertex ring is not counterclockwise convex")
            if turn == 0:
                changed = True
                continue
            out.append(b)
        dedup = out
    if len(dedup) < 3:
        raise GeometryError("polygon needs at least 3 non-collinear vertices")
    k = min(range(len(dedup)), key=lambda i: dedup[i])
    ring = tuple(dedup[k:] + dedup[:k])
    for i in range(len(ring)):
        a, b, c = ring[i - 1], ring[i], ring[(i + 1) % len(ring)]
        if (b - a).cross(c - b) <= 0:
            raise EngineInconsistencyError("canonical ring not strictly convex")
    return ring


def ref_hull(points: Sequence[Sequence]) -> Ring:
    pts = sorted({Point2(F(p[0]), F(p[1])) for p in points})
    if len(pts) < 3:
        raise GeometryError("hull needs at least 3 distinct points")

    def chain(seq):
        out: list[Point2] = []
        for p in seq:
            while len(out) >= 2 and (out[-1] - out[-2]).cross(p - out[-1]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    return ref_canonical_ring(lower[:-1] + upper[:-1])


def ref_area2(ring: Sequence[Point2]) -> F:
    total = F(0)
    for i in range(len(ring)):
        total += ring[i].cross(ring[(i + 1) % len(ring)])
    return total


def ref_area(ring: Ring) -> F:
    return ref_area2(ring) / 2


def ref_edges(ring: Ring) -> list[Point2]:
    return [ring[(i + 1) % len(ring)] - ring[i] for i in range(len(ring))]


def ref_contains(ring: Ring, u: Point2) -> bool:
    """Closed-set membership: u lies on the left of (or on) every edge of
    the counterclockwise ring."""
    return all(e.cross(u - v) >= 0 for v, e in zip(ring, ref_edges(ring)))


def _angle_half(d: Point2) -> int:
    return 0 if (d.x > 0 or (d.x == 0 and d.y > 0)) else 1


def _angle_less(a: Point2, b: Point2) -> bool:
    ha, hb = _angle_half(a), _angle_half(b)
    if ha != hb:
        return ha < hb
    return a.cross(b) > 0


def ref_minkowski_sum(p: Ring, q: Ring) -> Ring:
    pe, qe = ref_edges(p), ref_edges(q)
    edges: list[Point2] = []
    i = j = 0
    while i < len(pe) and j < len(qe):
        if _angle_less(pe[i], qe[j]):
            edges.append(pe[i])
            i += 1
        elif _angle_less(qe[j], pe[i]):
            edges.append(qe[j])
            j += 1
        else:
            edges.append(pe[i] + qe[j])
            i += 1
            j += 1
    edges.extend(pe[i:])
    edges.extend(qe[j:])
    ring = [p[0] + q[0]]
    for e in edges[:-1]:
        ring.append(ring[-1] + e)
    return ref_canonical_ring(ring)


def ref_support(ring: Ring, u: Point2) -> F:
    return max(dot(v, u) for v in ring)


def ref_width(ring: Ring, u: Point2) -> F:
    return ref_support(ring, u) + ref_support(ring, -u)


def ref_clip_halfplane(ring: list[Point2], u: Point2, c: F) -> list[Point2]:
    if not ring:
        return []
    out: list[Point2] = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        da, db = c - dot(a, u), c - dot(b, u)
        if da >= 0:
            out.append(a)
        if (da > 0 and db < 0) or (da < 0 and db > 0):
            t = da / (da - db)
            out.append(a + (b - a) * t)
    return out


def ref_erode(k: Ring, t: Ring) -> Optional[Ring]:
    """Closure of K (-) T as a canonical ring, or None when it is empty."""
    lo = Point2(min(p.x for p in k) + min(p.x for p in t) - 1,
                min(p.y for p in k) + min(p.y for p in t) - 1)
    hi = Point2(max(p.x for p in k) + max(p.x for p in t) + 1,
                max(p.y for p in k) + max(p.y for p in t) + 1)
    ring = [lo, Point2(hi.x, lo.y), hi, Point2(lo.x, hi.y)]
    for e in ref_edges(k):
        u = Point2(e.y, -e.x)
        ring = ref_clip_halfplane(ring, u, ref_support(k, u) - ref_support(t, -u))
        if not ring:
            return None
    if ref_area2(ring) == 0:
        return None
    return ref_canonical_ring(ring)


def ref_erosion_blocked(k: Ring, t: Ring) -> bool:
    for e in ref_edges(k) + ref_edges(t):
        u = Point2(e.y, -e.x)
        if ref_width(t, u) >= ref_width(k, u):
            return True
    return False


def ref_partial_sum_area(a: Ring, b: Ring) -> F:
    """Both erosions, each behind the width pre-filter, as before."""
    total = ref_area(ref_minkowski_sum(a, b))
    ab = None if ref_erosion_blocked(a, b) else ref_erode(a, b)
    ba = None if ref_erosion_blocked(b, a) else ref_erode(b, a)
    if ab is not None and ba is not None:
        raise EngineInconsistencyError(
            "both erosions nonempty; contradicts the sum decomposition")
    return (total - (ref_area(ab) if ab is not None else 0)
            - (ref_area(ba) if ba is not None else 0))


def ref_multi_boundary_sum(bodies: Sequence[Ring]) -> F:
    """The largest body's boundary plus the full sum of the others."""
    big, *others = sorted(bodies, key=ref_area, reverse=True)
    rest = others[0]
    for ring in others[1:]:
        rest = ref_minkowski_sum(rest, ring)
    hole = ref_erode(big, rest)
    return (ref_area(ref_minkowski_sum(big, rest))
            - (ref_area(hole) if hole is not None else 0))


def ref_scale(ring: Ring, f: F) -> Ring:
    return ref_canonical_ring([v * f for v in ring])


def ref_translation_witness(k: Ring, t: Ring) -> Optional[Point2]:
    if len(k) != len(t):
        return None
    shift = t[0] - k[0]
    for a, b in zip(k, t):
        if a + shift != b:
            return None
    return shift


def ref_homothety_witness(k: Ring, t: Ring) -> Optional[tuple[F, Point2]]:
    if len(k) != len(t):
        return None
    ek = k[1] - k[0]
    et = t[1] - t[0]
    if ek.cross(et) != 0:
        return None
    ratio = et.x / ek.x if ek.x != 0 else et.y / ek.y
    if ratio <= 0:
        return None
    shift = t[0] - k[0] * ratio
    for a, b in zip(k, t):
        if a * ratio + shift != b:
            return None
    return ratio, shift


def ref_classify(k: Ring, t: Ring) -> tuple[EqualityTag, Optional[Point2],
                                            Optional[F]]:
    shift = ref_translation_witness(k, t)
    if shift is not None:
        return EqualityTag.TRANSLATE, shift, None
    hom = ref_homothety_witness(k, t)
    reflected = ref_canonical_ring([-v for v in k])
    if hom is not None and ref_translation_witness(k, reflected) is not None:
        return EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D, hom[1], hom[0]
    return EqualityTag.NO_EQUALITY, None, None


# -- the integer clip -----------------------------------------------------------

IntRing = Sequence[tuple[int, int]]
HomRing = list[tuple[int, int, int]]


def clip_halfplane(ring: HomRing, ux: int, uy: int, c: int) -> HomRing:
    """Clip a convex CCW ring of homogeneous points (X, Y, W), W > 0,
    against {x : <x,u> <= c} (Sutherland-Hodgman)."""
    # d = W * (c - <x, u>) has the sign of the slack of the point X/W, Y/W.
    ds = [c * w - x * ux - y * uy for x, y, w in ring]
    out: HomRing = []
    n = len(ring)
    for i in range(n):
        a, da = ring[i], ds[i]
        j = (i + 1) % n
        db = ds[j]
        if da >= 0:
            out.append(a)
        if (da > 0 and db < 0) or (da < 0 and db > 0):
            # a + (b - a) * t with t = da / (da - db), over one weight.
            b = ring[j]
            x = b[0] * da - a[0] * db
            y = b[1] * da - a[1] * db
            w = b[2] * da - a[2] * db
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(x, y, w)
            out.append((x // g, y // g, w // g))
    return out


def clipped_erosion_ring(kr: IntRing, tr: IntRing
                         ) -> tuple[list[tuple[int, int]], int]:
    """_erosion_ring as it was: a box that contains K (-) T clipped by each
    edge half-plane of K, with the support offset a minimum over all of T."""
    kxs, kys = [x for x, _ in kr], [y for _, y in kr]
    txs, tys = [x for x, _ in tr], [y for _, y in tr]
    x0, y0 = min(kxs) + min(txs) - 1, min(kys) + min(tys) - 1
    x1, y1 = max(kxs) + max(txs) + 1, max(kys) + max(tys) + 1
    ring: HomRing = [(x0, y0, 1), (x1, y0, 1), (x1, y1, 1), (x0, y1, 1)]
    for (ax, ay), (bx, by) in zip(kr, [*kr[1:], kr[0]]):
        ux, uy = by - ay, ax - bx
        c = ax * ux + ay * uy + min(x * ux + y * uy for x, y in tr)
        ring = clip_halfplane(ring, ux, uy, c)
        if not ring:
            return [], 1
    m = lcm(*(w for _, _, w in ring))
    return [(x * (m // w), y * (m // w)) for x, y, w in ring], m


# -- strategies ------------------------------------------------------------------

DENS = (1, 3, 7, 16)


@st.composite
def rationals(draw, span: int = 3):
    d = draw(st.sampled_from(DENS))
    return F(draw(st.integers(-span * d, span * d)), d)


point_lists = st.lists(st.tuples(rationals(), rationals()),
                       min_size=3, max_size=9)


@st.composite
def polygons(draw):
    try:
        return ConvexPolygon.hull(draw(point_lists))
    except GeometryError:
        assume(False)


@st.composite
def symmetric_polygons(draw):
    pts = draw(st.lists(st.tuples(rationals(), rationals()),
                        min_size=2, max_size=5))
    try:
        return ConvexPolygon.hull(pts + [(-x, -y) for x, y in pts])
    except GeometryError:
        assume(False)


# k/16 as the campaigns draw them, and p/q with q up to 21, such as 1/3,
# 2/7 and 5/12.
lambdas = st.one_of(
    st.integers(1, 15).map(lambda k: F(k, 16)),
    st.integers(2, 21).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))))
ratios = st.integers(1, 40).map(lambda k: F(k, 16))
shifts = st.builds(Point2, rationals(), rationals())

PAIR_KINDS = ("random", "translate", "homothet", "symmetric_homothet",
              "reflect", "equal_area_boxes")


@st.composite
def pairs(draw):
    """A (K, T) pair of one of the kinds the campaigns and fixtures produce."""
    kind = draw(st.sampled_from(PAIR_KINDS))
    if kind == "random":
        return draw(polygons()), draw(polygons())
    if kind == "translate":
        k = draw(polygons())
        return k, translate(k, draw(shifts))
    if kind == "homothet":
        k = draw(polygons())
        return k, translate(scale(k, draw(ratios)), draw(shifts))
    if kind == "symmetric_homothet":
        k = draw(symmetric_polygons())
        return k, translate(scale(k, draw(ratios)), draw(shifts))
    if kind == "reflect":
        k = draw(polygons())
        return k, translate(reflect(k), draw(shifts))
    return draw(equal_area_boxes())


@st.composite
def equal_area_boxes(draw):
    """Two boxes of equal area and different shape."""
    a = F(draw(st.integers(1, 12)), 3)
    b = F(draw(st.integers(1, 12)), 7)
    c = draw(st.sampled_from((F(2), F(3), F(1, 2), F(7, 3))))
    lo = draw(shifts)
    return (ConvexPolygon.box(lo, (lo.x + a, lo.y + b)),
            ConvexPolygon.box((0, 0), (a * c, b / c)))


@st.composite
def body_lists(draw):
    """Three or four bodies: random ones, translates of one body, or an
    equal-area pair beside scaled random bodies."""
    kind = draw(st.sampled_from(("random", "translates", "equal_area")))
    m = draw(st.integers(3, 4))
    if kind == "random":
        return [draw(polygons()) for _ in range(m)]
    if kind == "translates":
        k = draw(polygons())
        return [k] + [translate(k, draw(shifts)) for _ in range(m - 1)]
    others = [scale(draw(polygons()), draw(ratios)) for _ in range(m - 2)]
    return [*draw(equal_area_boxes()), *others]


GON = ConvexPolygon.regular_gon(64)


def assert_matches(poly: ConvexPolygon, ring: Ring) -> None:
    """The same vertex tuple, and equal and equally hashed to the polygon
    built from the reference ring: the stored lattice is in lowest terms."""
    assert poly.vertices == ring
    rebuilt = ConvexPolygon(ring)
    assert poly == rebuilt and hash(poly) == hash(rebuilt)


# -- construction and canonical form -----------------------------------------------

@given(point_lists)
@settings(max_examples=200, deadline=None)
def test_hull_matches_reference(pts):
    try:
        expected = ref_hull(pts)
    except GeometryError:
        with pytest.raises(GeometryError):
            ConvexPolygon.hull(pts)
        return
    p = ConvexPolygon.hull(pts)
    assert_matches(p, expected)
    assert p.area == ref_area(expected)
    assert len(p) == len(expected)


def turn(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Cross product of (b - a) and (c - b): positive for a left turn."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def walked_hull(ring: Sequence[tuple[int, int]], den: int) -> ConvexPolygon:
    """The hull as it was built before: the monotone-chain ring handed to
    the constructor, which walks it again through _canonical_ring."""
    pts = sorted(set(ring))
    if len(pts) < 3:
        raise GeometryError("hull needs at least 3 distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(pts[::-1])
    return ConvexPolygon(_Lattice(lower[:-1] + upper[:-1], den))


@st.composite
def lattice_point_sets(draw):
    """Integer points over a denominator, as the generators pass them to
    the hull: random points with a collinear run, or the run alone (all
    collinear), with repeated points, and with a factor shared by the
    denominator and every coordinate."""
    coord = st.integers(-48, 48)
    run_start = draw(st.tuples(coord, coord))
    dx, dy = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    run = [(run_start[0] + t * dx, run_start[1] + t * dy)
           for t in range(draw(st.integers(0, 6)))]
    if draw(st.integers(0, 3)) == 0:
        pts = run
    else:
        pts = draw(st.lists(st.tuples(coord, coord), max_size=9)) + run
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    pts = draw(st.permutations(pts))
    factor = draw(st.sampled_from((1, 2, 6)))
    den = draw(st.sampled_from((1, 3, 16))) * factor
    return [(x * factor, y * factor) for x, y in pts], den


@given(lattice_point_sets())
@example(([(0, 0), (4, 0), (0, 4), (0, 0), (4, 0)], 16))  # duplicates
@example(([(0, 0), (2, 0), (4, 0), (4, 4), (2, 2), (0, 4)], 8))  # runs
@example(([(2, 4), (6, 4), (2, 10)], 6))  # factor 2 of den and coordinates
@example(([(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)], 16))  # all collinear
@example(([(0, 0), (0, 0), (0, 0), (5, 5)], 1))  # two distinct points
@settings(max_examples=300, deadline=None)
def test_hull_is_canonical_as_built(points):
    ring, den = points
    try:
        expected = walked_hull(ring, den)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as raised:
            ConvexPolygon.hull(_Lattice(ring, den))
        assert str(raised.value) == str(exc)
        return
    p = ConvexPolygon.hull(_Lattice(ring, den))
    assert (p._ring, p._den) == (expected._ring, expected._den)
    assert p == expected and hash(p) == hash(expected)
    assert p.vertices == ref_hull([(F(x, den), F(y, den)) for x, y in ring])


def test_all_collinear_hull_raises_the_constructor_error():
    line = [(0, 0), (3, 1), (6, 2), (9, 3)]
    message = "polygon needs at least 3 non-collinear vertices"
    with pytest.raises(GeometryError, match=f"^{message}$"):
        ConvexPolygon(_Lattice(line, 16))
    with pytest.raises(GeometryError, match=f"^{message}$"):
        ConvexPolygon.hull(_Lattice(line, 16))


@given(polygons(), st.integers(0, 8), st.integers(0, 8), st.booleans())
@settings(max_examples=150, deadline=None)
def test_ring_construction_matches_reference(p, rot, at, reverse):
    # Rotate, add a collinear midpoint and a duplicate; optionally reverse
    # the ring, which both sides must reject as clockwise.
    ring = list(p.vertices)
    ring = ring[rot % len(ring):] + ring[:rot % len(ring)]
    i = at % len(ring)
    a, b = ring[i], ring[(i + 1) % len(ring)]
    ring.insert(i + 1, Point2((a.x + b.x) / 2, (a.y + b.y) / 2))
    ring.insert(i + 1, a)
    if reverse:
        ring.reverse()
        with pytest.raises(GeometryError):
            ref_canonical_ring(ring)
        with pytest.raises(GeometryError):
            ConvexPolygon(ring)
        return
    assert ConvexPolygon(ring).vertices == ref_canonical_ring(ring) == p.vertices


def test_regular_gon_matches_reference():
    import math

    d = 2 ** 20
    pts = [(F(round(math.cos(2 * math.pi * k / 64) * d), d),
            F(round(math.sin(2 * math.pi * k / 64) * d), d)) for k in range(64)]
    assert_matches(GON, ref_hull(pts))
    assert GON.area == ref_area(ref_hull(pts))


# -- transforms, containment and bounding box ---------------------------------------

@given(polygons(), lambdas, shifts)
@settings(max_examples=100, deadline=None)
def test_transforms_match_reference(p, lam, v):
    ring = p.vertices
    assert_matches(scale(p, lam), ref_scale(ring, lam))
    assert_matches(translate(p, v), ref_canonical_ring([w + v for w in ring]))
    assert_matches(reflect(p), ref_canonical_ring([-w for w in ring]))


@given(polygons())
@settings(max_examples=100, deadline=None)
def test_contains_and_bbox_match_reference(p):
    # ref_contains, the containment oracle of test_exact2d, is closed: it
    # holds every vertex, and no point beyond the bounding box.
    ring = p.vertices
    lo, hi = p.bbox()
    assert (lo, hi) == (Point2(min(v.x for v in ring), min(v.y for v in ring)),
                        Point2(max(v.x for v in ring), max(v.y for v in ring)))
    assert all(ref_contains(ring, v) for v in ring)
    assert not ref_contains(ring, hi + Point2(1, 0))


# -- sums, erosions and boundary sums ---------------------------------------------------

@given(pairs())
@settings(max_examples=150, deadline=None)
def test_minkowski_sum_matches_reference(pair):
    k, t = pair
    s = minkowski_sum(k, t)
    expected = ref_minkowski_sum(k.vertices, t.vertices)
    assert_matches(s, expected)
    assert s.area == ref_area(expected)


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_erosion_matches_reference(pair):
    k, t = pair
    for a, b in ((k, t), (t, k)):
        got = erode(a, b)
        expected = ref_erode(a.vertices, b.vertices)
        assert got.is_empty == (expected is None)
        if expected is None:
            assert got.region is None and got.area == 0
        else:
            assert_matches(got.region, expected)
            assert got.area == ref_area(expected)


def ring_area(ring: Sequence[tuple[int, int]], m: int, den: int) -> F:
    return F(_area2(ring), 2 * (den * m) ** 2) if ring else F(0)


def assert_sweep_matches_oracles(kr: IntRing, tr: IntRing, den: int
                                 ) -> Optional[ConvexPolygon]:
    """_erosion_ring of two rings over den against the integer clip and
    the Fraction reference: the same area, the same emptiness, and erode()
    gives the region of both.  Returns that region."""
    ring, m = _erosion_ring(kr, tr)
    clipped, cm = clipped_erosion_ring(kr, tr)
    area = ring_area(ring, m, den)
    assert area == ring_area(clipped, cm, den)
    k, t = ConvexPolygon(_Lattice(kr, den)), ConvexPolygon(_Lattice(tr, den))
    expected = ref_erode(k.vertices, t.vertices)
    assert (area == 0) == (expected is None)
    region = erode(k, t).region
    if expected is None:
        assert region is None
        return None
    assert_matches(region, expected)
    assert region == ConvexPolygon(_Lattice(clipped, den * cm))
    assert area == region.area == ref_area(expected)
    return region


@st.composite
def small_pairs(draw):
    """Pairs on a coarse lattice, where erosions often touch, fit exactly
    or leave a point or a segment: random hulls, translates, scaled-down
    translates and reflected homothets, whose edges are parallel to K's."""
    d = draw(st.sampled_from((1, 2)))
    coord = st.integers(-3 * d, 3 * d).map(lambda v: F(v, d))
    try:
        k = ConvexPolygon.hull(draw(st.lists(st.tuples(coord, coord),
                                             min_size=3, max_size=7)))
        kind = draw(st.sampled_from(("random", "translate", "shrunk",
                                     "reflected")))
        if kind == "random":
            t = ConvexPolygon.hull(draw(st.lists(st.tuples(coord, coord),
                                                 min_size=3, max_size=7)))
        else:
            ratio = draw(st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(1))))
            t = translate(scale(k if kind != "reflected" else reflect(k),
                                F(1) if kind == "translate" else ratio),
                          Point2(draw(coord), draw(coord)))
    except GeometryError:
        assume(False)
    return k, t


@given(small_pairs())
@settings(max_examples=300, deadline=None)
def test_erosion_sweep_matches_the_clip_and_the_reference(pair):
    k, t = pair
    for a, b in ((k, t), (t, k)):
        assert_sweep_matches_oracles(*_common(a._ring, a._den,
                                              b._ring, b._den))


def over_one(k: ConvexPolygon, t: ConvexPolygon
             ) -> tuple[IntRing, IntRing, int]:
    (kr, tr), den = _rings([k, t])
    return kr, tr, den


def pinned_erosion(case: str) -> tuple[IntRing, IntRing, int]:
    """The rings of a named erosion case, over one denominator."""
    tri = [(0, 0), (6, 0), (0, 6)]
    box = ConvexPolygon.box((0, 0), (4, 2))
    if case == "translate":
        k = ConvexPolygon([(0, 0), (5, 1), (6, 4), (2, 6), (-1, 3)])
        return over_one(k, translate(k, Point2(F(1, 3), 2)))
    if case == "exact-width":
        return over_one(box, ConvexPolygon.box((1, 0), (2, 2)))
    if case == "one-step-too-wide":
        return over_one(box, ConvexPolygon.box((1, 0), (2, 3)))
    if case == "front-pop":
        return over_one(ConvexPolygon([(-2, 1), (-1, -1), (1, -2), (1, 2),
                                       (-2, 2)]),
                        ConvexPolygon([(0, -2), (2, -1), (0, 2)]))
    if case == "parallel-edges":
        k = ConvexPolygon(tri)
        return over_one(k, scale(reflect(k), F(1, 3)))
    if case == "triangle-vs-64-gon":
        return over_one(ConvexPolygon([(-8, -8), (16, -8), (-8, 16)]), GON)
    if case == "64-gon-vs-triangle":
        return over_one(GON, ConvexPolygon([(0, 0), (F(1, 2), 0),
                                            (0, F(1, 2))]))
    assert case == "three-body-rest"
    (big, a, b), den = _rings([scale(ConvexPolygon(tri), 2), GON,
                               ConvexPolygon.box((0, 0), (1, 2))])
    return big, _sum_ring(a, b), den


@pytest.mark.parametrize("case, empty", [
    ("translate", True),            # K (-) T is one point
    ("exact-width", True),          # a segment
    ("one-step-too-wide", True),    # void
    ("front-pop", True),            # a late edge cuts the first two's meet
    ("parallel-edges", False),      # every support of T is an edge
    ("triangle-vs-64-gon", False),
    ("64-gon-vs-triangle", False),
    ("three-body-rest", False),     # the big body against the summed rest
])
def test_pinned_erosions_match_the_clip_and_the_reference(case, empty):
    kr, tr, den = pinned_erosion(case)
    assert (assert_sweep_matches_oracles(kr, tr, den) is None) == empty
    if case == "one-step-too-wide":
        assert _erosion_ring(kr, tr) == ([], 1)


@given(pairs(), lambdas)
@settings(max_examples=150, deadline=None)
def test_boundary_sum_matches_reference(pair, lam):
    k, t = pair
    assert partial_sum_area(k, t) == ref_partial_sum_area(k.vertices, t.vertices)
    ks, ts = ref_scale(k.vertices, lam), ref_scale(t.vertices, 1 - lam)
    bsv = boundary_sum_volume(k, t, lam)
    assert bsv == ref_partial_sum_area(ks, ts)
    # The integer-scaled rings agree with the public polygon path.
    assert bsv == partial_sum_area(scale(k, lam), scale(t, 1 - lam))


@pytest.mark.parametrize("lam", [0, 1, F(3, 2), F(-1, 2)])
def test_boundary_sum_rejects_lambda_outside_the_open_interval(lam):
    square = ConvexPolygon.box((0, 0), (1, 1))
    with pytest.raises(GeometryError,
                       match="lambda must lie strictly between 0 and 1"):
        boundary_sum_volume(square, square, lam)


@given(body_lists())
@settings(max_examples=100, deadline=None)
def test_multi_boundary_sum_matches_reference(bodies):
    assert multi_boundary_sum_volume(bodies) == \
        ref_multi_boundary_sum([b.vertices for b in bodies])


@pytest.mark.parametrize("lam", [F(1, 16), F(1, 2), F(11, 16)])
@pytest.mark.parametrize("other", [
    ConvexPolygon.box((-2, -2), (2, 2)),
    ConvexPolygon([(0, 0), (F(1, 3), 0), (0, F(1, 7))]),
    ConvexPolygon([(F(-5, 16), F(-3, 16)), (F(9, 16), F(-1, 2)), (F(1, 4), 1)]),
])
def test_near_disk_matches_reference(other, lam):
    gon, ring = GON, GON.vertices
    assert minkowski_sum(gon, other).vertices == \
        ref_minkowski_sum(ring, other.vertices)
    for a, b in ((gon, other), (other, gon)):
        got = erode(a, b)
        expected = ref_erode(a.vertices, b.vertices)
        assert (got.region.vertices if not got.is_empty else None) == expected
    ks, ts = ref_scale(ring, lam), ref_scale(other.vertices, 1 - lam)
    assert boundary_sum_volume(gon, other, lam) == ref_partial_sum_area(ks, ts)


# -- equality classification ------------------------------------------------------------

@given(pairs())
@settings(max_examples=200, deadline=None)
def test_classify_equality_matches_reference(pair):
    k, t = pair
    for a, b in ((k, t), (t, k)):
        got = classify_equality(a, b)
        assert (got.tag, got.translation, got.ratio) == \
            ref_classify(a.vertices, b.vertices)


@given(st.one_of(polygons(), symmetric_polygons()))
@settings(max_examples=150, deadline=None)
def test_central_symmetry_matches_reference(p):
    ring = p.vertices
    reflected = ref_canonical_ring([-v for v in ring])
    assert is_centrally_symmetric(p) == \
        (ref_translation_witness(ring, reflected) is not None)
