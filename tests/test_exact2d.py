from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bmink.exact2d import (ConvexPolygon,
                           EqualityTag, GeometryError, Point2,
                           boundary_sum_volume, classify_equality, erode,
                           is_centrally_symmetric, minkowski_sum,
                           partial_sum_area, reflect, scale,
                           translate)

from test_exact2d_oracle import ref_contains

SQUARE = ConvexPolygon.box((-1, -1), (1, 1))
BIG = ConvexPolygon.box((-2, -2), (2, 2))
HALF = ConvexPolygon.box((F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2)))
TRI = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
DIAMOND = ConvexPolygon([(1, 0), (0, 1), (-1, 0), (0, -1)])


# -- construction and canonical form -----------------------------------------

def test_canonical_rotation_and_equality():
    rotated = ConvexPolygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
    assert rotated == SQUARE
    assert rotated.vertices[0] == Point2(-1, -1)


def test_collinear_vertices_collapse():
    p = ConvexPolygon([(-1, -1), (0, -1), (1, -1), (1, 1), (-1, 1)])
    assert p == SQUARE


def test_clockwise_ring_rejected():
    with pytest.raises(GeometryError):
        ConvexPolygon([(-1, -1), (-1, 1), (1, 1), (1, -1)])


def test_too_few_vertices_rejected():
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (1, 0)])
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (1, 1), (2, 2)])


FEW = "polygon needs at least 3 non-collinear vertices"
NOT_CONVEX = "vertex ring is not counterclockwise convex"


def test_degenerate_rings_rejected():
    # Empty, single-point, collinear and back-and-forth rings, and a spike
    # whose tip is a vertex of the ring: a GeometryError, not an IndexError.
    for ring, message in [
            ([], FEW), ([(0, 0)], FEW), ([(0, 0)] * 3, FEW),
            ([(0, 0), (1, 0)], FEW), ([(0, 0), (1, 1), (2, 2)], FEW),
            ([(0, 0), (2, 0), (1, 0)], FEW),
            ([(0, 0), (2, 0), (0, 0), (2, 0)], FEW),
            ([(0, 0), (1, 0), (1, 1), (1, 0)], NOT_CONVEX)]:
        with pytest.raises(GeometryError) as info:
            ConvexPolygon(ring)
        assert str(info.value) == message, ring


def test_hull_builds_canonical_polygon():
    p = ConvexPolygon.hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)])
    assert p == ConvexPolygon.box((0, 0), (2, 2))
    with pytest.raises(GeometryError):
        ConvexPolygon.hull([(0, 0), (1, 1)])


PENTAGRAM = [(2, 0), (-2, 1), (1, -2), (0, 2), (-1, -2)]


def test_ring_that_winds_twice_rejected():
    # The pentagram turns left at every vertex but goes round twice: taken
    # as a polygon it had area 13/2 and a Minkowski square of area 26,
    # where the hull of its vertices has 21/2 and 42.
    assert ConvexPolygon.hull(PENTAGRAM).area == F(21, 2)
    with pytest.raises(GeometryError):
        ConvexPolygon(PENTAGRAM)
    with pytest.raises(GeometryError):
        ConvexPolygon(TRI.vertices * 2)


def test_ring_that_doubles_back_rejected():
    # A spike from (2, 0) into the square and back turns straight at its
    # tip; dropping the tip as a collinear vertex left a triangle.
    with pytest.raises(GeometryError):
        ConvexPolygon([(0, 0), (2, 0), (1, 1), (2, 0), (2, 2), (0, 2)])


def test_spike_back_to_a_vertex_rejected_as_not_convex():
    # A triangle with a spike from (2, 2) out to (-1, 1) and back: the ring
    # doubles back, though three of its vertices are not collinear.
    with pytest.raises(GeometryError, match=NOT_CONVEX):
        ConvexPolygon([(-1, 1), (2, 2), (1, 2), (0, -1), (2, 2)])


@st.composite
def vertex_rings(draw):
    """Rings over the vertices of a convex polygon: round it once, as a star
    that winds several times, or clockwise, with repeated vertices, edge
    midpoints and stray points of the draw inserted."""
    pts = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                        min_size=3, max_size=8, unique=True))
    try:
        hull = list(ConvexPolygon.hull(pts).vertices)
    except GeometryError:
        assume(False)
    n = len(hull)
    step = draw(st.integers(1, n - 1))
    ring = [hull[i * step % n] for i in range(n * draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        ring.reverse()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(ring) - 1))
        a, b = ring[i], ring[(i + 1) % len(ring)]
        ring.insert(i + 1, draw(st.sampled_from(
            [a, (F(a[0] + b[0], 2), F(a[1] + b[1], 2)), *pts])))
    return ring


@given(vertex_rings())
@example(PENTAGRAM)
@settings(max_examples=300, deadline=None)
def test_constructed_ring_is_its_hull(ring):
    try:
        polygon = ConvexPolygon(ring)
    except GeometryError:
        return
    assert polygon == ConvexPolygon.hull(ring)


# -- areas --------------------------------------------------------------------

def test_area_fixtures():
    assert SQUARE.area == 4
    assert TRI.area == F(1, 2)


def test_sum_area_fixture():
    # Hull of the square+triangle sum is {(-1,-1),(2,-1),(2,1),(1,2),(-1,2)}:
    # a 3x3 box minus one half-unit corner triangle.  Value confirmed by the
    # voxel oracle in test_voxel_oracle_agreement.
    assert minkowski_sum(SQUARE, TRI).area == F(17, 2)


# -- minkowski sums -----------------------------------------------------------

def test_sum_of_square_with_itself():
    assert minkowski_sum(SQUARE, SQUARE) == BIG


def test_square_plus_diamond_is_octagon():
    octagon = minkowski_sum(SQUARE, DIAMOND)
    assert len(octagon) == 8
    assert octagon.area == 14


def test_sum_monotonicity_with_small_triangle():
    eps = F(1, 64)
    tiny = ConvexPolygon([(0, 0), (eps, 0), (0, eps)])
    assert minkowski_sum(SQUARE, tiny).area >= SQUARE.area


def test_sum_vertex_count_bound():
    s = minkowski_sum(TRI, DIAMOND)
    assert len(s) <= len(TRI) + len(DIAMOND)


# -- transforms -----------------------------------------------------------------

def test_reflect_symmetric_square():
    assert reflect(SQUARE) == SQUARE


def test_scale_triangle():
    assert scale(TRI, F(1, 3)) == ConvexPolygon(
        [(0, 0), (F(1, 3), 0), (0, F(1, 3))])
    with pytest.raises(GeometryError):
        scale(TRI, 0)


def test_translate_reflect_commutation():
    v = Point2(F(3, 2), -2)
    a = reflect(translate(TRI, v))
    b = translate(reflect(TRI), -v)
    assert a == b


# -- erosion ---------------------------------------------------------------------

def test_erode_nested_squares():
    r = erode(BIG, SQUARE)
    assert not r.is_empty
    assert r.region == SQUARE


def test_erode_by_larger_is_empty():
    r = erode(SQUARE, BIG)
    assert r.is_empty and r.region is None and r.area == 0


def test_erode_by_itself_is_empty():
    # Equal widths leave no strict interior fit.
    assert erode(SQUARE, SQUARE).is_empty


def test_simplex_erosion_is_scaled_simplex_up_to_translation():
    r = erode(TRI, scale(TRI, F(1, 3)))
    assert not r.is_empty
    expected = scale(TRI, F(1, 3))
    cls = classify_equality(expected, r.region)
    assert cls.tag is EqualityTag.TRANSLATE


def test_erosion_result_area_matches_region():
    r = erode(BIG, SQUARE)
    assert r.area == r.region.area == 4


# -- boundary sums -----------------------------------------------------------------

def test_boundary_sum_volume_fixture():
    assert boundary_sum_volume(SQUARE, HALF, F(1, 2)) == 2


def test_boundary_sum_self_equals_volume():
    assert boundary_sum_volume(SQUARE, SQUARE, F(1, 2)) == SQUARE.area


def test_boundary_sum_triangle_fixture():
    assert boundary_sum_volume(TRI, scale(TRI, F(1, 3)), F(1, 2)) == F(5, 24)


def test_boundary_sum_near_disk():
    # Square of side 4 with a near-disk: true disk value is 16+16+pi-4.
    import math
    gon = ConvexPolygon.regular_gon(64)
    got = float(partial_sum_area(BIG, gon))
    assert abs(got - (28 + math.pi)) < 0.05


def test_boundary_sum_lambda_validated():
    with pytest.raises(GeometryError):
        boundary_sum_volume(SQUARE, HALF, F(3, 2))


# -- equality classifier --------------------------------------------------------------

def test_classify_translate():
    cls = classify_equality(SQUARE, translate(SQUARE, Point2(3, 5)))
    assert cls.tag is EqualityTag.TRANSLATE
    assert cls.translation == Point2(3, 5)


def test_classify_homothetic_symmetric():
    cls = classify_equality(SQUARE, HALF)
    assert cls.tag is EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D
    assert cls.ratio == F(1, 2)


def test_classify_non_symmetric_homothets():
    cls = classify_equality(TRI, scale(TRI, 2))
    assert cls.tag is EqualityTag.NO_EQUALITY


def test_central_symmetry_predicate():
    assert is_centrally_symmetric(SQUARE)
    assert is_centrally_symmetric(translate(DIAMOND, Point2(7, -3)))
    assert not is_centrally_symmetric(TRI)


# -- property tests ---------------------------------------------------------------------

@st.composite
def polygons(draw):
    pts = draw(st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        min_size=3, max_size=9, unique=True))
    try:
        return ConvexPolygon.hull([(F(x, 2), F(y, 2)) for x, y in pts])
    except GeometryError:
        assume(False)


@given(polygons(), polygons())
@settings(max_examples=60, deadline=None)
def test_minkowski_sum_commutes(p, q):
    assert minkowski_sum(p, q) == minkowski_sum(q, p)


@given(polygons(), polygons())
@settings(max_examples=60, deadline=None)
def test_minkowski_sum_matches_pairwise_hull(p, q):
    # Brute-force oracle: hull of all pairwise vertex sums.
    sums = [a + b for a in p.vertices for b in q.vertices]
    assert minkowski_sum(p, q) == ConvexPolygon.hull(sums)


@given(polygons(), polygons())
@settings(max_examples=60, deadline=None)
def test_classical_brunn_minkowski_squared(p, q):
    # area(P+Q)^(1/2) >= area(P)^(1/2) + area(Q)^(1/2), compared via squares.
    gap = minkowski_sum(p, q).area - p.area - q.area
    assert gap >= 0
    assert gap * gap >= 4 * p.area * q.area


@given(polygons(), polygons())
@settings(max_examples=40, deadline=None)
def test_erosion_containment(k, t):
    r = erode(k, t)
    if not r.is_empty:
        refit = minkowski_sum(r.region, reflect(t))
        assert all(ref_contains(k.vertices, p) for p in refit.vertices)


@given(polygons(), polygons(), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_erosion_scale_covariance(k, t, c_num):
    c = F(c_num, 2)
    a = erode(scale(k, c), scale(t, c))
    b = erode(k, t)
    assert a.is_empty == b.is_empty
    if not a.is_empty:
        assert a.region == scale(b.region, c)


@given(polygons(), polygons(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_decomposition_volume_identity(k, t, lam_num):
    # Boundary-sum volume plus both erosion areas equals the full sum area.
    lam = F(lam_num, 8)
    ks, ts = scale(k, lam), scale(t, 1 - lam)
    bsv = boundary_sum_volume(k, t, lam)
    total = minkowski_sum(ks, ts).area
    assert bsv + erode(ks, ts).area + erode(ts, ks).area == total


@given(polygons(), polygons())
@settings(max_examples=80, deadline=None)
def test_only_the_larger_body_erodes(p, q):
    # partial_sum_area erodes the larger-area body only: an open erosion
    # A (-) B is nonempty only when area B < area A.
    small, big = sorted((p, q), key=lambda b: b.area)
    assert erode(small, big).is_empty
    if small.area == big.area:
        assert erode(big, small).is_empty


@given(polygons(), st.integers(-6, 6), st.integers(-6, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_equal_area_pairs_have_empty_erosions(p, dx, dy, reflected):
    t = translate(reflect(p) if reflected else p, Point2(F(dx, 3), dy))
    assert erode(p, t).is_empty and erode(t, p).is_empty
    assert partial_sum_area(p, t) == minkowski_sum(p, t).area


@given(polygons(), polygons())
@settings(max_examples=25, deadline=None)
def test_erosion_maximality_on_edges(k, t):
    # Pushing any erosion edge outward by its own normal breaks the fit.
    r = erode(k, t)
    if r.is_empty:
        return
    region = r.region
    refl = reflect(t)
    verts = region.vertices
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        mid = Point2((a.x + b.x) / 2, (a.y + b.y) / 2)
        e = b - a
        normal = Point2(e.y, -e.x)
        for delta_pow in range(1, 12):
            delta = F(1, 2 ** delta_pow)
            pushed = translate(refl, mid + normal * delta)
            if not all(ref_contains(k.vertices, p)
                       for p in pushed.vertices):
                break
        else:
            pytest.fail("outward push never escaped the eroded body")


@given(polygons(), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=40, deadline=None)
def test_translate_pairs_reach_equality(p, dx, dy):
    t = translate(p, Point2(dx, dy))
    bsv = boundary_sum_volume(p, t, F(1, 2))
    assert bsv * bsv == p.area * t.area
