"""Exact engine for convex polygons in the plane, on an integer lattice.

A polygon is stored as a ring of integer vertices over one positive common
denominator, in lowest terms.  Hulls, canonical rings, areas, transforms,
Minkowski sums, erosions (Minkowski differences) and the equality
witnesses run in pure `int` arithmetic, so nothing ever rounds.  Erosion
intersects half-planes whose meets are homogeneous integer points
(X, Y, W) with W > 0, reduced by their gcd; this is the
exact-geometric-computation approach (Yap, "Towards exact geometric
computation", CGTA 7, 1997).  `fractions.Fraction` appears only at the
edges: inputs are brought onto the lattice at construction, and the public
`vertices`, areas and witnesses are returned as Fractions.  Irrational
quantities (square roots of areas) are handled by callers through squared
comparisons.

The constructor walks an arbitrary ring once (`_canonical_ring`) to make it
canonical: strictly convex, counterclockwise, starting at its lex-min vertex
and in lowest terms.  The monotone-chain hull builds a ring that is already
canonical but for lowest terms, and `translate` and a positive `scale` keep
a canonical ring canonical, so those three only divide out the common
factor of ring and denominator (`ConvexPolygon._canonical`).

One edge merge (`_sum_ring`) and one half-plane sweep (`_erosion_ring`)
serve both the polygon-valued `minkowski_sum` and `erode` and the
boundary-sum areas.  A boundary-sum area is taken straight from those
integer rings and builds one Fraction and no intermediate polygon.  For
lambda = p/q, homogeneity gives lambda*bK + (1-lambda)*bT =
(1/q)(b(pK) + b((q-p)T)), so the rings are multiplied by the integers p
and q - p and the area is divided by q**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod
from typing import ClassVar, Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]
IntPoint = tuple[int, int]
HomPoint = tuple[int, int, int]  # the point (X/W, Y/W) with W > 0
Line = tuple[int, int, int]  # the half-plane <x, (ux, uy)> <= c


class GeometryError(Exception):
    """Invalid geometric input (degenerate polygon, zero direction, ...)."""


class Point2(NamedTuple):
    """A point or direction in the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.y)

    def __mul__(self, s: Scalar) -> "Point2":
        return Point2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def cross(self, other: "Point2") -> Fraction:
        return self.x * other.y - self.y * other.x


class _Lattice(NamedTuple):
    """Integer points (x, y) standing for (x/den, y/den), den > 0."""

    ring: Sequence[IntPoint]
    den: int


def _rational(v) -> Scalar:
    # ints and Fractions already carry numerator and denominator.
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _to_lattice(points: Iterable[Sequence[Scalar]]) -> _Lattice:
    """Bring rational input points onto one lattice (the API edge)."""
    coords = [(_rational(p[0]), _rational(p[1])) for p in points]
    den = lcm(*(c.denominator for xy in coords for c in xy))
    return _Lattice([(x.numerator * (den // x.denominator),
                      y.numerator * (den // y.denominator))
                     for x, y in coords], den)


def _times(ring: Sequence[IntPoint], f: int) -> Sequence[IntPoint]:
    """The ring multiplied by a positive integer."""
    return ring if f == 1 else [(x * f, y * f) for x, y in ring]


def _common(ra: Sequence[IntPoint], da: int, rb: Sequence[IntPoint], db: int
            ) -> tuple[Sequence[IntPoint], Sequence[IntPoint], int]:
    """Both rings over the lcm of their denominators."""
    den = lcm(da, db)
    return _times(ra, den // da), _times(rb, den // db), den


def _area2(ring: Sequence[IntPoint]) -> int:
    """Twice the signed shoelace area, in lattice units."""
    total = 0
    px, py = ring[-1]
    for x, y in ring:
        total += px * y - py * x
        px, py = x, y
    return total


def _canonical_ring(ring: Sequence[IntPoint], den: int
                    ) -> tuple[tuple[IntPoint, ...], int]:
    """Collapse duplicates/collinear triples, rotate to the lex-min vertex
    and reduce ring and denominator to lowest terms.

    The input must be a counterclockwise ring that goes round once.  Raises
    GeometryError if fewer than three vertices survive, or if the ring
    turns clockwise, doubles back on itself or winds more than once (a
    pentagram turns left at every vertex).

    One pass is enough: dropping a vertex where the ring goes straight on
    leaves every edge direction, hence every other turn, unchanged, so the
    kept vertices turn strictly left; a ring that reverses at a straight
    vertex doubles back and is rejected.  With left turns of less than
    half a revolution, the ring winds once exactly when its edge direction
    passes the +x axis once, from [pi, 2 pi) into [0, pi).
    """
    ring = [p for i, p in enumerate(ring) if p != ring[i - 1]]
    if len(ring) < 3:
        raise GeometryError("polygon needs at least 3 non-collinear vertices")
    kept: list[IntPoint] = []
    doubles_back, crossings = False, 0
    (ax, ay), (bx, by) = ring[-2], ring[-1]
    ux, uy = bx - ax, by - ay
    was_up = uy > 0 or (uy == 0 and ux > 0)
    for cx, cy in ring:
        vx, vy = cx - bx, cy - by
        turn = ux * vy - uy * vx
        if turn < 0:
            raise GeometryError("vertex ring is not counterclockwise convex")
        if turn > 0:
            kept.append((bx, by))
        else:
            doubles_back |= ux * vx + uy * vy < 0
        up = vy > 0 or (vy == 0 and vx > 0)
        crossings += up and not was_up
        bx, by, ux, uy, was_up = cx, cy, vx, vy, up
    if len(kept) < 3:
        raise GeometryError("polygon needs at least 3 non-collinear vertices")
    if doubles_back or crossings != 1:
        raise GeometryError("vertex ring is not counterclockwise convex")
    k = kept.index(min(kept))
    return _lowest_terms(kept[k:] + kept[:k], den)


def _lowest_terms(ring: Sequence[IntPoint], den: int
                  ) -> tuple[tuple[IntPoint, ...], int]:
    """The ring and its denominator divided by their common factor."""
    g = gcd(den, *(c for p in ring for c in p))
    if g != 1:
        return tuple((x // g, y // g) for x, y in ring), den // g
    return tuple(ring), den


class ConvexPolygon:
    """Strictly convex polygon with exact rational vertices.

    Vertices are stored counterclockwise with the lexicographic minimum
    first, as integers over one denominator in lowest terms, so two
    polygons are equal exactly when their vertex tuples are.  Collinear
    vertices are collapsed at construction.  Instances are immutable.
    """

    __slots__ = ("_ring", "_den", "_vertices", "_area")

    def __init__(self, vertices: Iterable[Sequence[Scalar]]):
        lattice = (vertices if isinstance(vertices, _Lattice)
                   else _to_lattice(vertices))
        self._ring, self._den = _canonical_ring(*lattice)
        self._vertices: Optional[tuple[Point2, ...]] = None
        self._area: Optional[Fraction] = None

    @classmethod
    def _canonical(cls, ring: Sequence[IntPoint], den: int
                   ) -> "ConvexPolygon":
        """The polygon of a ring that is canonical but for lowest terms:
        strictly convex, counterclockwise and starting at its lex-min
        vertex.  Only the common factor is divided out; the ring is not
        walked again."""
        poly = cls.__new__(cls)
        poly._ring, poly._den = _lowest_terms(ring, den)
        poly._vertices = poly._area = None
        return poly

    @property
    def vertices(self) -> tuple[Point2, ...]:
        """The canonical vertex ring as rational points (built on first use)."""
        if self._vertices is None:
            d = self._den
            self._vertices = tuple(Point2(Fraction(x, d), Fraction(y, d))
                                   for x, y in self._ring)
        return self._vertices

    @classmethod
    def hull(cls, points: Iterable[Sequence[Scalar]]) -> "ConvexPolygon":
        """Convex hull (monotone chain) of a point set; strict turns only.

        The chains start from the lex-min point and pop every vertex that
        does not turn strictly left, so their ring is already canonical
        but for lowest terms, and it is not walked again.  Distinct points
        that are all collinear leave a ring of two vertices and raise the
        error that the constructor raises for it.
        """
        ring, den = (points if isinstance(points, _Lattice)
                     else _to_lattice(points))
        pts = sorted(set(ring))
        if len(pts) < 3:
            raise GeometryError("hull needs at least 3 distinct points")

        def chain(seq: Sequence[IntPoint]) -> list[IntPoint]:
            out: list[IntPoint] = []
            for p in seq:
                while len(out) >= 2:
                    (ax, ay), (bx, by) = out[-2], out[-1]
                    if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) > 0:
                        break
                    out.pop()
                out.append(p)
            return out

        lower = chain(pts)
        upper = chain(pts[::-1])
        ring = lower[:-1] + upper[:-1]
        if len(ring) < 3:
            raise GeometryError(
                "polygon needs at least 3 non-collinear vertices")
        return cls._canonical(ring, den)

    @classmethod
    def box(cls, lo: Sequence[Scalar], hi: Sequence[Scalar]) -> "ConvexPolygon":
        x0, y0 = Fraction(lo[0]), Fraction(lo[1])
        x1, y1 = Fraction(hi[0]), Fraction(hi[1])
        if not (x0 < x1 and y0 < y1):
            raise GeometryError("box needs lo < hi on both axes")
        return cls([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    @classmethod
    def regular_gon(cls, sides: int, radius: Scalar = 1) -> "ConvexPolygon":
        """Regular polygon with vertices snapped onto the grid of step 2**-20.

        Stands in for disks, which have no exact rational representation;
        the area deficit versus the true disk is the approximation gap.
        """
        import math

        if sides < 3:
            raise GeometryError("need at least 3 sides")
        r = Fraction(radius)
        pts = []
        for k in range(sides):
            ang = 2 * math.pi * k / sides
            pts.append((r * Fraction(round(math.cos(ang) * 2 ** 20), 2 ** 20),
                        r * Fraction(round(math.sin(ang) * 2 ** 20), 2 ** 20)))
        return cls.hull(pts)

    @property
    def area(self) -> Fraction:
        """Exact area by the shoelace formula; strictly positive."""
        if self._area is None:
            self._area = Fraction(_area2(self._ring), 2 * self._den ** 2)
        return self._area

    def bbox(self) -> tuple[Point2, Point2]:
        d = self._den
        xs = [x for x, _ in self._ring]
        ys = [y for _, y in self._ring]
        return (Point2(Fraction(min(xs), d), Fraction(min(ys), d)),
                Point2(Fraction(max(xs), d), Fraction(max(ys), d)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConvexPolygon) and self._den == other._den
                and self._ring == other._ring)

    def __hash__(self) -> int:
        return hash((self._ring, self._den))

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        vs = ", ".join(f"({p.x},{p.y})" for p in self.vertices)
        return f"ConvexPolygon[{vs}]"


def scale(p: ConvexPolygon, factor: Scalar) -> ConvexPolygon:
    f = Fraction(factor)
    n = f.numerator
    if n <= 0:
        raise GeometryError("scale factor must be positive")
    # A positive factor keeps the ring canonical but for lowest terms.
    return ConvexPolygon._canonical([(x * n, y * n) for x, y in p._ring],
                                    p._den * f.denominator)


def translate(p: ConvexPolygon, v: Union[Point2, _Lattice]) -> ConvexPolygon:
    """P + v, for a point v or a _Lattice of one point."""
    shift = v if isinstance(v, _Lattice) else _to_lattice([v])
    ring, ((sx, sy),), den = _common(p._ring, p._den, *shift)
    # A translate keeps the ring canonical but for lowest terms.
    return ConvexPolygon._canonical([(x + sx, y + sy) for x, y in ring], den)


def reflect(p: ConvexPolygon) -> ConvexPolygon:
    """Reflection through the origin."""
    return ConvexPolygon(_Lattice([(-x, -y) for x, y in p._ring], p._den))


def _edges(ring: Sequence[IntPoint]) -> list[IntPoint]:
    return [(bx - ax, by - ay)
            for (ax, ay), (bx, by) in zip(ring, [*ring[1:], ring[0]])]


def _sum_ring(pr: Sequence[IntPoint], qr: Sequence[IntPoint]
              ) -> list[IntPoint]:
    """Ring of P + Q, for rings over one denominator that each start at
    their lex-min vertex, by merging the two edge sequences by angle.

    Parallel edges are combined, so the sum is strictly convex, has at
    most |P| + |Q| vertices and again starts at its lex-min vertex.
    """
    pe, qe = _edges(pr), _edges(qr)
    x, y = pr[0][0] + qr[0][0], pr[0][1] + qr[0][1]
    ring = [(x, y)]
    i = j = 0
    while i < len(pe) and j < len(qe):
        (ax, ay), (bx, by) = pe[i], qe[j]
        # From the lex-min vertex the edges sweep the directions in
        # (-90 deg, +90 deg] first, then the rest; within one half the
        # cross product orders them.
        late_a = ax < 0 or (ax == 0 and ay < 0)
        late_b = bx < 0 or (bx == 0 and by < 0)
        turn = ax * by - ay * bx if late_a == late_b else late_b - late_a
        if turn >= 0:
            x, y = x + ax, y + ay
            i += 1
        if turn <= 0:
            x, y = x + bx, y + by
            j += 1
        ring.append((x, y))
    for ex, ey in pe[i:] + qe[j:]:
        x, y = x + ex, y + ey
        ring.append((x, y))
    ring.pop()  # the walk ends where it started
    return ring


def minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum by merging the two edge sequences by angle.

    Both rings are brought to the lcm of their denominators first.
    Parallel edges are combined, so the result has at most |p| + |q|
    vertices.  Commutative by construction.
    """
    pr, qr, den = _common(p._ring, p._den, q._ring, q._den)
    return ConvexPolygon(_Lattice(_sum_ring(pr, qr), den))


@dataclass(frozen=True)
class ErosionResult:
    """Closure of an erosion K (-) T, or None when the erosion is empty.

    The erosion itself is open by definition; we store its closure because
    Lebesgue area is insensitive to the boundary.  Emptiness is decided by
    strict feasibility: the result is empty exactly when the half-plane
    intersection has no interior.
    """

    region: Optional[ConvexPolygon]
    openness_note: ClassVar[str] = (
        "stored region is the closure; the true set is its interior")

    @property
    def is_empty(self) -> bool:
        return self.region is None

    @property
    def area(self) -> Fraction:
        return Fraction(0) if self.region is None else self.region.area


def _meet(a: Line, b: Line) -> HomPoint:
    """The meet (X, Y, W) of the lines of a and b, W their determinant."""
    (aux, auy, ac), (bux, buy, bc) = a, b
    return ac * buy - auy * bc, aux * bc - ac * bux, aux * buy - auy * bux


def _beyond(a: Line, b: Line, line: Line) -> bool:
    """Whether the meet of a and b (W > 0) lies strictly outside line."""
    (x, y, w), (ux, uy, c) = _meet(a, b), line
    return x * ux + y * uy > c * w


def _erosion_ring(kr: Sequence[IntPoint], tr: Sequence[IntPoint]
                  ) -> tuple[list[IntPoint], int]:
    """Closure of K (-) T for rings over one denominator, as a ring of
    integer points over m times that denominator, and the weight m.

    x - T lies inside K exactly when <x, u> <= h_K(u) - h_T(-u) for every
    outward edge normal u of K.  h_K(u) is attained at the edge's start;
    -h_T(-u), the minimum of <w, u> over T, moves counterclockwise round T
    as u turns round K, so after one scan a pointer finds it, advancing
    while the next vertex is strictly smaller (rotating calipers; Toussaint
    1983).  K's ring sorts the normals by angle, less than half a turn
    apart, so one deque sweep with no sort intersects the half-planes:
    each line pops the back, then the front, while the meet of the two
    lines there is strictly outside it; at the end both ends are trimmed.
    Fewer than three lines, or consecutive lines at a non-positive
    determinant, leave no interior and an empty ring.  O(|K| + |T|).  The
    ring may be degenerate (zero area) or repeat a vertex.
    """
    n, dq = len(tr), []
    ux, uy = kr[1][1] - kr[0][1], kr[0][0] - kr[1][0]
    j = min(range(n), key=lambda i: tr[i][0] * ux + tr[i][1] * uy)
    for (ax, ay), (bx, by) in zip(kr, [*kr[1:], kr[0]]):
        ux, uy = by - ay, ax - bx
        low = tr[j][0] * ux + tr[j][1] * uy
        while (s := tr[(j + 1) % n][0] * ux + tr[(j + 1) % n][1] * uy) < low:
            j, low = (j + 1) % n, s
        line = (ux, uy, ax * ux + ay * uy + low)
        while len(dq) >= 2 and _beyond(dq[-2], dq[-1], line):
            dq.pop()
        while len(dq) >= 2 and _beyond(dq[0], dq[1], line):
            del dq[0]
        if dq and dq[-1][0] * uy - dq[-1][1] * ux <= 0:
            return [], 1
        dq.append(line)
    while len(dq) >= 3 and _beyond(dq[-2], dq[-1], dq[0]):
        dq.pop()
    while len(dq) >= 3 and _beyond(dq[0], dq[1], dq[-1]):
        del dq[0]
    if len(dq) < 3 or _meet(dq[-1], dq[0])[2] <= 0:
        return [], 1
    ring = [(x // (g := gcd(x, y, w)), y // g, w // g)
            for x, y, w in map(_meet, dq, [*dq[1:], dq[0]])]
    m = lcm(*(w for _, _, w in ring))
    return [(x * (m // w), y * (m // w)) for x, y, w in ring], m


def erode(k: ConvexPolygon, t: ConvexPolygon) -> ErosionResult:
    """Minkowski difference K (-) T as a half-plane intersection.

    Both rings are brought to one denominator.  A lower-dimensional or void
    intersection means the (open) erosion is empty.
    """
    kr, tr, den = _common(k._ring, k._den, t._ring, t._den)
    ring, m = _erosion_ring(kr, tr)
    if not ring or _area2(ring) == 0:
        return ErosionResult(None)
    return ErosionResult(ConvexPolygon(_Lattice(ring, den * m)))


def _rings(polys: Sequence[ConvexPolygon]
           ) -> tuple[list[Sequence[IntPoint]], int]:
    """The polygons' rings over the lcm of their denominators."""
    den = lcm(*(p._den for p in polys))
    return [_times(p._ring, den // p._den) for p in polys], den


def _holed_area(big: Sequence[IntPoint], small: Sequence[IntPoint], d: int
                ) -> Fraction:
    """Area of (big + small) minus the area of big (-) small, for rings
    over one denominator den, where d is 2 * den**2 (times any further
    square the caller divides by)."""
    total = _area2(_sum_ring(big, small))
    hole, m = _erosion_ring(big, small)
    if not hole:
        return Fraction(total, d)
    return Fraction(total * m * m - _area2(hole), d * m * m)


def _boundary_sum_area(rings: Sequence[Sequence[IntPoint]], d: int
                       ) -> Fraction:
    """Area of bA_1 + ... + bA_m, m >= 2, for rings over one denominator,
    d as in _holed_area.

    All bodies except the largest can be completed to full bodies without
    changing the sum (pairwise, the smaller body of a pair completes), so
    after sorting by area the sum is bBig + (rest summed), whose area is
    area(Big + rest) minus the erosion hole of Big by the rest.  Two
    bodies of one area leave a hole of area 0.
    """
    big, rest, *others = sorted(rings, key=_area2, reverse=True)
    for ring in others:
        rest = _sum_ring(rest, ring)
    return _holed_area(big, rest, d)


def partial_sum_area(a: ConvexPolygon, b: ConvexPolygon) -> Fraction:
    """Area of the boundary sum of A and B (both boundaries, unscaled).

    Equals area(A+B) minus the area of the erosion of the larger body by
    the smaller, computed from the integer rings without building either
    polygon.
    """
    ar, br, den = _common(a._ring, a._den, b._ring, b._den)
    return _boundary_sum_area((ar, br), 2 * den * den)


def boundary_sum_volume(k: ConvexPolygon, t: ConvexPolygon,
                        lam: Scalar) -> Fraction:
    """Exact area of the lam-weighted boundary sum of K and T.

    With lam = p/q in lowest terms, lam*bK + (1-lam)*bT is (1/q) times
    b(pK) + b((q-p)T), so the rings are multiplied by the integers p and
    q - p and the area of that boundary sum is divided by q**2.
    """
    lam = _rational(lam)
    p, q = lam.numerator, lam.denominator
    if not 0 < p < q:
        raise GeometryError("lambda must lie strictly between 0 and 1")
    den = lcm(k._den, t._den)
    return _boundary_sum_area((_times(k._ring, den // k._den * p),
                               _times(t._ring, den // t._den * (q - p))),
                              2 * (den * q) ** 2)


def multi_boundary_sum_volume(bodies: Sequence[ConvexPolygon]) -> Fraction:
    """Exact area of bK_1 + ... + bK_m, m >= 2 (see _boundary_sum_area)."""
    if len(bodies) < 2:
        raise GeometryError("need at least two bodies")
    rings, den = _rings(bodies)
    return _boundary_sum_area(rings, 2 * den * den)


def area_product(bodies: Sequence[ConvexPolygon]) -> Fraction:
    """The exact product of the bodies' areas, built as one Fraction from
    the integer shoelace sums."""
    return Fraction(prod(_area2(p._ring) for p in bodies),
                    prod(2 * p._den ** 2 for p in bodies))


class EqualityTag(Enum):
    TRANSLATE = "translate"
    HOMOTHETIC_CENTRALLY_SYMMETRIC_2D = "homothetic_centrally_symmetric_2d"
    NO_EQUALITY = "no_equality"


@dataclass(frozen=True)
class EqualityClass:
    """Outcome of the equality-case classifier with an exact witness."""

    tag: EqualityTag
    translation: Optional[Point2] = None
    ratio: Optional[Fraction] = None


def _homothety_witness(
        k: ConvexPolygon, t: ConvexPolygon) -> Optional[tuple[Fraction, Point2]]:
    # T = (rn/rd) * K + shift, vertex by vertex.  Canonical rotation survives
    # positive scaling, so order is preserved.
    if len(k) != len(t):
        return None
    kr, tr, den = _common(k._ring, k._den, t._ring, t._den)
    (k0x, k0y), (k1x, k1y) = kr[0], kr[1]
    (t0x, t0y), (t1x, t1y) = tr[0], tr[1]
    ekx, eky, etx, ety = k1x - k0x, k1y - k0y, t1x - t0x, t1y - t0y
    if ekx * ety - eky * etx != 0:
        return None
    # The first edge from the lex-min vertex has ekx > 0, or ekx == 0 and
    # eky > 0, so rd > 0 and the ratio's sign is that of rn.
    rn, rd = (etx, ekx) if ekx != 0 else (ety, eky)
    if rn <= 0:
        return None
    for (ax, ay), (bx, by) in zip(kr, tr):
        if rn * (ax - k0x) != rd * (bx - t0x) or rn * (ay - k0y) != rd * (by - t0y):
            return None
    shift = Point2(Fraction(t0x * rd - k0x * rn, rd * den),
                   Fraction(t0y * rd - k0y * rn, rd * den))
    return Fraction(rn, rd), shift


def is_centrally_symmetric(p: ConvexPolygon) -> bool:
    """True when some translate of P equals -P.

    -P has the area of P, so a positive homothety from P onto -P has ratio 1.
    """
    return _homothety_witness(p, reflect(p)) is not None


def classify_equality(k: ConvexPolygon, t: ConvexPolygon) -> EqualityClass:
    """Classify the pair for equality in the boundary-average volume bound.

    Translate: T is an exact translate of K, a homothety of ratio 1.  The
    homothetic class needs a positive homothety K -> T of any other ratio
    and central symmetry of K (hence of T).
    """
    hom = _homothety_witness(k, t)
    if hom is None:
        return EqualityClass(EqualityTag.NO_EQUALITY)
    ratio, shift = hom
    if ratio == 1:
        return EqualityClass(EqualityTag.TRANSLATE, translation=shift)
    if is_centrally_symmetric(k):
        return EqualityClass(EqualityTag.HOMOTHETIC_CENTRALLY_SYMMETRIC_2D,
                             translation=shift, ratio=ratio)
    return EqualityClass(EqualityTag.NO_EQUALITY)
