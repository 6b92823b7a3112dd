"""Triangles and orthocentric quadrangles: the `Triangle` value that
carries a triangle's edges, orthocentre, circumcircle and metrics and gives
each of its centres as a barycentric point (`Triangle.point`); the
`LabeledQuadrangle` value that stores the four labelled vertices of a
quadrated triangle and derives its twins, Centre, Central Circle, midpoints,
diagonal points and faces from them; Euler-line harmonic ranges, the median
circles whose radical axes are the altitudes, the edges of the derived
(quadration) triangles, and the acute census."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .kernel import (
    Circle,
    DegenerateInput,
    GeometryError,
    Line,
    Number,
    Point,
    _edge_vectors,
    _hom,
    _point_of,
    _ratio,
    circle_from_diameter,
    circumcircle,
    cross_ratio,
    divide,
    radical_axis,
)


class AmbiguousLabeling(GeometryError):
    """Raised when nim-sum labeling is requested for a right or isosceles
    seed, where no scalene labeling rule applies."""


LABELS = (1, 2, 4, 7)


def orthocentre(p: Point, q: Point, r: Point) -> Point:
    """Meet of the altitudes: with edge vectors b = q − p and c = r − p,
    u = H − p has u·b = u·c = b·c, so
    H = p + (b·c / b×c)·(c_y − b_y, b_x − c_x)."""
    # over the common denominator l the edge vectors are B/l and C/l, and
    # l·H = l·p + (B·C / B×C)·(C_y − B_y, B_x − C_x)
    x1, y1, l, bx, by, cx, cy = _edge_vectors(p, q, r)
    cross = bx * cy - by * cx
    if cross == 0:
        raise DegenerateInput("collinear points")
    dot = bx * cx + by * cy
    x, y = x1 * cross + dot * (cy - by), y1 * cross + dot * (bx - cx)
    return _point_of(x, y, l * cross)


def _integers(values: Sequence[Number]) -> Tuple[Number, ...]:
    """``values`` times the lcm of their denominators: integers for
    rationals, the floats themselves for floats."""
    ks = [_ratio(v) for v in values]
    k = math.lcm(*[d for _, d in ks])
    return tuple([n * (k // d) for n, d in ks])


class Triangle(tuple):
    """The vertices A, B, C of a triangle. The data that the constructions
    on it read are derived on first use and then kept: the edge lines BC,
    CA, AB, the orthocentre, the circumcircle, the metrics, the sides and
    the vertex triples on their common denominator. A face of a quadrangle
    is one, so the constructions on a face share them. Every triangle
    centre of the package is a barycentric `point` of its triangle."""

    @cached_property
    def edges(self) -> Tuple[Line, Line, Line]:
        a, b, c = self
        return Line.through(b, c), Line.through(c, a), Line.through(a, b)

    @cached_property
    def orthocentre(self) -> Point:
        return orthocentre(*self)

    @cached_property
    def circumcircle(self) -> Circle:
        return circumcircle(*self)

    @cached_property
    def metrics(self) -> TriangleMetrics:
        return triangle_metrics(*self)

    @cached_property
    def sides(self) -> Tuple[Number, Number, Number]:
        """The side lengths a, b, c up to one positive factor: integers when
        they are rational."""
        m = self.metrics
        return _integers((m.a, m.b, m.c))

    @cached_property
    def _frame(self) -> Tuple[List[Number], List[Number], int]:
        """The vertex triples over their common denominator l: the xs, the
        ys and l."""
        hs = [_hom(v) for v in self]
        l = math.lcm(*[w for _, _, w in hs])
        return [x * (l // w) for x, _, w in hs], [y * (l // w) for _, y, w in hs], l

    def point(self, wa: Number, wb: Number, wc: Number) -> Point:
        """The point with barycentric weights (wa, wb, wc), Σ wᵢ·vᵢ / Σ wᵢ:
        summed over the vertex triples on their common denominator, with
        exact weights scaled to integers first."""
        if type(wa) is Fraction or type(wb) is Fraction or type(wc) is Fraction:
            wa, wb, wc = _integers((wa, wb, wc))
        xs, ys, l = self._frame
        return _point_of(
            wa * xs[0] + wb * xs[1] + wc * xs[2],
            wa * ys[0] + wb * ys[1] + wc * ys[2],
            (wa + wb + wc) * l,
        )


def as_triangle(pts: Sequence[Point]) -> Triangle:
    """``pts`` itself if it is a `Triangle`, else a `Triangle` on its three
    vertices."""
    return pts if isinstance(pts, Triangle) else Triangle(pts)


@dataclass(frozen=True)
class LabeledQuadrangle:
    """An orthocentric quadrangle: its four vertices, labelled 1, 2, 4, 7 so
    that each is the orthocentre of the face on the other three. The rest is
    derived from them on first use and then kept: the Centre (label 0), the
    twins (the vertices reflected through the Centre), the midpoints and
    diagonal points labelled by nim-sums, the Central Circle and the four
    faces, one `Triangle` per label, so the constructions on a face share
    its edges, orthocentre, circumcircle and metrics."""

    vertices: Dict[int, Point]       # labels 1, 2, 4, 7

    @cached_property
    def center(self) -> Point:
        """Label 0: the mean of the four vertices, over their common
        denominator l."""
        hs = [_hom(p) for p in self.vertices.values()]
        l = math.lcm(*[w for _, _, w in hs])
        x = sum([x * (l // w) for x, _, w in hs])
        return _point_of(x, sum([y * (l // w) for _, y, w in hs]), 4 * l)

    @cached_property
    def twins(self) -> Dict[int, Point]:
        """The vertices reflected through the Centre; twin(l) is the
        circumcentre of face l."""
        c2 = self.center.scale(2)
        return {l: c2 - v for l, v in self.vertices.items()}

    @cached_property
    def twin_quadrangle(self) -> "LabeledQuadrangle":
        return LabeledQuadrangle(self.twins)

    @cached_property
    def midpoints(self) -> Dict[Tuple[int, bool], Point]:
        """Keyed (label, barred): the midpoint of vertices a and b has the
        label a ⊕ b, barred when 7 is one of them."""
        v = self.vertices
        return {
            (a ^ b, b == 7): v[a].midpoint(v[b]) for a, b in combinations(LABELS, 2)
        }

    @cached_property
    def diagonals(self) -> Dict[Tuple[int, bool], Point]:
        """Keyed (label, barred): the opposite edges a7 and bc with
        a ⊕ 7 = b ⊕ c meet in the diagonal point of that label (D6 = 17∩24,
        D5 = 27∩41, D3 = 47∩12); the barred one is its reflection through
        the Centre."""
        c2 = self.center.scale(2)
        out: Dict[Tuple[int, bool], Point] = {}
        for a, bc in ((1, (2, 4)), (2, (4, 1)), (4, (1, 2))):
            pt = self.edge(a, 7).intersect(self.edge(*bc))
            out[(a ^ 7, False)], out[(a ^ 7, True)] = pt, c2 - pt
        return out

    @cached_property
    def central_circle(self) -> Circle:
        """The nine-point circle shared by the four faces: centred at the
        Centre, through the six midpoints and the six diagonal points."""
        return Circle(self.center, self.midpoints[(6, False)].dist2(self.center))

    @cached_property
    def _faces(self) -> Dict[int, Triangle]:
        v = self.vertices
        return {l: Triangle(v[m] for m in self.face_labels(l)) for l in LABELS}

    def face(self, label: int) -> Triangle:
        """The triangle on the three labels other than `label`."""
        return self._faces[label]

    def face_labels(self, label: int) -> Tuple[int, int, int]:
        return tuple(l for l in LABELS if l != label)

    def edge(self, l1: int, l2: int) -> Line:
        """The line through vertices l1 and l2, read from the face of the
        larger of the other two labels: edge i of a face is the one opposite
        its vertex i."""
        opposite, label = (l for l in LABELS if l not in (l1, l2))
        return self._faces[label].edges[self.face_labels(label).index(opposite)]


def _is_right_or_isosceles(pts: Sequence[Point]) -> bool:
    a2 = pts[1].dist2(pts[2])
    b2 = pts[2].dist2(pts[0])
    c2 = pts[0].dist2(pts[1])
    return (
        a2 == b2 + c2 or b2 == c2 + a2 or c2 == a2 + b2  # right angle
        or a2 == b2 or b2 == c2 or c2 == a2
    )


def quadrate(p1: Point, p2: Point, p3: Point) -> LabeledQuadrangle:
    """Quadrate a triangle: adjoin its orthocentre and assign the nim-sum
    labels {1,2,4,7}; the vertex interior to the other three — the
    orthocentre of the acute face — gets 7."""
    h = orthocentre(p1, p2, p3)
    if _is_right_or_isosceles([p1, p2, p3]):
        raise AmbiguousLabeling("right or isosceles seed cannot be labeled")
    # label 7: the orthocentre of an acute seed, else the seed's obtuse
    # vertex (the one with a negative dot product)
    pts = [p1, p2, p3, h]
    seven_idx = next((i for i, d in enumerate(_vertex_dots(p1, p2, p3)) if d < 0), 3)
    rest = [q for j, q in enumerate(pts) if j != seven_idx]
    return LabeledQuadrangle(dict(zip(LABELS, rest + [pts[seven_idx]])))


def _vertex_dots(a: Point, b: Point, c: Point) -> Tuple[Number, Number, Number]:
    """Dot products of the two edge vectors at each vertex; negative at an
    obtuse angle."""
    return (b - a).dot(c - a), (a - b).dot(c - b), (a - c).dot(b - c)


def _is_acute(tri: Sequence[Point]) -> bool:
    return all(d > 0 for d in _vertex_dots(*tri))


@dataclass(frozen=True)
class EulerRange:
    orthocentre: Point
    circumcentre: Point
    centroid: Point
    de_longchamps: Point
    line: Line

    def harmonic(self) -> bool:
        return (
            cross_ratio(
                self.orthocentre, self.circumcentre, self.centroid, self.de_longchamps
            )
            == -1
        )


def euler_range(q: LabeledQuadrangle, label: int) -> EulerRange:
    """Euler range of the face opposite `label`: its orthocentre H is the
    vertex `label`, its circumcentre O the twin of that vertex, its centroid
    G the face's vertex mean and its de Longchamps point 2O − H. The range
    is harmonic because G = (H + 2O)/3."""
    h, o = q.vertices[label], q.twins[label]
    g = q.face(label).point(1, 1, 1)
    return EulerRange(h, o, g, o.scale(2) - h, Line.through(h, o))


@dataclass(frozen=True)
class TriangleMetrics:
    """Scalar data of a triangle; exact whenever the side lengths are
    rational (Heronian regime)."""

    a: Number
    b: Number
    c: Number
    s: Number
    area: Number
    r: Number
    r1: Number
    r2: Number
    r3: Number


def _root(n: Number) -> Number:
    """√n: an int for an int square, else a float."""
    if type(n) is int:
        k = math.isqrt(n)
        if k * k == n:
            return k
    return math.sqrt(n)


def triangle_metrics(p: Point, q: Point, r: Point) -> TriangleMetrics:
    """Over the common denominator l the vertices are vectors of the
    triples, each side is √N/l and the area is |X|/(2l²) for their cross
    product X: one `Fraction` per field when the sides are rational."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = _hom(p), _hom(q), _hom(r)
    l = math.lcm(w1, w2, w3)
    x1, y1, x2, y2 = x1 * (l // w1), y1 * (l // w1), x2 * (l // w2), y2 * (l // w2)
    x3, y3 = x3 * (l // w3), y3 * (l // w3)
    cross = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    if cross == 0:
        raise DegenerateInput("collinear points")
    a, b, c = [
        _root(dx * dx + dy * dy)
        for dx, dy in ((x3 - x2, y3 - y2), (x1 - x3, y1 - y3), (x2 - x1, y2 - y1))
    ]
    # 2l·s and 2l·(s − a), …; for rational sides the inequality is strict
    s2 = a + b + c
    sa, sb, sc = s2 - 2 * a, s2 - 2 * b, s2 - 2 * c
    if min(sa, sb, sc) <= 0:
        raise DegenerateInput("sliver: a side rounds to the sum of the others")
    return TriangleMetrics(
        a=divide(a, l), b=divide(b, l), c=divide(c, l),
        s=divide(s2, 2 * l), area=divide(cross, 2 * l * l),
        r=divide(cross, l * s2), r1=divide(cross, l * sa),
        r2=divide(cross, l * sb), r3=divide(cross, l * sc),
    )


@dataclass(frozen=True)
class MedialData:
    circles: Tuple[Circle, Circle, Circle]          # median-diameter circles
    radical_axes: Tuple[Line, Line, Line]           # = the altitudes


def medial_circles(p: Point, q: Point, r: Point) -> MedialData:
    """Circles on the medians as diameters; their radical axes are the
    altitudes."""
    if (q - p).cross(r - p) == 0:
        raise DegenerateInput("collinear points")
    pts = (p, q, r)
    mids = (q.midpoint(r), r.midpoint(p), p.midpoint(q))
    circles = tuple(circle_from_diameter(pts[i], mids[i]) for i in range(3))
    axes = tuple(
        radical_axis(circles[(i + 1) % 3], circles[(i + 2) % 3]) for i in range(3)
    )
    return MedialData(circles, axes)


def altitudes(p: Point, q: Point, r: Point) -> Tuple[Line, Line, Line]:
    return (
        Line.from_point_normal(p, r - q),
        Line.from_point_normal(q, p - r),
        Line.from_point_normal(r, q - p),
    )


def quadration_edges(tri: Sequence[Point]) -> List[Tuple[Number, Number, Number]]:
    """Edge triples 2R·(sinA, cosB, cosC) etc. of the derived triangles, read
    from the sides and the area: 2R·sinA = a and
    2R·cosA = a(b² + c² − a²)/(4Δ), cyclically."""
    m = as_triangle(tri).metrics
    a, b, c = m.a, m.b, m.c
    a2, b2, c2, k = a * a, b * b, c * c, 4 * m.area
    ca = a * (b2 + c2 - a2) / k     # 2R·cosA
    cb = b * (c2 + a2 - b2) / k
    cc = c * (a2 + b2 - c2) / k
    return [(a, cb, cc), (ca, b, cc), (ca, cb, c)]


def acute_census(q: LabeledQuadrangle) -> Dict[str, int]:
    acute = sum(1 for l in LABELS if _is_acute(q.face(l)))
    return {"acute": acute, "obtuse": 4 - acute}
