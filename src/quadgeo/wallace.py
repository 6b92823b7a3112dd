"""Simson-Wallace and Steiner lines, their quadration, the iterated
reflect-in-three-edges sequence with its naming scheme and cycle detection,
the three-cusped envelope (deltoid) with its double-contact test, the
six-tangent star configuration, and the converse constructions. A Wallace
line reads the circumcircle, orthocentre and edges of its `Triangle`, so the
lines of many circle points on one triangle derive them once."""

from __future__ import annotations

import cmath
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel import (
    DEFAULT_EPS,
    Circle,
    DegenerateInput,
    GeometryError,
    IdentityViolated,
    Line,
    Number,
    Point,
    PointNotOnCircumcircle,
    _hom,
    _point_of,
    circle_from_diameter,
    collinear,
    foot_of_perpendicular,
    is_exact,
    reflect_point_in_line,
    sqrt_scalar,
)
from .quadrangle import LABELS, LabeledQuadrangle, Triangle, as_triangle


class ZeroParameter(GeometryError):
    pass


class NoIntersection(GeometryError):
    pass


# ---------------------------------------------------------------------------
# Wallace / Steiner lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallaceData:
    source: Point
    feet: Tuple[Point, Point, Point]
    line: Line
    steiner_line: Line
    midpoint_T: Point
    orthocentre: Point


def wallace_line(tri: Sequence[Point], s: Point, eps: float = 0.0) -> WallaceData:
    """Feet of the perpendiculars from a circumcircle point are collinear;
    the Steiner line is the 2x homothety of that line from the source and
    passes through the orthocentre; the source-orthocentre midpoint lies on
    the Central Circle."""
    tri = as_triangle(tri)
    if not tri.circumcircle.contains(s, eps=eps):
        raise PointNotOnCircumcircle("source must lie on the circumcircle")
    h = tri.orthocentre
    feet = tuple(foot_of_perpendicular(s, e) for e in tri.edges)
    # line through two distinct feet
    pts = []
    for f in feet:
        if all(f != g for g in pts):
            pts.append(f)
    if len(pts) < 2:
        raise DegenerateInput("all feet coincide")
    line = Line.through(pts[0], pts[1])
    steiner = _homothety_line(line, s, 2)
    return WallaceData(s, feet, line, steiner, s.midpoint(h), h)


def _homothety_line(line: Line, center: Point, k: Number) -> Line:
    p0 = foot_of_perpendicular(center, line)
    image = center + (p0 - center).scale(k)
    return line.parallel_through(image)


@dataclass(frozen=True)
class QuadratedWallace:
    feet: List[Point]              # all 12 feet
    line: Line                     # the single common Wallace line


def wallace_quadrated(q: LabeledQuadrangle, s8: Point) -> QuadratedWallace:
    """Transport of a circumcircle point to the other three circumcircles
    by a common radius vector: the twelve perpendicular feet lie on one
    line."""
    circ8 = q.face(7).circumcircle
    if not circ8.contains(s8):
        raise PointNotOnCircumcircle("source must lie on the 124-circumcircle")
    rho = s8 - circ8.center  # radius vector; face circumcentre of l is twin(l)
    sources = {7: s8, **{l: q.twins[l] + rho for l in (1, 2, 4)}}
    feet = [
        foot_of_perpendicular(s, e) for l, s in sources.items() for e in q.face(l).edges
    ]
    line = wallace_line(q.face(7), s8).line
    return QuadratedWallace(feet, line)


def rational_circle_point(circle: Circle, base: Point, t: Number) -> Point:
    """Rational parametrization of the circle through a known rational
    point `base`: second intersection of the line of slope t through base."""
    return second_intersection(circle, base, Point(1 + 0 * t, t))


# ---------------------------------------------------------------------------
# the iterated reflection sequence
# ---------------------------------------------------------------------------

_CYCLIC = (1, 2, 4, 7)


def _host_order(host: int) -> Tuple[int, int, int]:
    i = _CYCLIC.index(host)
    return tuple(_CYCLIC[(i + k) % 4] for k in (1, 2, 3))


@dataclass(frozen=True)
class TrisequenceNode:
    name: str
    point: Point
    host: int             # circle label the point lies on
    line_name: str        # the line it lies on (generation letter)
    parent: Optional[str]


@dataclass(frozen=True)
class TrisequenceRow:
    reflect: str                 # node name
    in_edges: Tuple[str, str, str]
    to_give: Tuple[str, str, str]
    lying_on: Tuple[int, int, int]
    through: int                 # vertex label the new line passes through
    line_name: str
    line: Line
    slope: Optional[Number]


@dataclass
class TrisequenceResult:
    nodes: Dict[str, TrisequenceNode]
    rows: List[TrisequenceRow]
    lines: Dict[str, Line]
    coincidences: List[Tuple[str, str]]   # (would-be name, existing name)


def trisequence(
    q: LabeledQuadrangle, seed_name: str, seed_point: Point, max_lines: int
) -> TrisequenceResult:
    """Breadth-first expansion: reflect each point in the three edges of
    its host face; the images land on the other three circumcircles and are
    collinear on a line through the host vertex. Lines are lettered in
    processing order; already-seen image points close cycles."""
    host = int(seed_name[0])
    if not q.face(host).circumcircle.contains(seed_point):
        raise PointNotOnCircumcircle("seed must lie on its host circumcircle")
    letters = _line_letters()
    seed = TrisequenceNode(seed_name, seed_point, host, seed_name[1:], None)
    nodes = {seed_name: seed}
    by_point: Dict[Point, str] = {seed_point: seed_name}
    rows: List[TrisequenceRow] = []
    lines: Dict[str, Line] = {}
    coincidences: List[Tuple[str, str]] = []
    queue: List[str] = [seed_name]
    while queue and len(lines) < max_lines:
        name = queue.pop(0)
        node = nodes[name]
        letter = letters[len(lines)]
        opp = _host_order(node.host)
        images: List[Point] = []
        give_names: List[str] = []
        edge_names: List[str] = []
        for i, v in enumerate(opp):
            e1, e2 = opp[(i + 1) % 3], opp[(i + 2) % 3]
            edge_names.append(f"{e1}{e2}")
            img = reflect_point_in_line(node.point, q.edge(e1, e2))
            images.append(img)
            if img in by_point:
                existing = by_point[img]
                give_names.append(existing)
                if existing != f"{v}{letter}":
                    coincidences.append((f"{v}{letter}", existing))
            else:
                child = TrisequenceNode(f"{v}{letter}", img, v, letter, name)
                nodes[child.name] = child
                by_point[img] = child.name
                give_names.append(child.name)
                queue.append(child.name)
        line = Line.through(images[0], images[1])
        if not line.contains(images[2]):
            raise IdentityViolated(f"images of {name} are not collinear")
        if not line.contains(q.vertices[node.host]):
            raise IdentityViolated(f"line {letter} misses host vertex {node.host}")
        lines[letter] = line
        rows.append(
            TrisequenceRow(
                reflect=name,
                in_edges=tuple(edge_names),
                to_give=tuple(give_names),
                lying_on=opp,
                through=node.host,
                line_name=letter,
                line=line,
                slope=line.slope(),
            )
        )
    return TrisequenceResult(nodes, rows, lines, coincidences)


def _line_letters() -> List[str]:
    single = list(string.ascii_uppercase)
    return single + [a + b for a in single for b in single]


def midpoint_rs(q: LabeledQuadrangle, node: TrisequenceNode) -> Tuple[Point, Tuple[int, int]]:
    """Midpoint of a sequence point with its host vertex (the orthocentre
    of the host face) lies on the Central Circle; return it with its
    half-angle parametrization (r, s): T/radius = ((r²−s²), 2rs)/(r²+s²)."""
    t = node.point.midpoint(q.vertices[node.host])
    if not q.central_circle.contains(t):
        raise IdentityViolated(f"midpoint of {node.name} misses the Central Circle")
    rad2 = q.central_circle.r2
    rad = sqrt_scalar(rad2)
    if not is_exact(rad):
        raise DegenerateInput("irrational central radius")
    p = Fraction(t.x - q.central_circle.center.x, 1) / rad
    s_ = Fraction(t.y - q.central_circle.center.y, 1) / rad
    if p == -1:
        return t, (0, 1)
    ratio = s_ / (1 + p)  # = s/r
    return t, (ratio.denominator, ratio.numerator)


# ---------------------------------------------------------------------------
# three-cycles and the trebled quadrangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeCycleData:
    antipodes: Dict[Tuple[int, int], Point]   # (vertex, circle) -> antipode
    cycles: List[Tuple[Tuple[int, int], ...]]
    lines: Dict[Tuple[int, int], Line]        # label pair -> 4-point line
    quads: Dict[Tuple[int, int], Tuple[Point, ...]]  # the 4 points per line
    trebled: Dict[int, Point]                 # trebled quadrangle vertices
    trebled_circle: Circle


def three_cycles(q: LabeledQuadrangle) -> ThreeCycleData:
    """The antipode of vertex v on circle h, the circumcircle of face h, is
    2·twin(h) − v. Reflected in the edge vw of face h it is the antipode of
    v on circle v ⊕ h ⊕ w, so the twelve antipodes reflect among themselves
    in four 3-cycles, {(v, h) : h ≠ v} for each vertex v.  For each pair of
    labels the line joining the two cross antipodes also carries their
    reflections in the opposite edge; the six such lines concur in threes at
    the vertices of the quadrangle trebled about the Centre, whose Central
    Circle has thrice the radius.  Each of the 24 reflections and 12
    incidences is checked."""
    antipodes = {
        (v, h): q.twins[h].scale(2) - q.vertices[v]
        for h in LABELS
        for v in q.face_labels(h)
    }
    for (v, h), pt in antipodes.items():
        for w in q.face_labels(h):
            if w == v:
                continue
            u = v ^ h ^ w
            if reflect_point_in_line(pt, q.edge(v, w)) != antipodes[(v, u)]:
                raise IdentityViolated(
                    f"antipode ({v}, {h}) reflected in edge {v}{w} is not ({v}, {u})"
                )
    cycles = [tuple((v, h) for h in LABELS if h != v) for v in LABELS]

    lines: Dict[Tuple[int, int], Line] = {}
    quads: Dict[Tuple[int, int], Tuple[Point, ...]] = {}
    for c1, c2 in combinations(LABELS, 2):
        a1, a2 = antipodes[(c1, c2)], antipodes[(c2, c1)]
        line = Line.through(a1, a2)
        opposite = q.edge(*(l for l in LABELS if l not in (c1, c2)))
        extras = [reflect_point_in_line(a, opposite) for a in (a1, a2)]
        if not all(line.contains(p) for p in extras):
            raise IdentityViolated(f"line {c1}{c2} misses a reflected antipode")
        lines[(c1, c2)] = line
        quads[(c1, c2)] = (a1, a2) + tuple(sorted(extras, key=lambda p: (p.x, p.y)))

    trebled = {l: q.center - (v - q.center).scale(3) for l, v in q.vertices.items()}
    trebled_circle = Circle(q.center, 9 * q.central_circle.r2)
    return ThreeCycleData(antipodes, cycles, lines, quads, trebled, trebled_circle)


def six_cycle_check(q: LabeledQuadrangle, start: Point) -> bool:
    """Reflecting in edges 14, 24, 47, 14, 24, 47 returns the point."""
    p = start
    for _ in range(2):
        for (a, b) in ((1, 4), (2, 4), (4, 7)):
            p = reflect_point_in_line(p, q.edge(a, b))
    return p == start


# ---------------------------------------------------------------------------
# deltoid (normalized frame: centre at origin, circumradius parameter R=2)
# ---------------------------------------------------------------------------


def _deltoid_line_poly(t: Number) -> List[Number]:
    """Coefficients (ascending) of the quartic N(u) whose roots are the
    deltoid parameters where the parameter-t tangent line meets the curve:
    N(u) = (1+t²)·[8u³ + t(3−6u²−u⁴)] − t(3−t²)(1+u²)²."""
    d = 1 + t * t
    k = t * (3 - t * t)
    # (1+t²)(−t·u⁴ + 8u³ − 6t·u² + 0·u + 3t) − k(u⁴ + 2u² + 1)
    return [
        d * 3 * t - k,
        0,
        d * (-6 * t) - 2 * k,
        d * 8,
        d * (-t) - k,
    ]


def deltoid_tangency_check(t: Number) -> bool:
    """The tangent line has exact double contact at parameter t: the
    intersection quartic has a double root there."""
    if t == 0:
        raise ZeroParameter("t = 0 is the vertical-tangent limit")
    coeffs = _deltoid_line_poly(t)
    val = sum(c * t**i for i, c in enumerate(coeffs))
    deriv = sum(i * c * t ** (i - 1) for i, c in enumerate(coeffs) if i >= 1)
    return val == 0 and deriv == 0


# ---------------------------------------------------------------------------
# six tangent lines to the Central Circle (star configuration)
# ---------------------------------------------------------------------------


#: distance off the circumcircle allowed for star_of_david's float sources, times r²
_STAR_SOURCE_TOL = 1e-6


@dataclass(frozen=True)
class StarOfDavid:
    tangent_lines: List[Line]
    triangles: Tuple[Tuple[Point, Point, Point], Tuple[Point, Point, Point]]


def star_of_david(q: LabeledQuadrangle) -> StarOfDavid:
    """Six tangents to the Central Circle: the Wallace line touches it at
    three symmetric positions, and the twin triangle contributes the three
    parallel tangents on the opposite side (central reflections).  The two
    triples bound two equilateral triangles, mutual reflections through the
    Centre (approximate backend).

    With the face-7 vertices a, b, c as complex numbers on the unit
    circumcircle, the Wallace line of s touches the Central Circle exactly
    when s³ = −abc, so the three positions are arg(−abc)/3 + 2πk/3."""
    tri = Triangle(Point(float(p.x), float(p.y)) for p in q.face(7))
    circ = tri.circumcircle
    cx, cy = float(circ.center.x), float(circ.center.y)
    rad = math.sqrt(float(circ.r2))
    c0x, c0y = float(q.center.x), float(q.center.y)

    def wl(theta: float) -> Line:
        s = Point(cx + rad * math.cos(theta), cy + rad * math.sin(theta))
        return wallace_line(tri, s, eps=_STAR_SOURCE_TOL * rad * rad).line

    neg_abc = -math.prod(complex(p.x - cx, p.y - cy) / rad for p in tri)
    thetas = sorted(
        (cmath.phase(neg_abc) / 3 + 2 * math.pi * k / 3) % (2 * math.pi)
        for k in range(3)
    )
    primary = [wl(th) for th in thetas]
    mirrored = [_homothety_line(l, Point(c0x, c0y), -1) for l in primary]
    lines = primary + mirrored

    def corners(ls):
        return tuple(ls[i].intersect(ls[(i + 1) % 3]) for i in range(3))

    return StarOfDavid(lines, (corners(primary), corners(mirrored)))


# ---------------------------------------------------------------------------
# converse constructions
# ---------------------------------------------------------------------------


def converse_simson(p: Point, l: Point, m: Point, n: Point) -> Triangle:
    """Perpendiculars at three collinear points to their joins to P form a
    triangle whose circumcircle passes through P; P is the focus of the
    parabola with tangent-at-vertex LMN, and the triangle's orthocentre
    lies on the directrix."""
    if len({l, m, n}) < 3:
        raise DegenerateInput("collinear points must be distinct")
    if not collinear(l, m, n):
        raise DegenerateInput("L, M, N must be collinear")
    base = Line.through(l, m)
    if base.contains(p):
        raise DegenerateInput("P must lie off the line LMN")
    perps = [Line.from_point_normal(x, x - p) for x in (l, m, n)]
    tri = Triangle((
        perps[1].intersect(perps[2]),
        perps[2].intersect(perps[0]),
        perps[0].intersect(perps[1]),
    ))
    if not tri.circumcircle.contains(p):
        raise IdentityViolated("constructed circumcircle misses P")
    foot = foot_of_perpendicular(p, base)
    directrix = base.parallel_through(Point(2 * foot.x - p.x, 2 * foot.y - p.y))
    if not directrix.contains(tri.orthocentre):
        raise IdentityViolated("orthocentre not on the directrix")
    return tri


def line_circle_intersections(line: Line, circle: Circle) -> List[Point]:
    """Both intersection points (exact when the discriminant is a perfect
    square); raises NoIntersection when the line misses the circle."""
    f = foot_of_perpendicular(circle.center, line)
    h2 = circle.r2 - f.dist2(circle.center)
    if h2 < 0:
        raise NoIntersection("line misses the circle")
    d = line.direction()
    try:
        u = sqrt_scalar(h2 / d.norm2())
    except ValueError as exc:
        raise NoIntersection(str(exc)) from exc
    return [
        Point(f.x + u * d.x, f.y + u * d.y),
        Point(f.x - u * d.x, f.y - u * d.y),
    ]


def second_intersection(circle: Circle, known: Point, direction: Point) -> Point:
    """Other intersection of the line through a known circle point: with
    b = known − centre and direction d it is known + u·d, u = −2(b·d)/|d|².
    Over the triples K, C, D of known, centre and direction this is
    (X_K·W_C·n + m·X_D, Y_K·W_C·n + m·Y_D) / (W_K·W_C·n) with n = X_D² + Y_D²
    and m = −2(B·D), B = (X_K·W_C − X_C·W_K, Y_K·W_C − Y_C·W_K)."""
    (xk, yk, wk), (xc, yc, wc), (dx, dy, _) = (
        _hom(known), _hom(circle.center), _hom(direction)
    )
    n = dx * dx + dy * dy
    m = -2 * ((xk * wc - xc * wk) * dx + (yk * wc - yc * wk) * dy)
    return _point_of(xk * wc * n + m * dx, yk * wc * n + m * dy, wk * wc * n)


@dataclass(frozen=True)
class FitTriangleData:
    triangle: Tuple[Point, Point, Point]
    wallace: WallaceData


def fit_triangle(circle: Circle, p: Point, line: Line, a: Point) -> FitTriangleData:
    """Inscribe a triangle with vertex A in the circle so that the given
    line is the Wallace line of P: the circle on PA as diameter meets the
    line in the two feet on the sides through A."""
    if not circle.contains(p) or not circle.contains(a):
        raise PointNotOnCircumcircle("P and A must lie on the circle")
    diam = circle_from_diameter(p, a)
    feet = line_circle_intersections(line, diam)
    f_c, f_b = feet
    b = second_intersection(circle, a, f_c - a)
    c = second_intersection(circle, a, f_b - a)
    wd = wallace_line((a, b, c), p, eps=DEFAULT_EPS * float(circle.r2))
    if wd.line != line and not (
        wd.line.contains(f_b, DEFAULT_EPS) and wd.line.contains(f_c, DEFAULT_EPS)
    ):
        raise DegenerateInput("constructed triangle has a different Wallace line")
    return FitTriangleData((a, b, c), wd)
