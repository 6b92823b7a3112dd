"""Droz-Farny lines: construction from a perpendicular pair through the
orthocentre, the converse from a circumcircle point (the pair as the null
lines of one quadratic form, exact when α² + β² is a rational square), the
envelope conic with foci at orthocentre and circumcentre and its vertices
on the Central Circle, the associated parabola, the equilateral case, and
the Miquel / reflected-line background theorems.
Each construction on a triangle reads its edges, orthocentre and
circumcircle from one `Triangle`, so constructions that share it derive
them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .kernel import (
    Conic,
    ConicKind,
    DegenerateInput,
    GeometryError,
    IdentityViolated,
    Line,
    Number,
    Parabola,
    Point,
    PointNotOnCircumcircle,
    PointNotOnEdgeLine,
    circumcircle,
    collinear,
    perpendicular_bisector,
    reflect_line_in_line,
    reflect_point_in_line,
    residual_ratio,
    sqrt_scalar,
    vanishes,
)
from .quadrangle import Triangle, as_triangle


class NotPerpendicular(GeometryError):
    pass


class NotThroughVertex(GeometryError):
    pass


class EdgeParallel(GeometryError):
    pass


class DegenerateChoice(GeometryError):
    pass


class LineNotThroughOrthocentre(GeometryError):
    pass


class DegenerateInstance(GeometryError):
    pass


# ---------------------------------------------------------------------------
# the Droz-Farny line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DFInstance:
    triangle: Triangle
    orthocentre: Point
    pair: Tuple[Line, Line]
    cuts: Dict[str, Point]           # X1, X2, Y1, Y2, Z1, Z2
    midpoints: Tuple[Point, Point, Point]
    df: Line
    m: Point                         # reflection of H in df, on circumcircle


def _edge_cuts(
    edges: Sequence[Line], pair: Tuple[Line, Line]
) -> Dict[str, Point]:
    cuts: Dict[str, Point] = {}
    for name, edge in zip("XYZ", edges):
        for idx, line in enumerate(pair, 1):
            if line.is_parallel(edge):
                raise EdgeParallel(f"pair line {idx} parallel to edge {name}")
            cuts[f"{name}{idx}"] = line.intersect(edge)
    return cuts


def df_line(tri: Sequence[Point], pair: Tuple[Line, Line]) -> DFInstance:
    """Cut a perpendicular pair of lines through the orthocentre by the
    three edges; the midpoints of the three chords are collinear."""
    tri = as_triangle(tri)
    h = tri.orthocentre
    l1, l2 = pair
    if not l1.is_perpendicular(l2):
        raise NotPerpendicular("pair is not perpendicular")
    for line in pair:
        if not line.contains(h):
            raise NotThroughVertex("pair must pass through the orthocentre")
    cuts = _edge_cuts(tri.edges, pair)
    mids = tuple(cuts[f"{n}1"].midpoint(cuts[f"{n}2"]) for n in "XYZ")
    if not collinear(*mids):
        raise IdentityViolated("Droz-Farny midpoints are not collinear")
    df = Line.through(mids[0], mids[1])
    m = reflect_point_in_line(h, df)
    return DFInstance(tri, h, (l1, l2), cuts, mids, df, m)


def verify_instance(inst: DFInstance) -> bool:
    """Both constructions of the line agree: each chord midpoint is as far
    from M as from H, so the line through the midpoints is the bisector of
    HM and the midpoint circles through H are coaxal through M.  (M on the
    circumcircle is the audit key
    ``edge_triangle_circumcircle_through_focus``, and the midpoints'
    collinearity is checked by ``df_line``.)"""
    h, m = inst.orthocentre, inst.m
    gaps = [(p.dist2(h), p.dist2(m)) for p in inst.midpoints]
    return all(vanishes(s - t, s + t) for s, t in gaps)


# ---------------------------------------------------------------------------
# the converse: from a circumcircle point back to the pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DFConverse:
    triangle: Triangle
    orthocentre: Point
    m: Point
    df: Line
    pair: Tuple[Line, Line]          # exact when α² + β² is a rational square


def df_converse(tri: Sequence[Point], m: Point) -> DFConverse:
    """The perpendicular bisector of HM is a Droz-Farny line whenever M is
    on the circumcircle (`Circle.contains`), else PointNotOnCircumcircle. A
    perpendicular pair through H is the null pair of a form
    Q(u) = α(u_x² − u_y²) + 2β·u_x·u_y; it cuts an edge of direction d,
    which the line cuts at p = H + v, in a chord with midpoint p exactly
    when B(v, d) = α(v_x·d_x − v_y·d_y) + β(v_x·d_y + v_y·d_x) vanishes. The first edge fixes (α, β); B must
    vanish on the other two, against |(α, β)|·|v|·|d| for floats, else
    IdentityViolated. The chord ends p ± (|v|/|d|)·d then lie
    on the pair, as Q(v)|d|² + |v|²Q(d) = 2(v·d)·B(v, d). The pair runs
    along u = (α, β ± √(α² + β²)), signed as β to avoid cancellation, and
    along u turned by 90°."""
    tri = as_triangle(tri)
    h = tri.orthocentre
    circ = tri.circumcircle
    if not circ.contains(m):
        raise PointNotOnCircumcircle("M must lie on the circumcircle")
    for e in tri.edges:
        if reflect_point_in_line(h, e).close_to(m):
            raise DegenerateChoice("M is a reflection of H in an edge")
    df = perpendicular_bisector(h, m)
    forms = []
    for e in tri.edges:
        if df.is_parallel(e):
            raise EdgeParallel("Droz-Farny line parallel to an edge")
        v, d = df.intersect(e) - h, e.direction()
        # (sym, skew) has length |v|·|d|
        forms.append((v.x * d.x - v.y * d.y, v.x * d.y + v.y * d.x))
    (sym, skew), *others = forms
    alpha, beta = skew, -sym
    for sym, skew in others:
        mag = math.hypot(alpha, beta) * math.hypot(sym, skew)
        if not vanishes(alpha * sym + beta * skew, mag):
            raise IdentityViolated("the pair from one edge misses another edge's chord")
    root = sqrt_scalar(alpha * alpha + beta * beta)
    u = Point(alpha, beta + root if beta >= 0 else beta - root)
    pair = (
        Line.from_point_direction(h, u),
        Line.from_point_direction(h, Point(-u.y, u.x)),
    )
    return DFConverse(tri, h, m, df, pair)


# ---------------------------------------------------------------------------
# the envelope conic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeConic:
    conic: Optional[Conic]           # None when degenerate to a point
    kind: str                        # "ellipse" | "hyperbola" | "point"
    center: Point
    axis2: Number                    # (2a)² = R²


def df_envelope(tri: Sequence[Point]) -> EnvelopeConic:
    """The envelope of the Droz-Farny lines: the conic with foci at the
    orthocentre and circumcentre and full axis length R — an ellipse or a
    hyperbola according as the triangle is acute or obtuse, degenerating
    to the right-angle vertex for a right triangle."""
    tri = as_triangle(tri)
    h = tri.orthocentre
    circ = tri.circumcircle
    o = circ.center
    r2 = circ.r2
    oh2 = o.dist2(h)
    center = o.midpoint(h)
    conj = r2 - oh2
    if vanishes(conj, r2 + oh2):
        return EnvelopeConic(None, "point", center, r2)
    kind = ConicKind.ELLIPSE if conj > 0 else ConicKind.HYPERBOLA
    return EnvelopeConic(Conic(h, o, r2, kind), kind.value, center, r2)


def envelope_tangency(env: EnvelopeConic, inst: DFInstance) -> bool:
    """Focal tangency: the reflection of the orthocentre-focus in the
    Droz-Farny line lies at distance R from the circumcentre."""
    if env.conic is None:
        raise DegenerateInstance("degenerate envelope")
    return env.conic.is_tangent(inst.df)


def envelope_special_tangents(tri: Sequence[Point]) -> bool:
    """The edges and the perpendicular bisectors of HA, HB, HC are all
    tangent to the envelope, and the Central Circle tangents at the
    Euler-line intersections touch it: that circle has the conic's centre
    and radius R/2, so it meets the focal axis at the conic's vertices,
    and both curves being symmetric about the axis, its tangents there
    are the vertex tangents. A squared length vanishes against the sum of
    its terms, and the centres must be `Point.close_to`."""
    tri = as_triangle(tri)
    env = df_envelope(tri)
    if env.conic is None:
        raise DegenerateInstance("degenerate envelope")
    h = tri.orthocentre
    a, b, c = tri
    central = circumcircle(b.midpoint(c), c.midpoint(a), a.midpoint(b))
    lines = [*tri.edges, *(perpendicular_bisector(h, v) for v in tri)]
    return (
        all(env.conic.is_tangent(l) for l in lines)
        and vanishes(4 * central.r2 - env.axis2, 4 * central.r2 + env.axis2)
        and central.center.close_to(env.center)
    )


# ---------------------------------------------------------------------------
# the associated parabola
# ---------------------------------------------------------------------------


def df_parabola(inst: DFInstance) -> Parabola:
    """The inscribed parabola with focus M: its directrix is the line of
    the reflections of M in the three edges, which passes through the
    orthocentre.  It touches the three edges, both pair lines, and the
    Droz-Farny line."""
    refs = [reflect_point_in_line(inst.m, e) for e in inst.triangle.edges]
    directrix = Line.through(refs[0], refs[1])
    if not directrix.contains(refs[2]):
        raise IdentityViolated("reflections of M in the edges are not collinear")
    if not directrix.contains(inst.orthocentre):
        raise IdentityViolated("directrix misses the orthocentre")
    if directrix.contains(inst.m):
        raise DegenerateInstance("focus on directrix")
    return Parabola(inst.m, directrix)


def parabola_tangency_audit(inst: DFInstance) -> Dict[str, bool]:
    par = df_parabola(inst)
    edges = inst.triangle.edges
    lines = {
        "edge_a": edges[0],
        "edge_b": edges[1],
        "edge_c": edges[2],
        "pair_1": inst.pair[0],
        "pair_2": inst.pair[1],
        "df": inst.df,
    }
    out = {name: par.is_tangent(l) for name, l in lines.items()}
    out["h_on_directrix"] = par.directrix.contains(inst.orthocentre)
    out["pair_meets_on_directrix"] = par.directrix.contains(
        inst.pair[0].intersect(inst.pair[1])
    )
    out["edge_triangle_circumcircle_through_focus"] = (
        inst.triangle.circumcircle.contains(inst.m)
    )
    return out


# ---------------------------------------------------------------------------
# the equilateral case
# ---------------------------------------------------------------------------


#: side of the equilateral triangle and number of pair directions that
#: ``equilateral_df_check`` sweeps
EQUILATERAL_SIDE = 2.0
EQUILATERAL_DIRECTIONS = 36


def equilateral_df_check() -> float:
    """For an equilateral triangle every Droz-Farny line is tangent to the
    incircle (foot of the perpendicular from the centre on the incircle):
    the worst miss |d − r|/(d + r), d the centre's distance from the line."""
    side, count = EQUILATERAL_SIDE, EQUILATERAL_DIRECTIONS
    r = side / (2 * math.sqrt(3.0))
    tri = Triangle((Point(-side / 2, -r), Point(side / 2, -r), Point(0.0, 2 * r)))
    h = tri.orthocentre   # the centre, (0, 0) up to rounding
    misses = []
    for i in range(count):
        th = math.pi * (i + 0.5) / count
        d = Point(math.cos(th), math.sin(th))
        inst = df_line(tri, (
            Line.from_point_direction(h, d),
            Line.from_point_direction(h, Point(-d.y, d.x)),
        ))
        d = abs(float(inst.df.evaluate(h)))
        misses.append(residual_ratio(d - r, d + r))
    return max(misses)


# ---------------------------------------------------------------------------
# background theorems: Miquel and reflected-line concurrence
# ---------------------------------------------------------------------------


def miquel_point(tri: Sequence[Point], x: Point, y: Point, z: Point) -> Point:
    """Common point of circles AYZ, BZX, CXY for X, Y, Z on the edge lines
    BC, CA, AB (exact for rational data)."""
    a, b, c = tri
    for p, (e1, e2) in ((x, (b, c)), (y, (c, a)), (z, (a, b))):
        if not collinear(p, e1, e2):
            raise PointNotOnEdgeLine("cut point off its edge line")
    c1 = circumcircle(a, y, z)
    c2 = circumcircle(b, z, x)
    c3 = circumcircle(c, x, y)
    # c1 and c2 share z; the second intersection is the reflection of z in
    # the line of centres
    if c1.center.close_to(c2.center):
        raise DegenerateInput("coincident circles")
    p = reflect_point_in_line(z, Line.through(c1.center, c2.center))
    if p.close_to(z):
        p = z  # tangent circles: Miquel point is the shared point itself
    if not c3.contains(p):
        raise IdentityViolated("circle CXY misses the Miquel point")
    return p


def theorem_r(tri: Sequence[Point], line: Line) -> Point:
    """Reflections of a line through the orthocentre in the three edges
    concur at a point on the circumcircle, whose Wallace line is parallel
    to the input line."""
    tri = as_triangle(tri)
    if not line.contains(tri.orthocentre):
        raise LineNotThroughOrthocentre("line must pass through the orthocentre")
    reflected = [reflect_line_in_line(line, e) for e in tri.edges]
    p = reflected[0].intersect(reflected[1])
    if not reflected[2].contains(p):
        raise IdentityViolated("reflected lines fail to concur")
    if not tri.circumcircle.contains(p):
        raise IdentityViolated("concurrence point misses the circumcircle")
    return p
