"""Droz-Farny lines: construction from a perpendicular pair through the
orthocentre, the converse from a circumcircle point, the envelope conic
with foci at orthocentre and circumcentre, the associated parabola, the
equilateral case, and the Miquel / reflected-line background theorems.
Each construction on a triangle reads its edges, orthocentre and
circumcircle from one `Triangle`, so constructions that share it derive
them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel import (
    DEFAULT_EPS,
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


#: float tolerances besides ``DEFAULT_EPS``; each use scales a relative one
_MIDPOINT_TOL = 1e-6          # collinearity of the three chord midpoints
_COINCIDENCE_TOL = 1e-12      # two points closer than this are one
_CHORD_END_TOL = 1e-7         # relative: a chord end on the first recovered line
_SECOND_LINE_TOL = 1e-6       # relative: a chord end on the second recovered line
_VERTEX_TANGENCY_TOL = 1e-6   # relative: the envelope's vertex tangents


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
    if not l1.is_perpendicular(l2, DEFAULT_EPS):
        raise NotPerpendicular("pair is not perpendicular")
    for line in pair:
        if not line.contains(h, DEFAULT_EPS):
            raise NotThroughVertex("pair must pass through the orthocentre")
    cuts = _edge_cuts(tri.edges, pair)
    mids = tuple(cuts[f"{n}1"].midpoint(cuts[f"{n}2"]) for n in "XYZ")
    if not collinear(*mids, eps=_MIDPOINT_TOL):
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
    return all(p.dist2(h) == p.dist2(m) for p in inst.midpoints)


# ---------------------------------------------------------------------------
# the converse: from a circumcircle point back to the pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DFConverse:
    triangle: Triangle
    orthocentre: Point
    m: Point
    df: Line
    pair: Tuple[Line, Line]          # Approx representatives


def df_converse(tri: Sequence[Point], m: Point) -> DFConverse:
    """The perpendicular bisector of HM is a Droz-Farny line whenever M is
    on the circumcircle; circles centred at its edge cuts through H cut
    the edges in chords whose ends pair into two perpendicular lines
    through H."""
    tri = as_triangle(tri)
    h = tri.orthocentre
    if not tri.circumcircle.contains(m):
        raise PointNotOnCircumcircle("M must lie on the circumcircle")
    for e in tri.edges:
        if reflect_point_in_line(h, e).close_to(m, _COINCIDENCE_TOL):
            raise DegenerateChoice("M is a reflection of H in an edge")
    df = perpendicular_bisector(h, m)
    chords: List[Tuple[Point, Point, Number]] = []
    for e in tri.edges:
        if df.is_parallel(e):
            raise EdgeParallel("Droz-Farny line parallel to an edge")
        p = df.intersect(e)
        d = e.direction()
        # circle centred at p through h meets the edge at p ± √s · d
        s = p.dist2(h) / d.norm2()
        chords.append((p, d, s))
        # the chord ends seen from H are perpendicular: with v = h − p,
        # (v + √s d)·(v − √s d) = |v|² − s|d|² = 0 by the choice of s
    pair = _recovered_pair(h, chords)
    return DFConverse(tri, h, m, df, pair)


def _recovered_pair(h: Point, chords) -> Tuple[Line, Line]:
    """Float representatives of the two perpendicular lines through H
    formed by the six chord ends."""
    ends: List[Point] = []
    for p, d, s in chords:
        root = math.sqrt(float(s))
        for sgn in (1.0, -1.0):
            ends.append(
                Point(float(p.x) + sgn * root * float(d.x),
                      float(p.y) + sgn * root * float(d.y))
            )
    hf = Point(float(h.x), float(h.y))
    first = ends[0]
    scale = max(1.0, math.hypot(float(first.x - hf.x), float(first.y - hf.y)))
    l1 = Line.through(hf, first)
    on_l1 = [e for e in ends if abs(float(l1.evaluate(e))) < _CHORD_END_TOL * scale]
    off = [e for e in ends if abs(float(l1.evaluate(e))) >= _CHORD_END_TOL * scale]
    if len(on_l1) != 3 or len(off) != 3:
        raise DegenerateInstance("chord ends do not split into two lines")
    l2 = Line.through(hf, off[0])
    for e in off[1:]:
        if abs(float(l2.evaluate(e))) > _SECOND_LINE_TOL * scale:
            raise DegenerateInstance("chord ends do not split into two lines")
    if abs(float(l1.a * l2.a + l1.b * l2.b)) > DEFAULT_EPS:
        raise DegenerateInstance("recovered pair is not perpendicular")
    return (l1, l2)


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
    if conj == 0:
        return EnvelopeConic(None, "point", center, r2)
    kind = ConicKind.ELLIPSE if conj > 0 else ConicKind.HYPERBOLA
    return EnvelopeConic(Conic(h, o, r2, kind), kind.value, center, r2)


def envelope_tangency(env: EnvelopeConic, inst: DFInstance) -> bool:
    """Exact focal tangency: the reflection of the orthocentre-focus in
    the Droz-Farny line lies at distance R from the circumcentre."""
    if env.conic is None:
        raise DegenerateInstance("degenerate envelope")
    return env.conic.tangency_residual(inst.df) == 0


def envelope_special_tangents(tri: Sequence[Point]) -> bool:
    """The edges and the perpendicular bisectors of HA, HB, HC are all
    tangent to the envelope, and the Central Circle tangents at the
    Euler-line intersections touch it (the vertices of the conic)."""
    tri = as_triangle(tri)
    env = df_envelope(tri)
    if env.conic is None:
        raise DegenerateInstance("degenerate envelope")
    h = tri.orthocentre
    lines = [*tri.edges, *(perpendicular_bisector(h, v) for v in tri)]
    if not all(env.conic.is_tangent(l) for l in lines):
        return False
    # conic vertices: on the focal axis at distance R/2 from the centre —
    # also on the Central Circle, whose tangents there are the last pair
    o = tri.circumcircle.center
    cf = Point(float(env.center.x), float(env.center.y))
    ax = Point(float(o.x) - float(h.x), float(o.y) - float(h.y))
    n = math.hypot(float(ax.x), float(ax.y))
    half_r = math.sqrt(float(env.axis2)) / 2
    for sgn in (1.0, -1.0):
        v = Point(cf.x + sgn * half_r * float(ax.x) / n,
                  cf.y + sgn * half_r * float(ax.y) / n)
        tangent = Line.from_point_direction(v, Point(-float(ax.y), float(ax.x)))
        residual = abs(float(env.conic.tangency_residual(tangent)))
        if residual > _VERTEX_TANGENCY_TOL * float(env.axis2):
            return False
    return True


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
    if not directrix.contains(refs[2], DEFAULT_EPS):
        raise IdentityViolated("reflections of M in the edges are not collinear")
    if not directrix.contains(inst.orthocentre, DEFAULT_EPS):
        raise IdentityViolated("directrix misses the orthocentre")
    if directrix.contains(inst.m, DEFAULT_EPS):
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
    the worst miss |dist(centre, line) − r| over the sweep."""
    side, count = EQUILATERAL_SIDE, EQUILATERAL_DIRECTIONS
    r = side / (2 * math.sqrt(3.0))
    tri = Triangle((Point(-side / 2, -r), Point(side / 2, -r), Point(0.0, 2 * r)))
    h = Point(0.0, 0.0)
    misses = []
    for i in range(count):
        th = math.pi * (i + 0.5) / count
        d = Point(math.cos(th), math.sin(th))
        inst = df_line(tri, (
            Line.from_point_direction(h, d),
            Line.from_point_direction(h, Point(-d.y, d.x)),
        ))
        misses.append(abs(abs(float(inst.df.evaluate(h))) - r))
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
    if c1.center.close_to(c2.center, _COINCIDENCE_TOL):
        raise DegenerateInput("coincident circles")
    p = reflect_point_in_line(z, Line.through(c1.center, c2.center))
    if p.close_to(z, _COINCIDENCE_TOL):
        p = z  # tangent circles: Miquel point is the shared point itself
    if not c3.contains(p, DEFAULT_EPS):
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
    if not reflected[2].contains(p, DEFAULT_EPS):
        raise IdentityViolated("reflected lines fail to concur")
    if not tri.circumcircle.contains(p, DEFAULT_EPS):
        raise IdentityViolated("concurrence point misses the circumcircle")
    return p
