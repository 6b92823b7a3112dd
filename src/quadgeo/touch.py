"""Touch circles (incircle + excircles), the 32-circle tangency sweep
against the Central Circle, Gergonne/Nagel/de Longchamps incidences, Soddy
circles with exact classification, number-theoretic triangle generators,
and the bisector-reflection (hexaflex) tangency construction. Each
construction takes one triangle and reads its metrics, edges, orthocentre
and circumcircle from one `Triangle`, so constructions that share it
derive them once."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .kernel import (
    Circle,
    DegenerateInput,
    GeometryError,
    IdentityViolated,
    Line,
    Number,
    Point,
    Tangency,
    _hom,
    _point_of,
    _ratio,
    collinear,
    divide,
    foot_of_perpendicular,
    format_scalar,
    is_exact,
    radical_axis,
    reflect_line_in_line,
    tangency_classify,
    vanishes,
)
from .quadrangle import LABELS, LabeledQuadrangle, Triangle, as_triangle


class NotATriangle(GeometryError):
    pass


class DegenerateParameters(GeometryError):
    pass


EXTRAVERSIONS = ("o", "a", "b", "c")


@dataclass(frozen=True)
class TouchCircle:
    label: Tuple[Union[int, str], str]  # (triangle label, extraversion o/a/b/c)
    circle: Circle
    triangle: Triangle

    @property
    def touch_points(self) -> Tuple[Point, Point, Point]:
        """Feet of the centre on the edge lines a, b, c: where the circle
        touches them."""
        return tuple(
            foot_of_perpendicular(self.circle.center, e) for e in self.triangle.edges
        )


def touch_circles(
    tri: Sequence[Point], triangle_label: Union[int, str] = ""
) -> List[TouchCircle]:
    """Incircle and the three excircles; their edge touch points are
    computed on demand from the edges the four share. Exact for Heronian
    triangles (rational side lengths)."""
    tri = as_triangle(tri)
    m = tri.metrics
    (a, b, c), centre = _side_weighted(tri)
    weight_sets = {
        "o": (a, b, c),
        "a": (-a, b, c),
        "b": (a, -b, c),
        "c": (a, b, -c),
    }
    radii = {"o": m.r, "a": m.r1, "b": m.r2, "c": m.r3}
    out = []
    for ext in EXTRAVERSIONS:
        rad = radii[ext]
        circle = Circle(centre(*weight_sets[ext]), rad * rad)
        out.append(TouchCircle((triangle_label, ext), circle, tri))
    return out


def _side_weighted(
    tri: Triangle,
) -> Tuple[Tuple[Number, Number, Number], Callable[[Number, Number, Number], Point]]:
    """The sides a, b, c over their common denominator, and the map from
    weights (wa, wb, wc) to the point Σ wᵢ·vᵢ / Σ wᵢ, summed over the
    vertex triples on their common denominator l."""
    m = tri.metrics
    hs, ks = [_hom(v) for v in tri], (_ratio(m.a), _ratio(m.b), _ratio(m.c))
    k = math.lcm(*[d for _, d in ks])
    sides = tuple([n * (k // d) for n, d in ks])
    l = math.lcm(*[w for _, _, w in hs])
    xs = [x * (l // w) for x, _, w in hs]
    ys = [y * (l // w) for _, y, w in hs]

    def centre(wa: Number, wb: Number, wc: Number) -> Point:
        return _point_of(
            wa * xs[0] + wb * xs[1] + wc * xs[2],
            wa * ys[0] + wb * ys[1] + wc * ys[2],
            (wa + wb + wc) * l,
        )

    return sides, centre


@dataclass(frozen=True)
class FeuerbachReport:
    entries: List[Tuple[Tuple[Union[int, str], str], Circle, Tangency, bool]]

    @property
    def total(self) -> int:
        return len(self.entries)

    def lines(self) -> List[str]:
        out = []
        for label, circle, kind, exact in self.entries:
            out.append(
                f"{label[0]}{label[1]}, "
                f"({format_scalar(circle.center.x)},{format_scalar(circle.center.y)}), "
                f"{format_scalar(circle.r2)}, {kind.value}, "
                f"{'exact' if exact else 'approx'}"
            )
        return out


def feuerbach_verify(q: LabeledQuadrangle) -> FeuerbachReport:
    """Tangency of all 32 touch-circles (4 faces × 2 twins × 4 circles) to
    the Central Circle, via the exact squared identity."""
    entries = []
    for quad, bar in ((q, ""), (q.twin_quadrangle, "~")):
        for label in LABELS:
            for tc in touch_circles(quad.face(label), triangle_label=f"{label}{bar}"):
                kind = tangency_classify(tc.circle, q.central_circle)
                exact = tc.circle.center.is_exact() and is_exact(tc.circle.r2)
                entries.append((tc.label, tc.circle, kind, exact))
    return FeuerbachReport(entries)


@dataclass(frozen=True)
class GergonneNagelData:
    gergonne: Dict[str, Point]   # per extraversion o/a/b/c
    nagel: Point
    incentre: Point
    centroid: Point
    de_longchamps: Point

    def incidence_checks(self) -> Dict[str, bool]:
        return {
            "nagel=3G-2I": self.nagel.close_to(
                self.centroid.scale(3) - self.incentre.scale(2)
            ),
            "nagel-incentre-centroid": collinear(
                self.nagel, self.incentre, self.centroid
            ),
            "incentre-gergonne-deL": collinear(
                self.incentre, self.gergonne["o"], self.de_longchamps
            ),
        }


def _cevian_point(tri: Sequence[Point], cuts: Sequence[Point]) -> Point:
    """The meet of the first two cevians, which the third must contain
    (`Line.contains`)."""
    l1 = Line.through(tri[0], cuts[0])
    l2 = Line.through(tri[1], cuts[1])
    pt = l1.intersect(l2)
    if not Line.through(tri[2], cuts[2]).contains(pt):
        raise DegenerateInput("cevians do not concur")
    return pt


def _de_longchamps(tri: Triangle) -> Point:
    """The reflection of H in the circumcentre O: 2O - H."""
    return tri.circumcircle.center.scale(2) - tri.orthocentre


def gergonne_nagel(tri: Sequence[Point]) -> GergonneNagelData:
    """Gergonne points of all four touch circles, the Nagel point, and the
    de Longchamps collinearity data."""
    tri = as_triangle(tri)
    tcs = touch_circles(tri)
    gergonnes = {}
    for tc in tcs:
        gergonnes[tc.label[1]] = _cevian_point(tri, tc.touch_points)
    # the Nagel point weighs each vertex by s less its opposite side, in
    # proportion to −a + b + c, a − b + c, a + b − c
    (a, b, c), centre = _side_weighted(tri)
    nagel = centre(b + c - a, c + a - b, a + b - c)
    incentre = tcs[0].circle.center
    return GergonneNagelData(
        gergonnes, nagel, incentre, centre(1, 1, 1), _de_longchamps(tri)
    )


def extraverted_gergonne_concurrence(tri: Sequence[Point]) -> bool:
    """The joins of each vertex to the Gergonne point of the opposite-named
    excircle concur at the Nagel point."""
    data = gergonne_nagel(tri)
    for vertex, ext in zip(tri, ("a", "b", "c")):
        if not collinear(vertex, data.gergonne[ext], data.nagel):
            return False
    return True


class SoddyClass:
    EXTERNAL = "External"
    INTERNAL = "Internal"
    CRITICAL = "Critical"


def classify_soddy(a: Number, b: Number, c: Number) -> str:
    """The `SoddyClass` kind, from the sign of 2s − (4R + r), computed
    exactly without square roots: with Q = ab+bc+ca−s², 4R+r = sQ/Δ, so
    2s ⋛ 4R+r ⟺ 2Δ ⋛ Q."""
    if a + b <= c or b + c <= a or c + a <= b or min(a, b, c) <= 0:
        raise NotATriangle("triangle inequality violated")
    s = divide(a + b + c, 2)
    q_val = a * b + b * c + c * a - s * s
    area2 = s * (s - a) * (s - b) * (s - c)  # Δ²
    if q_val <= 0:
        return SoddyClass.INTERNAL
    lhs, rhs = 4 * area2, q_val * q_val  # (2Δ)² vs Q²
    if vanishes(lhs - rhs, lhs + rhs):
        return SoddyClass.CRITICAL
    return SoddyClass.INTERNAL if lhs > rhs else SoddyClass.EXTERNAL


@dataclass(frozen=True)
class SoddyData:
    tangent_circles: Tuple[Circle, Circle, Circle]
    inner: Circle
    outer: Optional[Circle]         # None in the critical case
    soddy_line: Line
    gergonne_line: Line             # perpendicular to the Soddy line
    gergonne_point: Point
    incentre: Point
    de_longchamps: Point


def _tangent_circle_center(
    tri: Sequence[Point], radii: Sequence[Number], rho: Number, signs: Sequence[int]
) -> Point:
    """Centre P with |P−Vᵢ|² = (rho + signs[i]·radii[i])² for all i, solved
    from the two pairwise-difference linear equations (rational)."""
    targets = [(rho + signs[i] * radii[i]) ** 2 for i in range(3)]
    lines = []
    for i, j in ((0, 1), (0, 2)):
        vi, vj = tri[i], tri[j]
        # |P-vi|² - |P-vj|² = targets[i]-targets[j]
        # → 2(vj-vi)·P = targets[i]-targets[j] + |vj|²-|vi|²
        d = vj - vi
        rhs = (targets[i] - targets[j] + vj.norm2() - vi.norm2()) / 2
        lines.append(Line(d.x, d.y, rhs))
    return lines[0].intersect(lines[1])


def soddy(tri: Sequence[Point]) -> SoddyData:
    """Soddy circles of the triangle: the three mutually tangent circles
    centred at the vertices (radii s−a, s−b, s−c), the inner and outer
    tangent circles via Descartes (the radical √(Σkᵢkⱼ) equals 1/r exactly,
    so everything is rational for Heronian triangles), and the Soddy /
    Gergonne line pair."""
    tri = as_triangle(tri)
    m = tri.metrics
    radii = (m.s - m.a, m.s - m.b, m.s - m.c)
    tangent = tuple(Circle(tri[i], radii[i] ** 2) for i in range(3))
    k1, k2, k3 = (1 / radii[i] for i in range(3))
    root = 1 / m.r  # = sqrt(k1k2+k2k3+k3k1), exact
    inner_curv = k1 + k2 + k3 + 2 * root
    outer_curv = k1 + k2 + k3 - 2 * root
    rho_in = 1 / inner_curv
    inner_center = _tangent_circle_center(tri, radii, rho_in, (1, 1, 1))
    inner = Circle(inner_center, rho_in * rho_in)

    incircle = touch_circles(tri)[0]
    incentre = incircle.circle.center
    gergonne = _cevian_point(tri, incircle.touch_points)
    soddy_line = Line.through(incentre, gergonne)
    gergonne_line = radical_axis(incircle.circle, inner)

    outer = None
    if not vanishes(outer_curv, inner_curv):   # k₁ + k₂ + k₃ + 2/r
        rho_out = 1 / outer_curv  # may be negative: enclosing circle
        abs_rho = -rho_out if rho_out < 0 else rho_out
        # enclosing: |P-Vi| = |rho| - radii[i]; external: |P-Vi| = rho + radii[i]
        signs = (-1, -1, -1) if rho_out < 0 else (1, 1, 1)
        outer_center = _tangent_circle_center(tri, radii, abs_rho, signs)
        outer = Circle(outer_center, abs_rho * abs_rho)

    return SoddyData(
        tangent_circles=tangent,
        inner=inner,
        outer=outer,
        soddy_line=soddy_line,
        gergonne_line=gergonne_line,
        gergonne_point=gergonne,
        incentre=incentre,
        de_longchamps=_de_longchamps(tri),
    )


def bremner_critical(u: Number, v: Number) -> Tuple[Number, Number, Number]:
    """One-parameter-pair family of critical triangles (2s = 4R + r)."""
    if u == 5 * v or u == -5 * v or u == 0 or v == 0:
        raise DegenerateParameters("degenerate family parameters")
    a = 8 * u * u * (u * u + 25 * v * v)
    b = 5 * (u + 5 * v) ** 2 * (u * u - 2 * u * v + 5 * v * v)
    c = 5 * (u - 5 * v) ** 2 * (u * u + 2 * u * v + 5 * v * v)
    if min(a, b, c) <= 0 or a + b <= c or b + c <= a or c + a <= b:
        raise DegenerateParameters("parameters give no triangle")
    return (a, b, c)


def cos_family(p: Number, q: Number) -> Tuple[Number, Number, Number]:
    """Triangles with cosA = −7/25 exactly: (24(p²+q²), −7p²+48pq+7q²,
    25(p²−q²)) for 7q > p > q > 0."""
    if not (7 * q > p > q > 0):
        raise DegenerateParameters("need 7q > p > q > 0")
    return (
        24 * (p * p + q * q),
        -7 * p * p + 48 * p * q + 7 * q * q,
        25 * (p * p - q * q),
    )


@dataclass(frozen=True)
class HexaflexData:
    tangent_lines: Dict[str, Line]        # tA,tB,tC (internal) / tA',... (external)
    perspectors: Dict[str, Point]          # per touch circle o/a/b/c


def hexaflex(tri: Sequence[Point]) -> HexaflexData:
    """Reflect each edge in the two angle bisectors of the opposite vertex.
    The reflected edges are tangent to the touch circles; the three contact
    points on each touch circle form a triangle homothetic to the medial
    triangle, and each perspector with the medial triangle lies on the
    Central Circle."""
    tri = as_triangle(tri)
    p, q, r = tri
    tcs = {tc.label[1]: tc for tc in touch_circles(tri)}
    incentre = tcs["o"].circle.center
    # float contact points are off by about `lever` roundoffs of the
    # coordinates: each bisector joins a vertex to the incentre, so its
    # direction, and the edge reflected in it, carries that rounding over
    # the distance |v − I|
    lever = 1.0
    if not incentre.is_exact():
        size = max(abs(float(x)) for v in tri for x in (v.x, v.y))
        near = min(math.dist((v.x, v.y), (incentre.x, incentre.y)) for v in tri)
        lever = max(1.0, size / near)
    t_int: Dict[int, Line] = {}
    t_ext: Dict[int, Line] = {}
    for i, v in enumerate(tri):
        bis = Line.through(v, incentre)
        ext = bis.perpendicular_through(v)
        t_int[i] = reflect_line_in_line(tri.edges[i], bis)
        t_ext[i] = reflect_line_in_line(tri.edges[i], ext)

    tangent_lines = {
        "tA": t_int[0], "tB": t_int[1], "tC": t_int[2],
        "tA'": t_ext[0], "tB'": t_ext[1], "tC'": t_ext[2],
    }

    # which three tangents touch each touch circle:
    #  incircle: tA,tB,tC; X-excircle: tX plus the other two externals
    tangent_sets = {
        "o": (t_int[0], t_int[1], t_int[2]),
        "a": (t_int[0], t_ext[1], t_ext[2]),
        "b": (t_ext[0], t_int[1], t_ext[2]),
        "c": (t_ext[0], t_ext[1], t_int[2]),
    }
    mids = (q.midpoint(r), r.midpoint(p), p.midpoint(q))
    perspectors = {}
    for ext_label, lines in tangent_sets.items():
        center = tcs[ext_label].circle.center
        contacts = tuple(foot_of_perpendicular(center, ln) for ln in lines)
        perspectors[ext_label] = _perspector(contacts, mids, lever)
    return HexaflexData(tangent_lines, perspectors)


def _perspector(
    contacts: Sequence[Point], mids: Sequence[Point], lever: float
) -> Point:
    """Common point of the joins of each contact point to the midpoint of
    the same edge (the contact triangle is the medial one scaled about it).
    Where one contact point is its midpoint, that point is the perspector;
    else, over floats, the two joins closest to perpendicular meet there.
    A join runs from its midpoint along contact − midpoint, so a short one
    keeps its offset within a roundoff of the coordinates.
    IdentityViolated if a join misses the perspector: exactly for exact
    data; for floats its residual, made from the perspector, contacts and
    midpoints, must vanish against the sum of their norms. Float data whose
    rounding alone could leave one that does not vanish against the largest
    coordinate, or 1 (``_join_error``, with the contact points off by
    ``lever`` roundoffs of the coordinates), raise DegenerateInput instead:
    near-equilateral triangles, where a contact point nearly is its
    midpoint, and slivers."""
    pairs = [(c, m) for c, m in zip(contacts, mids) if c != m]
    joins = [Line.from_point_direction(m, c - m) for c, m in pairs]
    if len(joins) < 2:
        raise DegenerateInput("two contact points are their edge midpoints")
    if len(joins) == 2:
        pt = next(c for c, m in zip(contacts, mids) if c == m)
    else:
        if not contacts[0].is_exact():
            k = max(range(3), key=lambda k: _sin(joins[k - 2], joins[k - 1]))
            pairs = [pairs[k - 2], pairs[k - 1], pairs[k]]
            joins = [joins[k - 2], joins[k - 1], joins[k]]
        pt = joins[0].intersect(joins[1])
    size = 0   # an exact residual has no magnitude
    if not pt.is_exact():
        coords = (abs(float(v)) for p in (*contacts, *mids) for v in (p.x, p.y))
        scale = max(1.0, *coords)
        e = sys.float_info.epsilon / 2 * scale * lever
        if not vanishes(_join_error(pt, pairs, joins, e), scale):
            raise DegenerateInput("contact/midpoint joins ill-conditioned in floats")
        size = sum(math.hypot(v.x, v.y) for v in (pt, *contacts, *mids))
    if not all(vanishes(j.residual(pt)[0], size) for j in joins):
        raise IdentityViolated("contact/midpoint joins fail to concur")
    return pt


def _join_error(
    pt: Point, pairs: Sequence[Tuple[Point, Point]], joins: Sequence[Line], e: float
) -> float:
    """Estimate of the residual that rounding alone leaves at the meet
    ``pt`` of the joins when their ends are off by ``e``. A join of length
    L then turns by e/L, so at distance d from its midpoint it is off by
    δ = e·(1 + d/L); the third join misses the meet of the first two by its
    own δ₂ plus theirs weighted by the sines s_ij of the angles between the
    joins, (δ₀s₁₂ + δ₁s₀₂)/s₀₁."""
    errs = [
        e * (1 + math.dist((pt.x, pt.y), (m.x, m.y))
             / math.dist((c.x, c.y), (m.x, m.y)))
        for c, m in pairs
    ]
    if len(errs) == 2:
        return max(errs)
    j0, j1, j2 = joins
    return (errs[0] * _sin(j1, j2) + errs[1] * _sin(j0, j2)) / _sin(j0, j1) + errs[2]


def _sin(l1: Line, l2: Line) -> float:
    """|sine| of the angle between two float lines (unit normals)."""
    return abs(l1.a * l2.b - l1.b * l2.a)
