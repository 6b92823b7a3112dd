"""Lighthouse theorem, Morley configuration, rational Morley families,
Thrice Sixteen, and the inside-out trebler construction.

Angle trisection is not rational, so everything driven by actual beam
angles runs on the float backend with fixed tolerances scaled from
``DEFAULT_EPS``. The lighthouse works on plain floats: each beam is the
unit-normal triple a `Line` would hold, the n² meets are the only `Point`s
it makes, and ``lighthouse_verify`` reads each n-gon's coordinates once
and computes what `Circle.contains` would on them. Statements about
rational edge *lengths* (the Pythagorean and two-parameter families, the
1001-jigsaw) are checked exactly, working in Q(√3) where sines of the
relevant angles are √3 times a rational.
Thrice Sixteen is field-generic: exact input whose chords are rational
(vertices w² for rational points w of a circle) keeps all 16 centres
rational and every check exact, and float input keeps the float
tolerances.
"""

from __future__ import annotations

import math
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
    _normalize_abc,
    circumcircle,
    collinear,
    is_exact,
    primitive_integers,
    reflect_line_in_line,
    reflect_point_in_line,
    sqrt_scalar,
)
from .quadrangle import as_triangle, orthocentre
from .touch import touch_circles


class InvalidParameters(GeometryError):
    pass


class ParallelBeams(GeometryError):
    pass


# ---------------------------------------------------------------------------
# float helpers
# ---------------------------------------------------------------------------


def _fp(p: Point) -> Point:
    return Point(float(p.x), float(p.y))


def _angle_of(d: Point) -> float:
    return math.atan2(float(d.y), float(d.x))


def _dir(theta: float) -> Point:
    return Point(math.cos(theta), math.sin(theta))


def _signed_angle(u: Point, v: Point) -> float:
    """Signed angle turning u onto v, in (-pi, pi]."""
    return math.atan2(
        float(u.x) * float(v.y) - float(u.y) * float(v.x),
        float(u.x) * float(v.x) + float(u.y) * float(v.y),
    )


def _scale(points: Sequence[Point]) -> float:
    return max(
        1.0, max(abs(float(p.x)) for p in points), max(abs(float(p.y)) for p in points)
    )


# ---------------------------------------------------------------------------
# the Lighthouse theorem for general n
# ---------------------------------------------------------------------------


@dataclass
class LighthouseConfig:
    b: Point
    c: Point
    beta: float
    gamma: float
    n: int
    points: List[List[Optional[Point]]]   # [j][k] beam j from B ∩ beam k from C
    ngons: List[List[Point]]              # grouped by (j + k) mod n
    circles: List[Optional[Circle]]
    parallel_flag: bool                   # some beam pair met at infinity


def _beam(x: float, y: float, theta: float) -> Tuple[float, float, float]:
    """The beam through (x, y) at angle θ as the unit-normal triple (a, b, c)
    of a·x + b·y = c, the one ``Line.from_point_direction`` makes."""
    s, t = math.sin(theta), math.cos(theta)
    return _normalize_abc(s, -t, s * x - t * y)


def lighthouse(
    b: Point, c: Point, beta: float, gamma: float, n: int
) -> LighthouseConfig:
    """Two pencils of n equally spaced beams meet in n² points forming n
    regular n-gons whose circumcircles all pass through both lighthouses
    (a coaxal system with radical axis BC). Beams are numbered 0..n-1
    cyclically towards the baseline, the two lighthouses turning in
    opposite senses; they are met as coefficient triples, and only the
    meets become Points."""
    if n < 2:
        raise InvalidParameters("need n >= 2")
    if b == c:
        raise DegenerateInput("coincident lighthouses")
    b, c = _fp(b), _fp(c)
    bx, by, cx, cy = b.x, b.y, c.x, c.y
    theta_b = math.atan2(cy - by, cx - bx)
    theta_c = math.atan2(by - cy, bx - cx)
    beams_b = [_beam(bx, by, theta_b + beta - j * math.pi / n) for j in range(n)]
    beams_c = [_beam(cx, cy, theta_c - gamma + k * math.pi / n) for k in range(n)]
    parallel = False
    grid: List[List[Optional[Point]]] = [[None] * n for _ in range(n)]
    ngons: List[List[Point]] = [[] for _ in range(n)]
    for j, (a1, b1, c1) in enumerate(beams_b):
        for k, (a2, b2, c2) in enumerate(beams_c):
            det = a1 * b2 - b1 * a2
            if abs(det) < 1e-12:
                parallel = True
                continue
            # Line.intersect's expression
            p = Point((c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det)
            grid[j][k] = p
            ngons[(j + k) % n].append(p)
    circles: List[Optional[Circle]] = []
    for gon in ngons:
        if len(gon) < 3:
            circles.append(circumcircle(b, c, gon[0]) if gon else None)
            continue
        circles.append(circumcircle(gon[0], gon[1], gon[2]))
    return LighthouseConfig(b, c, beta, gamma, n, grid, ngons, circles, parallel)


def ngon_is_regular(gon: Sequence[Tuple[float, float]]) -> bool:
    """Vertices, given as float pairs, concyclic and equally spaced by 2π/n
    around the centre."""
    n = len(gon)
    if n < 2:
        return True
    cx = sum(x for x, _ in gon) / n
    cy = sum(y for _, y in gon) / n
    radii = [math.hypot(x - cx, y - cy) for x, y in gon]
    r = sum(radii) / n
    if r < DEFAULT_EPS:
        return False
    if max(abs(x - r) for x in radii) > DEFAULT_EPS * max(1.0, r):
        return False
    angles = sorted(math.atan2(y - cy, x - cx) % (2 * math.pi) for x, y in gon)
    gaps = [
        (angles[(i + 1) % n] - angles[i]) % (2 * math.pi) for i in range(n)
    ]
    return max(abs(g - 2 * math.pi / n) for g in gaps) < DEFAULT_EPS * 10


def lighthouse_verify(cfg: LighthouseConfig) -> bool:
    """Regularity, coaxality through both lighthouses, and the parallel-edge
    lemma (all edge directions congruent mod π/n), on the float coordinates
    read once from the points. A vertex is on its circle when its power
    |p − centre|² − r2 is within ``DEFAULT_EPS``·scale²·100."""
    gons = [[(float(p.x), float(p.y)) for p in gon] for gon in cfg.ngons]
    lights = [(float(p.x), float(p.y)) for p in (cfg.b, cfg.c)]
    coords = (abs(v) for xy in lights + [q for g in gons for q in g] for v in xy)
    scale = max(1.0, *coords)
    tol = DEFAULT_EPS * scale ** 2 * 100
    for gon, circ in zip(gons, cfg.circles):
        if len(gon) != cfg.n:
            continue
        if not ngon_is_regular(gon):
            return False
        if circ is None:
            return False
        ox, oy, r2 = float(circ.center.x), float(circ.center.y), circ.r2
        for x, y in gon + lights:
            dx, dy = x - ox, y - oy
            if not abs(dx * dx + dy * dy - r2) <= tol:
                return False
    # the Lighthouse Lemma: every edge of every n-gon in n direction classes
    base = None
    for gon in gons:
        for (px, py), (qx, qy) in combinations(gon, 2):
            ang = math.atan2(qy - py, qx - px) % (math.pi / cfg.n)
            if base is None:
                base = ang
                continue
            diff = (ang - base) % (math.pi / cfg.n)
            if min(diff, math.pi / cfg.n - diff) > DEFAULT_EPS * 100:
                return False
    return True


def phases_through(b: Point, c: Point, p: Point) -> Tuple[float, float]:
    """Phases making beam 0 from each lighthouse pass through p."""
    beta = _signed_angle(c - b, p - b)
    gamma = -_signed_angle(b - c, p - c)
    return beta, gamma


def duplication(b: Point, c: Point, beta: float, gamma: float, n: int) -> float:
    """Edges of one n-gon through a vertex P cut the parallel edge of the
    neighbouring n-gon at points lying on beams of doubled phase; returns
    the relative distance of the cut points from the doubled beams."""
    cfg = lighthouse(b, c, beta, gamma, n)
    if cfg.parallel_flag:
        raise ParallelBeams("duplication needs all finite intersections")
    grid = cfg.points
    p = grid[0][0]
    u = grid[n - 1][1]
    v = grid[1][n - 1]
    x = grid[n - 1][0]
    y = grid[0][n - 1]
    xy = Line.through(x, y)
    q = Line.through(u, p).intersect(xy)
    r = Line.through(v, p).intersect(xy)
    theta_b = _angle_of(cfg.c - cfg.b)
    theta_c = _angle_of(cfg.b - cfg.c)
    beam2b = Line.from_point_direction(cfg.b, _dir(theta_b + 2 * beta))
    beam2c = Line.from_point_direction(cfg.c, _dir(theta_c - 2 * gamma))
    scale = _scale([p, u, v, x, y])
    return max(abs(beam2b.evaluate(r)) / scale, abs(beam2c.evaluate(q)) / scale)


def bisector_quadrangle(d: Point, e: Point, f: Point) -> Dict[str, Point]:
    """n=2 lighthouses at E and F phased at half the triangle angles: the
    four beam intersections are the incentre and the three excentres of
    triangle DEF."""
    d, e, f = _fp(d), _fp(e), _fp(f)
    beta = _signed_angle(f - e, d - e) / 2
    gamma = -_signed_angle(e - f, d - f) / 2
    cfg = lighthouse(e, f, beta, gamma, 2)
    grid = cfg.points
    if any(grid[j][k] is None for j in range(2) for k in range(2)):
        raise ParallelBeams("degenerate bisector configuration")
    return {
        "incentre": grid[0][0],
        "excentre_d": grid[1][1],
        "excentre_e": grid[1][0],
        "excentre_f": grid[0][1],
    }


def is_orthocentric(points: Sequence[Point]) -> float:
    """The worst distance from one of four points to the orthocentre of the
    other three, relative to max(1, the largest coordinate): 0 up to
    rounding when each point is the orthocentre of the other three."""
    pts = [_fp(p) for p in points]
    if len(pts) != 4:
        raise DegenerateInput("an orthocentric quadrangle has four points")
    misses = []
    for i in range(4):
        h = orthocentre(*(pts[j] for j in range(4) if j != i))
        misses.append(math.hypot(h.x - pts[i].x, h.y - pts[i].y))
    return max(misses) / _scale(pts)


def altitude_quadrangle(a: Point, b: Point, c: Point) -> Dict[str, Point]:
    """n=2 lighthouses at E = AC ∩ BH and F = AB ∩ CH, phased through the
    orthocentre: the four beam intersections are A, B, C, H."""
    a, b, c = _fp(a), _fp(b), _fp(c)
    h = orthocentre(a, b, c)
    e = Line.through(a, c).intersect(Line.through(b, h))
    f = Line.through(a, b).intersect(Line.through(c, h))
    beta, gamma = phases_through(e, f, h)
    cfg = lighthouse(e, f, beta, gamma, 2)
    grid = cfg.points
    if any(grid[j][k] is None for j in range(2) for k in range(2)):
        raise ParallelBeams("degenerate altitude configuration")
    return {"orthocentre": grid[0][0], "others": (grid[0][1], grid[1][0], grid[1][1])}


# ---------------------------------------------------------------------------
# the full Morley configuration (n = 3, Conway labels)
# ---------------------------------------------------------------------------

_LINE_LABELS = ("100", "010", "001", "211", "121", "112", "022", "202", "220")
_PAIR_STAR = {("B", "C"): 0, ("C", "A"): 1, ("A", "B"): 2}


@dataclass
class MorleyConfig:
    vertices: Dict[str, Point]
    points: Dict[str, Point]                    # 27 Conway-labeled points
    lines: Dict[str, Line]                      # 9 Morley lines
    line_points: Dict[str, Tuple[str, ...]]     # 6 point labels per line
    morley_triangles: Dict[str, Tuple[Point, Point, Point]]   # 18
    gf_circles: Dict[str, Circle]
    associated_points: Dict[str, Point]         # per line label


def _point_label(star_pos: int, j: int, k: int) -> str:
    digits = ["", "", ""]
    digits[star_pos] = "*"
    rest = [i for i in range(3) if i != star_pos]
    digits[rest[0]], digits[rest[1]] = str(j), str(k)
    return "".join(digits)


def _on_morley_line(point_label: str, line_label: str) -> bool:
    """Star at position i, digits d elsewhere: the point lies on line L iff
    every digit differs from L's digit in that position and the digit sum is
    congruent to sum(L) - L_i mod 3."""
    i = point_label.index("*")
    ds = 0
    for m, ch in enumerate(point_label):
        if m == i:
            continue
        if ch == line_label[m]:
            return False
        ds += int(ch)
    ls = sum(int(x) for x in line_label)
    return ds % 3 == (ls - int(line_label[i])) % 3


def _associated_label(line_label: str) -> str:
    # the digit that differs from the other two becomes the third value
    digits = [int(x) for x in line_label]
    out = list(digits)
    for i in range(3):
        others = [digits[j] for j in range(3) if j != i]
        if others[0] == others[1] and digits[i] != others[0]:
            out[i] = 3 - digits[i] - others[0]
            break
    return "".join(str(x) for x in out)


# The incidences of the configuration depend on the labels alone.  Point
# (x, y, j, k, label) is beam j from lighthouse x meeting beam k from y; the
# star marks the vertex left out and the digits sit at the positions of x
# and y in ABC order.
_POINT_LABELS: Tuple[Tuple[str, str, int, int, str], ...] = tuple(
    (x, y, j, k, _point_label(star, *((j, k) if x < y else (k, j))))
    for (x, y), star in _PAIR_STAR.items()
    for j in range(3)
    for k in range(3)
)
_LINE_POINTS: Dict[str, Tuple[str, ...]] = {
    ll: tuple(pl for *_, pl in _POINT_LABELS if _on_morley_line(pl, ll))
    for ll in _LINE_LABELS
}
# Guy Faux triangle g of the lighthouses x, y: beam pairs with j + k = -g
_GF_TRIANGLES: Dict[str, Tuple[str, str, str]] = {
    f"{x}{y}{g}": tuple(
        _point_label(star, j, k)
        for j in range(3)
        for k in range(3)
        if (j + k) % 3 == (-g) % 3
    )
    for (x, y), star in _PAIR_STAR.items()
    for g in range(3)
}
# a GF circle meets a Morley line where two of its triangle's points lie on it
_CIRCLE_LINES: Dict[str, Tuple[str, str, str]] = {
    name: tuple(
        ll for ll in _LINE_LABELS
        if sum(1 for pl in labels if pl in _LINE_POINTS[ll]) == 2
    )
    for name, labels in _GF_TRIANGLES.items()
}
_LINE_CIRCLES: Dict[str, Tuple[str, str, str]] = {
    ll: tuple(n for n, met in _CIRCLE_LINES.items() if ll in met)
    for ll in _LINE_LABELS
}


def morley_config(a: Point, b: Point, c: Point) -> MorleyConfig:
    """27 trisector intersections, 9 Morley lines carrying 6 points each,
    18 equilateral Morley triangles, 9 Guy Faux triangles whose circumcircles
    concur in threes at 9 associated points (besides the vertices).

    The label incidences are fixed tables.  The three GF circles of a line
    come one from each pair of lighthouses, so the first two share exactly
    one vertex V; their second meet, the associated point, is the
    reflection of V in the line of their centres.  It coincides with V when
    V is a right angle.  IdentityViolated if a point leaves its Morley line
    or a GF circle misses a lighthouse or the associated point."""
    a, b, c = _fp(a), _fp(b), _fp(c)
    verts = {"A": a, "B": b, "C": c}
    if abs((b - a).cross(c - a)) < DEFAULT_EPS:
        raise DegenerateInput("degenerate triangle")
    angles = {
        "A": abs(_signed_angle(b - a, c - a)),
        "B": abs(_signed_angle(c - b, a - b)),
        "C": abs(_signed_angle(a - c, b - c)),
    }

    def beams(x: str, y: str) -> List[Line]:
        vx, vy = verts[x], verts[y]
        vz = verts[({"A", "B", "C"} - {x, y}).pop()]
        theta = _angle_of(vy - vx)
        sigma = 1.0 if (vy - vx).cross(vz - vx) > 0 else -1.0
        return [
            Line.from_point_direction(
                vx, _dir(theta + sigma * (angles[x] / 3 - j * math.pi / 3))
            )
            for j in range(3)
        ]

    fans = {(x, y): beams(x, y) for x in verts for y in verts if x != y}
    points: Dict[str, Point] = {
        label: fans[x, y][j].intersect(fans[y, x][k])
        for x, y, j, k, label in _POINT_LABELS
    }

    scale = _scale(list(points.values()))
    lines: Dict[str, Line] = {}
    for label, members in _LINE_POINTS.items():
        pts = [points[m] for m in members]
        line = Line.through(pts[0], pts[1])
        if any(abs(line.evaluate(p)) >= DEFAULT_EPS * scale * 100 for p in pts[2:]):
            raise IdentityViolated(f"point off Morley line {label}")
        lines[label] = line

    morley_tris: Dict[str, Tuple[Point, Point, Point]] = {}
    for p in range(3):
        for q in range(3):
            for r in range(3):
                if (p + q + r) % 3 == 1:
                    continue
                morley_tris[f"{p}{q}{r}"] = (
                    points[f"*{q}{r}"],
                    points[f"{p}*{r}"],
                    points[f"{p}{q}*"],
                )

    gf_circles: Dict[str, Circle] = {}
    for name, labels in _GF_TRIANGLES.items():
        circ = circumcircle(*(points[l] for l in labels))
        for v in name[:2]:
            if not circ.contains(verts[v], eps=DEFAULT_EPS * scale * scale * 1000):
                raise IdentityViolated(f"GF circle {name} misses a lighthouse")
        gf_circles[name] = circ

    associated: Dict[str, Point] = {}
    for label, (n1, n2, n3) in _LINE_CIRCLES.items():
        (v,) = set(n1[:2]) & set(n2[:2])
        c1, c2 = gf_circles[n1], gf_circles[n2]
        pt = reflect_point_in_line(verts[v], Line.through(c1.center, c2.center))
        if abs(gf_circles[n3].power(pt)) >= DEFAULT_EPS * scale * scale * 1000:
            raise IdentityViolated(
                f"third GF circle misses the associated point of line {label}"
            )
        associated[_associated_label(label)] = pt

    return MorleyConfig(
        verts,
        points,
        lines,
        dict(_LINE_POINTS),
        morley_tris,
        gf_circles,
        associated,
    )


def equilateral_residual(tri: Sequence[Point]) -> float:
    d = [
        math.hypot(
            float(tri[i].x - tri[(i + 1) % 3].x),
            float(tri[i].y - tri[(i + 1) % 3].y),
        )
        for i in range(3)
    ]
    return (max(d) - min(d)) / max(d)


def edge_direction_classes(tris: Dict[str, Tuple[Point, Point, Point]]) -> int:
    """Number of distinct edge directions mod π/3 over all triangles."""
    classes: List[float] = []
    for tri in tris.values():
        for i in range(3):
            ang = _angle_of(tri[(i + 1) % 3] - tri[i]) % (math.pi / 3)
            if not any(
                min(abs(ang - cl), math.pi / 3 - abs(ang - cl)) < DEFAULT_EPS * 1000
                for cl in classes
            ):
                classes.append(ang)
    return len(classes)


# ---------------------------------------------------------------------------
# rational Morley families and the 1001-jigsaw
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMorleyReport:
    edges: Tuple[Fraction, Fraction, Fraction]
    integer_edges: Tuple[int, int, int]
    is_pythagorean: bool
    rational_variants: Dict[Tuple[int, int, int], Fraction]


def rational_morley(family: str, params) -> RationalMorleyReport:
    """Rational-edged triangles with rational Morley triangles: the
    one-parameter Pythagorean family (exactly 2 of the 18 rational) or the
    two-parameter general family (all 18 rational)."""
    if family == "pythagorean":
        t = Fraction(params)
        edges = (
            2 * t * (3 - t * t) * (1 - 3 * t * t),
            (1 - t * t) * (1 - 14 * t * t + t ** 4),
            (1 + t * t) ** 3,
        )
    elif family == "general":
        xs = [Fraction(x) for x in params]
        if len(xs) != 3 or 3 * sum(xs) != xs[0] * xs[1] * xs[2]:
            raise InvalidParameters("need 3(x1+x2+x3) = x1 x2 x3")
        edges = tuple(
            x * (x * x - 1) * (x * x - 9) / (x * x + 3) ** 3 for x in xs
        )
    else:
        raise InvalidParameters(f"unknown family {family!r}")
    edges = tuple(abs(e) for e in edges)
    if any(e == 0 for e in edges):
        raise InvalidParameters("family parameters give a zero edge")
    s = sorted(edges)
    if s[0] + s[1] <= s[2]:
        raise InvalidParameters("edges violate the triangle inequality")
    ints = primitive_integers(edges)
    si = sorted(ints)
    pyth = si[0] ** 2 + si[1] ** 2 == si[2] ** 2
    return RationalMorleyReport(
        edges, ints, pyth, morley_edge_rationality([float(v) for v in ints])
    )


def morley_edge_variants(edges: Sequence[float]) -> Dict[Tuple[int, int, int], float]:
    """Edge lengths of the 18 Morley triangles of a triangle given by edges:
    |8R sin((A+2πi)/3) sin((B+2πj)/3) sin((C+2πk)/3)| over the extraversion
    triples with i + j + k ≢ 1 (mod 3)."""
    a, b, c = edges
    ca = (b * b + c * c - a * a) / (2 * b * c)
    cb = (c * c + a * a - b * b) / (2 * c * a)
    cc = (a * a + b * b - c * c) / (2 * a * b)
    aa, ab_, ac = math.acos(ca), math.acos(cb), math.acos(cc)
    r = a / (2 * math.sin(aa))
    out: Dict[Tuple[int, int, int], float] = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if (i + j + k) % 3 == 1:
                    continue
                out[(i, j, k)] = abs(
                    8
                    * r
                    * math.sin((aa + 2 * math.pi * i) / 3)
                    * math.sin((ab_ + 2 * math.pi * j) / 3)
                    * math.sin((ac + 2 * math.pi * k) / 3)
                )
    return out


#: relative accuracy and largest denominator of the rational
#: reconstruction in ``morley_edge_rationality``
_EDGE_REL_TOL = 1e-12
_EDGE_MAX_DEN = 10 ** 6


def morley_edge_rationality(edges: Sequence[float]) -> Dict[Tuple[int, int, int], Fraction]:
    """The Morley-triangle edges recognisably rational at the scale of the
    given (integer) edge lengths: the reconstruction must be far more
    accurate than a generic continued-fraction convergent of that size."""
    out: Dict[Tuple[int, int, int], Fraction] = {}
    for key, e in morley_edge_variants(edges).items():
        f = Fraction(e).limit_denominator(_EDGE_MAX_DEN)
        if (
            abs(float(f) - e) <= _EDGE_REL_TOL * max(1e-30, e)
            and f.denominator <= _EDGE_MAX_DEN // 10
        ):
            out[key] = f
    return out


# -- exact angle algebra in Q(√3) -------------------------------------------


@dataclass(frozen=True)
class Sqrt3Angle:
    """cos θ = c, sin θ = s·√3, both rational: the closure containing all
    angles of rational triangles with area a rational multiple of √3, and
    closed under adding multiples of π/3."""

    c: Fraction
    s: Fraction

    def __post_init__(self):
        if self.c * self.c + 3 * self.s * self.s != 1:
            raise InvalidParameters("not a unit Q(√3) angle")

    def __mul__(self, other: "Sqrt3Angle") -> "Sqrt3Angle":
        return Sqrt3Angle(
            self.c * other.c - 3 * self.s * other.s,
            self.c * other.s + self.s * other.c,
        )


SIXTY = Sqrt3Angle(Fraction(1, 2), Fraction(1, 2))
FULL = Sqrt3Angle(Fraction(1), Fraction(0))


def triangle_angles_sqrt3(
    edges: Sequence[int],
) -> Tuple[Sqrt3Angle, Sqrt3Angle, Sqrt3Angle]:
    """Exact angles of an integer triangle whose squared area is 3 times a
    rational square (so each sine is √3 times a rational)."""
    a, b, c = (Fraction(e) for e in edges)
    area_s = _sqrt3_area(edges)
    out = []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        cos_x = (y * y + z * z - x * x) / (2 * y * z)
        sin_s = 2 * area_s / (y * z)
        out.append(Sqrt3Angle(cos_x, sin_s))
    return tuple(out)


def _sqrt3_area(edges: Sequence[int]) -> Fraction:
    """The rational s with s·√3 the area of the triangle with these edges
    (Heron: 16Δ² = 48s²); InvalidParameters if the area is not positive or
    not a rational multiple of √3."""
    a, b, c = (Fraction(e) for e in edges)
    sq16 = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)  # 16Δ²
    if sq16 <= 0:
        raise InvalidParameters("edges give no triangle of positive area")
    root = sqrt_scalar(sq16 / 3)
    if not is_exact(root):
        raise InvalidParameters("area is not a rational multiple of √3")
    return root / 4


JIGSAW_EQUILATERAL = 1001
JIGSAW_INNER = ((1001, 1716, 1859), (1001, 9464, 9555), (1001, 2695, 2464))
JIGSAW_OUTER = ((9555, 2695, 12005), (2464, 1716, 3740), (1859, 9464, 10985))


@dataclass(frozen=True)
class JigsawReport:
    area_matches: bool
    vertex_sums: bool
    trisection: bool


def jigsaw_check() -> JigsawReport:
    """The Conway-Doyle seven-piece jigsaw: an equilateral triangle of edge
    1001, three pieces sharing that edge, and three outer pieces assemble
    exactly into one big triangle.  All angle sums are verified in Q(√3)."""
    m = Fraction(JIGSAW_EQUILATERAL)
    inner = [triangle_angles_sqrt3(t) for t in JIGSAW_INNER]
    outer = [triangle_angles_sqrt3(t) for t in JIGSAW_OUTER]
    # angle of each inner piece opposite the shared 1001 edge
    inner_opp = [ang[0] for ang in inner]   # edge order (1001, u, v)
    # the assembled triangle's edges are the outer pieces' longest edges
    assembled = tuple(max(t) for t in JIGSAW_OUTER)

    # area: Δ(assembled) = Δ(equilateral) + Σ Δ(pieces), all as s·√3
    total = m * m / 4  # Δ_eq = (√3/4)·1001², recorded as s with Δ = s·√3
    for t in JIGSAW_INNER + JIGSAW_OUTER:
        total += _sqrt3_area(t)
    area_ok = total == _sqrt3_area(assembled)

    # each inner angle opposite 1001 is 60° more than an outer piece angle:
    # around each vertex of the equilateral, 60° + two inner angles + one
    # outer angle close up to 360°
    sums_ok = _vertex_sums(inner, outer)

    # trisection: each assembled-triangle vertex angle splits into three
    # equal parts contributed by the adjacent pieces
    tris_ok = _trisection_check(inner, outer, assembled)
    return JigsawReport(area_ok, sums_ok, tris_ok)


def _closes_circle(angles: Sequence[Sqrt3Angle]) -> bool:
    acc = FULL
    for ang in angles:
        acc = acc * ang
    return acc == FULL


def _vertex_sums(inner, outer) -> bool:
    """At each corner of the central equilateral piece three pieces meet:
    60° + one angle from each adjacent inner piece + one outer angle = 360°.
    Discover the matching combinatorially and require all three corners to
    close up exactly."""
    found = 0
    for i1, i2 in combinations(range(3), 2):
        closed = False
        for j1 in (1, 2):
            for j2 in (1, 2):
                for o in range(3):
                    for jo in range(3):
                        if not closed and _closes_circle(
                            [SIXTY, inner[i1][j1], inner[i2][j2], outer[o][jo]]
                        ):
                            closed = True
        if closed:
            found += 1
    return found == 3


def _trisection_check(inner, outer, assembled) -> bool:
    """The assembled triangle's angles are exactly trisected: at each vertex
    the three meeting piece angles are equal, and their triple equals the
    corresponding angle of the assembled triangle."""
    big = triangle_angles_sqrt3(assembled)
    matched = 0
    all_angles = [a for tri in list(inner) + list(outer) for a in tri]
    for big_angle in big:
        for small in all_angles:
            if small * small * small == big_angle:
                matched += 1
                break
    return matched == 3


def orthocentric_morley_parallel(a: Point, b: Point, c: Point) -> float:
    """The four triangles of the orthocentric quadrangle {A, B, C, H} have
    mutually parallel Morley triangles (72 triangles in 1 direction class
    mod π/3): the worst angle mod π/3 between one of their edges and the
    first, which `edge_direction_classes` puts in one class when it is
    below ``DEFAULT_EPS * 1000``."""
    a, b, c = _fp(a), _fp(b), _fp(c)
    h = orthocentre(a, b, c)
    tris: Dict[str, Tuple[Point, Point, Point]] = {}
    for name, (p, q, r) in {
        "ABC": (a, b, c),
        "BHC": (b, h, c),
        "CHA": (c, h, a),
        "AHB": (a, h, b),
    }.items():
        cfg = morley_config(p, q, r)
        for key, tri in cfg.morley_triangles.items():
            tris[f"{name}:{key}"] = tri
    third = math.pi / 3
    angles = [
        _angle_of(tri[(i + 1) % 3] - tri[i]) % third
        for tri in tris.values()
        for i in range(3)
    ]
    return max(min(abs(t - angles[0]), third - abs(t - angles[0])) for t in angles)


# ---------------------------------------------------------------------------
# Thrice Sixteen
# ---------------------------------------------------------------------------


@dataclass
class ThriceSixteenReport:
    centers: Dict[str, Point]            # "ab": centre of triangle omit-a
    midpoint_pairs: int                  # rows of _MIDPOINTS that hold
    latin_square: bool                   # one centre of each triangle per line
    circumcentres_reflect: bool
    circumcircles_congruent: bool


# The 8 lines of the Thrice Sixteen grid, in two perpendicular families of
# four parallels, over the vertices numbered 0..3 counterclockwise about
# their circumcentre: "ab" is the incentre of the triangle omitting vertex a
# when b == a, else its excentre opposite vertex b.
_GRID = (
    ("00 10 23 33", "01 11 22 32", "02 12 21 31", "03 13 20 30"),
    ("00 11 21 30", "01 10 20 31", "02 13 23 32", "03 12 22 33"),
)
# The 12 coincidences of the 24 same-triangle midpoints, over the same
# numbering: row "p q r s" says mid(p, q) = mid(r, s), on the circumcircle.
# In triangle XYZ, mid(I, I_X) is the midpoint of arc YZ away from X and
# mid(I_Y, I_Z) its antipode, so each chord YZ gives one row per arc,
# pairing a segment of each of the two triangles on YZ.  Their third
# vertices lie on one side of a side chord and on both sides of a diagonal.
_MIDPOINTS = (
    "22 23 33 32", "20 21 30 31",   # chord 01
    "11 13 30 32", "10 12 33 31",   # chord 02, a diagonal
    "11 12 22 21", "10 13 20 23",   # chord 03
    "00 03 33 30", "01 02 31 32",   # chord 12
    "00 02 21 23", "01 03 22 20",   # chord 13, a diagonal
    "00 01 11 10", "02 03 12 13",   # chord 23
)


def _within(x: Number, tol: float) -> bool:
    """x == 0 for an exact x, |x| <= tol for a float."""
    return x == 0 if is_exact(x) else abs(x) <= tol


def _close(p: Point, q: Point, tol: float) -> bool:
    """p == q for exact points, else Euclidean distance at most tol."""
    return p == q if p.is_exact() and q.is_exact() else p.dist2(q) <= tol * tol


def thrice_sixteen(quad: Sequence[Point]) -> ThriceSixteenReport:
    """For four concyclic points: the 16 in/excentres of the four inscribed
    triangles form a rectangular 4×4 grid; the 24 segment midpoints coincide
    in 12 antipodal pairs on the circumcircle of the quadrangle; the 16
    circumcentres are the central reflections of the centres.

    The grid and the midpoint pairs are the fixed label tables ``_GRID``
    and ``_MIDPOINTS`` once the vertices are sorted counterclockwise about
    the circumcentre.  Each tabled line, the parallelism within each family
    and the perpendicularity between them are checked, and DegenerateInput
    raised if one fails; ``midpoint_pairs`` counts the tabled pairs that
    coincide on the circumcircle.  Field-generic:
    the centres are those of ``touch_circles``, exact when every chord of
    the quadrangle is rational, and each check compares an exact residual
    with 0 and a float one with its tolerance."""
    pts = list(quad)
    if len(pts) != 4:
        raise DegenerateInput("need four points")
    base = circumcircle(pts[0], pts[1], pts[2])
    scale = _scale(pts)
    if not base.contains(pts[3], eps=DEFAULT_EPS * scale * scale * 100):
        raise DegenerateInput("points are not concyclic")

    centers: Dict[str, Point] = {}
    for omit in range(4):
        others = [i for i in range(4) if i != omit]
        inc, *excs = touch_circles([pts[i] for i in others])
        centers[f"{omit}{omit}"] = inc.circle.center
        for v_idx, exc in zip(others, excs):
            centers[f"{omit}{v_idx}"] = exc.circle.center

    # the two perpendicular quadruples of parallel 4-point lines
    tol = DEFAULT_EPS * scale * 1e4
    ccw = sorted(range(4), key=lambda i: _angle_of(pts[i] - base.center))

    def tabled(row: str) -> List[str]:
        return [f"{ccw[int(a)]}{ccw[int(b)]}" for a, b in row.split()]

    firsts: List[Line] = []
    for family in _GRID:
        lines = []
        for row in family:
            members = tabled(row)
            on = [centers[m] for m in members]
            line = Line.through(on[0], on[1])
            if not all(line.contains(p, tol) for p in on[2:]):
                raise DegenerateInput(f"centres {' '.join(members)} not collinear")
            if lines and not line.is_parallel(lines[0], DEFAULT_EPS * 100):
                raise DegenerateInput("grid families are not parallel")
            lines.append(line)
        firsts.append(lines[0])
    if not firsts[0].is_perpendicular(firsts[1], DEFAULT_EPS * 100):
        raise DegenerateInput("grid families are not perpendicular")

    circle_tol = DEFAULT_EPS * scale * scale * 1e4
    pair_count = 0
    for row in _MIDPOINTS:
        p, q, r, s = (centers[m] for m in tabled(row))
        m1, m2 = p.midpoint(q), r.midpoint(s)
        if (
            _close(m1, m2, tol)
            and base.contains(m1, circle_tol)
            and base.contains(m2, circle_tol)
        ):
            pair_count += 1

    # circumcentres reflect through the 16-point centre; circles congruent.
    # Each centre is the orthocentre of the other three of its triangle.
    centre = base.center
    reflect_ok = True
    congruent_ok = True
    r_big = None
    for omit in range(4):
        own = [f"{omit}{omit}"] + [f"{omit}{v}" for v in range(4) if v != omit]
        for lab in own:
            circ = circumcircle(*(centers[m] for m in own if m != lab))
            mirrored = centre.scale(2) - centers[lab]
            if not _close(circ.center, mirrored, tol):
                reflect_ok = False
            r = circ.radius()
            if r_big is None:
                r_big = r
            elif not _within(r - r_big, DEFAULT_EPS * scale * 100):
                congruent_ok = False
    return ThriceSixteenReport(
        centers,
        pair_count,
        True,  # every _GRID row holds one centre of each triangle
        reflect_ok,
        congruent_ok,
    )


# ---------------------------------------------------------------------------
# inside-out construction (exact)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InsideOutData:
    circumcentre: Point
    orthocentre: Point


def inside_out(tri: Sequence[Point]) -> InsideOutData:
    """Distal treblers: A' is the meet of the reflections of BC in AB and in
    AC (and cyclically).  AA', BB', CC' concur at the circumcentre; the
    proximal treblers α', β', γ' are the reflections of the vertices in the
    opposite edges, and Aα', Bβ', Cγ' concur at the orthocentre; four triads
    of the cross points α, β, γ are collinear.  IdentityViolated if any of
    these exact incidences fails."""
    tri = as_triangle(tri)
    a, b, c = tri
    bc, ca, ab = tri.edges
    a_p = reflect_line_in_line(bc, ab).intersect(reflect_line_in_line(bc, ca))
    b_p = reflect_line_in_line(ca, bc).intersect(reflect_line_in_line(ca, ab))
    c_p = reflect_line_in_line(ab, bc).intersect(reflect_line_in_line(ab, ca))
    alpha = bc.intersect(Line.through(b_p, c_p))
    beta = ca.intersect(Line.through(c_p, a_p))
    gamma = ab.intersect(Line.through(a_p, b_p))
    alpha_p = reflect_point_in_line(a, bc)
    beta_p = reflect_point_in_line(b, ca)
    gamma_p = reflect_point_in_line(c, ab)
    o = Line.through(a, a_p).intersect(Line.through(b, b_p))
    if not Line.through(c, c_p).contains(o):
        raise IdentityViolated("AA', BB', CC' fail to concur")
    if tri.circumcircle.center != o:
        raise IdentityViolated("concurrence is not the circumcentre")
    h = tri.orthocentre
    for v, vp in ((a, alpha_p), (b, beta_p), (c, gamma_p)):
        if not Line.through(v, vp).contains(h):
            raise IdentityViolated("treblers miss the orthocentre")
    for triad in (
        (alpha, beta, gamma),
        (alpha, beta_p, gamma_p),
        (alpha_p, beta, gamma_p),
        (alpha_p, beta_p, gamma),
    ):
        if not collinear(*triad):
            raise IdentityViolated("Desargues triad fails")
    return InsideOutData(o, h)
