"""Lighthouse theorem, Morley configuration, rational Morley families,
Thrice Sixteen, and the inside-out trebler construction.

Angle trisection is not rational, so everything driven by actual beam
angles runs on the float backend, where each decision is `kernel.vanishes`
of a residual against its own magnitude. The lighthouse works on plain
floats: each beam is the unit-normal triple a `Line` would hold, the n²
meets are the only `Point`s it makes, and ``lighthouse_verify`` reads each
n-gon's coordinates once and computes what `Circle.contains` would on
them. The Morley configuration is met the same way: its trisectors are
such triples, each check computes on float coordinates what the kernel
predicate would, and only the returned Points, Lines and Circles are
built. Statements about rational edge *lengths* (the Pythagorean and
two-parameter families, the 1001-jigsaw) are checked exactly in Q(√3): an
angle is a `Sqrt3Angle` whose cosine and sine are `Surd`s p + q√3, and a
Morley edge of a family member is rational when its √3 part vanishes.
Thrice Sixteen is field-generic: exact input whose chords are rational
(vertices w² for rational points w of a circle) keeps all 16 centres
rational and every check exact. Its centres are the barycentric points
(±a : ±b : ±c) of each triangle, `Triangle.point` weighted by its
`Triangle.sides`, with no touch circle built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .kernel import (
    DEFAULT_EPS,
    Circle,
    CoincidentPoints,
    DegenerateInput,
    GeometryError,
    IdentityViolated,
    Line,
    Number,
    ParallelLines,
    Point,
    _normalize_abc,
    circumcircle,
    collinear,
    is_exact,
    primitive_integers,
    reflect_line_in_line,
    reflect_point_in_line,
    residual_ratio,
    sqrt_scalar,
    vanishes,
)
from .quadrangle import Triangle, as_triangle, orthocentre


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
            if vanishes(det, 1.0):   # |n₁|·|n₂| = 1: unit normals
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


def ngon_is_regular(gon: Sequence[Tuple[float, float]]) -> float:
    """Vertices, given as float pairs, concyclic and equally spaced by 2π/n
    around the centroid: the worst r/m of r_i = r̄ and of each gap = 2π/n,
    infinite when r̄ vanishes (the n-gon is a point)."""
    n = len(gon)
    cx = sum(x for x, _ in gon) / n
    cy = sum(y for _, y in gon) / n
    radii = [math.hypot(x - cx, y - cy) for x, y in gon]
    r = sum(radii) / n
    if vanishes(r, math.hypot(cx, cy)):
        return math.inf
    angles = sorted(math.atan2(y - cy, x - cx) % (2 * math.pi) for x, y in gon)
    gaps = [(angles[(i + 1) % n] - angles[i]) % (2 * math.pi) for i in range(n)]
    step = 2 * math.pi / n
    return max(max(abs(x - r) / (x + r) for x in radii),
               max(abs(g - step) / (g + step) for g in gaps))


#: the floor of |sin δ| in an n-gon's conditioning 1/|sin δ|: its bound
#: stays within ∛DEFAULT_EPS = 1e-3, above the 2e-5 by which valid meets
#: miss at the parallel flag, |sin δ| = DEFAULT_EPS
_SIN_FLOOR = DEFAULT_EPS ** (2 / 3)


def lighthouse_verify(cfg: LighthouseConfig) -> bool:
    """Regularity, coaxality through both lighthouses, and the parallel-edge
    lemma (all edge directions congruent mod π/n), on the float coordinates
    read once from the points. Per n-gon, the worst r/m of `ngon_is_regular`
    and the power (against |p − centre|² + r2, as `Circle.contains`), and
    the worst turn from the first edge (against π/n each), vanish against
    its conditioning 1/max(|sin δ|, ``_SIN_FLOOR``), δ = β + γ − gπ/n the
    angle at which its beams meet."""
    gons = [[(float(p.x), float(p.y)) for p in gon] for gon in cfg.ngons]
    lights = [(float(p.x), float(p.y)) for p in (cfg.b, cfg.c)]
    step = math.pi / cfg.n
    kappas = [1 / max(abs(math.sin(cfg.beta + cfg.gamma - g * step)), _SIN_FLOOR)
              for g in range(cfg.n)]
    for gon, circ, kappa in zip(gons, cfg.circles, kappas):
        if len(gon) != cfg.n:
            continue
        if circ is None:
            return False
        ox, oy, r2 = float(circ.center.x), float(circ.center.y), circ.r2
        worst = ngon_is_regular(gon)
        for x, y in gon + lights:
            dx, dy = x - ox, y - oy
            d2 = dx * dx + dy * dy
            miss = abs(d2 - r2) / (d2 + r2)
            if miss > worst:
                worst = miss
        if not vanishes(worst, kappa):
            return False
    # the Lighthouse Lemma: every edge of every n-gon in n direction classes
    base = None
    for gon, kappa in zip(gons, kappas):
        worst = 0.0
        for (px, py), (qx, qy) in combinations(gon, 2):
            ang = math.atan2(qy - py, qx - px) % step
            if base is None:
                base, base_kappa = ang, kappa
            turn = min(abs(ang - base), step - abs(ang - base))
            if turn > worst:
                worst = turn
        if base is not None and not vanishes(worst, step * (base_kappa + kappa)):
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
    the worst r/m of the cut points on the doubled beams (`Line.residual`)."""
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
    return max(residual_ratio(*beam2b.residual(r)), residual_ratio(*beam2c.residual(q)))


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
    other three, against the sum of the norms of the four, which both come
    from: 0 up to rounding when each point is the orthocentre of the rest."""
    pts = [_fp(p) for p in points]
    if len(pts) != 4:
        raise DegenerateInput("an orthocentric quadrangle has four points")
    size = sum(math.hypot(p.x, p.y) for p in pts)
    hs = [orthocentre(*(pts[:i] + pts[i + 1:])) for i in range(4)]
    return max(residual_ratio(math.hypot(h.x - p.x, h.y - p.y), size) for p, h in zip(pts, hs))


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


# Morley triangle pqr, p + q + r ≢ 1 (mod 3): the points *qr, p*r and pq*
_MORLEY_TRIANGLES: Tuple[Tuple[str, Tuple[str, str, str]], ...] = tuple(
    (f"{p}{q}{r}", (f"*{q}{r}", f"{p}*{r}", f"{p}{q}*"))
    for p, q, r in product(range(3), repeat=3)
    if (p + q + r) % 3 != 1
)
# per line: the vertex V its first two GF circles share, its three GF
# circles and the label of its associated point
_ASSOCIATIONS: Tuple[Tuple[str, str, Tuple[str, str, str], str], ...] = tuple(
    (ll, v, names, _associated_label(ll))
    for ll, names in _LINE_CIRCLES.items()
    for (v,) in [set(names[0][:2]) & set(names[1][:2])]
)


def _gf_circle(p: Point, q: Point, r: Point) -> Circle:
    """`circumcircle` of three float points, its expression on their
    coordinates."""
    x1, y1 = p.x, p.y
    bx, by, cx, cy = q.x - x1, q.y - y1, r.x - x1, r.y - y1
    cross = bx * cy - by * cx
    if cross == 0:
        raise DegenerateInput("collinear points have no circumcircle")
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    ox, oy = cy * bb - by * cc, bx * cc - cx * bb
    d = 2 * cross
    return Circle(Point((d * x1 + ox) / d, (d * y1 + oy) / d), (ox * ox + oy * oy) / (d * d))


def _on_circle(circ: Circle, p: Point) -> bool:
    """`Circle.contains` for a float circle and point: the power against
    |p − centre|² + r2."""
    dx, dy = p.x - circ.center.x, p.y - circ.center.y
    s, t = dx * dx + dy * dy, circ.r2
    return vanishes(s - t, s + abs(t))


def _reflect(p: Point, line: Tuple[float, float, float]) -> Point:
    """`reflect_point_in_line` of a float point in the unit-normal triple
    (a, b, c) of a·x + b·y = c."""
    a, b, c = line
    x, y = p.x, p.y
    n2 = a * a + b * b
    kt = 2 * (a * x + b * y - c)
    return Point((x * n2 - kt * a) / n2, (y * n2 - kt * b) / n2)


def morley_config(a: Point, b: Point, c: Point) -> MorleyConfig:
    """27 trisector intersections, 9 Morley lines carrying 6 points each,
    18 equilateral Morley triangles, 9 Guy Faux triangles whose circumcircles
    concur in threes at 9 associated points (besides the vertices).

    The label incidences are fixed tables.  The three GF circles of a line
    come one from each pair of lighthouses, so the first two share exactly
    one vertex V; their second meet, the associated point, is the
    reflection of V in the line of their centres.  It coincides with V when
    V is a right angle.  IdentityViolated if a point leaves its Morley line
    or a GF circle misses a lighthouse or the associated point.

    The trisectors are met as the unit-normal triples of `_beam`, and each
    check computes on float coordinates what the kernel predicate would:
    only the returned Points, Lines and Circles are built."""
    a, b, c = _fp(a), _fp(b), _fp(c)
    verts = {"A": a, "B": b, "C": c}
    ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
    if vanishes(ux * vy - uy * vx, math.hypot(ux, uy) * math.hypot(vx, vy)):
        raise DegenerateInput("degenerate triangle")
    angles: Dict[str, float] = {}
    for x, p, q, r in (("A", a, b, c), ("B", b, c, a), ("C", c, a, b)):
        # _signed_angle(q - p, r - p)
        ux, uy, vx, vy = q.x - p.x, q.y - p.y, r.x - p.x, r.y - p.y
        angles[x] = abs(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))

    fans: Dict[Tuple[str, str], List[Tuple[float, float, float]]] = {}
    for x, y, z in permutations("ABC"):
        p, q, r = verts[x], verts[y], verts[z]
        dx, dy = q.x - p.x, q.y - p.y
        theta = math.atan2(dy, dx)
        sigma = 1.0 if dx * (r.y - p.y) - dy * (r.x - p.x) > 0 else -1.0
        fans[x, y] = [
            _beam(p.x, p.y, theta + sigma * (angles[x] / 3 - j * math.pi / 3))
            for j in range(3)
        ]
    points: Dict[str, Point] = {}
    for x, y, j, k, label in _POINT_LABELS:
        a1, b1, c1 = fans[x, y][j]
        a2, b2, c2 = fans[y, x][k]
        det = a1 * b2 - b1 * a2
        if det == 0:
            raise ParallelLines("lines are parallel or identical")
        # Line.intersect's expression
        points[label] = Point((c1 * b2 - b1 * c2) / det, (a1 * c2 - c1 * a2) / det)

    lines: Dict[str, Line] = {}
    for label, members in _LINE_POINTS.items():
        p, q, *rest = (points[m] for m in members)
        line = Line.through(p, q)
        la, lb, lc = line.a, line.b, line.c
        norm = math.hypot(la, lb)
        for r in rest:   # Line.residual
            x, y = r.x, r.y
            if not vanishes(la * x + lb * y - lc, norm * math.hypot(x, y) + abs(lc)):
                raise IdentityViolated(f"point off Morley line {label}")
        lines[label] = line

    morley_tris: Dict[str, Tuple[Point, Point, Point]] = {
        key: (points[l1], points[l2], points[l3]) for key, (l1, l2, l3) in _MORLEY_TRIANGLES
    }

    gf_circles: Dict[str, Circle] = {}
    for name, labels in _GF_TRIANGLES.items():
        circ = _gf_circle(*(points[l] for l in labels))
        for v in name[:2]:
            if not _on_circle(circ, verts[v]):
                raise IdentityViolated(f"GF circle {name} misses a lighthouse")
        gf_circles[name] = circ

    associated: Dict[str, Point] = {}
    for label, v, (n1, n2, n3), assoc in _ASSOCIATIONS:
        p, q = gf_circles[n1].center, gf_circles[n2].center
        if p == q:
            raise CoincidentPoints("cannot make line through a single point")
        # the unit-normal triple of Line.through(p, q)
        pt = _reflect(verts[v], _normalize_abc(q.y - p.y, p.x - q.x, p.x * q.y - p.y * q.x))
        if not _on_circle(gf_circles[n3], pt):
            raise IdentityViolated(
                f"third GF circle misses the associated point of line {label}"
            )
        associated[assoc] = pt

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
    """Number of distinct edge directions mod π/3 over all triangles: two
    are one when their turn vanishes against the sum of their magnitudes."""
    third = math.pi / 3
    classes: List[Tuple[float, float]] = []
    for ang, m in _edge_angles(tris.values()):
        if not any(vanishes(min(abs(ang - c), third - abs(ang - c)), m + k) for c, k in classes):
            classes.append((ang, m))
    return len(classes)


def _edge_angles(tris: Iterable[Tuple[Point, Point, Point]]) -> List[Tuple[float, float]]:
    """Each edge pq of the float triangles as its angle mod π/3 and that
    angle's magnitude (|p| + |q|)/|q − p|, as rounding moves the ends by
    their size. Each vertex's coordinates and norm are read once."""
    third = math.pi / 3
    out = []
    for tri in tris:
        xy = [(float(p.x), float(p.y)) for p in tri]
        norms = [math.hypot(x, y) for x, y in xy]
        for i in range(3):
            j = (i + 1) % 3
            dx, dy = xy[j][0] - xy[i][0], xy[j][1] - xy[i][1]
            out.append((math.atan2(dy, dx) % third, (norms[i] + norms[j]) / math.hypot(dx, dy)))
    return out


# ---------------------------------------------------------------------------
# rational Morley families and the 1001-jigsaw
# ---------------------------------------------------------------------------


# -- exact angle algebra in Q(√3) -------------------------------------------


@dataclass(frozen=True)
class Surd:
    """p + q·√3 with p and q rational."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __add__(self, other: "Surd") -> "Surd":
        return Surd(self.p + other.p, self.q + other.q)

    def __neg__(self) -> "Surd":
        return Surd(-self.p, -self.q)

    def __sub__(self, other: "Surd") -> "Surd":
        return self + -other

    def __mul__(self, other: "Surd") -> "Surd":
        return Surd(self.p * other.p + 3 * self.q * other.q, self.p * other.q + self.q * other.p)

    def __truediv__(self, other: "Surd") -> "Surd":
        n = Fraction(other.p * other.p - 3 * other.q * other.q)   # the norm, 0 only at 0
        return self * Surd(other.p / n, -other.q / n)

    def sign(self) -> int:
        """-1, 0 or 1: p² = 3q² only at 0, so the larger of |p| and |q|√3
        carries the sign."""
        big = self.p if self.p * self.p > 3 * self.q * self.q else self.q
        return (big > 0) - (big < 0)


@dataclass(frozen=True)
class Sqrt3Angle:
    """cos θ = c and sin θ = s in Q(√3), and ``*`` adds two angles: holds
    the multiples of π/6 and every angle of a rational triangle whose area
    is rational or √3 times a rational."""

    c: Surd
    s: Surd

    def __post_init__(self):
        if self.c * self.c + self.s * self.s != Surd(1):
            raise InvalidParameters("not a unit Q(√3) angle")

    def __mul__(self, other: "Sqrt3Angle") -> "Sqrt3Angle":
        return Sqrt3Angle(
            self.c * other.c - self.s * other.s,
            self.c * other.s + self.s * other.c,
        )


_HALF = Surd(Fraction(1, 2))
SIXTY = Sqrt3Angle(_HALF, Surd(0, Fraction(1, 2)))
FULL = Sqrt3Angle(Surd(1), Surd(0))
_TWELFTH = Sqrt3Angle(Surd(0, Fraction(1, 2)), _HALF)                     # π/6
_THIRD_TURN = Sqrt3Angle(Surd(Fraction(-1, 2)), Surd(0, Fraction(1, 2)))   # 2π/3


def triangle_angles_sqrt3(edges: Sequence[int]) -> Tuple[Sqrt3Angle, Sqrt3Angle, Sqrt3Angle]:
    """Exact angles of an integer triangle whose squared area is 3 times a
    rational square (so each sine is √3 times a rational)."""
    a, b, c = (Fraction(e) for e in edges)
    area_s = _sqrt3_area(edges)
    out = []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        cos_x = (y * y + z * z - x * x) / (2 * y * z)
        sin_s = 2 * area_s / (y * z)
        out.append(Sqrt3Angle(Surd(cos_x), Surd(0, sin_s)))
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


@dataclass(frozen=True)
class RationalMorleyReport:
    edges: Tuple[Fraction, Fraction, Fraction]
    integer_edges: Tuple[int, int, int]
    is_pythagorean: bool
    rational_variants: Dict[Tuple[int, int, int], Fraction]


def rational_morley(family: str, params) -> RationalMorleyReport:
    """Rational-edged triangles with rational Morley triangles: the
    one-parameter Pythagorean family (exactly 2 of the 18 rational) or the
    two-parameter general family (all 18 rational). Each angle's third is
    ±β + mπ/6 for a base angle β in Q(√3): 2φ with tan φ = t for the legs'
    angles and 0 for the right angle, or 2αᵢ with tan αᵢ = xᵢ/√3."""
    if family == "pythagorean":
        t = Fraction(params)
        edges = (
            2 * t * (3 - t * t) * (1 - 3 * t * t),
            (1 - t * t) * (1 - 14 * t * t + t ** 4),
            (1 + t * t) ** 3,
        )
        two_phi = Sqrt3Angle(Surd((1 - t * t) / (1 + t * t)), Surd(2 * t / (1 + t * t)))
        bases = (two_phi, two_phi, FULL)
    elif family == "general":
        xs = [Fraction(x) for x in params]
        if len(xs) != 3 or 3 * sum(xs) != xs[0] * xs[1] * xs[2]:
            raise InvalidParameters("need 3(x1+x2+x3) = x1 x2 x3")
        edges = tuple(x * (x * x - 1) * (x * x - 9) / (x * x + 3) ** 3 for x in xs)
        bases = [Sqrt3Angle(Surd((3 - x * x) / (3 + x * x)), Surd(0, 2 * x / (3 + x * x)))
                 for x in xs]
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
    return RationalMorleyReport(edges, ints, pyth, _rational_edges(ints, bases))


def _rational_edges(
    edges: Sequence[int], bases: Sequence[Sqrt3Angle]
) -> Dict[Tuple[int, int, int], Fraction]:
    """The rational edges among |8R sin(θ_A + 2πi/3) sin(θ_B + 2πj/3)
    sin(θ_C + 2πk/3)| over the extraversion triples with i + j + k ≢ 1
    (mod 3), θ_X the third of angle X and 8R = 4a / sin A: exactly, in
    Q(√3), keeping those with no √3 part."""
    a, b, c = (Fraction(e) for e in edges)
    thirds = [
        _third((y * y + z * z - x * x) / (2 * y * z), base)
        for (x, y, z), base in zip(((a, b, c), (b, c, a), (c, a, b)), bases)
    ]
    sines = [[th.s, (th * _THIRD_TURN).s, (th * _THIRD_TURN * _THIRD_TURN).s] for th in thirds]
    eight_r = Surd(4 * a) / (thirds[0] * thirds[0] * thirds[0]).s
    out: Dict[Tuple[int, int, int], Fraction] = {}
    for i, j, k in product(range(3), repeat=3):
        if (i + j + k) % 3 != 1:
            e = eight_r * sines[0][i] * sines[1][j] * sines[2][k]
            if e.q == 0:
                out[i, j, k] = abs(e.p)
    return out


def _third(cos_x: Fraction, base: Sqrt3Angle) -> Sqrt3Angle:
    """The θ in (0, π/3) with cos 3θ = cos_x and sin 3θ > 0, among ±β + mπ/6
    for β = base: the cube ±3β + mπ/2 picks the sign and m mod 4, and one
    of θ + 2kπ/3 lies in (0, π/3)."""
    for b in (base, Sqrt3Angle(base.c, -base.s)):
        cube = b * b * b
        for c, s in ((cube.c, cube.s), (-cube.s, cube.c), (-cube.c, -cube.s), (cube.s, -cube.c)):
            if c == Surd(cos_x) and s.sign() > 0:
                while not (b.s.sign() > 0 and (b.c - _HALF).sign() > 0):
                    b = b * _THIRD_TURN
                return b
            b = b * _TWELFTH   # and the cube turns by π/2
    raise IdentityViolated("no third of the angle among ±base + mπ/6")


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
    1001, three inner pieces (1001, u, x) on its edges and three outer
    pieces (u, v, w) assemble exactly into one big triangle of sides w,
    checked in Q(√3). The assembly is read off the edges the pieces share."""
    # each piece's angles keyed by the edge they face
    inner = [dict(zip(t, triangle_angles_sqrt3(t))) for t in JIGSAW_INNER]
    outer = [dict(zip(t, triangle_angles_sqrt3(t))) for t in JIGSAW_OUTER]
    assembled = tuple(w for _, _, w in JIGSAW_OUTER)
    big = dict(zip(assembled, triangle_angles_sqrt3(assembled)))
    # shared edge -> the angles of the inner or outer piece on it, and that
    # piece's other shared edge
    on_inner, on_outer = {}, {}
    for (_, u, x), ang in zip(JIGSAW_INNER, inner):
        on_inner[u], on_inner[x] = (ang, x), (ang, u)
    for (u, v, _), ang in zip(JIGSAW_OUTER, outer):
        on_outer[u], on_outer[v] = (ang, v), (ang, u)

    # area: Δ(assembled) = Δ(equilateral) + Σ Δ(pieces), all as s·√3
    total = Fraction(JIGSAW_EQUILATERAL) ** 2 / 4   # Δ_eq = (√3/4)·1001²
    for t in JIGSAW_INNER + JIGSAW_OUTER:
        total += _sqrt3_area(t)
    area_ok = total == _sqrt3_area(assembled)

    # outer piece (u, v, w) fills the corner of the equilateral between the
    # inner pieces on u and on v: 60°, the inner angles facing their edges
    # other than 1001 and the shared one, and the angle facing w make 360°
    sums_ok = True
    for (u, v, w), ang in zip(JIGSAW_OUTER, outer):
        (pu, xu), (pv, xv) = on_inner[u], on_inner[v]
        sums_ok &= SIXTY * pu[xu] * pv[xv] * ang[w] == FULL

    # trisection: at the apex of inner piece (1001, u, x), its angle facing
    # 1001 and each outer neighbour's angle facing that neighbour's other
    # shared edge are equal, and their triple is the assembled angle facing
    # the side of the outer piece the inner one does not touch
    tris_ok = True
    for (e, u, x), ang in zip(JIGSAW_INNER, inner):
        third = ang[e]
        far = next(w for p, q, w in JIGSAW_OUTER if not {p, q} & {u, x})
        tris_ok &= all(o[y] == third for o, y in (on_outer[u], on_outer[x]))
        tris_ok &= third * third * third == big[far]
    return JigsawReport(area_ok, sums_ok, tris_ok)


def orthocentric_morley_parallel(a: Point, b: Point, c: Point) -> float:
    """The four triangles of the orthocentric quadrangle {A, B, C, H} have
    mutually parallel Morley triangles (72 triangles in 1 direction class
    mod π/3): the worst turn mod π/3 between one of their edges and the
    first, as r/m with the magnitudes of `edge_direction_classes`."""
    a, b, c = _fp(a), _fp(b), _fp(c)
    h = orthocentre(a, b, c)
    tris = [
        tri
        for p, q, r in ((a, b, c), (b, h, c), (c, h, a), (a, h, b))
        for tri in morley_config(p, q, r).morley_triangles.values()
    ]
    third = math.pi / 3
    (first, k), *rest = _edge_angles(tris)
    return max(residual_ratio(min(abs(a - first), third - abs(a - first)), m + k) for a, m in rest)


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
    worst: Number = 0.0                  # largest r/m of the float checks


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


def _index_pairs(row: str) -> Tuple[Tuple[int, int], ...]:
    return tuple((int(a), int(b)) for a, b in row.split())


_GRID_ROWS = tuple(tuple(_index_pairs(row) for row in family) for family in _GRID)
_MIDPOINT_ROWS = tuple(_index_pairs(row) for row in _MIDPOINTS)


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
    the centres are those of ``touch_circles``, the points of each triangle
    weighted by its sides (`Triangle.point`), exact when every chord of the
    quadrangle is rational, and each check is `kernel.vanishes`.
    ``worst`` is the largest float r/m but those of the `Line` predicates."""
    pts = list(quad)
    if len(pts) != 4:
        raise DegenerateInput("need four points")
    misses: List[Number] = [0.0]

    def holds(r: Number, m: Number) -> bool:
        if type(r) is float:
            misses.append(residual_ratio(r, m))
        return vanishes(r, m)

    def coincide(p: Point, q: Point) -> bool:   # against the centres' norms
        if p.is_exact() and q.is_exact():
            return p == q
        return holds(math.hypot(p.x - q.x, p.y - q.y), size)

    base = circumcircle(pts[0], pts[1], pts[2])
    if not holds(*base.residual(pts[3])):
        raise DegenerateInput("points are not concyclic")

    # own[t][v]: the centre of triangle omit-t that is "tv" in ``centers``
    centers: Dict[str, Point] = {}
    own: List[List[Optional[Point]]] = [[None] * 4 for _ in range(4)]
    for omit in range(4):
        others = [i for i in range(4) if i != omit]
        tri = Triangle([pts[i] for i in others])
        a, b, c = tri.sides
        for v, weights in zip([omit] + others, ((a, b, c), (-a, b, c), (a, -b, c), (a, b, -c))):
            own[omit][v] = centers[f"{omit}{v}"] = tri.point(*weights)

    size = sum(math.hypot(p.x, p.y) for p in (base.center, base.center, *centers.values()))

    # the two perpendicular quadruples of parallel 4-point lines, over the
    # centres relabelled counterclockwise
    ccw = sorted(range(4), key=lambda i: _angle_of(pts[i] - base.center))
    at = [[own[t][v] for v in ccw] for t in ccw]

    firsts: List[Line] = []
    for family in _GRID_ROWS:
        lines = []
        for row in family:
            on = [at[i][j] for i, j in row]
            line = Line.through(on[0], on[1])
            if not all([holds(*line.residual(p)) for p in on[2:]]):
                members = " ".join(f"{ccw[i]}{ccw[j]}" for i, j in row)
                raise DegenerateInput(f"centres {members} not collinear")
            if lines and not line.is_parallel(lines[0]):
                raise DegenerateInput("grid families are not parallel")
            lines.append(line)
        firsts.append(lines[0])
    if not firsts[0].is_perpendicular(firsts[1]):
        raise DegenerateInput("grid families are not perpendicular")

    pair_count = 0
    for row in _MIDPOINT_ROWS:
        p, q, r, s = (at[i][j] for i, j in row)
        m1, m2 = p.midpoint(q), r.midpoint(s)
        on_circle = [holds(*base.residual(m1)), holds(*base.residual(m2))]
        pair_count += coincide(m1, m2) and all(on_circle)

    # circumcentres reflect through the 16-point centre; circles congruent.
    # Each centre is the orthocentre of the other three of its triangle.
    twice = base.center.scale(2)
    reflect_ok = True
    congruent_ok = True
    r_big = None
    for omit in range(4):
        row = own[omit]
        order = [omit] + [v for v in range(4) if v != omit]
        for lab in order:
            circ = circumcircle(*(row[v] for v in order if v != lab))
            if not coincide(circ.center, twice - row[lab]):
                reflect_ok = False
            r = circ.radius()
            if r_big is None:
                r_big = r
            elif not holds(r - r_big, r + r_big):
                congruent_ok = False
    return ThriceSixteenReport(
        centers,
        pair_count,
        True,  # every _GRID row holds one centre of each triangle
        reflect_ok,
        congruent_ok,
        max(misses),
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
    these incidences fails, by the kernel predicates."""
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
    # a float miss counts against the vertices' norms too: the centres may
    # lie near the origin, far smaller than the data they are built from
    size = sum(math.hypot(v.x, v.y) for v in tri)

    def on(line: Line, p: Point) -> bool:
        r, m = line.residual(p)    # |(a, b)| = 1 for a float line
        return vanishes(r, m + size)

    o = Line.through(a, a_p).intersect(Line.through(b, b_p))
    if not on(Line.through(c, c_p), o):
        raise IdentityViolated("AA', BB', CC' fail to concur")
    if not tri.circumcircle.center.close_to(o, size):
        raise IdentityViolated("concurrence is not the circumcentre")
    h = tri.orthocentre
    for v, vp in ((a, alpha_p), (b, beta_p), (c, gamma_p)):
        if not on(Line.through(v, vp), h):
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
