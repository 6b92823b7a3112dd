"""Scene construction, deterministic SVG rendering, figure recipes,
fixtures, plain-text tables, and the verification-suite runner behind the
command-line interface."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .kernel import (
    DEFAULT_EPS,
    Circle,
    GeometryError,
    IdentityViolated,
    Line,
    Point,
    Tangency,
    foot_of_perpendicular,
    format_scalar,
    is_exact,
    radical_axis,
    reflect_point_in_line,
    residual_ratio,
    tangency_classify,
)
from . import drozfarny, malfatti, morley, touch, wallace
from .quadrangle import (
    LABELS,
    LabeledQuadrangle,
    Triangle,
    acute_census,
    altitudes,
    euler_range,
    medial_circles,
    quadrate,
    quadration_edges,
)


class UnknownFixture(GeometryError):
    pass


class UnknownRecipe(GeometryError):
    pass


class UnknownSuite(GeometryError):
    pass


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

F = Fraction

#: fixture name -> its seed triangle quadrated once per process: quadration
#: adjoins the orthocentre and the labels, and every recipe, table and suite
#: shares the faces, twins and Central Circle it derives on first use
FIXTURES: Dict[str, LabeledQuadrangle] = {
    "t0": quadrate(Point(F(36), F(103)), Point(F(-204), F(-77)), Point(F(132), F(-77))),
}


def fixture_quadrangle(name: str) -> LabeledQuadrangle:
    try:
        return FIXTURES[name]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}") from None


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

Window = Tuple[float, float, float, float]   # xmin, ymin, xmax, ymax


@dataclass(frozen=True)
class SceneElement:
    kind: str           # point | line | circle | polyline | label
    data: tuple
    stroke: str = "solid"      # solid | dashed | dotted | thick
    layer: int = 0


@dataclass
class Scene:
    window: Window
    elements: List[SceneElement] = field(default_factory=list)

    def __post_init__(self):
        x0, y0, x1, y1 = self.window
        if not (x1 > x0 and y1 > y0):
            raise GeometryError("empty scene window")

    def add_point(self, p: Point, layer: int = 2) -> None:
        self.elements.append(
            SceneElement("point", (float(p.x), float(p.y)), "solid", layer)
        )

    def add_line(self, line: Line, stroke: str = "solid", layer: int = 0) -> None:
        seg = _clip_line(line, self.window)
        if seg is not None:
            self.elements.append(SceneElement("line", seg, stroke, layer))

    def add_circle(self, c: Circle, stroke: str = "solid", layer: int = 1) -> None:
        self.elements.append(
            SceneElement(
                "circle",
                (float(c.center.x), float(c.center.y), math.sqrt(float(c.r2))),
                stroke,
                layer,
            )
        )

    def add_polyline(
        self, pts: Sequence[Point], stroke: str = "solid", layer: int = 1,
        closed: bool = False,
    ) -> None:
        coords = tuple((float(p.x), float(p.y)) for p in pts)
        if closed:
            coords = coords + (coords[0],)
        self.elements.append(SceneElement("polyline", coords, stroke, layer))

    def add_label(self, p: Point, text: str, layer: int = 3) -> None:
        self.elements.append(
            SceneElement("label", (float(p.x), float(p.y), text), "solid", layer)
        )


def _clip_line(line: Line, window: Window) -> Optional[tuple]:
    """Liang-Barsky clip of an infinite line to the window rectangle."""
    x0, y0, x1, y1 = window
    a, b, c = float(line.a), float(line.b), float(line.c)
    px = foot_of_perpendicular(Point((x0 + x1) / 2, (y0 + y1) / 2),
                               Line(a, b, c))
    dx, dy = -b, a
    n = math.hypot(dx, dy)
    dx, dy = dx / n, dy / n
    t0, t1 = -math.inf, math.inf
    for p, q in (
        (-dx, float(px.x) - x0),
        (dx, x1 - float(px.x)),
        (-dy, float(px.y) - y0),
        (dy, y1 - float(px.y)),
    ):
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            t0 = max(t0, r)
        else:
            t1 = min(t1, r)
    if t0 >= t1:
        return None
    return (
        float(px.x) + t0 * dx, float(px.y) + t0 * dy,
        float(px.x) + t1 * dx, float(px.y) + t1 * dy,
    )


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

T0_WINDOW: Window = (-310.0, -310.0, 310.0, 310.0)


def _recipe_empty(q: LabeledQuadrangle) -> Scene:
    return Scene((-1.0, -1.0, 1.0, 1.0))


def _recipe_twins(q: LabeledQuadrangle) -> Scene:
    scene = Scene(T0_WINDOW)
    for a, b in combinations(LABELS, 2):
        scene.add_line(q.edge(a, b))
    for a, b in combinations(LABELS, 2):
        scene.add_line(q.twin_quadrangle.edge(a, b), stroke="dashed")
    for lab in LABELS:
        scene.add_point(q.vertices[lab])
        scene.add_label(q.vertices[lab], str(lab))
        scene.add_point(q.twins[lab])
        scene.add_label(q.twins[lab], f"{lab}~")
    for (lab, barred), p in sorted(q.midpoints.items()):
        scene.add_point(p)
        scene.add_label(p, f"{lab}{'~' if barred else ''}")
    scene.add_point(q.center)
    scene.add_label(q.center, "0")
    scene.add_circle(q.central_circle, stroke="thick")
    return scene


def _recipe_touch32(q: LabeledQuadrangle) -> Scene:
    scene = Scene(T0_WINDOW)
    for quad in (q, q.twin_quadrangle):
        for a, b in combinations(LABELS, 2):
            scene.add_line(quad.edge(a, b), stroke="dotted")
    for quad in (q, q.twin_quadrangle):
        for lab in LABELS:
            for tc in touch.touch_circles(quad.face(lab)):
                scene.add_circle(tc.circle)
    scene.add_circle(q.central_circle, stroke="thick", layer=2)
    return scene


def _recipe_gergonne16(q: LabeledQuadrangle) -> Scene:
    scene = Scene(T0_WINDOW)
    for a, b in combinations(LABELS, 2):
        scene.add_line(q.edge(a, b), stroke="dotted")
    for lab in sorted(LABELS):
        data = touch.gergonne_nagel(q.face(lab))
        for ext in ("o", "a", "b", "c"):
            p = data.gergonne[ext]
            scene.add_point(p)
            scene.add_label(p, f"G{lab}{ext}")
    scene.add_circle(q.central_circle, stroke="thick")
    return scene


def _recipe_trisequence(q: LabeledQuadrangle) -> Scene:
    seq = wallace.trisequence(q, "7B", Point(F(-62), F(117)), 11)
    scene = Scene(T0_WINDOW)
    for lab in LABELS:
        scene.add_circle(q.face(lab).circumcircle, stroke="dotted")
    for lname in sorted(seq.lines):
        scene.add_line(seq.lines[lname])
    for node_name in sorted(seq.nodes):
        node = seq.nodes[node_name]
        scene.add_point(node.point)
        scene.add_label(node.point, node_name)
    scene.add_circle(q.central_circle, stroke="thick")
    return scene


def _recipe_star_of_david(q: LabeledQuadrangle) -> Scene:
    star = wallace.star_of_david(q)
    scene = Scene(T0_WINDOW)
    for line in star.tangent_lines:
        scene.add_line(line, stroke="dotted")
    for tri in star.triangles:
        scene.add_polyline(tri, stroke="thick", closed=True)
    scene.add_circle(q.central_circle)
    # cusp circle of the deltoid: radius 3/2 the circumradius
    r2 = q.central_circle.r2
    scene.add_circle(Circle(q.center, 9 * float(r2)), stroke="dashed")
    return scene


def _recipe_df_envelope(q: LabeledQuadrangle) -> Scene:
    tri = q.face(7)
    env = drozfarny.df_envelope(tri)
    scene = Scene(T0_WINDOW)
    h = q.vertices[7]
    for i in range(12):
        t = F(2 * i + 1, 25)
        d = Point(1 - t * t, 2 * t)
        try:
            inst = drozfarny.df_line(
                tri,
                (
                    Line.from_point_direction(h, d),
                    Line.from_point_direction(h, Point(-d.y, d.x)),
                ),
            )
        except drozfarny.EdgeParallel:
            continue
        scene.add_line(inst.df, stroke="dotted")
    # the envelope ellipse as a sampled polyline
    f1, f2 = env.conic.focus1, env.conic.focus2
    cx, cy = float(env.center.x), float(env.center.y)
    a = math.sqrt(float(env.axis2)) / 2
    c2 = float(f1.dist2(f2)) / 4
    b = math.sqrt(a * a - c2)
    ux, uy = float(f1.x) - cx, float(f1.y) - cy
    n = math.hypot(ux, uy)
    ux, uy = ux / n, uy / n
    pts = []
    for i in range(256):
        th = 2 * math.pi * i / 256
        e1, e2 = a * math.cos(th), b * math.sin(th)
        pts.append(Point(cx + e1 * ux - e2 * uy, cy + e1 * uy + e2 * ux))
    scene.add_polyline(pts, stroke="thick", closed=True)
    for p in (f1, f2):
        scene.add_point(p)
    scene.add_label(f1, "H")
    scene.add_label(f2, "O")
    scene.add_circle(q.central_circle, stroke="dashed")
    return scene


RECIPES: Dict[str, Callable[[LabeledQuadrangle], Scene]] = {
    "empty": _recipe_empty,
    "twins": _recipe_twins,
    "touch32": _recipe_touch32,
    "gergonne16": _recipe_gergonne16,
    "trisequence": _recipe_trisequence,
    "star-of-david": _recipe_star_of_david,
    "droz-farny-envelope": _recipe_df_envelope,
}


def build_scene(fixture_name: str, recipe: str) -> Scene:
    q = fixture_quadrangle(fixture_name)
    if recipe not in RECIPES:
        raise UnknownRecipe(f"unknown recipe {recipe!r}")
    return RECIPES[recipe](q)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_STROKES = {
    "solid": 'stroke="black" stroke-width="1"',
    "thick": 'stroke="black" stroke-width="2.5"',
    "dashed": 'stroke="black" stroke-width="1" stroke-dasharray="6,4"',
    "dotted": 'stroke="black" stroke-width="1" stroke-dasharray="1.5,3"',
}


def _num(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


def render_svg(scene: Scene) -> bytes:
    """Deterministic SVG: six-decimal coordinates, y-axis flipped to the
    mathematical orientation."""
    x0, y0, x1, y1 = scene.window
    w, h = x1 - x0, y1 - y0

    def fy(y: float) -> float:
        return y1 + y0 - y    # mirror inside the window band

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_num(x0)} {_num(y0)} {_num(w)} {_num(h)}" '
        f'width="800" height="800">',
    ]
    for el in sorted(
        range(len(scene.elements)),
        key=lambda i: (scene.elements[i].layer, i),
    ):
        e = scene.elements[el]
        style = _STROKES[e.stroke]
        if e.kind == "point":
            x, y = e.data
            out.append(
                f'<circle cx="{_num(x)}" cy="{_num(fy(y))}" r="2.5" fill="black"/>'
            )
        elif e.kind == "line":
            ax, ay, bx, by = e.data
            out.append(
                f'<line x1="{_num(ax)}" y1="{_num(fy(ay))}" '
                f'x2="{_num(bx)}" y2="{_num(fy(by))}" {style}/>'
            )
        elif e.kind == "circle":
            x, y, r = e.data
            out.append(
                f'<circle cx="{_num(x)}" cy="{_num(fy(y))}" r="{_num(r)}" '
                f'fill="none" {style}/>'
            )
        elif e.kind == "polyline":
            pts = " ".join(f"{_num(x)},{_num(fy(y))}" for x, y in e.data)
            out.append(f'<polyline points="{pts}" fill="none" {style}/>')
        elif e.kind == "label":
            x, y, text = e.data
            out.append(
                f'<text x="{_num(x + 4)}" y="{_num(fy(y) - 4)}" '
                f'font-size="10" font-family="monospace">{text}</text>'
            )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _trisequence_table(q: LabeledQuadrangle, seed: Point, max_lines: int) -> str:
    seq = wallace.trisequence(q, "7B", seed, max_lines)
    lines = ["reflect | in edges     | to give      | lying on | line | slope"]
    for r in seq.rows:
        slope = format_scalar(r.slope) if r.slope is not None else "inf"
        lines.append(
            f"{r.reflect:7} | {' '.join(r.in_edges):12} | "
            f"{' '.join(r.to_give):12} | {' '.join(map(str, r.lying_on)):8} | "
            f"{r.line_name}@{r.through}  | {slope}"
        )
    return "\n".join(lines) + "\n"


def table_text(name: str) -> str:
    q = fixture_quadrangle("t0")
    if name == "trisequence":
        return _trisequence_table(q, Point(F(-62), F(117)), 11)
    if name == "apocrypha":
        return _trisequence_table(q, Point(F(-190), F(21)), 17)
    if name == "guylines":
        state = (F(2, 9), F(1, 4), F(1, 3))
        rows = ["label   | kind     | through | line coefficients"]
        for g in malfatti.guylines(state) + malfatti.pegs(state):
            coeffs = " ".join(format_scalar(c) for c in g.line)
            rows.append(f"{g.label:7} | {g.kind:8} | {g.through:7} | {coeffs}")
        return "\n".join(rows) + "\n"
    raise UnknownSuite(f"unknown table {name!r}")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One case of a suite: ``ok`` is True when it passed, False when it
    failed (``witness`` says how) and None when it was drawn but could not
    be checked."""

    ok: Optional[bool]
    witness: str
    exact: bool = True
    residual: float = 0.0


SKIP = Check(None, "")


def _miss_check(miss: float, witness: str) -> Check:
    """A float case that passes when its worst r/m is at most ``DEFAULT_EPS``."""
    return Check(miss <= DEFAULT_EPS, witness, exact=False, residual=miss)


@dataclass
class SuiteResult:
    suite: str
    cases: int = 0
    exact_passes: int = 0
    approx_passes: int = 0
    skipped: int = 0            # drawn cases the suite could not check
    max_residual: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.cases > 0

    def add(self, check: Check) -> None:
        self.cases += 1
        self.max_residual = max(self.max_residual, abs(check.residual))
        if check.ok is None:
            self.skipped += 1
        elif not check.ok:
            self.failures.append(check.witness)
        elif check.exact:
            self.exact_passes += 1
        else:
            self.approx_passes += 1

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.suite}: {status} "
            f"({self.exact_passes} exact + {self.approx_passes} approx + "
            f"{self.skipped} skipped of {self.cases} cases, "
            f"max residual {self.max_residual:.3e})"
        )


def _unit_circle_power(t: Fraction, k: int) -> Point:
    """z = w^(2^k) for the rational point w = ((1−t²)/(1+t²), 2t/(1+t²)) of
    the unit circle. For k = 1 every chord between two such points is
    rational; for k = 2 so are the sines and cosines of the half angles of a
    triangle on three of them, hence its inradius, IA, IB and IC."""
    d = 1 + t * t
    x, y = (1 - t * t) / d, 2 * t / d
    for _ in range(k):
        x, y = x * x - y * y, 2 * x * y
    return Point(x, y)


def _random_tangent(rng) -> Fraction:
    """t = ±n/d with n, d ≤ 20, for `_unit_circle_power`."""
    return F(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 20))


def _suite_feuerbach32(rng, count: int) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    rep = touch.feuerbach_verify(q)
    for label, circle, kind, exact in rep.entries:
        ok = kind.value in ("InternalTangent", "ExternalTangent")
        yield Check(ok, f"touch circle {label} not tangent", exact)


def _suite_euler(rng, count: int) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    for lab in LABELS:
        er = euler_range(q, lab)
        yield Check(er.harmonic(), f"range {lab} not harmonic")
        # the range's O is the twin, which must be the face's circumcentre
        face = q.face(lab)
        o = face.circumcircle.center
        yield Check(
            (er.circumcentre, er.centroid, er.de_longchamps)
            == (o, face.point(1, 1, 1), o.scale(2) - face.orthocentre),
            f"range {lab}: O, G, deL are not the circumcentre, centroid and 2O − H of its face",
        )
    er = euler_range(q, 7)
    yield Check(
        er.de_longchamps == Point(F(-108), F(-153)),
        "deL(124) mismatch",
    )
    yield Check(
        acute_census(q) == {"acute": 1, "obtuse": 3},
        "acute census: not one acute and three obtuse faces",
    )
    points = (*q.midpoints.values(), *q.diagonals.values())
    yield Check(
        all(map(q.central_circle.contains, points)),
        "a midpoint or diagonal point is off the Central Circle",
    )
    face = q.face(7)
    yield Check(
        set(medial_circles(*face).radical_axes) == set(altitudes(*face)),
        "radical axes of the median circles are not the altitudes",
    )
    # the derived triangles 2R·(sinA, cosB, cosC), ... are faces 1, 2, 4
    edges = quadration_edges(face)
    for lab, triple in zip((1, 2, 4), edges):
        f = q.face(lab)
        sides2 = sorted(f[i].dist2(f[i - 1]) for i in range(3))
        yield Check(
            sides2 == sorted(x * x for x in triple),
            f"quadration edges do not match the sides of face {lab}",
        )


def _table_checks(
    seq: wallace.TrisequenceResult,
    expected: Dict[str, Fraction],
    closures: Set[Tuple[str, str]],
) -> Iterator[Check]:
    """One case per tabled slope, and one for the image names at which the
    sequence closes a cycle: (would-be name, existing name) pairs."""
    slopes = {r.line_name: r.slope for r in seq.rows}
    for lname, want in expected.items():
        got = slopes.get(lname)
        yield Check(got == want, f"line {lname}: {got} != {want}")
    missing = closures - set(seq.coincidences)
    yield Check(not missing, f"the sequence does not close at {sorted(missing)}")


TRISEQUENCE_SLOPES = {
    "A": F(23, 7), "B": F(-1, 7), "C": F(97, 71), "D": F(-1),
    "E": F(-97, 71), "F": F(1), "G": F(-401, 79), "H": F(1841, 887),
    "I": F(7), "J": F(41, 113), "K": F(17, 31),
}

APOCRYPHA_SLOPES = {
    "A": F(1), "B": F(41, 113), "C": F(7), "D": F(-7, 23), "E": F(-7),
    "F": F(7, 23), "G": F(23, 7), "H": F(71, 97), "I": F(97, 71),
    "J": F(-1, 7), "K": F(503, 329), "L": F(17, 31), "M": F(79, 401),
    "N": F(-1367, 1519), "O": F(-1), "P": F(-71, 97), "Q": F(7, 601),
}

TRISEQUENCE_CLOSURES = {("7C", "7B"), ("7H", "7E"), ("7I", "7F")}
APOCRYPHA_CLOSURES = {("7H", "7E"), ("7I", "7F"), ("2O", "2D"), ("2Q", "2P")}


def _suite_trisequence(rng, count) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    seq = wallace.trisequence(q, "7B", Point(F(-62), F(117)), 11)
    yield from _table_checks(seq, TRISEQUENCE_SLOPES, TRISEQUENCE_CLOSURES)
    yield Check(
        wallace.midpoint_rs(q, seq.nodes["7B"])[1] == (6, 7),
        "7B midpoint (r,s) != (6,7)",
    )


def _suite_apocrypha(rng, count) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    seq = wallace.trisequence(q, "7B", Point(F(-190), F(21)), 17)
    yield from _table_checks(seq, APOCRYPHA_SLOPES, APOCRYPHA_CLOSURES)


def _suite_three_cycles(rng, count) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    tc = wallace.three_cycles(q)
    yield Check(len(tc.cycles) == 4, "did not find four 3-cycles")
    want = {
        Point(F(-108), F(51)), Point(F(372), F(51)), Point(F(-300), F(51))
    }
    got = {
        reflect_point_in_line(tc.antipodes[(1, 7)], q.edge(a, b))
        for a, b in ((2, 4), (4, 1), (1, 2))
    }
    yield Check(got == want, "reflection triple of (-108,-205) mismatch")
    yield Check(tc.trebled_circle.r2 == 65025, "trebled circle radius != 255")
    homothety = all(
        tc.trebled[l] - q.center == (q.vertices[l] - q.center).scale(-3)
        for l in LABELS
    )
    yield Check(homothety, "trebled quadrangle is not the -3 homothet")
    yield Check(
        len(tc.lines) == 6
        and all(
            len(set(tc.quads[pair])) == 4
            and all(line.contains(p) for p in tc.quads[pair])
            for pair, line in tc.lines.items()
        ),
        "a label-pair line does not carry four points",
    )
    for x, y in ((-62, 117), (-190, 21)):
        yield Check(
            wallace.six_cycle_check(q, Point(F(x), F(y))),
            f"six reflections in edges 14, 24, 47 do not return ({x},{y})",
        )


#: (p, q) with 7q > p > q > 0 for the cos A = -7/25 family
COS_FAMILY_PAIRS = ((2, 1), (3, 1), (5, 2), (6, 5))

SODDY_CASES = [
    ((45, 40, 13), "Critical"),
    ((6, 5, 5), "Internal"),
    ((23, 22, 3), "External"),
    ((8, 5, 5), "Critical"),
    ((26, 25, 3), "External"),
]


def _suite_soddy(rng, count) -> Iterator[Check]:
    for sides, want in SODDY_CASES:
        got = touch.classify_soddy(*[F(s) for s in sides])
        yield Check(got == want, f"{sides}: {got} != {want}")
    a, b, c = F(26), F(25), F(3)
    cos_a = (b * b + c * c - a * a) / (2 * b * c)
    yield Check(cos_a == F(-7, 25), "(26,25,3) cosA != -7/25")
    for p, q in COS_FAMILY_PAIRS:
        a, b, c = touch.cos_family(F(p), F(q))
        yield Check(
            (b * b + c * c - a * a) / (2 * b * c) == F(-7, 25),
            f"cos family ({p},{q}): cosA != -7/25",
        )
    sd = touch.soddy(fixture_quadrangle("t0").face(7))
    yield Check(
        all(
            tangency_classify(sd.inner, c) == Tangency.EXTERNAL_TANGENT
            for c in sd.tangent_circles
        ),
        "inner Soddy circle not externally tangent to the vertex circles",
    )
    yield Check(
        sd.outer is not None
        and all(
            tangency_classify(sd.outer, c) == Tangency.INTERNAL_TANGENT
            for c in sd.tangent_circles
        ),
        "outer Soddy circle not internally tangent to the vertex circles",
    )
    yield Check(
        all(
            sd.soddy_line.contains(p)
            for p in (sd.incentre, sd.gergonne_point, sd.de_longchamps)
        ),
        "Soddy line misses the incentre, Gergonne or de Longchamps point",
    )
    yield Check(
        sd.soddy_line.is_perpendicular(sd.gergonne_line),
        "Soddy line not perpendicular to the Gergonne line",
    )
    done = 0
    while done < count:
        u = F(rng.randint(2, 50), rng.randint(1, 10))
        v = F(rng.randint(2, 50), rng.randint(1, 10))
        try:
            sides = touch.bremner_critical(u, v)
        except touch.DegenerateParameters:
            continue
        got = touch.classify_soddy(*sides)
        yield Check(got == "Critical", f"bremner {u},{v} not critical")
        done += 1


def _suite_wallace_sweep(rng, count) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    tri = q.face(7)
    circ = tri.circumcircle
    base = Point(F(-62), F(117))
    h = q.vertices[7]
    for i in range(count):
        t = F(2 * i + 1, 2 * count + 1)
        s = wallace.rational_circle_point(circ, base, t)
        wd = wallace.wallace_line(tri, s)
        ok = (
            all(wd.line.contains(f) for f in wd.feet)
            and wd.steiner_line.contains(h)
            and q.central_circle.contains(wd.midpoint_T)
        )
        yield Check(ok, f"wallace failure at t={t}")
    qw = wallace.wallace_quadrated(q, base)
    yield Check(
        len(qw.feet) == 12 and all(qw.line.contains(f) for f in qw.feet),
        "quadrated Wallace line misses one of its 12 feet",
    )
    line = wallace.wallace_line(tri, base).line
    for lab in (1, 2):
        fit = wallace.fit_triangle(circ, base, line, q.vertices[lab])
        yield Check(
            set(fit.triangle) == set(tri),
            f"triangle fitted from vertex {lab} to the Wallace line is not face 7",
        )
    p = Point(F(0), F(5))
    l, m, n = Point(F(-3), F(0)), Point(F(1), F(0)), Point(F(6), F(0))
    cs = wallace.converse_simson(p, l, m, n)
    yield Check(
        wallace.wallace_line(cs, p).line == Line.through(l, m),
        "converse Simson: the Wallace line of P is not LMN",
    )


def _suite_deltoid(rng, count) -> Iterator[Check]:
    for _ in range(count):
        t = F(rng.randint(1, 400), rng.randint(1, 400))
        yield Check(wallace.deltoid_tangency_check(t), f"deltoid t={t}")
    star = wallace.star_of_david(fixture_quadrangle("t0"))
    for tri in star.triangles:
        resid = morley.equilateral_residual(tri)
        # tighter than DEFAULT_EPS: the closed form's spread is far below it
        yield Check(
            resid <= 1e-12,
            f"star-of-David triangle side spread {resid}",
            exact=False,
            residual=resid,
        )


def _suite_droz_farny(rng, count) -> Iterator[Check]:
    q = fixture_quadrangle("t0")
    tri = q.face(7)
    h = q.vertices[7]
    env = drozfarny.df_envelope(tri)
    done = 0
    i = 0
    while done < count:
        i += 1
        t = F(i, 4 * count + 1)
        d = Point(1 - t * t, 2 * t)
        pair = (
            Line.from_point_direction(h, d),
            Line.from_point_direction(h, Point(-d.y, d.x)),
        )
        try:
            inst = drozfarny.df_line(tri, pair)
        except drozfarny.EdgeParallel:
            continue
        audit = drozfarny.parabola_tangency_audit(inst)
        ok = (
            drozfarny.verify_instance(inst)
            and q.central_circle.contains(
                foot_of_perpendicular(h, inst.df)
            )
            and drozfarny.envelope_tangency(env, inst)
            and all(audit.values())
        )
        yield Check(ok, f"droz-farny failure at t={t}")
        done += 1
    yield Check(
        env.axis2 == 28900
        and {env.conic.focus1, env.conic.focus2}
        == {Point(F(36), F(51)), Point(F(-36), F(-51))},
        "envelope foci/axis mismatch",
    )
    # the converse: the pair recovered from M gives back the bisector of HM
    conv = drozfarny.df_converse(tri, Point(F(-62), F(117)))
    inst = drozfarny.df_line(tri, conv.pair)
    miss = max(residual_ratio(*conv.df.residual(p)) for p in inst.midpoints)
    yield _miss_check(
        miss, f"Droz-Farny converse: recovered pair misses the bisector of HM by {miss:.3e}"
    )
    line = Line.from_point_direction(h, Point(1, 0))
    p = drozfarny.theorem_r(tri, line)
    yield Check(
        wallace.wallace_line(tri, p).line.is_parallel(line),
        "theorem R: Wallace line of the concurrence point not parallel",
    )
    a, b, c = tri
    circ = tri.circumcircle
    mids = (b.midpoint(c), c.midpoint(a), a.midpoint(b))
    yield Check(
        drozfarny.miquel_point(tri, *mids) == circ.center,
        "Miquel point of the edge midpoints is not the circumcentre",
    )
    cut = Line.through(Point(F(0), F(-77)), Point(F(20), F(50)))
    cuts = [cut.intersect(e) for e in tri.edges]
    yield Check(
        circ.contains(drozfarny.miquel_point(tri, *cuts)),
        "Miquel point of collinear cuts is off the circumcircle",
    )
    yield Check(
        drozfarny.envelope_special_tangents(tri),
        "edges or bisectors of HA, HB, HC not tangent to the envelope",
    )
    miss = drozfarny.equilateral_df_check()
    yield _miss_check(
        miss, f"equilateral Droz-Farny line misses the incircle by {miss:.3e}"
    )


def _suite_malfatti(rng, count) -> Iterator[Check]:
    state = (F(2, 9), F(1, 4), F(1, 3))
    for lab in ("3b", "2b"):
        p = malfatti.radpoint_of_solution(lab, state)
        eq = malfatti.vertical_guyline_equation("A", p)
        yield Check(eq == (0, 17, 50), f"guyline via {lab}: {eq}")
    yield Check(
        malfatti.point_coords((0, 0, 0), state).same_point(
            malfatti.radpoint_of_solution("0", state)
        ),
        "radical centre of solution 0 is not the fundamental radpoint <000>",
    )
    try:
        lines = malfatti.guylines(state)
        yield Check(len(lines) == 64, "guyline count != 64 (48 vertical + 16 Nails)")
        incidences = [
            (g.line, malfatti.point_coords(m, state)) for g in lines for m in g.members
        ]
        yield Check(
            all(l[0] * p.x + l[1] * p.y + l[2] * p.z == 0 for l, p in incidences),
            "a guyline misses one of its member points",
        )
    except GeometryError as exc:
        yield Check(False, f"guyline incidence: {exc}")
    try:
        yield Check(len(malfatti.pegs(state)) == 16, "peG count != 16")
    except GeometryError as exc:
        yield Check(False, f"peG incidence: {exc}")
    audit = malfatti.group_audit(state)
    yield Check(audit.order == 32, "group order != 32")
    yield Check(audit.relations_hold and audit.abc_equals_cba, "group relations fail")
    yield Check(audit.centre == ("0", "3", "5", "6"), "group centre mismatch")
    yield Check(audit.involutions == 19, "involution count != 19")
    yield Check(
        set(audit.order_four) == {d + s for d in "1247" for s in "abc"},
        "elements of order four are not {1, 2, 4, 7} x {a, b, c}",
    )
    yield Check(
        malfatti.zero_point_collinearities(state) == 24,
        "0-point collinearities != 24",
    )
    rep = malfatti.label_audit(state)
    yield Check(
        rep.lines_checked == 64 and rep.nim_sum_boxes_ok,
        "evil-digit label audit fails",
    )
    points = [
        *malfatti.all_radpoints(state).values(),
        *malfatti.all_oddpoints(state).values(),
        *malfatti.zero_points(state).values(),
    ]
    # no component is 0 away from the poles, so (y/x, z/x) names the point;
    # distinct 0-points also keep the 24 collinearities from being trivial
    yield Check(
        len({(p.y / p.x, p.z / p.x) for p in points}) == 80,
        "32 radpoints, 32 oddpoints and 16 0-points are not distinct",
    )
    face = fixture_quadrangle("t0").face(7)
    circles, touch_points = malfatti.malfatti_circles(*face)
    miss = malfatti.verify_malfatti(circles, *face)
    yield _miss_check(
        miss, f"Malfatti circles of face 7 not mutually and edge tangent: {miss:.3e}"
    )
    miss = malfatti.variant_contact_circle(circles, touch_points, *face)
    yield _miss_check(
        miss, f"variant contact circle of face 7 misses a Malfatti contact: {miss:.3e}"
    )
    for _ in range(count):
        v = F(rng.randint(1, 20), rng.randint(21, 60))
        w = F(rng.randint(1, 20), rng.randint(21, 60))
        try:
            sols = malfatti.solution_states(malfatti.complete_state(v, w))
        except malfatti.PoleEncountered:
            yield SKIP
            continue
        yield Check(
            len(set(sols.values())) == 32,
            f"v={v}, w={w}: the 32 Malfatti solutions are not distinct",
        )
    # triangles of points w⁴: IA, IB and IC are rational, so the circles,
    # their contacts and the quarter angles are exact and each check is ==
    done = 0
    while done < count // 10:
        ts = [_random_tangent(rng) for _ in range(3)]
        tri = [_unit_circle_power(t, 2) for t in ts]
        if len(set(tri)) < 3:
            continue
        done += 1
        at = f"t={', '.join(map(str, ts))}"
        yield from _exact_malfatti_checks(tri, at)


def _exact_malfatti_checks(tri: Sequence[Point], at: str) -> Iterator[Check]:
    circles, touch_points = malfatti.malfatti_circles(*tri)
    miss = malfatti.verify_malfatti(circles, *tri)
    yield Check(
        all(c.center.is_exact() and is_exact(c.r2) for c in circles) and miss == 0,
        f"exact Malfatti circles at {at} inexact or not tangent: {float(miss):.3e}",
        residual=float(miss),
    )
    miss = malfatti.variant_contact_circle(circles, touch_points, *tri)
    yield Check(
        all(p.is_exact() for p in touch_points) and miss == 0,
        f"exact variant contact circle at {at} misses a contact: {float(miss):.3e}",
        residual=float(miss),
    )
    state = malfatti.quarter_angles(*tri)
    ok = all(map(is_exact, state)) and malfatti.validate(*state)
    if ok:
        # ⟨000⟩ = (x, y, z) in barycentrics
        p = malfatti.point_coords((0, 0, 0), state)
        radpoint = Triangle(tri).point(p.x, p.y, p.z)
        axes = [radical_axis(circles[i], circles[i - 1]) for i in (1, 2)]
        ok = radpoint == axes[0].intersect(axes[1])
    yield Check(
        ok,
        f"exact quarter angles at {at} off the closure identity, "
        "or <000> is not the radical centre of the Malfatti circles",
    )


def _rational_morley_draw(rng, family: str):
    """The parameters of a member of a rational Morley family and its
    report, redrawn until valid: t = ±n/d, or such x₁ and x₂ with
    x₃ = 3(x₁ + x₂)/(x₁x₂ − 3)."""
    while True:
        params = _random_tangent(rng)
        if family == "general":
            x1, x2 = params, _random_tangent(rng)
            if x1 * x2 == 3:
                continue
            params = (x1, x2, 3 * (x1 + x2) / (x1 * x2 - 3))
        try:
            return params, morley.rational_morley(family, params)
        except morley.InvalidParameters:
            continue


def _suite_morley(rng, count) -> Iterator[Check]:
    for _ in range(count):
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        if abs(float((pts[1] - pts[0]).cross(pts[2] - pts[0]))) < 1.0:
            yield SKIP
            continue
        try:
            cfg = morley.morley_config(*pts)
        except IdentityViolated as exc:
            yield Check(False, f"morley incidence: {exc}", exact=False)
            continue
        except GeometryError:
            yield SKIP
            continue
        resid = max(
            morley.equilateral_residual(t) for t in cfg.morley_triangles.values()
        )
        classes = morley.edge_direction_classes(cfg.morley_triangles)
        ok = (
            resid < DEFAULT_EPS
            and len(cfg.morley_triangles) == 18
            and classes == 1
            and len(cfg.gf_circles) == 9
            and len(cfg.associated_points) == 9
        )
        yield Check(ok, f"morley residual {resid}", exact=False, residual=resid)
    rep = morley.rational_morley("pythagorean", F(1, 4))
    yield Check(
        rep.integer_edges == (4888, 495, 4913) and rep.is_pythagorean,
        "pythagorean t=1/4 triple mismatch",
    )
    general = morley.rational_morley("general", (F(7), F(2), F(27, 11)))
    yield Check(
        len(rep.rational_variants) == 2 and len(general.rational_variants) == 18,
        "rational Morley triangles: not 2 of 18 at t=1/4 and all 18 at (7, 2, 27/11)",
    )
    for family, want in (("pythagorean", 2), ("general", 18)):
        for _ in range(count // 50):
            params, member = _rational_morley_draw(rng, family)
            got = len(member.rational_variants)
            yield Check(got == want, f"{family} {params}: {got} rational Morley edges, not {want}")
    jig = morley.jigsaw_check()
    yield Check(
        jig.area_matches and jig.vertex_sums and jig.trisection,
        "1001-jigsaw assembly fails",
    )
    q = fixture_quadrangle("t0")
    io = morley.inside_out(q.face(7))
    yield Check(
        io.circumcentre == q.twins[7] and io.orthocentre == q.vertices[7],
        "inside-out treblers do not concur at the circumcentre and orthocentre",
    )
    miss = morley.orthocentric_morley_parallel(
        Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)
    )
    yield _miss_check(
        miss, f"Morley triangles of the orthocentric quadrangle not parallel: {miss:.3e}"
    )


def _suite_lighthouse(rng, count) -> Iterator[Check]:
    b, c = Point(-1.0, 0.0), Point(1.0, 0.0)
    for n in range(2, 7):
        for _ in range(count):
            beta = rng.uniform(0.05, math.pi - 0.05)
            gamma = rng.uniform(0.05, math.pi - 0.05)
            try:
                cfg = morley.lighthouse(b, c, beta, gamma, n)
            except morley.InvalidParameters:
                yield SKIP
                continue
            if cfg.parallel_flag:
                yield SKIP
                continue
            yield Check(morley.lighthouse_verify(cfg), f"lighthouse n={n}", exact=False)
    dup = morley.duplication(b, c, 0.4, 0.7, 3)
    yield _miss_check(dup, "duplication beams off")
    tri = (Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
    quad = morley.bisector_quadrangle(*tri)
    alt = morley.altitude_quadrangle(*tri)
    for name, pts in (
        ("bisector", list(quad.values())),
        ("altitude", [alt["orthocentre"], *alt["others"]]),
    ):
        miss = morley.is_orthocentric(pts)
        yield _miss_check(
            miss, f"n=2 {name} grid not orthocentric: {miss:.3e}"
        )


def _thrice_sixteen_holds(rep: morley.ThriceSixteenReport) -> bool:
    return (
        len(rep.centers) == 16
        and rep.midpoint_pairs == 12
        and rep.latin_square
        and rep.circumcentres_reflect
        and rep.circumcircles_congruent
    )


def _suite_thrice_sixteen(rng, count) -> Iterator[Check]:
    for _ in range(count):
        while True:
            ths = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
            if min(
                (ths[(i + 1) % 4] - ths[i]) % (2 * math.pi) for i in range(4)
            ) > 0.25:
                break
        r = rng.uniform(3, 20)
        quad = [Point(r * math.cos(t), r * math.sin(t)) for t in ths]
        rep = morley.thrice_sixteen(quad)
        yield Check(_thrice_sixteen_holds(rep), "thrice-sixteen failure",
                    exact=False, residual=rep.worst)
    # exact quadrangles: their 16 centres are rational, every check an identity
    done = 0
    while done < count // 10:
        ts = [_random_tangent(rng) for _ in range(4)]
        quad = [_unit_circle_power(t, 1) for t in ts]
        if len(set(quad)) < 4:
            continue
        rep = morley.thrice_sixteen(quad)
        yield Check(
            _thrice_sixteen_holds(rep)
            and all(p.is_exact() for p in rep.centers.values()),
            f"exact thrice-sixteen failure at t={', '.join(map(str, ts))}",
        )
        done += 1


def _suite_hexaflex(rng, count) -> Iterator[Check]:
    face = fixture_quadrangle("t0").face(7)
    hx = touch.hexaflex(face)
    for ext, p in sorted(hx.perspectors.items()):
        yield Check(
            p.x * p.x + p.y * p.y == 7225,
            f"perspector {ext} off x²+y²=7225",
        )
    yield Check(
        touch.extraverted_gergonne_concurrence(face),
        "extraverted Gergonne cevians miss the Nagel point",
    )
    for name, ok in touch.gergonne_nagel(face).incidence_checks().items():
        yield Check(ok, f"Gergonne/Nagel incidence {name} fails")


def _suite_rendering(rng, count) -> Iterator[Check]:
    for recipe in sorted(RECIPES):
        scene1 = build_scene("t0", recipe)
        scene2 = build_scene("t0", recipe)
        yield Check(
            render_svg(scene1) == render_svg(scene2),
            f"nondeterministic render for {recipe}",
        )


#: suite name -> runner; a runner yields one Check per case
SUITES: Dict[str, Callable[[random.Random, int], Iterator[Check]]] = {
    "feuerbach32": _suite_feuerbach32,
    "euler-harmonic": _suite_euler,
    "trisequence-table": _suite_trisequence,
    "apocrypha-table": _suite_apocrypha,
    "three-cycles": _suite_three_cycles,
    "soddy": _suite_soddy,
    "wallace-sweep": _suite_wallace_sweep,
    "deltoid": _suite_deltoid,
    "droz-farny": _suite_droz_farny,
    "malfatti": _suite_malfatti,
    "morley": _suite_morley,
    "lighthouse": _suite_lighthouse,
    "thrice-sixteen": _suite_thrice_sixteen,
    "hexaflex": _suite_hexaflex,
    "rendering": _suite_rendering,
}


def run_suite(name: str, seed: int = 0, count: int = 100) -> SuiteResult:
    """Tally the checks of one suite. A ``GeometryError`` that escapes the
    suite, such as a theorem module's ``IdentityViolated``, is one failed
    case named after the exception and ends the suite."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}")
    res = SuiteResult(name)
    try:
        for check in SUITES[name](random.Random(seed), count):
            res.add(check)
    except GeometryError as exc:
        res.add(Check(False, f"{type(exc).__name__}: {exc}"))
    return res
