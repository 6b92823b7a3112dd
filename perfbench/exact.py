"""The exact workloads: similarity images of the fixture t0 and random
Malfatti states, taken through quadgeo's exact constructions.

One operation maps t0 by a random rational similarity (Pythagorean
rotation, rational scale, rational translation) and runs ``quadrate``,
``feuerbach_verify``, the four ``euler_range``s, ``WALLACE_COUNT`` Wallace
lines at rational circumcircle points and as many Droz-Farny lines with
their envelope and parabola audits; it then takes one random Malfatti state
through ``guylines``, ``pegs``, ``group_audit`` and
``zero_point_collinearities``.

The checks map the values pinned for t0 (orthocentre (36, 51), Central
Circle at the origin with radius 85, circumradius 170, de Longchamps point
(-108, -153)) through the benchmark's own copy of the similarity, and
recompute every other expected value with plain tuples of Fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Dict, Iterator, List, Sequence, Tuple

from quadgeo import drozfarny, kernel, malfatti, quadrangle, touch, wallace

from common import Workload, ensure

Vec = Tuple[F, F]

#: Wallace lines and Droz-Farny lines per operation
WALLACE_COUNT = 4

T0 = ((36, 103), (-204, -77), (132, -77))
T0_ORTHOCENTRE = (36, 51)
T0_CIRCUMCENTRE = (-36, -51)
T0_DE_LONGCHAMPS = (-108, -153)
T0_CENTRAL_RADIUS = 85
T0_CIRCUMRADIUS = 170


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic
# ---------------------------------------------------------------------------


def sub(p: Vec, q: Vec) -> Vec:
    return (p[0] - q[0], p[1] - q[1])


def add(p: Vec, q: Vec) -> Vec:
    return (p[0] + q[0], p[1] + q[1])


def mul(k, p: Vec) -> Vec:
    return (k * p[0], k * p[1])


def dot(p: Vec, q: Vec):
    return p[0] * q[0] + p[1] * q[1]


def cross(p: Vec, q: Vec):
    return p[0] * q[1] - p[1] * q[0]


def dist2(p: Vec, q: Vec):
    return dot(sub(p, q), sub(p, q))


def mid(p: Vec, q: Vec) -> Vec:
    return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


def meet(p: Vec, d: Vec, q1: Vec, q2: Vec) -> Vec:
    """Point where the line through p with direction d meets line q1-q2."""
    e = sub(q2, q1)
    return add(p, mul(F(cross(sub(q1, p), e)) / cross(d, e), d))


def reflect(p: Vec, q1: Vec, q2: Vec) -> Vec:
    """Mirror image of p in the line q1-q2."""
    e = sub(q2, q1)
    foot = add(q1, mul(F(dot(sub(p, q1), e)) / dot(e, e), e))
    return sub(mul(2, foot), p)


def circumcentre(p: Vec, q: Vec, r: Vec) -> Vec:
    b, c = sub(q, p), sub(r, p)
    d = 2 * cross(b, c)
    bb, cc = dot(b, b), dot(c, c)
    return add(p, (F(c[1] * bb - b[1] * cc) / d, F(b[0] * cc - c[0] * bb) / d))


def same(pt: kernel.Point, v: Vec) -> bool:
    return pt.x == v[0] and pt.y == v[1]


def on_line(line: kernel.Line, v: Vec) -> bool:
    return line.a * v[0] + line.b * v[1] == line.c


def edges(tri: Sequence[Vec]) -> List[Tuple[Vec, Vec]]:
    p, q, r = tri
    return [(q, r), (r, p), (p, q)]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Similarity:
    k: F        # scale
    c: F        # cosine and sine of a Pythagorean rotation
    s: F
    t: Vec      # translation

    def __call__(self, p) -> Vec:
        x, y = p
        return (
            self.k * (self.c * x - self.s * y) + self.t[0],
            self.k * (self.s * x + self.c * y) + self.t[1],
        )


@dataclass(frozen=True)
class ExactInput:
    sim: Similarity
    tri: Tuple[Vec, Vec, Vec]        # images of t0's vertices
    orthocentre: Vec                 # and of its orthocentre, circumcentre
    circumcentre: Vec
    circle_slopes: Tuple[F, ...]     # rational_circle_point parameters
    pair_slopes: Tuple[F, ...]       # Droz-Farny pair directions (1-t², 2t)
    vw: Tuple[F, F]                  # Malfatti quarter-angle tangents v, w


def _ratio(rng: random.Random, bits: int, signed: bool = True) -> F:
    num = rng.randint(1, 1 << bits)
    if signed and rng.random() < 0.5:
        num = -num
    return F(num, rng.randint(1, 1 << bits))


def _similarity(rng: random.Random, bits: int) -> Similarity:
    while True:
        m, n = rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)
        if m != n:
            break
    h = m * m + n * n
    s = F(2 * m * n, h) * rng.choice((1, -1))
    return Similarity(
        _ratio(rng, bits, signed=False),
        F(m * m - n * n, h),
        s,
        (_ratio(rng, bits), _ratio(rng, bits)),
    )


def circle_point(centre: Vec, base: Vec, t: F) -> Vec:
    """Second intersection of the line of slope t through base with the
    circle about centre through base."""
    d = (F(1), t)
    u = -2 * dot(sub(base, centre), d) / dot(d, d)
    return add(base, mul(u, d))


def pair_directions(t: F) -> Tuple[Vec, Vec]:
    d = (1 - t * t, 2 * t)
    return d, (-d[1], d[0])


def droz_farny(tri: Sequence[Vec], h: Vec, t: F):
    """Edge cuts and chord midpoints of the perpendicular pair through h
    with direction parameter t."""
    cuts = {}
    for name, (q1, q2) in zip("XYZ", edges(tri)):
        for idx, d in enumerate(pair_directions(t), 1):
            cuts[f"{name}{idx}"] = meet(h, d, q1, q2)
    return cuts, tuple(mid(cuts[f"{n}1"], cuts[f"{n}2"]) for n in "XYZ")


def _usable_pair(tri: Sequence[Vec], h: Vec, t: F) -> bool:
    """False for pairs quadgeo rightly rejects: a pair line parallel to an
    edge (EdgeParallel), coincident chord midpoints (no line through
    them), or the reflection M of h in the Droz-Farny line at a vertex
    (parabola focus on its directrix)."""
    for d in pair_directions(t):
        if any(cross(d, sub(q2, q1)) == 0 for q1, q2 in edges(tri)):
            return False
    _, mids = droz_farny(tri, h, t)
    return mids[0] != mids[1] and reflect(h, mids[0], mids[1]) not in tri


def malfatti_u(v: F, w: F) -> F:
    """u from the closure identity 1 + uvw = u + v + w + vw + wu + uv."""
    return (v + w + v * w - 1) / (v * w - v - w - 1)


def _unit_ratio(rng: random.Random, bits: int) -> F:
    while True:
        a, b = rng.randint(1, 1 << bits), rng.randint(1, 1 << bits)
        if a < b:
            return F(a, b)


def _malfatti_vw(rng: random.Random, bits: int) -> Tuple[F, F]:
    """Quarter-angle tangents v, w of a scalene triangle: u, v, w all in
    (0, 1) and pairwise distinct."""
    while True:
        v, w = _unit_ratio(rng, bits), _unit_ratio(rng, bits)
        if v + w + v * w < 1 and len({malfatti_u(v, w), v, w}) == 3:
            return v, w


def exact_input(rng: random.Random, bits: int) -> ExactInput:
    sim = _similarity(rng, bits)
    tri = tuple(sim(p) for p in T0)
    o, h = sim(T0_CIRCUMCENTRE), sim(T0_ORTHOCENTRE)
    slopes: List[F] = []
    while len(slopes) < WALLACE_COUNT:
        t = _ratio(rng, bits)
        if circle_point(o, tri[0], t) not in tri and t not in slopes:
            slopes.append(t)
    pairs: List[F] = []
    while len(pairs) < WALLACE_COUNT:
        t = _ratio(rng, bits)
        if t not in pairs and _usable_pair(tri, h, t):
            pairs.append(t)
    return ExactInput(sim, tri, h, o, tuple(slopes), tuple(pairs), _malfatti_vw(rng, bits))


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactResult:
    quad: quadrangle.LabeledQuadrangle
    feuerbach: touch.FeuerbachReport
    euler: Tuple[quadrangle.EulerRange, ...]
    wallace: Tuple[wallace.WallaceData, ...]
    envelope: drozfarny.EnvelopeConic
    droz_farny: Tuple[drozfarny.DFInstance, ...]
    envelope_tangent: Tuple[bool, ...]
    parabola_audit: Tuple[Dict[str, bool], ...]
    state: Tuple[F, F, F]
    guylines: list
    pegs: list
    group: malfatti.GroupAuditReport
    zero_collinearities: int


def run_exact(inp: ExactInput) -> ExactResult:
    tri = [kernel.Point(*v) for v in inp.tri]
    q = quadrangle.quadrate(*tri)
    feu = touch.feuerbach_verify(q)
    euler = tuple(quadrangle.euler_range(q, lab) for lab in quadrangle.LABELS)
    circ = kernel.Circle(kernel.Point(*inp.circumcentre), dist2(inp.circumcentre, inp.tri[0]))
    walls = tuple(
        wallace.wallace_line(tri, wallace.rational_circle_point(circ, tri[0], t))
        for t in inp.circle_slopes
    )
    env = drozfarny.df_envelope(tri)
    h = kernel.Point(*inp.orthocentre)
    insts, tangent, audits = [], [], []
    for t in inp.pair_slopes:
        pair = tuple(
            kernel.Line.from_point_direction(h, kernel.Point(*d)) for d in pair_directions(t)
        )
        inst = drozfarny.df_line(tri, pair)
        insts.append(inst)
        tangent.append(drozfarny.envelope_tangency(env, inst))
        audits.append(drozfarny.parabola_tangency_audit(inst))
    state = malfatti.complete_state(*inp.vw)
    return ExactResult(
        q, feu, euler, walls, env, tuple(insts), tuple(tangent), tuple(audits),
        state,
        malfatti.guylines(state),
        malfatti.pegs(state),
        malfatti.group_audit(state),
        malfatti.zero_point_collinearities(state),
    )


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def check_exact(inp: ExactInput, res: ExactResult) -> None:
    sim = inp.sim
    h, n, o = sim(T0_ORTHOCENTRE), sim((0, 0)), sim(T0_CIRCUMCENTRE)
    r2 = sim.k ** 2 * T0_CENTRAL_RADIUS ** 2
    big_r2 = sim.k ** 2 * T0_CIRCUMRADIUS ** 2
    _check_quadrangle(inp, res, h, n, r2)
    _check_euler(res)
    ensure(same(res.euler[3].de_longchamps, sim(T0_DE_LONGCHAMPS)),
           "de Longchamps point is not the image of (-108, -153)")
    _check_wallace(inp, res, h, n, o, r2, big_r2)
    _check_droz_farny(inp, res, h, o, big_r2)
    _check_malfatti(inp, res)


def _check_quadrangle(inp, res, h, n, r2) -> None:
    q = res.quad
    ensure(same(q.vertices[7], h), "label 7 is not the image of the orthocentre (36, 51)")
    ensure({(p.x, p.y) for p in q.vertices.values()} == set(inp.tri) | {h},
           "quadrangle vertices are not the triangle and its orthocentre")
    ensure(same(q.center, n) and same(q.central_circle.center, n),
           "Centre is not the image of the origin")
    ensure(q.central_circle.r2 == r2, "Central Circle radius is not 85·k")
    for lab, v in q.vertices.items():
        ensure(same(q.twins[lab], sub(mul(2, n), (v.x, v.y))), f"twin {lab} is wrong")

    entries = res.feuerbach.entries
    ensure(len(entries) == 32, f"{len(entries)} touch circles, not 32")
    ensure(len({(e[1].center, e[1].r2) for e in entries}) == 32,
           "touch circles are not distinct")
    faces = {}
    for lab, v in q.vertices.items():
        others = [(p.x, p.y) for l, p in q.vertices.items() if l != lab]
        faces[f"{lab}"] = others
        faces[f"{lab}~"] = [sub(mul(2, n), p) for p in others]
    for (label, ext), circle, kind, exact in entries:
        c, rc = (circle.center.x, circle.center.y), circle.r2
        ensure(exact and kernel.is_exact(rc), f"touch circle {label}{ext} is not exact")
        for q1, q2 in edges(faces[label]):
            e = sub(q2, q1)
            ensure(cross(e, sub(c, q1)) ** 2 == rc * dot(e, e),
                   f"circle {label}{ext} does not touch an edge of its face")
        d2 = dist2(c, n)
        ensure((d2 - rc - r2) ** 2 == 4 * rc * r2,
               f"circle {label}{ext} is not tangent to the Central Circle")
        want = (kernel.Tangency.INTERNAL_TANGENT if d2 < rc + r2
                else kernel.Tangency.EXTERNAL_TANGENT)
        ensure(kind is want, f"circle {label}{ext} classified {kind.value}")


def _cross_ratio(p1: Vec, p2: Vec, p3: Vec, p4: Vec) -> F:
    d = sub(p2, p1)
    i = 0 if d[0] != 0 else 1
    t = [F(p[i] - p1[i]) / d[i] for p in (p1, p2, p3, p4)]
    return (t[0] - t[2]) * (t[1] - t[3]) / ((t[0] - t[3]) * (t[1] - t[2]))


def _check_euler(res: ExactResult) -> None:
    q = res.quad
    for lab, er in zip(quadrangle.LABELS, res.euler):
        hv = (q.vertices[lab].x, q.vertices[lab].y)
        face = [(p.x, p.y) for l, p in q.vertices.items() if l != lab]
        oc = circumcentre(*face)
        g = (sum(p[0] for p in face) / 3, sum(p[1] for p in face) / 3)
        dl = sub(mul(2, oc), hv)
        got = (er.orthocentre, er.circumcentre, er.centroid, er.de_longchamps)
        ensure(all(same(p, v) for p, v in zip(got, (hv, oc, g, dl))),
               f"Euler range of face {lab} has a wrong point")
        ensure(all(on_line(er.line, v) for v in (hv, oc, g, dl)),
               f"Euler line of face {lab} misses a point")
        ensure(_cross_ratio(hv, oc, g, dl) == -1, f"Euler range of face {lab} is not harmonic")


def _check_wallace(inp, res, h, n, o, r2, big_r2) -> None:
    for t, wd in zip(inp.circle_slopes, res.wallace):
        s = circle_point(o, inp.tri[0], t)
        ensure(same(wd.source, s) and dist2(s, o) == big_r2,
               "rational circle point is off the circumcircle")
        ensure(same(wd.orthocentre, h), "Wallace data has a wrong orthocentre")
        for f, (q1, q2) in zip(wd.feet, edges(inp.tri)):
            fv, e = (f.x, f.y), sub(q2, q1)
            ensure(cross(sub(fv, q1), e) == 0 and dot(sub(fv, s), e) == 0,
                   "Wallace foot is not the foot of the perpendicular")
            ensure(on_line(wd.line, fv), "Wallace feet are not collinear")
        f0 = (wd.feet[0].x, wd.feet[0].y)
        ensure(on_line(wd.steiner_line, h) and on_line(wd.steiner_line, sub(mul(2, f0), s)),
               "Steiner line is not the double of the Wallace line through H")
        ensure(same(wd.midpoint_T, mid(s, h)) and dist2(mid(s, h), n) == r2,
               "source-orthocentre midpoint is off the Central Circle")


def _check_droz_farny(inp, res, h, o, big_r2) -> None:
    env = res.envelope
    ensure(env.kind == "ellipse" and env.conic is not None, "envelope is not an ellipse")
    ensure(same(env.conic.focus1, h) and same(env.conic.focus2, o),
           "envelope foci are not the images of (36, 51) and (-36, -51)")
    ensure(env.axis2 == big_r2 and same(env.center, mid(h, o)),
           "envelope axis is not the circumradius")
    for t, inst, tangent, audit in zip(
        inp.pair_slopes, res.droz_farny, res.envelope_tangent, res.parabola_audit
    ):
        cuts, mids = droz_farny(inp.tri, h, t)
        m = reflect(h, mids[0], mids[1])
        ensure(same(inst.orthocentre, h), "Droz-Farny orthocentre is wrong")
        ensure(all(same(inst.cuts[k], v) for k, v in cuts.items()),
               "Droz-Farny cut is wrong")
        ensure(all(same(p, v) for p, v in zip(inst.midpoints, mids)),
               "Droz-Farny chord midpoint is wrong")
        ensure(cross(sub(mids[1], mids[0]), sub(mids[2], mids[0])) == 0,
               "Droz-Farny midpoints are not collinear")
        ensure(all(on_line(inst.df, v) for v in mids), "Droz-Farny line misses a midpoint")
        ensure(same(inst.m, m) and dist2(m, o) == big_r2,
               "reflection of H in the Droz-Farny line is off the circumcircle")
        ensure(tangent is True, "Droz-Farny line is not tangent to the envelope")
        ensure(len(audit) == 9 and all(v is True for v in audit.values()),
               f"parabola audit fails: {audit}")


def _check_malfatti(inp, res) -> None:
    u, v, w = res.state
    ensure((v, w) == inp.vw and u == malfatti_u(v, w), "completed state is wrong")
    ensure(1 + u * v * w == u + v + w + v * w + w * u + u * v,
           "closure identity fails")
    kinds = [g.kind for g in res.guylines]
    ensure(len(kinds) == 64 and kinds.count("vertical") == 48 and kinds.count("nail") == 16,
           "guylines are not 48 vertical + 16 Nails")
    for g in res.guylines:
        if g.kind == "vertical":
            ensure(g.line["ABC".index(g.through)] == 0,
                   f"vertical guyline {g.label} misses vertex {g.through}")
    ensure(len(res.pegs) == 16 and all(g.kind == "peg" for g in res.pegs),
           "peG count is not 16")
    grp = res.group
    ensure(grp.order == 32 and grp.involutions == 19, "group order or involutions wrong")
    ensure(grp.relations_hold and grp.abc_equals_cba, "group relations fail")
    ensure(grp.centre == ("0", "3", "5", "6"), "group centre is not the evil solutions")
    ensure(res.zero_collinearities == 24, "0-point collinearities are not 24")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _rounds(bits: int):
    def rounds(rng: random.Random) -> Iterator[List[ExactInput]]:
        while True:
            yield [exact_input(rng, bits)]
    return rounds


EXACT_SMALL = Workload("exact-small", _rounds(4), run_exact, lambda: check_exact,
                       trace_rounds=40)
EXACT_LARGE = Workload("exact-large", _rounds(64), run_exact, lambda: check_exact,
                       trace_rounds=20)
