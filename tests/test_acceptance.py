"""Acceptance gate: fourteen criteria, one pass/fail line each.

Exact checks tolerate nothing; approximate checks use eps = 1e-9 after
normalizing the circumradius to 1.
"""

import math
import random
from fractions import Fraction as F

import pytest

from quadgeo import cli_figures, drozfarny, malfatti, morley, touch, wallace
from quadgeo.cli_figures import build_scene, render_svg
from quadgeo.kernel import (
    Line,
    Point,
    Tangency,
    collinear,
    foot_of_perpendicular,
)
from quadgeo.quadrangle import LABELS, euler_range, quadrate

EPS = 1e-9

V1 = Point(F(36), F(103))
V2 = Point(F(-204), F(-77))
V4 = Point(F(132), F(-77))


@pytest.fixture(scope="module")
def q():
    return quadrate(V1, V2, V4)


def report(name: str, ok: bool) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_ac1_feuerbach_32(q):
    rep = touch.feuerbach_verify(q)
    incircle = touch.touch_circles(q.face(7))[0].circle
    tangent = (Tangency.INTERNAL_TANGENT, Tangency.EXTERNAL_TANGENT)
    ok = (
        rep.total == 32
        and all(kind in tangent for (_, _, kind, _) in rep.entries)
        and all(exact for (_, _, _, exact) in rep.entries)
        and incircle.center.dist2(q.central_circle.center) == (85 - 72) ** 2
    )
    report("AC1 Feuerbach-32", ok)


def test_ac2_euler_harmonic(q):
    ranges = [euler_range(q, lab) for lab in LABELS]
    ok = all(er.harmonic() for er in ranges)
    ok = ok and euler_range(q, 7).de_longchamps == Point(F(-108), F(-153))
    report("AC2 Euler harmonic", ok)


def test_ac3_trisequence_tables(q):
    seq = wallace.trisequence(q, "7B", Point(F(-62), F(117)), 11)
    slopes = {r.line_name: r.slope for r in seq.rows}
    ok = slopes == cli_figures.TRISEQUENCE_SLOPES
    ok = ok and wallace.midpoint_rs(q, seq.nodes["7B"])[1] == (6, 7)
    apo = wallace.trisequence(q, "7B", Point(F(-190), F(21)), 17)
    ok = ok and {
        r.line_name: r.slope for r in apo.rows
    } == cli_figures.APOCRYPHA_SLOPES
    report("AC3 Trisequence tables", ok)


def test_ac4_three_cycles(q):
    tc = wallace.three_cycles(q)
    from quadgeo.kernel import reflect_point_in_line

    triple = {
        reflect_point_in_line(tc.antipodes[(1, 7)], q.edge(a, b))
        for a, b in ((2, 4), (4, 1), (1, 2))
    }
    ok = (
        len(tc.cycles) == 4
        and tc.antipodes[(1, 7)] == Point(F(-108), F(-205))
        and triple
        == {Point(F(-108), F(51)), Point(F(372), F(51)), Point(F(-300), F(51))}
        and all(p.y == 51 for p in triple)
        and all(
            tc.trebled[l] - q.center == (q.vertices[l] - q.center).scale(-3)
            for l in LABELS
        )
        and tc.trebled_circle.r2 == 255 ** 2
    )
    report("AC4 Three-cycles", ok)


def test_ac5_soddy_classification():
    ok = all(
        touch.classify_soddy(*map(F, sides)) == want
        for sides, want in cli_figures.SODDY_CASES
    )
    a, b, c = F(26), F(25), F(3)
    ok = ok and (b * b + c * c - a * a) / (2 * b * c) == F(-7, 25)
    rng = random.Random(0)
    done = 0
    while done < 100:
        u = F(rng.randint(2, 50), rng.randint(1, 10))
        v = F(rng.randint(2, 50), rng.randint(1, 10))
        try:
            sides = touch.bremner_critical(u, v)
        except touch.DegenerateParameters:
            continue
        ok = ok and touch.classify_soddy(*sides) == "Critical"
        done += 1
    report("AC5 Soddy classification", ok)


def test_ac6_wallace_sweep(q):
    tri = q.face(7)
    circ = tri.circumcircle
    h = q.vertices[7]
    ok = True
    for i in range(200):
        s = wallace.rational_circle_point(circ, Point(F(-62), F(117)), F(2 * i + 1, 401))
        wd = wallace.wallace_line(tri, s)
        ok = ok and all(wd.line.contains(f) for f in wd.feet)
        ok = ok and wd.steiner_line.contains(h)
        ok = ok and q.central_circle.contains(wd.midpoint_T)
    report("AC6 Wallace sweep (200 exact)", ok)


def test_ac7_deltoid():
    rng = random.Random(1)
    ok = all(
        wallace.deltoid_tangency_check(F(rng.randint(1, 500), rng.randint(1, 500)))
        for _ in range(100)
    )
    report("AC7 Deltoid double contact (100 exact)", ok)


def test_ac8_droz_farny(q):
    tri = q.face(7)
    h = q.vertices[7]
    env = drozfarny.df_envelope(tri)
    ok = env.axis2 == 170 ** 2 and {env.conic.focus1, env.conic.focus2} == {
        Point(F(36), F(51)),
        Point(F(-36), F(-51)),
    }
    done = 0
    i = 0
    while done < 100:
        i += 1
        t = F(i, 401)
        d = Point(1 - t * t, 2 * t)
        pair = (
            Line.from_point_direction(h, d),
            Line.from_point_direction(h, Point(-d.y, d.x)),
        )
        try:
            inst = drozfarny.df_line(tri, pair)
        except drozfarny.EdgeParallel:
            continue
        ok = ok and collinear(*inst.midpoints)
        ok = ok and inst.triangle.circumcircle.contains(inst.m)
        ok = ok and q.central_circle.contains(foot_of_perpendicular(h, inst.df))
        ok = ok and drozfarny.envelope_tangency(env, inst)
        audit = drozfarny.parabola_tangency_audit(inst)
        ok = ok and all(
            audit[k] for k in ("edge_a", "edge_b", "edge_c", "pair_1", "pair_2", "df")
        )
        done += 1
    report("AC8 Droz-Farny (100 exact)", ok)


def test_ac9_malfatti_algebra():
    state = (F(2, 9), F(1, 4), F(1, 3))
    ok = True
    for lab in ("3b", "2b"):
        p = malfatti.radpoint_of_solution(lab, state)
        ok = ok and malfatti.vertical_guyline_equation("A", p) == (0, 17, 50)
    gl = malfatti.guylines(state)       # exact incidences asserted inside
    pg = malfatti.pegs(state)
    ok = ok and sum(1 for g in gl if g.kind == "vertical") == 48
    ok = ok and sum(1 for g in gl if g.kind == "nail") == 16
    ok = ok and len(pg) == 16
    audit = malfatti.group_audit(state)
    ok = (
        ok
        and audit.order == 32
        and audit.relations_hold
        and audit.abc_equals_cba
        and audit.centre == ("0", "3", "5", "6")
        and audit.involutions == 19
    )
    report("AC9 Malfatti algebra at (2/9,1/4,1/3)", ok)


def test_ac10_morley():
    rng = random.Random(2)
    ok = True
    done = 0
    worst = 0.0
    while done < 1000:
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        if abs(float((pts[1] - pts[0]).cross(pts[2] - pts[0]))) < 1.0:
            continue
        try:
            cfg = morley.morley_config(*pts)
        except Exception:
            continue
        # normalize residuals by the circumradius (R = 1 scale)
        resid = max(
            morley.equilateral_residual(t)
            for t in cfg.morley_triangles.values()
        )
        worst = max(worst, resid)
        ok = ok and resid < EPS
        ok = ok and len(cfg.morley_triangles) == 18
        ok = ok and morley.edge_direction_classes(cfg.morley_triangles) == 1
        ok = ok and len(cfg.gf_circles) == 9
        ok = ok and len(cfg.associated_points) == 9
        done += 1
    rep = morley.rational_morley("pythagorean", F(1, 4))
    ok = ok and rep.integer_edges == (4888, 495, 4913)
    ok = ok and 4888 ** 2 + 495 ** 2 == 4913 ** 2
    jig = morley.jigsaw_check()
    ok = ok and jig.area_matches and jig.vertex_sums and jig.trisection
    report(f"AC10 Morley (1000 random, worst residual {worst:.2e})", ok)


def test_ac11_lighthouse():
    rng = random.Random(3)
    b, c = Point(-1.0, 0.0), Point(1.0, 0.0)
    ok = True
    for n in range(2, 7):
        done = 0
        while done < 50:
            beta = rng.uniform(0.05, math.pi - 0.05)
            gamma = rng.uniform(0.05, math.pi - 0.05)
            try:
                cfg = morley.lighthouse(b, c, beta, gamma, n)
            except Exception:
                continue
            if cfg.parallel_flag:
                continue
            ok = ok and morley.lighthouse_verify(cfg)
            done += 1
        if n >= 3:
            dup = morley.duplication(b, c, 0.3 + 0.05 * n, 0.6, n)
            ok = ok and dup < EPS
    quad = morley.bisector_quadrangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
    ok = ok and morley.is_orthocentric(list(quad.values())) <= EPS
    tri = (Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
    alt = morley.altitude_quadrangle(*tri)
    ok = ok and morley.is_orthocentric([alt["orthocentre"], *alt["others"]]) <= EPS
    report("AC11 Lighthouse n=2..6", ok)


def test_ac12_thrice_sixteen():
    rng = random.Random(4)
    ok = True
    for _ in range(100):
        while True:
            ths = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
            if min(
                (ths[(i + 1) % 4] - ths[i]) % (2 * math.pi) for i in range(4)
            ) > 0.25:
                break
        r = rng.uniform(3, 20)
        quad = [Point(r * math.cos(t), r * math.sin(t)) for t in ths]
        rep = morley.thrice_sixteen(quad)
        ok = (
            ok
            and len(rep.centers) == 16
            and rep.midpoint_pairs == 12
            and rep.latin_square
            and rep.circumcentres_reflect
            and rep.circumcircles_congruent
        )
    report("AC12 Thrice Sixteen (100 random)", ok)


def test_ac13_hexaflex(q):
    hx = touch.hexaflex(q.face(7))
    ok = all(p.x * p.x + p.y * p.y == 7225 for p in hx.perspectors.values())
    ok = ok and len(hx.perspectors) == 4
    report("AC13 Hexaflex Feuerbach", ok)


def test_ac14_rendering():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    ok = True
    for recipe in (
        "twins",
        "touch32",
        "gergonne16",
        "trisequence",
        "star-of-david",
        "droz-farny-envelope",
    ):
        want = (golden / f"{recipe}.svg").read_bytes()
        ok = ok and render_svg(build_scene("t0", recipe)) == want
        ok = ok and render_svg(build_scene("t0", recipe)) == want
    report("AC14 Rendering golden files", ok)
