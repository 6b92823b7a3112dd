"""Droz-Farny line, converse, envelope conic, inscribed parabola, locus
theorems, and the Miquel / reflected-line background results."""

import math
import random
from fractions import Fraction as F

import pytest

from quadgeo import drozfarny, wallace
from quadgeo.drozfarny import (
    DegenerateChoice,
    EdgeParallel,
    LineNotThroughOrthocentre,
    NotPerpendicular,
    NotThroughVertex,
    PointNotOnCircumcircle,
    df_converse,
    df_envelope,
    df_line,
    df_parabola,
    envelope_special_tangents,
    envelope_tangency,
    equilateral_df_check,
    miquel_point,
    parabola_tangency_audit,
    theorem_r,
    verify_instance,
)
from quadgeo.kernel import (
    DEFAULT_EPS,
    Conic,
    IdentityViolated,
    Line,
    Point,
    PointNotOnEdgeLine,
    circumcircle,
    collinear,
    foot_of_perpendicular,
    reflect_point_in_line,
)
from quadgeo.quadrangle import as_triangle, orthocentre, quadrate
from quadgeo.wallace import rational_circle_point, wallace_line

TRI = (Point(F(-204), F(-77)), Point(F(132), F(-77)), Point(F(36), F(103)))
H = Point(F(36), F(51))

# edge directions of TRI are (1,0), (4,3), (8,-15): rational direction
# parameters t avoid slopes 0, ±3/4, ±4/3, ±15/8, ±8/15 and infinities
SAFE_T = [
    F(n, d)
    for n, d in [(1, 5), (2, 7), (3, 11), (5, 1), (9, 2), (4, 9), (7, 3),
                 (5, 8), (11, 6), (13, 4)]
]


def rational_pair(t):
    d = Point(1 - t * t, 2 * t)
    return (
        Line.from_point_direction(H, d),
        Line.from_point_direction(H, Point(-d.y, d.x)),
    )


class TestDFLine:
    def test_canonical_pair(self):
        inst = df_line(TRI, rational_pair(F(1, 5)))
        assert collinear(*inst.midpoints)
        assert verify_instance(inst)
        assert inst.triangle.circumcircle.contains(inst.m)
        assert inst.triangle.circumcircle.center == Point(F(-36), F(-51))
        assert inst.triangle.circumcircle.r2 == 28900

    def test_not_perpendicular(self):
        pair = (
            Line.from_point_direction(H, Point(F(3), F(4))),
            Line.from_point_direction(H, Point(F(3), F(5))),
        )
        with pytest.raises(NotPerpendicular):
            df_line(TRI, pair)

    def test_not_through_orthocentre(self):
        pair = (
            Line.from_point_direction(Point(F(0), F(0)), Point(F(3), F(4))),
            Line.from_point_direction(Point(F(0), F(0)), Point(F(-4), F(3))),
        )
        with pytest.raises(NotThroughVertex):
            df_line(TRI, pair)

    def test_edge_parallel_flag(self):
        pair = (
            Line.from_point_direction(H, Point(F(1), F(0))),
            Line.from_point_direction(H, Point(F(0), F(1))),
        )
        with pytest.raises(EdgeParallel):
            df_line(TRI, pair)

    def test_edge_as_degenerate_df_line(self):
        # reflections of H in the edges lie on the circumcircle
        circ = circumcircle(*TRI)
        for i in range(3):
            edge = Line.through(TRI[i], TRI[(i + 1) % 3])
            assert circ.contains(reflect_point_in_line(H, edge))

    def test_coaxality(self):
        inst = df_line(TRI, rational_pair(F(2, 7)))
        for mid in inst.midpoints:
            assert mid.dist2(inst.orthocentre) == mid.dist2(inst.m)

    @pytest.mark.parametrize("t", [F(1, 5), 0.2], ids=["exact", "float"])
    def test_midpoint_miss_raises(self, monkeypatch, t):
        real = drozfarny._edge_cuts

        def shifted(tri, pair):
            cuts = real(tri, pair)
            cuts["X1"] = Point(cuts["X1"].x + 1, cuts["X1"].y)
            return cuts

        monkeypatch.setattr(drozfarny, "_edge_cuts", shifted)
        with pytest.raises(IdentityViolated, match="not collinear"):
            df_line(TRI, rational_pair(t))

    def test_sweep_100_exact(self):
        count = 0
        for i in range(1, 300):
            t = F(i, 301)
            if t in (F(3, 4), F(4, 3)):
                continue
            try:
                inst = df_line(TRI, rational_pair(t))
            except EdgeParallel:
                continue
            assert collinear(*inst.midpoints)
            assert verify_instance(inst)
            assert inst.triangle.circumcircle.contains(inst.m)
            count += 1
            if count == 100:
                break
        assert count == 100


class TestConverse:
    def test_canonical_m(self):
        conv = df_converse(TRI, Point(F(-62), F(117)))
        # the six chord ends split into two perpendicular lines through H
        for line in conv.pair:
            assert abs(line.evaluate(conv.orthocentre)) <= 1e-9
        dot = conv.pair[0].a * conv.pair[1].a + conv.pair[0].b * conv.pair[1].b
        assert abs(float(dot)) < 1e-12

    def test_df_is_perpendicular_bisector(self):
        m = Point(F(-62), F(117))
        conv = df_converse(TRI, m)
        assert conv.df.contains(conv.orthocentre.midpoint(m))
        d = m - conv.orthocentre
        assert d.dot(conv.df.direction()) == 0

    def test_not_on_circumcircle(self):
        with pytest.raises(PointNotOnCircumcircle):
            df_converse(TRI, Point(F(0), F(0)))

    def test_not_on_circumcircle_is_one_error_class(self):
        # a caller catching the Wallace error also catches the converse's
        with pytest.raises(wallace.PointNotOnCircumcircle):
            df_converse(TRI, Point(F(0), F(0)))

    def test_degenerate_choice(self):
        m = reflect_point_in_line(H, Line.through(TRI[0], TRI[1]))
        with pytest.raises(DegenerateChoice):
            df_converse(TRI, m)

    def test_sweep_100_rational_m(self):
        circ = circumcircle(*TRI)
        count = 0
        for i in range(1, 300):
            t = F(i, 307)
            m = rational_circle_point(circ, Point(F(-62), F(117)), t)
            assert circ.contains(m)
            try:
                conv = df_converse(TRI, m)
            except (DegenerateChoice, EdgeParallel):
                continue
            ends1, ends2 = [], []
            hf = Point(float(H.x), float(H.y))
            for line, bucket in zip(conv.pair, (ends1, ends2)):
                assert abs(float(line.evaluate(hf))) < 1e-9
            count += 1
            if count == 100:
                break
        assert count == 100

    def test_exact_round_trip(self):
        # α² + β² is a square here, so the pair comes back exact and so
        # does the Droz-Farny line it cuts out
        face = quadrate(*TRI).face(7)
        m = Point(F(-61116, 313), F(2651, 313))
        assert face.circumcircle.contains(m)
        conv = df_converse(face, m)
        assert conv.m == m
        assert conv.pair == (Line(2, 1, 123), Line(1, -2, -66))
        inst = df_line(face, conv.pair)
        assert inst.df == conv.df
        assert inst.m == m

    def test_shifted_edge_cut_raises(self, monkeypatch):
        tri = as_triangle(TRI)
        tri.orthocentre, tri.circumcircle  # derived before the patch
        moved = tri.edges[1]
        real = Line.intersect

        def shifted(line, other):
            p = real(line, other)
            return Point(p.x + F(1, 7), p.y) if other == moved else p

        monkeypatch.setattr(Line, "intersect", shifted)
        with pytest.raises(IdentityViolated):
            df_converse(tri, Point(F(-62), F(117)))

    @staticmethod
    def first_edge_form(tri, m):
        """(α, β) of the pair's form, as fixed by the first edge."""
        h = tri.orthocentre
        e = tri.edges[0]
        v, d = drozfarny.perpendicular_bisector(h, m).intersect(e) - h, e.direction()
        return v.x * d.y + v.y * d.x, v.y * d.y - v.x * d.x

    @pytest.mark.parametrize(
        "order, negative", [((0, 1, 2), True), ((2, 0, 1), False)],
        ids=["beta<0", "beta>=0"],
    )
    def test_near_axis_pair_keeps_its_digits(self, order, negative):
        # a pair a 1e-6 turn off the axes has |α| ≪ |β|, where β − √(α² + β²)
        # would cancel for β > 0 (and β + √ for β < 0); the rational M just
        # off it makes α² + β² a non-square, so the pair comes back in floats
        tri = as_triangle(tuple(TRI[i] for i in order))
        h = tri.orthocentre
        d = Point(1, F(1, 10**6))
        m0 = df_line(tri, (
            Line.from_point_direction(h, d),
            Line.from_point_direction(h, Point(-d.y, d.x)),
        )).m
        base = Point(F(-62), F(117))
        slope = (m0.y - base.y) / (m0.x - base.x) + F(1, 10**9)
        m = rational_circle_point(tri.circumcircle, base, slope)
        alpha, beta = self.first_edge_form(tri, m)
        assert (beta < 0) == negative
        assert abs(alpha) < 1e-5 * abs(beta)
        norm = math.hypot(alpha, beta)
        conv = df_converse(tri, m)
        for line in conv.pair:
            assert abs(line.evaluate(h)) <= 1e-12
            # Q on the line's exact float direction: 2|γ| times its turn
            u = Point(F(line.b), F(-line.a))
            q = alpha * (u.x * u.x - u.y * u.y) + 2 * beta * u.x * u.y
            assert abs(q) <= 1e-15 * norm * u.norm2()

    def test_float_draws_on_the_circumcircle(self):
        # M by cos/sin on the float circumcircle: every draw passes its
        # containment test and gives back its Droz-Farny line
        rng = random.Random(2)
        accepted = 0
        for _ in range(500):
            tri = as_triangle([
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
            ])
            th = rng.uniform(0, 2 * math.pi)
            circ = tri.circumcircle
            r = math.sqrt(circ.r2)
            m = Point(circ.center.x + r * math.cos(th), circ.center.y + r * math.sin(th))
            if not circ.contains(m):
                continue
            accepted += 1
            conv = df_converse(tri, m)
            inst = df_line(tri, conv.pair)
            size = max(1.0, *(abs(c) for p in tri for c in (p.x, p.y)))
            for p in inst.midpoints:
                assert abs(conv.df.evaluate(p)) <= 1e-9 * size
        assert accepted == 500

    def test_every_float_draw_on_the_circumcircle(self):
        # the same 500 draws: a float M on the circle gives back its
        # Droz-Farny line; moved off the circle by 1e-6·R it is not
        rng = random.Random(2)
        for _ in range(500):
            tri = as_triangle([
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
            ])
            th = rng.uniform(0, 2 * math.pi)
            circ = tri.circumcircle
            r = math.sqrt(circ.r2)
            on, off = (
                Point(circ.center.x + k * math.cos(th), circ.center.y + k * math.sin(th))
                for k in (r, r * (1 + 1e-6))
            )
            conv = df_converse(tri, on)
            assert conv.m == on
            inst = df_line(tri, conv.pair)
            size = max(1.0, *(abs(c) for p in tri for c in (p.x, p.y)))
            for p in inst.midpoints:
                assert abs(conv.df.evaluate(p)) <= 1e-9 * size
            with pytest.raises(PointNotOnCircumcircle):
                df_converse(tri, off)


class TestEnvelope:
    def test_canonical_ellipse(self):
        env = df_envelope(TRI)
        assert env.kind == "ellipse"
        assert env.center == Point(F(0), F(0))
        assert {env.conic.focus1, env.conic.focus2} == {
            Point(F(36), F(51)),
            Point(F(-36), F(-51)),
        }
        assert env.axis2 == 170 ** 2

    def test_tangency_sweep_100(self):
        env = df_envelope(TRI)
        count = 0
        for i in range(1, 300):
            t = F(i, 301)
            try:
                inst = df_line(TRI, rational_pair(t))
            except EdgeParallel:
                continue
            assert envelope_tangency(env, inst)
            count += 1
            if count == 100:
                break
        assert count == 100

    def test_special_tangents(self):
        assert envelope_special_tangents(TRI)

    def test_special_tangents_float(self):
        rng = random.Random(4)
        for _ in range(300):
            tri = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
            assert envelope_special_tangents(tri)

    @pytest.mark.parametrize("tri", [TRI, tuple(Point(float(p.x), float(p.y)) for p in TRI)],
                             ids=["exact", "float"])
    @pytest.mark.parametrize("conic_too", [True, False], ids=["conic", "vertex"])
    def test_special_tangents_miss_a_moved_axis(self, monkeypatch, tri, conic_too):
        # the conic's axis moved fails the tangencies, the stored axis
        # alone fails the vertex check
        real = drozfarny.df_envelope

        def moved(t):
            env = real(t)
            axis2 = env.axis2 * (1 + F(1, 10**6))
            c = env.conic
            conic = Conic(c.focus1, c.focus2, axis2, c.kind) if conic_too else c
            return drozfarny.EnvelopeConic(conic, env.kind, env.center, axis2)

        assert envelope_special_tangents(tri)
        monkeypatch.setattr(drozfarny, "df_envelope", moved)
        assert not envelope_special_tangents(tri)

    def test_obtuse_hyperbola(self):
        tri = (Point(F(0), F(0)), Point(F(10), F(0)), Point(F(1), F(2)))
        env = df_envelope(tri)
        assert env.kind == "hyperbola"
        h, o = orthocentre(*tri), circumcircle(*tri).center
        assert {env.conic.focus1, env.conic.focus2} == {h, o}
        assert env.center == h.midpoint(o)

    def test_right_triangle_degenerates(self):
        env = df_envelope((Point(F(0), F(0)), Point(F(4), F(0)), Point(F(0), F(3))))
        assert env.kind == "point"
        assert env.conic is None
        # H is the right-angle vertex; the degenerate conic's centre is the
        # midpoint of H and O, the nine-point centre
        h = orthocentre(Point(F(0), F(0)), Point(F(4), F(0)), Point(F(0), F(3)))
        assert h == Point(F(0), F(0))
        assert env.center == Point(F(1), F(3, 4))


class TestParabola:
    def test_six_tangents_exact(self):
        inst = df_line(TRI, rational_pair(F(1, 5)))
        audit = parabola_tangency_audit(inst)
        for name in ("edge_a", "edge_b", "edge_c", "pair_1", "pair_2", "df"):
            assert audit[name], name

    def test_steiner_properties(self):
        inst = df_line(TRI, rational_pair(F(2, 7)))
        audit = parabola_tangency_audit(inst)
        assert audit["h_on_directrix"]
        assert audit["pair_meets_on_directrix"]
        assert audit["edge_triangle_circumcircle_through_focus"]

    def test_sweep(self):
        for t in SAFE_T:
            inst = df_line(TRI, rational_pair(t))
            assert all(parabola_tangency_audit(inst).values())

    def test_audit_reads_the_instance_edges(self, monkeypatch):
        # df_line already built the edge lines; only the directrix is new
        inst = df_line(TRI, rational_pair(F(1, 5)))
        calls = []
        through = Line.through

        def counted(p, q):
            calls.append((p, q))
            return through(p, q)

        monkeypatch.setattr(drozfarny.Line, "through", staticmethod(counted))
        assert all(parabola_tangency_audit(inst).values())
        assert len(calls) == 1

    def test_four_tangent_circumcircles_through_focus(self):
        # circumcircle of the triangle formed by any three tangents passes
        # through the focus
        inst = df_line(TRI, rational_pair(F(4, 9)))
        par = df_parabola(inst)
        a, b, c = inst.triangle
        lines = [
            Line.through(b, c),
            Line.through(c, a),
            inst.pair[0],
            inst.df,
        ]
        for drop in range(4):
            tri3 = [l for i, l in enumerate(lines) if i != drop]
            pts = [
                tri3[i].intersect(tri3[(i + 1) % 3]) for i in range(3)
            ]
            assert circumcircle(*pts).contains(par.focus)


class TestLocus:
    def test_sweep_100_exact(self):
        q = quadrate(*TRI)
        dirs = []
        for i in range(1, 300):
            t = F(i, 301)
            d = Point(1 - t * t, 2 * t)
            if d.y * 3 == d.x * 4 or d.y * 4 == -d.x * 3:
                continue
            if d.x == 0 or d.y == 0:
                continue
            # skip directions parallel/perpendicular to any edge
            if d.y * 4 == d.x * 3 or d.y * 8 == -d.x * 15 or d.x * 8 == d.y * 15:
                continue
            dirs.append(d)
            if len(dirs) == 100:
                break
        h, tri = q.vertices[7], q.face(7)
        circ = tri.circumcircle
        for d in dirs:
            pair = (
                Line.from_point_direction(h, d),
                Line.from_point_direction(h, Point(-d.y, d.x)),
            )
            inst = df_line(tri, pair)
            # the reflection of H in the line traces the circumcircle, the
            # foot of the perpendicular (midway to it) the Central Circle
            foot = foot_of_perpendicular(h, inst.df)
            assert circ.contains(inst.m)
            assert q.central_circle.contains(foot)
            assert foot == h.midpoint(inst.m)

    def test_equilateral_incircle_tangency(self):
        assert equilateral_df_check() <= DEFAULT_EPS


class TestMiquel:
    def test_edge_midpoints_give_circumcentre(self):
        x = TRI[1].midpoint(TRI[2])
        y = TRI[2].midpoint(TRI[0])
        z = TRI[0].midpoint(TRI[1])
        assert miquel_point(TRI, x, y, z) == circumcircle(*TRI).center

    def test_point_off_edge(self):
        with pytest.raises(PointNotOnEdgeLine):
            miquel_point(TRI, Point(F(0), F(0)), TRI[2], TRI[0])

    def test_collinear_cuts_give_circumcircle_point(self):
        # Wallace converse: X, Y, Z collinear -> Miquel point on circumcircle
        a, b, c = TRI
        cut = Line.through(Point(F(0), F(-77)), Point(F(20), F(50)))
        x = cut.intersect(Line.through(b, c))
        y = cut.intersect(Line.through(c, a))
        z = cut.intersect(Line.through(a, b))
        p = miquel_point(TRI, x, y, z)
        assert circumcircle(*TRI).contains(p)

    def test_random_cuts_concur(self):
        rng = random.Random(13)
        a, b, c = TRI
        for _ in range(10):
            s, t, u = (F(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(3))
            x = Point(b.x + s * (c.x - b.x), b.y + s * (c.y - b.y))
            y = Point(c.x + t * (a.x - c.x), c.y + t * (a.y - c.y))
            z = Point(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))
            p = miquel_point(TRI, x, y, z)  # concurrence asserted inside
            assert p is not None


class TestTheoremR:
    def test_horizontal_line_through_h(self):
        line = Line.from_point_direction(H, Point(F(1), F(0)))
        p = theorem_r(TRI, line)
        assert circumcircle(*TRI).contains(p)
        assert wallace_line(TRI, p).line.is_parallel(line)

    def test_line_not_through_h(self):
        with pytest.raises(LineNotThroughOrthocentre):
            theorem_r(TRI, Line.from_point_direction(Point(F(0), F(0)), Point(F(1), F(1))))

    def test_sweep(self):
        circ = circumcircle(*TRI)
        for t in SAFE_T:
            line = Line.from_point_direction(H, Point(1 - t * t, 2 * t))
            p = theorem_r(TRI, line)
            assert circ.contains(p)
            assert wallace_line(TRI, p).line.is_parallel(line)
