"""One rejection test per float residual site that decides through
``kernel.vanishes``: on float data the site passes, and with an input or a
construction step moved by 1e-6 of the data's size it fails. Where the
theorem would hold for the moved input itself, the step is moved by
monkeypatching the module's construction."""

import dataclasses
import math

import pytest

from quadgeo import drozfarny, malfatti, morley, touch, wallace
from quadgeo.kernel import (
    DEFAULT_EPS,
    Circle,
    DegenerateInput,
    IdentityViolated,
    Line,
    NotCollinear,
    Point,
    PointNotOnCircumcircle,
    cross_ratio,
)
from quadgeo.quadrangle import Triangle, quadrate

#: t0's face 7 in floats; its coordinates are about 200 in size
TRI = Triangle((Point(36.0, 103.0), Point(-204.0, -77.0), Point(132.0, -77.0)))
SIZE = 200.0
DELTA = 1e-6 * SIZE


def _moved(line, by=DELTA):
    return Line(line.a, line.b, line.c + by)


def _pair(h, d=Point(1.0, 0.3)):
    return (Line.from_point_direction(h, d), Line.from_point_direction(h, Point(-d.y, d.x)))


def _circle_point(circ, theta, k=1.0):
    r = k * math.sqrt(circ.r2)
    return Point(circ.center.x + r * math.cos(theta), circ.center.y + r * math.sin(theta))


def _shift_calls(monkeypatch, module, name, when, by=DELTA):
    """Make ``module.name`` move the point it returns by ``by`` in x on the
    calls where ``when(*args)`` holds."""
    real = getattr(module, name)

    def shifted(*args):
        p = real(*args)
        return Point(p.x + by, p.y) if when(*args) else p

    monkeypatch.setattr(module, name, shifted)


class TestDrozFarny:
    def test_pair_through_the_orthocentre(self):
        pair = _pair(TRI.orthocentre)
        drozfarny.df_line(TRI, pair)
        with pytest.raises(drozfarny.NotThroughVertex):
            drozfarny.df_line(TRI, (_moved(pair[0]), pair[1]))

    def test_pair_perpendicular(self):
        h = TRI.orthocentre
        turned = Line.from_point_direction(h, Point(-0.3 + 1e-6, 1.0))
        with pytest.raises(drozfarny.NotPerpendicular):
            drozfarny.df_line(TRI, (_pair(h)[0], turned))

    def test_midpoints_collinear(self, monkeypatch):
        real = drozfarny._edge_cuts

        def shifted(edges, pair):
            cuts = real(edges, pair)
            cuts["X1"] = Point(cuts["X1"].x + DELTA, cuts["X1"].y)
            return cuts

        monkeypatch.setattr(drozfarny, "_edge_cuts", shifted)
        with pytest.raises(IdentityViolated, match="not collinear"):
            drozfarny.df_line(TRI, _pair(TRI.orthocentre))

    def test_verify_instance(self):
        inst = drozfarny.df_line(TRI, _pair(TRI.orthocentre))
        assert drozfarny.verify_instance(inst)
        m0 = inst.midpoints[0]
        moved = (Point(m0.x + DELTA, m0.y), *inst.midpoints[1:])
        assert not drozfarny.verify_instance(dataclasses.replace(inst, midpoints=moved))

    def test_converse_forms(self, monkeypatch):
        m = _circle_point(TRI.circumcircle, 2.0)
        drozfarny.df_converse(TRI, m)
        moved = TRI.edges[1]
        _shift_calls(monkeypatch, Line, "intersect", lambda line, other: other == moved)
        with pytest.raises(IdentityViolated):
            drozfarny.df_converse(TRI, m)

    def test_right_envelope_is_a_point(self):
        assert drozfarny.df_envelope(
            (Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
        ).kind == "point"
        assert drozfarny.df_envelope(
            (Point(0.0, 0.0), Point(4.0, 0.0), Point(3e-6, 3.0))
        ).kind != "point"

    def test_envelope_tangency(self):
        env = drozfarny.df_envelope(TRI)
        inst = drozfarny.df_line(TRI, _pair(TRI.orthocentre))
        assert drozfarny.envelope_tangency(env, inst)
        moved = dataclasses.replace(inst, df=_moved(inst.df))
        assert not drozfarny.envelope_tangency(env, moved)

    def test_parabola_directrix(self, monkeypatch):
        inst = drozfarny.df_line(TRI, _pair(TRI.orthocentre))
        assert all(drozfarny.parabola_tangency_audit(inst).values())
        last = inst.triangle.edges[2]
        _shift_calls(monkeypatch, drozfarny, "reflect_point_in_line", lambda p, e: e == last)
        with pytest.raises(IdentityViolated, match="not collinear"):
            drozfarny.df_parabola(inst)

    def test_miquel_cut_on_its_edge(self):
        a, b, c = TRI
        mids = (b.midpoint(c), c.midpoint(a), a.midpoint(b))
        drozfarny.miquel_point(TRI, *mids)
        x = Point(mids[0].x, mids[0].y + DELTA)
        with pytest.raises(drozfarny.PointNotOnEdgeLine):
            drozfarny.miquel_point(TRI, x, *mids[1:])

    def test_miquel_third_circle(self, monkeypatch):
        a, b, c = TRI
        mids = (b.midpoint(c), c.midpoint(a), a.midpoint(b))
        _shift_calls(monkeypatch, drozfarny, "reflect_point_in_line", lambda p, line: True)
        with pytest.raises(IdentityViolated, match="Miquel"):
            drozfarny.miquel_point(TRI, *mids)

    def test_theorem_r_line_through_the_orthocentre(self):
        line = Line.from_point_direction(TRI.orthocentre, Point(1.0, 0.0))
        drozfarny.theorem_r(TRI, line)
        with pytest.raises(drozfarny.LineNotThroughOrthocentre):
            drozfarny.theorem_r(TRI, _moved(line))

    def test_theorem_r_concurrence(self, monkeypatch):
        real = drozfarny.reflect_line_in_line
        last = TRI.edges[2]
        monkeypatch.setattr(
            drozfarny, "reflect_line_in_line",
            lambda line, e: _moved(real(line, e)) if e == last else real(line, e),
        )
        line = Line.from_point_direction(TRI.orthocentre, Point(1.0, 0.0))
        with pytest.raises(IdentityViolated, match="fail to concur"):
            drozfarny.theorem_r(TRI, line)


class TestMalfatti:
    def test_tangencies(self):
        circles, _ = malfatti.malfatti_circles(*TRI)
        assert malfatti.verify_malfatti(circles, *TRI) <= DEFAULT_EPS
        c0 = circles[0]
        grown = (Circle(c0.center, c0.r2 * (1 + 2e-6)), *circles[1:])
        assert malfatti.verify_malfatti(grown, *TRI) > DEFAULT_EPS

    def test_contact_circle(self):
        circles, touch_points = malfatti.malfatti_circles(*TRI)
        assert malfatti.variant_contact_circle(circles, touch_points, *TRI) <= DEFAULT_EPS
        x = touch_points[0]
        moved = (Point(x.x + DELTA, x.y), *touch_points[1:])
        assert malfatti.variant_contact_circle(circles, moved, *TRI) > DEFAULT_EPS


class TestLighthouse:
    @pytest.fixture
    def cfg(self):
        cfg = morley.lighthouse(Point(-1.0, 0.0), Point(1.0, 0.0), 0.7, 0.4, 5)
        assert morley.lighthouse_verify(cfg) is True
        return cfg

    @staticmethod
    def with_gon(cfg, f):
        circ = cfg.circles[1]
        gon = [f(p, circ.center) for p in cfg.ngons[1]]
        return dataclasses.replace(cfg, ngons=[cfg.ngons[0], gon, *cfg.ngons[2:]])

    @pytest.mark.parametrize("n", [4, 6])
    def test_near_parallel_beams_verify(self, n):
        # β + γ 1e-7 from π/2, a multiple of π/n: the pairs of one n-gon meet
        # about 1e7 away, their rounding 1e7 times their coordinates', which
        # the n-gon's conditioning carries
        gamma = math.pi / 2 - 0.5 + 1e-7
        cfg = morley.lighthouse(Point(-1.0, 0.0), Point(1.0, 0.0), 0.5, gamma, n)
        assert not cfg.parallel_flag and morley.lighthouse_verify(cfg) is True

    @staticmethod
    def near_parallel(delta, n=4):
        """β + γ = π/2 + δ, a multiple of π/n plus δ: n-gon n/2's beams meet
        at angle δ, so its conditioning is about 1/δ."""
        cfg = morley.lighthouse(Point(-1.0, 0.0), Point(1.0, 0.0), 0.5, math.pi / 2 - 0.5 + delta, n)
        assert not cfg.parallel_flag and morley.lighthouse_verify(cfg) is True
        return cfg, n // 2

    @staticmethod
    def pushed(cfg, g, k):
        """n-gon g with its first vertex moved out from its centre by k of
        its radius."""
        o = cfg.circles[g].center
        gon = list(cfg.ngons[g])
        p = gon[0]
        gon[0] = Point(o.x + (1 + k) * (p.x - o.x), o.y + (1 + k) * (p.y - o.y))
        return dataclasses.replace(cfg, ngons=[*cfg.ngons[:g], gon, *cfg.ngons[g + 1:]])

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    def test_moved_vertex_near_parallel(self, delta):
        # at conditioning 1/δ the bound is DEFAULT_EPS/δ of the n-gon's
        # size: a vertex moved by ten times that fails
        cfg, g = self.near_parallel(delta)
        assert morley.lighthouse_verify(self.pushed(cfg, g, 10 * DEFAULT_EPS / delta)) is False

    @pytest.mark.parametrize("delta", [1e-6, 1e-8])
    def test_moved_vertex_nearly_parallel(self, delta):
        # past 1e-6 rad the conditioning stops at 1e6, so a vertex moved by
        # 1% fails however near parallel the beams are
        cfg, g = self.near_parallel(delta)
        assert morley.lighthouse_verify(self.pushed(cfg, g, 1e-2)) is False

    def test_power(self, cfg):
        # scaled by 1 + 1e-6 about its centre: still regular, off its circle
        def scaled(p, o):
            return Point(o.x + (1 + 1e-6) * (p.x - o.x), o.y + (1 + 1e-6) * (p.y - o.y))

        assert morley.lighthouse_verify(self.with_gon(cfg, scaled)) is False

    def test_lemma(self, cfg):
        # turned by 1e-6 rad about its centre: its edges leave the classes
        def turned(p, o):
            dx, dy, c, s = p.x - o.x, p.y - o.y, math.cos(1e-6), math.sin(1e-6)
            return Point(o.x + dx * c - dy * s, o.y + dx * s + dy * c)

        assert morley.lighthouse_verify(self.with_gon(cfg, turned)) is False

    def test_regular(self, cfg):
        gon = [(p.x, p.y) for p in cfg.ngons[1]]
        assert morley.ngon_is_regular(gon) <= DEFAULT_EPS
        circ = cfg.circles[1]
        x, y = gon[0]
        t = math.atan2(y - circ.center.y, x - circ.center.x) + 1e-6
        r = math.sqrt(circ.r2)
        gon[0] = (circ.center.x + r * math.cos(t), circ.center.y + r * math.sin(t))
        assert morley.ngon_is_regular(gon) > DEFAULT_EPS

    def test_duplication(self, monkeypatch):
        b, c = Point(-1.0, 0.0), Point(1.0, 0.0)
        assert morley.duplication(b, c, 0.4, 0.7, 3) <= DEFAULT_EPS
        real = morley._dir
        monkeypatch.setattr(morley, "_dir", lambda theta: real(theta + 1e-6))
        assert morley.duplication(b, c, 0.4, 0.7, 3) > DEFAULT_EPS

    def test_orthocentric(self):
        quad = list(morley.bisector_quadrangle(*TRI).values())
        assert morley.is_orthocentric(quad) <= DEFAULT_EPS
        quad[0] = Point(quad[0].x + DELTA, quad[0].y)
        assert morley.is_orthocentric(quad) > DEFAULT_EPS


class TestMorley:
    ABC = (Point(0.0, 0.0), Point(7.0, 0.3), Point(2.0, 5.0))
    DELTA = 7e-6

    def test_trisectors(self, monkeypatch):
        morley.morley_config(*self.ABC)
        real = morley._beam
        monkeypatch.setattr(morley, "_beam", lambda x, y, theta: real(x, y, theta + 1e-6))
        with pytest.raises(IdentityViolated, match="Morley line"):
            morley.morley_config(*self.ABC)

    def test_gf_circle_through_the_lighthouses(self, monkeypatch):
        real = morley._gf_circle
        monkeypatch.setattr(
            morley, "_gf_circle",
            lambda *pts: (lambda c: Circle(c.center, c.r2 * (1 + 2e-6)))(real(*pts)),
        )
        with pytest.raises(IdentityViolated, match="lighthouse"):
            morley.morley_config(*self.ABC)

    def test_associated_point(self, monkeypatch):
        _shift_calls(monkeypatch, morley, "_reflect", lambda p, l: True, by=self.DELTA)
        with pytest.raises(IdentityViolated, match="third GF circle"):
            morley.morley_config(*self.ABC)

    def test_degenerate_triangle(self):
        with pytest.raises(DegenerateInput):
            morley.morley_config(Point(0.0, 0.0), Point(1.0, 1.0), Point(3.0, 3.0))
        # a 1e-6 sliver is a triangle, whose trisectors meet too obliquely
        # for the Morley lines to hold in floats
        with pytest.raises(IdentityViolated):
            morley.morley_config(Point(0.0, 0.0), Point(1.0, 1.0), Point(3.0, 3.0 + 3e-6))

    def test_edge_directions(self):
        tris = dict(morley.morley_config(*self.ABC).morley_triangles)
        assert morley.edge_direction_classes(tris) == 1
        p, q, r = tris["000"]
        tris["000"] = (Point(p.x + self.DELTA, p.y), q, r)
        assert morley.edge_direction_classes(tris) > 1


class TestThriceSixteen:
    QUAD = [Point(10 * math.cos(t), 10 * math.sin(t)) for t in (0.3, 1.9, 3.4, 5.0)]
    DELTA = 1e-5

    def test_concyclic(self):
        rep = morley.thrice_sixteen(self.QUAD)
        assert 0 < rep.worst <= DEFAULT_EPS / 100
        p = self.QUAD[3]
        off = [*self.QUAD[:3], Point(p.x * (1 + 1e-6), p.y * (1 + 1e-6))]
        with pytest.raises(DegenerateInput, match="concyclic"):
            morley.thrice_sixteen(off)

    def test_grid_line(self, monkeypatch):
        real = Triangle.point

        def shifted(tri, *weights):   # the incentre, weighted by the sides
            p = real(tri, *weights)
            return Point(p.x + self.DELTA, p.y) if weights == tri.sides else p

        monkeypatch.setattr(Triangle, "point", shifted)
        with pytest.raises(DegenerateInput, match="not collinear"):
            morley.thrice_sixteen(self.QUAD)

    def test_reflected_circumcentres_and_congruence(self, monkeypatch):
        real = morley.circumcircle
        calls = []

        def moved(*pts):
            c = real(*pts)
            calls.append(c)
            if len(calls) == 1:      # the quadrangle's own circle
                return c
            k = 1 + 2e-6 * (len(calls) % 2)
            return Circle(Point(c.center.x + self.DELTA, c.center.y), c.r2 * k)

        monkeypatch.setattr(morley, "circumcircle", moved)
        rep = morley.thrice_sixteen(self.QUAD)
        assert not rep.circumcentres_reflect and not rep.circumcircles_congruent


class TestTouch:
    def test_cevians(self):
        cuts = touch.touch_circles(TRI)[0].touch_points
        touch._cevian_point(TRI, cuts)
        z = cuts[2]
        with pytest.raises(DegenerateInput, match="cevians"):
            touch._cevian_point(TRI, (*cuts[:2], Point(z.x + DELTA, z.y)))

    def test_perspector(self, monkeypatch):
        real = touch._perspector
        seen = []

        def moved(contacts, mids, lever):
            seen.append((contacts, mids, lever))
            c = contacts[2]
            return real((*contacts[:2], Point(c.x + DELTA, c.y)), mids, lever)

        tri = (Point(0.0, 0.0), Point(10.0, 0.0), Point(3.0, 7.0))
        touch.hexaflex(tri)
        monkeypatch.setattr(touch, "_perspector", moved)
        with pytest.raises(IdentityViolated, match="fail to concur"):
            touch.hexaflex(tri)


class TestWallace:
    def test_source_on_the_circumcircle(self):
        circ = TRI.circumcircle
        wallace.wallace_line(TRI, _circle_point(circ, 1.0))
        with pytest.raises(PointNotOnCircumcircle):
            wallace.wallace_line(TRI, _circle_point(circ, 1.0, 1 + 1e-6))


class TestSitesThatComparedFloatsWithZero:
    """Sites whose predicate once took the default eps of 0, so that a float
    residual had to be exactly 0: valid float data they rejected now passes,
    and the same data moved by about 1e-6 of its size still fails."""

    #: t0 divided by 7, so that no coordinate is an integer
    Q = quadrate(Point(36 / 7, 103 / 7), Point(-204 / 7, -77 / 7), Point(132 / 7, -77 / 7))
    ABC = (Point(0.0, 0.0), Point(7.0, 0.3), Point(2.0, 5.0))
    #: three points of the line through (1/3, 2/7) along (0.3, 0.7), and P off it
    LMN = tuple(Point(1 / 3 + 0.3 * t, 2 / 7 + 0.7 * t) for t in (0.1, 1.3, -2.9))
    P = Point(2.2, -1.1)

    def test_wallace_quadrated(self):
        circ = self.Q.face(7).circumcircle
        wallace.wallace_quadrated(self.Q, _circle_point(circ, 1.0))
        with pytest.raises(PointNotOnCircumcircle):
            wallace.wallace_quadrated(self.Q, _circle_point(circ, 1.0, 1 + 1e-6))

    def test_trisequence(self):
        circ = self.Q.face(7).circumcircle
        res = wallace.trisequence(self.Q, "7B", _circle_point(circ, 2.0), 5)
        assert len(res.lines) == 5
        with pytest.raises(PointNotOnCircumcircle):
            wallace.trisequence(self.Q, "7B", _circle_point(circ, 2.0, 1 + 1e-6), 5)

    def test_converse_simson(self):
        l, m, n = self.LMN
        wallace.converse_simson(self.P, l, m, n)
        with pytest.raises(DegenerateInput, match="collinear"):
            wallace.converse_simson(self.P, l, m, Point(n.x + 1e-6, n.y))

    def test_fit_triangle(self):
        circ = Circle(Point(0.1, 0.2), 9.7)
        line = Line.from_point_direction(Point(0.3, 0.1), Point(1.0, 0.37))
        a = _circle_point(circ, 2.9)
        wallace.fit_triangle(circ, _circle_point(circ, 1.0), line, a)
        with pytest.raises(PointNotOnCircumcircle):
            wallace.fit_triangle(circ, _circle_point(circ, 1.0, 1 + 1e-6), line, a)

    def test_gergonne_nagel_incidences(self):
        data = touch.gergonne_nagel(self.ABC)
        assert all(data.incidence_checks().values())
        assert touch.extraverted_gergonne_concurrence(self.ABC)
        nagel = Point(data.nagel.x + 1e-5, data.nagel.y)
        moved = dataclasses.replace(data, nagel=nagel).incidence_checks()
        assert not moved["nagel=3G-2I"] and not moved["nagel-incentre-centroid"]

    def test_miquel_point(self):
        a, b, c = self.ABC
        x = Point(b.x + 0.37 * (c.x - b.x), b.y + 0.37 * (c.y - b.y))
        y = Point(c.x * 0.61, c.y * 0.61)
        z = Point(b.x * 0.23, b.y * 0.23)
        drozfarny.miquel_point(self.ABC, x, y, z)
        with pytest.raises(drozfarny.PointNotOnEdgeLine):
            drozfarny.miquel_point(self.ABC, Point(x.x, x.y + 1e-5), y, z)

    def test_theorem_r(self):
        line = Line.from_point_direction(Triangle(self.ABC).orthocentre, Point(1.0, 0.3))
        drozfarny.theorem_r(self.ABC, line)
        with pytest.raises(drozfarny.LineNotThroughOrthocentre):
            drozfarny.theorem_r(self.ABC, _moved(line, 1e-5))

    def test_cross_ratio(self):
        l, m, n = self.LMN
        fourth = Point(1 / 3 + 0.3 * 0.77, 2 / 7 + 0.7 * 0.77)
        cross_ratio(l, m, n, fourth)
        with pytest.raises(NotCollinear):
            cross_ratio(l, m, n, Point(fourth.x + 1e-6, fourth.y))

    def test_pair_line_nearly_parallel_to_an_edge(self):
        # 1e-12 rad from the edge: `Line.is_parallel` holds within
        # DEFAULT_EPS on the unit normals; with a bound of 0 the line cut the
        # edge about 1e12 away, and the chord midpoints missed their line
        h = TRI.orthocentre
        e = TRI.edges[2]
        d = Point(e.b + 1e-12 * e.a, -e.a + 1e-12 * e.b)
        with pytest.raises(drozfarny.EdgeParallel):
            drozfarny.df_line(TRI, _pair(h, d))
