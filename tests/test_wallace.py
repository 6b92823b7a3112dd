"""Wallace/Steiner lines, reflection trisequences, three-cycles, deltoid."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgeo.kernel import (
    Circle,
    IdentityViolated,
    Line,
    Point,
    collinear,
    foot_of_perpendicular,
)
from quadgeo import quadrangle, wallace
from quadgeo.morley import equilateral_residual
from quadgeo.quadrangle import quadrate
from quadgeo.wallace import (
    PointNotOnCircumcircle,
    ZeroParameter,
    converse_simson,
    deltoid_tangency_check,
    fit_triangle,
    midpoint_rs,
    rational_circle_point,
    second_intersection,
    six_cycle_check,
    star_of_david,
    three_cycles,
    trisequence,
    wallace_line,
    wallace_quadrated,
)

F = Fraction
V1 = Point(F(36), F(103))
V2 = Point(F(-204), F(-77))
V4 = Point(F(132), F(-77))
SEED = Point(F(-62), F(117))


@pytest.fixture(scope="module")
def q():
    return quadrate(V1, V2, V4)


def twin_circle(q, l):
    """The circumcircle of face l: centred at twin(l)."""
    return Circle(q.twins[l], q.twins[l].dist2(q.face(l)[0]))


@pytest.fixture(scope="module")
def seq(q):
    return trisequence(q, "7B", SEED, 11)


@pytest.fixture(scope="module")
def apo(q):
    return trisequence(q, "7B", Point(F(-190), F(21)), 17)


class TestWallaceLine:
    def test_feet_are_collinear(self, q):
        wd = wallace_line(q.face(7), SEED)
        assert collinear(*wd.feet)
        for f in wd.feet:
            assert wd.line.contains(f)

    def test_steiner_line_through_orthocentre(self, q):
        wd = wallace_line(q.face(7), SEED)
        assert wd.steiner_line.contains(wd.orthocentre)
        assert wd.orthocentre == Point(F(36), F(51))

    def test_midpoint_with_orthocentre_on_central_circle(self, q):
        wd = wallace_line(q.face(7), SEED)
        assert wd.midpoint_T == Point(F(-13), F(84))
        assert q.central_circle.contains(wd.midpoint_T)

    def test_point_off_circle_rejected(self, q):
        with pytest.raises(PointNotOnCircumcircle):
            wallace_line(q.face(7), Point(F(0), F(0)))

    def test_vertex_source(self, q):
        # two feet are the vertex itself: the line is the altitude from it
        wd = wallace_line(q.face(7), V1)
        assert wd.feet.count(V1) == 2
        assert all(wd.line.contains(f) for f in wd.feet)
        assert wd.line.contains(q.vertices[7])

    def test_rational_sweep_two_hundred_points(self, q):
        circ = q.face(7).circumcircle
        central = q.central_circle
        for k in range(1, 201):
            t = F(k, 201)
            s = rational_circle_point(circ, V1, t)
            assert circ.contains(s)
            wd = wallace_line(q.face(7), s)
            assert collinear(*wd.feet)
            assert wd.steiner_line.contains(wd.orthocentre)
            assert central.contains(wd.midpoint_T)


class TestWallaceQuadrated:
    def test_transported_sources(self, q):
        # the source transported to face 1 is (-62, 65), on its circumcircle,
        # and its three feet are among the twelve
        qw = wallace_quadrated(q, SEED)
        s1 = Point(F(-62), F(65))
        assert twin_circle(q, 1).contains(s1)
        assert all(
            foot_of_perpendicular(s1, e) in qw.feet for e in q.face(1).edges
        )

    def test_twelve_feet_on_one_line(self, q):
        qw = wallace_quadrated(q, SEED)
        assert len(qw.feet) == 12
        for f in qw.feet:
            assert qw.line.contains(f)

    def test_sweep(self, q):
        circ = q.face(7).circumcircle
        for k in range(1, 40):
            s = rational_circle_point(circ, V1, F(2 * k + 1, 79))
            qw = wallace_quadrated(q, s)
            assert all(qw.line.contains(f) for f in qw.feet)


class TestTrisequence:
    def test_line_slopes(self, seq):
        slopes = {r.line_name: r.slope for r in seq.rows}
        assert slopes == {
            "A": F(23, 7),
            "B": F(-1, 7),
            "C": F(97, 71),
            "D": F(-1),
            "E": F(-97, 71),
            "F": F(1),
            "G": F(-401, 79),
            "H": F(1841, 887),
            "I": F(7),
            "J": F(41, 113),
            "K": F(17, 31),
        }

    def test_row_structure(self, seq):
        first = seq.rows[0]
        assert first.reflect == "7B"
        assert first.in_edges == ("24", "41", "12")
        assert first.to_give == ("1A", "2A", "4A")
        assert first.through == 7
        hosts = [r.through for r in seq.rows]
        assert hosts == [7, 1, 2, 4, 2, 4, 4, 1, 1, 2, 4]

    def test_each_line_through_host_vertex(self, q, seq):
        for r in seq.rows:
            assert r.line.contains(q.vertices[r.through])

    def test_images_on_stated_circles(self, q, seq):
        for node in seq.nodes.values():
            assert twin_circle(q, node.host).contains(node.point)

    def test_coincidences_close_cycles(self, seq):
        pairs = set(seq.coincidences)
        assert ("7C", "7B") in pairs
        assert ("7H", "7E") in pairs
        assert ("7I", "7F") in pairs

    def test_midpoint_parameters(self, q, seq):
        expected = {
            "7B": (6, 7),
            "1A": (6, -7),
            "2A": (57, 146),
            "4A": (9, -2),
            "2B": (46, -3),
            "4B": (2, 9),
            "4C": (146, 57),
            "1C": (413, 666),
            "1D": (7, 6),
            "2D": (2, -9),
            "4E": (3, -46),
            "7E": (413, -666),
            "7F": (7, -6),
            "2F": (9, 2),
            "7G": (151, 42),
            "1G": (2646, 313),
            "4H": (11523, -6686),
        }
        for name, rs in expected.items():
            t, got = midpoint_rs(q, seq.nodes[name])
            assert got == rs
            assert q.central_circle.contains(t)

    def test_line_count_respects_limit(self, seq):
        assert len(seq.lines) == 11

    def test_seed_off_circle_rejected(self, q):
        with pytest.raises(PointNotOnCircumcircle):
            trisequence(q, "7B", Point(F(0), F(0)), 3)

    def test_image_miss_raises(self, q, monkeypatch):
        real = wallace.reflect_point_in_line

        def shifted(p, line):
            r = real(p, line)
            return Point(r.x + 1, r.y)

        monkeypatch.setattr(wallace, "reflect_point_in_line", shifted)
        with pytest.raises(IdentityViolated, match="misses host vertex"):
            trisequence(q, "7B", SEED, 11)


class TestApocrypha:
    def test_line_slopes(self, apo):
        slopes = {r.line_name: r.slope for r in apo.rows}
        assert slopes == {
            "A": F(1),
            "B": F(41, 113),
            "C": F(7),
            "D": F(-7, 23),
            "E": F(-7),
            "F": F(7, 23),
            "G": F(23, 7),
            "H": F(71, 97),
            "I": F(97, 71),
            "J": F(-1, 7),
            "K": F(503, 329),
            "L": F(17, 31),
            "M": F(79, 401),
            "N": F(-1367, 1519),
            "O": F(-1),
            "P": F(-71, 97),
            "Q": F(7, 601),
        }

    def test_late_rows(self, apo):
        by_name = {r.line_name: r for r in apo.rows}
        assert by_name["O"].to_give == ("1O", "2D", "4C")
        assert by_name["P"].to_give == ("2P", "4C", "7P")
        assert by_name["Q"].to_give == ("7Q", "1C", "2P")

    def test_coincidences(self, apo):
        pairs = set(apo.coincidences)
        assert {("7H", "7E"), ("7I", "7F"), ("2O", "2D"), ("2Q", "2P")} <= pairs


class TestThreeCycles:
    def test_antipode_reflections(self, q):
        tc = three_cycles(q)
        assert tc.antipodes[(1, 7)] == Point(F(-108), F(-205))
        imgs = {
            Point(F(-108), F(51)),
            Point(F(372), F(51)),
            Point(F(-300), F(51)),
        }
        from quadgeo.kernel import reflect_point_in_line

        got = {
            reflect_point_in_line(tc.antipodes[(1, 7)], q.edge(a, b))
            for a, b in ((2, 4), (4, 1), (1, 2))
        }
        assert got == imgs

    def test_four_cycles_of_three(self, q):
        tc = three_cycles(q)
        assert len(tc.cycles) == 4
        assert all(len(c) == 3 for c in tc.cycles)

    def test_six_four_point_lines(self, q):
        tc = three_cycles(q)
        assert len(tc.lines) == 6
        for pair, line in tc.lines.items():
            pts = tc.quads[pair]
            assert len(pts) == 4
            assert all(line.contains(p) for p in pts)

    def test_lines_concur_in_threes_at_trebled_vertices(self, q):
        tc = three_cycles(q)
        for label, tv in tc.trebled.items():
            hits = [line for line in tc.lines.values() if line.contains(tv)]
            assert len(hits) == 3

    def test_trebled_quadrangle(self, q):
        tc = three_cycles(q)
        assert tc.trebled[1] == Point(F(-108), F(-309))
        assert tc.trebled[2] == Point(F(612), F(231))
        assert tc.trebled[4] == Point(F(-396), F(231))
        assert tc.trebled[7] == Point(F(-108), F(-153))
        assert tc.trebled_circle.r2 == 65025  # radius 255 = 3 x 85

    def test_trebled_is_homothety_ratio_three(self, q):
        tc = three_cycles(q)
        for l, v in q.vertices.items():
            d1 = tc.trebled[l] - q.center
            d0 = v - q.center
            assert d1 == Point(-3 * d0.x, -3 * d0.y)

    def test_six_cycle(self, q):
        assert six_cycle_check(q, SEED)
        assert six_cycle_check(q, Point(F(-190), F(21)))


class TestDeltoid:
    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameter):
            deltoid_tangency_check(F(0))

    def test_tangent_double_contact_random(self):
        rng = random.Random(20260826)
        for _ in range(100):
            t = F(rng.randint(-400, 400), rng.randint(1, 60))
            if t == 0:
                t = F(1, 3)
            assert deltoid_tangency_check(t)

    @given(
        st.fractions(
            min_value=F(-50), max_value=F(50), max_denominator=40
        ).filter(lambda t: t != 0)
    )
    @settings(max_examples=50, deadline=None)
    def test_tangent_double_contact_property(self, t):
        assert deltoid_tangency_check(t)


class TestStarOfDavid:
    @pytest.mark.parametrize(
        "verts",
        [
            ((36, 103), (-204, -77), (132, -77)),
            ((-1, 47), (3, -45), (-17, 15)),
            ((12, 1), (50, -12), (11, -5)),
        ],
        ids=["t0", "tri1", "tri2"],
    )
    def test_six_tangents_two_equilateral_triangles(self, verts, monkeypatch):
        qq = quadrate(*(Point(F(x), F(y)) for x, y in verts))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return wallace_line(*args, **kwargs)

        monkeypatch.setattr(wallace, "wallace_line", counted)
        star = star_of_david(qq)
        assert len(calls) == 3  # one per tangent position, no search
        assert len(star.tangent_lines) == 6
        cx, cy = float(qq.center.x), float(qq.center.y)
        target2 = float(qq.central_circle.r2)
        for line in star.tangent_lines:
            a, b, c = float(line.a), float(line.b), float(line.c)
            d2 = (a * cx + b * cy - c) ** 2 / (a * a + b * b)
            assert abs(d2 - target2) < 1e-6 * target2
        for tri in star.triangles:
            assert equilateral_residual(tri) <= 1e-12

    def test_triangles_are_central_reflections(self, q):
        star = star_of_david(q)
        tri1, tri2 = star.triangles
        neg = {
            (round(-float(p.x), 4), round(-float(p.y), 4)) for p in tri2
        }
        got = {(round(float(p.x), 4), round(float(p.y), 4)) for p in tri1}
        assert got == neg
        assert (24.6948, 168.1968) in got


class TestConverseConstructions:
    def test_converse_simson(self):
        p = Point(F(0), F(5))
        l, m, n = Point(F(-3), F(0)), Point(F(1), F(0)), Point(F(6), F(0))
        tri = converse_simson(p, l, m, n)
        assert isinstance(tri, quadrangle.Triangle)
        assert tri.circumcircle.contains(p)
        wd = wallace_line(tri, p)
        assert wd.line == Line.through(l, m)

    @pytest.mark.parametrize(
        "name, match",
        [("circumcircle", "misses P"), ("orthocentre", "not on the directrix")],
    )
    def test_converse_simson_miss_raises(self, monkeypatch, name, match):
        real = getattr(quadrangle, name)

        def shifted(*pts):
            out = real(*pts)
            if name == "circumcircle":
                return Circle(Point(out.center.x, out.center.y + 1), out.r2)
            return Point(out.x, out.y + 1)

        monkeypatch.setattr(quadrangle, name, shifted)
        p = Point(F(0), F(5))
        l, m, n = Point(F(-3), F(0)), Point(F(1), F(0)), Point(F(6), F(0))
        with pytest.raises(IdentityViolated, match=match):
            converse_simson(p, l, m, n)

    def test_fit_triangle(self, q):
        circ = q.face(7).circumcircle
        wd = wallace_line(q.face(7), SEED)
        fit = fit_triangle(circ, SEED, wd.line, V1)
        assert set(fit.triangle) == set(q.face(7))

    def test_fit_triangle_other_vertex(self, q):
        circ = q.face(7).circumcircle
        wd = wallace_line(q.face(7), SEED)
        fit = fit_triangle(circ, SEED, wd.line, V2)
        assert set(fit.triangle) == set(q.face(7))

    def test_second_intersection(self, q):
        circ = q.face(7).circumcircle
        other = second_intersection(circ, V1, V2 - V1)
        assert other == V2

    def test_second_intersection_of_int_input_is_exact(self):
        other = second_intersection(Circle(Point(0, 0), 25), Point(3, 4), Point(1, 2))
        assert other == Point(F(-7, 5), F(-24, 5))


class TestConcurrencyHelpers:
    def test_trisequence_lines_all_distinct(self, seq):
        assert len({(l.a, l.b, l.c) for l in seq.lines.values()}) == 11

    def test_lines_with_same_host_concur_at_that_vertex(self, q, seq):
        by_host = {}
        for r in seq.rows:
            by_host.setdefault(r.through, []).append(r.line)
        for host, lines in by_host.items():
            if len(lines) >= 3:
                assert all(line.contains(q.vertices[host]) for line in lines)
