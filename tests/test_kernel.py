"""Kernel primitives: oracle examples plus property tests."""

import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadgeo.kernel import (
    DEFAULT_EPS,
    Circle,
    CoincidentPoints,
    ConcentricCircles,
    DegenerateInput,
    IdenticalCircles,
    Line,
    NotCollinear,
    Point,
    Tangency,
    approx_collinear,
    circumcircle,
    collinear,
    cross_ratio,
    foot_of_perpendicular,
    format_scalar,
    is_exact,
    radical_axis,
    reflect_line_in_line,
    reflect_point_in_line,
    tangency_classify,
)
from quadgeo.quadrangle import orthocentre

F = Fraction

# canonical triangle and friends
V1 = Point(F(36), F(103))
V2 = Point(F(-204), F(-77))
V4 = Point(F(132), F(-77))
EDGE_24 = Line(F(0), F(1), F(-77))  # y = -77
EDGE_41 = Line(F(15), F(8), F(1364))
EDGE_12 = Line.through(V1, V2)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def rational_points():
    return st.builds(Point, rationals, rationals)


class TestReflection:
    def test_antipode_reflections(self):
        p = Point(F(-108), F(-205))
        assert reflect_point_in_line(p, EDGE_24) == Point(F(-108), F(51))
        assert reflect_point_in_line(p, EDGE_41) == Point(F(372), F(51))
        assert reflect_point_in_line(p, EDGE_12) == Point(F(-300), F(51))

    def test_point_on_line_fixed(self):
        p = Point(F(5), F(-77))
        assert reflect_point_in_line(p, EDGE_24) == p

    @given(rational_points(), rational_points(), rational_points())
    @settings(max_examples=200)
    def test_involution(self, p, q, r):
        if q == r:
            return
        line = Line.through(q, r)
        assert reflect_point_in_line(reflect_point_in_line(p, line), line) == p

    @given(rational_points(), rational_points(), rational_points(), rational_points())
    @settings(max_examples=100)
    def test_line_image_is_line_of_point_images(self, p, q, r, s):
        if p == q or r == s:
            return
        line, mirror = Line.through(p, q), Line.through(r, s)
        assert reflect_line_in_line(line, mirror) == Line.through(
            reflect_point_in_line(p, mirror), reflect_point_in_line(q, mirror)
        )

    def test_line_image_float(self):
        line, mirror = Line(1.0, 2.0, 3.0), Line(-0.5, 1.5, 0.25)
        image = reflect_line_in_line(line, mirror)
        for p in (Point(3.0, 0.0), Point(-1.0, 2.0)):
            assert image.contains(reflect_point_in_line(p, mirror), eps=1e-12)


class TestCircumcircle:
    def test_canonical(self):
        c = circumcircle(V1, V2, V4)
        assert c.center == Point(F(-36), F(-51))
        assert c.r2 == 28900

    def test_equilateral_symmetry(self):
        # equilateral triangle with rational circumcircle data
        pts = [Point(F(2), F(0)), Point(F(-1), F(0)), Point(F(0), F(1))]
        c = circumcircle(Point(F(0), F(2)), Point(F(0), F(-2)), Point(F(2), F(0)))
        assert c.center == Point(F(0), F(0))

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            circumcircle(Point(0, 0), Point(1, 1), Point(2, 2))


def _oracle_centres(p, q, r):
    """Circumcentre and orthocentre as the meets of two perpendicular
    bisectors and of two altitudes."""
    bisector_q = Line.from_point_normal(p.midpoint(q), q - p)
    bisector_r = Line.from_point_normal(p.midpoint(r), r - p)
    altitude_p = Line.from_point_normal(p, r - q)
    altitude_q = Line.from_point_normal(q, r - p)
    return bisector_q.intersect(bisector_r), altitude_p.intersect(altitude_q)


class TestClosedFormCentres:
    @given(rational_points(), rational_points(), rational_points())
    @settings(max_examples=100)
    def test_exact_equals_line_meets(self, p, q, r):
        if collinear(p, q, r):
            return
        o, h = _oracle_centres(p, q, r)
        circ = circumcircle(p, q, r)
        assert circ.center == o and circ.r2 == o.dist2(p)
        assert orthocentre(p, q, r) == h

    @given(rational_points(), rational_points(), rational_points())
    @settings(max_examples=100)
    def test_float_agrees_with_line_meets(self, p, q, r):
        p, q, r = (Point(float(v.x), float(v.y)) for v in (p, q, r))
        span2 = max(p.dist2(q), q.dist2(r), r.dist2(p))
        if abs((q - p).cross(r - p)) <= span2 / 100:   # keep angles away from 0
            return
        closed = (circumcircle(p, q, r).center, orthocentre(p, q, r))
        for got, want in zip(closed, _oracle_centres(p, q, r)):
            scale = max(1.0, *(abs(v) for pt in (p, q, r, want) for v in (pt.x, pt.y)))
            assert got.close_to(want, DEFAULT_EPS * scale)


class TestPower:
    def test_point_on_circle(self):
        c = circumcircle(V1, V2, V4)
        assert c.power(V1) == 0

    def test_center(self):
        c = Circle(Point(F(1), F(2)), F(9))
        assert c.power(Point(F(1), F(2))) == -9

    def test_orthocentre_vs_edge_circle(self):
        c = Circle(Point(F(-84), F(13)), F(22500))
        assert c.power(Point(F(36), F(51))) == -6656



@pytest.mark.parametrize("num, tolerated", [(F, False), (float, True)],
                         ids=["exact", "float"])
def test_eps_applies_to_float_residuals_only(num, tolerated):
    d, zero, one = num(1) / num(10**12), num(0), num(1)
    checks = (
        Line(one, zero, zero).contains(Point(d, zero), eps=1e-9),
        Circle(Point(zero, zero), one).contains(Point(one + d, zero), eps=1e-9),
        Line(one, zero, zero).is_perpendicular(Line(d, one, zero), eps=1e-9),
        approx_collinear(Point(zero, zero), Point(one, zero), Point(one, d)),
    )
    assert checks == (tolerated,) * 4


class TestRadical:
    def edge_circles(self):
        return [
            Circle(V2.midpoint(V4), V2.midpoint(V4).dist2(V2)),
            Circle(V4.midpoint(V1), V4.midpoint(V1).dist2(V4)),
            Circle(V1.midpoint(V2), V1.midpoint(V2).dist2(V1)),
        ]

    def test_radical_center_is_orthocentre(self):
        c1, c2, c3 = self.edge_circles()
        h = radical_axis(c1, c2).intersect(radical_axis(c1, c3))
        assert h == Point(F(36), F(51))
        assert radical_axis(c2, c3).contains(h)

    def test_concentric_rejected(self):
        with pytest.raises(ConcentricCircles):
            radical_axis(Circle(Point(0, 0), 1), Circle(Point(0, 0), 4))

    def test_int_input_stays_exact(self):
        axis = radical_axis(Circle(Point(0, 0), 4), Circle(Point(4, 0), 4))
        assert (axis.a, axis.b, axis.c) == (1, 0, 2)
        assert all(type(v) is int for v in (axis.a, axis.b, axis.c))

    @given(rational_points(), rational_points(), rationals, rationals)
    @settings(max_examples=100)
    def test_axis_perpendicular_to_center_line(self, p, q, r1, r2):
        if p == q or r1 <= 0 or r2 <= 0:
            return
        axis = radical_axis(Circle(p, r1), Circle(q, r2))
        d = q - p
        assert axis.normal().cross(d) == 0  # normal parallel to center line


class TestTangency:
    def test_incircle_internal(self):
        incircle = Circle(Point(F(12), F(-5)), F(5184))
        central = Circle(Point(F(0), F(0)), F(7225))
        assert tangency_classify(incircle, central) == Tangency.INTERNAL_TANGENT
        # distance identity 13 = 85 - 72
        assert incircle.center.dist2(central.center) == 169

    def test_excircle_external(self):
        excircle = Circle(Point(F(-84), F(-437)), F(129600))
        central = Circle(Point(F(0), F(0)), F(7225))
        assert tangency_classify(excircle, central) == Tangency.EXTERNAL_TANGENT

    def test_disjoint(self):
        assert (
            tangency_classify(Circle(Point(0, 0), 1), Circle(Point(10, 0), 1))
            == Tangency.DISJOINT
        )

    def test_identical_rejected(self):
        c = Circle(Point(F(0), F(0)), F(1))
        with pytest.raises(IdenticalCircles):
            tangency_classify(c, c)

    @given(
        st.fractions(min_value=0, max_value=20, max_denominator=10),
        st.fractions(min_value=F(1, 10), max_value=5, max_denominator=10),
        st.fractions(min_value=F(1, 10), max_value=5, max_denominator=10),
    )
    @settings(max_examples=200)
    def test_agrees_with_float_oracle(self, d, r1, r2):
        c1 = Circle(Point(F(0), F(0)), r1 * r1)
        c2 = Circle(Point(d, F(0)), r2 * r2)
        if c1 == c2:
            return
        kind = tangency_classify(c1, c2)
        fd, f1, f2 = float(d), float(r1), float(r2)
        if abs(fd - (f1 + f2)) < 1e-9:
            assert kind == Tangency.EXTERNAL_TANGENT
        elif abs(fd - abs(f1 - f2)) < 1e-9:
            assert kind == Tangency.INTERNAL_TANGENT
        elif fd > f1 + f2:
            assert kind == Tangency.DISJOINT
        elif fd < abs(f1 - f2):
            assert kind == Tangency.NESTED
        else:
            assert kind == Tangency.SECANT


class TestCrossRatio:
    def test_euler_harmonic(self):
        h = Point(F(36), F(51))
        o = Point(F(-36), F(-51))
        g = Point(F(-12), F(-17))
        dl = Point(F(-108), F(-153))
        assert cross_ratio(h, o, g, dl) == -1

    def test_parameter_formula(self):
        # parameters 1, -1, -1/3, -3 on a line give -1
        d = Point(F(3), F(7))
        pts = [Point(t * d.x, t * d.y) for t in (F(1), F(-1), F(-1, 3), F(-3))]
        assert cross_ratio(*pts) == -1

    def test_int_input_stays_exact(self):
        pts = (Point(0, 0), Point(3, 0), Point(1, 0), Point(-3, 0))
        ratio = cross_ratio(*pts)
        assert ratio == -1 and is_exact(ratio)
        # a vertical line takes the parameter from y
        assert cross_ratio(*(Point(p.y, p.x) for p in pts)) == -1

    def test_coincident_rejected(self):
        p = Point(F(0), F(0))
        with pytest.raises(CoincidentPoints):
            cross_ratio(p, Point(F(1), F(0)), p, Point(F(2), F(0)))

    def test_not_collinear_rejected(self):
        with pytest.raises(NotCollinear):
            cross_ratio(
                Point(F(0), F(0)),
                Point(F(1), F(0)),
                Point(F(0), F(1)),
                Point(F(2), F(0)),
            )

    @given(rationals, rationals, rationals, rationals, rational_points(), rational_points())
    @settings(max_examples=100)
    def test_affine_invariance(self, t1, t2, t3, t4, origin, d):
        ts = [t1, t2, t3, t4]
        if len(set(ts)) < 4 or (d.x == 0 and d.y == 0):
            return
        pts1 = [Point(origin.x + t * d.x, origin.y + t * d.y) for t in ts]
        # reparameterize: shift and scale the parameters
        pts2 = [
            Point(origin.x + (2 * t + 5) * d.x, origin.y + (2 * t + 5) * d.y)
            for t in ts
        ]
        assert cross_ratio(*pts1) == cross_ratio(*pts2)


def cevians_concur(tri, cuts):
    cevians = [Line.through(v, c) for v, c in zip(tri, cuts)]
    return cevians[2].contains(cevians[0].intersect(cevians[1]))


class TestFootAndCeva:
    def test_vertical_foot(self):
        assert foot_of_perpendicular(V1, EDGE_24) == Point(F(36), F(-77))

    def test_medians_ceva(self):
        cuts = [V2.midpoint(V4), V4.midpoint(V1), V1.midpoint(V2)]
        assert cevians_concur([V1, V2, V4], cuts)

    def test_gergonne_cevians(self):
        # incircle touch points of the canonical triangle
        incenter = Point(F(12), F(-5))
        cuts = [
            foot_of_perpendicular(incenter, Line.through(V2, V4)),
            foot_of_perpendicular(incenter, Line.through(V4, V1)),
            foot_of_perpendicular(incenter, Line.through(V1, V2)),
        ]
        assert cuts[0] == Point(F(12), F(-77))
        assert cevians_concur([V1, V2, V4], cuts)


class TestScalarSerialization:
    def test_exact_roundtrip(self):
        assert format_scalar(F(3, 7)) == "3/7"
        assert format_scalar(F(5)) == "5"
        assert F(format_scalar(F(-3, 7))) == F(-3, 7)

    def test_approx(self):
        assert format_scalar(0.5) == "0.5"


def test_is_exact_by_type():
    assert is_exact(3) and is_exact(F(1, 3))
    assert not is_exact(0.5) and not is_exact(True)


class TestLineNormalization:
    def test_hashable_equality(self):
        l1 = Line(F(2), F(4), F(6))
        l2 = Line(F(1), F(2), F(3))
        assert l1 == l2
        assert hash(l1) == hash(l2)

    def test_sign_canonical(self):
        assert Line(F(-1), F(2), F(3)) == Line(F(1), F(-2), F(-3))

    def test_fractions_clear_to_ints(self):
        line = Line(F(1, 2), F(1, 3), 1)
        assert line == Line(3, 2, 6) and hash(line) == hash(Line(3, 2, 6))
        assert (line.a, line.b, line.c) == (3, 2, 6)

    @given(rationals, rationals, rationals)
    @settings(max_examples=100)
    def test_exact_coefficients_are_coprime_ints(self, a, b, c):
        if a == 0 and b == 0:
            return
        line = Line(a, b, c)
        assert all(type(v) is int for v in (line.a, line.b, line.c))
        assert math.gcd(line.a, line.b, line.c) == 1
        assert line.a > 0 or (line.a == 0 and line.b > 0)
        # the same line: the triples are proportional
        assert a * line.b == b * line.a
        assert a * line.c == c * line.a and b * line.c == c * line.b


def test_no_assert_statements_in_package():
    """Checks raise typed errors, so ``python -O`` cannot strip them."""
    src = pathlib.Path(__file__).parent.parent / "src" / "quadgeo"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
