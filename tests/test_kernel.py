"""Kernel primitives: oracle examples plus property tests."""

import ast
import copy
import math
import pathlib
import pickle
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quadgeo.kernel import (
    DEFAULT_EPS,
    Circle,
    Conic,
    ConicKind,
    CoincidentPoints,
    ConcentricCircles,
    DegenerateInput,
    IdenticalCircles,
    Line,
    NotCollinear,
    Point,
    Tangency,
    _TriplePoint,
    _hom,
    _point_of,
    circumcircle,
    collinear,
    cross_ratio,
    float_xy,
    foot_of_perpendicular,
    format_scalar,
    is_exact,
    primitive_integers,
    radical_axis,
    reflect_line_in_line,
    reflect_point_in_line,
    residual_ratio,
    tangency_classify,
    vanishes,
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
            assert abs(image.evaluate(reflect_point_in_line(p, mirror))) <= 1e-12


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
            tol = DEFAULT_EPS * max(1.0, *(abs(v) for pt in (p, q, r, want) for v in (pt.x, pt.y)))
            assert abs(got.x - want.x) <= tol and abs(got.y - want.y) <= tol


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
        Line(one, zero, zero).contains(Point(d, one)),
        Circle(Point(zero, zero), one).contains(Point(one + d, zero)),
        Line(one, zero, zero).is_perpendicular(Line(d, one, zero)),
        collinear(Point(zero, zero), Point(one, zero), Point(one, d)),
    )
    assert checks == (tolerated,) * 4


def _off_by(k):
    """Each float predicate on data whose residual is k·DEFAULT_EPS times the
    magnitude m of its expression (r/m = k up to rounding)."""
    t = k * DEFAULT_EPS
    c = Circle(Point(1.0, 2.0), 25.0)           # m = |p − c|² + r2 = 50
    return {
        "vanishes": vanishes(t * 7.0, 7.0),
        # (3, 4) is on 0.6x + 0.8y = 5; m = |p| + |c| = 10
        "Line.contains": Line(0.6, 0.8, 5.0).contains(Point(3 + 6 * t, 4 + 8 * t)),
        "Circle.contains": c.contains(Point(1 + math.sqrt(25 + 50 * t), 2.0)),
        # B×C = 3h against (|p| + |q|)·|C| + |B|·(|p| + |r|) = 100
        "collinear": collinear(Point(0.0, 0.0), Point(3.0, 4.0), Point(6.0, 8 + 100 * t / 3)),
        # unit normals: m = 1
        "Line.is_parallel": Line(1.0, 0.0, 0.0).is_parallel(Line(1.0, t, 0.0)),
        "Line.is_perpendicular": Line(1.0, 0.0, 0.0).is_perpendicular(Line(t, 1.0, 0.0)),
        # m = |p| + |q| = 10
        "Point.close_to": Point(3.0, 4.0).close_to(Point(3.0, 4 + 10 * t)),
    }


@pytest.mark.parametrize("k, holds", [(0.5, True), (2.0, False)])
def test_float_residual_boundary(k, holds):
    """A float residual at half of DEFAULT_EPS·m passes; at twice it fails."""
    got = _off_by(k)
    assert got == dict.fromkeys(got, holds)


def test_exact_residual_of_1e_minus_30_fails():
    d = F(1, 10**30)
    assert not vanishes(d, 10**40)
    assert not Line(1, 0, 0).contains(Point(d, 1))
    assert not Circle(Point(0, 0), 1).contains(Point(1 + d, 0))
    assert not collinear(Point(0, 0), Point(1, 0), Point(1, d))
    assert not Line(1, 0, 0).is_parallel(Line(1, d, 0))
    assert not Line(1, 0, 0).is_perpendicular(Line(d, 1, 0))
    assert not Point(F(1), F(1)).close_to(Point(1 + d, F(1)))


def test_residual_ratio():
    assert residual_ratio(0.0, 0.0) == 0.0 and residual_ratio(F(0), 0) == 0
    assert residual_ratio(-3.0, 2.0) == 1.5 and residual_ratio(F(-3), 2) == F(3, 2)
    # an exact residual carries no magnitude: nonzero, it is infinitely off
    assert residual_ratio(*Line(1, 0, 0).residual(Point(F(1, 10**30), 1))) == math.inf


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

    def test_float_tangent_pairs(self):
        """Float circles at distance r1 + r2 or |r1 − r2| are tangent up to
        rounding, and 1e-6 off that distance they are not."""
        rng = random.Random(1)
        want = {
            "external": (Tangency.SECANT, Tangency.EXTERNAL_TANGENT, Tangency.DISJOINT),
            "internal": (Tangency.NESTED, Tangency.INTERNAL_TANGENT, Tangency.SECANT),
        }
        for kind, classes in want.items():
            for _ in range(300):
                c = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                r1, r2 = rng.uniform(1, 5), rng.uniform(1, 5)
                if kind == "internal":
                    r2 = r1 + rng.uniform(0.5, 2.5)
                d = r1 + r2 if kind == "external" else r2 - r1
                t = rng.uniform(0, 2 * math.pi)
                for off, cls in zip((-1e-6, 0.0, 1e-6), classes):
                    o = Point(c.x + (d + off) * math.cos(t), c.y + (d + off) * math.sin(t))
                    assert tangency_classify(Circle(c, r1 * r1), Circle(o, r2 * r2)) == cls

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


def _exact_scalars(bits):
    """An int or a Fraction with numerator and denominator of up to ``bits``
    bits."""
    n = 2 ** bits
    ints = st.integers(-n, n)
    return st.one_of(ints, st.builds(F, ints, st.integers(1, n)))


#: int, Fraction and mixed coordinates, at 4-bit and at 64-bit sizes
exact_scalars = st.one_of(_exact_scalars(4), _exact_scalars(64))
exact_points = st.builds(Point, exact_scalars, exact_scalars)


def _coprime(*values):
    """Reference normaliser over Fractions: clear denominators, divide by the
    gcd, make the first nonzero entry positive."""
    values = [F(v) for v in values]
    ints = [int(v * math.lcm(*(v.denominator for v in values))) for v in values]
    g = math.gcd(*ints)
    if next(n for n in ints if n) < 0:
        g = -g
    return tuple(n // g for n in ints)


def _fractions(*points):
    return [(F(p.x), F(p.y)) for p in points]


def _ref_project(p, line, k):
    """p − k·(a·x + b·y − c)/(a² + b²)·(a, b), over Fractions."""
    (x, y), (a, b, c) = _fractions(p)[0], (F(line.a), F(line.b), F(line.c))
    t = k * (a * x + b * y - c) / (a * a + b * b)
    return x - t * a, y - t * b


def _is_fraction_point(p):
    return type(p.x) is Fraction and type(p.y) is Fraction


class TestIntegerPaths:
    """The primitives read exact points as integer triples; each equals the
    textbook formula evaluated over Fractions, with the same result types,
    and input with a float coordinate, read as a triple with W = 1, gives
    float results."""

    @given(exact_points, exact_points)
    @settings(max_examples=150)
    def test_line_through(self, p, q):
        if p == q:
            return
        (px, py), (qx, qy) = _fractions(p, q)
        dx, dy = qx - px, qy - py
        line = Line.through(p, q)
        assert (line.a, line.b, line.c) == _coprime(dy, -dx, dy * px - dx * py)
        assert all(type(v) is int for v in (line.a, line.b, line.c))

    @given(exact_points, exact_points)
    @settings(max_examples=150)
    def test_point_direction_and_normal(self, p, d):
        if d.x == 0 and d.y == 0:
            return
        (px, py), (dx, dy) = _fractions(p, d)
        along, across = Line.from_point_direction(p, d), Line.from_point_normal(p, d)
        assert (along.a, along.b, along.c) == _coprime(dy, -dx, dy * px - dx * py)
        assert (across.a, across.b, across.c) == _coprime(dx, dy, dx * px + dy * py)

    @given(exact_points, exact_points, exact_points)
    @settings(max_examples=150)
    def test_reflection_and_foot(self, p, q, r):
        if q == r:
            return
        line = Line.through(q, r)
        image, foot = reflect_point_in_line(p, line), foot_of_perpendicular(p, line)
        assert (image.x, image.y) == _ref_project(p, line, 2)
        assert (foot.x, foot.y) == _ref_project(p, line, 1)
        assert _is_fraction_point(image) and _is_fraction_point(foot)

    @given(exact_points, exact_points, exact_points)
    @settings(max_examples=150)
    def test_circumcircle(self, p, q, r):
        (px, py), (qx, qy), (rx, ry) = _fractions(p, q, r)
        bx, by, cx, cy = qx - px, qy - py, rx - px, ry - py
        d = 2 * (bx * cy - by * cx)
        if d == 0:
            with pytest.raises(DegenerateInput):
                circumcircle(p, q, r)
            return
        bb, cc = bx * bx + by * by, cx * cx + cy * cy
        ox, oy = (cy * bb - by * cc) / d, (bx * cc - cx * bb) / d
        circ = circumcircle(p, q, r)
        assert (circ.center.x, circ.center.y) == (px + ox, py + oy)
        assert circ.r2 == ox * ox + oy * oy
        assert _is_fraction_point(circ.center) and type(circ.r2) is Fraction

    @given(exact_points, exact_points, exact_points, exact_scalars)
    @settings(max_examples=150)
    def test_line_contains_and_collinear(self, p, q, r, k):
        if q == r:
            return
        line = Line.through(q, r)
        (px, py), (qx, qy), (rx, ry) = _fractions(p, q, r)
        on = Point(qx + k * (rx - qx), qy + k * (ry - qy))
        assert line.contains(on) and collinear(q, r, on)
        assert line.contains(p) == (line.a * px + line.b * py == line.c)
        assert collinear(p, q, r) == ((qx - px) * (ry - py) == (qy - py) * (rx - px))

    @given(exact_points, exact_points, exact_points)
    @settings(max_examples=150)
    def test_circle_contains(self, c, p, q):
        (cx, cy), (px, py), (qx, qy) = _fractions(c, p, q)
        circle = Circle(c, (px - cx) ** 2 + (py - cy) ** 2)
        assert circle.contains(p)
        assert circle.contains(q) == ((qx - cx) ** 2 + (qy - cy) ** 2 == circle.r2)

    @given(exact_points, exact_scalars, exact_scalars, st.integers(0, 3),
           st.sampled_from([(3, 4), (-5, 12), (8, -15), (1, 0)]))
    @settings(max_examples=200)
    def test_tangency_classify(self, c, r1, r2, shift, direction):
        """Circles of radii |r1|, |r2| at distance |r1| + |r2| (external),
        ||r1| - |r2|| (internal) and beyond (disjoint or nested)."""
        r1, r2 = abs(F(r1)) or F(1), abs(F(r2)) or F(2)
        u, v = direction
        n = math.isqrt(u * u + v * v)
        for dist in (r1 + r2, abs(r1 - r2), r1 + r2 + shift, F(shift, 3)):
            other = Point(c.x + dist * u / n, c.y + dist * v / n)
            c1, c2 = Circle(c, r1 * r1), Circle(other, r2 * r2)
            if c1 == c2:
                continue
            d2, a2, b2 = F(dist) ** 2, r1 * r1, r2 * r2
            lhs = d2 - a2 - b2
            disc = lhs * lhs - 4 * a2 * b2
            if disc == 0:
                want = (Tangency.INTERNAL_TANGENT if d2 < a2 + b2
                        else Tangency.EXTERNAL_TANGENT)
            elif disc < 0:
                want = Tangency.SECANT
            else:
                want = Tangency.DISJOINT if lhs > 0 else Tangency.NESTED
            assert tangency_classify(c1, c2) == want

    @given(exact_points, exact_points, exact_points, exact_points)
    @settings(max_examples=100)
    def test_conic_is_tangent(self, f1, f2, q, r):
        if q == r:
            return
        line = Line.through(q, r)
        mx, my = _ref_project(f1, line, 2)
        (fx, fy), = _fractions(f2)
        axis2 = (mx - fx) ** 2 + (my - fy) ** 2
        if axis2 == 0:
            return
        assert Conic(f1, f2, axis2, ConicKind.ELLIPSE).is_tangent(line)
        assert not Conic(f1, f2, axis2 + 1, ConicKind.ELLIPSE).is_tangent(line)

    @given(exact_points, exact_points, exact_points)
    @settings(max_examples=150)
    def test_orthocentre(self, p, q, r):
        (px, py), (qx, qy), (rx, ry) = _fractions(p, q, r)
        bx, by, cx, cy = qx - px, qy - py, rx - px, ry - py
        cross = bx * cy - by * cx
        if cross == 0:
            with pytest.raises(DegenerateInput):
                orthocentre(p, q, r)
            return
        k = (bx * cx + by * cy) / cross
        h = orthocentre(p, q, r)
        assert (h.x, h.y) == (px + k * (cy - by), py + k * (bx - cx))
        assert _is_fraction_point(h)

    @given(st.lists(_exact_scalars(4), min_size=6, max_size=6), st.integers(0, 5))
    @settings(max_examples=150)
    def test_orthocentre_mixed_input(self, coords, i):
        """One coordinate a float: on a triangle of twice its area at least
        1, the result is a float point within a relative 1e-9 of the formula
        over Fractions."""
        exact = [Point(coords[j], coords[j + 1]) for j in (0, 2, 4)]
        (px, py), (qx, qy), (rx, ry) = _fractions(*exact)
        bx, by, cx, cy = qx - px, qy - py, rx - px, ry - py
        cross = bx * cy - by * cx
        if abs(cross) < 1:
            return
        k = (bx * cx + by * cy) / cross
        want = (px + k * (cy - by), py + k * (bx - cx))
        coords[i] = float(coords[i])
        h = orthocentre(*(Point(coords[j], coords[j + 1]) for j in (0, 2, 4)))
        assert type(h.x) is float and type(h.y) is float
        scale = max(1, *(abs(v) for v in want))
        assert all(abs(g - w) <= 1e-9 * scale for g, w in zip((h.x, h.y), want))

    @given(st.lists(exact_scalars, min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_primitive_integers(self, values):
        if not any(values):
            return
        got = primitive_integers(values)
        assert got == _coprime(*values)
        assert all(type(n) is int for n in got)

    def test_mixed_input_gives_float_results(self):
        half = Point(F(1, 2), 0.25)
        q, r = Point(0, 0), Point(F(3), F(4))
        line = Line.through(q, r)
        for got in (
            reflect_point_in_line(half, line),
            foot_of_perpendicular(half, line),
            circumcircle(half, q, r).center,
            orthocentre(half, q, r),
        ):
            assert type(got.x) is float and type(got.y) is float
        mixed = Line.through(half, r)
        assert all(type(v) is float for v in (mixed.a, mixed.b, mixed.c))
        along = Line.from_point_direction(half, Point(F(3), F(4)))
        assert type(along.a) is float
        assert type(circumcircle(half, q, r).r2) is float
        # the float predicates agree with their float residuals
        assert line.contains(Point(0.75, 1.0)) and collinear(q, r, Point(1.5, 2.0))
        assert line.contains(Point(0.3, 0.4))
        assert Circle(Point(0.0, 0.0), 25.0).contains(r)
        assert not Circle(Point(0, 0), 25).contains(Point(5.0, 1e-3))


float_coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
float_points = st.builds(Point, float_coords, float_coords)


def _triples(bits):
    n = 2 ** bits
    ints = st.integers(-n, n)
    return st.tuples(ints, ints, ints.filter(bool))


#: (X, Y, W) with W ≠ 0, not necessarily reduced, at 4-, 64- and 256-bit sizes
triples = st.one_of(_triples(4), _triples(64), _triples(256))

#: the prime of Python's numeric hash: a W that it divides has no inverse mod M
M = sys.hash_info.modulus


def _hex(xy):
    return [c.hex() for c in xy]


class TestTriplePoints:
    """A construction over ints makes its point from the triple alone; the
    point is the one its `Fraction` coordinates give, in value, hash, repr
    and arithmetic, and float and mixed points compare as before."""

    @given(triples, exact_scalars)
    @example((6, 8, 2), 0)
    @example((-1, -3, 3), 0)
    @example((1, 2, M), 0)
    @example((M, -2, M), 0)
    @example((3 * M, 1, 2 * M), 0)
    @settings(max_examples=200)
    def test_same_point_as_its_fractions(self, t, d):
        x, y, w = t
        p, q = _point_of(x, y, w), Point(F(x, w), F(y, w))
        # floats and hash come from the triple, equal to the Fractions' own
        assert _hex(float_xy(p)) == _hex((float(q.x), float(q.y)))
        assert hash(p) == hash((q.x, q.y))
        assert "x" not in vars(p) or _hom(p)[2] % M == 0
        assert p == q and q == p and hash(p) == hash(q)
        if x % w == 0 and y % w == 0:
            # the same point given by int coordinates
            n = Point(x // w, y // w)
            assert n == p and p == n and n == q and hash(n) == hash(p)
        assert _is_fraction_point(p) and (p.x, p.y) == (q.x, q.y)
        assert repr(p) == repr(q) and copy.deepcopy(p) == p
        # stored reduced with W > 0; coordinates read as the same triple
        tx, ty, tw = _hom(p)
        assert tw > 0 and math.gcd(tx, ty, tw) == 1 and _hom(q) == (tx, ty, tw)
        moved = replace(p, x=p.x + d)
        assert moved == Point(q.x + d, q.y) and (moved == p) == (d == 0)

    @given(triples, exact_points, exact_scalars)
    @settings(max_examples=200)
    def test_arithmetic_matches_fractions(self, t, q, k):
        p = _point_of(*t)
        # the reference is Fraction arithmetic on the coordinates
        (a, b), (c, d) = (p.x, p.y), (F(q.x), F(q.y))
        pairs = [
            (p + q, (a + c, b + d)), (q + p, (c + a, d + b)),
            (p - q, (a - c, b - d)), (q - p, (c - a, d - b)),
            (-p, (-a, -b)), (p.scale(k), (k * a, k * b)),
            (p.midpoint(q), ((a + c) / 2, (b + d) / 2)),
            (q.midpoint(p), ((c + a) / 2, (d + b) / 2)),
        ]
        for got, want in pairs:
            assert (got.x, got.y) == want and got == Point(*want)
            assert _is_fraction_point(got)
        assert (p.dot(q), p.cross(q)) == (a * c + b * d, a * d - b * c)
        assert (p.norm2(), q.norm2()) == (a * a + b * b, c * c + d * d)
        assert p.dist2(q) == q.dist2(p) == (a - c) ** 2 + (b - d) ** 2

    @given(triples, float_coords, float_coords)
    @example((1, 0, 3), 1 / 3, 0.0)
    @example((2, -1, 4), 0.5, 0.25)
    @example((3, 4, 1), 3.0, 4.0)
    @settings(max_examples=200)
    def test_float_and_mixed_points_compare_by_coordinates(self, t, fx, fy):
        p = _point_of(*t)
        for other in (Point(fx, fy), Point(p.x, fy), Point(fx, p.y)):
            assert _hex(float_xy(other)) == _hex((float(other.x), float(other.y)))
            want = (p.x, p.y) == (other.x, other.y)
            assert (p == other) == want and (other == p) == want
            assert not want or hash(p) == hash(other)
            assert (p + other) == Point(p.x + other.x, p.y + other.y)
        exact_float = Point(float(p.x), float(p.y))
        if (exact_float.x, exact_float.y) == (p.x, p.y):
            assert exact_float == p and hash(exact_float) == hash(p)


class TestOneExactForm:
    """Every exact point is a `_TriplePoint` that keeps the coordinates it
    was given, and a point with a float coordinate stays a plain `Point`;
    copying, pickling and `dataclasses.replace` land on the same form."""

    def test_exact_coordinates_make_a_triple_point(self):
        for x, y, t in ((F(1, 2), F(-1, 3), (3, -2, 6)), (3, 4, (3, 4, 1)), (F(5, 4), -2, (5, -8, 4))):
            p = Point(x, y)
            assert type(p) is _TriplePoint and p.is_exact()
            assert p._t == t and _hom(p) is p._t
            assert p.x is x and p.y is y

    def test_float_coordinate_stays_plain(self):
        for p in (Point(F(1, 2), 0.25), Point(0.5, 0.25), Point(3, 4.0)):
            assert type(p) is Point and not p.is_exact() and "_t" not in vars(p)
            assert _hom(p) == (float(p.x), float(p.y), 1)

    @pytest.mark.parametrize("p", [Point(3, 4), Point(F(1, 2), F(-1, 3)), _point_of(2, -4, 6)])
    def test_copy_pickle_and_replace(self, p):
        for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(q) is _TriplePoint and q == p and q._t == p._t
            assert (type(q.x), type(q.y)) == (type(p.x), type(p.y))
        moved = replace(p, y=F(7, 5))
        assert type(moved) is _TriplePoint and moved.y == F(7, 5)
        assert moved._t == Point(F(p.x), F(7, 5))._t
        floated = replace(p, x=0.5)
        assert type(floated) is Point and "_t" not in vars(floated)
        assert (floated.x, floated.y) == (0.5, p.y)
        back = replace(floated, x=p.x)
        assert type(back) is _TriplePoint and back._t == p._t


def _ref_float_line(p, q):
    """(d_y, −d_x, d_y·p_x − d_x·p_y) for d = q − p, scaled to a unit normal
    with the first nonzero of (a, b) positive, in floats."""
    dx, dy = q.x - p.x, q.y - p.y
    a, b, c = dy, -dx, dy * p.x - dx * p.y
    n = math.hypot(a, b)
    a, b, c = a / n, b / n, c / n
    if a < 0 or (abs(a) < 1e-15 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def _ref_float_project(p, line, k):
    """p − k·(a·x + b·y − c)/(a² + b²)·(a, b), in floats."""
    n2 = line.a * line.a + line.b * line.b
    t = k * (line.a * p.x + line.b * p.y - line.c)
    return p.x - t * line.a / n2, p.y - t * line.b / n2


class TestFloatInput:
    """A point with a float coordinate is the triple (x, y, 1): the
    primitives agree with the textbook float formulas, and a predicate on
    mixed input scales its tolerance by the exact operand's W."""

    @given(float_points, float_points, float_points)
    @settings(max_examples=200)
    def test_line_reflection_and_foot(self, p, q, r):
        if math.hypot(q.x - p.x, q.y - p.y) < 1:
            return
        tol = DEFAULT_EPS * max(1.0, *(abs(v) for v in (p.x, p.y, q.x, q.y, r.x, r.y)))
        line = Line.through(p, q)
        got = (line.a, line.b, line.c)
        assert all(type(v) is float for v in got)
        assert all(abs(g - w) <= tol for g, w in zip(got, _ref_float_line(p, q)))
        for k, project in ((2, reflect_point_in_line), (1, foot_of_perpendicular)):
            image = project(r, line)
            want = _ref_float_project(r, line, k)
            assert type(image.x) is float and type(image.y) is float
            assert abs(image.x - want[0]) <= tol and abs(image.y - want[1]) <= tol

    @given(float_points, st.floats(0.5, 100), st.floats(-math.pi, math.pi),
           st.floats(-1e-8, 1e-8))
    @settings(max_examples=200)
    def test_circle_contains(self, c, r, theta, delta):
        p = Point(c.x + (r + delta) * math.cos(theta), c.y + (r + delta) * math.sin(theta))
        d2 = (p.x - c.x) * (p.x - c.x) + (p.y - c.y) * (p.y - c.y)
        power = d2 - r * r
        assert Circle(c, r * r).contains(p) == (abs(power) <= DEFAULT_EPS * (d2 + r * r))

    @pytest.mark.parametrize("k", [-2.0, -1.1, -0.9, -0.5, 0.5, 0.9, 1.1, 2.0])
    def test_exact_circle_with_denominator_against_float_point(self, k):
        """Centre (1/3, 2/3) and r² = 25/4: the triple residual carries the
        factor d·w² = 4·9, which its magnitude must carry too, so that the
        power of p vanishes against |p − centre|² + r² = 12.5."""
        eps = DEFAULT_EPS * 12.5
        circle = Circle(Point(F(1, 3), F(2, 3)), F(25, 4))
        p = Point(1 / 3 + math.sqrt(6.25 + k * eps), 2 / 3)
        power = (p.x - 1 / 3) ** 2 + (p.y - 2 / 3) ** 2 - 6.25
        assert abs(abs(power) / eps - abs(k)) < 0.01
        assert circle.contains(p) == (abs(k) < 1)

    @pytest.mark.parametrize("k", [-2.0, -1.1, -0.9, -0.5, 0.5, 0.9, 1.1, 2.0])
    def test_exact_point_with_denominator_against_float_line(self, k):
        """p = (1/7, 2/7): the triple residual a·X + b·Y − c·W carries the
        factor W = 7, which its magnitude must carry too, so that the plain
        residual vanishes against |p| + |c|."""
        c = 0.6 / 7 + 0.8 * 2 / 7
        eps = DEFAULT_EPS * (math.sqrt(5) / 7 + c)
        p = Point(F(1, 7), F(2, 7))
        line = Line(0.6, 0.8, c + k * eps)
        plain = line.a * (1 / 7) + line.b * (2 / 7) - line.c
        assert abs(abs(plain) / eps - abs(k)) < 0.01
        assert line.contains(p) == (abs(k) < 1)
        # the plain cross product (q − p)×(r − p) is −h/7, against
        # (|p| + |q|)·|r − p| + |q − p|·(|p| + |r|) with |p| = |q − p| = √5/7,
        # |r − p| = √180/7 and |r| = √5
        eps = DEFAULT_EPS * (math.sqrt(5) * math.sqrt(180) / 49 + 5 / 49 + 5 / 7)
        r = Point(1.0, 2 + 7 * k * eps)
        assert collinear(p, Point(0.0, 0.0), r) == (abs(k) < 1)


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
