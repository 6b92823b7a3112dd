"""Quadration, twinning, Euler ranges, medial circles."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from quadgeo import drozfarny, quadrangle, touch, wallace
from quadgeo.kernel import Circle, Line, Point, DegenerateInput
from quadgeo.quadrangle import (
    LABELS,
    AmbiguousLabeling,
    Triangle,
    acute_census,
    as_triangle,
    altitudes,
    euler_range,
    medial_circles,
    quadrate,
    quadration_edges,
    triangle_metrics,
)

F = Fraction
V1 = Point(F(36), F(103))
V2 = Point(F(-204), F(-77))
V4 = Point(F(132), F(-77))


@pytest.fixture(scope="module")
def q():
    return quadrate(V1, V2, V4)


def twin_circle(q, l):
    """The circumcircle of face l: centred at twin(l)."""
    return Circle(q.twins[l], q.twins[l].dist2(q.face(l)[0]))


class TestQuadrate:
    def test_canonical_labels(self, q):
        assert q.vertices[7] == Point(F(36), F(51))
        assert q.vertices[1] == V1
        assert q.center == Point(F(0), F(0))
        assert q.central_circle.r2 == 7225

    def test_midpoints_and_diagonals(self, q):
        assert q.midpoints[(6, False)] == Point(F(-36), F(-77))
        assert q.midpoints[(5, False)] == Point(F(84), F(13))
        assert q.midpoints[(3, False)] == Point(F(-84), F(13))
        assert q.diagonals[(6, False)] == Point(F(36), F(-77))
        for p in list(q.midpoints.values()) + list(q.diagonals.values()):
            assert q.central_circle.contains(p)

    def test_vertex_sum_zero(self, q):
        total = Point(F(0), F(0))
        for l in LABELS:
            total = total + (q.vertices[l] - q.center)
        assert total == Point(F(0), F(0))

    def test_each_vertex_is_orthocentre_of_face(self, q):
        from quadgeo.quadrangle import orthocentre

        for l in LABELS:
            assert orthocentre(*q.face(l)) == q.vertices[l]

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            quadrate(Point(F(0), F(0)), Point(F(1), F(0)), Point(F(2), F(0)))

    def test_right_seed_rejected(self):
        with pytest.raises(AmbiguousLabeling):
            quadrate(Point(F(0), F(0)), Point(F(4), F(0)), Point(F(0), F(3)))

    def test_isosceles_seed_rejected(self):
        with pytest.raises(AmbiguousLabeling):
            quadrate(Point(F(0), F(0)), Point(F(4), F(0)), Point(F(2), F(5)))

    def test_circumradii_all_equal(self, q):
        from quadgeo.kernel import circumcircle

        radii = set()
        for qq in (q, q.twin_quadrangle):
            for l in LABELS:
                radii.add(circumcircle(*qq.face(l)).r2)
        assert radii == {F(28900)}


class TestTwin:
    def test_twin_vertex(self, q):
        assert q.twins[1] == Point(F(-36), F(-103))

    def test_involution(self, q):
        assert q.twin_quadrangle.twin_quadrangle == q

    def test_circumcentre_is_twin(self, q):
        from quadgeo.kernel import circumcircle

        assert circumcircle(*q.face(7)).center == q.twins[7]


class TestEulerRange:
    def test_canonical(self, q):
        er = euler_range(q, 7)
        assert er.de_longchamps == Point(F(-108), F(-153))
        assert er.centroid == Point(F(-12), F(-17))
        assert er.circumcentre == Point(F(-36), F(-51))
        assert er.harmonic()

    def test_all_four_harmonic(self, q):
        for l in LABELS:
            assert euler_range(q, l).harmonic()


class TestMedial:
    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInput):
            medial_circles(Point(F(0), F(0)), Point(F(1), F(0)), Point(F(2), F(0)))

    def test_radical_axes_are_altitudes(self):
        md = medial_circles(V1, V2, V4)
        alts = altitudes(V1, V2, V4)
        assert set(md.radical_axes) == set(alts)

    def test_canonical_metrics(self):
        m = triangle_metrics(V1, V2, V4)
        assert (m.a, m.b, m.c) == (336, 204, 300)
        assert m.s == 420
        assert m.area == 30240
        assert (m.r, m.r1) == (72, 360)
        # R = 170: (2R·sinA)² + (2R·cosA)² = (2R)², and the diagonal
        # entries of quadration_edges are 2R·sinA, 2R·sinB, 2R·sinC
        edges = quadration_edges((V1, V2, V4))
        assert edges[0][0] ** 2 + edges[1][0] ** 2 == 340 ** 2
        assert tuple(edges[i][i] / 340 for i in range(3)) == (
            F(84, 85), F(3, 5), F(15, 17)
        )

    @pytest.mark.parametrize("x", [0.3, 2, 5, 9.7, 12, -3])
    def test_float_sliver_rejected(self, x):
        # s - a, s - b or s - c rounds to 0 in floats
        tri = (Point(0.0, 0.0), Point(10.0, 0.0), Point(x, 1e-8))
        for construct in (
            lambda t: triangle_metrics(*t), touch.touch_circles, touch.hexaflex
        ):
            with pytest.raises(DegenerateInput):
                construct(tri)


class TestAngleTables:
    def test_canonical_edges(self, q):
        edges = quadration_edges((V1, V2, V4))
        assert edges[0] == (336, 272, 160)
        # matches actual vertex distances of face 1 (triangle 724)
        face = q.face(1)
        d2s = sorted(
            [face[0].dist2(face[1]), face[1].dist2(face[2]), face[2].dist2(face[0])]
        )
        assert d2s == sorted([x * x for x in edges[0]])


class TestCensus:
    def test_canonical(self, q):
        assert acute_census(q) == {"acute": 1, "obtuse": 3}

    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    )
    @settings(max_examples=150)
    def test_always_one_acute(self, x1, y1, x2, y2, x3, y3):
        pts = [Point(F(x1), F(y1)), Point(F(x2), F(y2)), Point(F(x3), F(y3))]
        try:
            qq = quadrate(*pts)
        except (DegenerateInput, AmbiguousLabeling):
            return
        assert acute_census(qq) == {"acute": 1, "obtuse": 3}

    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    )
    @settings(max_examples=150)
    @example(-12, 17, -19, 3, 9, 17)  # faces 2 and 7 are isosceles
    def test_requadration_reproduces_point_set(self, x1, y1, x2, y2, x3, y3):
        pts = [Point(F(x1), F(y1)), Point(F(x2), F(y2)), Point(F(x3), F(y3))]
        try:
            qq = quadrate(*pts)
        except (DegenerateInput, AmbiguousLabeling):
            return
        original = set(qq.vertices.values())
        for l in LABELS:
            try:
                qq2 = quadrate(*qq.face(l))
            except AmbiguousLabeling:
                continue  # an isosceles face of a scalene seed
            assert set(qq2.vertices.values()) == original


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of ``module`` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def perpendicular_pair(h, t):
    d = Point(1 - t * t, 2 * t)
    return (
        Line.from_point_direction(h, d),
        Line.from_point_direction(h, Point(-d.y, d.x)),
    )


# pair directions that no edge of face 7 is parallel to
PAIR_T = (F(1, 5), F(2, 7), F(3, 11), F(4, 9))


class TestTriangle:
    def test_as_triangle(self):
        tri = Triangle((V1, V2, V4))
        assert as_triangle(tri) is tri
        wrapped = as_triangle([V1, V2, V4])
        assert isinstance(wrapped, Triangle)
        assert wrapped == (V1, V2, V4)

    def test_face_orthocentre_and_circumcircle(self, q):
        for l in LABELS:
            assert isinstance(q.face(l), Triangle)
            assert q.face(l).orthocentre == q.vertices[l]
            assert q.face(l).circumcircle == twin_circle(q, l)

    @given(*[st.integers(min_value=-20, max_value=20) for _ in range(6)])
    @settings(max_examples=100)
    def test_face_data_on_random_quadrangles(self, x1, y1, x2, y2, x3, y3):
        pts = [Point(F(x1), F(y1)), Point(F(x2), F(y2)), Point(F(x3), F(y3))]
        try:
            qq = quadrate(*pts)
        except (DegenerateInput, AmbiguousLabeling):
            return
        for l in LABELS:
            face = qq.face(l)
            assert face.orthocentre == qq.vertices[l]
            assert face.circumcircle == twin_circle(qq, l)
            assert face.edges == tuple(
                Line.through(face[i - 2], face[i - 1]) for i in range(3)
            )
        for a, b in combinations(LABELS, 2):
            assert qq.edge(a, b) == Line.through(qq.vertices[a], qq.vertices[b])
        # the twin quadrangle is the reflection through the Centre
        c2 = qq.center.scale(2)
        tq = qq.twin_quadrangle
        assert tq.midpoints == {k: c2 - p for k, p in qq.midpoints.items()}
        assert tq.diagonals == {k: c2 - p for k, p in qq.diagonals.items()}
        assert tq.central_circle == qq.central_circle
        wallace.three_cycles(qq)

    def test_df_lines_derive_orthocentre_and_circumcircle_once(self, monkeypatch):
        q = quadrate(V1, V2, V4)
        calls = count_calls(monkeypatch, quadrangle, "orthocentre", "circumcircle")
        tri = q.face(7)
        for t in PAIR_T:
            inst = drozfarny.df_line(tri, perpendicular_pair(q.vertices[7], t))
            assert drozfarny.verify_instance(inst)
            assert all(drozfarny.parabola_tangency_audit(inst).values())
        assert calls == {"orthocentre": 1, "circumcircle": 1}

    def test_wallace_lines_derive_orthocentre_and_circumcircle_once(self, monkeypatch):
        q = quadrate(V1, V2, V4)
        calls = count_calls(monkeypatch, quadrangle, "orthocentre", "circumcircle")
        tri = q.face(7)
        circ = twin_circle(q, 7)
        for t in PAIR_T:
            wallace.wallace_line(tri, wallace.rational_circle_point(circ, V1, t))
        assert calls == {"orthocentre": 1, "circumcircle": 1}

    def test_face_touch_circles_build_three_edge_lines(self, monkeypatch):
        q = quadrate(V1, V2, V4)
        calls = []
        through = Line.through

        def counted(p, r):
            calls.append((p, r))
            return through(p, r)

        monkeypatch.setattr(Line, "through", staticmethod(counted))
        tcs = touch.touch_circles(q.face(7))
        assert len(tcs) == 4
        for tc in tcs:
            assert len(tc.touch_points) == 3
        assert len(calls) == 3

    def test_soddy_computes_metrics_once(self, monkeypatch):
        q = quadrate(V1, V2, V4)
        calls = count_calls(monkeypatch, quadrangle, "triangle_metrics")
        touch.soddy(q.face(7))
        assert calls == {"triangle_metrics": 1}

    def test_plain_list_and_triangle_agree(self, q):
        # the benchmark passes plain lists of vertices
        face = q.face(7)
        pair = perpendicular_pair(q.vertices[7], PAIR_T[0])
        assert drozfarny.df_line(list(face), pair) == drozfarny.df_line(face, pair)
        s = wallace.rational_circle_point(twin_circle(q, 7), V1, PAIR_T[1])
        assert wallace.wallace_line(list(face), s) == wallace.wallace_line(face, s)
