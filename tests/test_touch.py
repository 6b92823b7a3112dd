"""Touch circles, Feuerbach sweep, Gergonne/Nagel, Soddy, hexaflex."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadgeo import touch
from quadgeo.kernel import (
    Circle,
    DegenerateInput,
    IdentityViolated,
    Line,
    Point,
    Tangency,
    circumcircle,
    foot_of_perpendicular,
    tangency_classify,
)
from quadgeo.quadrangle import quadrate, triangle_metrics
from quadgeo.touch import (
    DegenerateParameters,
    NotATriangle,
    SoddyClass,
    bremner_critical,
    classify_soddy,
    cos_family,
    extraverted_gergonne_concurrence,
    feuerbach_verify,
    gergonne_nagel,
    hexaflex,
    soddy,
    touch_circles,
)

F = Fraction
V1 = Point(F(36), F(103))
V2 = Point(F(-204), F(-77))
V4 = Point(F(132), F(-77))


@pytest.fixture(scope="module")
def q():
    return quadrate(V1, V2, V4)


def _exact_scalars(bits):
    n = 2 ** bits
    ints = st.integers(-n, n)
    return st.one_of(ints, st.builds(F, ints, st.integers(1, n)))


#: int and Fraction parameters at 4-bit and at 64-bit sizes
exact_scalars = st.one_of(_exact_scalars(4), _exact_scalars(64))


class TestIntegerPaths:
    """The integer paths of triangle_metrics and touch_circles equal the
    textbook formulas over Fractions, on similarity images of t0, whose
    sides are |k|·(336, 204, 300)."""

    @given(st.integers(1, 16), st.integers(0, 16), exact_scalars, exact_scalars,
           exact_scalars)
    @settings(max_examples=100)
    def test_similarity_images_of_t0(self, m, n, k, tx, ty):
        if k == 0:
            return
        cos, sin = F(m * m - n * n, m * m + n * n), F(2 * m * n, m * m + n * n)
        tri = [Point(k * (cos * v.x - sin * v.y) + tx, k * (sin * v.x + cos * v.y) + ty)
               for v in (V1, V2, V4)]
        a, b, c = (abs(F(k)) * side for side in (336, 204, 300))
        s, area = (a + b + c) / 2, F(k) ** 2 * 30240
        m_ = triangle_metrics(*tri)
        radii = (area / s, area / (s - a), area / (s - b), area / (s - c))
        want = (a, b, c, s, area, *radii)
        got = (m_.a, m_.b, m_.c, m_.s, m_.area, m_.r, m_.r1, m_.r2, m_.r3)
        assert got == want and all(type(v) is Fraction for v in got)
        p, q, r = tri
        weights = ((a, b, c), (-a, b, c), (a, -b, c), (a, b, -c))
        for tc, (wa, wb, wc), rad in zip(touch_circles(tri), weights, radii):
            tot = wa + wb + wc
            centre = Point((wa * F(p.x) + wb * F(q.x) + wc * F(r.x)) / tot,
                           (wa * F(p.y) + wb * F(q.y) + wc * F(r.y)) / tot)
            assert tc.circle == Circle(centre, rad * rad)
            got = tc.circle.center
            assert type(got.x) is Fraction and type(got.y) is Fraction

    def test_irrational_sides_keep_the_generic_path(self):
        m = triangle_metrics(Point(0, 0), Point(1, 0), Point(0, 2))
        assert type(m.a) is float and m.b == 2 and m.c == 1
        assert m.area == 1 and type(m.area) is Fraction
        centre = touch_circles((Point(0, 0), Point(1, 0), Point(0, 2)))[0].circle.center
        assert type(centre.x) is float


class TestTouchCircles:
    def test_canonical_incircle_and_excircle(self):
        tcs = touch_circles((V1, V2, V4))
        by_ext = {tc.label[1]: tc for tc in tcs}
        assert by_ext["o"].circle == Circle(Point(F(12), F(-5)), F(5184))
        assert by_ext["a"].circle == Circle(Point(F(-84), F(-437)), F(129600))

    def test_incircle_touch_point_on_edge_24(self):
        tcs = touch_circles((V1, V2, V4))
        assert tcs[0].touch_points[0] == Point(F(12), F(-77))

    def test_feuerbach_sweep_computes_no_touch_points(self, q, monkeypatch):
        calls = []
        foot = touch.foot_of_perpendicular

        def counted(p, line):
            calls.append((p, line))
            return foot(p, line)

        monkeypatch.setattr(touch, "foot_of_perpendicular", counted)
        assert feuerbach_verify(q).total == 32
        assert calls == []
        # the feet are still there when asked for
        touch_circles((V1, V2, V4))[0].touch_points
        assert len(calls) == 3

    def test_touch_points_on_circle_and_edge(self):
        edges = (Line.through(V2, V4), Line.through(V4, V1), Line.through(V1, V2))
        for tc in touch_circles((V1, V2, V4)):
            for tp, edge in zip(tc.touch_points, edges):
                assert tp == foot_of_perpendicular(tc.circle.center, edge)
                assert edge.contains(tp)
                assert tc.circle.contains(tp)

    def test_345_radii(self):
        tcs = touch_circles((Point(F(0), F(0)), Point(F(4), F(0)), Point(F(0), F(3))))
        radii = sorted(tc.circle.radius() for tc in tcs)
        assert radii == [1, 2, 3, 6]

    def test_touch_centers_form_orthocentric_quadrangle(self):
        from quadgeo.quadrangle import orthocentre

        tcs = touch_circles((V1, V2, V4))
        centers = [tc.circle.center for tc in tcs]
        # incentre is the orthocentre of the excentral triangle; the central
        # circle of these four centers is the original circumcircle
        assert orthocentre(*centers[1:]) == centers[0]
        from quadgeo.kernel import circumcircle

        cc = circumcircle(V1, V2, V4)
        mids = [centers[1].midpoint(centers[2]), centers[0].midpoint(centers[3])]
        for mpt in mids:
            assert cc.contains(mpt)


class TestFeuerbach:
    def test_32_of_32_tangent(self, q):
        report = feuerbach_verify(q)
        assert report.total == 32
        assert all(
            kind in (Tangency.INTERNAL_TANGENT, Tangency.EXTERNAL_TANGENT)
            for (_, _, kind, _) in report.entries
        )
        assert all(exact for (_, _, _, exact) in report.entries)

    def test_incircle_distance_identity(self, q):
        incircle = touch_circles(q.face(7))[0].circle
        # 13² = (85-72)²
        assert incircle.center.dist2(q.central_circle.center) == 169

    def test_report_format(self, q):
        lines = feuerbach_verify(q).lines()
        assert len(lines) == 32
        assert all(", exact" in ln for ln in lines)


class TestGergonneNagel:
    def test_canonical_points(self):
        gn = gergonne_nagel((V1, V2, V4))
        assert gn.gergonne["o"] == Point(F(1104, 47), F(431, 47))
        assert gn.nagel == Point(F(-60), F(-41))
        checks = gn.incidence_checks()
        assert all(checks.values())

    def test_nagel_incentre_slope(self):
        gn = gergonne_nagel((V1, V2, V4))
        d = gn.nagel - gn.incentre
        assert F(d.y) / F(d.x) == F(1, 2)

    def test_gergonne_del_slope(self):
        gn = gergonne_nagel((V1, V2, V4))
        d = gn.de_longchamps - gn.incentre
        assert F(d.y) / F(d.x) == F(37, 30)

    def test_extraverted_gergonne_concurrence(self):
        assert extraverted_gergonne_concurrence((V1, V2, V4))


class TestSoddy:
    def test_canonical_curvatures(self):
        sd = soddy((V1, V2, V4))
        # curvatures 199/3780 and -11/3780: the outer circle encloses
        assert sd.inner.r2 == F(3780, 199) ** 2
        assert sd.outer.r2 == F(3780, 11) ** 2
        assert [c.r2 for c in sd.tangent_circles] == [84**2, 216**2, 120**2]

    def test_tangent_circle_distances(self):
        sd = soddy((V1, V2, V4))
        cs = sd.tangent_circles
        pairs = [(0, 1, 300), (1, 2, 336), (2, 0, 204)]
        for i, j, d in pairs:
            assert cs[i].center.dist2(cs[j].center) == d * d

    def test_inner_circle_tangent_to_all(self):
        sd = soddy((V1, V2, V4))
        for c in sd.tangent_circles:
            assert tangency_classify(sd.inner, c) == Tangency.EXTERNAL_TANGENT

    def test_outer_circle_tangent_to_all(self):
        sd = soddy((V1, V2, V4))
        assert sd.outer is not None
        for c in sd.tangent_circles:
            assert tangency_classify(sd.outer, c) == Tangency.INTERNAL_TANGENT

    def test_soddy_line_contents_and_perpendicularity(self):
        sd = soddy((V1, V2, V4))
        assert sd.soddy_line.contains(sd.incentre)
        assert sd.soddy_line.contains(sd.gergonne_point)
        assert sd.soddy_line.contains(sd.de_longchamps)
        assert sd.soddy_line.contains(sd.inner.center)
        assert sd.soddy_line.contains(sd.outer.center)
        assert sd.soddy_line.is_perpendicular(sd.gergonne_line)

    def test_descartes_radical_rationality(self):
        m = triangle_metrics(V1, V2, V4)
        k = [1 / (m.s - x) for x in (m.a, m.b, m.c)]
        assert k[0] * k[1] + k[1] * k[2] + k[2] * k[0] == 1 / (m.r * m.r)

    def test_critical_outer_is_gergonne_line(self):
        # (45,40,13) critical triangle, via rational coordinates:
        # place it with integer coordinates (Heronian: area 252)
        a, b, c = 45, 40, 13
        # B=(0,0), C=(45,0), A from b,c: x=(c²+a²-b²)/(2a)... use law of cosines
        x = F(c * c + a * a - b * b, 2 * a)
        y2 = c * c - x * x
        yv = F(2 * 252, a)  # height = 2Δ/a
        assert x * x + yv * yv == c * c
        A = Point(x, yv)
        sd = soddy((A, Point(F(0), F(0)), Point(F(45), F(0))))
        assert classify_soddy(F(a), F(b), F(c)) == SoddyClass.CRITICAL
        assert sd.outer is None
        # the outer circle degenerates to the Gergonne line, tangent to all
        # three vertex circles
        g = sd.gergonne_line
        for circ in sd.tangent_circles:
            assert g.evaluate(circ.center) ** 2 == circ.r2 * (g.a * g.a + g.b * g.b)


class TestClassify:
    @pytest.mark.parametrize(
        "sides,expected",
        [
            ((45, 40, 13), SoddyClass.CRITICAL),
            ((6, 5, 5), SoddyClass.INTERNAL),
            ((23, 22, 3), SoddyClass.EXTERNAL),
            ((26, 25, 3), SoddyClass.EXTERNAL),
            ((56, 39, 25), SoddyClass.EXTERNAL),
            ((8, 5, 5), SoddyClass.CRITICAL),
        ],
    )
    def test_cases(self, sides, expected):
        assert classify_soddy(*[F(s) for s in sides]) == expected

    def test_not_a_triangle(self):
        with pytest.raises(NotATriangle):
            classify_soddy(1, 1, 5)


class TestFamilies:
    def test_bremner_always_critical(self):
        rng = random.Random(7)
        count = 0
        while count < 100:
            u = F(rng.randint(1, 30), rng.randint(1, 10))
            v = F(rng.randint(1, 30), rng.randint(1, 10))
            try:
                sides = bremner_critical(u, v)
            except DegenerateParameters:
                continue
            assert classify_soddy(*sides) == SoddyClass.CRITICAL
            count += 1

    def test_cos_family_cosA(self):
        a, b, c = cos_family(F(3), F(1))
        cosA = F(b * b + c * c - a * a, 2 * b * c)
        assert cosA == F(-7, 25)

    def test_overlap_855(self):
        a, b, c = cos_family(F(2), F(1))
        g = a  # (120,75,75) ∝ (8,5,5)
        assert (a * 5, b * 8, c * 8) == (b * 8, c * 8, b * 8) or (
            F(a, b) == F(8, 5) and b == c
        )
        assert classify_soddy(a, b, c) == SoddyClass.CRITICAL

    def test_26_25_3_cos(self):
        a, b, c = 26, 25, 3
        cosA = F(b * b + c * c - a * a, 2 * b * c)
        assert cosA == F(-7, 25)
        assert classify_soddy(F(a), F(b), F(c)) == SoddyClass.EXTERNAL

    def test_degenerate_params(self):
        with pytest.raises(DegenerateParameters):
            bremner_critical(F(5), F(1))
        with pytest.raises(DegenerateParameters):
            cos_family(F(1), F(1))


class TestHexaflex:
    def test_perspectors_on_central_circle(self, q):
        hd = hexaflex((V1, V2, V4))
        assert len(hd.perspectors) == 4
        for pt in hd.perspectors.values():
            assert pt.x * pt.x + pt.y * pt.y == 7225

    def test_float_perspectors_on_nine_point_circle(self):
        a, b, c = Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)
        hd = hexaflex((a, b, c))
        npc = circumcircle(b.midpoint(c), c.midpoint(a), a.midpoint(b))
        assert len(hd.perspectors) == 4
        for pt in hd.perspectors.values():
            assert abs(npc.power(pt)) < 1e-9 * npc.r2

    def test_random_float_triangles(self):
        rng = random.Random(1)
        for _ in range(50):
            a, b, c = (
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
            )
            npc = circumcircle(b.midpoint(c), c.midpoint(a), a.midpoint(b))
            for pt in hexaflex((a, b, c)).perspectors.values():
                assert abs(npc.power(pt)) < 1e-9 * npc.r2

    # rounding alone moves the contact/midpoint joins past the tolerance:
    # near equilateral a contact point nearly is its midpoint, and on a
    # sliver the joins are nearly parallel
    @pytest.mark.parametrize("apex", [(5.001, 5 * math.sqrt(3)), (9.7, 1e-6)])
    def test_ill_conditioned_float_rejected(self, apex):
        with pytest.raises(DegenerateInput):
            hexaflex((Point(0.0, 0.0), Point(10.0, 0.0), Point(*apex)))

    # the third apex puts the incircle's contact on the base 2.8e-8 from its
    # midpoint
    @pytest.mark.parametrize(
        "apex",
        [(5.01, 5 * math.sqrt(3)), (9.7, 1e-5), (4.992326460654154, 8.664594409659772)],
    )
    def test_nearly_ill_conditioned_float_passes(self, apex):
        hd = hexaflex((Point(0.0, 0.0), Point(10.0, 0.0), Point(*apex)))
        assert len(hd.perspectors) == 4

    def test_sweep_raises_no_false_miss(self):
        # near-equilateral apexes on odd draws, slivers on even ones: each
        # triangle passes or is rejected as ill-conditioned, and the joins'
        # rounding never shows as a failed concurrence
        self.sweep(1.0)

    def test_sweep_scaled_below_one(self):
        # the same triangles pass, as the rejection is against the largest
        # coordinate or 1
        self.sweep(1e-4)

    @staticmethod
    def sweep(scale):
        rng = random.Random(11)
        passed = 0
        for i in range(3000):
            if i % 2:
                apex = (rng.uniform(4.9, 5.1), 5 * math.sqrt(3) * rng.uniform(0.999, 1.001))
            else:
                apex = (rng.uniform(-5, 15), 10 ** rng.uniform(-7, -2))
            tri = [Point(x * scale, y * scale) for x, y in ((0.0, 0.0), (10.0, 0.0), apex)]
            try:
                hexaflex(tri)
            except DegenerateInput:
                continue
            except IdentityViolated as exc:
                pytest.fail(f"apex {apex}: {exc}")
            passed += 1
        assert passed == 2320

    def test_contact_at_midpoint_is_perspector(self):
        # isosceles: the incircle and the C-excircle touch the base at its
        # midpoint (3, 0), which is then their perspector
        hd = hexaflex((Point(F(0), F(0)), Point(F(6), F(0)), Point(F(3), F(4))))
        assert hd.perspectors == {
            "o": Point(F(3), F(0)),
            "a": Point(F(392, 89), F(200, 89)),
            "b": Point(F(142, 89), F(200, 89)),
            "c": Point(F(3), F(0)),
        }

    def test_reflected_edges_parallel(self):
        hd = hexaflex((V1, V2, V4))
        for v in "ABC":
            assert hd.tangent_lines[f"t{v}"].is_parallel(hd.tangent_lines[f"t{v}'"])

    @staticmethod
    def contact_points(tri):
        """Per touch circle o/a/b/c, the feet of its centre on the three
        reflected edges that touch it."""
        hd = hexaflex(tri)
        tcs = {tc.label[1]: tc for tc in touch_circles(tri)}
        lines = {
            "o": ("tA", "tB", "tC"),
            "a": ("tA", "tB'", "tC'"),
            "b": ("tA'", "tB", "tC'"),
            "c": ("tA'", "tB'", "tC"),
        }
        return {
            ext: tuple(
                foot_of_perpendicular(tcs[ext].circle.center, hd.tangent_lines[n])
                for n in names
            )
            for ext, names in lines.items()
        }, tcs

    def test_tangency_to_touch_circles(self):
        contact_points, tcs = self.contact_points((V1, V2, V4))
        # every contact point lies on its touch circle
        for ext, contacts in contact_points.items():
            for cpt in contacts:
                assert tcs[ext].circle.contains(cpt)

    def test_contact_triangles_homothetic_to_medial(self):
        contact_points, _ = self.contact_points((V1, V2, V4))
        mids = (V2.midpoint(V4), V4.midpoint(V1), V1.midpoint(V2))
        med_edges = [mids[(i + 1) % 3] - mids[i] for i in range(3)]
        for contacts in contact_points.values():
            # each contact-triangle edge is parallel to some medial edge,
            # and the matching is a bijection
            used = set()
            for i in range(3):
                d = contacts[(i + 1) % 3] - contacts[i]
                matches = [
                    j
                    for j in range(3)
                    if j not in used and d.cross(med_edges[j]) == 0
                ]
                assert matches, "contact edge not parallel to any medial edge"
                used.add(matches[0])
