"""Lighthouse configurations, the 27-point Morley configuration with its
Conway labels, rational Morley families, the 1001-jigsaw, Thrice Sixteen,
and the exact inside-out trebler construction."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadgeo.cli_figures as cli_figures
import quadgeo.morley as morley
import quadgeo.quadrangle as quadrangle
import quadgeo.kernel as kernel
import quadgeo.touch as touch
from quadgeo.kernel import (
    DEFAULT_EPS,
    IdentityViolated,
    Line,
    Point,
    circumcircle,
    reflect_point_in_line,
    residual_ratio,
    vanishes,
)
from quadgeo.morley import (
    FULL,
    SIXTY,
    InvalidParameters,
    JIGSAW_INNER,
    JIGSAW_OUTER,
    LighthouseConfig,
    ParallelBeams,
    Sqrt3Angle,
    Surd,
    altitude_quadrangle,
    bisector_quadrangle,
    duplication,
    edge_direction_classes,
    equilateral_residual,
    inside_out,
    is_orthocentric,
    jigsaw_check,
    lighthouse,
    lighthouse_verify,
    morley_config,
    orthocentric_morley_parallel,
    phases_through,
    rational_morley,
    thrice_sixteen,
    triangle_angles_sqrt3,
)
from quadgeo.kernel import DegenerateInput
from quadgeo.quadrangle import orthocentre

EPS = 1e-9
STRAIGHT = Sqrt3Angle(Surd(-1), Surd(0))


def random_triangle(rng, lo=-10.0, hi=10.0, min_area=2.0):
    while True:
        pts = [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(3)]
        a, b, c = pts
        if abs(float((b - a).cross(c - a))) > 2 * min_area:
            return pts


class TestLighthouse:
    def test_random_configurations_verify(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for _ in range(5):
                beta = rng.uniform(0.1, 1.2)
                gamma = rng.uniform(0.1, 1.2)
                b = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
                c = Point(rng.uniform(-5, 5) + 8, rng.uniform(-5, 5))
                cfg = lighthouse(b, c, beta, gamma, n)
                if cfg.parallel_flag:
                    continue
                assert lighthouse_verify(cfg)

    def test_ngon_counts(self):
        cfg = lighthouse(Point(0.0, 0.0), Point(10.0, 0.0), 0.7, 0.4, 5)
        assert all(len(g) == 5 for g in cfg.ngons)
        assert sum(len(g) for g in cfg.ngons) == 25

    def test_parallel_beams_flagged(self):
        # beams are parallel when beta + gamma is a multiple of pi/n
        cfg = lighthouse(Point(0.0, 0.0), Point(10.0, 0.0), math.pi / 4, math.pi / 4, 2)
        assert cfg.parallel_flag

    def test_invalid_n(self):
        with pytest.raises(InvalidParameters):
            lighthouse(Point(0.0, 0.0), Point(1.0, 0.0), 0.3, 0.3, 1)

    def test_coincident_lighthouses(self):
        with pytest.raises(DegenerateInput):
            lighthouse(Point(1.0, 1.0), Point(1.0, 1.0), 0.3, 0.3, 3)

    def test_phases_through_recovers_point(self):
        b, c, p = Point(0.0, 0.0), Point(10.0, 0.0), Point(3.0, 4.0)
        beta, gamma = phases_through(b, c, p)
        cfg = lighthouse(b, c, beta, gamma, 3)
        q = cfg.points[0][0]
        assert math.hypot(float(q.x - p.x), float(q.y - p.y)) < 1e-9 * 10


# ---------------------------------------------------------------------------
# the float lighthouse against its Point-based reference
# ---------------------------------------------------------------------------


def reference_lighthouse(b, c, beta, gamma, n):
    """Reference construction on kernel objects: each beam a `Line` from
    its lighthouse and direction, each meet a `Line.intersect`."""
    b, c = Point(float(b.x), float(b.y)), Point(float(c.x), float(c.y))
    d, e = c - b, b - c
    theta_b, theta_c = math.atan2(d.y, d.x), math.atan2(e.y, e.x)

    def beam(p, t):
        return Line.from_point_direction(p, Point(math.cos(t), math.sin(t)))

    beams_b = [beam(b, theta_b + beta - j * math.pi / n) for j in range(n)]
    beams_c = [beam(c, theta_c - gamma + k * math.pi / n) for k in range(n)]
    grid = [[None] * n for _ in range(n)]
    ngons = [[] for _ in range(n)]
    parallel = False
    for j, lb in enumerate(beams_b):
        for k, lc in enumerate(beams_c):
            if lb.is_parallel(lc):
                parallel = True
                continue
            grid[j][k] = lb.intersect(lc)
            ngons[(j + k) % n].append(grid[j][k])
    circles = [
        circumcircle(*g[:3]) if len(g) >= 3 else circumcircle(b, c, g[0]) if g else None
        for g in ngons
    ]
    return LighthouseConfig(b, c, beta, gamma, n, grid, ngons, circles, parallel)


def reference_regular(gon, kappa):
    """Reference regularity test on `Point`s, about the centroid."""
    n = len(gon)
    if n < 2:
        return True
    cx = sum(float(p.x) for p in gon) / n
    cy = sum(float(p.y) for p in gon) / n
    radii = [math.hypot(float(p.x) - cx, float(p.y) - cy) for p in gon]
    r = sum(radii) / n
    if vanishes(r, math.hypot(cx, cy)):
        return False
    if not vanishes(max(abs(x - r) / (x + r) for x in radii), kappa):
        return False
    angles = sorted(
        math.atan2(float(p.y) - cy, float(p.x) - cx) % (2 * math.pi) for p in gon
    )
    gaps = [(angles[(i + 1) % n] - angles[i]) % (2 * math.pi) for i in range(n)]
    step = 2 * math.pi / n
    return vanishes(max(abs(g - step) / (g + step) for g in gaps), kappa)


def reference_verify(cfg):
    """Reference checks on kernel objects: `reference_regular`, the worst
    r/m of `Circle.residual` over every vertex and both lighthouses, and the
    Lemma on `Point` differences, each against the n-gon's conditioning:
    1/|sin| of the angle at which its beams meet, at most DEFAULT_EPS^(-2/3)."""
    step = math.pi / cfg.n
    kappas = [
        1 / max(abs(math.sin(cfg.beta + cfg.gamma - g * step)), DEFAULT_EPS ** (2 / 3))
        for g in range(cfg.n)
    ]
    for gon, circ, kappa in zip(cfg.ngons, cfg.circles, kappas):
        if len(gon) != cfg.n:
            continue
        if not reference_regular(gon, kappa) or circ is None:
            return False
        misses = [residual_ratio(*circ.residual(p)) for p in list(gon) + [cfg.b, cfg.c]]
        if not vanishes(max(misses), kappa):
            return False
    base = None
    for gon, kappa in zip(cfg.ngons, kappas):
        for p, q in itertools.combinations(gon, 2):
            d = q - p
            ang = math.atan2(float(d.y), float(d.x)) % step
            if base is None:
                base, base_kappa = ang, kappa
                continue
            turn = abs(ang - base)
            if not vanishes(min(turn, step - turn), step * (base_kappa + kappa)):
                return False
    return True


def _bits(cfg):
    """Every float the configuration holds, as hex strings, so that 0.0 and
    -0.0 differ."""
    def xy(p):
        return None if p is None else (p.x.hex(), p.y.hex())

    return (
        xy(cfg.b), xy(cfg.c), cfg.parallel_flag,
        [[xy(p) for p in row] for row in cfg.points],
        [[xy(p) for p in gon] for gon in cfg.ngons],
        [None if k is None else (xy(k.center), k.r2.hex()) for k in cfg.circles],
    )


def _lighthouse_draws(rng, count):
    """(B, C, beta, gamma, n): B and C up to 1e3, n from 2 to 12, and every
    third draw phased within 1e-11 of a multiple of π/n, where the
    parallel test decides."""
    for i in range(count):
        n = rng.randint(2, 12)
        size = rng.choice((1.0, 30.0, 1e3))
        b, c = (Point(rng.uniform(-size, size), rng.uniform(-size, size)) for _ in "bc")
        beta = rng.uniform(-math.pi, math.pi)
        if i % 3 == 0:
            gamma = rng.randint(-n, 2 * n) * math.pi / n - beta + rng.uniform(-1e-11, 1e-11)
        else:
            gamma = rng.uniform(-math.pi, math.pi)
        yield b, c, beta, gamma, n


class TestLighthouseAgainstReference:
    DRAWS = 2100

    @pytest.fixture(scope="class")
    def pairs(self):
        draws = _lighthouse_draws(random.Random(25), self.DRAWS)
        return [(reference_lighthouse(*d), lighthouse(*d)) for d in draws]

    def test_same_floats(self, pairs):
        assert len(pairs) == self.DRAWS
        assert sum(new.parallel_flag for _, new in pairs) > 50
        for ref, new in pairs:
            assert _bits(new) == _bits(ref)

    def test_same_decisions(self, pairs):
        decisions = [lighthouse_verify(new) for _, new in pairs]
        assert decisions == [reference_verify(ref) for ref, _ in pairs]
        assert all(d is True or d is False for d in decisions)
        # beams within 1e-11 of parallel are flagged, so every configuration
        # verifies
        assert decisions.count(False) == 0

    def test_same_decisions_perturbed(self, pairs):
        # one vertex of an accepted configuration moved by 1e-15 to 1e-5
        # of the coordinates' size
        rng = random.Random(26)
        decisions = []
        for _, cfg in pairs[:1200]:
            if not lighthouse_verify(cfg):
                continue
            gons = [list(g) for g in cfg.ngons]
            g = rng.choice([g for g in gons if g])
            i = rng.randrange(len(g))
            size = max(1.0, *(abs(v) for p in g for v in (p.x, p.y)))
            offset = size * 10.0 ** rng.uniform(-15, -5)
            dx, dy = (offset * rng.uniform(-1, 1) for _ in "xy")
            g[i] = Point(g[i].x + dx, g[i].y + dy)
            moved = dataclasses.replace(cfg, ngons=gons)
            decisions.append(lighthouse_verify(moved))
            assert decisions[-1] is reference_verify(moved)
        assert len(decisions) > 800
        assert 200 < decisions.count(False) < len(decisions) - 200

    def test_integer_lighthouses_read_as_floats(self):
        ref = reference_lighthouse(Point(-1.0, 0.0), Point(1.0, 0.0), 0.7, 0.4, 3)
        assert _bits(lighthouse(Point(-1, 0), Point(1, 0), 0.7, 0.4, 3)) == _bits(ref)


def _turned(p, o, t):
    """p turned by t radians about o."""
    dx, dy, cos, sin = p.x - o.x, p.y - o.y, math.cos(t), math.sin(t)
    return Point(o.x + dx * cos - dy * sin, o.y + dx * sin + dy * cos)


class TestLighthouseVerifyRejects:
    """Each check returns False on its own: a vertex moved along the
    circle fails regularity, a scaled n-gon fails only the circle, and a
    rotated one fails only the Lemma. n-gon 1 is changed, so n-gon 0 still
    sets the Lemma's base direction."""

    @pytest.fixture
    def cfg(self):
        cfg = lighthouse(Point(-1.0, 0.0), Point(1.0, 0.0), 0.7, 0.4, 5)
        assert lighthouse_verify(cfg) is True
        return cfg

    @staticmethod
    def replaced(cfg, gon):
        gons = list(cfg.ngons)
        gons[1] = gon
        return dataclasses.replace(cfg, ngons=gons)

    @staticmethod
    def on_circle(gon, circ):
        return all(abs(circ.power(p)) < 1e-12 for p in gon)

    @staticmethod
    def regular(gon):
        return morley.ngon_is_regular([(p.x, p.y) for p in gon]) <= DEFAULT_EPS

    def test_moved_vertex(self, cfg):
        # one vertex slides 1e-3 rad along the circle: not regular
        circ = cfg.circles[1]
        gon = [_turned(cfg.ngons[1][0], circ.center, 1e-3), *cfg.ngons[1][1:]]
        assert self.on_circle(gon, circ) and not self.regular(gon)
        assert lighthouse_verify(self.replaced(cfg, gon)) is False

    def test_scaled_ngon(self, cfg):
        # scaled by 1.01 about its centre: regular, its edges keep their
        # directions, and it leaves the circle
        circ = cfg.circles[1]
        o, k = circ.center, 1.01
        gon = [Point(o.x + k * (p.x - o.x), o.y + k * (p.y - o.y)) for p in cfg.ngons[1]]
        assert self.regular(gon) and not self.on_circle(gon, circ)
        assert lighthouse_verify(self.replaced(cfg, gon)) is False

    def test_rotated_ngon(self, cfg):
        # turned 1e-2 rad about its circle's centre: regular and on the
        # circle, but its edges leave the n direction classes
        circ = cfg.circles[1]
        gon = [_turned(p, circ.center, 1e-2) for p in cfg.ngons[1]]
        assert self.regular(gon) and self.on_circle(gon, circ)
        assert lighthouse_verify(self.replaced(cfg, gon)) is False


class TestDuplication:
    def test_doubled_phase_beams(self):
        rng = random.Random(23)
        for n in range(3, 7):
            for _ in range(5):
                beta = rng.uniform(0.1, 0.6)
                gamma = rng.uniform(0.1, 0.6)
                b = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
                c = Point(rng.uniform(-3, 3) + 9, rng.uniform(-3, 3))
                try:
                    d = duplication(b, c, beta, gamma, n)
                except ParallelBeams:
                    continue
                assert isinstance(d, float)
                assert d < EPS


class TestNEqualsTwo:
    def test_bisector_quadrangle_is_incentre_and_excentres(self):
        d, e, f = Point(0.0, 6.0), Point(-4.0, 0.0), Point(5.0, 0.0)
        out = bisector_quadrangle(d, e, f)
        assert is_orthocentric(list(out.values())) <= EPS
        inc = out["incentre"]
        # the incentre is interior and equidistant from all three edges
        from quadgeo.kernel import Line

        dists = [
            abs(float(Line.through(p, q).evaluate(inc)))
            for p, q in ((d, e), (e, f), (f, d))
        ]
        assert max(dists) - min(dists) < EPS * 10

    def test_altitude_quadrangle_recovers_vertices(self):
        a, b, c = Point(0.0, 6.0), Point(-4.0, 0.0), Point(5.0, 0.0)
        out = altitude_quadrangle(a, b, c)
        h = orthocentre(a, b, c)
        got = [out["orthocentre"], *out["others"]]
        want = [h, a, b, c]
        for w in want:
            assert any(
                math.hypot(float(g.x - w.x), float(g.y - w.y)) < 1e-7 for g in got
            )
        assert is_orthocentric(got) <= EPS

    def test_orthocentric_for_random_phase_pairs(self):
        # any two n=2 lighthouses give an orthocentric quadruple
        rng = random.Random(7)
        for _ in range(20):
            cfg = lighthouse(
                Point(0.0, 0.0),
                Point(10.0, 0.0),
                rng.uniform(0.2, 1.3),
                rng.uniform(0.2, 1.3),
                2,
            )
            if cfg.parallel_flag:
                continue
            pts = [cfg.points[j][k] for j in range(2) for k in range(2)]
            assert is_orthocentric(pts) <= EPS

    def test_orthocentric_residual(self):
        # the vertices and orthocentre of (0, 6), (-4, 0), (5, 0): H = (0, 10/3)
        pts = [Point(0, 6), Point(-4, 0), Point(5, 0), Point(0, Fraction(10, 3))]
        assert is_orthocentric(pts) <= EPS
        # H moved by 1e-3 is 1e-3 from the orthocentre of the other three,
        # against the sum 18.33 of the four points' norms
        pts[3] = Point(1e-3, Fraction(10, 3))
        assert is_orthocentric(pts) >= 1e-3 / 18.34
        with pytest.raises(DegenerateInput):
            is_orthocentric(pts[:3])


@pytest.fixture(scope="module")
def cfg():
    return morley_config(Point(0.0, 0.0), Point(7.0, 0.3), Point(2.0, 5.0))


# point labels | Morley lines | associated points, per trisection circle
CIRCLE_TABLE = {
    "BC0": ("*00 *21 *12", "100 121 112", "200 101 110"),
    "BC1": ("*11 *02 *20", "211 202 220", "011 212 221"),
    "BC2": ("*22 *10 *01", "022 010 001", "122 020 002"),
    "CA0": ("2*1 0*0 1*2", "211 010 112", "011 020 110"),
    "CA1": ("0*2 1*1 2*0", "022 121 220", "122 101 221"),
    "CA2": ("1*0 2*2 0*1", "100 202 001", "200 212 002"),
    "AB0": ("21* 12* 00*", "211 121 001", "011 101 002"),
    "AB1": ("02* 20* 11*", "022 202 112", "122 212 110"),
    "AB2": ("10* 01* 22*", "100 010 220", "200 020 221"),
}

LINE_TABLE = {
    "211": "*20 *02 0*0 1*2 12* 00*",
    "121": "*12 *00 2*0 0*2 00* 21*",
    "112": "*00 *21 2*1 0*0 02* 20*",
    "022": "*10 *01 1*1 2*0 20* 11*",
    "202": "*20 *11 1*0 0*1 11* 02*",
    "220": "*11 *02 0*2 1*1 01* 10*",
    "100": "*21 *12 2*2 0*1 01* 22*",
    "010": "*01 *22 2*1 1*2 22* 10*",
    "001": "*22 *10 1*0 2*2 12* 21*",
}


class TestMorleyConfig:
    def test_counts(self, cfg):
        assert len(cfg.points) == 27
        assert len(cfg.lines) == 9
        assert len(cfg.morley_triangles) == 18
        assert len(cfg.gf_circles) == 9
        assert len(cfg.associated_points) == 9

    def test_all_eighteen_triangles_equilateral(self, cfg):
        assert max(
            equilateral_residual(t) for t in cfg.morley_triangles.values()
        ) < EPS

    def test_triangles_mutually_parallel(self, cfg):
        assert edge_direction_classes(cfg.morley_triangles) == 1

    def test_circle_table(self, cfg):
        for name, (pts, lines, assoc) in CIRCLE_TABLE.items():
            assert set(morley._GF_TRIANGLES[name]) == set(pts.split())
            assert set(morley._CIRCLE_LINES[name]) == set(lines.split())
            got_assoc = {
                al
                for al, pt in cfg.associated_points.items()
                if abs(float(cfg.gf_circles[name].power(pt))) < 1e-6
            }
            assert got_assoc == set(assoc.split())

    def test_line_table(self, cfg):
        for label, members in LINE_TABLE.items():
            assert set(cfg.line_points[label]) == set(members.split())

    def test_lines_carry_six_points_each(self, cfg):
        for members in cfg.line_points.values():
            assert len(members) == 6

    def test_gf_circles_pass_through_lighthouses(self, cfg):
        for name, circ in cfg.gf_circles.items():
            for v in name[:2]:
                assert abs(float(circ.power(cfg.vertices[v]))) < 1e-6

    def test_associated_point_on_three_circles(self, cfg):
        for al, pt in cfg.associated_points.items():
            count = sum(
                1
                for circ in cfg.gf_circles.values()
                if abs(float(circ.power(pt))) < 1e-6
            )
            assert count == 3

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateInput):
            morley_config(Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_random_triangles_property(self, seed):
        rng = random.Random(seed)
        a, b, c = random_triangle(rng)
        config = morley_config(a, b, c)
        scale = max(abs(float(v)) for p in (a, b, c) for v in (p.x, p.y))
        assert max(
            equilateral_residual(t) for t in config.morley_triangles.values()
        ) < EPS * max(1.0, scale)

    def test_orthocentric_family_parallel(self):
        assert orthocentric_morley_parallel(
            Point(0.0, 0.0), Point(7.0, 0.3), Point(2.0, 5.0)
        ) <= EPS


def _rotated(tri, theta):
    c, s = math.cos(theta), math.sin(theta)
    return tuple((c * x - s * y, s * x + c * y) for x, y in tri)


RIGHT_345 = ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
SLIVER = (
    (-2.9312259638636196, 2.91075986027284),
    (-3.0184824199130507, 4.212950994944062),
    (-2.2075322244902518, -8.697919126501814),
)


class TestMorleyHardTriangles:
    """Right angles, where three associated points fall on the right-angle
    vertex, and a sliver (angles 3.1369, 0.0042, 0.0005) whose far
    associated point sits on GF circles of radius about 4175."""

    @pytest.mark.parametrize(
        "tri",
        [
            RIGHT_345,
            ((0.0, 0.0), (12.0, 0.0), (0.0, 5.0)),
            ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
            _rotated(RIGHT_345, 1e-6),
            SLIVER,
        ],
        ids=["3-4-5", "5-12-13", "isosceles-right", "3-4-5-rotated", "sliver"],
    )
    def test_configuration_holds(self, tri):
        cfg = morley_config(*(Point(x, y) for x, y in tri))
        assert max(
            equilateral_residual(t) for t in cfg.morley_triangles.values()
        ) < EPS
        assert edge_direction_classes(cfg.morley_triangles) == 1
        assert len(cfg.associated_points) == 9
        # each GF circle passes through the associated points of the three
        # lines it meets; the power is taken relative to max(1, r²), as the
        # sliver's circles are far larger than the unit
        for name, (_, _, assoc) in CIRCLE_TABLE.items():
            circ = cfg.gf_circles[name]
            for al in assoc.split():
                power = abs(float(circ.power(cfg.associated_points[al])))
                assert power < 1e-6 * max(1.0, float(circ.r2)), (name, al)

    def test_right_angle_vertex_is_associated(self):
        cfg = morley_config(*(Point(x, y) for x, y in RIGHT_345))
        at_a = [
            al for al, p in cfg.associated_points.items()
            if math.hypot(p.x, p.y) < 1e-9
        ]
        assert len(at_a) == 3


class TestMorleyIdentityChecks:
    """Failed incidences raise IdentityViolated, which ``python -O`` keeps."""

    TRI = (Point(0.0, 0.0), Point(7.0, 0.3), Point(2.0, 5.0))

    def test_point_off_morley_line(self, monkeypatch):
        members = morley._LINE_POINTS["100"]
        monkeypatch.setitem(
            morley._LINE_POINTS, "100", members[:5] + ("*00",)
        )
        with pytest.raises(IdentityViolated, match="Morley line 100"):
            morley_config(*self.TRI)

    def test_gf_circle_misses_lighthouse(self, monkeypatch):
        real = morley._gf_circle

        def grown(p, q, r):
            c = real(p, q, r)
            return type(c)(c.center, c.r2 + 1.0)

        monkeypatch.setattr(morley, "_gf_circle", grown)
        with pytest.raises(IdentityViolated, match="lighthouse"):
            morley_config(*self.TRI)

    def test_third_circle_misses_associated_point(self, monkeypatch):
        real = morley._reflect

        def shifted(p, line):
            q = real(p, line)
            return Point(q.x + 0.1, q.y)

        monkeypatch.setattr(morley, "_reflect", shifted)
        with pytest.raises(IdentityViolated, match="third GF circle"):
            morley_config(*self.TRI)


# ---------------------------------------------------------------------------
# the float Morley configuration against its kernel-object reference
# ---------------------------------------------------------------------------


def reference_morley_config(a, b, c):
    """Reference construction on kernel objects: each trisector a `Line`
    from its vertex and direction, each meet a `Line.intersect`, each check
    a kernel predicate, and each associated point a `reflect_point_in_line`
    in the `Line` through two GF centres."""
    a, b, c = morley._fp(a), morley._fp(b), morley._fp(c)
    verts = {"A": a, "B": b, "C": c}
    u, v = b - a, c - a
    if vanishes(u.cross(v), math.hypot(u.x, u.y) * math.hypot(v.x, v.y)):
        raise DegenerateInput("degenerate triangle")
    angles = {
        "A": abs(morley._signed_angle(b - a, c - a)),
        "B": abs(morley._signed_angle(c - b, a - b)),
        "C": abs(morley._signed_angle(a - c, b - c)),
    }

    def beams(x, y):
        vx, vy = verts[x], verts[y]
        vz = verts[({"A", "B", "C"} - {x, y}).pop()]
        theta = morley._angle_of(vy - vx)
        sigma = 1.0 if (vy - vx).cross(vz - vx) > 0 else -1.0
        return [
            Line.from_point_direction(
                vx, morley._dir(theta + sigma * (angles[x] / 3 - j * math.pi / 3))
            )
            for j in range(3)
        ]

    fans = {(x, y): beams(x, y) for x in verts for y in verts if x != y}
    points = {
        label: fans[x, y][j].intersect(fans[y, x][k])
        for x, y, j, k, label in morley._POINT_LABELS
    }
    lines = {}
    for label, members in morley._LINE_POINTS.items():
        pts = [points[m] for m in members]
        line = Line.through(pts[0], pts[1])
        if not all(line.contains(p) for p in pts[2:]):
            raise IdentityViolated(f"point off Morley line {label}")
        lines[label] = line
    morley_tris = {}
    for p, q, r in itertools.product(range(3), repeat=3):
        if (p + q + r) % 3 != 1:
            morley_tris[f"{p}{q}{r}"] = (points[f"*{q}{r}"], points[f"{p}*{r}"], points[f"{p}{q}*"])
    gf_circles = {}
    for name, labels in morley._GF_TRIANGLES.items():
        circ = circumcircle(*(points[l] for l in labels))
        for v in name[:2]:
            if not circ.contains(verts[v]):
                raise IdentityViolated(f"GF circle {name} misses a lighthouse")
        gf_circles[name] = circ
    associated = {}
    for label, (n1, n2, n3) in morley._LINE_CIRCLES.items():
        (v,) = set(n1[:2]) & set(n2[:2])
        c1, c2 = gf_circles[n1], gf_circles[n2]
        pt = reflect_point_in_line(verts[v], Line.through(c1.center, c2.center))
        if not gf_circles[n3].contains(pt):
            raise IdentityViolated(f"third GF circle misses the associated point of line {label}")
        associated[morley._associated_label(label)] = pt
    return morley.MorleyConfig(
        verts, points, lines, dict(morley._LINE_POINTS), morley_tris, gf_circles, associated
    )


def reference_edge_angles(tris):
    """Each edge's angle mod π/3 and magnitude, on `Point` differences."""
    return [
        (morley._angle_of(q - p) % (math.pi / 3),
         (math.hypot(p.x, p.y) + math.hypot(q.x, q.y)) / math.hypot(q.x - p.x, q.y - p.y))
        for tri in tris
        for p, q in zip(tri, tri[1:] + tri[:1])
    ]


def _hex_point(p):
    return p.x.hex(), p.y.hex()


def _hex_circle(c):
    return _hex_point(c.center), c.r2.hex()


def _outcome(build, bits, *args):
    """Every float of the result as float.hex(), in dict order, or the type
    and message of the error raised."""
    try:
        return bits(build(*args))
    except Exception as exc:   # the reference's error must match exactly
        return type(exc), str(exc)


def _morley_bits(cfg):
    return (
        [(k, _hex_point(p)) for k, p in cfg.vertices.items()],
        [(k, _hex_point(p)) for k, p in cfg.points.items()],
        [(k, (l.a.hex(), l.b.hex(), l.c.hex())) for k, l in cfg.lines.items()],
        list(cfg.line_points.items()),
        [(k, [_hex_point(p) for p in t]) for k, t in cfg.morley_triangles.items()],
        [(k, _hex_circle(c)) for k, c in cfg.gf_circles.items()],
        [(k, _hex_point(p)) for k, p in cfg.associated_points.items()],
        [(ang.hex(), m.hex()) for ang, m in morley._edge_angles(cfg.morley_triangles.values())],
    )


def _reference_morley_bits(cfg):
    bits = list(_morley_bits(cfg))
    bits[-1] = [(ang.hex(), m.hex())
                for ang, m in reference_edge_angles(cfg.morley_triangles.values())]
    return tuple(bits)


def _morley_draws(rng, count):
    """Float triangles: uniform in [−10, 10]², slivers of height 1e-7 to
    1e-1 over a base of 10 and coordinates up to 1e6, every tenth draw an
    isosceles or a near-equilateral one."""
    for i in range(count):
        kind = i % 10
        if kind == 0:
            r, t, w = rng.uniform(1, 10), rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 2.9)
            yield (Point(0.0, 0.0), Point(r * math.cos(t), r * math.sin(t)),
                   Point(r * math.cos(t + w), r * math.sin(t + w)))
        elif kind == 1:
            t = rng.uniform(0, 2 * math.pi)
            yield tuple(Point(5 * math.cos(t + k * 2 * math.pi / 3) + rng.uniform(-1e-6, 1e-6),
                              5 * math.sin(t + k * 2 * math.pi / 3)) for k in range(3))
        elif kind == 2:
            yield (Point(0.0, 0.0), Point(10.0, 0.0),
                   Point(rng.uniform(-5, 15), 10 ** rng.uniform(-7, -1)))
        elif kind == 3:
            size = 10 ** rng.uniform(2, 6)
            yield tuple(Point(rng.uniform(-size, size), rng.uniform(-size, size)) for _ in "abc")
        else:
            yield tuple(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in "abc")


MORLEY_SPECIAL = {
    # the three right triangles of the float-configs benchmark workload
    "3-4-5": RIGHT_345,
    "5-12-13": ((0.0, 0.0), (12.0, 0.0), (0.0, 5.0)),
    "isosceles-right": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
    "equilateral": ((0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3))),
    "isosceles": ((0.0, 0.0), (4.0, 0.0), (2.0, 7.0)),
    "integer": ((0, 0), (7, 0), (2, 5)),
    "sliver": SLIVER,
    "collinear": ((0.0, 0.0), (1.0, 1.0), (3.0, 3.0)),
    # 1e-6 from collinear: trisectors meet too obliquely for the Morley lines
    "near-collinear": ((0.0, 0.0), (1.0, 1.0), (3.0, 3.0 + 3e-6)),
}


class TestMorleyAgainstReference:
    DRAWS = 600

    @pytest.fixture(scope="class")
    def outcomes(self):
        draws = list(_morley_draws(random.Random(27), self.DRAWS))
        return [
            (_outcome(reference_morley_config, _reference_morley_bits, *tri),
             _outcome(morley_config, _morley_bits, *tri))
            for tri in draws
        ]

    def test_same_floats_and_errors(self, outcomes):
        assert len(outcomes) == self.DRAWS
        for ref, new in outcomes:
            assert new == ref
        raised = [new for _, new in outcomes if type(new[0]) is type]
        # slivers and large coordinates reach the Morley-line check
        assert 10 < len(raised) < self.DRAWS // 4

    @pytest.mark.parametrize("name", list(MORLEY_SPECIAL))
    def test_special_triangles(self, name):
        tri = [Point(x, y) for x, y in MORLEY_SPECIAL[name]]
        want = _outcome(reference_morley_config, _reference_morley_bits, *tri)
        assert _outcome(morley_config, _morley_bits, *tri) == want
        raises = {"collinear": DegenerateInput, "near-collinear": IdentityViolated}
        assert want[0] is raises.get(name, want[0])

    def test_orthocentric_parallel(self):
        rng = random.Random(28)
        for _ in range(5):
            a, b, c = random_triangle(rng)
            h = orthocentre(a, b, c)
            tris = [
                t
                for p, q, r in ((a, b, c), (b, h, c), (c, h, a), (a, h, b))
                for t in reference_morley_config(p, q, r).morley_triangles.values()
            ]
            (first, k), *rest = reference_edge_angles(tris)
            third = math.pi / 3
            want = max(residual_ratio(min(abs(x - first), third - abs(x - first)), m + k)
                       for x, m in rest)
            assert orthocentric_morley_parallel(a, b, c).hex() == want.hex()

    def test_builds_only_what_it_returns(self, monkeypatch):
        """One float configuration makes its 9 Morley lines and no other
        `Line`, meets no `Line`s and calls no `circumcircle`."""
        made = []
        post_init = Line.__post_init__

        def counted(line):
            made.append(line)
            post_init(line)

        def forbidden(*args):
            raise AssertionError("morley_config went through a kernel construction")

        monkeypatch.setattr(Line, "__post_init__", counted)
        monkeypatch.setattr(Line, "intersect", forbidden)
        monkeypatch.setattr(kernel, "circumcircle", forbidden)
        monkeypatch.setattr(morley, "circumcircle", forbidden)
        monkeypatch.setattr(morley, "reflect_point_in_line", forbidden)
        cfg = morley_config(Point(0.0, 0.0), Point(7.0, 0.3), Point(2.0, 5.0))
        assert len(made) == 9
        assert set(map(id, made)) == set(map(id, cfg.lines.values()))


def reference_edge_variants(edges):
    """The edges of the 18 Morley triangles of the triangle with these float
    edges: |8R sin((A+2πi)/3) sin((B+2πj)/3) sin((C+2πk)/3)| over the
    extraversion triples with i + j + k ≢ 1 (mod 3)."""
    a, b, c = edges
    ca = (b * b + c * c - a * a) / (2 * b * c)
    cb = (c * c + a * a - b * b) / (2 * c * a)
    cc = (a * a + b * b - c * c) / (2 * a * b)
    aa, ab_, ac = math.acos(ca), math.acos(cb), math.acos(cc)
    r = a / (2 * math.sin(aa))
    return {
        (i, j, k): abs(
            8 * r
            * math.sin((aa + 2 * math.pi * i) / 3)
            * math.sin((ab_ + 2 * math.pi * j) / 3)
            * math.sin((ac + 2 * math.pi * k) / 3)
        )
        for i, j, k in itertools.product(range(3), repeat=3)
        if (i + j + k) % 3 != 1
    }


class TestRationalMorley:
    def test_pythagorean_member(self):
        rep = rational_morley("pythagorean", Fraction(1, 4))
        assert sorted(rep.integer_edges) == [495, 4888, 4913]
        assert rep.is_pythagorean
        assert rep.rational_variants == {(0, 2, 0): 4080, (0, 2, 1): 4080}

    def test_pythagorean_t_one_third(self):
        # four more Morley edges are irrational, though a continued fraction
        # with denominator below 10⁵ matches each to 1e-12 relative:
        # 80√3 − 60, |120 − 90√3|, 120 + 90√3 and 60 + 80√3
        rep = rational_morley("pythagorean", Fraction(1, 3))
        assert rep.integer_edges == (117, 44, 125)
        assert rep.rational_variants == {(1, 1, 0): 120, (1, 1, 1): 120}

    def test_general_member_all_eighteen(self):
        x1, x2 = Fraction(7), Fraction(2)
        x3 = 3 * (x1 + x2) / (x1 * x2 - 3)
        rep = rational_morley("general", (x1, x2, x3))
        assert not rep.is_pythagorean
        assert len(rep.rational_variants) == 18

    @pytest.mark.parametrize("family, want", [("pythagorean", 2), ("general", 18)])
    def test_random_members(self, family, want):
        rng = random.Random(17)
        for _ in range(100):
            params, rep = cli_figures._rational_morley_draw(rng, family)
            assert len(rep.rational_variants) == want, params
            floats = reference_edge_variants([float(e) for e in rep.integer_edges])
            for key, edge in rep.rational_variants.items():
                assert abs(edge - floats[key]) <= 1e-12 * edge, (params, key)

    def test_no_float_functions(self, monkeypatch):
        monkeypatch.setattr(morley, "math", None)
        assert len(rational_morley("general", (7, 2, Fraction(27, 11))).rational_variants) == 18

    def test_constraint_enforced(self):
        with pytest.raises(InvalidParameters):
            rational_morley("general", (Fraction(1), Fraction(2), Fraction(3)))

    def test_unknown_family(self):
        with pytest.raises(InvalidParameters):
            rational_morley("isosceles", Fraction(1, 2))


class TestJigsaw:
    def test_sqrt3_angle_algebra(self):
        assert SIXTY * SIXTY * SIXTY == STRAIGHT
        assert STRAIGHT * STRAIGHT == FULL
        with pytest.raises(InvalidParameters):
            Sqrt3Angle(Surd(Fraction(1, 2)), Surd(0, Fraction(1, 3)))

    def test_surd_arithmetic(self):
        two_plus = Surd(2, 1)                            # 2 + √3
        assert two_plus * Surd(2, -1) == Surd(1)
        assert Surd(1) / two_plus == Surd(2, -1)
        assert two_plus - two_plus == Surd(0) == -Surd(0)
        rng = random.Random(3)
        for _ in range(200):
            x = Surd(Fraction(rng.randint(-99, 99), rng.randint(1, 9)), rng.randint(-20, 20))
            y = Surd(Fraction(rng.randint(-99, 99), rng.randint(1, 9)), rng.randint(-20, 20))
            fx, fy = (float(v.p) + float(v.q) * math.sqrt(3) for v in (x, y))
            for got, want in ((x + y, fx + fy), (x * y, fx * fy)):
                assert math.isclose(float(got.p) + float(got.q) * math.sqrt(3), want, abs_tol=1e-9)

    @pytest.mark.parametrize("p, q, sign", [
        (97, -56, 1),            # 1/(97 + 56√3) ≈ 5.2e-3
        (-97, 56, -1),
        (18817, -10864, 1),      # 1/(18817 + 10864√3) ≈ 2.7e-5
        (-18817, 10864, -1),
        (0, -1, -1),
        (0, 0, 0),
        (-1, 0, -1),
    ])
    def test_surd_sign(self, p, q, sign):
        assert Surd(p, q).sign() == sign

    def test_piece_angles_live_in_q_sqrt3(self):
        for t in JIGSAW_INNER + JIGSAW_OUTER:
            angles = triangle_angles_sqrt3(t)
            acc = FULL
            for ang in angles:
                acc = acc * ang
            assert acc == STRAIGHT  # angle sum of each piece is exactly pi

    def test_assembly(self):
        rep = jigsaw_check()
        assert rep.area_matches
        assert rep.vertex_sums
        assert rep.trisection

    @pytest.mark.parametrize("piece", [JIGSAW_OUTER[0], JIGSAW_INNER[1]])
    def test_swapped_angles_break_the_assembly(self, monkeypatch, piece):
        real = morley.triangle_angles_sqrt3

        def swapped(edges):
            a, b, c = real(edges)
            return (a, c, b) if tuple(edges) == piece else (a, b, c)

        monkeypatch.setattr(morley, "triangle_angles_sqrt3", swapped)
        rep = jigsaw_check()
        assert rep.area_matches
        assert not (rep.vertex_sums and rep.trisection)


class TestThriceSixteen:
    def quad(self, rng):
        while True:
            ths = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
            if min(
                (ths[(i + 1) % 4] - ths[i]) % (2 * math.pi) for i in range(4)
            ) > 0.25:
                r = rng.uniform(3, 20)
                return [Point(r * math.cos(t), r * math.sin(t)) for t in ths]

    def test_random_quadrangles(self):
        rng = random.Random(31)
        for _ in range(20):
            rep = thrice_sixteen(self.quad(rng))
            assert len(rep.centers) == 16
            assert rep.midpoint_pairs == 12
            assert rep.latin_square
            assert rep.circumcentres_reflect
            assert rep.circumcircles_congruent

    def test_sixteen_point_circle_is_circumcircle(self):
        # the 24 same-triangle midpoints of the 16 centres lie on the
        # circumcircle of the quadrangle
        rng = random.Random(5)
        quad = self.quad(rng)
        rep = thrice_sixteen(quad)
        base = circumcircle(quad[0], quad[1], quad[2])
        r = math.sqrt(base.r2)
        mids = [
            p.midpoint(q)
            for (l1, p), (l2, q) in itertools.combinations(rep.centers.items(), 2)
            if l1[0] == l2[0]
        ]
        assert len(mids) == 24
        for m in mids:
            assert abs(math.dist((m.x, m.y), (base.center.x, base.center.y)) - r) < 1e-6

    @pytest.mark.parametrize(
        "degrees", [(0, 90, 180, 270), (0, 60, 180, 300)], ids=["square", "kite"]
    )
    def test_symmetric_quadrangles(self, degrees):
        # extra collinearities among the centres once defeated a grid search
        quad = [
            Point(5 * math.cos(math.radians(d)), 5 * math.sin(math.radians(d)))
            for d in degrees
        ]
        rep = thrice_sixteen(quad)
        assert len(rep.centers) == 16
        assert rep.midpoint_pairs == 12
        assert rep.latin_square
        assert rep.circumcentres_reflect
        assert rep.circumcircles_congruent

    def test_vertex_order_does_not_matter(self):
        rng = random.Random(13)
        for _ in range(10):
            quad = self.quad(rng)
            perm = list(range(4))
            rng.shuffle(perm)
            shuffled = [quad[i] for i in perm]
            rep = thrice_sixteen(quad)
            rep_s = thrice_sixteen(shuffled)
            # shuffled vertex i is vertex perm[i] of the sorted quadrangle
            for (a, b), p in rep_s.centers.items():
                want = rep.centers[f"{perm[int(a)]}{perm[int(b)]}"]
                assert math.dist((p.x, p.y), (want.x, want.y)) < 1e-9
            assert rep_s.midpoint_pairs == 12
            assert rep_s.circumcentres_reflect and rep_s.circumcircles_congruent

    def test_non_concyclic_rejected(self):
        with pytest.raises(DegenerateInput):
            thrice_sixteen(
                [Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0), Point(7.0, 7.0)]
            )

    @staticmethod
    def square_quad():
        # z = w² for the rational unit point w of each t: every chord between
        # two such points is rational, so all 16 centres are rational
        out = []
        for t in (Fraction(1, 3), Fraction(2), Fraction(-3, 5), Fraction(7, 4)):
            d = 1 + t * t
            x, y = (1 - t * t) / d, 2 * t / d
            out.append(Point(x * x - y * y, 2 * x * y))
        return out

    def test_exact_quadrangle(self):
        rep = thrice_sixteen(self.square_quad())
        assert all(
            type(p.x) is Fraction and type(p.y) is Fraction
            for p in rep.centers.values()
        )
        assert len(rep.centers) == 16
        assert rep.midpoint_pairs == 12
        assert rep.latin_square
        assert rep.circumcentres_reflect
        assert rep.circumcircles_congruent

    def test_exact_quadrangle_off_circle_rejected(self):
        quad = self.square_quad()
        quad[3] = Point(quad[3].x + Fraction(1, 10**12), quad[3].y)
        with pytest.raises(DegenerateInput):
            thrice_sixteen(quad)

    def test_integer_quadrangle_with_irrational_chords(self):
        quad = [Point(5, 0), Point(3, 4), Point(0, 5), Point(-4, 3)]
        rep = thrice_sixteen(quad)
        assert all(type(p.x) is float for p in rep.centers.values())
        assert rep.midpoint_pairs == 12
        assert rep.latin_square
        assert rep.circumcentres_reflect
        assert rep.circumcircles_congruent


# ---------------------------------------------------------------------------
# Thrice Sixteen against its touch_circles reference
# ---------------------------------------------------------------------------


def reference_thrice_sixteen(quad):
    """Reference report: the 16 centres from four `touch_circles` calls,
    and the grid and midpoint tables relabelled by f-strings per row."""
    pts = list(quad)
    if len(pts) != 4:
        raise DegenerateInput("need four points")
    misses = [0.0]

    def holds(r, m):
        if type(r) is float:
            misses.append(residual_ratio(r, m))
        return vanishes(r, m)

    def coincide(p, q):
        if p.is_exact() and q.is_exact():
            return p == q
        return holds(math.hypot(p.x - q.x, p.y - q.y), size)

    base = circumcircle(pts[0], pts[1], pts[2])
    if not holds(*base.residual(pts[3])):
        raise DegenerateInput("points are not concyclic")
    centers = {}
    for omit in range(4):
        others = [i for i in range(4) if i != omit]
        inc, *excs = touch.touch_circles([pts[i] for i in others])
        centers[f"{omit}{omit}"] = inc.circle.center
        for v_idx, exc in zip(others, excs):
            centers[f"{omit}{v_idx}"] = exc.circle.center
    size = sum(math.hypot(p.x, p.y) for p in (base.center, base.center, *centers.values()))
    ccw = sorted(range(4), key=lambda i: morley._angle_of(pts[i] - base.center))

    def tabled(row):
        return [f"{ccw[int(a)]}{ccw[int(b)]}" for a, b in row.split()]

    firsts = []
    for family in morley._GRID:
        lines = []
        for row in family:
            members = tabled(row)
            on = [centers[m] for m in members]
            line = Line.through(on[0], on[1])
            if not all([holds(*line.residual(p)) for p in on[2:]]):
                raise DegenerateInput(f"centres {' '.join(members)} not collinear")
            if lines and not line.is_parallel(lines[0]):
                raise DegenerateInput("grid families are not parallel")
            lines.append(line)
        firsts.append(lines[0])
    if not firsts[0].is_perpendicular(firsts[1]):
        raise DegenerateInput("grid families are not perpendicular")
    pair_count = 0
    for row in morley._MIDPOINTS:
        p, q, r, s = (centers[m] for m in tabled(row))
        m1, m2 = p.midpoint(q), r.midpoint(s)
        on_circle = [holds(*base.residual(m1)), holds(*base.residual(m2))]
        pair_count += coincide(m1, m2) and all(on_circle)
    centre = base.center
    reflect_ok = congruent_ok = True
    r_big = None
    for omit in range(4):
        own = [f"{omit}{omit}"] + [f"{omit}{v}" for v in range(4) if v != omit]
        for lab in own:
            circ = circumcircle(*(centers[m] for m in own if m != lab))
            if not coincide(circ.center, centre.scale(2) - centers[lab]):
                reflect_ok = False
            r = circ.radius()
            if r_big is None:
                r_big = r
            elif not holds(r - r_big, r + r_big):
                congruent_ok = False
    return morley.ThriceSixteenReport(
        centers, pair_count, True, reflect_ok, congruent_ok, max(misses)
    )


def _scalar_bits(x):
    return x.hex() if type(x) is float else (type(x), x)


def _thrice_bits(rep):
    return (
        [(k, type(p), _scalar_bits(p.x), _scalar_bits(p.y)) for k, p in rep.centers.items()],
        rep.midpoint_pairs, rep.latin_square, rep.circumcentres_reflect,
        rep.circumcircles_congruent, _scalar_bits(rep.worst),
    )


def _concyclic_draws(rng, count):
    """Four points on a circle of radius 0.1 to 50 about a centre in
    [−20, 20]², in random order; in every fifth draw two of them are 1e-7
    to 0.1 rad apart, where the grid checks start to fail."""
    for i in range(count):
        ths = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
        if i % 5 == 0:
            ths[1] = ths[0] + 10 ** rng.uniform(-7, -1)
        r, cx, cy = rng.uniform(0.1, 50), rng.uniform(-20, 20), rng.uniform(-20, 20)
        yield [Point(cx + r * math.cos(t), cy + r * math.sin(t)) for t in ths]


def _w2_quadrangle(ts):
    """The points w² for the rational unit points w of the parameters ts."""
    out = []
    for t in ts:
        d = 1 + t * t
        x, y = (1 - t * t) / d, 2 * t / d
        out.append(Point(x * x - y * y, 2 * x * y))
    return out


class TestThriceSixteenAgainstReference:
    DRAWS = 300

    def test_float_quadrangles(self):
        raised = 0
        for quad in _concyclic_draws(random.Random(29), self.DRAWS):
            want = _outcome(reference_thrice_sixteen, _thrice_bits, quad)
            assert _outcome(thrice_sixteen, _thrice_bits, quad) == want
            raised += want[0] is DegenerateInput
        assert 10 < raised < self.DRAWS // 4

    @pytest.mark.parametrize("degrees", [(0, 60, 180, 300), (0, 90, 180, 270)],
                             ids=["kite", "square"])
    def test_symmetric_quadrangles(self, degrees):
        quad = [Point(5 * math.cos(math.radians(d)), 5 * math.sin(math.radians(d)))
                for d in degrees]
        want = _outcome(reference_thrice_sixteen, _thrice_bits, quad)
        assert _outcome(thrice_sixteen, _thrice_bits, quad) == want

    def test_rejections(self):
        for quad in (
            [Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0), Point(7.0, 7.0)],
            [Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0)],
        ):
            want = _outcome(reference_thrice_sixteen, _thrice_bits, quad)
            assert want[0] is DegenerateInput
            assert _outcome(thrice_sixteen, _thrice_bits, quad) == want

    def test_exact_quadrangles(self):
        rng = random.Random(30)
        done = 0
        while done < 20:
            quad = _w2_quadrangle(
                [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(4)]
            )
            if len(set(quad)) < 4:
                continue
            want = _outcome(reference_thrice_sixteen, _thrice_bits, quad)
            assert all(t is Fraction for _, _, (t, _), _ in want[0])
            assert _outcome(thrice_sixteen, _thrice_bits, quad) == want
            done += 1

    def test_no_touch_circles(self, monkeypatch):
        """The 16 centres come from the side weights alone: no
        `touch_circles` call builds circles that are thrown away."""
        def forbidden(*args):
            raise AssertionError("thrice_sixteen called touch_circles")

        monkeypatch.setattr(touch, "touch_circles", forbidden)
        monkeypatch.setattr(morley, "touch_circles", forbidden, raising=False)
        rep = thrice_sixteen(TestThriceSixteen.square_quad())
        assert rep.midpoint_pairs == 12


class TestInsideOut:
    def test_pinned_fixture(self):
        a = Point(Fraction(60), Fraction(60))
        b = Point(Fraction(0), Fraction(0))
        c = Point(Fraction(180), Fraction(0))
        io = inside_out((a, b, c))
        assert io.circumcentre == Point(Fraction(90), Fraction(-30))
        assert io.orthocentre == Point(Fraction(60), Fraction(120))

    def test_random_rational_triangles(self):
        rng = random.Random(17)
        for _ in range(5):
            pts = [
                Point(Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50)))
                for _ in range(3)
            ]
            a, b, c = pts
            if (b - a).cross(c - a) == 0:
                continue
            io = inside_out((a, b, c))  # concurrences checked internally
            assert io.orthocentre == orthocentre(a, b, c)

    @staticmethod
    def inscribed(rng, gap=0.05):
        """A float triangle on a circle about the origin, its circumcentre,
        of radius in [1, 100], whose vertices are at least ``gap`` rad
        apart on the circle."""
        r = rng.uniform(1, 100)
        while True:
            ths = sorted(rng.uniform(0, 2 * math.pi) for _ in range(3))
            if min((ths[i - 2] - ths[i - 3]) % (2 * math.pi) for i in range(3)) >= gap:
                return [Point(r * math.cos(t), r * math.sin(t)) for t in ths]

    def test_circumcentre_at_the_origin(self):
        # the concurrence is about 1e-14 from the origin: its own norm
        # would reject the rounding of the lines through it
        rng = random.Random(1)
        for _ in range(200):
            tri = quadrangle.Triangle(self.inscribed(rng))
            io = inside_out(tri)
            assert math.hypot(io.circumcentre.x, io.circumcentre.y) <= 1e-9 * 100
            assert io.orthocentre == tri.orthocentre

    @pytest.mark.parametrize(
        "module, name, match",
        [
            (morley, "reflect_line_in_line", "fail to concur"),
            (quadrangle, "circumcircle", "not the circumcentre"),
            (quadrangle, "orthocentre", "miss the orthocentre"),
        ],
    )
    def test_origin_misses_raise(self, monkeypatch, module, name, match):
        # one construction moved by 1e-6 of the data's size still fails
        tri = self.inscribed(random.Random(1))
        by = 1e-6 * sum(math.hypot(p.x, p.y) for p in tri)
        inside_out(tri)
        real = getattr(module, name)

        def moved(*args):
            out = real(*args)
            if isinstance(out, Line):
                return Line(out.a, out.b, out.c + by)
            if isinstance(out, kernel.Circle):
                return kernel.Circle(Point(out.center.x + by, out.center.y), out.r2)
            return Point(out.x + by, out.y)

        monkeypatch.setattr(module, name, moved)
        with pytest.raises(IdentityViolated, match=match):
            inside_out(tri)

    def test_missed_orthocentre_raises(self, monkeypatch):
        monkeypatch.setattr(
            quadrangle, "orthocentre", lambda a, b, c: Point(Fraction(1), Fraction(1))
        )
        with pytest.raises(IdentityViolated, match="orthocentre"):
            inside_out((
                Point(Fraction(60), Fraction(60)),
                Point(Fraction(0), Fraction(0)),
                Point(Fraction(180), Fraction(0)),
            ))
