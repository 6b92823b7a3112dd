"""Quarter-angle algebra, the 32-solution group, radpoint/guyline
incidences, and the Malfatti circle construction."""

import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quadgeo.malfatti as malfatti
from quadgeo.cli_figures import _unit_circle_power, run_suite
from quadgeo.kernel import (
    Barycentric,
    DEFAULT_EPS,
    DegenerateInput,
    Point,
    is_exact,
    radical_axis,
)
from quadgeo.malfatti import (
    GuyLine,
    IdentityViolated,
    PoleEncountered,
    SOLUTION_LABELS,
    ZERO_COLLINEARITIES,
    ZERO_POINT_LABELS,
    LabelAuditReport,
    _g,
    _on_vertex_line,
    _s_map,
    all_oddpoints,
    all_radpoints,
    complete_state,
    gergonne_points,
    group_audit,
    guylines,
    label_audit,
    malfatti_circles,
    nagel_points,
    pegs,
    point_coords,
    quarter_angles,
    radcoord,
    radpoint_of_solution,
    solution_states,
    validate,
    variant_contact_circle,
    verify_malfatti,
    vertical_guyline_equation,
    zero_point_collinearities,
    zero_points,
    zerocoord,
)
from quadgeo.quadrangle import Triangle

STATE = (F(2, 9), F(1, 4), F(1, 3))


def pair(t):
    """t as (numerator, denominator), the form the digit maps read."""
    t = F(t)
    return t.numerator, t.denominator


def rad(t):
    """radcoord of a Fraction, as a Fraction."""
    return F(*radcoord(pair(t)))


def extravert(state, flip):
    """Reference flip map over Fractions: the A-flip replaces the angles
    (A, B, C) by (-A, π-B, π-C), in quarter-angle tangents
    (u, v, w) -> (-u, (1-v)/(1+v), (1-w)/(1+w)); B and C cyclically."""
    pos = "ABC".index(flip)
    if any(t == -1 for p, t in enumerate(state) if p != pos):
        raise PoleEncountered("flip map pole at -1")
    return tuple(-t if p == pos else (1 - t) / (1 + t) for p, t in enumerate(state))


def orbit(state):
    """Reference closure of a state under the three flips, sorted."""
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for f in "ABC":
            t = extravert(s, f)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return sorted(seen)


def oracle_solution_states(state):
    """The 32 solutions built one by one: the eight ordinary ones from their
    own transforms of u, v, w, each with its three flips by ``extravert``."""

    def rec(t):
        if t == 0:
            raise PoleEncountered("reciprocal of zero")
        return 1 / t

    neg = lambda t: -t
    ordinary = {
        "0": (lambda t: t, lambda t: t, lambda t: t),
        "3": (lambda t: t, lambda t: -rec(t), lambda t: -rec(t)),
        "5": (lambda t: -rec(t), lambda t: t, lambda t: -rec(t)),
        "6": (lambda t: -rec(t), lambda t: -rec(t), lambda t: t),
        "7": (rec, rec, rec),
        "4": (rec, neg, neg),
        "2": (neg, rec, neg),
        "1": (neg, neg, rec),
    }
    malfatti.assert_valid(state)
    out = {}
    for digit, fns in ordinary.items():
        s = tuple(f(t) for f, t in zip(fns, state))
        out[digit] = s
        for suffix, flip in zip("abc", "ABC"):
            out[digit + suffix] = extravert(s, flip)
    return out


def random_state(rng):
    while True:
        v = F(rng.randint(1, 30), rng.randint(31, 90))
        w = F(rng.randint(1, 30), rng.randint(31, 90))
        try:
            s = complete_state(v, w)
        except PoleEncountered:
            continue
        if 0 not in s and all(abs(t) != 1 for t in s):
            return s


class TestQuarterAngles:
    def test_closure_identity(self):
        assert validate(*STATE)
        assert not validate(F(1, 2), F(1, 4), F(1, 3))

    def test_complete_state(self):
        assert complete_state(F(1, 4), F(1, 3)) == STATE

    def test_invalid_state_rejected(self):
        from quadgeo.malfatti import IdentityViolated, assert_valid

        with pytest.raises(IdentityViolated):
            assert_valid((F(1, 2), F(1, 4), F(1, 3)))
        with pytest.raises(IdentityViolated):
            solution_states((F(1, 2), F(1, 4), F(1, 3)))

    def test_complete_state_pole(self):
        with pytest.raises(PoleEncountered):
            complete_state(F(3), F(2))

    def test_triangle_quarter_angles_validate(self):
        u, v, w = quarter_angles(Point(0, 0), Point(4, 0), Point(1, 3))
        lhs = 1 + u * v * w
        rhs = u + v + w + v * w + w * u + u * v
        assert abs(lhs - rhs) < 1e-12

    def test_degenerate_triangle(self):
        with pytest.raises(DegenerateInput):
            quarter_angles(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_triangle_quarter_angles_match_atan2(self):
        # the closed form r/(s − a + IA) against tan(A/4) of the angle at A
        def angle(p, q, r):
            d1, d2 = q - p, r - p
            return abs(math.atan2(d1.cross(d2), d1.dot(d2)))

        rng = random.Random(29)
        for _ in range(40):
            a, b, c = (Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in "abc")
            if abs((b - a).cross(c - a)) < 1.0:
                continue
            want = [math.tan(angle(*t) / 4) for t in ((a, b, c), (b, c, a), (c, a, b))]
            assert quarter_angles(a, b, c) == pytest.approx(want, rel=1e-12)

    def test_random_states_validate(self):
        rng = random.Random(5)
        for _ in range(50):
            assert validate(*random_state(rng))


class TestExtraversion:
    def test_a_flip_example(self):
        assert extravert(STATE, "A") == (F(-2, 9), F(3, 5), F(1, 2))
        assert solution_states(STATE)["0a"] == (F(-2, 9), F(3, 5), F(1, 2))

    def test_flips_are_involutions(self):
        for f in "ABC":
            assert extravert(extravert(STATE, f), f) == STATE
        for t in STATE:
            assert _s_map(_s_map(pair(t))) == pair(t)

    def test_flips_preserve_closure(self):
        for f in "ABC":
            assert validate(*extravert(STATE, f))

    def test_pole(self):
        with pytest.raises(PoleEncountered):
            _s_map(pair(-1))

    def test_orbit_size(self):
        assert len(orbit(STATE)) == 32

    def test_solution_states_distinct_and_valid(self):
        sols = solution_states(STATE)
        assert len(sols) == 32
        assert len(set(sols.values())) == 32
        for s in sols.values():
            assert validate(*s)
        assert set(sols.values()) == set(orbit(STATE))

    def test_solution_states_equal_oracle(self):
        # small v, w often put u, v or w on a pole 0, 1 or -1
        rng = random.Random(13)
        states = [STATE]
        while len(states) < 201:
            v = F(rng.randint(-4, 4), rng.randint(1, 4))
            w = F(rng.randint(-4, 4), rng.randint(1, 4))
            try:
                states.append(complete_state(v, w))
            except PoleEncountered:
                continue
        poles = 0
        for s in states:
            try:
                want = oracle_solution_states(s)
            except PoleEncountered:
                poles += 1
                with pytest.raises(PoleEncountered):
                    solution_states(s)
                continue
            got = solution_states(s)
            assert got == want
            assert all(type(t) is F for sol in got.values() for t in sol)
        assert 0 < poles < len(states)

    def test_random_orbits(self):
        rng = random.Random(11)
        for _ in range(10):
            assert len(orbit(random_state(rng))) == 32


class TestGroupAudit:
    def test_generic(self):
        rep = group_audit(STATE)
        assert rep.order == 32
        assert rep.relations_hold
        assert rep.abc_equals_cba
        assert rep.centre == ("0", "3", "5", "6")
        assert rep.involutions == 19
        assert set(rep.order_four) == {
            d + s for d in "1247" for s in "abc"
        }

    def test_random_states(self):
        rng = random.Random(3)
        for _ in range(5):
            rep = group_audit(random_state(rng))
            assert rep.order == 32 and rep.relations_hold

    def test_flip_that_misses_its_label_raises(self, monkeypatch):
        # a flip map that sends one component of solution 0 to the negated
        # image, so the flipped solution is not the one its label names
        real = malfatti._s_map
        for t in STATE:
            wrong = pair(t)

            def misses(x):
                n, d = real(x)
                return (-n, d) if x == wrong else (n, d)

            monkeypatch.setattr(malfatti, "_s_map", misses)
            with pytest.raises(IdentityViolated, match="flip"):
                group_audit(STATE)


class TestRadpoints:
    def test_fundamental_radpoint(self):
        p = point_coords((0, 0, 0), STATE)
        assert p.same_point(Barycentric(F(154, 765), F(15, 68), F(4, 15)))

    def test_counts(self):
        rads = all_radpoints(STATE)
        odds = all_oddpoints(STATE)
        assert len(rads) == 32 and len(odds) == 32
        assert sum(1 for lab in odds if sum(lab) % 4 == 1) == 16
        assert sum(1 for lab in odds if sum(lab) % 4 == 3) == 16

    def test_all_projectively_distinct(self):
        pts = list(all_radpoints(STATE).values()) + list(
            all_oddpoints(STATE).values()
        )
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert not p.same_point(q)

    def test_shape_sign_pairs(self):
        # radcoord is odd: each shape I, R, S, T has its negative i, r, s, t
        # at the negated tangent, so a solution's sign σ leaves its radpoint
        u, _, _ = STATE
        for t in (u, -1 / u, (1 - u) / (1 + u), (1 + u) / (1 - u)):
            assert rad(-t) == -rad(t)

    def test_solution_seven_shape(self):
        u, v, w = STATE
        p = radpoint_of_solution("7", STATE)
        shape_r = lambda t: -rad(-1 / t)
        assert p.same_point(Barycentric(shape_r(u), shape_r(v), shape_r(w)))

    def test_solution_digit_bijection(self):
        dm = {name: label[1:] for name, label in SOLUTION_LABELS.items()}
        assert len(dm) == 32
        assert len(set(dm.values())) == 32
        assert dm["0"] == (0, 0, 0)
        assert dm["7"] == (2, 2, 2)
        for lab, ijk in dm.items():
            assert sum(ijk) % 2 == 0

    def test_solution_digit_map_matches_per_label_reference(self):
        # the search the label table replaces: each solution's radical centre
        # matched to the one radpoint it is the same point as
        dm = {name: label[1:] for name, label in SOLUTION_LABELS.items()}
        rng = random.Random(41)
        for s in [STATE] + [random_state(rng) for _ in range(10)]:
            rads = all_radpoints(s)
            ref = {}
            for lab, sol in oracle_solution_states(s).items():
                p = Barycentric(*map(rad, sol))
                (ref[lab],) = [ijk for ijk, q in rads.items() if p.same_point(q)]
                assert radpoint_of_solution(lab, s).same_point(p)
            assert dm == ref


class TestNagelGergonne:
    def test_nagel_sum_identity(self):
        # componentwise (1-t²)/t = h(t) + h(-1/t): N_o = <000> + <222>
        n = nagel_points(STATE)["o"]
        p, q = point_coords((0, 0, 0), STATE), point_coords((2, 2, 2), STATE)
        assert (n.x, n.y, n.z) == (p.x + q.x, p.y + q.y, p.z + q.z)

    def test_gergonne_on_pegs(self):
        # every peG assertion passes during construction
        assert len(pegs(STATE)) == 16

    def test_counts(self):
        assert set(nagel_points(STATE)) == {"o", "a", "b", "c"}
        assert set(gergonne_points(STATE)) == {"o", "a", "b", "c"}


class TestGuylines:
    def test_counts(self):
        gl = guylines(STATE)
        assert len(gl) == 64
        assert sum(1 for g in gl if g.kind == "vertical") == 48
        assert sum(1 for g in gl if g.kind == "nail") == 16

    def test_vertical_membership_parity(self):
        for g in guylines(STATE):
            if g.kind != "vertical":
                continue
            rads = [m for m in g.members if sum(m) % 2 == 0]
            odds = [m for m in g.members if sum(m) % 2 == 1]
            assert len(rads) == 2 and len(odds) == 2

    def test_concurrence_at_corner_radpoint(self):
        # [*33], [3*3] and [33*] all contain <233>... no: they meet at <333>
        gl = {g.label: g for g in guylines(STATE) if g.kind == "vertical"}
        p = point_coords((3, 3, 3), STATE)
        for lab in ("[*33]", "[3*3]", "[33*]"):
            line = gl[lab].line
            assert line[0] * p.x + line[1] * p.y + line[2] * p.z == 0

    def test_seventeen_fifty(self):
        sols = solution_states(STATE)
        for lab in ("3b", "2b"):
            s = sols[lab]
            p = Barycentric(rad(s[0]), rad(s[1]), rad(s[2]))
            assert vertical_guyline_equation("A", p) == (0, 17, 50)

    def test_random_states(self):
        rng = random.Random(17)
        for _ in range(50):
            s = random_state(rng)
            try:
                assert len(guylines(s)) == 64
                assert len(pegs(s)) == 16
            except PoleEncountered:
                continue


def bits_state(rng, bits):
    """A state with v, w quotients of random bits-bit integers, off the
    poles 0, 1 and -1."""
    while True:
        v = F(rng.randrange(1, 2**bits), rng.randrange(1, 2**bits))
        w = F(rng.randrange(1, 2**bits), rng.randrange(1, 2**bits))
        try:
            s = complete_state(v, w)
        except PoleEncountered:
            continue
        if all(t not in (0, 1, -1) for t in s):
            return s


def ref_join(p, q):
    """The join of two barycentric points over Fractions."""
    return (
        p.y * q.z - p.z * q.y,
        p.z * q.x - p.x * q.z,
        p.x * q.y - p.y * q.x,
    )


def ref_on(line, p):
    return line[0] * p.x + line[1] * p.y + line[2] * p.z == 0


def reference_lines(state):
    """guylines and peGs built label by label from point_coords and the
    Fraction join."""
    pc = lambda lab: point_coords(lab, state)
    verticals, nails, pgs = [], [], []
    for pos, vertex in enumerate("ABC"):
        for rest in product(range(4), repeat=2):
            members = tuple(rest[:pos] + (d,) + rest[pos:] for d in range(4))
            pts = [pc(m) for m in members]
            line = ref_join(pts[0], pts[1])
            assert all(ref_on(line, p) for p in pts[2:])
            assert line[pos] == 0
            text = "".join(
                "*" if i == pos else str(members[0][i]) for i in range(3)
            )
            verticals.append(GuyLine("vertical", vertex, f"[{text}]", line, members))
    for lab in product(range(4), repeat=3):
        if sum(lab) % 4 != 1:
            continue
        odd = [d % 2 for d in lab]
        suffix = "o" if all(odd) else "abc"[odd.index(1)]
        plus = tuple((d + 1) % 4 for d in lab)
        minus = tuple((d - 1) % 4 for d in lab)
        anti = tuple((d + 2) % 4 for d in lab)
        name = "".join(map(str, lab))
        nails.append(GuyLine(
            "nail", suffix, f"[{name}{suffix}]", ref_join(pc(plus), pc(minus)),
            (plus, minus),
        ))
        pgs.append(GuyLine(
            "peg", suffix, f"[{''.join(map(str, anti))}{suffix}]",
            ref_join(pc(lab), pc(anti)), (lab, anti),
        ))
    return verticals + nails, pgs


def coefficient_types(lines):
    return [tuple(map(type, g.line)) for g in lines]


def ref_rad(t):
    return t * (1 - t * t) / (1 + t * t)


def ref_radpoint(name, state):
    """The radpoint of solution ``name`` from the textbook transforms."""
    _, *digits = SOLUTION_LABELS[name]
    return Barycentric(*(ref_rad(REF_G[d](t)) for d, t in zip(digits, state)))


def ref_half_angle_points(state):
    """Nagel and Gergonne points from the textbook formulas over Fractions."""
    ir = lambda t: (1 - t * t) / (2 * t)
    ts = lambda t: 2 * t / (t * t - 1)
    tn = lambda t: t / (1 - t * t)
    ct = lambda t: (t * t - 1) / (2 * t)
    u, v, w = state
    nagels = {
        "o": Barycentric(2 * ir(u), 2 * ir(v), 2 * ir(w)),
        "a": Barycentric(ir(u), ts(v), ts(w)),
        "b": Barycentric(ts(u), ir(v), ts(w)),
        "c": Barycentric(ts(u), ts(v), ir(w)),
    }
    gergonnes = {
        "o": Barycentric(tn(u), tn(v), tn(w)),
        "a": Barycentric(2 * tn(u), ct(v), ct(w)),
        "b": Barycentric(ct(u), 2 * tn(v), ct(w)),
        "c": Barycentric(ct(u), ct(v), 2 * tn(w)),
    }
    return nagels, gergonnes


REF_VERTICES = {
    "A": Barycentric(F(1), F(0), F(0)),
    "B": Barycentric(F(0), F(1), F(0)),
    "C": Barycentric(F(0), F(0), F(1)),
}


def ref_label_audit(state):
    """label_audit over Fractions: line rfq joins the radpoints of solutions
    q·f and (q ⊕ σ)·f with σ = 7 ⊕ r ⊕ f and must pass through vertex r, or
    through Nagel point f on row N."""
    nagels, _ = ref_half_angle_points(state)
    checked, ok = 0, True
    for row, r in {"N": 0, "A": 3, "B": 5, "C": 6}.items():
        for flip, f in {"o": 0, "a": 3, "b": 5, "c": 6}.items():
            suffix = {0: "", 3: "a", 5: "b", 6: "c"}[f]
            through = nagels[flip] if row == "N" else REF_VERTICES[row]
            for q in (0, 3, 5, 6):
                line = ref_join(
                    ref_radpoint(f"{q}{suffix}", state),
                    ref_radpoint(f"{q ^ 7 ^ r ^ f}{suffix}", state),
                )
                ok = ok and ref_on(line, through)
                checked += 1
    return LabelAuditReport(checked, ok)


def det3(p, q, r):
    (a, b, c), (d, e, f), (g, h, i) = p, q, r
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def ref_zero_point_collinearities(state):
    """The 24 rows counted by the 3×3 determinant over Fractions."""
    zero = lambda text: [
        REF_G[int(d)](t) / (1 + REF_G[int(d)](t) ** 2) for d, t in zip(text, state)
    ]
    count = 0
    for v, l1, l2 in ZERO_COLLINEARITIES:
        vertex = REF_VERTICES[v]
        count += det3((vertex.x, vertex.y, vertex.z), zero(l1), zero(l2)) == 0
    return count


def ref_group_audit(state):
    """group_audit over Fractions: the 32 oracle solutions are distinct and
    each of the 96 (solution, flip) images by ``extravert`` is the solution
    its flipped label names."""
    sols = oracle_solution_states(state)
    if len(set(sols.values())) != 32:
        raise DegenerateInput("state orbit is degenerate")
    for name, s in sols.items():
        for f, image in malfatti._FLIPPED.items():
            if extravert(s, f) != sols[image[name]]:
                raise IdentityViolated(f"{f}-flip of solution {name}")
    return malfatti._GROUP


class TestComponentTable:
    """The component-table constructions equal the label-by-label ones."""

    @pytest.mark.parametrize("bits", [4, 64])
    def test_equals_point_by_point_reference(self, bits):
        rng = random.Random(bits)
        for _ in range(8):
            s = bits_state(rng, bits)
            ref_gl, ref_pegs = reference_lines(s)
            for got, want in ((guylines(s), ref_gl), (pegs(s), ref_pegs)):
                assert got == want
                assert coefficient_types(got) == coefficient_types(want)
            labels = list(product(range(4), repeat=3))
            assert all_radpoints(s) == {
                lab: point_coords(lab, s) for lab in labels if sum(lab) % 2 == 0
            }
            assert all_oddpoints(s) == {
                lab: point_coords(lab, s) for lab in labels if sum(lab) % 2 == 1
            }
            zc = lambda d, t: F(*zerocoord(_g(d, pair(t))))
            assert zero_points(s) == {
                text: Barycentric(*(zc(int(d), t) for d, t in zip(text, s)))
                for text in ZERO_POINT_LABELS
            }

    @pytest.mark.parametrize("bits", [4, 64])
    def test_audits_equal_fraction_references(self, bits):
        """The integer joins, minors and pair comparisons decide as the
        Fraction joins, determinants and state comparisons do."""
        rng = random.Random(100 + bits)
        for _ in range(8):
            s = bits_state(rng, bits)
            assert (nagel_points(s), gergonne_points(s)) == ref_half_angle_points(s)
            assert label_audit(s) == ref_label_audit(s)
            assert zero_point_collinearities(s) == ref_zero_point_collinearities(s)
            assert group_audit(s) is ref_group_audit(s)

    @pytest.mark.parametrize("t", [F(0), F(1), F(-1)], ids=str)
    @pytest.mark.parametrize(
        "fn",
        [guylines, pegs, zero_points, zero_point_collinearities,
         all_radpoints, all_oddpoints, nagel_points, gergonne_points],
        ids=lambda f: f.__name__,
    )
    def test_pole_is_typed(self, fn, t):
        for pos in range(3):
            state = list(STATE)
            state[pos] = t
            with pytest.raises(PoleEncountered):
                fn(tuple(state))


#: the digit transforms g_d(t) over Fractions, angle θ -> θ + dπ
REF_G = (
    lambda t: t,
    lambda t: (1 + t) / (1 - t),
    lambda t: -1 / t,
    lambda t: (t - 1) / (t + 1),
)


def _quotients(bits):
    n = 2 ** bits
    return st.builds(F, st.integers(-n, n), st.integers(1, n))


class TestIntegerMaps:
    """The digit maps read t = n/d and build one Fraction; each equals its
    textbook formula over Fractions."""

    @given(st.one_of(_quotients(4), _quotients(64)),
           st.one_of(_quotients(4), _quotients(64)))
    @settings(max_examples=100)
    def test_radpoints_and_zero_points(self, v, w):
        try:
            state = complete_state(v, w)
        except PoleEncountered:
            return
        if any(t in (0, 1, -1) for t in state):
            return
        rad = lambda t: t * (1 - t * t) / (1 + t * t)
        zero = lambda t: t / (1 + t * t)
        for label, (_, *digits) in SOLUTION_LABELS.items():
            got = radpoint_of_solution(label, state)
            want = [rad(REF_G[d](t)) for d, t in zip(digits, state)]
            assert [got.x, got.y, got.z] == want
            assert all(type(c) is F for c in (got.x, got.y, got.z))
        for text, got in zero_points(state).items():
            want = [zero(REF_G[int(d)](t)) for d, t in zip(text, state)]
            assert [got.x, got.y, got.z] == want
            assert all(type(c) is F for c in (got.x, got.y, got.z))
        # the pair maps give the textbook values in lowest terms, the form
        # in which group_audit compares them
        for t in state:
            assert _s_map(pair(t)) == pair((1 - t) / (1 + t))
            for d, ref in enumerate(REF_G):
                assert _g(d, pair(t)) == pair(ref(t))

    @given(st.integers(0, 2),
           st.lists(st.one_of(_quotients(4), _quotients(64)), min_size=6, max_size=6),
           st.one_of(_quotients(4), _quotients(64)),
           st.one_of(_quotients(4), _quotients(64)))
    @settings(max_examples=150)
    def test_on_vertex_line(self, pos, values, k, m):
        """The 2×2 minor decides as the 3×3 determinant of the vertex and
        the two points over Fractions."""
        vertex = [F(int(i == pos)) for i in range(3)]
        p, q = values[:3], values[3:]
        pairs = lambda point: [pair(x) for x in point]
        assert _on_vertex_line(pos, pairs(p), pairs(q)) == (det3(vertex, p, q) == 0)
        # a point on the line through the vertex and p
        on = [m * x + k * v for x, v in zip(p, vertex)]
        assert _on_vertex_line(pos, pairs(p), pairs(on))

    @pytest.mark.parametrize("num", [int, F], ids=["int", "Fraction"])
    @pytest.mark.parametrize("digit, t", [(1, 1), (2, 0), (3, -1)])
    def test_poles_raise(self, num, digit, t):
        with pytest.raises(PoleEncountered):
            _g(digit, pair(num(t)))
        state = (num(t), STATE[1], STATE[2])
        with pytest.raises(PoleEncountered):
            point_coords((digit, 0, 0), state)
        with pytest.raises(PoleEncountered):
            zero_points(state)
        if t == -1:
            with pytest.raises(PoleEncountered):
                _s_map(pair(num(t)))


class TestIncidenceChecks:
    """The Nagel and Gergonne incidences raise IdentityViolated (not
    assert, which ``python -O`` strips) when they fail."""

    @staticmethod
    def centroids(state):
        return {k: Barycentric(1, 1, 1) for k in "oabc"}

    def test_nail_misses_nagel_point(self, monkeypatch):
        monkeypatch.setattr(malfatti, "nagel_points", self.centroids)
        with pytest.raises(IdentityViolated, match="Nail"):
            guylines(STATE)

    def test_peg_misses_gergonne_point(self, monkeypatch):
        monkeypatch.setattr(malfatti, "gergonne_points", self.centroids)
        with pytest.raises(IdentityViolated, match="peG"):
            pegs(STATE)


class TestLabelAudit:
    def test_boxes(self):
        rep = label_audit(STATE)
        assert rep.lines_checked == 64
        assert rep.nim_sum_boxes_ok
        assert len({label[1:] for label in SOLUTION_LABELS.values()}) == 32

    def test_example_536(self):
        # line 536 (row B, flip a, q = 6) joins the radpoints of solutions
        # 6a and 6 ⊕ 7 ⊕ 5 ⊕ 3 = 7a, and passes through vertex B
        assert label_audit(STATE).nim_sum_boxes_ok
        line = ref_join(
            radpoint_of_solution("6a", STATE), radpoint_of_solution("7a", STATE)
        )
        assert ref_on(line, Barycentric(0, 1, 0))


class TestZeroPoints:
    def test_sixteen_points(self):
        pts = zero_points(STATE)
        assert len(pts) == 16
        vals = list(pts.values())
        for i, p in enumerate(vals):
            for q in vals[i + 1:]:
                assert not p.same_point(q)

    def test_all_collinearities(self):
        assert zero_point_collinearities(STATE) == 24

    def test_random_states(self):
        rng = random.Random(23)
        for _ in range(20):
            s = random_state(rng)
            try:
                assert zero_point_collinearities(s) == 24
            except PoleEncountered:
                continue


#: Steiner's construction of the Malfatti circles, as the package computed
#: it before the closed form: (centre x, centre y, r²) per circle and the
#: contacts (X, Y, Z), at 12 significant digits
STEINER_PINS = {
    "t0 face 7": (
        (
            (22.998900503, 44.4950522634, 1521.25729318),
            (-41.4466937158, -22.8155645719, 2935.95304266),
            (57.1878397717, -32.112703863, 2014.86935449),
        ),
        ((7.87057302792, -77), (77.1039265909, 25.9301376421),
         (-37.1802167822, 48.1148374134)),
    ),
    "(0, 0), (4, 0), (1, 3)": (
        (
            (0.849466757646, 0.612260997704, 0.37486352931),
            (2.20054600757, 0.745358248532, 0.555558918654),
            (1.28395779005, 1.79713549859, 0.422194772088),
        ),
        ((2.23550251263, 1.76449748737), (0.468080701829, 1.40424210549),
         (1.52500638261, 0)),
    ),
}
STEINER_TRIANGLES = {
    "t0 face 7": (Point(36, 103), Point(-204, -77), Point(132, -77)),
    "(0, 0), (4, 0), (1, 3)": (Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)),
}


def unit_power_triangle(ts):
    """The triangle of points w⁴ for the tangents ``ts``."""
    return tuple(_unit_circle_power(F(t), 2) for t in ts)


def radical_centre(circles):
    axes = [radical_axis(circles[i], circles[i - 1]) for i in (1, 2)]
    return axes[0].intersect(axes[1])


def barycentric_point(p, tri):
    """The point (x·A + y·B + z·C)/(x + y + z) of barycentrics (x, y, z)."""
    k = (p.x, p.y, p.z)
    return Point(
        sum(w * v.x for w, v in zip(k, tri)) / sum(k),
        sum(w * v.y for w, v in zip(k, tri)) / sum(k),
    )


class TestMalfattiCircles:
    def test_reference_triangle(self):
        tri = (Point(36, 103), Point(-204, -77), Point(132, -77))
        circles, touch_points = malfatti_circles(*tri)
        assert verify_malfatti(circles, *tri) <= DEFAULT_EPS
        miss = variant_contact_circle(circles, touch_points, *tri)
        assert miss <= DEFAULT_EPS

    @pytest.mark.parametrize("name", sorted(STEINER_PINS))
    def test_matches_steiner_construction(self, name):
        circles, touch_points = malfatti_circles(*STEINER_TRIANGLES[name])
        want_circles, want_touch = STEINER_PINS[name]
        got = [(c.center.x, c.center.y, c.r2) for c in circles]
        got += [(p.x, p.y) for p in touch_points]
        for g, w in zip(got, want_circles + want_touch):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    def test_transverse_tangents_concur(self):
        # Steiner's transverse tangent through X is the radical axis of the
        # B- and C-circles; the three meet at the radical centre
        tri = (Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
        circles, touch_points = malfatti_circles(*tri)
        assert verify_malfatti(circles, *tri) <= DEFAULT_EPS
        axes = [radical_axis(circles[i - 2], circles[i - 1]) for i in range(3)]
        for axis, p in zip(axes, touch_points):
            assert abs(axis.evaluate(p)) <= 1e-12
        assert abs(axes[2].evaluate(axes[0].intersect(axes[1]))) <= 1e-12

    def test_touch_points_on_edges(self):
        tri = (Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
        from quadgeo.kernel import Line

        _, touch_points = malfatti_circles(*tri)
        edges = (
            Line.through(tri[1], tri[2]),
            Line.through(tri[2], tri[0]),
            Line.through(tri[0], tri[1]),
        )
        assert len(touch_points) == 3
        for p, e in zip(touch_points, edges):
            assert abs(float(e.evaluate(p))) < 1e-12

    def test_random_triangles(self):
        rng = random.Random(29)
        for _ in range(40):
            tri = tuple(
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(3)
            )
            if abs(float((tri[1] - tri[0]).cross(tri[2] - tri[0]))) < 1.0:
                continue
            circles, touch_points = malfatti_circles(*tri)
            assert verify_malfatti(circles, *tri) <= DEFAULT_EPS
            assert (
                variant_contact_circle(circles, touch_points, *tri)
                <= DEFAULT_EPS
            )

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            malfatti_circles(Point(0, 0), Point(1, 0), Point(2, 0))

    def test_shifted_incentre_is_a_failed_exact_case(self, monkeypatch):
        # a shift of 1e-12 moves every circle by less than the float
        # tolerances, so only the exact w⁴ cases can see it
        real = Triangle.point

        def shifted(tri, *weights):   # the incentre, weighted by the sides
            p = real(tri, *weights)
            return Point(p.x + F(1, 10**12), p.y) if weights == tri.sides else p

        monkeypatch.setattr(Triangle, "point", shifted)
        res = run_suite("malfatti", count=10)
        assert not res.passed
        assert res.approx_passes == 2
        assert any(f.startswith("exact Malfatti circles at t=") for f in res.failures)
        assert any(f.startswith("exact variant contact circle") for f in res.failures)


@settings(max_examples=30, deadline=None)
@given(
    ts=st.lists(
        st.builds(
            F, st.integers(1, 20).flatmap(lambda n: st.sampled_from((n, -n))),
            st.integers(1, 20),
        ),
        min_size=3,
        max_size=3,
    )
)
def test_property_exact_on_unit_power_triangles(ts):
    tri = unit_power_triangle(ts)
    assume(len(set(tri)) == 3)
    circles, touch_points = malfatti_circles(*tri)
    assert all(c.center.is_exact() and is_exact(c.r2) for c in circles)
    assert all(p.is_exact() for p in touch_points)
    assert verify_malfatti(circles, *tri) == 0
    assert variant_contact_circle(circles, touch_points, *tri) == 0
    state = quarter_angles(*tri)
    assert all(type(t) is F for t in state)
    assert validate(*state)
    assert barycentric_point(point_coords((0, 0, 0), state), tri) == radical_centre(
        circles
    )


@settings(max_examples=20, deadline=None)
@given(
    vn=st.integers(1, 25),
    vd=st.integers(26, 80),
    wn=st.integers(1, 25),
    wd=st.integers(26, 80),
)
def test_property_closure_and_orbit(vn, vd, wn, wd):
    try:
        s = complete_state(F(vn, vd), F(wn, wd))
    except PoleEncountered:
        return
    if 0 in s or any(abs(t) == 1 for t in s):
        return
    assert validate(*s)
    for f in "ABC":
        t = extravert(s, f)
        assert validate(*t)
        assert extravert(t, f) == s
