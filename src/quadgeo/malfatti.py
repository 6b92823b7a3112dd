"""Quarter-angle tangent algebra: the 32-solution extraversion group,
radpoints, guylines, Nails, peGs, oddpoints, and the Malfatti circles.

Everything combinatorial lives in the parameters (u, v, w) = tangents of
the quarter-angles, where the whole configuration is exact rational
barycentric algebra.  It runs on integers: a tangent t = n/d is the pair
(n, d) in lowest terms with d > 0, the digit maps and barycentric
components map pairs to pairs, a point is an integer triple over one
denominator, a line is the integer cross product of two such triples, and
an incidence is an integer dot product.  A `Fraction` is built only for a
value that is returned.  Triangles enter only through quarter_angles
and malfatti_circles, closed forms in the triangle's metrics and
IA = √((s − a)² + r²), …, on one path for both scalar types: they are
exact wherever IA, IB and IC are rational, as on a triangle of points w⁴
for rational points w of the unit circle, and the two checks
verify_malfatti and variant_contact_circle then return an exact residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Sequence, Tuple

from .kernel import (
    Barycentric,
    Circle,
    DegenerateInput,
    GeometryError,
    IdentityViolated,
    Number,
    Point,
    _ratio,
    foot_of_perpendicular,
    primitive_integers,
    residual_ratio,
    sqrt_scalar,
)
from .quadrangle import Triangle
from .touch import touch_circles

State = Tuple[Fraction, Fraction, Fraction]
#: a rational n/d as (n, d) in lowest terms with d > 0
Pair = Tuple[int, int]
Triple = Tuple[int, int, int]


class PoleEncountered(GeometryError):
    pass


# ---------------------------------------------------------------------------
# quarter angles and the closure identity
# ---------------------------------------------------------------------------


def validate(u, v, w) -> bool:
    """Closure of A + B + C = π in quarter-angle tangents."""
    return 1 + u * v * w == u + v + w + v * w + w * u + u * v


def assert_valid(state: State) -> State:
    if not validate(*state):
        raise IdentityViolated(f"{state} does not satisfy the closure identity")
    return state


def complete_state(v: Fraction, w: Fraction) -> State:
    """Solve the closure identity (linear in u) given v and w."""
    v, w = Fraction(v), Fraction(w)
    den = v * w - v - w - 1
    if den == 0:
        raise PoleEncountered("closure identity degenerates for this (v, w)")
    u = (v + w + v * w - 1) / den
    return (u, v, w)


def _tangent_lengths(tri: Triangle) -> Tuple[Tuple[Number, ...], Tuple[Number, ...]]:
    """(s − a, s − b, s − c), the tangents from the vertices to the incircle,
    and (IA, IB, IC) = (√((s − a)² + r²), …), exact where the square roots
    are rational."""
    m = tri.metrics
    gaps = (m.s - m.a, m.s - m.b, m.s - m.c)
    return gaps, tuple(sqrt_scalar(g * g + m.r * m.r) for g in gaps)


def quarter_angles(a: Point, b: Point, c: Point) -> Tuple[Number, Number, Number]:
    """Tangents of the quarter-angles of a triangle: tan(A/4) = r/(s − a + IA)
    as tan(A/4) = sin(A/2)/(1 + cos(A/2)), cyclically; exact when IA, IB and
    IC are rational."""
    tri = Triangle((a, b, c))
    gaps, dists = _tangent_lengths(tri)
    r = tri.metrics.r
    return tuple(r / (g + d) for g, d in zip(gaps, dists))


# ---------------------------------------------------------------------------
# the digit maps on pairs
# ---------------------------------------------------------------------------


def _lowest(n: int, d: int) -> Pair:
    """n/d with d > 0, halved when both are even.  The digit and flip maps
    send a pair (n, d) in lowest terms to (d + n, d − n), (d − n, d + n) or
    (n − d, n + d), whose common factor divides 2n and 2d, hence 2, so the
    result is in lowest terms."""
    if d < 0:
        n, d = -n, -d
    if not (n | d) & 1:
        return n >> 1, d >> 1
    return n, d


def _s_map(t: Pair) -> Pair:
    """The flip map (1 − t)/(1 + t) = (d − n)/(d + n) for t = n/d."""
    n, d = t
    if n == -d:
        raise PoleEncountered("flip map pole at -1")
    return _lowest(d - n, d + n)


def _g(digit: int, t: Pair) -> Pair:
    """Digit transforms of a quarter-angle tangent t = n/d under
    extraversion, angle θ -> θ + digit·π: t, (d + n)/(d − n), −d/n and
    (n − d)/(n + d)."""
    digit %= 4
    if digit == 0:
        return t
    n, d = t
    if digit == 1:
        if n == d:
            raise PoleEncountered("digit transform pole at 1")
        return _lowest(d + n, d - n)
    if digit == 2:
        if n == 0:
            raise PoleEncountered("reciprocal of zero")
        return (-d, n) if n > 0 else (d, -n)
    if n == -d:
        raise PoleEncountered("digit transform pole at -1")
    return _lowest(n - d, n + d)


def radcoord(t: Pair) -> Pair:
    """Barycentric component tan(θ/4)·cos(θ/2) = t(1-t²)/(1+t²), for
    t = n/d: n(d² − n²)/(d(d² + n²)), not reduced."""
    n, d = t
    n2, d2 = n * n, d * d
    return n * (d2 - n2), d * (d2 + n2)


def zerocoord(t: Pair) -> Pair:
    """Barycentric component of the 0-point family: t/(1+t²), for t = n/d:
    nd/(d² + n²)."""
    n, d = t
    return n * d, d * d + n * n


Table = Tuple[Tuple[Pair, ...], ...]


def _component_table(state: State, coord: Callable[[Pair], Pair]) -> Table:
    """T[pos][d] = coord(g_d(state[pos])) as a pair: the 12 components from
    which the point of digits (i, j, k) is (T[0][i], T[1][j], T[2][k]).
    Raises PoleEncountered if any of u, v, w is 0, 1 or -1."""
    return tuple(tuple(coord(_g(d, t)) for d in range(4)) for t in map(_ratio, state))


def _fractions(table: Table) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(*c) for c in row) for row in table)


def _at(table, label: Tuple[int, int, int]) -> Barycentric:
    i, j, k = label
    return Barycentric(table[0][i], table[1][j], table[2][k])


def _triple(table: Table, label: Tuple[int, int, int]) -> Tuple[Triple, int]:
    """The point of digits (i, j, k) as an integer triple X over one
    denominator D, so that X/D = (T[0][i], T[1][j], T[2][k])."""
    (a, e), (b, f), (c, g) = table[0][label[0]], table[1][label[1]], table[2][label[2]]
    return (a * f * g, b * e * g, c * e * f), e * f * g


# ---------------------------------------------------------------------------
# extraversion: flips, the 32 solutions, the group
# ---------------------------------------------------------------------------


#: a solution label (σ, i, j, k): the solution σ·(g_i(u), g_j(v), g_k(w))
SolutionLabel = Tuple[int, int, int, int]


def _ordinary_label(n: int) -> SolutionLabel:
    """Ordinary solution n: (i, j, k) = 2·(the 4-, 2- and 1-bits of n) and
    σ = (-1)^popcount(n)."""
    return (-1) ** bin(n).count("1"), 2 * (n >> 2 & 1), 2 * (n >> 1 & 1), 2 * (n & 1)


def _flip_label(label: SolutionLabel, pos: int) -> SolutionLabel:
    """The A-flip (pos 0) maps (σ; i, j, k) to (-σ; i, j-σ, k-σ) mod 4; the
    B- and C-flips are the same rule, cyclically."""
    sigma, *digits = label
    return (-sigma, *((d if p == pos else d - sigma) % 4 for p, d in enumerate(digits)))


#: the 32 solutions: ordinary n = 0..7, and n with suffix a, b or c for the
#: A-, B- or C-flip of ordinary solution n
SOLUTION_LABELS: Dict[str, SolutionLabel] = {
    f"{n}{suffix}": (
        _flip_label(_ordinary_label(n), "abc".index(suffix))
        if suffix
        else _ordinary_label(n)
    )
    for n in range(8)
    for suffix in ("", "a", "b", "c")
}
_NAMES = {label: name for name, label in SOLUTION_LABELS.items()}
#: _FLIPPED[f][name]: the solution that the f-flip takes solution ``name`` to
_FLIPPED: Dict[str, Dict[str, str]] = {
    f: {name: _NAMES[_flip_label(lab, pos)] for name, lab in SOLUTION_LABELS.items()}
    for pos, f in enumerate("ABC")
}


def solution_states(state: State) -> Dict[str, State]:
    """The 32 Malfatti solutions by name (see ``SOLUTION_LABELS``): solution
    (σ; i, j, k) is σ·(G[0][i], G[1][j], G[2][k]) in the component table
    G[pos][d] = g_d(state[pos]).  IdentityViolated off the closure identity;
    PoleEncountered if any of u, v, w is 0, 1 or -1."""
    g = _fractions(_component_table(assert_valid(state), lambda t: t))
    return {
        name: (sigma * g[0][i], sigma * g[1][j], sigma * g[2][k])
        for name, (sigma, i, j, k) in SOLUTION_LABELS.items()
    }


@dataclass(frozen=True)
class GroupAuditReport:
    order: int
    relations_hold: bool
    abc_equals_cba: bool
    centre: Tuple[str, ...]
    involutions: int
    order_four: Tuple[str, ...]


def _extraversion_group() -> GroupAuditReport:
    """The group that the three flips of the labels generate, as
    permutations of the 32 solution names."""
    names = sorted(SOLUTION_LABELS)
    identity = tuple(range(32))

    def compose(p, q):  # apply q then p
        return tuple(p[q[i]] for i in range(32))

    gens = {
        f: tuple(names.index(image[name]) for name in names)
        for f, image in _FLIPPED.items()
    }
    elements = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens.values():
            q = compose(g, p)
            if q not in elements:
                elements.add(q)
                frontier.append(q)

    a, b, c = gens["A"], gens["B"], gens["C"]
    abc = compose(a, compose(b, c))
    relations = (
        compose(a, a) == identity
        and compose(b, b) == identity
        and compose(c, c) == identity
        and compose(abc, abc) == identity
    )
    for p, q in ((b, c), (c, a), (a, b)):
        pq = compose(p, q)
        pq4 = compose(pq, compose(pq, pq))
        relations = relations and compose(pq, pq4) == identity
    abc_cba = abc == compose(c, compose(b, a))

    # the regular action identifies elements with solutions: g <-> g applied
    # to solution 0
    base = names.index("0")
    centre_labels = tuple(
        sorted(
            names[p[base]]
            for p in elements
            if all(compose(p, g) == compose(g, p) for g in gens.values())
        )
    )
    involutions = sum(
        1 for p in elements if p != identity and compose(p, p) == identity
    )
    order4 = tuple(
        sorted(
            names[p[base]]
            for p in elements
            if compose(p, p) != identity
            and compose(compose(p, p), compose(p, p)) == identity
        )
    )
    return GroupAuditReport(
        len(elements), relations, abc_cba, centre_labels, involutions, order4
    )


_GROUP = _extraversion_group()
_GENERIC_STATE: State = (Fraction(2, 9), Fraction(1, 4), Fraction(1, 3))


def group_audit(state: State = _GENERIC_STATE) -> GroupAuditReport:
    """The extraversion group as permutations of the 32 solutions:
    A² = B² = C² = (ABC)² = (BC)⁴ = (CA)⁴ = (AB)⁴ = I and ABC = CBA;
    order 32; centre = the evil solutions {0, 3, 5, 6}; 19 involutions.
    The group is read off the labels once.  Per state, DegenerateInput
    unless the 32 solutions are distinct, and IdentityViolated unless the
    flips move each solution to the one its flipped label names.

    The solutions are compared as pairs in lowest terms, read from the
    table G[pos][d] = g_d(state[pos]).  A flip negates its own component,
    as the flipped label's sign does, and applies the flip map s to the
    other two; by the label rule (σ; .., d, ..) -> (-σ; .., d - σ, ..),
    the 96 (solution, flip) comparisons are the 24 identities
    s(σ·G[pos][d]) = -σ·G[pos][(d - σ) mod 4], one per position, sign
    and digit."""
    g = _component_table(assert_valid(state), lambda t: t)
    sols = {
        tuple((sigma * n, d) for n, d in (g[0][i], g[1][j], g[2][k]))
        for sigma, i, j, k in SOLUTION_LABELS.values()
    }
    if len(sols) != 32:
        raise DegenerateInput("state orbit is degenerate")
    for pos, row in enumerate(g):
        for sigma in (1, -1):
            for digit, (n, d) in enumerate(row):
                target = (digit - sigma) % 4
                m, e = row[target]
                if _s_map((sigma * n, d)) != (-sigma * m, e):
                    t = "uvw"[pos]
                    raise IdentityViolated(
                        f"s({sigma:+d}·g_{digit}({t})) is not "
                        f"{-sigma:+d}·g_{target}({t}): a flip misses its label"
                    )
    return _GROUP


# ---------------------------------------------------------------------------
# radpoints and oddpoints: the <ijk> digit algebra
# ---------------------------------------------------------------------------


def point_coords(label: Tuple[int, int, int], state: State) -> Barycentric:
    """Exact barycentrics of ⟨ijk⟩: the extraversion of the fundamental
    radpoint by angle shifts (iπ, jπ, kπ)."""
    return Barycentric(
        *(Fraction(*radcoord(_g(d, _ratio(t)))) for d, t in zip(label, state))
    )


def all_radpoints(state: State) -> Dict[Tuple[int, int, int], Barycentric]:
    rc = _fractions(_component_table(state, radcoord))
    return {
        lab: _at(rc, lab)
        for lab in product(range(4), repeat=3)
        if sum(lab) % 2 == 0
    }


def all_oddpoints(state: State) -> Dict[Tuple[int, int, int], Barycentric]:
    """16 one-points (digit sum ≡ 1 mod 4) and 16 three-points (≡ 3)."""
    rc = _fractions(_component_table(state, radcoord))
    return {
        lab: _at(rc, lab)
        for lab in product(range(4), repeat=3)
        if sum(lab) % 2 == 1
    }


def radpoint_of_solution(label: str, state: State) -> Barycentric:
    """Radical centre of a solution's circle triple: the radpoint ⟨ijk⟩ of
    its label (σ; i, j, k), since radcoord is odd."""
    return point_coords(SOLUTION_LABELS[label][1:], assert_valid(state))


# ---------------------------------------------------------------------------
# Nagel and Gergonne points
# ---------------------------------------------------------------------------


def _no_poles(state: State) -> State:
    if any(t in (0, 1, -1) for t in state):
        raise PoleEncountered(f"{state} has a quarter-angle tangent 0, 1 or -1")
    return state


def _half_angle_parts(state: State) -> List[Tuple[int, int]]:
    """(d² − n², nd) per tangent t = n/d: cot(θ/2) = (1 − t²)/(2t) is
    (d² − n²)/(2nd).  PoleEncountered if any of u, v, w is 0, 1 or -1."""
    return [(d * d - n * n, n * d) for n, d in map(_ratio, _no_poles(state))]


def nagel_points(state: State) -> Dict[str, Barycentric]:
    """With c/(2s) = cot(θ/2) per angle: N_o = (c/s, ...) and N_a =
    (c/(2s), -2s/c, -2s/c), B and C cyclically.  PoleEncountered if any of
    u, v, w is 0, 1 or -1."""
    parts = _half_angle_parts(state)
    ir = [Fraction(c, 2 * s) for c, s in parts]        # cot(θ/2)
    ts = [Fraction(-2 * s, c) for c, s in parts]       # -tan(θ/2)
    return {
        "o": Barycentric(*(Fraction(c, s) for c, s in parts)),
        "a": Barycentric(ir[0], ts[1], ts[2]),
        "b": Barycentric(ts[0], ir[1], ts[2]),
        "c": Barycentric(ts[0], ts[1], ir[2]),
    }


def gergonne_points(state: State) -> Dict[str, Barycentric]:
    """With c/(2s) = cot(θ/2) per angle: G_o = (s/c, ...) and G_a =
    (2s/c, -c/(2s), -c/(2s)), B and C cyclically.  PoleEncountered if any
    of u, v, w is 0, 1 or -1."""
    parts = _half_angle_parts(state)
    tn = [Fraction(s, c) for c, s in parts]            # tan(θ/2)/2
    tn2 = [Fraction(2 * s, c) for c, s in parts]       # tan(θ/2)
    ct = [Fraction(-c, 2 * s) for c, s in parts]       # -cot(θ/2)
    return {
        "o": Barycentric(*tn),
        "a": Barycentric(tn2[0], ct[1], ct[2]),
        "b": Barycentric(ct[0], tn2[1], ct[2]),
        "c": Barycentric(ct[0], ct[1], tn2[2]),
    }


def _scaled(p: Barycentric) -> Triple:
    """An integer triple proportional to the exact barycentrics ``p``."""
    (a, e), (b, f), (c, g) = _ratio(p.x), _ratio(p.y), _ratio(p.z)
    return a * f * g, b * e * g, c * e * f


# ---------------------------------------------------------------------------
# guylines, Nails, peGs
# ---------------------------------------------------------------------------

_VERTICES: Dict[str, Triple] = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1)}
_ZERO = Fraction(0)


def _join(p: Triple, q: Triple) -> Triple:
    """The line through two points, as the cross product of their triples."""
    coeffs = (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )
    if coeffs == (0, 0, 0):
        raise DegenerateInput("join of identical points")
    return coeffs


def _on(line: Triple, p: Triple) -> bool:
    return line[0] * p[0] + line[1] * p[1] + line[2] * p[2] == 0


def _line_through(table: Table, p: Tuple[int, int, int], q: Tuple[int, int, int]):
    """The join of the points of digits p and q as integer coefficients J,
    and the same line as the exact coefficients J/(D_p·D_q) that the join of
    their barycentrics gives. With ⟨p⟩ = (a/e, b/f, c/g) and
    ⟨q⟩ = (a'/e', b'/f', c'/g'), J = (e·e'·K_0, f·f'·K_1, g·g'·K_2) over
    D_p·D_q = e·f·g·e'·f'·g', so each Fraction reduces K_i over the rest."""
    (a, e), (b, f), (c, g) = table[0][p[0]], table[1][p[1]], table[2][p[2]]
    (a2, e2), (b2, f2), (c2, g2) = table[0][q[0]], table[1][q[1]], table[2][q[2]]
    k0 = b * g * c2 * f2 - c * f * b2 * g2
    k1 = c * e * a2 * g2 - a * g * c2 * e2
    k2 = a * f * b2 * e2 - b * e * a2 * f2
    if k0 == k1 == k2 == 0:
        raise DegenerateInput("join of identical points")
    ee, ff, gg = e * e2, f * f2, g * g2
    return (ee * k0, ff * k1, gg * k2), (
        Fraction(k0, ff * gg), Fraction(k1, ee * gg), Fraction(k2, ee * ff)
    )


@dataclass(frozen=True)
class GuyLine:
    kind: str                      # "vertical", "nail", or "peg"
    through: str                   # "A"/"B"/"C" or Nagel/Gergonne suffix
    label: str                     # [*jk] style, or evil-digit line label
    line: Tuple[Fraction, Fraction, Fraction]
    members: Tuple[Tuple[int, int, int], ...]


def _nagel_suffix(onepoint: Tuple[int, int, int]) -> str:
    """Hexagon ⟨ijk⟩ (digit sum ≡ 1): all digits odd -> N_o; otherwise the
    single odd digit's position names the Nagel point."""
    odd_positions = [p for p, d in enumerate(onepoint) if d % 2 == 1]
    if len(odd_positions) == 3:
        return "o"
    return "abc"[odd_positions[0]]


#: the 48 vertical guylines in order, as (starred position, members,
#: label): the members of [*jk] are ⟨0jk⟩, ⟨1jk⟩, ⟨2jk⟩ and ⟨3jk⟩
_VERTICALS = tuple(
    (pos, members, "[" + "".join(
        "*" if i == pos else str(d) for i, d in enumerate(members[0])
    ) + "]")
    for pos in range(3)
    for rest in product(range(4), repeat=2)
    for members in [tuple(rest[:pos] + (d,) + rest[pos:] for d in range(4))]
)


def _shift(lab: Tuple[int, int, int], s: int) -> Tuple[int, int, int]:
    return tuple((d + s) % 4 for d in lab)


_ONE_POINTS = [lab for lab in product(range(4), repeat=3) if sum(lab) % 4 == 1]
#: each 1-point ⟨ijk⟩ (digit sum ≡ 1 mod 4) names a Nail, the join of
#: ⟨i+1 j+1 k+1⟩ and ⟨i-1 j-1 k-1⟩, and a peG, the join of ⟨ijk⟩ and
#: ⟨i+2 j+2 k+2⟩; a row is (⟨ijk⟩, suffix, label, the two joined points)
_NAILS = tuple(
    (lab, sfx, f"[{''.join(map(str, lab))}{sfx}]", _shift(lab, 1), _shift(lab, -1))
    for lab in _ONE_POINTS
    for sfx in [_nagel_suffix(lab)]
)
_PEGS = tuple(
    (lab, sfx, f"[{''.join(map(str, _shift(lab, 2)))}{sfx}]", lab, _shift(lab, 2))
    for lab in _ONE_POINTS
    for sfx in [_nagel_suffix(lab)]
)


def guylines(state: State) -> List[GuyLine]:
    """48 vertical guylines [*jk], [i*k], [ij*] (each through one vertex,
    two radpoints and two oddpoints) and 16 Nails through Nagel points.

    Every ⟨ijk⟩ is read from the component table
    R[pos][d] = radcoord(g_d(state[pos])), so ⟨ijk⟩ = (x, y, z) =
    (R[0][i], R[1][j], R[2][k]).  The vertical guyline [*jk] is the cevian
    (0, z·Δ, -y·Δ) with Δ = R[0][1] - R[0][0]; [i*k] is (-z·Δ, 0, x·Δ) and
    [ij*] is (y·Δ, -x·Δ, 0), each with the Δ of its own column, so the 48
    lines share the 24 values ±R[p][d]·Δ of the other two columns.  These
    are the joins of the members with digits 0 and 1 in the starred
    position, and the vertex and all four members lie on them identically.
    Each Nail is the join of ⟨i+1 j+1 k+1⟩ and ⟨i-1 j-1 k-1⟩ and must pass
    through its Nagel point; IdentityViolated if it does not."""
    rc = _component_table(state, radcoord)
    # scaled[pos][p][d] = (R[p][d]·Δ, -R[p][d]·Δ) with the Δ of column pos
    scaled = []
    for pos in range(3):
        (a0, e0), (a1, e1) = rc[pos][0], rc[pos][1]
        dn, dd = a1 * e0 - a0 * e1, e0 * e1
        scaled.append({
            p: [(x, -x) for x in (Fraction(n * dn, e * dd) for n, e in rc[p])]
            for p in range(3)
            if p != pos
        })
    out: List[GuyLine] = []
    for pos, members, label in _VERTICALS:
        n1, n2 = (pos + 1) % 3, (pos + 2) % 3
        first, column = members[0], scaled[pos]
        line = [_ZERO] * 3
        line[n1] = column[n2][first[n2]][0]
        line[n2] = column[n1][first[n1]][1]
        out.append(GuyLine("vertical", "ABC"[pos], label, tuple(line), members))
    nagels = {k: _scaled(p) for k, p in nagel_points(state).items()}
    for lab, suffix, label, p, q in _NAILS:
        coeffs, line = _line_through(rc, p, q)
        if not _on(coeffs, nagels[suffix]):
            raise IdentityViolated(f"Nail {lab} misses N_{suffix}")
        out.append(GuyLine("nail", suffix, label, line, (p, q)))
    return out


def pegs(state: State) -> List[GuyLine]:
    """16 peGs: each joins a 1-point ⟨ijk⟩ to its antipodal 3-point
    ⟨i+2 j+2 k+2⟩, both read from the component table
    R[pos][d] = radcoord(g_d(state[pos])) as (R[0][i], R[1][j], R[2][k]),
    and must pass through a Gergonne point; IdentityViolated if it does
    not."""
    rc = _component_table(state, radcoord)
    gergs = {k: _scaled(p) for k, p in gergonne_points(state).items()}
    out: List[GuyLine] = []
    for lab, suffix, label, p, q in _PEGS:
        coeffs, line = _line_through(rc, p, q)
        if not _on(coeffs, gergs[suffix]):
            raise IdentityViolated(f"peG {lab} misses G_{suffix}")
        out.append(GuyLine("peg", suffix, label, line, (p, q)))
    return out


def vertical_guyline_equation(vertex: str, p: Barycentric) -> Tuple[int, int, int]:
    """Join of a vertex and a point as coprime integer coefficients, the
    first nonzero one positive."""
    return primitive_integers(_join(_VERTICES[vertex], _scaled(p)))


# ---------------------------------------------------------------------------
# the evil-digit line labels of the vertical guylines and Nails
# ---------------------------------------------------------------------------

_ROW_DIGIT = {"N": 0, "A": 3, "B": 5, "C": 6}
_FLIP_DIGIT = {"o": 0, "a": 3, "b": 5, "c": 6}
_EVIL = (0, 3, 5, 6)


@dataclass(frozen=True)
class LabelAuditReport:
    lines_checked: int
    nim_sum_boxes_ok: bool


def label_audit(state: State = _GENERIC_STATE) -> LabelAuditReport:
    """Audits the evil-digit labelling ``rfq``: line rfq passes through the
    vertex/Nagel point r and the radpoints of solutions q·f and (q⊕σ)·f with
    σ = 7 ⊕ r ⊕ f, checked by exact incidence.  A solution's radpoint is
    read from the component table R[pos][d] = radcoord(g_d(state[pos])) at
    the digits (i, j, k) of its label, as an integer triple."""
    rc = _component_table(assert_valid(state), radcoord)
    rads = {
        name: _triple(rc, label[1:])[0] for name, label in SOLUTION_LABELS.items()
    }
    nagels = {k: _scaled(p) for k, p in nagel_points(state).items()}
    checked = 0
    ok = True

    for row, r in _ROW_DIGIT.items():
        for flip, f in _FLIP_DIGIT.items():
            sigma = 7 ^ r ^ f
            suffix = {0: "", 3: "a", 5: "b", 6: "c"}[f]
            through = nagels[flip] if row == "N" else _VERTICES[row]
            for q in _EVIL:
                line = _join(rads[f"{q}{suffix}"], rads[f"{q ^ sigma}{suffix}"])
                if not _on(line, through):
                    ok = False
                checked += 1
    return LabelAuditReport(checked, ok)


# ---------------------------------------------------------------------------
# the sixteen 0-points and their 24 collinearities
# ---------------------------------------------------------------------------

ZERO_POINT_LABELS = (
    "000", "022", "202", "220",
    "233", "211", "031", "013",
    "323", "301", "121", "103",
    "332", "310", "130", "112",
)

# rows of the stated collinearity table: vertex + two 0-points each
ZERO_COLLINEARITIES = (
    ("A", "000", "022"), ("B", "000", "202"), ("C", "000", "220"),
    ("A", "220", "202"), ("B", "022", "220"), ("C", "022", "202"),
    ("A", "233", "211"), ("B", "233", "031"), ("C", "233", "013"),
    ("A", "031", "013"), ("B", "211", "013"), ("C", "031", "211"),
    ("A", "323", "301"), ("B", "323", "121"), ("C", "323", "103"),
    ("A", "121", "103"), ("B", "301", "103"), ("C", "121", "301"),
    ("A", "332", "310"), ("B", "332", "130"), ("C", "332", "112"),
    ("A", "130", "112"), ("B", "310", "112"), ("C", "130", "310"),
)
#: the rows as (vertex position, digits, digits)
_ZERO_ROWS = tuple(
    ("ABC".index(v), tuple(map(int, p)), tuple(map(int, q)))
    for v, p, q in ZERO_COLLINEARITIES
)


def zero_points(state: State) -> Dict[str, Barycentric]:
    """The sixteen points ⟨u/(1+u²), v/(1+v²), w/(1+w²)⟩ and their digit
    extraversions (digits 0 and 2, or 1 and 3, differ only in sign).  The
    point labelled ijk is (Z[0][i], Z[1][j], Z[2][k]) in the component table
    Z[pos][d] = zerocoord(g_d(state[pos]))."""
    zc = _fractions(_component_table(state, zerocoord))
    return {text: _at(zc, tuple(map(int, text))) for text in ZERO_POINT_LABELS}


def _on_vertex_line(pos: int, p: Sequence[Pair], q: Sequence[Pair]) -> bool:
    """Whether the points with components p and q (pairs) are collinear with
    the vertex at ``pos``: the determinant of the three rows is the 2×2
    minor p_a·q_b − p_b·q_a of the other two positions a, b, compared
    cross-multiplied."""
    a, b = (pos + 1) % 3, (pos + 2) % 3
    (pa, ea), (pb, eb), (qa, fa), (qb, fb) = p[a], p[b], q[a], q[b]
    return pa * qb * eb * fa == pb * qa * ea * fb


def zero_point_collinearities(state: State) -> int:
    """Number of the 24 stated vertex collinearities that hold exactly, read
    from the component table Z[pos][d] = zerocoord(g_d(state[pos]))."""
    zc = _component_table(state, zerocoord)
    at = lambda lab: [zc[0][lab[0]], zc[1][lab[1]], zc[2][lab[2]]]
    return sum(_on_vertex_line(pos, at(p), at(q)) for pos, p, q in _ZERO_ROWS)


# ---------------------------------------------------------------------------
# Malfatti circles in closed form
# ---------------------------------------------------------------------------


def malfatti_circles(
    a: Point, b: Point, c: Point
) -> Tuple[Tuple[Circle, Circle, Circle], Tuple[Point, Point, Point]]:
    """The Malfatti circles in closed form (Lob and Richmond, Proc. LMS (2)
    30, 1930): the A-circle is the incircle's image under the homothety at
    A with ratio r_A/r = (s + IA − r − IB − IC)/(2(s − a)), B and C
    cyclically.  X = B + (C − B)·(IB + a − IC)/(2a), where the incircle of
    BIC touches BC, is where Steiner's transverse tangent XX′, the radical
    axis of the B- and C-circles, meets it; Y and Z cyclically.  Exact when
    IA, IB and IC are rational.  Returns the circles and (X, Y, Z)."""
    tri = Triangle((a, b, c))
    m = tri.metrics
    incentre = touch_circles(tri)[0].circle.center
    gaps, dists = _tangent_lengths(tri)
    total = sum(dists)
    circles = []
    for v, g, d in zip(tri, gaps, dists):
        k = (m.s - m.r + 2 * d - total) / (2 * g)       # r_A/r, …
        circles.append(Circle(v + (incentre - v).scale(k), (k * m.r) ** 2))
    touch = tuple(
        tri[j] + (tri[k] - tri[j]).scale((dists[j] + side - dists[k]) / (2 * side))
        for side, j, k in ((m.a, 1, 2), (m.b, 2, 0), (m.c, 0, 1))
    )
    return tuple(circles), touch


def _distance(p: Point, q: Point) -> Number:
    return sqrt_scalar(p.dist2(q))


def verify_malfatti(circles: Sequence[Circle], a: Point, b: Point, c: Point) -> Number:
    """The worst miss of the three mutual tangencies and the six edge
    tangencies (each circle with the two edges at its vertex), a distance d
    that should equal r missing by |d − r|/(d + r): exactly 0 for exact
    circles that touch, within ``DEFAULT_EPS`` for floats."""
    tri = Triangle((a, b, c))
    radii = [sqrt_scalar(circle.r2) for circle in circles]
    misses = [
        (abs(e.evaluate(circle.center)) / sqrt_scalar(e.a * e.a + e.b * e.b), r)
        for i, (circle, r) in enumerate(zip(circles, radii))
        for j, e in enumerate(tri.edges)
        if j != i
    ]
    misses += [
        (_distance(circles[i].center, circles[j].center), radii[i] + radii[j])
        for i, j in ((1, 2), (2, 0), (0, 1))
    ]
    return max(residual_ratio(d - r, d + r) for d, r in misses)


def variant_contact_circle(
    circles: Sequence[Circle],
    touch_points: Sequence[Point],
    a: Point,
    b: Point,
    c: Point,
) -> Number:
    """The worst miss of the circle centred at X with radius r(1 + u)/2
    through the contacts of the B- and C-Malfatti circles with BC and with
    each other (cyclically for Y and Z), each distance d missing the radius
    r by |d − r|/(d + r): exactly 0 for exact circles, within
    ``DEFAULT_EPS`` for floats."""
    tri = Triangle((a, b, c))
    r = tri.metrics.r
    radii = [sqrt_scalar(circle.r2) for circle in circles]
    misses = []
    for centre, t, (i, j), edge in zip(
        touch_points, quarter_angles(a, b, c), ((1, 2), (2, 0), (0, 1)), tri.edges
    ):
        ci, cj = circles[i].center, circles[j].center
        contacts = (
            foot_of_perpendicular(ci, edge),
            foot_of_perpendicular(cj, edge),
            ci + (cj - ci).scale(radii[i] / _distance(ci, cj)),
        )
        rad = r * (1 + t) / 2
        misses += [(_distance(p, centre), rad) for p in contacts]
    return max(residual_ratio(d - r, d + r) for d, r in misses)
