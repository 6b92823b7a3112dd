"""Field-generic planar primitives and algebraic predicates.

Every other module builds on these. Scalars are either exact
(`fractions.Fraction` / `int`, arbitrary precision, canonical lowest
terms) or approximate (`float`). An exact `Line` holds a coprime `int`
triple, so the operations on it multiply by ints and build one `Fraction`
per coordinate they return (`divide`). All predicates that must stay
exact are phrased in squared quantities so the exact backend never takes
a square root; square roots appear only in the approximate backend (or
when the radicand happens to be a perfect square). A tolerance applies
only to a float residual: an exact residual is compared with 0 whatever
``eps`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

Number = Union[int, Fraction, float]

#: default absolute tolerance for approximate comparisons (on data
#: normalized so the relevant circumradius is 1)
DEFAULT_EPS = 1e-9


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class GeometryError(Exception):
    """Base class for all geometric input errors."""


class DegenerateInput(GeometryError):
    pass


class IdentityViolated(GeometryError):
    """A theorem's incidence or concurrence failed to hold."""


class ConcentricCircles(GeometryError):
    pass


class ParallelLines(GeometryError):
    pass


class IdenticalCircles(GeometryError):
    pass


class NotCollinear(GeometryError):
    pass


class CoincidentPoints(GeometryError):
    pass


class PointNotOnEdgeLine(GeometryError):
    pass


class PointNotOnCircumcircle(GeometryError):
    pass


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def is_exact(x: Number) -> bool:
    # a plain type test: isinstance against Fraction is an ABC lookup, slow
    # on the float paths, and type() also leaves out bool
    return type(x) is Fraction or type(x) is int


def divide(n: Number, d: Number) -> Number:
    """n / d, kept exact: a `Fraction` when both are ints (as exact line
    coefficients are), where ``/`` would give a float."""
    if type(n) is int and type(d) is int:
        return Fraction(n, d)
    return n / d


def as_fraction(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**15)


def primitive_integers(values: Sequence[Number]) -> Tuple[int, ...]:
    """The coprime integers proportional to the rationals ``values``, the
    first nonzero one positive."""
    scale = math.lcm(*(v.denominator for v in values))
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints) or 1
    if next((n for n in ints if n), 0) < 0:
        g = -g
    return tuple(n // g for n in ints)


def sqrt_scalar(x: Number) -> Number:
    """Square root; exact when x is a rational perfect square, else float."""
    if is_exact(x):
        f = as_fraction(x)
        if f < 0:
            raise ValueError("negative radicand")
        pn, pd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if pn * pn == f.numerator and pd * pd == f.denominator:
            return Fraction(pn, pd)
        return math.sqrt(f.numerator / f.denominator)
    if x < 0:
        raise ValueError("negative radicand")
    return math.sqrt(x)


def format_scalar(x: Number) -> str:
    """Serialize a scalar: exact as ``p/q`` (or ``n``), approx with 12
    significant digits."""
    if is_exact(x):
        f = as_fraction(x)
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    x: Number
    y: Number

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def scale(self, k: Number) -> "Point":
        return Point(k * self.x, k * self.y)

    def dot(self, other: "Point") -> Number:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Number:
        return self.x * other.y - self.y * other.x

    def norm2(self) -> Number:
        return self.x * self.x + self.y * self.y

    def dist2(self, other: "Point") -> Number:
        return (self - other).norm2()

    def midpoint(self, other: "Point") -> "Point":
        return Point(divide(self.x + other.x, 2), divide(self.y + other.y, 2))

    def is_exact(self) -> bool:
        return is_exact(self.x) and is_exact(self.y)

    def close_to(self, other: "Point", eps: float = DEFAULT_EPS) -> bool:
        if self.is_exact() and other.is_exact():
            return self == other
        return abs(self.x - other.x) <= eps and abs(self.y - other.y) <= eps


def collinear(p: Point, q: Point, r: Point) -> bool:
    return (q - p).cross(r - p) == 0


def approx_collinear(p: Point, q: Point, r: Point, eps: float = DEFAULT_EPS) -> bool:
    v = (q - p).cross(r - p)
    return abs(v) <= eps if isinstance(v, float) else v == 0


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------


def _normalize_abc(a: Number, b: Number, c: Number) -> Tuple[Number, Number, Number]:
    if is_exact(a) and is_exact(b) and is_exact(c):
        lcm = math.lcm(a.denominator, b.denominator, c.denominator)
        ia = a.numerator * (lcm // a.denominator)
        ib = b.numerator * (lcm // b.denominator)
        ic = c.numerator * (lcm // c.denominator)
        g = math.gcd(ia, ib, ic)
        # sign canonical: leading coefficient of (a, b) positive
        if ia < 0 or (ia == 0 and ib < 0):
            g = -g
        return ia // g, ib // g, ic // g
    n = math.hypot(float(a), float(b))
    a, b, c = a / n, b / n, c / n
    if a < 0 or (abs(a) < 1e-15 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


@dataclass(frozen=True)
class Line:
    """Line a·x + b·y = c. Exact lines are normalized to a coprime `int`
    triple with sign-canonical leading coefficient, so equality is decidable
    and instances are hashable; points computed from them are `Fraction`s.
    Float lines are scaled to a unit normal."""

    a: Number
    b: Number
    c: Number

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise DegenerateInput("line with zero normal vector")
        a, b, c = _normalize_abc(self.a, self.b, self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        if p == q:
            raise CoincidentPoints("cannot make line through a single point")
        d = q - p
        return Line(d.y, -d.x, d.y * p.x - d.x * p.y)

    @staticmethod
    def from_point_direction(p: Point, d: Point) -> "Line":
        if d.x == 0 and d.y == 0:
            raise DegenerateInput("zero direction")
        return Line(d.y, -d.x, d.y * p.x - d.x * p.y)

    @staticmethod
    def from_point_normal(p: Point, n: Point) -> "Line":
        if n.x == 0 and n.y == 0:
            raise DegenerateInput("zero normal")
        return Line(n.x, n.y, n.x * p.x + n.y * p.y)

    # -- queries ------------------------------------------------------

    def evaluate(self, p: Point) -> Number:
        return self.a * p.x + self.b * p.y - self.c

    def contains(self, p: Point, eps: float = 0.0) -> bool:
        v = self.evaluate(p)
        if eps == 0.0 or not isinstance(v, float):
            return v == 0
        return abs(v) <= eps * math.hypot(float(self.a), float(self.b))

    def direction(self) -> Point:
        return Point(self.b, -self.a)

    def normal(self) -> Point:
        return Point(self.a, self.b)

    def slope(self) -> Optional[Number]:
        if self.b == 0:
            return None
        return divide(-self.a, self.b)

    def is_parallel(self, other: "Line", eps: float = 0.0) -> bool:
        v = self.a * other.b - self.b * other.a
        return v == 0 if eps == 0.0 or not isinstance(v, float) else abs(v) <= eps

    def is_perpendicular(self, other: "Line", eps: float = 0.0) -> bool:
        v = self.a * other.a + self.b * other.b
        return v == 0 if eps == 0.0 or not isinstance(v, float) else abs(v) <= eps

    def intersect(self, other: "Line") -> Point:
        det = self.a * other.b - self.b * other.a
        if det == 0:
            raise ParallelLines("lines are parallel or identical")
        x = divide(self.c * other.b - self.b * other.c, det)
        y = divide(self.a * other.c - self.c * other.a, det)
        return Point(x, y)

    def perpendicular_through(self, p: Point) -> "Line":
        return Line.from_point_direction(p, self.normal())

    def parallel_through(self, p: Point) -> "Line":
        return Line.from_point_direction(p, self.direction())


# ---------------------------------------------------------------------------
# circles and conics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    """Circle storing the squared radius, so rational configurations stay
    rational. r2 == 0 is permitted only as a degenerate point-circle flag."""

    center: Point
    r2: Number

    def __post_init__(self):
        if is_exact(self.r2) and self.r2 < 0:
            raise DegenerateInput("negative squared radius")

    def power(self, p: Point) -> Number:
        return p.dist2(self.center) - self.r2

    def contains(self, p: Point, eps: float = 0.0) -> bool:
        v = self.power(p)
        if eps == 0.0 or not isinstance(v, float):
            return v == 0
        return abs(v) <= eps

    def radius(self) -> Number:
        return sqrt_scalar(self.r2)


class ConicKind(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"


@dataclass(frozen=True)
class Conic:
    """Central conic in focal form. ``axis2`` stores the squared full axis
    length (2a)² — major axis for an ellipse, transverse for a hyperbola."""

    focus1: Point
    focus2: Point
    axis2: Number
    kind: ConicKind

    def __post_init__(self):
        if is_exact(self.axis2) and self.axis2 <= 0:
            raise DegenerateInput("focal conic needs a positive axis")

    def center(self) -> Point:
        return self.focus1.midpoint(self.focus2)

    def is_tangent(self, line: Line) -> bool:
        """A line is tangent iff the reflection of one focus in the line
        lies at full-axis distance from the other focus (squared, exact)."""
        m = reflect_point_in_line(self.focus1, line)
        return m.dist2(self.focus2) == self.axis2

    def tangency_residual(self, line: Line) -> Number:
        m = reflect_point_in_line(self.focus1, line)
        return m.dist2(self.focus2) - self.axis2


@dataclass(frozen=True)
class Parabola:
    focus: Point
    directrix: Line

    def __post_init__(self):
        if self.directrix.contains(self.focus):
            raise DegenerateInput("focus on directrix")

    def is_tangent(self, line: Line) -> bool:
        """A line is tangent iff the reflection of the focus in the line
        lies on the directrix."""
        return self.directrix.contains(reflect_point_in_line(self.focus, line))


@dataclass(frozen=True)
class Barycentric:
    """Homogeneous barycentric (areal) coordinates; equality is projective."""

    x: Number
    y: Number
    z: Number

    def __post_init__(self):
        if self.x == 0 and self.y == 0 and self.z == 0:
            raise DegenerateInput("all-zero barycentric coordinates")

    def same_point(self, other: "Barycentric") -> bool:
        return (
            self.x * other.y == self.y * other.x
            and self.y * other.z == self.z * other.y
            and self.x * other.z == self.z * other.x
        )


def barycentric_collinear(p: Barycentric, q: Barycentric, r: Barycentric) -> bool:
    det = (
        p.x * (q.y * r.z - q.z * r.y)
        - p.y * (q.x * r.z - q.z * r.x)
        + p.z * (q.x * r.y - q.y * r.x)
    )
    return det == 0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def reflect_point_in_line(p: Point, line: Line) -> Point:
    n2 = line.a * line.a + line.b * line.b
    t = 2 * line.evaluate(p)
    return Point(p.x - divide(t * line.a, n2), p.y - divide(t * line.b, n2))


def reflect_line_in_line(line: Line, mirror: Line) -> Line:
    """Image of ``line`` under reflection in ``mirror`` (m₁x + m₂y = m_c):
    with k = 2(a·m₁ + b·m₂)/(m₁² + m₂²) it is
    (a − k·m₁)x + (b − k·m₂)y = c − k·m_c."""
    k = divide(
        2 * (line.a * mirror.a + line.b * mirror.b),
        mirror.a * mirror.a + mirror.b * mirror.b,
    )
    return Line(line.a - k * mirror.a, line.b - k * mirror.b, line.c - k * mirror.c)


def foot_of_perpendicular(p: Point, line: Line) -> Point:
    n2 = line.a * line.a + line.b * line.b
    t = line.evaluate(p)
    return Point(p.x - divide(t * line.a, n2), p.y - divide(t * line.b, n2))


def perpendicular_bisector(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPoints("no bisector of a point with itself")
    d = q - p
    m = p.midpoint(q)
    return Line.from_point_normal(m, d)


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """With edge vectors b = q − p and c = r − p, the centre is
    p + (c_y·|b|² − b_y·|c|², b_x·|c|² − c_x·|b|²) / (2·b×c)."""
    b, c = q - p, r - p
    d = 2 * b.cross(c)
    if d == 0:
        raise DegenerateInput("collinear points have no circumcircle")
    bb, cc = b.norm2(), c.norm2()
    center = Point(
        p.x + divide(c.y * bb - b.y * cc, d), p.y + divide(b.x * cc - c.x * bb, d)
    )
    return Circle(center, center.dist2(p))


def circle_from_diameter(p: Point, q: Point) -> Circle:
    m = p.midpoint(q)
    return Circle(m, m.dist2(p))


def radical_axis(c1: Circle, c2: Circle) -> Line:
    if c1.center == c2.center:
        raise ConcentricCircles("concentric circles have no radical axis")
    # power equality: 2(c2-c1)·P = |c2|²-|c1|² - (r2₂-r2₁)
    d = c2.center - c1.center
    rhs = divide(c2.center.norm2() - c1.center.norm2() - (c2.r2 - c1.r2), 2)
    return Line(d.x, d.y, rhs)


class Tangency(Enum):
    EXTERNAL_TANGENT = "ExternalTangent"
    INTERNAL_TANGENT = "InternalTangent"
    SECANT = "Secant"
    DISJOINT = "Disjoint"
    NESTED = "Nested"


def tangency_classify(c1: Circle, c2: Circle) -> Tangency:
    """Classification via squared quantities only: with d² = |c₁c₂|²,
    tangent iff (d² − r2₁ − r2₂)² = 4·r2₁·r2₂ (internal when d² < r2₁+r2₂)."""
    if c1 == c2:
        raise IdenticalCircles("cannot classify a circle against itself")
    d2 = c1.center.dist2(c2.center)
    lhs = d2 - c1.r2 - c2.r2
    disc = lhs * lhs - 4 * c1.r2 * c2.r2
    if disc == 0:
        return (
            Tangency.INTERNAL_TANGENT
            if d2 < c1.r2 + c2.r2
            else Tangency.EXTERNAL_TANGENT
        )
    if disc < 0:
        return Tangency.SECANT
    return Tangency.DISJOINT if lhs > 0 else Tangency.NESTED


def _line_parameter(p: Point, origin: Point, direction: Point) -> Number:
    if direction.x != 0:
        return divide(p.x - origin.x, direction.x)
    return divide(p.y - origin.y, direction.y)


def cross_ratio(p1: Point, p2: Point, p3: Point, p4: Point) -> Number:
    """Cross-ratio (P1,P2;P3,P4) of four distinct collinear points; affine
    parameterization-invariant."""
    pts = [p1, p2, p3, p4]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise CoincidentPoints("cross-ratio needs distinct points")
    d = p2 - p1
    for p in (p3, p4):
        if d.cross(p - p1) != 0:
            raise NotCollinear("cross-ratio needs collinear points")
    t = [_line_parameter(p, p1, d) for p in pts]
    num = (t[0] - t[2]) * (t[1] - t[3])
    den = (t[0] - t[3]) * (t[1] - t[2])
    return divide(num, den)
