"""Field-generic planar primitives and algebraic predicates.

Every other module builds on these. Scalars are either exact
(`fractions.Fraction` / `int`, arbitrary precision, canonical lowest
terms) or approximate (`float`). An exact `Line` holds a coprime `int`
triple, and every exact point is stored as its reduced integer triple
(X, Y, W), p = (X/W, Y/W): `Point(x, y)` over the rationals finds it from
the denominators and keeps the x and y it was given, and a construction
over ints makes it with one gcd and no `Fraction` (`_point_of`; x and y
are built on first read). Its floats (`float_xy`) and its hash come from
the triple too, and build no `Fraction`. Each primitive reads a point as
a triple through `_hom`: the stored one, or (x, y, 1) for a point with a
float coordinate.
One formula then serves both, and the scalar type alone decides exactness.
A construction builds one `Fraction` per scalar it returns (`divide`), and
a predicate builds none, since it compares cross-multiplied ints. All
predicates that must stay exact are phrased in squared quantities so the
exact backend never takes a square root; square roots appear only in the
approximate backend (or when the radicand happens to be a perfect square).
Every predicate decides through `vanishes`: an exact residual is compared
with 0, and a float one with ``DEFAULT_EPS`` times the magnitude of its own
expression.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

Number = Union[int, Fraction, float]

#: relative precision of every float decision: a float residual vanishes
#: when it is at most this times the magnitude of its own expression
DEFAULT_EPS = 1e-9

#: sets a field of a frozen instance; bound once, as every point and line use it
_setattr = object.__setattr__

#: the prime P of Python's numeric hash
_HASH_MODULUS = sys.hash_info.modulus


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


def vanishes(r: Number, m: Number) -> bool:
    """An exact residual r is 0; a float one is at most ``DEFAULT_EPS``·m,
    m the magnitude of r's own expression (Shewchuk, DCG 18, 1997): a dot,
    cross or determinant term counts as the product of its factors' norms,
    any other term as its absolute value."""
    if type(r) is not float:
        return r == 0
    return abs(r) <= DEFAULT_EPS * m


def residual_ratio(r: Number, m: Number) -> Number:
    """|r|/m, the miss a check reports: 0 when r is, infinite for an exact
    r ≠ 0, which has no m."""
    if not r:
        return abs(r)
    return divide(abs(r), m) if m else math.inf


def divide(n: Number, d: Number) -> Number:
    """n / d, kept exact: a `Fraction` when both are ints (as exact line
    coefficients are), where ``/`` would give a float."""
    if type(n) is int and type(d) is int:
        return Fraction(n, d)
    return n / d


def _ratio(x: Number) -> Tuple[Number, int]:
    """(n, d) with d > 0 and x = n/d: integers for an exact scalar, (x, 1)
    for a float."""
    if type(x) is Fraction:
        return x.numerator, x.denominator
    return x, 1


def primitive_integers(values: Sequence[Number]) -> Tuple[int, ...]:
    """The coprime integers proportional to the rationals ``values``, the
    first nonzero one positive. Integers need one gcd; only a `Fraction`
    among them, which ``math.gcd`` rejects, needs the lcm of the
    denominators."""
    try:
        g, ints = math.gcd(*values), values
    except TypeError:
        dens = [v.denominator for v in values]
        scale = math.lcm(*dens)
        ints = [v.numerator * (scale // d) for v, d in zip(values, dens)]
        g = math.gcd(*ints)
    g = g or 1
    if next(filter(None, ints), 0) < 0:
        g = -g
    return tuple([n // g for n in ints])


def sqrt_scalar(x: Number) -> Number:
    """Square root; exact when x is a rational perfect square, else float."""
    if is_exact(x):
        n, d = _ratio(x)
        if n < 0:
            raise ValueError("negative radicand")
        pn, pd = math.isqrt(n), math.isqrt(d)
        if pn * pn == n and pd * pd == d:
            return Fraction(pn, pd)
        return math.sqrt(n / d)
    if x < 0:
        raise ValueError("negative radicand")
    return math.sqrt(x)


def format_scalar(x: Number) -> str:
    """Serialize a scalar: exact as ``p/q`` (or ``n``), approx with 12
    significant digits."""
    if is_exact(x):
        n, d = _ratio(x)
        if d == 1:
            return str(n)
        return f"{n}/{d}"
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class Point:
    """A point (x, y) that keeps the coordinates it is given. With both exact
    (`int` or `Fraction`) it is a `_TriplePoint` that also stores its reduced
    triple; with a float coordinate it reads as the triple (x, y, 1) (`_hom`).
    Equal points compare and hash alike whichever kind they are."""

    x: Number
    y: Number

    def __init__(self, x: Number, y: Number) -> None:
        tx, ty = type(x), type(y)
        if (tx is int or tx is Fraction) and (ty is int or ty is Fraction):
            _setattr(self, "__class__", _TriplePoint)
            # a/b, c/e in lowest terms: (a·l/b, c·l/e, l), l = lcm(b, e), is reduced
            a, b, c, e = x.numerator, x.denominator, y.numerator, y.denominator
            l = b if b == e else math.lcm(b, e)
            d = self.__dict__
            d["x"], d["y"], d["_t"] = x, y, (a * (l // b), c * (l // e), l)
        else:
            # set, not written to __dict__, which would slow every later read
            _setattr(self, "x", x)
            _setattr(self, "y", y)

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
        return _combine(self, 1, other, 2)

    def is_exact(self) -> bool:
        return type(self) is _TriplePoint

    def close_to(self, other: "Point", size: float = 0.0) -> bool:
        """Equal, exactly or with |p − q| vanishing against |p| + |q| + size,
        ``size`` the norms of the data both points were built from: they may
        lie near the origin, far smaller than that data."""
        if self.is_exact() and other.is_exact():
            return self == other
        d = math.hypot(self.x - other.x, self.y - other.y)
        m = math.hypot(self.x, self.y) + math.hypot(other.x, other.y) + size
        return vanishes(d, m)


class _Coordinate:
    """x or y of a `_TriplePoint`, built from the triple on first read and
    kept in ``__dict__``, which Python reads before this descriptor."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, p: "_TriplePoint", owner: type) -> Fraction:
        x, y, w = p._t
        d = p.__dict__
        d["x"], d["y"] = Fraction(x, w), Fraction(y, w)
        return d[self.name]


class _TriplePoint(Point):
    """An exact point: it stores its reduced triple ``_t`` = (X, Y, W),
    gcd(X, Y, W) = 1 and W > 0, and its arithmetic with another exact point
    runs on the triples. A construction (`_point_of`) stores only the triple,
    and its x and y are `Fraction`s. These operators take precedence over
    `Point`'s, as a subclass's reflected operators do in Python."""

    x, y = _Coordinate(), _Coordinate()

    def __init__(self, x: Number, y: Number) -> None:
        # dataclasses.replace: the new coordinates choose the form again
        _setattr(self, "__class__", Point)
        Point.__init__(self, x, y)

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is _TriplePoint:
            return self._t == other._t
        if not isinstance(other, Point):
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        """hash((x, y)), found from the triple by `Fraction`'s own rule, so
        it equals that of any equal point: n/W hashes as ±(|n|·W⁻¹ mod P)
        with n's sign, −1 read as −2, which the tuple's hash of an int does."""
        (x, y, w), m = self._t, _HASH_MODULUS
        if w % m == 0:
            return hash((self.x, self.y))
        winv = pow(w, -1, m)
        hx, hy = hash(abs(x)) * winv % m, hash(abs(y)) * winv % m
        return hash((hx if x >= 0 else -hx, hy if y >= 0 else -hy))

    def __add__(self, other: Point) -> Point:
        return _combine(self, 1, other)

    __radd__ = __add__

    def __sub__(self, other: Point) -> Point:
        return _combine(self, -1, other)

    def __rsub__(self, other: Point) -> Point:
        return _combine(other, -1, self)

    def scale(self, k: Number) -> Point:
        if not is_exact(k):
            return super().scale(k)
        (x, y, w), (n, d) = self._t, _ratio(k)
        return _point_of(n * x, n * y, d * w)

    def norm2(self) -> Fraction:
        x, y, w = self._t
        return Fraction(x * x + y * y, w * w)


def float_xy(p: Point) -> Tuple[float, float]:
    """(float(x), float(y)). An exact point divides its triple, X/W and Y/W:
    int true division is correctly rounded, so the bits are those of the
    `Fraction`s, and none is built."""
    if type(p) is _TriplePoint:
        x, y, w = p._t
        return x / w, y / w
    return float(p.x), float(p.y)


def _combine(p: Point, k: int, q: Point, d: int = 1) -> Point:
    """(p + k·q)/d for k = ±1: on the triples when both points are exact,
    else coordinate by coordinate."""
    if type(p) is not _TriplePoint or type(q) is not _TriplePoint:
        return Point((p.x + k * q.x) / d, (p.y + k * q.y) / d)
    (x1, y1, w1), (x2, y2, w2) = p._t, q._t
    return _point_of(x1 * w2 + k * x2 * w1, y1 * w2 + k * y2 * w1, d * w1 * w2)


def _point_of(x: Number, y: Number, w: Number) -> Point:
    """The point (x/w, y/w), w ≠ 0. Over ints it is made from the reduced
    triple, with one gcd and no `Fraction`; over floats its coordinates are
    the quotients."""
    if type(x) is int and type(y) is int:
        g = math.gcd(x, y, w)
        if w < 0:
            g = -g
        p = object.__new__(_TriplePoint)
        p.__dict__["_t"] = x // g, y // g, w // g
        return p
    return Point(x / w, y / w)


def _hom(p: Point) -> Tuple[Number, Number, int]:
    """(X, Y, W) with W > 0 and p = (X/W, Y/W): the stored reduced integer
    triple of an exact point, (float(x), float(y), 1) for any other."""
    if type(p) is _TriplePoint:
        return p._t
    x, y = p.x, p.y
    if type(x) is float and type(y) is float:
        return x, y, 1
    return float(x), float(y), 1


def collinear(p: Point, q: Point, r: Point) -> bool:
    """(q − p)×(r − p), over the triples B×C with B ∝ q − p, C ∝ r − p,
    vanishes against (|p| + |q|)·|r − p| + |q − p|·(|p| + |r|): a difference
    of points is rounded to the sum of their norms."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = _hom(p), _hom(q), _hom(r)
    bx, by = x2 * w1 - x1 * w2, y2 * w1 - y1 * w2
    cx, cy = x3 * w1 - x1 * w3, y3 * w1 - y1 * w3
    det = bx * cy - by * cx
    if type(det) is not float:
        return det == 0
    n1, n2, n3 = math.hypot(x1, y1), math.hypot(x2, y2), math.hypot(x3, y3)
    m = (w2 * n1 + w1 * n2) * math.hypot(cx, cy) + math.hypot(bx, by) * (w3 * n1 + w1 * n3)
    return vanishes(det, m)


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------


def _normalize_abc(a: Number, b: Number, c: Number) -> Tuple[Number, Number, Number]:
    if is_exact(a) and is_exact(b) and is_exact(c):
        # (a, b) is not zero, so its first nonzero entry is the first of
        # (a, b, c), the one primitive_integers makes positive
        return primitive_integers((a, b, c))
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
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "c", c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        if p == q:
            raise CoincidentPoints("cannot make line through a single point")
        (x1, y1, w1), (x2, y2, w2) = _hom(p), _hom(q)
        return Line(y2 * w1 - y1 * w2, x1 * w2 - x2 * w1, x1 * y2 - y1 * x2)

    @staticmethod
    def from_point_direction(p: Point, d: Point) -> "Line":
        (x, y, w), (dx, dy, _) = _hom(p), _hom(d)
        if dx == 0 and dy == 0:
            raise DegenerateInput("zero direction")
        return Line(dy * w, -dx * w, dy * x - dx * y)

    @staticmethod
    def from_point_normal(p: Point, n: Point) -> "Line":
        (x, y, w), (nx, ny, _) = _hom(p), _hom(n)
        if nx == 0 and ny == 0:
            raise DegenerateInput("zero normal")
        return Line(nx * w, ny * w, nx * x + ny * y)

    # -- queries ------------------------------------------------------

    def evaluate(self, p: Point) -> Number:
        return self.a * p.x + self.b * p.y - self.c

    def residual(self, p: Point) -> Tuple[Number, float]:
        """(r, m) for p on the line: r = a·X + b·Y − c·W, and m =
        |(a, b)|·|(X, Y)| + |c·W| for a float r (0 for an exact one)."""
        x, y, w = _hom(p)
        v = self.a * x + self.b * y - self.c * w
        if type(v) is not float:
            return v, 0
        return v, math.hypot(self.a, self.b) * math.hypot(x, y) + abs(self.c * w)

    def contains(self, p: Point) -> bool:
        return vanishes(*self.residual(p))

    def direction(self) -> Point:
        return Point(self.b, -self.a)

    def normal(self) -> Point:
        return Point(self.a, self.b)

    def slope(self) -> Optional[Number]:
        if self.b == 0:
            return None
        return divide(-self.a, self.b)

    def is_parallel(self, other: "Line") -> bool:
        return self._normals_vanish(other, self.a * other.b - self.b * other.a)

    def is_perpendicular(self, other: "Line") -> bool:
        return self._normals_vanish(other, self.a * other.a + self.b * other.b)

    def _normals_vanish(self, other: "Line", v: Number) -> bool:
        """v, a product of the normals, vanishes against their norms."""
        if type(v) is not float:
            return v == 0
        return vanishes(v, math.hypot(self.a, self.b) * math.hypot(other.a, other.b))

    def intersect(self, other: "Line") -> Point:
        det = self.a * other.b - self.b * other.a
        if det == 0:
            raise ParallelLines("lines are parallel or identical")
        return _point_of(
            self.c * other.b - self.b * other.c, self.a * other.c - self.c * other.a, det
        )

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

    def residual(self, p: Point) -> Tuple[Number, float]:
        """(r, m) for p on the circle, the power of p against |p − c|² + r2:
        over the triples, with D = (dX, dY), w = W_p·W_c and r2 = n/d,
        r = d·|D|² − n·w² and m = d·|D|² + |n|·w² (0 for an exact r)."""
        (x1, y1, w1), (x2, y2, w2), (n, d) = _hom(p), _hom(self.center), _ratio(self.r2)
        dx, dy, w = x1 * w2 - x2 * w1, y1 * w2 - y2 * w1, w1 * w2
        s, t = d * (dx * dx + dy * dy), n * w * w
        v = s - t
        if type(v) is not float:
            return v, 0
        return v, s + abs(t)

    def contains(self, p: Point) -> bool:
        return vanishes(*self.residual(p))

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
        return Circle(self.focus2, self.axis2).contains(
            reflect_point_in_line(self.focus1, line)
        )


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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _project(p: Point, line: Line, k: int) -> Point:
    """p moved k times its offset from ``line`` towards it, with
    n² = a² + b² and t = aX + bY − cW: ((X·n² − k·t·a)/(W·n²), …)."""
    x, y, w = _hom(p)
    a, b = line.a, line.b
    n2 = a * a + b * b
    kt = k * (a * x + b * y - line.c * w)
    return _point_of(x * n2 - kt * a, y * n2 - kt * b, w * n2)


def reflect_point_in_line(p: Point, line: Line) -> Point:
    return _project(p, line, 2)


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
    return _project(p, line, 1)


def perpendicular_bisector(p: Point, q: Point) -> Line:
    if p == q:
        raise CoincidentPoints("no bisector of a point with itself")
    d = q - p
    m = p.midpoint(q)
    return Line.from_point_normal(m, d)


def _edge_vectors(p: Point, q: Point, r: Point):
    """(X, Y, l, B_x, B_y, C_x, C_y) over the common denominator l of the
    three triples: p = (X, Y)/l and the edge vectors are q − p = B/l and
    r − p = C/l."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = _hom(p), _hom(q), _hom(r)
    l = math.lcm(w1, w2, w3)
    x1, y1, s2, s3 = x1 * (l // w1), y1 * (l // w1), l // w2, l // w3
    return x1, y1, l, x2 * s2 - x1, y2 * s2 - y1, x3 * s3 - x1, y3 * s3 - y1


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """With edge vectors b = q − p and c = r − p, the centre is
    p + (c_y·|b|² − b_y·|c|², b_x·|c|² − c_x·|b|²) / (2·b×c)."""
    # over the common denominator l the offset from p is (ox, oy)/(2·l·B×C)
    x1, y1, l, bx, by, cx, cy = _edge_vectors(p, q, r)
    cross = bx * cy - by * cx
    if cross == 0:
        raise DegenerateInput("collinear points have no circumcircle")
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    ox, oy = cy * bb - by * cc, bx * cc - cx * bb
    d = 2 * l * cross
    center = _point_of(2 * cross * x1 + ox, 2 * cross * y1 + oy, d)
    return Circle(center, divide(ox * ox + oy * oy, d * d))


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
    tangent iff (d² − r2₁ − r2₂)² = 4·r2₁·r2₂ (internal when d² < r2₁+r2₂).
    A float discriminant vanishes against (d² − r2₁ − r2₂)² + 4·|r2₁·r2₂|;
    an exact one is compared with 0."""
    if c1 == c2:
        raise IdenticalCircles("cannot classify a circle against itself")
    # d², r2₁ and r2₂ scaled to one denominator l > 0
    (x1, y1, w1), (x2, y2, w2) = _hom(c1.center), _hom(c2.center)
    (n1, e1), (n2, e2) = _ratio(c1.r2), _ratio(c2.r2)
    dx, dy, w = x1 * w2 - x2 * w1, y1 * w2 - y2 * w1, w1 * w2
    e0 = w * w
    l = math.lcm(e0, e1, e2)
    d2, r1, r2 = (dx * dx + dy * dy) * (l // e0), n1 * (l // e1), n2 * (l // e2)
    lhs = d2 - r1 - r2
    disc = lhs * lhs - 4 * r1 * r2
    if type(disc) is float:
        tangent = vanishes(disc, lhs * lhs + 4 * abs(r1 * r2))
    else:
        tangent = disc == 0
    if tangent:
        internal = d2 < r1 + r2
        return Tangency.INTERNAL_TANGENT if internal else Tangency.EXTERNAL_TANGENT
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
    for p in (p3, p4):
        if not collinear(p1, p2, p):
            raise NotCollinear("cross-ratio needs collinear points")
    d = p2 - p1
    t = [_line_parameter(p, p1, d) for p in pts]
    num = (t[0] - t[2]) * (t[1] - t[3])
    den = (t[0] - t[3]) * (t[1] - t[2])
    return divide(num, den)
