"""Special triangle families against the triangle-taking entry points:
each call returns or raises a typed `GeometryError`, never a bare
exception, and the entry points of `RETURNS` return on the families
listed there."""

import math

import pytest

from quadgeo import drozfarny, malfatti, morley, quadrangle, touch, wallace
from quadgeo.kernel import CoincidentPoints, GeometryError, Point, circumcircle


def _triangle(*xy):
    return tuple(Point(x, y) for x, y in xy)


_S3 = math.sqrt(3.0)

FAMILIES = {
    "right": _triangle((0, 0), (4, 0), (0, 3)),
    "right-float": _triangle((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)),
    "isosceles": _triangle((0, 0), (6, 0), (3, 4)),
    "equilateral-float": _triangle((0.0, 0.0), (1.0, 0.0), (0.5, _S3 / 2)),
    "sliver-1e-7": _triangle((0.0, 0.0), (1.0, 0.0), (0.3, 1e-7)),
    "sliver-1e-4": _triangle((0.0, 0.0), (1.0, 0.0), (0.3, 1e-4)),
    "near-right": _triangle((0.0, 0.0), (4.0, 0.0), (1e-6, 3.0)),
    "large-float": _triangle(
        (1e6, 1e6), (1e6 + 4.0, 1e6), (1e6 + 1.0, 1e6 + 3.0)
    ),
    "large-int": _triangle(
        (10**6, 10**6), (10**6 + 4, 10**6), (10**6 + 1, 10**6 + 3)
    ),
}


def _with_antipode(tri):
    """The triangle and the antipode of its first vertex: four concyclic
    points."""
    a, b, c = tri
    o = circumcircle(a, b, c).center
    return (a, b, c, Point(2 * o.x - a.x, 2 * o.y - a.y))


ENTRY_POINTS = {
    "quadrate": lambda t: quadrangle.quadrate(*t),
    "touch_circles": touch.touch_circles,
    "gergonne_nagel": touch.gergonne_nagel,
    "soddy": touch.soddy,
    "hexaflex": touch.hexaflex,
    "morley_config": lambda t: morley.morley_config(*t),
    "inside_out": morley.inside_out,
    "orthocentric_morley_parallel": lambda t: morley.orthocentric_morley_parallel(*t),
    "bisector_quadrangle": lambda t: morley.bisector_quadrangle(*t),
    "malfatti_circles": lambda t: malfatti.malfatti_circles(*t),
    "df_envelope": drozfarny.df_envelope,
    "star_of_david": lambda t: wallace.star_of_david(quadrangle.quadrate(*t)),
    "thrice_sixteen": lambda t: morley.thrice_sixteen(_with_antipode(t)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("family", FAMILIES)
def test_returns_or_raises_typed_error(family, entry):
    try:
        ENTRY_POINTS[entry](FAMILIES[family])
    except GeometryError:
        pass


#: the families each entry point must return a result on, not only a
#: typed error
RETURNS = {
    "gergonne_nagel": set(FAMILIES) - {"sliver-1e-7"},
    "soddy": set(FAMILIES) - {"equilateral-float"},
}


@pytest.mark.parametrize(
    "entry, family",
    [(e, f) for e, families in RETURNS.items() for f in FAMILIES if f in families],
)
def test_returns(family, entry):
    ENTRY_POINTS[entry](FAMILIES[family])


def test_soddy_on_the_equilateral_triangle():
    # the incentre is the Gergonne point, so there is no Soddy line
    with pytest.raises(CoincidentPoints):
        touch.soddy(FAMILIES["equilateral-float"])
