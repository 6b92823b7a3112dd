"""The figures workload: the ``render`` use of quadgeo.

One operation builds every recipe on the fixture t0 with ``build_scene``
and renders it with ``render_svg``. quadgeo's recipes take only a fixture
name, so the input is the same for every seed.

The checks parse each SVG and compare every operation's bytes with the
first operation's. In the star-of-david SVG the six tangent segments must
lie at distance 85 from the Centre and bound two equilateral triangles,
mirror images through the Centre; in touch32 the 32 touch circles must be
tangent to the Central Circle. Tolerances allow for the six-decimal
rounding of the SVG.
"""

from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ET
from typing import Dict, Iterator, List, Optional, Tuple

from quadgeo import cli_figures

from common import CheckFailed, Workload, ensure

FIXTURE = "t0"
#: Centre and Central Circle radius of t0; the SVG flips y about 0
CENTRE = (0.0, 0.0)
CENTRAL_RADIUS = 85.0
TOL = 1e-4

_NS = "{http://www.w3.org/2000/svg}"
_DOTTED = "1.5,3"


def figure_rounds(rng: random.Random) -> Iterator[List[str]]:
    while True:
        yield [FIXTURE]


def run_figures(fixture: str) -> Dict[str, bytes]:
    return {
        name: cli_figures.render_svg(cli_figures.build_scene(fixture, name))
        for name in cli_figures.RECIPES
    }


def _floats(el: ET.Element, *names: str) -> Tuple[float, ...]:
    return tuple(float(el.get(n)) for n in names)


def _line_distance(ax: float, ay: float, bx: float, by: float) -> float:
    """Distance from the Centre to the line through (ax, ay), (bx, by)."""
    ax, ay, bx, by = ax - CENTRE[0], ay - CENTRE[1], bx - CENTRE[0], by - CENTRE[1]
    return abs(ax * by - ay * bx) / math.hypot(bx - ax, by - ay)


def _polyline(el: ET.Element) -> List[Tuple[float, float]]:
    return [tuple(map(float, pair.split(","))) for pair in el.get("points").split()]


def _has_central_circle(root: ET.Element) -> bool:
    return any(
        math.dist(_floats(c, "cx", "cy"), CENTRE) < TOL
        and abs(float(c.get("r")) - CENTRAL_RADIUS) < TOL
        for c in root.iter(_NS + "circle")
    )


def _check_star(root: ET.Element) -> None:
    tangents = [
        _floats(el, "x1", "y1", "x2", "y2")
        for el in root.iter(_NS + "line")
        if el.get("stroke-dasharray") == _DOTTED
    ]
    ensure(len(tangents) == 6, f"star-of-david has {len(tangents)} tangents, not 6")
    ensure(all(abs(_line_distance(*t) - CENTRAL_RADIUS) < TOL for t in tangents),
           "a star-of-david tangent is not at distance 85 from the Centre")
    tris = [_polyline(el)[:-1] for el in root.iter(_NS + "polyline")]
    ensure(len(tris) == 2 and all(len(t) == 3 for t in tris),
           "star-of-david lacks its two triangles")
    for tri in tris:
        sides = [math.dist(tri[i], tri[(i + 1) % 3]) for i in range(3)]
        ensure(max(sides) - min(sides) < TOL * max(sides),
               "a star-of-david triangle is not equilateral")
        ensure(all(abs(_line_distance(*tri[i], *tri[(i + 1) % 3]) - CENTRAL_RADIUS) < TOL
                   for i in range(3)),
               "a star-of-david triangle side is not a tangent")
    mirrored = [(2 * CENTRE[0] - x, 2 * CENTRE[1] - y) for x, y in tris[0]]
    ensure(all(min(math.dist(p, q) for q in tris[1]) < TOL for p in mirrored),
           "the star-of-david triangles are not mirror images through the Centre")


def _check_touch32(root: ET.Element) -> None:
    circles = [
        _floats(c, "cx", "cy", "r")
        for c in root.iter(_NS + "circle")
        if c.get("stroke-width") == "1" and c.get("stroke-dasharray") is None
    ]
    ensure(len(circles) == 32, f"touch32 has {len(circles)} touch circles, not 32")
    for cx, cy, r in circles:
        d = math.dist((cx, cy), CENTRE)
        ensure(min(abs(d - (CENTRAL_RADIUS + r)), abs(d - abs(CENTRAL_RADIUS - r))) < TOL,
               f"touch circle at ({cx}, {cy}) is not tangent to the Central Circle")


def _check_svg(name: str, root: ET.Element) -> None:
    ensure(root.tag == _NS + "svg", f"{name} is not an SVG")
    if name == "empty":
        ensure(len(root) == 0, "the empty recipe draws something")
        return
    ensure(_has_central_circle(root), f"{name} lacks the Central Circle")
    if name == "star-of-david":
        _check_star(root)
    elif name == "touch32":
        _check_touch32(root)


class FigureChecks:
    """Checks for one run; remembers the first operation's SVGs so that
    every later render must repeat them byte for byte."""

    def __init__(self) -> None:
        self.first: Optional[Dict[str, bytes]] = None

    def __call__(self, fixture: str, svgs: Dict[str, bytes]) -> None:
        ensure(sorted(svgs) == sorted(cli_figures.RECIPES), "a recipe is missing")
        for name, svg in svgs.items():
            try:
                root = ET.fromstring(svg)
            except ET.ParseError as exc:
                raise CheckFailed(f"{name} SVG does not parse: {exc}") from None
            try:
                _check_svg(name, root)
            except (TypeError, ValueError) as exc:
                raise CheckFailed(f"{name} has a malformed attribute: {exc}") from None
        if self.first is None:
            self.first = svgs
        ensure(svgs == self.first, "two renders of the same figures differ")


FIGURES = Workload("figures", figure_rounds, run_figures, FigureChecks, trace_rounds=4)
