"""The float-configs workload: quadgeo's float backend, which bypasses the
exact kernel.

One operation takes one random draw through ``morley_config``, one
``lighthouse`` plus ``lighthouse_verify`` for each n from 2 to 8, and one
``thrice_sixteen`` on a random concyclic quadrangle. Every round of
``ROUND`` operations also gives ``morley_config`` the three right
triangles of ``RIGHT_TRIANGLES`` in place of the random triangle; quadgeo
fails on each of them with a bare AssertionError, so they are counted as
failed operations. They pass once ``morley_config`` returns a full
configuration that passes the checks, or rejects them with a typed
``GeometryError``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from quadgeo import kernel, morley

from common import Workload, ensure

XY = Tuple[float, float]

#: operations per round; three of them carry a right triangle
ROUND = 32
RIGHT_TRIANGLES: Tuple[Tuple[XY, XY, XY], ...] = (
    ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)),
    ((0.0, 0.0), (12.0, 0.0), (0.0, 5.0)),
    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
)
LIGHTHOUSE_NS = range(2, 9)
LIGHTHOUSE_B, LIGHTHOUSE_C = (-1.0, 0.0), (1.0, 0.0)

#: relative tolerance of the float checks
EPS = 1e-9


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic
# ---------------------------------------------------------------------------


def angles(tri: Sequence[XY]) -> List[float]:
    """Interior angles at the three vertices."""
    out = []
    for i in range(3):
        p, q, r = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        u, v = (q[0] - p[0], q[1] - p[1]), (r[0] - p[0], r[1] - p[1])
        out.append(abs(math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])))
    return out


def circumcentre(p: XY, q: XY, r: XY) -> XY:
    bx, by, cx, cy = q[0] - p[0], q[1] - p[1], r[0] - p[0], r[1] - p[1]
    d = 2 * (bx * cy - by * cx)
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    return (p[0] + (cy * bb - by * cc) / d, p[1] + (bx * cc - cx * bb) / d)


def in_excentres(tri: Sequence[XY]) -> List[XY]:
    """Incentre, then the excentres opposite the first, second and third
    vertex."""
    p, q, r = tri
    a, b, c = math.dist(q, r), math.dist(r, p), math.dist(p, q)
    out = []
    for wa, wb, wc in ((a, b, c), (-a, b, c), (a, -b, c), (a, b, -c)):
        s = wa + wb + wc
        out.append(((wa * p[0] + wb * q[0] + wc * r[0]) / s,
                    (wa * p[1] + wb * q[1] + wc * r[1]) / s))
    return out


def xy(p: kernel.Point) -> XY:
    return (float(p.x), float(p.y))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatInput:
    triangle: Tuple[XY, XY, XY]
    right: bool                      # one of RIGHT_TRIANGLES
    beta: float                      # lighthouse phases
    gamma: float
    quad: Tuple[XY, XY, XY, XY]      # concyclic quadrangle


def _triangle(rng: random.Random) -> Tuple[XY, XY, XY]:
    """A random triangle kept clear of the right angle and of slivers,
    where morley_config fails for reasons of its own (see CHANGES.md)."""
    while True:
        tri = tuple((rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3))
        angs = angles(tri)
        if min(angs) > 0.05 and all(abs(a - math.pi / 2) > 1e-3 for a in angs):
            return tri


def _phases(rng: random.Random) -> Tuple[float, float]:
    """Beam phases with beta + gamma at least 0.02 from every multiple of
    pi/n, so that no two beams are parallel for any n in LIGHTHOUSE_NS."""
    while True:
        beta, gamma = rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.05, math.pi - 0.05)
        clear = True
        for n in LIGHTHOUSE_NS:
            step = math.pi / n
            r = (beta + gamma) % step
            clear = clear and min(r, step - r) > 0.02
        if clear:
            return beta, gamma


def _concyclic(rng: random.Random) -> Tuple[XY, XY, XY, XY]:
    while True:
        ths = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
        if min((ths[(i + 1) % 4] - ths[i]) % (2 * math.pi) for i in range(4)) > 0.25:
            break
    r = rng.uniform(3, 20)
    cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    return tuple((cx + r * math.cos(t), cy + r * math.sin(t)) for t in ths)


def float_input(rng: random.Random, right: Optional[Tuple[XY, XY, XY]] = None) -> FloatInput:
    tri = _triangle(rng) if right is None else right
    return FloatInput(tri, right is not None, *_phases(rng), _concyclic(rng))


def float_rounds(rng: random.Random) -> Iterator[List[FloatInput]]:
    spacing = ROUND // len(RIGHT_TRIANGLES)
    right_at = {k * spacing: tri for k, tri in enumerate(RIGHT_TRIANGLES)}
    while True:
        yield [float_input(rng, right_at.get(i)) for i in range(ROUND)]


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------


@dataclass
class FloatResult:
    morley: Optional[morley.MorleyConfig]     # None: typed rejection
    lighthouses: List[Tuple[morley.LighthouseConfig, bool]]
    thrice: morley.ThriceSixteenReport


def run_float(inp: FloatInput) -> FloatResult:
    tri = [kernel.Point(*v) for v in inp.triangle]
    try:
        cfg = morley.morley_config(*tri)
    except kernel.GeometryError:
        if not inp.right:
            raise
        cfg = None
    b, c = kernel.Point(*LIGHTHOUSE_B), kernel.Point(*LIGHTHOUSE_C)
    lights = []
    for n in LIGHTHOUSE_NS:
        lh = morley.lighthouse(b, c, inp.beta, inp.gamma, n)
        lights.append((lh, morley.lighthouse_verify(lh)))
    return FloatResult(cfg, lights, morley.thrice_sixteen([kernel.Point(*v) for v in inp.quad]))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def check_float(inp: FloatInput, res: FloatResult) -> None:
    if res.morley is not None:
        _check_morley(inp.triangle, res.morley)
    for (lh, verified), n in zip(res.lighthouses, LIGHTHOUSE_NS):
        _check_lighthouse(lh, verified, n)
    _check_thrice(inp.quad, res.thrice)


def _check_morley(tri: Sequence[XY], cfg: morley.MorleyConfig) -> None:
    ensure(len(cfg.points) == 27 and len(cfg.lines) == 9, "not 27 points on 9 lines")
    ensure(all(len(m) == 6 for m in cfg.line_points.values()), "a Morley line lacks 6 points")
    ensure(len(cfg.morley_triangles) == 18 and len(cfg.gf_circles) == 9
           and len(cfg.associated_points) == 9, "wrong number of Morley triangles or GF circles")
    for name, t in cfg.morley_triangles.items():
        sides = [math.dist(xy(t[i]), xy(t[(i + 1) % 3])) for i in range(3)]
        ensure((max(sides) - min(sides)) / max(sides) < EPS,
               f"Morley triangle {name} is not equilateral")
    a_, b_, c_ = angles(tri)
    big_r = math.dist(tri[1], tri[2]) / (2 * math.sin(a_))
    side = 8 * big_r * math.sin(a_ / 3) * math.sin(b_ / 3) * math.sin(c_ / 3)
    inner = cfg.morley_triangles["000"]
    ensure(abs(math.dist(xy(inner[0]), xy(inner[1])) - side) < EPS * big_r,
           "inner Morley side is not 8R sin(A/3) sin(B/3) sin(C/3)")


def _check_lighthouse(lh: morley.LighthouseConfig, verified: bool, n: int) -> None:
    ensure(verified is True, f"lighthouse_verify fails for n={n}")
    ensure(not lh.parallel_flag and len(lh.ngons) == n
           and all(len(g) == n for g in lh.ngons), f"lighthouse n={n} lacks points")
    for gon in lh.ngons:
        pts = [xy(p) for p in gon]
        centre = circumcentre(LIGHTHOUSE_B, LIGHTHOUSE_C, pts[0])
        radius = math.dist(centre, LIGHTHOUSE_B)
        ensure(all(abs(math.dist(centre, p) - radius) < EPS * radius for p in pts),
               f"lighthouse n={n}: an n-gon is not concyclic with B and C")
        if n > 2:
            arg = sorted(math.atan2(p[1] - centre[1], p[0] - centre[0]) for p in pts)
            gaps = [(arg[(i + 1) % n] - arg[i]) % (2 * math.pi) for i in range(n)]
            ensure(max(abs(g - 2 * math.pi / n) for g in gaps) < 1e-7,
                   f"lighthouse n={n}: an n-gon is not regular")


def _check_thrice(quad: Sequence[XY], rep: morley.ThriceSixteenReport) -> None:
    scale = max(math.dist(p, q) for p in quad for q in quad)
    ensure(len(rep.centers) == 16, "not 16 centres")
    for omit in range(4):
        others = [i for i in range(4) if i != omit]
        inc, *excs = in_excentres([quad[i] for i in others])
        for label, want in [(f"{omit}{omit}", inc)] + [
            (f"{omit}{v}", e) for v, e in zip(others, excs)
        ]:
            ensure(math.dist(xy(rep.centers[label]), want) < EPS * scale,
                   f"centre {label} is not the in/excentre")
    ensure(rep.midpoint_pairs == 12 and rep.latin_square and rep.circumcentres_reflect
           and rep.circumcircles_congruent, "thrice-sixteen properties fail")


FLOAT_CONFIGS = Workload("float-configs", float_rounds, run_float, lambda: check_float,
                         trace_rounds=2)
