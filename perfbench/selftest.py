"""Shows that the checks are not vacuous: each workload's first result
must pass, and every perturbed copy of it must be reported.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from common import CheckFailed
from exact import Similarity
from quadgeo import touch

Perturbation = Tuple[str, Callable]


def _nudge(p, d):
    return replace(p, x=p.x + d)


def _exact_cases() -> List[Perturbation]:
    tiny = Fraction(1, 10 ** 9)

    def wrong_similarity(inp, res):
        s = inp.sim
        return replace(inp, sim=Similarity(s.k, s.c, s.s, (s.t[0] + 1, s.t[1]))), res

    def touch_circle(inp, res):
        entries = list(res.feuerbach.entries)
        label, circle, kind, exact = entries[5]
        entries[5] = (label, replace(circle, center=_nudge(circle.center, tiny)), kind, exact)
        return inp, replace(res, feuerbach=touch.FeuerbachReport(entries))

    def wallace_foot(inp, res):
        wd = res.wallace[0]
        feet = (wd.feet[0], _nudge(wd.feet[1], tiny), wd.feet[2])
        return inp, replace(res, wallace=(replace(wd, feet=feet),) + res.wallace[1:])

    def droz_farny_midpoint(inp, res):
        inst = res.droz_farny[0]
        mids = (_nudge(inst.midpoints[0], tiny),) + inst.midpoints[1:]
        return inp, replace(res, droz_farny=(replace(inst, midpoints=mids),) + res.droz_farny[1:])

    def euler_centroid(inp, res):
        er = res.euler[2]
        return inp, replace(res, euler=res.euler[:2] + (replace(er, centroid=_nudge(er.centroid, tiny)),)
                            + res.euler[3:])

    def guyline_dropped(inp, res):
        return inp, replace(res, guylines=res.guylines[:-1])

    return [
        ("wrong similarity", wrong_similarity),
        ("touch circle centre nudged", touch_circle),
        ("Wallace foot nudged", wallace_foot),
        ("Droz-Farny midpoint nudged", droz_farny_midpoint),
        ("Euler centroid nudged", euler_centroid),
        ("a guyline dropped", guyline_dropped),
    ]


def _float_cases() -> List[Perturbation]:
    def morley_vertex(inp, res):
        tris = dict(res.morley.morley_triangles)
        t = tris["000"]
        tris["000"] = (_nudge(t[0], 1e-6),) + t[1:]
        return inp, replace(res, morley=replace(res.morley, morley_triangles=tris))

    def thrice_centre(inp, res):
        centers = dict(res.thrice.centers)
        centers["12"] = _nudge(centers["12"], 1e-6)
        return inp, replace(res, thrice=replace(res.thrice, centers=centers))

    def lighthouse_vertex(inp, res):
        lh, ok = res.lighthouses[3]
        ngons = [list(g) for g in lh.ngons]
        ngons[1][2] = _nudge(ngons[1][2], 1e-6)
        lights = list(res.lighthouses)
        lights[3] = (replace(lh, ngons=ngons), ok)
        return inp, replace(res, lighthouses=lights)

    return [
        ("inner Morley vertex nudged", morley_vertex),
        ("thrice-sixteen centre nudged", thrice_centre),
        ("lighthouse n-gon vertex nudged", lighthouse_vertex),
    ]


def _edit_svg(svgs: Dict[str, bytes], name: str, pattern: str, repl: str) -> Dict[str, bytes]:
    out = dict(svgs)
    edited = re.sub(pattern.encode(), repl.encode(), svgs[name], count=1)
    if edited == svgs[name]:
        raise ValueError(f"pattern {pattern!r} not found in {name}")
    out[name] = edited
    return out


def _figure_cases() -> List[Perturbation]:
    return [
        ("star-of-david tangent moved",
         lambda inp, svgs: (inp, _edit_svg(svgs, "star-of-david", r'(<line x1=")(\d)',
                                           r"\g<1>1\g<2>"))),
        ("touch32 circle radius changed",
         lambda inp, svgs: (inp, _edit_svg(svgs, "touch32", r'(r=")(\d)', r"\g<1>1\g<2>"))),
        ("SVG truncated",
         lambda inp, svgs: (inp, _edit_svg(svgs, "twins", r"</svg>\n$", ""))),
    ]


def _render_differs(workload, inp, res) -> bool:
    """A second render that differs in one digit is reported."""
    check = workload.checker()
    check(inp, res)
    try:
        check(inp, _edit_svg(res, "twins", r'(cx=")(\d)', r"\g<1>1\g<2>"))
    except CheckFailed:
        return True
    return False


def self_test(table) -> int:
    cases = {
        "exact-small": _exact_cases(),
        "exact-large": _exact_cases(),
        "float-configs": _float_cases(),
        "figures": _figure_cases(),
    }
    missed = 0
    for name, perturbations in cases.items():
        wl = table[name]
        rounds = wl.rounds(random.Random(f"{name}:self-test"))
        inp = next(i for i in next(rounds) if not getattr(i, "right", False))
        res = wl.run(inp)
        wl.checker()(inp, res)
        for label, perturb in perturbations:
            try:
                wl.checker()(*perturb(inp, res))
            except CheckFailed as exc:
                print(f"{name}: {label}: reported ({exc})")
            else:
                print(f"{name}: {label}: NOT reported")
                missed += 1
        if name == "figures":
            caught = _render_differs(wl, inp, res)
            print(f"{name}: a render differs: {'reported' if caught else 'NOT reported'}")
            missed += not caught
    print(f"self-test: {missed} perturbation(s) not reported", file=sys.stderr)
    return 1 if missed else 0
