"""Spans around quadgeo's public functions, recorded from outside quadgeo.

``Tracer.install()`` replaces each traced name wherever a quadgeo module
binds it (``from .kernel import circumcircle`` makes a second binding in
the importing module) with a wrapper that records a span: name, start,
end and the span that was open when it started. ``kernel.Line`` is traced
through ``Line.__post_init__``, its construction and normalisation, and
``kernel.Line.intersect`` through the class attribute. Spans stay in
memory until ``write`` saves them; ``layer_metrics`` turns them into call
counts and self times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: traced public names per module
TRACED: Dict[str, Tuple[str, ...]] = {
    "kernel": ("Line", "Line.intersect", "circumcircle", "reflect_point_in_line",
               "foot_of_perpendicular", "tangency_classify"),
    "quadrangle": ("quadrate", "euler_range"),
    "touch": ("feuerbach_verify", "touch_circles"),
    "drozfarny": ("df_line", "df_envelope", "envelope_tangency", "parabola_tangency_audit"),
    "malfatti": ("guylines", "pegs", "group_audit", "zero_point_collinearities"),
    "wallace": ("wallace_line", "rational_circle_point", "star_of_david"),
    "morley": ("morley_config", "lighthouse", "lighthouse_verify", "thrice_sixteen"),
    "cli_figures": ("build_scene", "render_svg"),
}

#: name of the root span around one benchmark operation
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        open_spans, clock = self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(open_spans[-1])
            end.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()

        return traced

    def op(self, fn: Callable, *args):
        """Call fn(*args) inside a root span: one benchmark operation."""
        return self._wrap(OP, fn)(*args)

    def install(self) -> None:
        homes = {m: importlib.import_module(f"quadgeo.{m}") for m in TRACED}
        kernel = homes["kernel"]
        modules = [m for k, m in sys.modules.items() if k.startswith("quadgeo.")]
        for module, funcs in TRACED.items():
            home = homes[module]
            for func in funcs:
                name = f"{module}.{func}"
                if func == "Line":
                    self._patch(kernel.Line, "__post_init__", name)
                elif func == "Line.intersect":
                    self._patch(kernel.Line, "intersect", name)
                else:
                    original = getattr(home, func)
                    wrapped = self._wrap(name, original)
                    for m in modules:
                        if getattr(m, func, None) is original:
                            self._undo.append((m, func, original))
                            setattr(m, func, wrapped)

    def _patch(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Calls and self time (duration minus the time covered by child
        spans; spans of one thread nest, so children never overlap) per
        traced name, and self time per module."""
        child_ns = [0] * len(self.name_of)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child_ns[par] += self.end[idx] - self.start[idx]
        calls: Dict[str, int] = defaultdict(int)
        self_ns: Dict[str, int] = defaultdict(int)
        for idx, nid in enumerate(self.name_of):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += self.end[idx] - self.start[idx] - child_ns[idx]
        out: Dict[str, Tuple[float, str]] = {}
        for module, funcs in TRACED.items():
            module_ns = 0
            for func in funcs:
                name = f"{module}.{func}"
                out[f"{name}.calls"] = (calls[name], "count")
                out[f"{name}.ms"] = (self_ns[name] / 1e6, "ms")
                module_ns += self_ns[name]
            out[f"{module}.ms"] = (module_ns / 1e6, "ms")
        return out

    def write(self, path: Path) -> None:
        """Save the spans as JSON: a table of names and one
        [name, start_ns, end_ns, parent] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = zip(self.name_of, self.start, self.end, self.parent)
        with path.open("w") as fh:
            json.dump({"names": self.names, "spans": [list(r) for r in rows]}, fh,
                      separators=(",", ":"))
