"""Types shared by the workloads and the runner."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List


class CheckFailed(Exception):
    """An operation returned, but its output contradicts the independent
    computation or the theorem the benchmark checks it against."""


def ensure(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``rounds(rng)`` yields rounds forever: each round is a list of
    operation inputs, always the same number of them. ``run(inp)`` is the
    timed call into quadgeo; it returns a result or raises. ``checker()``
    makes a fresh check for one run: called as ``check(inp, result)``, it
    compares the result with the benchmark's own arithmetic and raises
    ``CheckFailed`` on any disagreement. ``trace_rounds`` is the fixed
    number of rounds of a traced run.
    """

    name: str
    rounds: Callable[[random.Random], Iterator[List[Any]]]
    run: Callable[[Any], Any]
    checker: Callable[[], Callable[[Any, Any], None]]
    trace_rounds: int
