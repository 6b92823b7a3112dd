#!/usr/bin/env python3
"""Survey the 32 Malfatti-style solutions of random rational triangles.

For each trial: draw a random quarter-angle state, enumerate the 32
solution states by extraversion, and report how many survive the closure
identity and how often the extraversion maps hit a pole.

Usage: python3 scripts/malfatti_survey.py [trials] [seed]
"""

import random
import sys
from fractions import Fraction as F

from quadgeo.malfatti import PoleEncountered, complete_state, solution_states


def random_state(rng: random.Random):
    while True:
        v = F(rng.randint(1, 20), rng.randint(21, 60))
        w = F(rng.randint(1, 20), rng.randint(21, 60))
        try:
            return complete_state(v, w)
        except PoleEncountered:
            continue


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    poles = 0
    for i in range(trials):
        state = random_state(rng)
        try:
            sols = solution_states(state)
        except PoleEncountered:
            poles += 1
            continue
        distinct = len(set(sols.values()))
        print(f"trial {i:3d}: state={tuple(map(str, state))} "
              f"solutions={len(sols)} distinct={distinct}")
    print(f"{trials} trials, {poles} pole encounters")


if __name__ == "__main__":
    main()
