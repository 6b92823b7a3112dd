"""quadgeo benchmark: runs one workload (or all of them) and prints its
metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28
    python3 perfbench/run.py --smoke        # every workload for about a second
    python3 perfbench/run.py --self-test    # perturbed results must be caught

With ``--trace 0`` it reports the end-to-end metrics of an untraced run:
``setup_s`` (median over ``PROBES`` fresh interpreters of the time from
interpreter start to the first timed operation), ``ops_per_s``,
``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``. Times are wall times
scaled to a reference speed by a calibration pass timed next to each
operation and each probe (see ``calibration_pass``). With ``--trace 1`` it
makes a fixed number of rounds under the span tracer and reports the
per-layer metrics; the spans go to ``.perfbench_out/`` in the checkout.
quadgeo is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: fresh interpreters timed per run for setup_s
PROBES = 5
#: a timed run goes on past --seconds (for at most as long again) until
#: this many operations have completed, so that ten samples lie beyond
#: op_p90_ms
MIN_SAMPLES = 100
#: the reference speed: a host on which one calibration pass takes this long
CAL_REF_S = 0.002
#: longest a setup probe may take
PROBE_TIMEOUT_S = 60

Metrics = Dict[str, Tuple[float, str]]


def import_quadgeo() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import quadgeo

    if Path(quadgeo.__file__).resolve().parent != ROOT / "src" / "quadgeo":
        raise ImportError(f"quadgeo imported from {quadgeo.__file__}, not from src/")


def workloads():
    from exact import EXACT_LARGE, EXACT_SMALL
    from figures import FIGURES
    from floatcfg import FLOAT_CONFIGS

    return {w.name: w for w in (EXACT_SMALL, EXACT_LARGE, FLOAT_CONFIGS, FIGURES)}


def calibration_pass() -> float:
    """Seconds taken by a fixed piece of pure-Python work, Fraction
    arithmetic with growing denominators like quadgeo's. Timed next to the
    operations, it tracks the speed of the host, which changes by up to a
    factor of two from minute to minute on a shared virtual machine."""
    t0 = time.perf_counter()
    acc, third = Fraction(0), Fraction(1, 3)
    for i in range(1, 300):
        acc += third * Fraction(i, i + 7)
    return time.perf_counter() - t0


class Tally:
    """Wall time of every attempted operation and whether it completed,
    the calibration pass before each (when calibrating), and the first
    failure and check failure for the log."""

    def __init__(self, workload, quiet: bool = False) -> None:
        self.workload = workload
        self.quiet = quiet
        self.check = workload.checker()
        self.ops: List[Tuple[float, bool]] = []
        self.calibration: List[float] = []
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def completed(self) -> int:
        return sum(ok for _, ok in self.ops)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    def step(self, inp, tracer=None, calibrate: bool = False) -> None:
        from common import CheckFailed

        if calibrate:
            self.calibration.append(calibration_pass())
        t0 = time.perf_counter()
        try:
            res = tracer.op(self.workload.run, inp) if tracer else self.workload.run(inp)
        except Exception:
            self.ops.append((time.perf_counter() - t0, False))
            if self.failed == 1 and not self.quiet:
                print(f"{self.workload.name}: operation failed\n{traceback.format_exc()}",
                      file=sys.stderr)
            return
        self.ops.append((time.perf_counter() - t0, True))
        try:
            self.check(inp, res)
        except CheckFailed as exc:
            if not self.errors and not self.quiet:
                print(f"{self.workload.name}: wrong output: {exc}", file=sys.stderr)
            self.errors.append(str(exc))

    def summary(self) -> str:
        wall = [dt for dt, _ in self.ops]
        ref = [t for t, _ in self.reference_times()]
        return (f"wall time {sum(wall):.2f} s, p50 {statistics.median(wall) * 1e3:.2f} ms; "
                f"calibration pass p50 {statistics.median(self.calibration) * 1e3:.3f} ms; "
                f"mean at reference speed {statistics.fmean(ref) * 1e3:.2f} ms")

    def reference_times(self) -> List[Tuple[float, bool]]:
        """Each operation's wall time at the reference speed: scaled by
        CAL_REF_S over the mean of the calibration passes just before and
        just after it (the run ends with one more pass)."""
        cal = self.calibration
        return [
            (dt * CAL_REF_S * 2 / (cal[i] + cal[i + 1]), ok)
            for i, (dt, ok) in enumerate(self.ops)
        ]


def input_rounds(workload, seed: int, warm: bool = False):
    tag = f"{workload.name}:{seed}" + (":warm" if warm else "")
    return workload.rounds(random.Random(tag))


def warm_up(tally: Tally, seed: int) -> None:
    """One round from a stream of its own, so that the timed inputs are
    fresh; its failures and samples are not counted."""
    warm = Tally(tally.workload, quiet=True)
    warm.check = tally.check
    for inp in next(input_rounds(tally.workload, seed, warm=True)):
        warm.step(inp)
    tally.errors += warm.errors


def probe(workload, seed: int) -> None:
    warm_up(Tally(workload), seed)
    print("ready", flush=True)


def setup_seconds(name: str, seed: int, probes: int) -> float:
    """Median time from starting a fresh interpreter to its being ready
    for the first timed operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", name,
           "--seed", str(seed)]
    times = []
    for _ in range(probes):
        speed = statistics.median(calibration_pass() for _ in range(3))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                times.append((time.perf_counter() - t0) * CAL_REF_S / speed)
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return statistics.median(times)


def timed_run(workload, seed: int, seconds: float, probes: int,
              min_samples: int) -> Tuple[Tally, Metrics]:
    setup_s = setup_seconds(workload.name, seed, probes)
    tally = Tally(workload)
    rounds = input_rounds(workload, seed)
    warm_up(tally, seed)
    start = time.perf_counter()
    while True:
        for inp in next(rounds):
            tally.step(inp, calibrate=True)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tally.completed >= min_samples or elapsed >= 2 * seconds):
            break
    tally.calibration.append(calibration_pass())
    if not tally.completed:
        raise RuntimeError(f"{workload.name}: no operation completed")
    ref = tally.reference_times()
    samples = sorted(t for t, ok in ref if ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(samples) / sum(t for t, _ in ref), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (samples[math.ceil(0.9 * len(samples)) - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload.name}: {len(samples)} completed, {tally.failed} failed; {tally.summary()}",
          file=sys.stderr)
    return tally, metrics


def traced_run(workload, seed: int, rounds_count: int) -> Tuple[Tally, Metrics]:
    from tracing import Tracer

    tally = Tally(workload)
    rounds = input_rounds(workload, seed)
    warm_up(tally, seed)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(rounds_count):
            for inp in next(rounds):
                tally.step(inp, tracer, calibrate=True)
    finally:
        tracer.uninstall()
    tally.calibration.append(calibration_pass())
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
    print(f"{workload.name}: {len(tracer.name_of)} spans over {tally.attempted} operations; "
          f"{tally.summary()}", file=sys.stderr)
    return tally, tracer.layer_metrics()


def result(tallies: List[Tally], metrics: Metrics) -> str:
    return json.dumps({
        "correct": not any(t.errors for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(workload, args, trace: int) -> Tuple[Tally, Metrics]:
    if trace:
        rounds = 1 if args.smoke else workload.trace_rounds
        return traced_run(workload, args.seed, rounds)
    if args.smoke:
        return timed_run(workload, args.seed, 1.0, 1, 1)
    return timed_run(workload, args.seed, args.seconds, PROBES, MIN_SAMPLES)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for about a second, untraced and traced")
    parser.add_argument("--self-test", action="store_true",
                        help="check that perturbed results are reported")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        import_quadgeo()
    except ImportError as exc:
        print(f"cannot import quadgeo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    table = workloads()
    if args.self_test:
        from selftest import self_test

        return self_test(table)
    names = list(table) if args.workload == "all" or args.smoke else [args.workload]
    if any(n not in table for n in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(table)}")
    if args.probe:
        probe(table[names[0]], args.seed)
        return 0
    traces = (0, 1) if args.smoke else (args.trace,)

    tallies, merged = [], {}
    for name in names:
        for trace in traces:
            tally, metrics = run_one(table[name], args, trace)
            tallies.append(tally)
            if len(names) > 1:
                print(name, result([tally], metrics))
            merged.update({k if len(names) == 1 else f"{name}.{k}": v for k, v in metrics.items()})
    print(result(tallies, merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
