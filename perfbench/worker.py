"""One workload in one process: set up, run closed loop, check, report.

``run.py`` starts this file as a child process, so that the peak RSS it
reads belongs to this workload alone.  The loop is closed: one client,
no extra threads, each operation starts after the previous one returns.
It runs whole passes over the workload's operations and starts another
pass only while the last one still fits in ``--seconds``.

Without ``--out`` the process only sets up, and prints its set-up time
in nominal seconds (see ``NOMINAL_CAL_MS``) and in raw seconds.

With ``--trace 1`` every operation runs twice, once with tracing and
once without, in alternating order; the per-layer numbers come from the
traced runs and ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# A set-up time in raw seconds times NOMINAL_CAL_MS over the calibration
# unit measured during that set-up: seconds on a machine on which the
# calibration task takes NOMINAL_CAL_MS milliseconds.
NOMINAL_CAL_MS = 2.0
SETUP_EDGE_SAMPLES = 3


def _calibration_task() -> None:
    """Fixed work that does not touch the package.

    Two halves of about equal time: exact ``Fraction`` arithmetic and a
    plain integer loop.  When the machine's speed swung, the workloads'
    operation times moved less than the ``Fraction`` half's time and about
    as much as, or more than, the integer half's; the two together track
    them more closely than either alone.
    """
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    acc = 0
    for i in range(1, 7500):
        acc = (acc * 31 + i) % 1000003


class SpeedProbe:
    """Samples the machine's speed while the set-up and the workload run.

    Every ``INTERVAL`` seconds a SIGALRM handler times the calibration
    task, in this process and thread, with the garbage collector off so
    that no collection of the workload's objects lands in a sample.  The
    mean of the samples over a stretch of work is that stretch's
    calibration unit: a time divided by it is in units of "how long the
    fixed task took at that time", in which the speed swings of a shared
    machine largely cancel.  ``spent`` lets callers take the handler's own
    time out of what they measure.
    """

    INTERVAL = 0.1

    def __init__(self) -> None:
        self.spent = 0.0
        self.times = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def sample(self, count: int = 1) -> None:
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                _calibration_task()
                self.times.append(time.perf_counter() - start)
                self.spent += self.times[-1]
        finally:
            gc.enable()

    def unit_since(self, mark: int) -> float:
        """Mean sample time since sample number ``mark``."""
        if len(self.times) == mark:
            self.sample()
        return statistics.fmean(self.times[mark:])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


_calibration_task()  # warm up, so that the first sample is not a cold one
PROBE = SpeedProbe()
# With as many samples at its end, the set-up's unit spans all of it.
PROBE.sample(SETUP_EDGE_SAMPLES)
SETUP_SPENT = PROBE.spent
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402  (imports crnsign)


class Loop:
    """Runs operations, times them and judges their outputs."""

    def __init__(self, refs, tracer, probe) -> None:
        self.refs = refs
        self.tracer = tracer
        self.probe = probe
        self.plain = spans.plain_api()
        self.latencies = []
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.defects = Counter()

    def run(self, op, traced: bool) -> None:
        if traced:
            undo = self.tracer.install(workloads.cli)
            call, api = self.tracer.wrap("cli", op.call), self.tracer.api
        else:
            call, api = op.call, self.plain
        outcome, error = None, None
        probe_spent = self.probe.spent if self.probe else 0.0
        start = time.perf_counter()
        try:
            outcome = call(api)
        except Exception:
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                undo()
        if self.probe:
            elapsed -= self.probe.spent - probe_spent
        self.attempted += 1
        if traced:
            self.traced_s += elapsed
        else:
            self.untraced_s += elapsed
            self.latencies.append(elapsed)
        self.judge(op, outcome, error)

    def judge(self, op, outcome, error) -> None:
        problems, defect = workloads.judge(op, outcome, error, self.refs)
        if defect:
            self.failed += 1
            self.defects[f"{op.key}: {defect}"] += 1
        elif problems:
            self.failed += 1
            self.problems += [f"{op.key}: {p}" for p in problems]


def measure(ops, seconds: float, loop: Loop):
    """Whole passes over ``ops``; returns (op seconds, calibration unit) per pass.

    The unit is None when there is no probe (traced runs).
    """
    passes = []
    probe = loop.probe
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        first = len(loop.latencies)
        mark = len(probe.times) if probe else None
        for index, op in enumerate(ops):
            if loop.tracer is None:
                loop.run(op, False)
                continue
            traced_first = (len(passes) + index) % 2 == 1
            for traced in (traced_first, not traced_first):
                loop.run(op, traced)
        unit = probe.unit_since(mark) if probe else None
        passes.append((loop.latencies[first:], unit))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.EXPECTED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True, help="where the inputs are written")
    parser.add_argument("--out", type=Path, help="result file; without it, only set up")
    args = parser.parse_args()

    ops = workloads.prepare(args.workload, args.seed, args.dir)
    setup_raw_s = time.perf_counter() - START - (PROBE.spent - SETUP_SPENT)
    PROBE.sample(SETUP_EDGE_SAMPLES)
    setup_unit = PROBE.unit_since(0)
    if args.out is None:
        PROBE.stop()
        print(json.dumps({
            "setup_s": setup_raw_s * NOMINAL_CAL_MS / (1e3 * setup_unit),
            "setup_raw_s": setup_raw_s,
        }))
        return 0

    import numpy

    tracer = spans.Tracer() if args.trace else None
    probe = None if args.trace else PROBE
    if args.trace:
        PROBE.stop()
    try:
        loop = Loop(workloads.references(args.workload, args.seed), tracer, probe)
        passes = measure(ops, args.seconds, loop)
    finally:
        if probe:
            probe.stop()

    lat_ms = sorted(1e3 * t for t in loop.latencies)
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "known_defects": dict(loop.defects),
        "wall_s": statistics.median(sum(lat) for lat, _ in passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p98_ms": statistics.quantiles(lat_ms, n=50)[-1] if len(lat_ms) > 1 else lat_ms[0],
    }
    if probe:
        result["calibration_ms"] = 1e3 * statistics.median(unit for _, unit in passes)
        result["metrics"] = {"wall_cal": statistics.median(sum(lat) / unit for lat, unit in passes)}
    if tracer is not None:
        missing = workloads.EXPECTED_LAYERS[args.workload] - tracer.layers_seen()
        if missing:
            print(f"error: no spans recorded for layer(s) {sorted(missing)} "
                  f"on workload {args.workload}", file=sys.stderr)
            return 3
        result["metrics"] = tracer.metrics(loop.traced_s, loop.untraced_s)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
