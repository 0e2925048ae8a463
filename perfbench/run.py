"""Benchmark of ``crnsign``: one workload per run, checked outputs.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the result has the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  ``--workload all`` runs every
workload, each in its own process, one result line each.  The last line
of standard output is the JSON result; the line before it records the
Python and numpy versions and ``nproc``.  The exit code is 0 when every
output was correct, 1 when one was not, 2 on a usage or set-up error, and
3 when a traced run recorded no span for a layer its workload must reach.

The workload runs in a child process that this process reaps before any
other, so ``RUSAGE_CHILDREN`` gives that child's peak RSS.  Set-up is
then timed ``SETUP_TRIALS`` times, each in a fresh process, and the
median is reported, in nominal seconds (``NOMINAL_CAL_MS`` in
``worker.py``); the median in raw seconds is on the line before.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ["corpus", "large", "kinetics", "verify"]
SETUP_TRIALS = 7
TIMEOUT_S = 170
UNITS = {"setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB"}
INFO = ("setup_raw_s", "wall_s", "op_p50_ms", "op_p98_ms", "calibration_ms")
MISSING_LAYER = 3  # worker.py's exit code when a traced layer recorded no span


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def _worker(args, workdir: Path, out: Path = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(workdir)]
    if out is not None:
        cmd += ["--out", str(out)]
    # Fixed string hashing: runs then differ only by their inputs and the machine.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S, env=env)


def run_one(args) -> int:
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = workdir / "result.json"
        workdir.mkdir(parents=True)
        proc = _worker(args, workdir / "inputs", out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if args.trace and proc.returncode == MISSING_LAYER:
            return MISSING_LAYER
        if proc.returncode != 0:
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(out.read_text(encoding="utf-8"))
        metrics = result["metrics"]
        if not args.trace:
            setups = []
            for trial in range(SETUP_TRIALS):
                proc = _worker(args, workdir / f"setup{trial}")
                if proc.returncode != 0:
                    print(f"error: set-up process exited with {proc.returncode}", file=sys.stderr)
                    return 2
                setups.append(json.loads(proc.stdout))
            result["setup_raw_s"] = statistics.median(t["setup_raw_s"] for t in setups)
            setup_s = statistics.median(t["setup_s"] for t in setups)
            metrics = {"setup_s": setup_s, **metrics, "peak_rss_mb": peak_rss_mb}
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    for problem in result["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "passes": result["passes"],
        "ops_per_pass": result["ops_per_pass"],
        **{key: result[key] for key in INFO if key in result},
        "known_defects": result["known_defects"],
        "note": "CPU frequency and machine noise are not controlled",
    }))
    unit = _per_layer_unit if args.trace else UNITS.__getitem__
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the child being
    # waited for is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "crnsign").is_dir():
        print(f"error: no crnsign package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    codes = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(argv, timeout=TIMEOUT_S + 60).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
