"""Record the reference summaries that runs with the pinned seed must match.

    python3 perfbench/record_refs.py

Runs every operation of every workload once with the pinned seed, refuses
to record an output that fails its own checks, and writes
``perfbench/refs/<workload>.json``.  Operations that fail by a known
defect get no reference.  Record only on a commit whose outputs are
known to be right: the references define what "correct" means.
"""

from __future__ import annotations

import json
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, workdir: Path) -> dict:
    api = spans.plain_api()
    refs = {}
    for op in workloads.prepare(workload, workloads.PINNED_SEED, workdir):
        try:
            outcome = op.call(api)
        except Exception:
            error = traceback.format_exc()
            if workloads.known_defect(op.key, error):
                print(f"{op.key}: known defect, no reference", file=sys.stderr)
                continue
            raise
        problems = op.check(outcome)
        if problems:
            raise SystemExit(f"{op.key}: {problems}")
        refs[op.key] = op.summarize(outcome)
    return refs


def main() -> int:
    workloads.REFS.mkdir(exist_ok=True)
    for name in sorted(workloads.EXPECTED_LAYERS):
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            refs = record(name, Path(tmp))
        path = workloads.REFS / f"{name}.json"
        lines = [f"{json.dumps(key)}: {json.dumps(refs[key])}" for key in sorted(refs)]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{path}: {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
