"""Record what ``crnsign`` prints and writes for a fixed set of invocations.

Each invocation runs ``crnsign.cli.main`` in this process, inside a work
directory that holds a copy of ``fixtures/`` plus two catalyst networks
(one whose fix fails) and an empty file, the benchmark's two ``large``
networks (30 species, 80 reactions, written by
``perfbench/gen.network_text``), the first
``KINETICS_COUNT`` networks of the benchmark's ``kinetics`` workload (20
species, 50 reactions with rates), a 60-species, 160-reaction network, a
rank-deficient 20 x 30 network (``conserving_text``), a 60 x 160 network
with a weighted conservation law (``weighted_conserving_text``) and the
same network with two species no positive law can weigh
(``blocked_text``), so every path (and every path quoted in an error
message) is relative and the same on every machine.  For each invocation
the record holds the exit code, the sha256 of stdout, the sha256 of every file the
invocation wrote and, for exit code 2 only, stderr.  An invocation that
raises records the exception's type and message instead of an exit code.

``test_cli.py::test_cli_matches_golden`` replays the invocations and
compares with ``cli_golden.json``.  To re-record (only when an output is
meant to change)::

    PYTHONPATH=src python3 tests/record_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "cli_golden.json"
GEN = HERE.parent / "perfbench" / "gen.py"

CATALYST = "A + B -> 2B\nB -> A\n"
# One bad class, at (A, R1), whose fix fails: A is consumed by R1.
CATALYTIC_FIX = "A + B -> 2A\nA + B -> C\n"
SUBCOMMANDS = ["analyze", "signfix", "altfix", "deficiency", "equilibria", "spectra", "graph", "decompose"]
# The benchmark's ``large`` workload at its pinned seed: two networks of this size.
LARGE_SIZE, LARGE_COUNT = (30, 80), 2
# The first networks of the benchmark's ``kinetics`` workload at its pinned
# seed, simulated as that workload does; network 2 leaves the orthant.
KINETICS_COUNT = 3
# The 60 x 160 network that ``analyze`` timings are quoted for, drawn
# from ``perfbench/gen.py`` at this seed.
WIDE_SIZE, WIDE_SEED = (60, 160), 1


def _gen():
    """``perfbench/gen.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def large_texts() -> List[str]:
    """The ``.crn`` text of each ``large`` network, drawn as the benchmark
    draws them (seed 0)."""
    gen = _gen()
    rng = random.Random(0)
    species, reactions = LARGE_SIZE
    return [
        gen.network_text(gen.make_network(rng, (species,) * 2, (reactions,) * 2))
        for _ in range(LARGE_COUNT)
    ]


def kinetics_texts() -> List[str]:
    """The ``.crn`` text of the first ``KINETICS_COUNT`` ``kinetics``
    networks, drawn as the benchmark draws them (seed 0)."""
    gen = _gen()
    rng = random.Random(0)
    return [gen.network_text(gen.make_reversible_network(rng)) for _ in range(KINETICS_COUNT)]


def wide_text() -> str:
    """The ``.crn`` text of the 60-species, 160-reaction network."""
    gen = _gen()
    species, reactions = WIDE_SIZE
    rng = random.Random(WIDE_SEED)
    return gen.network_text(gen.make_network(rng, (species,) * 2, (reactions,) * 2))


def conserving_text(species: int = 20, reactions: int = 30, seed: int = 5) -> str:
    """A network whose every reaction moves k = 1 or 2 species to k others
    with the same multiset of coefficients (1/2, 1 or 2), so the all-ones
    vector is a conservation law: S is rank-deficient on both sides, and
    its cleared columns are fractional.  Since S^t 1 = 0, the conservation
    simplex's right-hand side -S^t 1 is 0, and phase 1 starts decided."""
    return _conserving(species, reactions, random.Random(seed), [1] * species)


def weighted_conserving_text(species: int, reactions: int, seed: int) -> str:
    """``conserving_text`` with a weight w from {1, 2, 3, 5} per species,
    drawn first: the right side's coefficient c moved from species a to
    species b becomes c w(a) / w(b).  The law sum_i w_i x_i is conserved,
    but S^t 1 is not 0, so the conservation simplex has to pivot."""
    rng = random.Random(seed)
    weights = [rng.choice([1, 2, 3, 5]) for _ in range(species)]
    return _conserving(species, reactions, rng, weights)


def blocked_text(species: int, reactions: int, seed: int) -> str:
    """``weighted_conserving_text`` plus ``0 -> Y1`` and ``Y1 -> Y2``: every
    law is 0 at Y1 and Y2, so S's left kernel is nonzero but holds no
    positive vector."""
    lines = weighted_conserving_text(species, reactions, seed).splitlines()
    lines[0] += ", Y1, Y2"
    return "\n".join(lines + ["0 -> Y1", "Y1 -> Y2"]) + "\n"


def _conserving(species: int, reactions: int, rng: random.Random, weights: List[int]) -> str:
    """The reactions of ``conserving_text`` drawn from ``rng``, each moved
    coefficient scaled by the weight ratio of its two species.  A species
    no drawn reaction names, u, is then moved to the species after it, v,
    by ``u -> (w(u) / w(v)) v``, which keeps the law and leaves the text
    of a network that names every species as it was."""
    names = [f"X{i + 1}" for i in range(species)]
    weight = dict(zip(names, weights))
    lines = ["species " + ", ".join(names)]
    named = set()
    for _ in range(reactions):
        k = rng.randint(1, 2)
        picked = rng.sample(names, 2 * k)
        coefficients = [rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]) for _ in range(k)]
        moved = [
            c * weight[a] / weight[b]
            for c, a, b in zip(coefficients[::-1], picked[:k][::-1], picked[k:])
        ]
        lhs = " + ".join(_term(c, name) for c, name in zip(coefficients, picked[:k]))
        rhs = " + ".join(_term(c, name) for c, name in zip(moved, picked[k:]))
        lines.append(f"{lhs} -> {rhs}")
        named.update(picked)
    for u, v in zip(names, names[1:] + names[:1]):
        if u not in named:
            lines.append(f"{u} -> {_term(Fraction(weight[u], weight[v]), v)}")
    return "\n".join(lines) + "\n"


def _term(coefficient: Fraction, name: str) -> str:
    return name if coefficient == 1 else f"{coefficient} {name}"


def _class_count(path: Path) -> int:
    from crnsign import find_bad_submatrices, parse_network, stoichiometric_matrix

    net = parse_network(path.read_text(encoding="utf-8"))
    return len(find_bad_submatrices(stoichiometric_matrix(net)))


def invocations() -> Dict[str, List[str]]:
    """Invocation id -> argv, relative to the work directory."""
    runs: Dict[str, List[str]] = {}
    for fixture in sorted(FIXTURES.glob("*.crn")):
        f = f"fixtures/{fixture.name}"
        name = fixture.stem
        for command in SUBCOMMANDS:
            runs[f"{name}/{command}"] = [command, f]
            runs[f"{name}/{command}/plain"] = [command, f, "--plain"]
        n = _class_count(fixture)
        runs.update(
            {
                f"{name}/analyze/check": ["analyze", f, "--check"],
                f"{name}/analyze/k-grid": ["analyze", f, "--k-grid", "1:1e6:7"],
                f"{name}/analyze/k-grid/plain": ["analyze", f, "--k-grid", "1:1e6:7", "--plain"],
                f"{name}/analyze/o": ["analyze", f, "-o", "report.json"],
                f"{name}/analyze/o/plain": ["analyze", f, "-o", "report.txt", "--plain"],
                f"{name}/signfix/o": ["signfix", f, "-o", "fixed.crn"],
                f"{name}/signfix/o/plain": ["signfix", f, "-o", "fixed.crn", "--plain"],
                f"{name}/signfix/order": [
                    "signfix", f, "--order", ",".join(str(i) for i in reversed(range(n))) or "0"
                ],
                f"{name}/signfix/rate": ["signfix", f, "--rate", "2.5"],
                f"{name}/signfix/rates": [
                    "signfix", f, "--rate", ",".join(str(i + 2) for i in range(n)) or "1"
                ],
                f"{name}/deficiency/audit": ["deficiency", f, "--audit"],
                f"{name}/deficiency/audit/plain": ["deficiency", f, "--audit", "--plain"],
                f"{name}/equilibria/lift": ["equilibria", f, "--lift"],
                f"{name}/equilibria/simulate": [
                    "equilibria", f, "--simulate", "--t-end", "5", "--dt", "0.01",
                    "--traj-csv", "traj.csv",
                ],
                f"{name}/equilibria/simulate/o": [
                    "equilibria", f, "--simulate", "--t-end", "5", "--dt", "0.01",
                    "--traj-csv", "traj.csv", "-o", "report.json",
                ],
                f"{name}/spectra/seed": ["spectra", f, "--seed", "7", "--samples", "40"],
                f"{name}/graph/o": ["graph", f, "-o", "graph.dot"],
                f"{name}/decompose/samples": ["decompose", f, "--samples", "25", "--seed", "3"],
            }
        )
    runs["catalyst/analyze"] = ["analyze", "catalyst.crn"]
    runs["catalyst/analyze/allow"] = ["analyze", "catalyst.crn", "--allow-catalysts"]
    runs["catalyst/analyze/allow/plain"] = ["analyze", "catalyst.crn", "--allow-catalysts", "--plain"]
    runs["catalytic_fix/analyze/allow"] = ["analyze", "catalytic_fix.crn", "--allow-catalysts"]
    runs["catalytic_fix/analyze/allow/plain"] = [
        "analyze", "catalytic_fix.crn", "--allow-catalysts", "--plain"
    ]
    runs["catalytic_fix/analyze/allow/k-grid"] = [
        "analyze", "catalytic_fix.crn", "--allow-catalysts", "--k-grid", "1:1e6:7"
    ]
    for command in SUBCOMMANDS:
        runs[f"missing/{command}"] = [command, "missing.crn"]
        runs[f"empty/{command}"] = [command, "empty.crn"]
    runs["two_ambiguous/signfix/order-bad"] = ["signfix", "fixtures/two_ambiguous.crn", "--order", "0"]
    runs["two_ambiguous/signfix/order-zebra"] = ["signfix", "fixtures/two_ambiguous.crn", "--order", "zebra"]
    runs["two_ambiguous/signfix/rates-count"] = ["signfix", "fixtures/two_ambiguous.crn", "--rate", "1,2,3"]
    # flags a run does not use are still checked
    runs["one_ambiguous/analyze/x0-nan"] = ["analyze", "fixtures/one_ambiguous.crn", "--x0", "nan"]
    runs["one_ambiguous/analyze/rates-count"] = ["analyze", "fixtures/one_ambiguous.crn", "--rates", "1,2"]
    runs["conserving_family/equilibria/t-end-nan"] = [
        "equilibria", "fixtures/conserving_family.crn", "--t-end", "nan"
    ]
    runs["conserving_family/equilibria/dt-inf"] = ["equilibria", "fixtures/conserving_family.crn", "--dt", "inf"]
    runs["conserving_family/equilibria/traj-csv"] = [
        "equilibria", "fixtures/conserving_family.crn", "--traj-csv", "traj.csv"
    ]
    for k in range(LARGE_COUNT):
        runs[f"large{k}/analyze"] = ["analyze", f"large{k}.crn"]
        runs[f"large{k}/deficiency/audit"] = ["deficiency", f"large{k}.crn", "--audit"]
    for k in range(KINETICS_COUNT):
        runs[f"kinetics{k}/equilibria/simulate"] = [
            "equilibria", f"kinetics{k}.crn", "--simulate", "--t-end", "5", "--dt", "0.01",
        ]
    runs["wide/analyze"] = ["analyze", "wide.crn"]
    runs["conserving/analyze"] = ["analyze", "conserving.crn"]
    runs["weighted/analyze"] = ["analyze", "weighted.crn"]
    runs["weighted/altfix"] = ["altfix", "weighted.crn"]
    runs["blocked/analyze"] = ["analyze", "blocked.crn"]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(argv: List[str]) -> dict:
    """Run ``crnsign <argv>`` in the current directory and record the outcome."""
    from crnsign import cli

    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    record: dict = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            record["exit"] = cli.main(argv)
        except Exception as exc:  # recorded, so a change in it shows
            record["raised"] = f"{type(exc).__name__}: {exc}"
    record["stdout_sha256"] = _sha(out.getvalue().encode("utf-8"))
    written = sorted(set(os.listdir(".")) - before)
    record["files"] = {name: _sha(Path(name).read_bytes()) for name in written}
    for name in written:
        os.remove(name)
    if record.get("exit") == 2:
        record["stderr"] = err.getvalue()
    return record


def record_all(workdir: Path) -> Dict[str, dict]:
    """Run every invocation inside ``workdir`` (left holding the inputs)."""
    shutil.copytree(FIXTURES, workdir / "fixtures")
    (workdir / "catalyst.crn").write_text(CATALYST, encoding="utf-8")
    (workdir / "catalytic_fix.crn").write_text(CATALYTIC_FIX, encoding="utf-8")
    (workdir / "empty.crn").write_text("", encoding="utf-8")
    for k, text in enumerate(large_texts()):
        (workdir / f"large{k}.crn").write_text(text, encoding="utf-8")
    for k, text in enumerate(kinetics_texts()):
        (workdir / f"kinetics{k}.crn").write_text(text, encoding="utf-8")
    (workdir / "wide.crn").write_text(wide_text(), encoding="utf-8")
    (workdir / "conserving.crn").write_text(conserving_text(), encoding="utf-8")
    for name, text in (("weighted", weighted_conserving_text), ("blocked", blocked_text)):
        (workdir / f"{name}.crn").write_text(text(*WIDE_SIZE, WIDE_SEED), encoding="utf-8")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        return {key: run_one(argv) for key, argv in invocations().items()}
    finally:
        os.chdir(previous)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        records = record_all(Path(tmp))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
