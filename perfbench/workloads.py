"""The four workloads: their inputs, their operations and their checks.

Every workload starts from a pinned set of generated networks.  The seed
lists each network's species and reactions in a random order
(``gen.permuted``); seed ``PINNED_SEED`` keeps the pinned order, and its
outputs are compared with references recorded in ``refs/``.  Permuting
keeps the work of each network the same, so runs with different seeds
differ by machine noise and order effects, not by a new draw of networks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
import gen
from crnsign import cli
from crnsign.model import Network

PINNED_SEED = 0
REFS = Path(__file__).resolve().parent / "refs"

LARGE_SIZE = (30, 80)  # species, reactions
LARGE_COUNT = 2
KINETICS_COUNT = 20
VERIFY_COUNT = 60
KINETICS_COMMANDS = {
    "equilibria": ["equilibria", "--simulate", "--t-end", "5", "--dt", "0.01"],
    "spectra": ["spectra"],
    "decompose": ["decompose"],
}

# Layers each workload must reach; a traced run without a span in one fails.
EXPECTED_LAYERS = {
    "corpus": {"textio", "model", "signcheck", "signfix", "exactla", "deficiency"},
    "large": {"textio", "model", "signcheck", "signfix", "exactla", "deficiency"},
    "kinetics": {"textio", "signfix", "deficiency", "kinetics", "spectra"},
    "verify": {"model", "signfix", "exactla", "graphio"},
}

# Failures that are defects of the program at this commit: operation key ->
# (message of the uncaught exception, why).  They count as failed
# operations.  The same error on any other operation is a wrong output.
KNOWN_DEFECTS = {
    "kinetics/2/equilibria": (
        "trajectory left the nonnegative orthant",
        "equilibria --simulate raises an uncaught ValueError when RK4 steps overshoot",
    ),
}


@dataclass
class Op:
    """One closed-loop operation: ``call`` does the work, ``check`` judges it."""

    key: str
    call: Callable[[Any], Any]
    summarize: Callable[[Any], Any]
    check: Callable[[Any], List[str]]


def run_cli(argv: List[str]):
    """``crnsign <argv>`` in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _json(outcome):
    code, text = outcome
    return code, json.loads(text)


def _cli_op(key: str, argv: List[str], summarize, problems: Callable[[Dict], List[str]]) -> Op:
    def check(outcome) -> List[str]:
        code, report = _json(outcome)
        return ([f"exit code {code}"] if code != 0 else []) + problems(report)

    return Op(key, lambda api: run_cli(argv), summarize, check)


def _analyze_op(key: str, path: Path) -> Op:
    return _cli_op(key, ["analyze", str(path)], lambda outcome: checks.sha256(outcome[1]),
                   checks.analyze_problems)


def _kinetics_op(key: str, command: str, path: Path, net: Network) -> Op:
    rates = [r.rate for r in net.reactions]
    return _cli_op(key, KINETICS_COMMANDS[command] + [str(path)],
                   lambda outcome: checks.json_summary(*_json(outcome)),
                   lambda report: checks.kinetics_problems(command, report, rates))


def verify_network(api, net: Network, rng: random.Random) -> Dict[str, Any]:
    """The paper's verification of one network through the library API."""
    S = api.stoichiometric_matrix(net)
    cycles = api.find_bad_cycles(api.build_graph(S))
    n = len({c.produced_at for c in cycles})
    orders = [list(range(n)), list(range(n))]
    for order in orders:
        rng.shuffle(order)
    report_a, report_b = (api.sign_fix(net, order=order) for order in orders)
    if n >= 2:
        api.verify_permutation_relation(report_a, report_b)
    matrices = [api.stoichiometric_matrix(step_net) for step_net in report_a.networks]
    kcc = [
        api.kernel_correspondence_check(before, after, step)
        for before, after, step in zip(matrices, matrices[1:], report_a.steps)
    ]
    return {
        "matrix": S,
        "cycles": len(cycles),
        "classes": n,
        "steps": [len(report_a.steps), len(report_b.steps)],
        "kcc": kcc,
        "results": [matrices[-1], api.stoichiometric_matrix(report_b.result)],
    }


def _verify_op(key: str, net: Network, rng_seed: int) -> Op:
    def check(out) -> List[str]:
        problems = []
        entries, members = checks.bad_classes(out["matrix"].to_string_rows())
        if (out["classes"], out["cycles"]) != (len(entries), members):
            problems.append("bad cycles differ from an independent count of bad submatrices")
        if out["steps"] != [out["classes"]] * 2:
            problems.append("fix steps != bad classes")
        if not all(out["kcc"]):
            problems.append("a step broke the kernel correspondence")
        if any(checks.bad_classes(m.to_string_rows())[1] for m in out["results"]):
            problems.append("fixed network still has bad submatrices")
        return problems

    def summarize(out) -> Dict[str, Any]:
        return {
            "cycles": out["cycles"],
            "classes": out["classes"],
            "kcc": out["kcc"],
            "results": checks.sha256(json.dumps([m.to_string_rows() for m in out["results"]])),
        }

    return Op(key, lambda api: verify_network(api, net, random.Random(rng_seed)), summarize, check)


def _networks(workload: str) -> List[Network]:
    if workload == "corpus":
        return gen.corpus(0)
    if workload == "verify":
        return gen.corpus(0, VERIFY_COUNT)
    rng = random.Random(0)
    if workload == "large":
        species, reactions = LARGE_SIZE
        return [gen.make_network(rng, (species,) * 2, (reactions,) * 2) for _ in range(LARGE_COUNT)]
    if workload == "kinetics":
        return [gen.make_reversible_network(rng) for _ in range(KINETICS_COUNT)]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, workdir: Path) -> List[Op]:
    """Generate the workload's inputs for ``seed``, write them, return its ops."""
    nets = _networks(workload)
    if seed != PINNED_SEED:
        rng = random.Random(seed)
        nets = [gen.permuted(net, rng) for net in nets]
    workdir.mkdir(parents=True, exist_ok=True)
    ops: List[Op] = []
    for k, net in enumerate(nets):
        key = f"{workload}/{k}"
        if workload == "verify":
            ops.append(_verify_op(key, net, seed * 1_000_003 + k))
            continue
        path = workdir / f"{k}.crn"
        path.write_text(gen.network_text(net), encoding="utf-8")
        if workload == "kinetics":
            ops += [_kinetics_op(f"{key}/{c}", c, path, net) for c in KINETICS_COMMANDS]
        else:
            ops.append(_analyze_op(key, path))
    return ops


def references(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """Recorded summaries for the pinned seed, or None for any other seed."""
    if seed != PINNED_SEED:
        return None
    return json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))


def known_defect(key: str, error: str) -> Optional[str]:
    """Why operation ``key`` raising ``error`` is a known defect, or None."""
    text, why = KNOWN_DEFECTS.get(key, (None, None))
    return why if text is not None and text in error else None


def judge(op: Op, outcome: Any, error: Optional[str], refs) -> Tuple[List[str], Optional[str]]:
    """What is wrong with one operation: (problems, known defect or None).

    ``error`` is the traceback if the call raised.  ``refs`` are the
    recorded summaries for the pinned seed, or None for any other seed.
    """
    if error is not None:
        why = known_defect(op.key, error)
        return ([], why) if why else (["raised " + error.strip().splitlines()[-1]], None)
    try:
        problems = op.check(outcome)
        if refs is not None:
            problems += checks.compare(op.summarize(outcome), refs.get(op.key))
    except Exception:
        problems = ["output could not be checked: " + traceback.format_exc()]
    return problems, None
