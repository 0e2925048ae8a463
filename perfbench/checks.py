"""Output checks that do not trust the program under test.

Bad submatrices are counted here from the signs of the exact matrix, by a
method of our own, and compared with what the program reports.  The
invariants are the ones the README states for the fixing algorithm.
Reference summaries recorded for the pinned seed are compared exactly,
except ``*_f64`` fields, which agree within ``F64_TOL`` times one plus
the largest magnitude in that field.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Set, Tuple

F64_TOL = 1e-6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sign(entry: str) -> int:
    return -1 if entry.startswith("-") else (0 if entry == "0" else 1)


def bad_classes(rows: Sequence[Sequence[str]]) -> Tuple[Set[Tuple[int, int]], int]:
    """Positive entries of the bad 2x2 submatrices, and how many there are.

    A bad submatrix pairs a column whose two entries are both negative
    with a column holding one positive and one negative entry.
    """
    pos, neg = [], []
    for row in rows:
        p = n = 0
        for k, entry in enumerate(row):
            s = _sign(str(entry))
            if s > 0:
                p |= 1 << k
            elif s < 0:
                n |= 1 << k
        pos.append(p)
        neg.append(n)
    entries: Set[Tuple[int, int]] = set()
    members = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            both = (neg[i] & neg[j]).bit_count()
            if not both:
                continue
            for row, mixed in ((i, pos[i] & neg[j]), (j, neg[i] & pos[j])):
                members += both * mixed.bit_count()
                entries.update((row, k) for k in range(mixed.bit_length()) if mixed >> k & 1)
    return entries, members


def analyze_problems(report: Dict[str, Any]) -> List[str]:
    """README invariants of one ``crnsign analyze`` report."""
    problems = []
    net = report["network"]
    d, dp = net["d"], net["dprime"]
    entries, members = bad_classes(report["matrix_exact"])
    classes = report["badclasses"]
    n = len(classes)
    if {tuple(c["positive_entry"]) for c in classes} != entries:
        problems.append("bad classes differ from an independent count")
    if sum(len(c["members"]) for c in classes) != members:
        problems.append("bad submatrix count differs from an independent count")
    fix = report["fixreport"]
    if "error" in fix:
        return problems + [f"fix failed: {fix['error']}"]
    if len(fix["steps"]) != n:
        problems.append("fix steps != bad classes")
    result = fix["result_matrix_exact"]
    if len(result) != d + n or any(len(row) != dp + n for row in result):
        problems.append("fixed matrix is not bordered once per class")
    if bad_classes(result)[1]:
        problems.append("fixed network still has bad submatrices")
    deficiency = report["deficiency"]
    audit = deficiency.get("audit") or []
    if len(audit) != n or any(a["ds"] != 1 or not 0 <= a["ddelta"] <= 1 for a in audit):
        problems.append("a step did not raise the rank by one and the deficiency by 0 or 1")
    s = deficiency["s"]
    kernels = report["kernels"]
    if len(kernels["right_exact"]) != dp - s or len(kernels["left_exact"]) != d - s:
        problems.append("kernel dimensions disagree with the rank")
    return problems


def _finite(values) -> bool:
    return all(v == v and abs(v) != float("inf") for v in values)


def kinetics_problems(command: str, report: Dict[str, Any], rates: Sequence[float]) -> List[str]:
    """Invariants of one ``equilibria``, ``spectra`` or ``decompose`` report."""
    problems = []
    if command == "equilibria":
        x = report.get("equilibrium_f64")
        if report["rates_f64"] != list(rates):
            problems.append("rates read from the file differ from the rates written")
        if x is None or not all(v > 0 for v in x) or not report["residual_f64"] <= 1e-6:
            problems.append("no positive equilibrium with a small residual")
        final = report["simulation"]["final_state_f64"]
        if not _finite(final) or min(final) < -1e-9:
            problems.append("simulation left the nonnegative orthant")
    elif command == "spectra":
        passed = [report["convergence"]["passed"], report["det_sign_sampling"]["passed"]]
        passed += [c["passed"] for c in report["det_relation"]]
        if not all(passed):
            problems.append("a spectral check failed")
    elif command == "decompose":
        if not report["passed"] or not report["max_residual_f64"] <= 1e-10:
            problems.append("S v(x) does not factor through the complexes")
        if len(report["Y_exact"][0]) != len(report["complexes"]):
            problems.append("Y does not have one column per complex")
    return problems


def split_f64(value: Any, path: str = "") -> Tuple[Any, Dict[str, List[float]]]:
    """Separate ``*_f64`` fields (flattened to float lists) from the rest."""
    if isinstance(value, dict):
        exact, floats = {}, {}
        for key, item in value.items():
            sub = f"{path}/{key}"
            if key.endswith("_f64"):
                exact[key] = None
                floats[sub] = _flatten(item)
            else:
                exact[key], more = split_f64(item, sub)
                floats.update(more)
        return exact, floats
    if isinstance(value, list):
        exact, floats = [], {}
        for k, item in enumerate(value):
            e, more = split_f64(item, f"{path}/{k}")
            exact.append(e)
            floats.update(more)
        return exact, floats
    return value, {}


def _flatten(value: Any) -> List[float]:
    if value is None:
        return []
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    return [float(value)]


def json_summary(code: int, report: Dict[str, Any]) -> Dict[str, Any]:
    """Exit code, hash of the exact part, and the ``*_f64`` values."""
    exact, floats = split_f64(report)
    # Nine significant digits keep the stored references small and are far
    # inside F64_TOL.
    floats = {path: [float(f"{v:.9g}") for v in values] for path, values in floats.items()}
    return {"exit": code, "exact": sha256(json.dumps(exact)), "f64": floats}


def compare(summary: Any, reference: Any) -> List[str]:
    """Problems where ``summary`` disagrees with a recorded ``reference``."""
    if not isinstance(reference, dict) or "f64" not in reference:
        return [] if summary == reference else ["output differs from the reference"]
    problems = []
    if {k: v for k, v in summary.items() if k != "f64"} != {
        k: v for k, v in reference.items() if k != "f64"
    }:
        problems.append("exit code or exact fields differ from the reference")
    if summary["f64"].keys() != reference["f64"].keys():
        return problems + ["float fields differ from the reference"]
    for path, expected in reference["f64"].items():
        got = summary["f64"][path]
        tol = F64_TOL * (1.0 + max((abs(v) for v in expected), default=0.0))
        if len(got) != len(expected) or any(abs(a - b) > tol for a, b in zip(got, expected)):
            problems.append(f"{path} differs from the reference by more than {tol:.3g}")
    return problems
