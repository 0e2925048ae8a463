"""Command-line front end.

Subcommands: analyze, signfix, altfix, deficiency, equilibria, spectra,
graph, decompose.  Each subcommand computes an ``_Outcome``: its report
body, its ``--plain`` text and its exit code.  ``main`` alone renders the
outcome (JSON by default, the short human summary with ``--plain``),
writes it to stdout or to ``-o``, and maps errors to exit codes.  Two
commands differ: ``signfix -o`` writes the fixed network to the file and
the report to stdout, and ``graph`` always writes DOT.

Exact matrices appear as "p/q" strings under ``_exact`` keys and
floating-point data under ``_f64`` keys.  Exit codes: 0 on success, 1
when a requested check fails, 2 on input errors: an unreadable or
malformed file, a bad or non-finite flag value (checked also where the
run does not use it), ``--traj-csv`` without ``--simulate``, an
unwritable output file, a network the command cannot work on, a
simulation longer than ``kinetics.MAX_STEPS`` steps, a ``--k-grid`` of
more than ``kinetics.MAX_K_GRID_POINTS`` points, more than
``kinetics.MAX_SAMPLES`` ``--samples``, or a report that would hold a
non-finite number.  numpy's floating-point warnings are silenced while a
command runs, so stderr holds only the ``error:`` line.  ``--seed``
belongs to the two commands that sample states, ``spectra`` and
``decompose``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import exactla, graphio, kinetics, signcheck, signfix, spectra, textio
from .deficiency import (
    check_single_positive_column,
    complexes_decomposition,
    complexes_of,
    deficiency,
    delta_audit,
)
from .model import Network, RationalMatrix, stoichiometric_matrix


class _InputError(Exception):
    """Bad file, bad flags, or precondition failure: exit code 2."""


@dataclass(frozen=True)
class _Outcome:
    """What a subcommand hands to ``main``, which renders and writes it."""

    body: Optional[dict]  # the JSON report; None when ``plain`` is the only output
    plain: str  # the --plain text
    code: int = 0
    files: Tuple[Tuple[str, str], ...] = ()  # (path, text) written before the report
    report_to_stdout: bool = False  # -o names one of ``files``, not the report


def _checked(layer_call, *args, **kwargs):
    """Call a layer function whose ValueError means the input is unusable."""
    try:
        return layer_call(*args, **kwargs)
    except ValueError as exc:
        raise _InputError(str(exc))


def _load_network(args) -> Network:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {args.input}: {exc}")
    try:
        return textio.parse_network(
            text, allow_catalysts=getattr(args, "allow_catalysts", False)
        )
    except textio.ParseError as exc:
        raise _InputError(f"{args.input}: {exc}")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}")


def _floats(raw: str, what: str, expected: Optional[int] = None) -> List[float]:
    """Comma-separated finite, strictly positive numbers (``expected`` of them)."""
    try:
        values = [float(part) for part in raw.split(",")]
    except ValueError:
        raise _InputError(f"cannot parse {what}: {raw!r}")
    if not all(math.isfinite(v) for v in values):
        raise _InputError(f"{what} values must be finite, got {raw!r}")
    if expected is not None and len(values) != expected:
        raise _InputError(f"{what} needs {expected} comma-separated values, got {len(values)}")
    if any(v <= 0 for v in values):
        raise _InputError(f"{what} must be strictly positive")
    return values


def _rates_for(net: Network, override: Optional[str]) -> List[float]:
    """Explicit --rates, else rates from the file, else unit rates when
    the file gives none.  A file that rates only some of its reactions
    (as ``signfix -o`` writes one) is an input error: no rate is
    guessed for the rest."""
    if override is not None:
        return _floats(override, "--rates", net.reaction_count)
    missing = [j for j, r in enumerate(net.reactions) if r.rate is None]
    if not missing:
        return [r.rate for r in net.reactions]
    if len(missing) < net.reaction_count:
        raise _InputError(
            f"reaction R{missing[0] + 1} has no rate while others have one; "
            "pass --rates to give every reaction a rate"
        )
    return [1.0] * net.reaction_count


def _x0_for(net: Network, override: Optional[str]) -> List[float]:
    if override is not None:
        return _floats(override, "--x0", net.species_count)
    return [1.0] * net.species_count


def _k_grid(raw: str) -> List[float]:
    try:
        lo, hi, count = raw.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise _InputError(f"--k-grid must look like lo:hi:n, got {raw!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _InputError(f"--k-grid bounds must be finite, got {raw!r}")
    if not (0 < lo < hi) or count < 2:
        raise _InputError("--k-grid needs 0 < lo < hi and n >= 2")
    if count > kinetics.MAX_K_GRID_POINTS:
        raise _InputError(f"--k-grid n must be at most {kinetics.MAX_K_GRID_POINTS}, got {count}")
    return [float(k) for k in np.geomspace(lo, hi, count)]


def _parse_order(raw: Optional[str]) -> Optional[List[int]]:
    if raw is None:
        return None
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise _InputError(f"--order must be comma-separated integers, got {raw!r}")


def _sample_points(rng: random.Random, dim: int, count: int) -> List[List[float]]:
    if count < 1:
        raise _InputError(f"--samples must be at least 1, got {count}")
    if count > kinetics.MAX_SAMPLES:
        raise _InputError(f"--samples must be at most {kinetics.MAX_SAMPLES}, got {count}")
    return [[10 ** rng.uniform(-1, 1) for _ in range(dim)] for _ in range(count)]


def _one_step_convergence(args, net: Network):
    """The system, one-step report, x_hat, k grid and eigenvalue
    convergence that ``analyze --k-grid`` and ``spectra`` share, each
    input checked in that order."""
    sys_ = _checked(kinetics.MassActionSystem, net, _rates_for(net, args.rates))
    one_step = _checked(signfix.fix_one_report, net)
    x_hat = _x0_for(net, args.x0) + [1.0]
    grid = _k_grid(args.k_grid)
    conv = _checked(spectra.eigen_convergence, sys_, one_step, x_hat, grid)
    return sys_, one_step, x_hat, grid, conv


def _complex_pairs(values: Sequence[complex]) -> List[List[float]]:
    return [[z.real, z.imag] for z in values]


# ---------------------------------------------------------------- sections


def _signcheck_section(net: Network, S: RationalMatrix) -> dict:
    pattern = signcheck.sign_pattern(S)
    square = signcheck.hermitian_square_status(pattern)
    section = {
        "pattern": [[s.symbol for s in row] for row in pattern],
        "hermitian_square": square.symbols(),
        "hermitian_square_ambiguous": [list(e) for e in square.ambiguous_entries()],
    }
    try:
        jac = signcheck.jacobian_sign_status(net)
    except ValueError as exc:
        section.update({"jacobian_applicable": False, "jacobian_note": str(exc)})
        return section
    section.update(
        {
            "jacobian_applicable": True,
            "jacobian": jac.symbols(),
            "ambiguous_entries": [list(e) for e in jac.ambiguous_entries()],
            "ambiguous_entries_named": [
                [net.species[i].name, net.species[j].name]
                for i, j in jac.ambiguous_entries()
            ],
        }
    )
    return section


def _badclasses_section(S: RationalMatrix) -> list:
    rows = S.nonzeros()
    return [
        {
            "positive_entry": list(cls.positive_entry),
            "value_exact": str(dict(rows[cls.positive_entry[0]])[cls.positive_entry[1]]),
            "members": [
                {
                    "rows": list(m.rows),
                    "cols": list(m.cols),
                    "positive_at": list(m.positive_at),
                }
                for m in cls.members
            ],
        }
        for cls in signcheck.find_bad_submatrices(S)
    ]


def _fixreport_section(report: signfix.FixReport) -> dict:
    result_network, result_text = textio.network_json_and_text(report.result)
    return {
        "order": list(report.order),
        "steps": [
            {
                "target_entry": list(step.target_class.positive_entry),
                "modified_column": step.modified_column,
                "zeroed_value_exact": str(step.zeroed_entry[1]),
                "added_species": step.added_species,
                "added_reaction_index": step.added_reaction_index,
                "added_rate_f64": step.added_rate,
            }
            for step in report.steps
        ],
        "result_network": result_network,
        "result_matrix_exact": stoichiometric_matrix(report.result).to_string_rows(),
        "result_text": result_text,
    }


def _kernels_section(S: RationalMatrix) -> dict:
    right = exactla.kernel_basis(S, "right")
    left = exactla.kernel_basis(S, "left")
    conserving = exactla.is_conserving(S)
    return {
        "right_exact": [textio.vector_to_exact_json(v) for v in right.integers],
        "left_exact": [textio.vector_to_exact_json(v) for v in left.integers],
        "conserving": conserving.conserving,
        "witness_exact": (
            textio.vector_to_exact_json(conserving.witness)
            if conserving.witness is not None
            else None
        ),
    }


def _deficiency_section(net: Network, audits=None) -> dict:
    report = deficiency(net)
    section = {
        "n": report.n,
        "ell": report.ell,
        "s": report.s,
        "delta": report.delta,
        "complexes": [c.format(net.species) for c in report.complexes],
        "linkage_classes": [sorted(members) for members in report.classes],
        "single_positive_column": check_single_positive_column(net),
    }
    if audits is not None:
        section["audit"] = [
            {
                "dn": a.dn,
                "dl": a.dl,
                "ds": a.ds,
                "ddelta": a.ddelta,
                "phi": list(a.phi_values),
                "psi": list(a.psi_values),
            }
            for a in audits
        ]
    return section


def _convergence_section(report: spectra.ConvergenceReport) -> dict:
    return {
        "k_grid_f64": list(report.k_grid),
        "matched_errors_f64": list(report.matched_errors),
        "escaping_eigenvalues_f64": _complex_pairs(report.escaping_eigenvalues),
        "eigenvalues_original_f64": _complex_pairs(report.eigenvalues_original),
        "eigenvalues_fixed_f64": [
            _complex_pairs(eigs) for eigs in report.eigenvalues_fixed
        ],
        "slope_f64": report.slope,
        "knee_index": report.knee_index,
        "matched_ok": report.matched_ok,
        "escaper_ok": report.escaper_ok,
        "escaper_real_tail": report.escaper_real_tail,
        "slope_ok": report.slope_ok,
        "clustered": report.clustered,
        "stability_original": report.stability_original,
        "stability_fixed": report.stability_fixed,
        "stability_agrees": report.stability_agrees,
        "passed": report.passed,
        "chosen_k_f64": report.chosen_k,
    }


# ------------------------------------------------------------- subcommands


def _cmd_analyze(args) -> _Outcome:
    net = _load_network(args)
    if args.k_grid is None:  # the spectral section checks them in its own order
        if args.rates is not None:
            _floats(args.rates, "--rates", net.reaction_count)
        _x0_for(net, args.x0)
    S = stoichiometric_matrix(net)
    badclasses = _badclasses_section(S)
    kernels = _kernels_section(S)

    fix_section = None
    deficiency_audits = None
    fix_error = None
    try:
        fix = signfix.sign_fix(net)
        fix_section = _fixreport_section(fix)
        deficiency_audits = delta_audit(fix)
    except ValueError as exc:
        fix_error = str(exc)

    spectra_section = None
    if args.k_grid is not None:
        if not badclasses:
            raise _InputError("--k-grid requested but the network has no bad classes")
        spectra_section = _convergence_section(_one_step_convergence(args, net)[-1])

    report = {
        "network": textio.network_to_json(net),
        "matrix_exact": S.to_string_rows(),
        "signcheck": _signcheck_section(net, S),
        "badclasses": badclasses,
        "fixreport": fix_section if fix_section else {"error": fix_error},
        "kernels": kernels,
        "deficiency": _deficiency_section(net, deficiency_audits),
        "spectra": spectra_section,
    }
    lines = [
        f"species: {net.species_count}, reactions: {net.reaction_count}",
        f"bad classes: {len(badclasses)}",
    ]
    for entry in badclasses:
        i, j = entry["positive_entry"]
        lines.append(
            f"  class at ({net.species[i].name}, R{j + 1}) value {entry['value_exact']}"
        )
    sc = report["signcheck"]
    if sc.get("jacobian_applicable"):
        named = ", ".join(f"({a},{b})" for a, b in sc["ambiguous_entries_named"])
        lines.append(f"ambiguous Jacobian entries: {named or 'none'}")
    else:
        lines.append("Jacobian sign check not applicable (catalysts present)")
    dd = report["deficiency"]
    lines.append(
        f"deficiency: n={dd['n']} ell={dd['ell']} s={dd['s']} delta={dd['delta']}"
    )
    lines.append(f"conserving: {'yes' if report['kernels']['conserving'] else 'no'}")
    if fix_section:
        lines.append(
            f"fix: {len(fix_section['steps'])} steps, result "
            f"{len(fix_section['result_network']['species'])} species"
        )
    return _Outcome(report, "\n".join(lines) + "\n", 1 if args.check and badclasses else 0)


def _cmd_signfix(args) -> _Outcome:
    net = _load_network(args)
    order = _parse_order(args.order)
    rates = _floats(args.rate, "--rate")
    fix = _checked(signfix.sign_fix, net, order=order, rate=rates[0] if len(rates) == 1 else rates)
    body = _fixreport_section(fix)
    lines = [f"steps: {len(fix.steps)}"]
    for step in fix.steps:
        q, p2 = step.zeroed_entry
        lines.append(
            f"  zeroed ({fix.original.species[q].name}, R{step.modified_column + 1}) "
            f"value {p2}; added species {step.added_species}"
        )
    files = ((args.output, body["result_text"]),) if args.output is not None else ()
    return _Outcome(body, "\n".join(lines) + "\n", files=files, report_to_stdout=True)


def _cmd_altfix(args) -> _Outcome:
    net = _load_network(args)
    s_tilde, report = signfix.altfix(net)
    body = {
        "s_tilde_exact": s_tilde.to_string_rows(),
        "classes_removed": report.classes_removed,
        "degenerate": report.degenerate,
        "kernel_dim_original": report.kernel_dim_original,
        "kernel_dim_alt": report.kernel_dim_alt,
        "left_kernel_dim_original": report.left_kernel_dim_original,
        "left_kernel_dim_alt": report.left_kernel_dim_alt,
        "kernel_dim_preserved": report.kernel_dim_preserved,
        "conserving_original": report.conserving_original.conserving,
        "conserving_alt": report.conserving_alt.conserving,
    }
    plain = (
        f"classes removed: {report.classes_removed}\n"
        f"kernel dim {report.kernel_dim_original} -> {report.kernel_dim_alt} "
        f"({'preserved' if report.kernel_dim_preserved else 'NOT preserved'})\n"
        f"conserving {report.conserving_original.conserving} -> "
        f"{report.conserving_alt.conserving}\n"
    )
    return _Outcome(body, plain)


def _cmd_deficiency(args) -> _Outcome:
    net = _load_network(args)
    fix = _checked(signfix.sign_fix, net) if args.audit else None
    audits = delta_audit(fix) if fix is not None else None
    body = _deficiency_section(net, audits)
    plain = f"n={body['n']} ell={body['ell']} s={body['s']} delta={body['delta']}\n"
    for idx, audit in enumerate(body.get("audit", ())):
        plain += f"step {idx}: dn={audit['dn']} dl={audit['dl']} ddelta={audit['ddelta']}\n"
    return _Outcome(body, plain)


def _cmd_equilibria(args) -> _Outcome:
    _checked(kinetics.step_count, args.t_end, args.dt)
    if args.traj_csv is not None and not args.simulate:
        raise _InputError("--traj-csv needs --simulate")
    net = _load_network(args)
    rates = _rates_for(net, args.rates)
    sys_ = _checked(kinetics.MassActionSystem, net, rates)
    x0 = _x0_for(net, args.x0)
    body = {"x0_f64": x0, "rates_f64": rates}
    code = 0
    try:
        x = kinetics.find_equilibrium(sys_, x0)
        residual = float(np.max(np.abs(kinetics.rhs(sys_, x))))
        body["equilibrium_f64"] = list(x)
        body["residual_f64"] = residual
        plain = (
            "equilibrium: "
            + ", ".join(f"{s.name}={v:.9g}" for s, v in zip(net.species, x))
            + f"\nresidual: {residual:.3e}\n"
        )
    except kinetics.EquilibriumNotFound as exc:
        body["equilibrium_f64"] = None
        body["error"] = str(exc)
        plain = f"no equilibrium found: {exc}\n"
        code = 1
        x = None

    if args.lift and x is not None:
        fix = signfix.sign_fix(net)
        if fix.steps:
            # find_equilibrium's tolerance grows with the starting residual;
            # lift's default covers starts in (0, 1]^d only, and --x0 may be larger
            pair = kinetics.lift_equilibrium(fix, rates, x, tol=max(1e-8, residual))
            body["lift"] = {
                "x_hat_f64": list(pair.x_hat),
                "residual_original_f64": pair.residual_original,
                "residual_fixed_f64": pair.residual_fixed,
            }
        else:
            body["lift"] = None

    files = ()
    if args.simulate:
        times, states = kinetics.simulate(sys_, x0, args.t_end, args.dt)
        body["simulation"] = {
            "t_end_f64": args.t_end,
            "dt_f64": args.dt,
            "final_state_f64": [float(v) for v in states[-1]],
        }
        if args.traj_csv is not None:
            csv_text = io.StringIO()
            writer = csv.writer(csv_text)
            writer.writerow(["t"] + [s.name for s in net.species])
            for t, state in zip(times, states):
                writer.writerow([f"{t:.10g}"] + [f"{v:.15g}" for v in state])
            files = ((args.traj_csv, csv_text.getvalue()),)
    return _Outcome(body, plain, code, files)


def _cmd_spectra(args) -> _Outcome:
    net = _load_network(args)
    sys_, one_step, x_hat, grid, conv = _one_step_convergence(args, net)

    det_checks = []
    for k in (1.0, 10.0, 100.0):
        result = spectra.det_relation_check(sys_, one_step, x_hat, k)
        det_checks.append(
            {
                "k_f64": k,
                "det_original_f64": result.det_original,
                "det_fixed_f64": result.det_fixed,
                "residual_f64": result.residual,
                "passed": result.passed,
            }
        )

    rng = random.Random(args.seed)
    points = _sample_points(rng, net.species_count, args.samples)
    sampling = spectra.det_sign_sampling(sys_, one_step, points)

    body = {
        "convergence": _convergence_section(conv),
        "det_relation": det_checks,
        "det_sign_sampling": {
            "samples": args.samples,
            "constant_original": sampling.constant_original,
            "constant_fixed": sampling.constant_fixed,
            "opposite": sampling.opposite,
            "passed": sampling.passed,
        },
    }
    ok = conv.passed and all(c["passed"] for c in det_checks) and sampling.passed
    plain = (
        f"slope: {conv.slope:.3f} (ok: {conv.slope_ok})\n"
        f"matched error at k={grid[-1]:g}: {conv.matched_errors[-1]:.3e}\n"
        f"escaper at k={grid[-1]:g}: {conv.escaping_eigenvalues[-1].real:.6g}\n"
        f"passed: {ok}\n"
    )
    return _Outcome(body, plain, 0 if ok else 1)


def _cmd_graph(args) -> _Outcome:
    net = _load_network(args)
    graph = graphio.build_graph(
        stoichiometric_matrix(net),
        [s.name for s in net.species],
        [f"R{j + 1}" for j in range(net.reaction_count)],
    )
    return _Outcome(None, graphio.export_dot(graph))


def _cmd_decompose(args) -> _Outcome:
    net = _load_network(args)
    rates = _rates_for(net, args.rates)
    decomposition = complexes_decomposition(_checked(kinetics.MassActionSystem, net, rates))
    rng = random.Random(args.seed)
    points = _sample_points(rng, net.species_count, args.samples)
    worst = max(decomposition.residual(p) for p in points)
    passed = worst <= 1e-10
    body = {
        "complexes": [
            c.format(net.species) for c in complexes_of(net)
        ],
        "Y_exact": decomposition.Y.to_string_rows(),
        "A_k_f64": [[float(v) for v in row] for row in decomposition.a_k],
        "samples": args.samples,
        "max_residual_f64": worst,
        "passed": passed,
    }
    plain = f"max residual over {args.samples} samples: {worst:.3e}\npassed: {passed}\n"
    return _Outcome(body, plain, 0 if passed else 1)


# -------------------------------------------------------------- arg parsing


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and then
    reused: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="crnsign",
        description="Sign-pattern analysis and sign fixing for chemical reaction networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="network file (.crn)")
        p.add_argument("-o", "--output", help="write output here instead of stdout")
        p.add_argument("--plain", action="store_true", help="human-readable summary instead of JSON")

    p = sub.add_parser("analyze", help="full sign/kernel/deficiency report")
    common(p)
    p.add_argument("--check", action="store_true", help="exit 1 if bad classes exist")
    p.add_argument("--allow-catalysts", action="store_true")
    p.add_argument("--rates", help="comma-separated rate constants")
    p.add_argument("--x0", help="comma-separated positive state for spectral section")
    p.add_argument("--k-grid", dest="k_grid", help="lo:hi:n log-spaced added-rate grid")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("signfix", help="run the fixing algorithm")
    common(p)
    p.add_argument("--order", help="comma-separated class indices")
    p.add_argument("--rate", default="1", help="added rate constant(s)")
    p.set_defaults(func=_cmd_signfix)

    p = sub.add_parser("altfix", help="single bordering row/column variant")
    common(p)
    p.set_defaults(func=_cmd_altfix)

    p = sub.add_parser("deficiency", help="complexes, linkage classes, deficiency")
    common(p)
    p.add_argument("--audit", action="store_true", help="also audit a full fixing run")
    p.set_defaults(func=_cmd_deficiency)

    p = sub.add_parser("equilibria", help="find (and optionally lift) equilibria")
    common(p)
    p.add_argument("--rates")
    p.add_argument("--x0")
    p.add_argument("--lift", action="store_true")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--traj-csv", dest="traj_csv")
    p.set_defaults(func=_cmd_equilibria)

    p = sub.add_parser("spectra", help="eigenvalue convergence of a one-step fix")
    common(p)
    p.add_argument("--rates")
    p.add_argument("--x0")
    p.add_argument("--k-grid", dest="k_grid", default="1:1e6:7")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled states")
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("graph", help="species-reaction graph as DOT")
    common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("decompose", help="S v(x) = Y A_k psi(x) factorization")
    common(p)
    p.add_argument("--rates")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled states")
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # An overflow inside numpy must not print a warning ahead of the
        # error line; a non-finite value that reaches the report is exit 2.
        with np.errstate(all="ignore"):
            outcome = args.func(args)
        text = outcome.plain
        if outcome.body is not None:
            # Rendering refuses a non-finite number, with or without --plain.
            report = _checked(textio.dump_report, outcome.body)
            if not args.plain:
                text = report
        for path, content in outcome.files:
            _write_file(path, content)
        if args.output is not None and not outcome.report_to_stdout:
            _write_file(args.output, text)
        else:
            sys.stdout.write(text)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
