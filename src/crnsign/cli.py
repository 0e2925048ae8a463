"""Command-line front end.

Subcommands: analyze, signfix, altfix, deficiency, equilibria, spectra,
graph, decompose.  Reports are JSON by default (``--plain`` for a short
human summary); exact matrices appear as "p/q" strings under ``_exact``
keys and floating-point data under ``_f64`` keys.  Exit codes: 0 on
success, 1 when a requested check fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import random
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import exactla, graphio, kinetics, signcheck, signfix, spectra, textio
from .deficiency import (
    check_single_positive_column,
    complexes_decomposition,
    complexes_of,
    decomposition_residual,
    deficiency,
    delta_audit,
)
from .model import Network, stoichiometric_matrix


class _InputError(Exception):
    """Bad file, bad flags, or precondition failure: exit code 2."""


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


def _write(args, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _InputError(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)


def _floats(raw: str, expected: int, what: str) -> List[float]:
    try:
        values = [float(part) for part in raw.split(",")]
    except ValueError:
        raise _InputError(f"cannot parse {what}: {raw!r}")
    if not all(math.isfinite(v) for v in values):
        raise _InputError(f"{what} values must be finite, got {raw!r}")
    if len(values) != expected:
        raise _InputError(f"{what} needs {expected} comma-separated values, got {len(values)}")
    return values


def _rates_for(net: Network, override: Optional[str]) -> List[float]:
    """Explicit --rates, else rates from the file, else unit rates."""
    if override:
        rates = _floats(override, net.reaction_count, "--rates")
        if any(r <= 0 for r in rates):
            raise _InputError("--rates must be strictly positive")
        return rates
    if all(r.rate is not None for r in net.reactions):
        return [r.rate for r in net.reactions]
    return [1.0] * net.reaction_count


def _x0_for(net: Network, override: Optional[str]) -> List[float]:
    if override:
        x0 = _floats(override, net.species_count, "--x0")
        if any(v <= 0 for v in x0):
            raise _InputError("--x0 must be strictly positive")
        return x0
    return [1.0] * net.species_count


def _k_grid(raw: str) -> List[float]:
    parts = raw.split(":")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError):
        raise _InputError(f"--k-grid must look like lo:hi:n, got {raw!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _InputError(f"--k-grid bounds must be finite, got {raw!r}")
    if not (0 < lo < hi) or count < 2:
        raise _InputError("--k-grid needs 0 < lo < hi and n >= 2")
    return [float(k) for k in np.geomspace(lo, hi, count)]


def _sample_points(rng: random.Random, dim: int, count: int) -> List[List[float]]:
    if count < 1:
        raise _InputError(f"--samples must be at least 1, got {count}")
    return [[10 ** rng.uniform(-1, 1) for _ in range(dim)] for _ in range(count)]


def _complex_pairs(values: Sequence[complex]) -> List[List[float]]:
    return [[z.real, z.imag] for z in values]


# ---------------------------------------------------------------- sections


def _signcheck_section(net: Network) -> dict:
    S = stoichiometric_matrix(net)
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


def _badclasses_section(net: Network) -> list:
    S = stoichiometric_matrix(net)
    return [
        {
            "positive_entry": list(cls.positive_entry),
            "value_exact": str(S[cls.positive_entry]),
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
        "result_network": textio.network_to_json(report.result),
        "result_matrix_exact": stoichiometric_matrix(report.result).to_string_rows(),
        "result_text": textio.serialize_network(report.result),
    }


def _kernels_section(net: Network) -> dict:
    S = stoichiometric_matrix(net)
    right = exactla.kernel_basis(S, "right")
    left = exactla.kernel_basis(S, "left")
    conserving = exactla.is_conserving(S)
    return {
        "right_exact": [textio.vector_to_exact_json(v) for v in right.vectors],
        "left_exact": [textio.vector_to_exact_json(v) for v in left.vectors],
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


def _cmd_analyze(args) -> int:
    net = _load_network(args)
    S = stoichiometric_matrix(net)
    badclasses = _badclasses_section(net)

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
    if args.k_grid:
        if not badclasses:
            raise _InputError("--k-grid requested but the network has no bad classes")
        rates = _rates_for(net, args.rates)
        one_step = signfix.fix_one_report(net)
        x_hat = _x0_for(net, args.x0) + [1.0]
        spectra_section = _convergence_section(
            spectra.eigen_convergence(
                kinetics.MassActionSystem(net, rates), one_step, x_hat, _k_grid(args.k_grid)
            )
        )

    report = {
        "network": textio.network_to_json(net),
        "matrix_exact": S.to_string_rows(),
        "signcheck": _signcheck_section(net),
        "badclasses": badclasses,
        "fixreport": fix_section if fix_section else {"error": fix_error},
        "kernels": _kernels_section(net),
        "deficiency": _deficiency_section(net, deficiency_audits),
        "spectra": spectra_section,
    }
    if args.plain:
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
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, textio.dump_report(report))
    if args.check and badclasses:
        return 1
    return 0


def _parse_order(raw: Optional[str]) -> Optional[List[int]]:
    if raw is None:
        return None
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise _InputError(f"--order must be comma-separated integers, got {raw!r}")


def _parse_rate(raw: str):
    try:
        values = [float(part) for part in raw.split(",")]
    except ValueError:
        raise _InputError(f"--rate must be a number or comma list, got {raw!r}")
    if any(v <= 0 for v in values):
        raise _InputError("--rate values must be strictly positive")
    return values[0] if len(values) == 1 else values


def _cmd_signfix(args) -> int:
    net = _load_network(args)
    try:
        fix = signfix.sign_fix(net, order=_parse_order(args.order), rate=_parse_rate(args.rate))
    except ValueError as exc:
        raise _InputError(str(exc))
    if args.output:
        try:
            Path(args.output).write_text(
                textio.serialize_network(fix.result), encoding="utf-8"
            )
        except OSError as exc:
            raise _InputError(f"cannot write {args.output}: {exc}")
    body = _fixreport_section(fix)
    if args.plain:
        lines = [f"steps: {len(fix.steps)}"]
        for step in fix.steps:
            q, p2 = step.zeroed_entry
            lines.append(
                f"  zeroed ({fix.original.species[q].name}, R{step.modified_column + 1}) "
                f"value {p2}; added species {step.added_species}"
            )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(textio.dump_report(body))
    return 0


def _cmd_altfix(args) -> int:
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
    if args.plain:
        _write(
            args,
            f"classes removed: {report.classes_removed}\n"
            f"kernel dim {report.kernel_dim_original} -> {report.kernel_dim_alt} "
            f"({'preserved' if report.kernel_dim_preserved else 'NOT preserved'})\n"
            f"conserving {report.conserving_original.conserving} -> "
            f"{report.conserving_alt.conserving}\n",
        )
    else:
        _write(args, textio.dump_report(body))
    return 0


def _cmd_deficiency(args) -> int:
    net = _load_network(args)
    audits = None
    if args.audit:
        try:
            audits = delta_audit(signfix.sign_fix(net))
        except ValueError as exc:
            raise _InputError(str(exc))
    body = _deficiency_section(net, audits)
    if args.plain:
        text = (
            f"n={body['n']} ell={body['ell']} s={body['s']} delta={body['delta']}\n"
        )
        if audits is not None:
            for idx, audit in enumerate(body["audit"]):
                text += (
                    f"step {idx}: dn={audit['dn']} dl={audit['dl']} "
                    f"ddelta={audit['ddelta']}\n"
                )
        _write(args, text)
    else:
        _write(args, textio.dump_report(body))
    return 0


def _cmd_equilibria(args) -> int:
    if args.simulate and not all(math.isfinite(v) and v > 0 for v in (args.t_end, args.dt)):
        raise _InputError("--t-end and --dt must be finite and positive")
    net = _load_network(args)
    rates = _rates_for(net, args.rates)
    sys_ = kinetics.MassActionSystem(net, rates)
    x0 = _x0_for(net, args.x0)
    body = {"x0_f64": x0, "rates_f64": rates}
    code = 0
    try:
        x = kinetics.find_equilibrium(sys_, x0)
        residual = float(np.max(np.abs(kinetics.rhs(sys_, x))))
        body["equilibrium_f64"] = list(x)
        body["residual_f64"] = residual
    except kinetics.EquilibriumNotFound as exc:
        body["equilibrium_f64"] = None
        body["error"] = str(exc)
        code = 1
        x = None

    if args.lift and x is not None:
        fix = signfix.sign_fix(net)
        if fix.steps:
            pair = kinetics.lift_equilibrium(fix, rates, x)
            body["lift"] = {
                "x_hat_f64": list(pair.x_hat),
                "residual_original_f64": pair.residual_original,
                "residual_fixed_f64": pair.residual_fixed,
            }
        else:
            body["lift"] = None

    if args.simulate:
        times, states = kinetics.simulate(sys_, x0, args.t_end, args.dt)
        body["simulation"] = {
            "t_end_f64": args.t_end,
            "dt_f64": args.dt,
            "final_state_f64": [float(v) for v in states[-1]],
        }
        if args.traj_csv:
            with open(args.traj_csv, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["t"] + [s.name for s in net.species])
                for t, state in zip(times, states):
                    writer.writerow([f"{t:.10g}"] + [f"{v:.15g}" for v in state])

    if args.plain:
        if x is not None:
            _write(
                args,
                "equilibrium: "
                + ", ".join(f"{s.name}={v:.9g}" for s, v in zip(net.species, x))
                + f"\nresidual: {body['residual_f64']:.3e}\n",
            )
        else:
            _write(args, f"no equilibrium found: {body['error']}\n")
    else:
        _write(args, textio.dump_report(body))
    return code


def _cmd_spectra(args) -> int:
    net = _load_network(args)
    rates = _rates_for(net, args.rates)
    sys_ = kinetics.MassActionSystem(net, rates)
    try:
        one_step = signfix.fix_one_report(net)
    except ValueError as exc:
        raise _InputError(str(exc))
    x_hat = _x0_for(net, args.x0) + [1.0]
    grid = _k_grid(args.k_grid)
    try:
        conv = spectra.eigen_convergence(sys_, one_step, x_hat, grid)
    except ValueError as exc:
        raise _InputError(str(exc))

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
    if args.plain:
        _write(
            args,
            f"slope: {conv.slope:.3f} (ok: {conv.slope_ok})\n"
            f"matched error at k={grid[-1]:g}: {conv.matched_errors[-1]:.3e}\n"
            f"escaper at k={grid[-1]:g}: {conv.escaping_eigenvalues[-1].real:.6g}\n"
            f"passed: {ok}\n",
        )
    else:
        _write(args, textio.dump_report(body))
    return 0 if ok else 1


def _cmd_graph(args) -> int:
    net = _load_network(args)
    graph = graphio.build_graph(
        stoichiometric_matrix(net),
        [s.name for s in net.species],
        [f"R{j + 1}" for j in range(net.reaction_count)],
    )
    _write(args, graphio.export_dot(graph))
    return 0


def _cmd_decompose(args) -> int:
    net = _load_network(args)
    rates = _rates_for(net, args.rates)
    sys_ = kinetics.MassActionSystem(net, rates)
    Y, a_k, _psi = complexes_decomposition(sys_)
    rng = random.Random(args.seed)
    points = _sample_points(rng, net.species_count, args.samples)
    residuals = [decomposition_residual(sys_, p) for p in points]
    worst = max(residuals)
    passed = worst <= 1e-10
    body = {
        "complexes": [
            c.format(net.species) for c in complexes_of(net)
        ],
        "Y_exact": Y.to_string_rows(),
        "A_k_f64": [[float(v) for v in row] for row in a_k],
        "samples": args.samples,
        "max_residual_f64": worst,
        "passed": passed,
    }
    if args.plain:
        _write(args, f"max residual over {args.samples} samples: {worst:.3e}\npassed: {passed}\n")
    else:
        _write(args, textio.dump_report(body))
    return 0 if passed else 1


# -------------------------------------------------------------- arg parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnsign",
        description="Sign-pattern analysis and sign fixing for chemical reaction networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="network file (.crn)")
        p.add_argument("-o", "--output", help="write output here instead of stdout")
        p.add_argument("--plain", action="store_true", help="human-readable summary instead of JSON")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

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
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("graph", help="species-reaction graph as DOT")
    common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("decompose", help="S v(x) = Y A_k psi(x) factorization")
    common(p)
    p.add_argument("--rates")
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=_cmd_decompose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
