import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crnsign.cli import main
from crnsign.graphio import build_graph, export_dot, read_dot
from crnsign.model import stoichiometric_matrix
from crnsign.signfix import sign_fix
from crnsign.textio import parse_network, serialize_network

import record_cli_golden
from conftest import FIXTURES

TWO_AMBIGUOUS = str(FIXTURES / "two_ambiguous.crn")
DEF_JUMP = str(FIXTURES / "deficiency_jump.crn")
CONSERVING = str(FIXTURES / "conserving_family.crn")
CLEAN = str(FIXTURES / "fully_signed.crn")
ONE_AMBIGUOUS = str(FIXTURES / "one_ambiguous.crn")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_json_structure(capsys, two_ambiguous):
    body = _run_json(capsys, "analyze", TWO_AMBIGUOUS)
    assert list(body) == [
        "network",
        "matrix_exact",
        "signcheck",
        "badclasses",
        "fixreport",
        "kernels",
        "deficiency",
        "spectra",
    ]
    assert body["network"]["species"] == ["A", "B", "C", "D", "E", "F", "G"]
    assert body["signcheck"]["ambiguous_entries"] == [[2, 3], [3, 2]]
    assert [c["positive_entry"] for c in body["badclasses"]] == [[2, 5], [3, 4]]
    assert [c["value_exact"] for c in body["badclasses"]] == ["1", "2"]
    assert body["fixreport"]["order"] == [1, 0]
    d = body["deficiency"]
    assert (d["n"], d["ell"], d["s"], d["delta"]) == (8, 4, 4, 0)
    assert body["kernels"]["conserving"] is True
    assert body["spectra"] is None
    # the embedded exact matrix round-trips to the true one
    S = stoichiometric_matrix(two_ambiguous)
    assert body["matrix_exact"] == [
        [str(S[i, j]) for j in range(S.cols)] for i in range(S.rows)
    ]


def test_analyze_is_deterministic(capsys):
    _, first, _ = _run(capsys, "analyze", TWO_AMBIGUOUS)
    _, second, _ = _run(capsys, "analyze", TWO_AMBIGUOUS)
    assert first == second


def test_analyze_plain_summary(capsys):
    code, out, _ = _run(capsys, "analyze", DEF_JUMP, "--plain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "species: 3, reactions: 3"
    assert lines[1] == "bad classes: 3"
    assert "  class at (B, R1) value 3" in lines
    assert "ambiguous Jacobian entries: (A,B), (B,A), (C,B)" in lines
    assert "deficiency: n=4 ell=2 s=2 delta=0" in lines
    assert "conserving: yes" in lines


def test_analyze_check_exit_codes(capsys):
    code, _, _ = _run(capsys, "analyze", TWO_AMBIGUOUS, "--check")
    assert code == 1
    code, _, _ = _run(capsys, "analyze", CLEAN, "--check")
    assert code == 0


def test_analyze_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "analyze", DEF_JUMP, "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["network"]["species"] == ["A", "B", "C"]


def test_missing_and_empty_inputs(capsys, tmp_path):
    code, _, err = _run(capsys, "analyze", str(tmp_path / "nope.crn"))
    assert code == 2
    assert err.startswith("error:")
    empty = tmp_path / "empty.crn"
    empty.write_text("")
    code, _, err = _run(capsys, "analyze", str(empty))
    assert code == 2
    assert "no reactions" in err


def test_signfix_writes_fixed_network(capsys, tmp_path, two_ambiguous):
    out_file = tmp_path / "fixed.crn"
    body = _run_json(capsys, "signfix", TWO_AMBIGUOUS, "-o", str(out_file))
    expected = serialize_network(sign_fix(two_ambiguous).result)
    assert out_file.read_text() == expected
    assert body["result_text"] == expected
    assert body["order"] == [1, 0]
    assert len(body["steps"]) == 2
    # the serialized result parses back to a loadable network
    reparsed = parse_network(out_file.read_text())
    assert serialize_network(reparsed) == expected


def test_signfix_order_and_rate_flags(capsys, two_ambiguous):
    body = _run_json(capsys, "signfix", TWO_AMBIGUOUS, "--order", "0,1", "--rate", "2.5")
    assert body["order"] == [0, 1]
    assert "k=2.5" in body["result_text"]
    code, _, err = _run(capsys, "signfix", TWO_AMBIGUOUS, "--order", "0")
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, "signfix", TWO_AMBIGUOUS, "--rate", "-1")
    assert code == 2
    code, _, err = _run(capsys, "signfix", TWO_AMBIGUOUS, "--order", "zebra")
    assert code == 2


def test_altfix_report(capsys):
    body = _run_json(capsys, "altfix", CONSERVING)
    assert body["classes_removed"] == 6
    assert body["degenerate"] is False
    assert body["kernel_dim_original"] == 2
    assert body["kernel_dim_alt"] == 1
    assert body["left_kernel_dim_original"] == 1
    assert body["left_kernel_dim_alt"] == 0
    assert body["kernel_dim_preserved"] is False
    assert body["conserving_original"] is True
    assert body["conserving_alt"] is False
    assert body["s_tilde_exact"][0] == ["-2", "-1", "0", "0", "-4", "8"]
    assert body["s_tilde_exact"][-1] == ["1", "1", "1", "1", "1", "-5"]


def test_deficiency_audit(capsys):
    body = _run_json(capsys, "deficiency", DEF_JUMP, "--audit")
    assert (body["n"], body["ell"], body["s"], body["delta"]) == (4, 2, 2, 0)
    assert [(a["dn"], a["dl"], a["ddelta"]) for a in body["audit"]] == [
        (3, 1, 1),
        (1, 0, 0),
        (1, 0, 0),
    ]
    assert all(a["ds"] == 1 for a in body["audit"])
    assert body["audit"][0]["phi"] == [2, 1]
    assert body["audit"][0]["psi"] == [0, 1]


def test_deficiency_plain(capsys):
    code, out, _ = _run(capsys, "deficiency", DEF_JUMP, "--audit", "--plain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=4 ell=2 s=2 delta=0"
    assert lines[1] == "step 0: dn=3 dl=1 ddelta=1"


def test_equilibria_with_lift(capsys):
    body = _run_json(
        capsys, "equilibria", CONSERVING, "--x0", "0.6,1.1,3.5,0.4", "--lift"
    )
    assert body["residual_f64"] <= 1e-8
    assert all(v > 0 for v in body["equilibrium_f64"])
    assert len(body["lift"]["x_hat_f64"]) == 4 + 6
    assert body["lift"]["residual_fixed_f64"] <= 1e-7


def test_equilibria_failure_exit(capsys, tmp_path):
    noeq = tmp_path / "inflow.crn"
    noeq.write_text("0 -> A\n")
    code, out, _ = _run(capsys, "equilibria", str(noeq))
    assert code == 1
    body = json.loads(out)
    assert body["equilibrium_f64"] is None
    assert "error" in body


def test_equilibria_trajectory_csv(capsys, tmp_path):
    target = tmp_path / "traj.csv"
    code, _, _ = _run(
        capsys,
        "equilibria",
        CONSERVING,
        "--x0",
        "0.6,1.1,3.5,0.4",
        "--simulate",
        "--t-end",
        "0.5",
        "--dt",
        "0.01",
        "--traj-csv",
        str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "t,X1,X2,X3,X4"
    assert len(lines) == 52  # header + 51 states
    assert lines[1].startswith("0,0.6,1.1,3.5,0.4")


def test_spectra_report(capsys):
    body = _run_json(capsys, "spectra", DEF_JUMP)
    conv = body["convergence"]
    assert conv["passed"] is True
    assert conv["knee_index"] == 1
    assert conv["escaper_real_tail"] is True
    assert conv["stability_original"] == "marginal"
    assert [r["k_f64"] for r in body["det_relation"]] == [1.0, 10.0, 100.0]
    assert all(r["passed"] for r in body["det_relation"])
    sampling = body["det_sign_sampling"]
    assert sampling["samples"] == 200
    assert sampling["passed"] is True


def test_spectra_deterministic_and_seeded(capsys):
    _, first, _ = _run(capsys, "spectra", DEF_JUMP)
    _, second, _ = _run(capsys, "spectra", DEF_JUMP)
    assert first == second
    _, reseeded, _ = _run(capsys, "spectra", DEF_JUMP, "--seed", "7")
    assert json.loads(reseeded)["convergence"]["passed"] is True


def test_spectra_requires_bad_classes(capsys):
    code, _, err = _run(capsys, "spectra", CLEAN)
    assert code == 2
    assert "error:" in err


def test_out_of_range_rate_is_an_input_error(capsys, tmp_path):
    net = tmp_path / "huge_rate.crn"
    net.write_text("A -> B ; k=1e400\n")
    code, _, err = _run(capsys, "analyze", str(net))
    assert code == 2
    assert "line 1, column 12" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["spectra", "decompose"])
def test_zero_samples_is_an_input_error(capsys, command):
    code, _, err = _run(capsys, command, DEF_JUMP, "--samples", "0")
    assert code == 2
    assert "--samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibria", CONSERVING, "--rates", "nan,1,1,1,1"],
        ["equilibria", CONSERVING, "--rates", "inf,1,1,1,1"],
        ["equilibria", CONSERVING, "--x0", "nan,1,1,1"],
        ["equilibria", CONSERVING, "--x0", "inf,1,1,1"],
        ["equilibria", CONSERVING, "--simulate", "--t-end", "-1"],
        ["equilibria", CONSERVING, "--simulate", "--dt", "nan"],
        ["analyze", DEF_JUMP, "--k-grid", "1:inf:5"],
        ["signfix", CONSERVING, "--rate", "inf"],
        ["signfix", CONSERVING, "--rate", "1e400"],
        ["spectra", ONE_AMBIGUOUS, "--rates", "1e200,1,1,1"],
        ["spectra", ONE_AMBIGUOUS, "--rates", "1e200,1,1,1", "--plain"],
        ["equilibria", CONSERVING, "--simulate", "--t-end", "1e300", "--dt", "1e-10"],
        ["equilibria", CONSERVING, "--simulate", "--t-end", "1", "--dt", "1e-300"],
    ],
    ids=[
        "rates-nan", "rates-inf", "x0-nan", "x0-inf", "t-end-negative", "dt-nan", "k-grid-inf",
        "rate-inf", "rate-out-of-range", "report-nan", "report-nan-plain", "step-count-overflow",
        "step-count-over-cap",
    ],
)
def test_non_finite_or_non_positive_flag_is_an_input_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_step_cap_is_checked_before_the_network_is_read(capsys, tmp_path):
    missing = str(tmp_path / "missing.crn")
    code, _, err = _run(capsys, "equilibria", missing, "--simulate", "--t-end", "1", "--dt", "1e-300")
    assert code == 2
    assert "exceeds the limit" in err


def test_numeric_warnings_do_not_precede_the_error_line():
    """Run as a process, where numpy's warnings would reach stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "crnsign.cli", "spectra", ONE_AMBIGUOUS, "--rates", "1e200,1,1,1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: "), proc.stderr
    assert "Warning" not in proc.stderr


def test_non_finite_report_names_the_value(capsys):
    code, _, err = _run(capsys, "spectra", ONE_AMBIGUOUS, "--rates", "1e200,1,1,1")
    assert code == 2
    assert "non-finite number at /convergence/" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibria", CONSERVING, "--simulate", "--t-end", "0.5", "--dt", "0.01", "--traj-csv", "{missing}/x.csv"],
        ["analyze", CONSERVING, "-o", "{missing}/report.json"],
        ["signfix", CONSERVING, "-o", "{missing}/fixed.crn"],
        ["graph", CONSERVING, "-o", "{missing}/graph.dot"],
    ],
    ids=["traj-csv", "analyze-o", "signfix-o", "graph-o"],
)
def test_unwritable_output_file_is_an_input_error(capsys, tmp_path, argv):
    missing = tmp_path / "no_such_dir"
    code, out, err = _run(capsys, *[a.format(missing=missing) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="known defect: equilibria --simulate raises when RK4 steps leave the orthant",
)
def test_simulate_leaving_the_orthant_is_an_input_error(capsys):
    code, _, err = _run(capsys, "equilibria", ONE_AMBIGUOUS, "--simulate", "--t-end", "1e6", "--dt", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_cli_matches_golden(tmp_path):
    """Every recorded invocation prints, writes and exits as it did when recorded."""
    golden = json.loads(record_cli_golden.GOLDEN.read_text(encoding="utf-8"))
    records = record_cli_golden.record_all(tmp_path)
    assert list(records) == list(golden)
    changed = [key for key in golden if records[key] != golden[key]]
    assert changed == [], {key: (golden[key], records[key]) for key in changed[:3]}


def test_graph_dot_output(capsys, deficiency_jump):
    code, out, _ = _run(capsys, "graph", DEF_JUMP)
    assert code == 0
    expected = export_dot(
        build_graph(
            stoichiometric_matrix(deficiency_jump),
            [s.name for s in deficiency_jump.species],
            [f"R{j + 1}" for j in range(deficiency_jump.reaction_count)],
        )
    )
    assert out == expected
    assert read_dot(out).species_names == ("A", "B", "C")


def test_decompose_report(capsys):
    body = _run_json(capsys, "decompose", CONSERVING, "--samples", "25")
    assert body["passed"] is True
    assert body["samples"] == 25
    assert body["max_residual_f64"] <= 1e-10
    assert len(body["complexes"]) == 8
