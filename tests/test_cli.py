import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from crnsign import cli, exactla, kinetics
from crnsign.cli import main
from crnsign.graphio import build_graph, export_dot, read_dot
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signfix import sign_fix
from crnsign.textio import parse_network, serialize_network

import record_cli_golden
from conftest import FIXTURES, make_network, network_text

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


def test_parser_is_built_once_per_process(capsys):
    _run_json(capsys, "analyze", TWO_AMBIGUOUS)
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--no-such-flag", TWO_AMBIGUOUS])
    assert exc.value.code == 2
    assert "crnsign: error: unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    _run_json(capsys, "deficiency", TWO_AMBIGUOUS)
    assert cli._build_parser() is parser


@pytest.mark.parametrize(
    "argv, shapes",
    [
        # right and left kernels of S (7x6), then the audit's rank of S again
        (("analyze", TWO_AMBIGUOUS), [(7, 6), (6, 7), (7, 6)]),
        (("deficiency", TWO_AMBIGUOUS, "--audit"), [(7, 6), (7, 6)]),
        (("deficiency", TWO_AMBIGUOUS), [(7, 6)]),
    ],
)
def test_one_elimination_of_s_per_command(capsys, monkeypatch, argv, shapes):
    """S is eliminated once per command for what the command reports: its
    rank is carried from the right kernel (analyze) or from one ``rank``
    (deficiency) to the deficiency section and the audit.  The audit's
    final rank is the fix's 2 steps plus the rank of S eliminated once
    more from its own entries, since the fixed 9 x 8 matrix is certified
    to be S in the bordered form; the fixed matrix is not eliminated."""
    seen = []
    eliminate = exactla._eliminate

    def counted(a, reduce=True):
        seen.append((len(a), len(a[0])))
        return eliminate(a, reduce)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    _run_json(capsys, *argv)
    assert seen == shapes


def test_analyze_of_a_full_row_rank_network_eliminates_only_the_right_kernel(
    capsys, monkeypatch, tmp_path
):
    """On a 30 x 80 network of full row rank, analyze eliminates nothing
    over Q: the right kernel of S is lifted p-adically and certified, once,
    the left kernel is {0} by the rank cached with it, so conservation
    needs no simplex, and the fixed network's rank is the number of steps
    plus the rank of a cache-free copy of S, from a second lift, of the
    copy's left kernel, whose elimination mod p leaves no row free (S was
    eliminated once, for its right kernel, before the lifting)."""
    path = tmp_path / "large.crn"
    path.write_text(serialize_network(make_network(random.Random(0), (30, 30), (80, 80))))
    seen, simplex, lifts = [], [], []
    eliminate, lift = exactla._eliminate, exactla._lifted_kernel

    def counted(a, reduce=True):
        seen.append((len(a), len(a[0])))
        return eliminate(a, reduce)

    def lifted(matrix, side):
        vectors = lift(matrix, side)
        lifts.append((matrix.rows, matrix.cols, side, vectors is not None))
        return vectors

    monkeypatch.setattr(exactla, "_eliminate", counted)
    monkeypatch.setattr(exactla, "_lifted_kernel", lifted)
    monkeypatch.setattr(exactla, "_phase1_simplex", lambda *a: simplex.append(a))
    body = _run_json(capsys, "analyze", str(path))
    assert seen == []
    assert lifts == [(30, 80, "right", True), (30, 80, "left", True)]
    assert simplex == []
    assert body["kernels"]["conserving"] is False
    assert body["kernels"]["left_exact"] == []


class _LoggedCache(dict):
    """A matrix ``_cache`` that logs each read and write of ``key``."""

    def __init__(self, key):
        super().__init__()
        self.key, self.log = key, []

    def get(self, key, default=None):
        if key == self.key:
            self.log.append("get")
        return super().get(key, default)

    def __setitem__(self, key, value):
        if key == self.key:
            self.log.append("set")
        super().__setitem__(key, value)


def test_analyze_enumerates_the_bad_classes_of_s_once(capsys, monkeypatch):
    """The bad-classes section enumerates S's classes and keeps them on S;
    ``sign_fix``, which checks the fixed S's steps against them, and the
    single-positive-column check read them from there (one enumeration of
    S per command, four before); the bordered-form certificate reads
    none."""
    net = parse_network(Path(DEF_JUMP).read_text(encoding="utf-8"))
    S = stoichiometric_matrix(net)
    S._cache = _LoggedCache("bad_classes")
    monkeypatch.setattr(cli, "_load_network", lambda args: net)
    body = _run_json(capsys, "analyze", DEF_JUMP)
    assert S._cache.log == ["get", "set", "get", "get"]
    classes = S._cache["bad_classes"]
    assert [c["positive_entry"] for c in body["badclasses"]] == [list(c.positive_entry) for c in classes]
    assert len(body["fixreport"]["steps"]) == len(classes) == 3


@pytest.mark.parametrize(
    "argv", [("analyze", TWO_AMBIGUOUS), ("deficiency", TWO_AMBIGUOUS, "--audit")]
)
def test_two_builds_of_s_per_command(capsys, monkeypatch, argv):
    """S is built for the input network and for the fixed one, and kept
    on each; every other reader gets the same matrix (7 and 5 builds
    before S was kept on the network).  The third call is the audit's
    cache-free copy of S, which shares S's nonzero tuples and builds
    none."""
    seen, given = [], []
    build = RationalMatrix._of_nonzeros.__func__

    def counted(cls, rows, cols, nonzeros):
        seen.append((rows, cols))
        given.append(nonzeros)
        return build(cls, rows, cols, nonzeros)

    monkeypatch.setattr(RationalMatrix, "_of_nonzeros", classmethod(counted))
    _run_json(capsys, *argv)
    assert seen == [(7, 6), (9, 8), (7, 6)]
    assert given[2] is given[0]


def test_analyze_of_a_large_network_reads_s_through_its_nonzeros(
    capsys, dense_reads, tmp_path, large_networks
):
    """On each ``large`` network no reader of S walks all its entries or
    reads one through the dense view: the bad classes, the fix, the
    kernels, the rank, the sign checks and the single-positive-column
    check read the nonzeros (8 calls per network to ``entries()`` before
    they did, and one indexing per bad class before the bad-classes
    section read its values from S's rows)."""
    for k, net in enumerate(large_networks):
        path = tmp_path / f"large{k}.crn"
        path.write_text(network_text(net), encoding="utf-8")
        _run_json(capsys, "analyze", str(path))
    assert dense_reads == []


def test_analyze_of_corpus_networks_reads_s_through_its_nonzeros(
    capsys, dense_reads, tmp_path, corpus
):
    """On the first 100 corpus networks no reader of S walks all its
    entries or indexes one: ``is_conserving`` builds its simplex
    equations from S's nonzeros (40 calls to ``entries()`` when it read
    them), and the bad-classes section reads each class's value from its
    row's nonzeros (one indexing per class before)."""
    conserving = 0
    for k, net in enumerate(corpus[:100]):
        path = tmp_path / f"corpus{k}.crn"
        path.write_text(network_text(net), encoding="utf-8")
        conserving += _run_json(capsys, "analyze", str(path))["kernels"]["conserving"]
    assert dense_reads == []
    assert conserving > 0


@pytest.mark.parametrize(
    "argv", [("spectra", DEF_JUMP), ("analyze", DEF_JUMP, "--k-grid", "1:1e6:7")]
)
def test_two_monomial_tables_per_spectra_command(capsys, monkeypatch, argv):
    """The rate-free tables are built once for the input network and once
    for the one-step fix, and kept on each; the systems at every added
    rate share them (``spectra`` built 6 before they were kept)."""
    seen = []
    build = kinetics.MonomialTable.__init__

    def counted(self, terms, species_count):
        seen.append((len(terms), species_count))
        build(self, terms, species_count)

    monkeypatch.setattr(kinetics.MonomialTable, "__init__", counted)
    _run_json(capsys, *argv)
    assert seen == [(3, 3), (4, 4)]


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


def test_equilibria_lifts_the_equilibrium_it_found(capsys, tmp_path):
    """From x0 = 1 the starting residual is 12, so the solver accepts a
    residual of 1.1e-8, above the lift's default tolerance of 1e-8: the
    lift must take the solver's point, not fail with a traceback."""
    net = tmp_path / "net.crn"
    net.write_text("species A, X1, B\nA -> 0\nA + X1 + 12B -> 0\n2B -> X1\n")
    body = _run_json(capsys, "equilibria", str(net), "--lift")
    assert 1e-8 < body["residual_f64"] <= 1e-9 * (1 + 12)
    assert body["lift"]["residual_original_f64"] == body["residual_f64"]
    assert body["lift"]["residual_fixed_f64"] <= 10 * body["residual_f64"]


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
        ["spectra", DEF_JUMP, "--k-grid", "1:1e6:7:junk"],
        ["analyze", DEF_JUMP, "--k-grid", "1:1e6:7:junk"],
        # flags the run does not use: no --k-grid, no --simulate
        ["analyze", ONE_AMBIGUOUS, "--x0", "nan"],
        ["analyze", ONE_AMBIGUOUS, "--x0", "-1"],
        ["analyze", ONE_AMBIGUOUS, "--x0", "1,1,-1"],
        ["analyze", ONE_AMBIGUOUS, "--rates", "abc"],
        ["analyze", ONE_AMBIGUOUS, "--rates", "1,2"],
        ["equilibria", CONSERVING, "--t-end", "nan"],
        ["equilibria", CONSERVING, "--t-end", "-5"],
        ["equilibria", CONSERVING, "--dt", "inf"],
        # empty values, never taken for an absent flag
        ["analyze", ONE_AMBIGUOUS, "--rates="],
        ["analyze", ONE_AMBIGUOUS, "--x0="],
        ["analyze", DEF_JUMP, "--k-grid="],
        ["equilibria", CONSERVING, "--rates=", "--plain"],
        ["equilibria", CONSERVING, "--x0="],
        ["spectra", ONE_AMBIGUOUS, "--rates="],
        ["spectra", ONE_AMBIGUOUS, "--x0="],
        ["decompose", CONSERVING, "--rates="],
        ["equilibria", CONSERVING, "--traj-csv="],
        ["equilibria", CONSERVING, "--simulate", "--t-end", "0.01", "--traj-csv="],
        ["analyze", ONE_AMBIGUOUS, "-o="],
        ["deficiency", CONSERVING, "--output="],
        ["signfix", CONSERVING, "-o="],
    ],
    ids=[
        "rates-nan", "rates-inf", "x0-nan", "x0-inf", "t-end-negative", "dt-nan", "k-grid-inf",
        "rate-inf", "rate-out-of-range", "report-nan", "report-nan-plain", "step-count-overflow",
        "step-count-over-cap", "spectra-k-grid-extra-part", "analyze-k-grid-extra-part",
        "unused-x0-nan", "unused-x0-count", "unused-x0-negative", "unused-rates-abc",
        "unused-rates-count", "unused-t-end-nan", "unused-t-end-negative", "unused-dt-inf",
        "analyze-rates-empty", "analyze-x0-empty", "analyze-k-grid-empty",
        "equilibria-rates-empty", "equilibria-x0-empty", "spectra-rates-empty",
        "spectra-x0-empty", "decompose-rates-empty", "traj-csv-empty-unused",
        "traj-csv-empty", "output-empty", "output-long-empty", "signfix-output-empty",
    ],
)
def test_non_finite_or_non_positive_flag_is_an_input_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["spectra", "analyze"])
@pytest.mark.parametrize("grid", ["1:1e6", "1:1e6:7:junk", "1:1e6:7:", ":1:1e6:7", "1e6"])
def test_k_grid_needs_exactly_three_parts(capsys, command, grid):
    code, out, err = _run(capsys, command, DEF_JUMP, "--k-grid", grid)
    assert (code, out) == (2, "")
    assert err == f"error: --k-grid must look like lo:hi:n, got {grid!r}\n"


# Rates on some reactions only, as ``signfix -o`` writes them: reaction 1
# has one and reaction 2 is the first without.  The first file suits the
# commands that need no bad class, the second has one.
PARTLY_RATED = "A -> B ; k=5\nB -> A\n"
PARTLY_RATED_BAD = "A -> B ; k=5\nB -> C\nC <-> A + B\n"


@pytest.mark.parametrize(
    "text, argv, rates",
    [
        (PARTLY_RATED, ["equilibria"], "5,1"),
        (PARTLY_RATED, ["decompose"], "5,1"),
        (PARTLY_RATED_BAD, ["spectra"], "5,1,1,1"),
        (PARTLY_RATED_BAD, ["analyze", "--k-grid", "1:1e6:7"], "5,1,1,1"),
    ],
    ids=["equilibria", "decompose", "spectra", "analyze-k-grid"],
)
def test_partly_rated_network_needs_rates(capsys, tmp_path, text, argv, rates):
    """Without --rates no rate is guessed for the unrated reactions: one
    error line names the first of them; with --rates the run goes on."""
    path = tmp_path / "partly_rated.crn"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "R2" in err and "--rates" in err
    code, out, err = _run(capsys, argv[0], str(path), *argv[1:], "--rates", rates)
    assert code in (0, 1), err
    if argv[0] == "equilibria":
        assert json.loads(out)["rates_f64"] == [5.0, 1.0]


def test_partly_rated_network_from_signfix_needs_rates(capsys, tmp_path):
    """``signfix -o`` rates its added reactions only, so its output is a
    partly rated file."""
    fixed = tmp_path / "fixed.crn"
    assert _run(capsys, "signfix", ONE_AMBIGUOUS, "-o", str(fixed))[0] == 0
    code, out, err = _run(capsys, "equilibria", str(fixed))
    assert (code, out) == (2, "")
    assert err.startswith("error: reaction R1 ") and "--rates" in err


def test_analyze_of_a_partly_rated_network_needs_no_rates(capsys, tmp_path):
    """Without --k-grid and --rates, ``analyze`` reads no rate, so a file
    that rates some reactions only is no error, also when --x0 is given
    (and checked)."""
    path = tmp_path / "partly_rated.crn"
    path.write_text(PARTLY_RATED_BAD, encoding="utf-8")
    assert _run(capsys, "analyze", str(path))[0] == 0
    assert _run(capsys, "analyze", str(path), "--x0", "1,1,1")[0] == 0


def _capped(over):
    """Runs asking for the most k-grid points and samples, plus ``over``."""
    points, samples = str(kinetics.MAX_K_GRID_POINTS + over), str(kinetics.MAX_SAMPLES + over)
    return [
        ["spectra", DEF_JUMP, "--k-grid", f"1:1e6:{points}"],
        ["analyze", DEF_JUMP, "--k-grid", f"1:1e6:{points}"],
        ["spectra", DEF_JUMP, "--samples", samples],
        ["decompose", DEF_JUMP, "--samples", samples],
    ]


CAPPED_IDS = ["spectra-k-grid", "analyze-k-grid", "spectra-samples", "decompose-samples"]


@pytest.mark.parametrize("argv", _capped(0), ids=CAPPED_IDS)
def test_k_grid_and_samples_at_their_caps_run(capsys, argv):
    body = _run_json(capsys, *argv)
    if "--k-grid" in argv:
        section = body["spectra"] if argv[0] == "analyze" else body["convergence"]
        assert len(section["k_grid_f64"]) == kinetics.MAX_K_GRID_POINTS
    else:
        sampled = body["det_sign_sampling"] if argv[0] == "spectra" else body
        assert sampled["samples"] == kinetics.MAX_SAMPLES


@pytest.mark.parametrize("argv", _capped(1), ids=CAPPED_IDS)
def test_k_grid_and_samples_over_their_caps_are_input_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at most" in err


@pytest.mark.parametrize("command", ["analyze", "signfix", "altfix", "deficiency", "equilibria", "graph"])
def test_seed_is_refused_by_the_commands_that_sample_nothing(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, CONSERVING, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_step_cap_is_checked_before_the_network_is_read(capsys, tmp_path):
    missing = str(tmp_path / "missing.crn")
    code, _, err = _run(capsys, "equilibria", missing, "--simulate", "--t-end", "1", "--dt", "1e-300")
    assert code == 2
    assert "exceeds the limit" in err


def test_traj_csv_without_simulate_is_checked_before_the_network_is_read(capsys, tmp_path):
    """The flag was dropped without a word (exit 0, no file)."""
    target = tmp_path / "traj.csv"
    for source in (CONSERVING, str(tmp_path / "missing.crn")):
        code, out, err = _run(capsys, "equilibria", source, "--traj-csv", str(target))
        assert (code, out, err) == (2, "", "error: --traj-csv needs --simulate\n")
    assert not target.exists()


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


@pytest.mark.parametrize(
    "text",
    ["é -> B", "A -> Bé", "species A, é\nA -> B", "A -> 1e5000B", "A -> 1e-5000B", "A -> ²B"],
    ids=["non-ascii-name", "non-ascii-in-name", "non-ascii-declared", "large", "small", "superscript"],
)
def test_unreadable_line_is_one_positioned_error(capsys, tmp_path, text):
    path = tmp_path / "net.crn"
    path.write_text(text + "\n", encoding="utf-8")
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: line 1, column ")
    assert err.count("\n") == 1


def test_huge_rate_exponent_is_refused_at_once(tmp_path):
    """Run as a process with a timeout: building 10**100000000 before
    reading the rate would not finish."""
    path = tmp_path / "net.crn"
    path.write_text("A -> B ; k=1e100000000\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "crnsign.cli", "analyze", str(path)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {path}: line 1, column 12: cannot read rate value '1e100000000' [bad-coefficient]\n"
    )


OVERFLOWING_NETWORKS = {
    "product": ("A -> 3B\nB -> 1e2000A\n", "reaction R2: a coefficient of species 'A'"),
    "reactant": ("1e2000A -> B\nB -> A\n", "reaction R1: a coefficient of species 'A'"),
}


@pytest.mark.parametrize("command", ["spectra", "decompose", "equilibria"])
@pytest.mark.parametrize("which", sorted(OVERFLOWING_NETWORKS))
def test_coefficient_beyond_the_float_range_is_an_input_error(capsys, tmp_path, command, which):
    text, named = OVERFLOWING_NETWORKS[which]
    path = tmp_path / "net.crn"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {named} is beyond the float range\n"
    # the exact commands never convert the coefficient
    assert _run(capsys, "analyze", str(path))[0] == 0


def test_analyze_k_grid_with_a_coefficient_beyond_the_float_range_is_an_input_error(
    capsys, tmp_path
):
    path = tmp_path / "net.crn"
    path.write_text("2A -> 3B + C\nA + B -> C\n3B + C -> 1e2000A\n", encoding="utf-8")
    code, out, err = _run(capsys, "analyze", str(path), "--k-grid", "1:1e6:7")
    assert code == 2
    assert out == ""
    assert err == "error: reaction R3: a coefficient of species 'A' is beyond the float range\n"


def test_non_finite_report_names_the_value(capsys, tmp_path):
    """The same exit and line with JSON, --plain or -o; -o writes no file."""
    argv = ["spectra", ONE_AMBIGUOUS, "--rates", "1e200,1,1,1"]
    for flags in ([], ["--plain"], ["-o", str(tmp_path / "report.json")]):
        code, out, err = _run(capsys, *argv, *flags)
        assert code == 2, flags
        assert out == ""
        assert err == "error: the report would hold a non-finite number at /convergence/slope_f64\n"
    assert list(tmp_path.iterdir()) == []


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


def test_cli_matches_golden(tmp_path, dense_reads):
    """Every recorded invocation prints, writes and exits as it did when
    recorded, and none reads a matrix through a dense view: ``altfix``
    borders S's rows of nonzeros and the kinetics tables convert each
    reaction's net coefficients (13 calls to ``entries()`` and 2,084
    indexings in all when they read the dense views)."""
    golden = json.loads(record_cli_golden.GOLDEN.read_text(encoding="utf-8"))
    records = record_cli_golden.record_all(tmp_path)
    assert list(records) == list(golden)
    changed = [key for key in golden if records[key] != golden[key]]
    assert changed == [], {key: (golden[key], records[key]) for key in changed[:3]}
    assert dense_reads == []


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
