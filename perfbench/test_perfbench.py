"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from crnsign import cli, find_bad_submatrices, parse_network, stoichiometric_matrix  # noqa: E402


def _suite_generator():
    spec = importlib.util.spec_from_file_location("suite_conftest", HERE.parent / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_network


def test_corpus_is_the_test_suite_corpus():
    make_network = _suite_generator()
    rng = random.Random(0)
    assert gen.corpus(0) == [make_network(rng) for _ in range(500)]


def test_text_round_trips_through_the_parser():
    rng = random.Random(1)
    nets = gen.corpus(1, 50) + [gen.make_reversible_network(rng) for _ in range(3)]
    nets += [gen.permuted(net, rng) for net in nets]
    for net in nets:
        assert parse_network(gen.network_text(net)) == net


def test_independent_bad_class_count_matches_the_program():
    for net in gen.corpus(0)[:200] + [gen.make_reversible_network(random.Random(2))]:
        S = stoichiometric_matrix(net)
        classes = find_bad_submatrices(S)
        entries, members = checks.bad_classes(S.to_string_rows())
        assert entries == {c.positive_entry for c in classes}
        assert members == sum(len(c.members) for c in classes)


def test_permuting_keeps_the_bad_submatrix_count():
    rng = random.Random(3)
    for net in gen.corpus(4, 100):
        rows = stoichiometric_matrix(net).to_string_rows()
        moved = stoichiometric_matrix(gen.permuted(net, rng)).to_string_rows()
        assert len(checks.bad_classes(moved)[0]) == len(checks.bad_classes(rows)[0])
        assert checks.bad_classes(moved)[1] == checks.bad_classes(rows)[1]


def test_tracer_spans_cli_calls_and_restores_cli(tmp_path):
    before = dict(vars(cli))
    tracer = spans.Tracer()
    op = workloads.prepare("corpus", 5, tmp_path)[0]
    undo = tracer.install(cli)
    try:
        outcome = tracer.wrap("cli", op.call)(tracer.api)
    finally:
        undo()
    assert vars(cli) == before
    assert op.check(outcome) == []
    assert workloads.EXPECTED_LAYERS["corpus"] <= tracer.layers_seen()
    metrics = tracer.metrics(wall_s=1.0, untraced_s=1.0)
    assert metrics["textio.parse_network.calls"] == 1
    assert metrics["textio.out_bytes"] == len(outcome[1].encode())
    assert all(metrics[f"{name}.self_s"] >= 0 for name in spans.span_names())


def test_a_wrong_output_is_caught(tmp_path):
    ops = workloads.prepare("corpus", 7, tmp_path)[:20]
    reports = [json.loads(op.call(None)[1]) for op in ops]
    report = next(r for r in reports if r["badclasses"])
    assert checks.analyze_problems(report) == []
    report["fixreport"]["steps"].pop()
    assert checks.analyze_problems(report)
    # A known defect's error is excused only on its own operation.
    key, (message, why) = next(iter(workloads.KNOWN_DEFECTS.items()))
    error = f"Traceback (most recent call last):\nValueError: {message}\n"
    on = workloads.Op(key, None, None, None)
    assert workloads.judge(on, None, error, None) == ([], why)
    other = workloads.Op("kinetics/3/equilibria", None, None, None)
    assert other.key not in workloads.KNOWN_DEFECTS
    problems, defect = workloads.judge(other, None, error, None)
    assert defect is None and problems == [f"raised ValueError: {message}"]
    problems, defect = workloads.judge(on, None, "Traceback\nZeroDivisionError\n", None)
    assert defect is None and problems
