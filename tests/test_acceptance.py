"""Release gates: every shipped guarantee of the toolkit, end to end.

Each test checks one numbered guarantee at its stated tolerance and, on
success, prints a single ``ACCEPTANCE n: PASS`` line straight to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows the
scoreboard.  A failing guarantee shows up as the test's own FAILED line.
"""

import random

import numpy as np
import pytest

from crnsign import spectra
from crnsign.deficiency import deficiency, delta_audit
from crnsign.exactla import (
    is_conserving,
    kernel_basis,
    kernel_correspondence_check,
    rank,
)
from crnsign.graphio import build_graph, find_bad_cycles
from crnsign.kinetics import (
    MassActionSystem,
    find_equilibrium,
    jacobian,
    lift_equilibrium,
    project_equilibrium,
    rhs,
)
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices, jacobian_sign_status
from crnsign.signfix import (
    altfix,
    fix_one_report,
    sign_fix,
    verify_permutation_relation,
)
from crnsign.spectra import det_relation_check, eigen_convergence
from crnsign.textio import parse_network

# Hand-checked 7x6 stoichiometric matrix of the four-reaction example
# fixture and the 9x8 matrix its default-order fixing run must produce.
PINNED_S = RationalMatrix(
    [
        [-1, -1, 0, 0, 0, 0],
        [-1, 0, 1, -1, 0, 0],
        [0, -1, -1, 1, -1, 1],
        [0, 0, -1, 1, 2, -2],
        [0, 0, 0, 0, -1, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ]
)

PINNED_S_HAT = RationalMatrix(
    [
        [-1, -1, 0, 0, 0, 0, 0, 0],
        [-1, 0, 1, -1, 0, 0, 0, 0],
        [0, -1, -1, 1, -1, 0, 0, 1],
        [0, 0, -1, 1, 0, -2, 2, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, 0, 1, 0, -1],
    ]
)

# Three-reaction variant of the 3-species fixture whose Jacobian is
# invertible at positive points, so the determinant relation is checked
# with genuinely nonzero determinants (not just 0 = -k*0).
INVERTIBLE_NET = "A -> 3B + C\nA + B -> C\n3B + C -> 2A\n"


@pytest.fixture
def announce(capsys):
    def _announce(number: int, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number}: PASS - {detail}")

    return _announce


def _same_span(vectors_a, vectors_b) -> bool:
    """Exact equality of two rational row spans (rank of stacked bases)."""
    a = [list(v) for v in vectors_a]
    b = [list(v) for v in vectors_b]
    if not a or not b:
        return len(a) == len(b)
    rank_a = rank(RationalMatrix(a))
    rank_b = rank(RationalMatrix(b))
    return rank_a == rank_b == rank(RationalMatrix(a + b))


def _closed_form_equilibrium(rates, x2):
    """One-parameter positive equilibrium family of the four-species fixture."""
    k1, k2, k3, k4, k5 = rates
    x1 = k2 * k4 ** 0.25 / (2.0 * k1 ** 0.5 * k3 ** 0.5 * k5 ** 0.25 * x2 ** 6)
    x3 = 4.0 * k1 ** 1.5 * k3 ** 0.5 * k4 ** 0.25 * x2 ** 18 / (k2 ** 2 * k5 ** 0.25)
    x4 = k2 / (2.0 * k1 ** 0.5 * k3 ** 0.5 * x2 ** 6)
    return (x1, x2, x3, x4)


def test_acceptance_1_worked_example_end_to_end(two_ambiguous, announce):
    assert stoichiometric_matrix(two_ambiguous) == PINNED_S
    report = sign_fix(two_ambiguous)
    assert report.matrices()[-1] == PINNED_S_HAT
    announce(
        1,
        "four-reaction example parses to the pinned 7x6 matrix and its "
        "default-order fix equals the pinned 9x8 matrix exactly",
    )


def test_acceptance_2_bad_class_and_ambiguity_counts(
    two_ambiguous, one_ambiguous, fully_signed, announce
):
    assert len(find_bad_submatrices(stoichiometric_matrix(two_ambiguous))) == 2
    fixed = sign_fix(two_ambiguous).result
    assert find_bad_submatrices(stoichiometric_matrix(fixed)) == []
    assert jacobian_sign_status(fixed).ambiguous_entries() == []
    assert len(jacobian_sign_status(one_ambiguous).ambiguous_entries()) == 1
    assert jacobian_sign_status(fully_signed).ambiguous_entries() == []
    announce(
        2,
        "bad classes: 2 before fixing and 0 after; ambiguous Jacobian "
        "entries: 1 and 0 on the two small fixtures",
    )


def test_acceptance_3_kernel_fixtures(conserving_family, announce):
    S = stoichiometric_matrix(conserving_family)
    assert _same_span(kernel_basis(S).vectors, [(0, 0, 0, 1, 1), (1, 2, 1, 0, 0)])
    assert _same_span(kernel_basis(S, side="left").vectors, [(1, 1, 1, 1)])
    s_tilde, _ = altfix(conserving_family)
    assert _same_span(kernel_basis(s_tilde).vectors, [(2, 0, 4, 1, 3, 2)])
    assert kernel_basis(s_tilde, side="left").dim == 0
    assert is_conserving(S).conserving is True
    assert is_conserving(s_tilde).conserving is False
    announce(
        3,
        "kernels of the 4x5 fixture and its one-shot collapse match the "
        "pinned spans exactly; conservation holds before and fails after",
    )


def test_acceptance_4_equilibrium_correspondence(
    deficiency_jump, two_ambiguous, conserving_family, announce
):
    for net in (deficiency_jump, two_ambiguous):
        rates = [1.0] * net.reaction_count
        sys = MassActionSystem(net, rates)
        x = find_equilibrium(sys, [1.0] * net.species_count)
        report = sign_fix(net)
        pair = lift_equilibrium(report, rates, x)
        assert pair.residual_fixed <= 1e-8
        back = project_equilibrium(report, rates, pair.x_hat)
        assert max(abs(a - b) for a, b in zip(back.x, x)) <= 1e-12

    rates5 = [1.0] * conserving_family.reaction_count
    sys5 = MassActionSystem(conserving_family, rates5)
    member = _closed_form_equilibrium(rates5, 1.0)
    assert member == (0.5, 1.0, 4.0, 0.5)
    assert max(abs(v) for v in rhs(sys5, member)) <= 1e-8
    found = find_equilibrium(sys5, member)
    assert max(abs(a - b) for a, b in zip(found, member)) <= 1e-8
    # the whole family solves the system, not just the x2=1 member
    for other_rates in ([1.0] * 5, [2.0, 0.5, 1.5, 3.0, 0.7]):
        other_sys = MassActionSystem(conserving_family, other_rates)
        for x2 in (0.8, 1.0, 1.25):
            point = _closed_form_equilibrium(other_rates, x2)
            assert max(abs(v) for v in rhs(other_sys, point)) <= 1e-8
    announce(
        4,
        "lifted equilibria have residual <= 1e-8, projecting back returns "
        "the original point to 1e-12, and the closed-form family member at "
        "x2=1 is reproduced to 1e-8",
    )


def test_acceptance_5_spectral_checks(deficiency_jump, announce):
    rng = random.Random(1234)
    for net in (deficiency_jump, parse_network(INVERTIBLE_NET)):
        sys = MassActionSystem(net, [1.0] * net.reaction_count)
        report = fix_one_report(net)
        for _ in range(20):
            x_hat = [rng.uniform(0.2, 5.0) for _ in range(net.species_count + 1)]
            for k in (1.0, 10.0, 100.0):
                assert det_relation_check(sys, report, x_hat, k).passed

    sys44 = MassActionSystem(deficiency_jump, [1.0] * deficiency_jump.reaction_count)
    report44 = fix_one_report(deficiency_jump)
    conv = eigen_convergence(
        sys44, report44, [1.0] * (deficiency_jump.species_count + 1),
        np.geomspace(1.0, 1e6, 7),
    )
    assert conv.passed
    assert conv.slope <= -0.8
    escaper = conv.escaping_eigenvalues[-1]
    assert abs(escaper - (-1e6)) <= 0.2 * 1e6
    announce(
        5,
        "det(fixed J) = -k det(J) at 20 random points for k in {1,10,100} "
        "(rel. err <= 1e-9); matched-eigenvalue log-log slope <= -0.8 and "
        "the escaping eigenvalue is within 20% of -k at k=1e6",
    )


def test_acceptance_6_deficiency_fixtures(
    sharp_bounds, deficiency_jump, one_ambiguous, fully_signed, two_ambiguous, conserving_family, announce
):
    pre = deficiency(sharp_bounds)
    run42 = sign_fix(sharp_bounds)
    after_first = deficiency(run42.networks[1])
    assert (pre.n, pre.ell) == (5, 2)
    assert (after_first.n, after_first.ell) == (8, 4)
    assert (after_first.n - pre.n, after_first.ell - pre.ell) == (3, 2)

    run44 = sign_fix(deficiency_jump)
    assert deficiency(run44.result).delta - deficiency(deficiency_jump).delta == 1

    assert deficiency(one_ambiguous).delta == 0
    assert deficiency(fully_signed).delta == 1

    for net in (two_ambiguous, deficiency_jump, sharp_bounds, conserving_family, one_ambiguous, fully_signed):
        report = sign_fix(net)
        if not report.steps:
            continue
        audits = delta_audit(report)
        for audit, before, after in zip(audits, report.networks, report.networks[1:]):
            b, a = deficiency(before), deficiency(after)
            assert sum(audit.phi_values) == a.n - b.n == audit.dn
            assert sum(audit.psi_values) == a.ell - b.ell == audit.dl
    announce(
        6,
        "complex/linkage counts (5,2)->(8,4) on the chain fixture, total "
        "deficiency change 1 on the 3-species fixture, deficiencies 0 and 1 "
        "on the small pair, and phi/psi agree with recounts on every fixture",
    )


def test_acceptance_7_property_suites(corpus, announce):
    rng = random.Random(777)
    reports = [sign_fix(net) for net in corpus]

    # (a) fixing leaves no bad classes and no ambiguous Jacobian entries
    for report in reports:
        fixed = report.result
        assert find_bad_submatrices(stoichiometric_matrix(fixed)) == []
        assert jacobian_sign_status(fixed).ambiguous_entries() == []

    # (b) each step preserves both kernel dimensions exactly (one exact
    # rank per chain matrix determines both: cols - s and rows - s)
    for report in reports:
        dims = []
        for m in report.matrices():
            s = rank(m)
            dims.append((m.cols - s, m.rows - s))
        for before, after in zip(dims, dims[1:]):
            assert after == before

    # (c) each step raises the rank by 1 and the deficiency by 0 or 1
    for report in reports:
        chain = [deficiency(net) for net in report.networks]
        for b, a in zip(chain, chain[1:]):
            assert a.s - b.s == 1
            assert 0 <= a.delta - b.delta <= 1

    # (d) runs in different class orders differ by the order permutation
    eligible = [
        net for net, report in zip(corpus, reports) if len(report.steps) >= 2
    ]
    for net in eligible:
        count = len(find_bad_submatrices(stoichiometric_matrix(net)))
        order_a = list(range(count))
        order_b = list(range(count))
        rng.shuffle(order_a)
        rng.shuffle(order_b)
        verify_permutation_relation(
            sign_fix(net, order=order_a), sign_fix(net, order=order_b)
        )

    # (e) bad cycles in the species-reaction graph match bad submatrices
    for net in corpus:
        S = stoichiometric_matrix(net)
        members = {
            (m.rows, m.cols, m.positive_at)
            for cls in find_bad_submatrices(S)
            for m in cls.members
        }
        cycles = {
            (c.species, c.reactions, c.produced_at)
            for c in find_bad_cycles(build_graph(S))
        }
        assert cycles == members

    # (f) S v(x) factors through the complex decomposition
    from crnsign.deficiency import decomposition_residual

    for net in corpus:
        sys = MassActionSystem(
            net, [rng.uniform(0.5, 2.0) for _ in range(net.reaction_count)]
        )
        x = [rng.uniform(0.5, 2.0) for _ in range(net.species_count)]
        assert decomposition_residual(sys, x) <= 1e-10

    # (g) analytic Jacobian matches central finite differences
    for net in corpus:
        sys = MassActionSystem(
            net, [rng.uniform(0.5, 2.0) for _ in range(net.reaction_count)]
        )
        x = np.array([rng.uniform(0.5, 2.0) for _ in range(net.species_count)])
        J = jacobian(sys, x)
        fd = np.empty_like(J)
        for j in range(len(x)):
            h = 1e-6 * x[j]
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (rhs(sys, up) - rhs(sys, down)) / (2 * h)
        scale = 1.0 + float(np.max(np.abs(J)))
        assert float(np.max(np.abs(J - fd))) <= 1e-6 * scale

    announce(
        7,
        f"500-network corpus: clean fixes, kernel dimensions preserved, "
        f"rank/deficiency step bounds, order-permutation relation on "
        f"{len(eligible)} multi-class networks, cycle/submatrix bijection, "
        f"decomposition residual <= 1e-10, finite-difference Jacobians",
    )


def test_acceptance_8_falsification_controls(two_ambiguous, deficiency_jump, announce, monkeypatch):
    # A corrupted one-step matrix must fail the kernel correspondence.
    report = sign_fix(two_ambiguous)
    S, S_check = report.matrices()[0], report.matrices()[1]
    assert kernel_correspondence_check(S, S_check, report.steps[0]) is True
    corrupted_rows = [
        [S_check[i, j] for j in range(S_check.cols)] for i in range(S_check.rows)
    ]
    corrupted_rows[0][0] = 5
    corrupted = RationalMatrix(corrupted_rows)
    assert kernel_correspondence_check(S, corrupted, report.steps[0]) is False

    # A perturbed fixed-system Jacobian must fail the determinant relation.
    rates = [1.0] * deficiency_jump.reaction_count
    sys = MassActionSystem(deficiency_jump, rates)
    one_step = fix_one_report(deficiency_jump)
    x_hat = [1.0] * (deficiency_jump.species_count + 1)
    k = 10.0
    assert det_relation_check(sys, one_step, x_hat, k).passed

    def perturbed(system, x):
        J = jacobian(system, x)
        if system.network is one_step.result:
            J[0, 0] += 1e-3
        return J

    monkeypatch.setattr(spectra, "jacobian", perturbed)
    assert not det_relation_check(sys, one_step, x_hat, k).passed
    announce(
        8,
        "controls fail as required: a corrupted fix matrix is rejected by "
        "the kernel check and a perturbed fixed Jacobian fails the "
        "determinant relation",
    )
