import random

import pytest

from crnsign import signfix

from crnsign.exactla import kernel_basis
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices
from crnsign.signfix import (
    altfix,
    default_order,
    fix_one,
    fix_one_report,
    sign_fix,
    verify_permutation_relation,
)
from crnsign.textio import parse_network, serialize_network

FIX_STEP_ONE = RationalMatrix(
    [
        [-1, -1, 0, 0, 0, 0, 0],
        [-1, 0, 1, -1, 0, 0, 0],
        [0, -1, -1, 1, -1, 1, 0],
        [0, 0, -1, 1, 0, -2, 2],
        [0, 0, 0, 0, -1, 1, 0],
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1],
    ]
)

FIX_STEP_TWO = RationalMatrix(
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

JUMP_SINGLE_STEP = RationalMatrix(
    [
        [-2, -1, 2, 0],
        [0, -1, -3, 3],
        [1, 1, -1, 0],
        [1, 0, 0, -1],
    ]
)


def test_example_network_fix_chain_matrices(two_ambiguous):
    report = sign_fix(two_ambiguous)
    assert report.order == (1, 0)
    mats = report.matrices()
    assert mats[0] == stoichiometric_matrix(two_ambiguous)
    assert mats[1] == FIX_STEP_ONE
    assert mats[2] == FIX_STEP_TWO
    first, second = report.steps
    assert (first.modified_column, first.zeroed_entry) == (4, (3, 2))
    assert first.added_species == "D'"
    assert first.added_species_index == 7
    assert first.added_reaction_index == 6
    assert (second.modified_column, second.zeroed_entry) == (5, (2, 1))
    assert second.added_species == "C'"
    assert [s.name for s in report.result.species] == [
        "A", "B", "C", "D", "E", "F", "G", "D'", "C'",
    ]


def test_example_network_result_serialization(two_ambiguous):
    report = sign_fix(two_ambiguous)
    assert serialize_network(report.result) == (
        "species A, B, C, D, E, F, G, D', C'\n"
        "\n"
        "A + B -> F\n"
        "A + C -> G\n"
        "C + D <-> B\n"
        "C + E -> D'\n"
        "2D -> E + C'\n"
        "D' -> 2D ; k=1.0\n"
        "C' -> C ; k=1.0\n"
    )


def test_single_step_on_three_class_network(deficiency_jump):
    classes = find_bad_submatrices(stoichiometric_matrix(deficiency_jump))
    target = next(c for c in classes if c.positive_entry == (1, 0))
    fixed, step = fix_one(deficiency_jump, target)
    assert stoichiometric_matrix(fixed) == JUMP_SINGLE_STEP
    assert step.zeroed_entry == (1, 3)
    assert step.added_species == "B'"
    # the rewritten reaction keeps its reactants; only the product changed
    assert fixed.reactions[0].reactant == deficiency_jump.reactions[0].reactant


def test_full_run_on_three_class_network(deficiency_jump):
    report = sign_fix(deficiency_jump)
    assert report.order == (1, 2, 0)
    assert len(report.steps) == 3
    result = stoichiometric_matrix(report.result)
    assert (result.rows, result.cols) == (6, 6)
    assert find_bad_submatrices(result) == []


def test_default_order_sorts_by_column_then_row(two_ambiguous, deficiency_jump):
    classes = find_bad_submatrices(stoichiometric_matrix(two_ambiguous))
    assert default_order(classes) == (1, 0)
    classes = find_bad_submatrices(stoichiometric_matrix(deficiency_jump))
    assert default_order(classes) == (1, 2, 0)
    assert default_order([]) == ()


def test_explicit_order_is_respected(two_ambiguous):
    report = sign_fix(two_ambiguous, order=(0, 1))
    assert report.order == (0, 1)
    # fixing the (2, 5) class first rewrites reaction 5 before reaction 4
    assert report.steps[0].modified_column == 5
    assert report.steps[1].modified_column == 4
    assert find_bad_submatrices(stoichiometric_matrix(report.result)) == []


def test_order_validation(two_ambiguous):
    with pytest.raises(ValueError):
        sign_fix(two_ambiguous, order=(0,))
    with pytest.raises(ValueError):
        sign_fix(two_ambiguous, order=(0, 0))
    with pytest.raises(ValueError):
        sign_fix(two_ambiguous, order=(1, 2))


def test_added_rates(two_ambiguous):
    report = sign_fix(two_ambiguous, rate=2.5)
    assert [s.added_rate for s in report.steps] == [2.5, 2.5]
    for step in report.steps:
        assert report.result.reactions[step.added_reaction_index].rate == 2.5

    report = sign_fix(two_ambiguous, rate=[2.0, 3.0])
    assert [s.added_rate for s in report.steps] == [2.0, 3.0]
    with pytest.raises(ValueError):
        sign_fix(two_ambiguous, rate=[2.0])
    with pytest.raises(ValueError):
        sign_fix(two_ambiguous, rate=0.0)


def test_stale_class_is_rejected(two_ambiguous):
    classes = find_bad_submatrices(stoichiometric_matrix(two_ambiguous))
    fixed, _ = fix_one(two_ambiguous, classes[0])
    with pytest.raises(ValueError, match="stale"):
        fix_one(fixed, classes[0])


def test_sign_fix_rejects_target_no_longer_bad(monkeypatch, deficiency_jump):
    classes = find_bad_submatrices(stoichiometric_matrix(deficiency_jump))
    later = classes[default_order(classes)[-1]]
    rewrite = signfix._rewrite

    def interfering(net, cls, rate):
        # the first step also fixes the last target, as if steps interfered
        fixed, step = rewrite(net, cls, rate)
        if signfix._is_still_bad(fixed, later):
            fixed, _ = rewrite(fixed, later, rate)
        return fixed, step

    monkeypatch.setattr(signfix, "_rewrite", interfering)
    with pytest.raises(AssertionError, match="no longer bad"):
        sign_fix(deficiency_jump)


def test_clean_network_gives_identity_report(two_ambiguous):
    clean = sign_fix(two_ambiguous).result
    report = sign_fix(clean)
    assert report.steps == ()
    assert report.order == ()
    assert report.result == clean
    with pytest.raises(ValueError):
        fix_one_report(clean)


def test_reversible_pairs_dropped_only_for_modified_column(two_ambiguous):
    assert two_ambiguous.reversible_pairs == ((2, 3), (4, 5))
    report = sign_fix(two_ambiguous)
    assert report.networks[1].reversible_pairs == ((2, 3),)
    assert report.result.reversible_pairs == ((2, 3),)


def test_fresh_species_name_skips_taken_primes():
    net = parse_network("A + B -> 2X\nA + X -> B\nX' -> X")
    classes = find_bad_submatrices(stoichiometric_matrix(net))
    target = next(c for c in classes if c.positive_entry == (2, 0))
    fixed, step = fix_one(net, target)
    assert step.added_species == "X''"
    assert fixed.species[step.added_species_index].name == "X''"


def test_fix_rejects_rewriting_consumed_species():
    net = parse_network("A + B -> 3B\nA + B -> C", allow_catalysts=True)
    classes = find_bad_submatrices(stoichiometric_matrix(net))
    target = next(c for c in classes if c.positive_entry == (1, 0))
    with pytest.raises(ValueError, match="consumed"):
        fix_one(net, target)


def test_permutation_relation_two_orders(two_ambiguous):
    a = sign_fix(two_ambiguous, order=(0, 1))
    b = sign_fix(two_ambiguous, order=(1, 0))
    P = verify_permutation_relation(a, b)
    assert P == RationalMatrix([[0, 1], [1, 0]])
    # same order: the identity permutation
    P = verify_permutation_relation(a, sign_fix(two_ambiguous, order=(0, 1)))
    assert P == RationalMatrix([[1, 0], [0, 1]])


def test_permutation_relation_three_classes(deficiency_jump):
    a = sign_fix(deficiency_jump)
    b = sign_fix(deficiency_jump, order=(0, 1, 2))
    P = verify_permutation_relation(a, b)
    assert (P.rows, P.cols) == (3, 3)
    for i in range(3):
        assert sum(P.row(i)) == 1
        assert sum(P.column(i)) == 1


def test_permutation_relation_rejects_different_networks(two_ambiguous, deficiency_jump):
    with pytest.raises(ValueError):
        verify_permutation_relation(sign_fix(two_ambiguous), sign_fix(deficiency_jump))


def test_class_counts_decrease_stepwise(two_ambiguous, deficiency_jump):
    for net, expected in ((two_ambiguous, [2, 1, 0]), (deficiency_jump, [3, 2, 1, 0])):
        report = sign_fix(net)
        counts = [len(find_bad_submatrices(M)) for M in report.matrices()]
        assert counts == expected


def test_kernel_dimensions_preserved_along_chain(two_ambiguous, deficiency_jump):
    for net in (two_ambiguous, deficiency_jump):
        report = sign_fix(net)
        mats = report.matrices()
        for before, after in zip(mats, mats[1:]):
            assert (
                kernel_basis(before, "right").dim == kernel_basis(after, "right").dim
            )
            assert kernel_basis(before, "left").dim == kernel_basis(after, "left").dim


def test_fixing_corpus_networks(corpus):
    for net in corpus[:60]:
        report = sign_fix(net)
        n = len(report.steps)
        assert report.result.species_count == net.species_count + n
        assert report.result.reaction_count == net.reaction_count + n
        assert find_bad_submatrices(stoichiometric_matrix(report.result)) == []


def test_permutation_relation_on_corpus_orders(corpus):
    rng = random.Random(13)
    checked = 0
    for net in corpus:
        classes = find_bad_submatrices(stoichiometric_matrix(net))
        if len(classes) < 2:
            continue
        order_a = list(range(len(classes)))
        order_b = list(order_a)
        rng.shuffle(order_a)
        rng.shuffle(order_b)
        P = verify_permutation_relation(
            sign_fix(net, order=order_a), sign_fix(net, order=order_b)
        )
        assert (P.rows, P.cols) == (len(classes), len(classes))
        checked += 1
        if checked == 10:
            break
    assert checked == 10


ALT_FIX_EXPECTED = RationalMatrix(
    [
        [-2, -1, 0, 0, -4, 8],
        [-12, 0, 4, 0, 0, 4],
        [0, -1, -2, 0, 0, 4],
        [0, -2, -6, -4, 0, 14],
        [1, 1, 1, 1, 1, -5],
    ]
)


def test_altfix_known_network(conserving_family):
    s_tilde, report = altfix(conserving_family)
    assert s_tilde == ALT_FIX_EXPECTED
    assert report.classes_removed == 6
    assert not report.degenerate
    assert report.kernel_dim_original == 2
    assert report.kernel_dim_alt == 1
    assert not report.kernel_dim_preserved
    assert report.left_kernel_dim_original == 1
    assert report.left_kernel_dim_alt == 0
    assert report.conserving_original.conserving
    assert not report.conserving_alt.conserving


def test_altfix_degenerate_on_clean_network():
    net = parse_network("A -> B")
    s_tilde, report = altfix(net)
    assert report.degenerate
    assert report.classes_removed == 0
    assert s_tilde == RationalMatrix([[-1, 0], [1, 0], [0, 0]])
    assert report.kernel_dim_preserved is False  # bordering adds a zero column


def test_altfix_result_never_has_bad_submatrices(corpus):
    for net in corpus[:100]:
        s_tilde, _ = altfix(net)
        assert find_bad_submatrices(s_tilde) == []
