import random
from fractions import Fraction

import pytest

from crnsign.kinetics import exact_jacobian
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import (
    Sign,
    Status,
    find_bad_submatrices,
    hermitian_square_status,
    jacobian_sign_status,
    sign_pattern,
)

from conftest import load


def _signs(rows):
    table = {"+": Sign.PLUS, "-": Sign.MINUS, "0": Sign.ZERO}
    return tuple(tuple(table[c] for c in row) for row in rows)


def test_sign_pattern_symbols():
    M = RationalMatrix([[Fraction(1, 2), 0], [-3, 7]])
    assert sign_pattern(M) == _signs(["+0", "-+"])


def test_hermitian_square_hand_example():
    # rows (+,+) and (+,-): products agree in column 0, disagree in column 1
    status = hermitian_square_status(_signs(["++", "+-"]))
    assert status.entries[0][1] is Status.AMBIGUOUS
    assert status.entries[1][0] is Status.AMBIGUOUS
    assert status.entries[0][0] is Status.PLUS
    assert status.entries[1][1] is Status.PLUS
    assert status.ambiguous_entries() == [(0, 1), (1, 0)]
    assert status.symbols() == [["+", "?"], ["?", "+"]]


def test_hermitian_square_flags_both_dual_patterns():
    # one plus among three minuses...
    one_plus = hermitian_square_status(_signs(["--", "-+"]))
    assert one_plus.entries[0][1] is Status.AMBIGUOUS
    # ...and one minus among three pluses both break the off-diagonal sign
    one_minus = hermitian_square_status(_signs(["++", "+-"]))
    assert one_minus.entries[0][1] is Status.AMBIGUOUS
    # while sign-consistent rows stay determined
    aligned = hermitian_square_status(_signs(["+-", "+-"]))
    assert aligned.entries[0][1] is Status.PLUS
    opposed = hermitian_square_status(_signs(["+-", "-+"]))
    assert opposed.entries[0][1] is Status.MINUS


def test_hermitian_square_zero_rows_and_diagonal():
    status = hermitian_square_status(_signs(["00", "+-"]))
    assert status.entries[0][0] is Status.ZERO
    assert status.entries[0][1] is Status.ZERO
    assert status.entries[1][1] is Status.PLUS


def test_hermitian_square_diagonal_never_minus():
    rng = random.Random(11)
    choices = "+-0"
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        pattern = _signs(
            ["".join(rng.choice(choices) for _ in range(cols)) for _ in range(rows)]
        )
        status = hermitian_square_status(pattern)
        for i in range(rows):
            assert status.entries[i][i] in (Status.PLUS, Status.ZERO)


def test_bad_submatrix_minimal_cases():
    one_positive = RationalMatrix([[-1, -2], [-3, 4]])
    classes = find_bad_submatrices(one_positive)
    assert len(classes) == 1
    assert classes[0].positive_entry == (1, 1)
    assert classes[0].size == 1
    member = classes[0].members[0]
    assert member.rows == (0, 1)
    assert member.cols == (0, 1)
    assert member.positive_at == (1, 1)

    # three positives is not a bad pattern for the Jacobian question
    assert find_bad_submatrices(RationalMatrix([[1, 2], [3, -4]])) == []
    assert find_bad_submatrices(RationalMatrix([[-1, -2], [-3, -4]])) == []
    # a zero entry disqualifies the submatrix
    assert find_bad_submatrices(RationalMatrix([[0, -2], [-3, 4]])) == []


def test_bad_classes_example_network(two_ambiguous):
    S = stoichiometric_matrix(two_ambiguous)
    classes = find_bad_submatrices(S)
    assert [(c.positive_entry, c.size) for c in classes] == [((2, 5), 1), ((3, 4), 1)]
    assert [S[c.positive_entry] for c in classes] == [1, 2]
    # each member records the shared positive entry
    for cls in classes:
        for member in cls.members:
            assert member.positive_at == cls.positive_entry
            assert member.positive_at[0] in member.rows
            assert member.positive_at[1] in member.cols


def test_bad_classes_three_class_network(deficiency_jump):
    S = stoichiometric_matrix(deficiency_jump)
    classes = find_bad_submatrices(S)
    assert [c.positive_entry for c in classes] == [(0, 2), (1, 0), (2, 1)]
    assert [S[c.positive_entry] for c in classes] == [2, 3, 1]


def test_bad_classes_are_found_once_per_matrix_and_handed_out_as_fresh_lists():
    S = stoichiometric_matrix(load("deficiency_jump.crn"))
    first = find_bad_submatrices(S)
    second = find_bad_submatrices(S)
    assert first == second and first is not second
    assert S._cache["bad_classes"] == tuple(first)
    first.reverse()
    first.pop()
    assert [c.positive_entry for c in second] == [(0, 2), (1, 0), (2, 1)]
    assert find_bad_submatrices(S) == second


def test_shared_positive_entry_groups_into_one_class():
    # two distinct 2x2 witnesses through the same positive entry (0, 0)
    M = RationalMatrix([[3, -1, -1], [-1, -1, 0], [-1, 0, -1]])
    classes = find_bad_submatrices(M)
    assert len(classes) == 1
    assert classes[0].positive_entry == (0, 0)
    assert classes[0].size == 2
    assert {m.rows for m in classes[0].members} == {(0, 1), (0, 2)}


def test_fixed_network_has_no_bad_submatrices(two_ambiguous):
    from crnsign.signfix import sign_fix

    report = sign_fix(two_ambiguous)
    assert find_bad_submatrices(stoichiometric_matrix(report.result)) == []


def test_jacobian_status_simple_decay():
    from crnsign.textio import parse_network

    net = parse_network("A -> B")
    status = jacobian_sign_status(net)
    assert status.symbols() == [["-", "0"], ["+", "0"]]


def test_jacobian_status_ambiguous_entries(two_ambiguous, one_ambiguous, fully_signed):
    assert jacobian_sign_status(two_ambiguous).ambiguous_entries() == [(2, 3), (3, 2)]
    assert len(jacobian_sign_status(one_ambiguous).ambiguous_entries()) == 1
    assert jacobian_sign_status(fully_signed).ambiguous_entries() == []


def test_jacobian_status_rejects_catalysts():
    from crnsign.textio import parse_network

    net = parse_network("A + B -> 2B", allow_catalysts=True)
    with pytest.raises(ValueError):
        jacobian_sign_status(net)


def _ones(n):
    return tuple(Fraction(1) for _ in range(n))


def test_determined_statuses_hold_for_exact_mass_action(corpus):
    """+/-/0 statuses are sign guarantees for every positive rate choice."""
    rng = random.Random(12)
    for net in corpus[:25]:
        status = jacobian_sign_status(net)
        for _ in range(3):
            rates = tuple(
                Fraction(rng.randint(1, 5), rng.randint(1, 5))
                for _ in range(net.reaction_count)
            )
            x = tuple(
                Fraction(rng.randint(1, 5), rng.randint(1, 5))
                for _ in range(len(net.species))
            )
            J = exact_jacobian(net, rates, x)
            for i in range(J.rows):
                for j in range(J.cols):
                    s = status.entries[i][j]
                    if s is Status.PLUS:
                        assert J[i, j] > 0
                    elif s is Status.MINUS:
                        assert J[i, j] < 0
                    elif s is Status.ZERO:
                        assert J[i, j] == 0


def test_ambiguous_entries_are_realizable_both_ways(two_ambiguous, one_ambiguous):
    """Each ambiguous entry takes both signs for explicit rate choices."""
    for net in (two_ambiguous, one_ambiguous):
        S = stoichiometric_matrix(net)
        status = jacobian_sign_status(net)
        ones = _ones(len(net.species))
        for (i, j) in status.ambiguous_entries():
            produced = next(
                k for k in range(S.cols) if S[i, k] > 0 and S[j, k] < 0
            )
            consumed = next(
                k for k in range(S.cols) if S[i, k] < 0 and S[j, k] < 0
            )
            heavy_produce = tuple(
                Fraction(10**6) if k == produced else Fraction(1)
                for k in range(S.cols)
            )
            heavy_consume = tuple(
                Fraction(10**6) if k == consumed else Fraction(1)
                for k in range(S.cols)
            )
            assert exact_jacobian(net, heavy_produce, ones)[i, j] > 0
            assert exact_jacobian(net, heavy_consume, ones)[i, j] < 0


def test_status_matrix_is_deterministic(two_ambiguous):
    a = jacobian_sign_status(two_ambiguous)
    b = jacobian_sign_status(two_ambiguous)
    assert a == b
    assert a.symbols() == b.symbols()
