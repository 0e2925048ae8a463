"""The one-pass sign fix, the incremental-rank audit, the index-permuted
order relation and the integer exact core, each against the
implementation it replaced (``oracles``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, load
from crnsign.deficiency import delta_audit
from crnsign.exactla import determinant, is_conserving, kernel_basis, rank
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices
from crnsign.signfix import FixReport, sign_fix, verify_permutation_relation


def _class_count(net):
    return len(find_bad_submatrices(stoichiometric_matrix(net)))


def _multi_class(corpus, count):
    nets = [net for net in corpus if _class_count(net) >= 2][:count]
    assert len(nets) == count
    return nets


def _shuffled_orders(net, rng, count):
    orders = []
    for _ in range(count):
        order = list(range(_class_count(net)))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _assert_same_run(net, order=None):
    report = sign_fix(net, order=order)
    assert report == oracles.sign_fix(net, order=order)
    assert delta_audit(report) == oracles.delta_audit(report)
    return report


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_fix_and_audit_match_oracles_on_fixtures(name):
    _assert_same_run(load(name))


def test_fix_and_audit_match_oracles_on_corpus(corpus):
    for net in corpus:
        _assert_same_run(net)


def test_fix_and_audit_match_oracles_on_shuffled_orders(corpus):
    rng = random.Random(29)
    for net in _multi_class(corpus, 100):
        for order in _shuffled_orders(net, rng, 3):
            _assert_same_run(net, order)


def test_permutation_relation_matches_dense_oracle(corpus):
    rng = random.Random(31)
    for net in _multi_class(corpus, 100):
        a, b = (sign_fix(net, order=order) for order in _shuffled_orders(net, rng, 2))
        assert verify_permutation_relation(a, b) == oracles.verify_permutation_relation(a, b)
        # b's networks under an order they were not built in
        rotated = b.order[1:] + b.order[:1]
        mismatched = FixReport(b.steps, b.networks, rotated)
        for check in (verify_permutation_relation, oracles.verify_permutation_relation):
            with pytest.raises(ValueError, match="permutation relation failed"):
                check(a, mismatched)


# ------------------------------------------------------------ exact core


def _assert_same_core(S):
    """Kernels, rank, determinant (square) and the whole conservation
    result, witness included, equal the Fraction oracle's."""
    for side in ("right", "left"):
        assert kernel_basis(S, side) == oracles.kernel_basis(S, side)
    assert rank(S) == oracles.rank(S)
    if S.rows == S.cols:
        assert determinant(S) == oracles.determinant(S)
    assert is_conserving(S) == oracles.is_conserving(S)


def _fix_matrices(net):
    """S of the network and of every intermediate network of its fix."""
    return [stoichiometric_matrix(n) for n in sign_fix(net).networks]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_exact_core_matches_oracle_on_fixtures(name):
    for S in _fix_matrices(load(name)):
        _assert_same_core(S)


def test_exact_core_matches_oracle_on_corpus_fixes(corpus):
    conserving = 0
    for net in corpus:
        for S in _fix_matrices(net):
            _assert_same_core(S)
        conserving += is_conserving(stoichiometric_matrix(net)).conserving
    assert conserving > 0


def test_exact_core_matches_oracle_on_large_networks(large_networks):
    for net in large_networks:
        _assert_same_core(stoichiometric_matrix(net))
        _assert_same_core(stoichiometric_matrix(sign_fix(net).result))


_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 7)),
    st.tuples(st.integers(1, 7), st.just(1)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)


@st.composite
def rational_matrices(draw, square=False):
    """Sparse fractional entries over a different denominator in each row;
    unless square, of any shape and with some rows and columns zeroed."""
    rows, cols = (draw(st.integers(1, 6)),) * 2 if square else draw(_SHAPES)
    numerator = st.one_of(st.just(0), st.integers(-9, 9))
    entries = []
    for _ in range(rows):
        denom = draw(st.integers(1, 12))
        numerators = draw(st.lists(numerator, min_size=cols, max_size=cols))
        entries.append([Fraction(x, denom) for x in numerators])
    if not square:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
            entries[i] = [Fraction(0)] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
            for row in entries:
                row[j] = Fraction(0)
    return RationalMatrix(entries)


@st.composite
def rank_deficient_squares(draw):
    """n x n products of a rational n x k and k x n matrix, k < n."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(0, n - 1))
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    left = [draw(st.lists(fractions, min_size=k, max_size=k)) for _ in range(n)]
    right = [draw(st.lists(fractions, min_size=n, max_size=n)) for _ in range(k)]
    return RationalMatrix(
        [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
          for j in range(n)] for i in range(n)]
    )


@st.composite
def conserving_matrices(draw):
    """Matrices with m^t S = 0 for a positive rational m: the last row
    cancels the weighted sum of random fractional rows."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    head = [draw(st.lists(fractions, min_size=cols, max_size=cols)) for _ in range(rows - 1)]
    weights = draw(st.lists(
        st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5),
        min_size=rows, max_size=rows,
    ))
    last = [
        -sum((weights[i] * head[i][j] for i in range(rows - 1)), Fraction(0)) / weights[-1]
        for j in range(cols)
    ]
    return RationalMatrix(head + [last])


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_exact_core_matches_oracle_on_rational_matrices(S):
    _assert_same_core(S)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=True))
def test_exact_core_matches_oracle_on_square_matrices(S):
    _assert_same_core(S)


@settings(max_examples=150, deadline=None)
@given(rank_deficient_squares())
def test_exact_core_matches_oracle_on_rank_deficient_squares(S):
    assert determinant(S) == 0
    _assert_same_core(S)


@settings(max_examples=150, deadline=None)
@given(conserving_matrices())
def test_exact_core_matches_oracle_on_conserving_matrices(S):
    assert is_conserving(S).conserving
    _assert_same_core(S)
