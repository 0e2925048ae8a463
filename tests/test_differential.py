"""The one-pass sign fix, the incremental-rank audit, the index-permuted
order relation, the integer exact core and the mass-action float kernel,
each against the implementation it replaced (``oracles``)."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, load
from crnsign import kinetics
from crnsign.deficiency import complexes_decomposition, decomposition_residual, delta_audit
from crnsign.exactla import determinant, is_conserving, kernel_basis, rank
from crnsign.model import Complex, Network, RationalMatrix, Reaction, Species, stoichiometric_matrix
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


# ------------------------------------------------------- mass-action kernel

# Zeros of both signs, subnormals, ordinary values, and values whose powers
# overflow (the OverflowError path of ``kinetics.monomials``).
SPECIAL_STATES = [0.0, -0.0, 5e-324, 2.5e-310, 1e-200, 0.3, 1.0, 2.0, 7.5, 1e200, 1.7e308]
# psi does no sign check: negative bases, with fractional exponents (the
# complex-result path of ``kinetics.monomials``) and integer ones.
NEGATIVE_STATES = [-5e-324, -0.5, -1.0, -3.0, -1e200]


def _same_bits(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.array_equal(new, old, equal_nan=True), (new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old)), (new, old)


def _assert_same_kernel(net, rates, states):
    """The float S, exponents, fluxes, right-hand sides, Jacobians at
    positive states, and the decomposition (Y, A_k, psi, residual) equal
    the oracle's bit for bit; negative states go to psi alone."""
    new, old = kinetics.MassActionSystem(net, rates), oracles.MassActionSystem(net, rates)
    _same_bits(new._S, old._S)
    assert new.exponents == old.exponents
    decomposition = complexes_decomposition(new)
    Y, a_k, psi = decomposition
    old_Y, old_a_k, old_psi = oracles.complexes_decomposition(old)
    assert Y == old_Y
    _same_bits(a_k, old_a_k)
    with np.errstate(all="ignore"):  # overflow and nan are inputs here
        for x in states:
            _same_bits(psi(x), old_psi(x))
            if any(v < 0 for v in x):
                for flux, system in ((kinetics.flux, new), (oracles.flux, old)):
                    with pytest.raises(ValueError, match="nonnegative"):
                        flux(system, x)
                continue
            _same_bits(kinetics.flux(new, x), oracles.flux(old, x))
            _same_bits(kinetics.rhs(new, x), oracles.rhs(old, x))
            expected = oracles.decomposition_residual(old, x)
            _same_bits(decomposition.residual(x), expected)
            _same_bits(decomposition_residual(new, x), expected)
            if all(v > 0 for v in x):
                _same_bits(kinetics.flux_jacobian(new, x), oracles.flux_jacobian(old, x))


def _states(rng, d, count):
    """``count`` ordinary states and ``count`` drawn from the special values."""
    pool = SPECIAL_STATES + NEGATIVE_STATES
    states = [[10 ** rng.uniform(-1, 1) for _ in range(d)] for _ in range(count)]
    states += [[rng.choice(pool) for _ in range(d)] for _ in range(count)]
    return states


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_kinetics_kernel_matches_oracle_on_fixtures(name):
    net = load(name)
    rng = random.Random(name)
    rates = [10 ** rng.uniform(-1, 1) for _ in range(net.reaction_count)]
    _assert_same_kernel(net, rates, _states(rng, net.species_count, 20))


def test_kinetics_kernel_matches_oracle_on_kinetics_networks(kinetics_networks):
    rng = random.Random(43)
    for net in kinetics_networks:
        rates = [r.rate for r in net.reactions]
        _assert_same_kernel(net, rates, _states(rng, net.species_count, 5))


def test_kinetics_kernel_takes_both_fallback_paths():
    """Overflow in flux and a negative base under a fractional exponent
    in psi, where Python's ``**`` differs from numpy's scalar power."""
    net = Network(
        (Species("A", 0), Species("B", 1)),
        (Reaction(Complex.from_dict({0: "3/2", 1: 2}), Complex.from_dict({})),
         Reaction(Complex.from_dict({}), Complex.from_dict({0: 1}))),
    )
    _assert_same_kernel(net, [2.0, 0.5], [[1e200, 1.0], [1.0, 1e200], [-2.0, 3.0], [2.0, -3.0]])
    with np.errstate(all="ignore"):
        flux = kinetics.flux(kinetics.MassActionSystem(net, [2.0, 0.5]), [1.0, 1e200])
        psi = complexes_decomposition(kinetics.MassActionSystem(net, [2.0, 0.5])).psi([-2.0, 3.0])
    assert flux[0] == np.inf and np.isnan(psi[0])


def test_simulate_matches_oracle_trajectory(kinetics_networks):
    net = kinetics_networks[0]
    rates = [r.rate for r in net.reactions]
    x0 = [1.0] * net.species_count
    times, states = kinetics.simulate(kinetics.MassActionSystem(net, rates), x0, 5.0, 0.01)
    old_times, old_states = oracles.simulate(oracles.MassActionSystem(net, rates), x0, 5.0, 0.01)
    _same_bits(times, old_times)
    _same_bits(states, old_states)
    assert states.shape == (501, net.species_count)


_COEFFICIENTS = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2),
                 Fraction(2, 3), Fraction(7, 4)]


@st.composite
def rated_networks(draw):
    """Up to 6 reactions over up to 5 species: fractional coefficients,
    zero complexes, and catalysts (a species on both sides, possibly with
    a net coefficient of 0), each with a rate in [1e-3, 1e3]."""
    d = draw(st.integers(1, 5))
    side = st.dictionaries(st.integers(0, d - 1), st.sampled_from(_COEFFICIENTS), max_size=3)
    drafts = draw(st.lists(
        st.tuples(side, side).filter(lambda rp: rp[0] != rp[1]), min_size=1, max_size=6
    ))
    referenced = sorted({i for r, p in drafts for i in list(r) + list(p)})
    remap = {old: new for new, old in enumerate(referenced)}
    reactions = tuple(
        Reaction(*(Complex.from_dict({remap[i]: c for i, c in part.items()}) for part in (r, p)))
        for r, p in drafts
    )
    species = tuple(Species(f"S{i + 1}", i) for i in range(len(referenced)))
    net = Network(species, reactions, allow_catalysts=True)
    rates = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(reactions), max_size=len(reactions)))
    return net, rates


@settings(max_examples=200, deadline=None)
@given(rated_networks(), st.data())
def test_kinetics_kernel_matches_oracle_on_random_networks(net_rates, data):
    net, rates = net_rates
    d = net.species_count
    value = st.one_of(
        st.sampled_from(SPECIAL_STATES + NEGATIVE_STATES),
        st.floats(0, 1e3),
    )
    states = data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=4))
    _assert_same_kernel(net, rates, states)
