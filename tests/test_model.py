import copy
import dataclasses
import enum
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, is_canonical, load
from oracles import identity, multiply, multiply_vector, transpose, with_entry
from crnsign.model import (
    Complex,
    Network,
    RationalMatrix,
    Reaction,
    Species,
    stoichiometric_matrix,
    validate_reaction_form,
)
from crnsign.signfix import sign_fix
from crnsign.textio import parse_network


def _net(reactions, names):
    species = tuple(Species(n, i) for i, n in enumerate(names))
    return Network(species, tuple(reactions))


def test_complex_hash_contract(corpus):
    """The hash is the dataclass hash of the terms, and ``terms`` is the
    only field: repr shows only it, and pickle and deepcopy keep both
    equality and hash."""
    fixtures = [load(p.name) for p in sorted(FIXTURES.glob("*.crn"))]
    complexes = [
        c for net in fixtures + list(corpus) for r in net.reactions for c in (r.reactant, r.product)
    ]
    assert [f.name for f in dataclasses.fields(Complex)] == ["terms"]
    for c in complexes:
        fresh = Complex(c.terms)
        unhashed_copies = pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh)
        text = repr(c)
        assert text == f"Complex(terms={c.terms!r})"
        assert hash(c) == hash((c.terms,))
        assert repr(c) == text
        assert fresh == c and hash(fresh) == hash(c)
        copies = unhashed_copies + (pickle.loads(pickle.dumps(c)), copy.deepcopy(c))
        for other in copies:
            assert other == c and hash(other) == hash(c)
            assert dataclasses.astuple(other) == (c.terms,)
    assert len(set(complexes)) == len({c.terms for c in complexes})


def test_species_name_validation():
    Species("A'", 0)
    Species("x_1", 3)
    with pytest.raises(ValueError):
        Species("2A", 0)
    with pytest.raises(ValueError):
        Species("A B", 0)
    with pytest.raises(ValueError):
        Species("A", -1)


def test_complex_normalization_and_lookup():
    c = Complex.from_dict({2: 1, 0: Fraction(3, 2)})
    assert c.terms == ((0, Fraction(3, 2)), (2, Fraction(1)))
    assert c.coefficient(0) == Fraction(3, 2)
    assert c.coefficient(5) == 0
    assert not c.is_empty
    assert Complex.from_dict({}).is_empty


def test_complex_rejects_nonpositive_coefficients():
    with pytest.raises(ValueError):
        Complex.from_dict({0: 0})
    with pytest.raises(ValueError):
        Complex.from_dict({0: -2})


def test_complex_rejects_inexact_coefficients():
    for coeff in (1.5, "2", None):
        with pytest.raises(TypeError, match="exact rational"):
            Complex(((0, coeff),))
    assert Complex(((0, 2),)) == Complex.from_dict({0: 2})


_DUPLICATE = (ValueError, "duplicate species index {} in complex")
_INEXACT = (TypeError, "cannot interpret {} as an exact rational")
_NOT_POSITIVE = (ValueError, "complex coefficients must be positive")
_UNSORTED = (ValueError, "complex terms must be sorted by species index")


@pytest.mark.parametrize(
    "terms, error, detail",
    [
        (((0, 1), (0, 1)), _DUPLICATE, 0),
        (((0, 1), (2, 1), (1, 1), (2, 1)), _DUPLICATE, 2),
        (((0, 1.5),), _INEXACT, 1.5),
        (((0, 1), (1, "2")), _INEXACT, "'2'"),
        (((0, 0),), _NOT_POSITIVE, None),
        (((0, 1), (1, Fraction(-1, 2))), _NOT_POSITIVE, None),
        (((1, 1), (0, 1)), _UNSORTED, None),
        (((0, 1), (2, 1), (1, 1)), _UNSORTED, None),
        # the per-term checks run in order, term by term, and the order
        # check after them: a repeat before an unsorted pair, a bad
        # coefficient before an unsorted pair, a repeat before the
        # coefficient of its own term
        (((1, 1), (0, 1), (1, 1)), _DUPLICATE, 1),
        (((1, 1), (0, 1), (0, 1)), _DUPLICATE, 0),
        (((1, 1), (0, -1)), _NOT_POSITIVE, None),
        (((1, 1), (0, 0)), _NOT_POSITIVE, None),
        (((1, 1), (0, 2.5)), _INEXACT, 2.5),
        (((0, 1), (0, -1)), _DUPLICATE, 0),
        (((0, 1), (0, 1.5)), _DUPLICATE, 0),
        (((0, -1), (0, 1)), _NOT_POSITIVE, None),
        (((0, "1"), (0, 1)), _INEXACT, "'1'"),
        (((2, 1), (1, -1), (2, 1)), _NOT_POSITIVE, None),
        (((2, 1), (1, 1), (2, 1.5)), _DUPLICATE, 2),
        # valid: no term, one term, increasing indices, an int coefficient
        ((), None, None),
        (((3, Fraction(1, 2)),), None, None),
        (((0, 1), (4, 2), (7, Fraction(3))), None, None),
        # one term makes no comparison of indices, as sorting one term does not
        (((1j, 1),), None, None),
    ],
)
def test_complex_validation_order(terms, error, detail):
    """``Complex`` reports the first failing check in the order term by
    term (repeat, exact, positive), then sortedness, with these types
    and messages."""
    if error is None:
        assert Complex(terms).terms == terms
        return
    kind, message = error
    with pytest.raises(kind) as info:
        Complex(terms)
    assert str(info.value) == message.format(detail)


def test_complex_format():
    species = tuple(Species(n, i) for i, n in enumerate("ABC"))
    assert Complex.from_dict({}).format(species) == "0"
    assert Complex.from_dict({0: 1, 1: 3}).format(species) == "A+3B"
    assert Complex.from_dict({2: Fraction(1, 2)}).format(species) == "1/2C"


def test_reaction_rejects_equal_sides_and_bad_rate():
    a, b = Complex.from_dict({0: 1}), Complex.from_dict({1: 1})
    with pytest.raises(ValueError):
        Reaction(a, a)
    with pytest.raises(ValueError):
        Reaction(a, b, rate=0.0)
    with pytest.raises(ValueError):
        Reaction(a, b, rate=-1.0)
    assert Reaction(a, b, rate=2.5).rate == 2.5


def test_reaction_rejects_a_non_finite_rate():
    a, b = Complex.from_dict({0: 1}), Complex.from_dict({1: 1})
    for rate in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            Reaction(a, b, rate=rate)


def test_network_requires_all_species_referenced():
    a, b = Complex.from_dict({0: 1}), Complex.from_dict({1: 1})
    with pytest.raises(ValueError) as err:
        _net([Reaction(a, b)], ["A", "B", "Ghost"])
    assert "Ghost" in str(err.value)


def test_network_rejects_catalysts_by_default():
    # A + B -> 2B consumes and produces B in the same reaction.
    r = Reaction(Complex.from_dict({0: 1, 1: 1}), Complex.from_dict({1: 2}))
    with pytest.raises(ValueError):
        _net([r], ["A", "B"])
    species = tuple(Species(n, i) for i, n in enumerate("AB"))
    net = Network(species, (r,), allow_catalysts=True)
    assert net.allow_catalysts
    assert validate_reaction_form(net) == [(1, 0)]


def test_network_validates_reversible_pairs():
    f = Reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1}))
    r = Reaction(Complex.from_dict({1: 1}), Complex.from_dict({0: 1}))
    species = tuple(Species(n, i) for i, n in enumerate("AB"))
    net = Network(species, (f, r), ((0, 1),))
    assert net.reversible_pairs == ((0, 1),)
    other = Reaction(Complex.from_dict({1: 2}), Complex.from_dict({0: 1}))
    with pytest.raises(ValueError):
        Network(species, (f, other), ((0, 1),))


def test_stoichiometric_matrix_small():
    # 2A + B -> 4C
    r = Reaction(Complex.from_dict({0: 2, 1: 1}), Complex.from_dict({2: 4}))
    net = _net([r], ["A", "B", "C"])
    S = stoichiometric_matrix(net)
    assert S.entries() == (
        (Fraction(-2),),
        (Fraction(-1),),
        (Fraction(4),),
    )


def test_stoichiometric_matrix_deterministic():
    r = Reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1}))
    net = _net([r], ["A", "B"])
    assert stoichiometric_matrix(net) == stoichiometric_matrix(net)
    assert hash(stoichiometric_matrix(net)) == hash(stoichiometric_matrix(net))


def test_stoichiometric_matrix_is_kept_on_the_network():
    """One S object per network, outside its value: equality, hash and
    repr do not see it, and ``dataclasses.replace`` builds a fresh S."""
    net = load("two_ambiguous.crn")
    text, digest = repr(net), hash(net)
    S = stoichiometric_matrix(net)
    assert stoichiometric_matrix(net) is S
    assert repr(net) == text and hash(net) == digest
    assert net == load("two_ambiguous.crn")
    assert [f.name for f in dataclasses.fields(Network)] == [
        "species", "reactions", "reversible_pairs", "allow_catalysts"
    ]
    other = dataclasses.replace(net)
    assert other == net
    assert stoichiometric_matrix(other) is not S and stoichiometric_matrix(other) == S
    r = Reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1}))
    small = _net([r], ["A", "B"])
    stoichiometric_matrix(small)
    flipped = dataclasses.replace(small, reactions=(Reaction(r.product, r.reactant),))
    assert stoichiometric_matrix(flipped).entries() == ((Fraction(1),), (Fraction(-1),))


def test_stoichiometric_matrix_equals_a_coerced_matrix(corpus):
    """S is built without re-coercing its entries; it equals the matrix
    the public constructor makes from the same entries in every way."""
    nets = [load(p.name) for p in sorted(FIXTURES.glob("*.crn"))] + corpus
    for net in nets:
        S = stoichiometric_matrix(net)
        coerced = RationalMatrix(S.entries())
        assert S == coerced and hash(S) == hash(coerced) and repr(S) == repr(coerced)
        assert (S.rows, S.cols) == (coerced.rows, coerced.cols) == (
            net.species_count, net.reaction_count
        )
        assert all(type(v) is Fraction for row in S.entries() for v in row)


def test_nonzeros_are_kept_and_not_part_of_the_value(corpus):
    """S keeps the nonzeros it was built from; a constructor-built copy
    finds the same ones by one scan, and the two are equal with the same
    hash and repr.  Integer coefficients stay plain ints."""
    ints = Network(
        (Species("A", 0), Species("B", 1)),
        (Reaction(Complex(((0, 2),)), Complex(((1, 3),))),),
    )
    for net in [ints] + [load(p.name) for p in sorted(FIXTURES.glob("*.crn"))] + corpus[:50]:
        S = stoichiometric_matrix(dataclasses.replace(net))
        coerced = RationalMatrix(S.entries())
        before = (hash(coerced), repr(coerced))
        assert coerced.nonzeros() == S.nonzeros()
        assert coerced.nonzeros() is coerced.nonzeros()
        assert S == coerced and (hash(S), repr(S)) == before == (hash(coerced), repr(coerced))
        assert all(is_canonical(v) and v for row in S.nonzeros() for _, v in row)
    assert stoichiometric_matrix(ints).nonzeros() == (((0, -2),), ((0, 3),))


# Networks with non-integer coefficients: sums of halves that are whole,
# a catalyst whose entry -1/2 + 3/2 is whole, and a bad class of value 3/2.
_FRACTIONAL = [
    ("1/2A + 1/2A -> 3/2B + C\n3/2B -> 1/3A", False),
    ("1/2A + B -> 3/2A + 1/2C\nC -> B", True),
    ("A -> 3/2B\nB -> C\nC <-> A + 1/2B", False),
]


def test_every_stored_value_is_canonical(corpus, large_networks):
    """Every complex coefficient, every nonzero of S and every step's p2,
    over the fixtures, the corpus, the ``large`` networks, some networks
    with fractional coefficients, and every network of their fix chains,
    is a plain ``int`` exactly when it is integral, a ``Fraction``
    otherwise; the dense views still read Fractions."""
    fractional = [parse_network(text, allow_catalysts=c) for text, c in _FRACTIONAL]
    nets = [load(p.name) for p in sorted(FIXTURES.glob("*.crn"))]
    nets += list(corpus) + list(large_networks) + fractional
    values = []
    for net in nets:
        chain = [net]
        if not net.allow_catalysts:
            report = sign_fix(net)
            chain = report.networks
            values += [step.zeroed_entry[1] for step in report.steps]
        for member in chain:
            for r in member.reactions:
                values += [c for _, c in r.reactant.terms + r.product.terms]
            S = stoichiometric_matrix(member)
            values += [v for row in S.nonzeros() for _, v in row]
        assert all(type(v) is Fraction for v in S.row(0) + S.column(0))
    bad = [v for v in values if not is_canonical(v)]
    assert bad == []
    assert {type(v) for v in values} == {int, Fraction}


class _Count(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("coeff, stored", [
    (2, 2),
    (Fraction(4, 2), 2),
    (True, 1),
    (_Count.TWO, 2),
    (Fraction(1, 2), Fraction(1, 2)),
])
def test_complex_stores_the_canonical_form(coeff, stored):
    """A ``Fraction`` of denominator 1, a ``bool`` and an ``IntEnum`` are
    stored as a plain ``int``, equal and hashing equal to the complex built
    from the ``Fraction`` of the same value; ``from_dict`` and the matrix
    constructor store the same form."""
    built = Complex(((0, coeff), (3, Fraction(6, 3))))
    twin = Complex(((0, Fraction(coeff)), (3, Fraction(2))))
    assert built.terms == ((0, stored), (3, 2))
    assert [type(c) for _, c in built.terms] == [type(stored), int]
    assert built == twin and hash(built) == hash(twin)
    canonical = ((0, stored), (3, 2))
    assert Complex(canonical).terms is canonical  # rebuilt only when not canonical
    assert all(is_canonical(c) for _, c in twin.terms)
    assert Complex.from_dict({0: coeff, 3: "6/3"}).terms == built.terms
    assert all(is_canonical(c) for _, c in Complex.from_dict({0: coeff, 3: "6/3"}).terms)
    M = RationalMatrix([[coeff, 0, "4/2"]])
    assert M.nonzeros() == (((0, stored), (2, 2)),)
    assert all(is_canonical(v) for _, v in M.nonzeros()[0])
    assert type(M[0, 0]) is Fraction and type(M[0, 1]) is Fraction


class _EntriesUnread(RationalMatrix):
    """A matrix whose ``entries()`` raises, so the other dense views are
    seen to read the nonzeros themselves."""

    __slots__ = ()

    def entries(self):
        raise AssertionError("entries() was read")


def _assert_dense_views(rows):
    """Every dense view of a matrix built from ``rows`` (fed in as
    generators) reads the input lists: each entry at every index, negative
    ones included, each row and column, ``entries()``, ``repr``, ``==`` and
    ``hash``; an index past either end is an ``IndexError``.  Only
    ``entries()`` itself calls ``entries()``."""
    expected = [[Fraction(v) for v in row] for row in rows]
    n, m = len(expected), len(expected[0])
    M = _EntriesUnread((v for v in row) for row in rows)
    assert (M.rows, M.cols) == (n, m)
    for i in range(-n, n):
        assert M.row(i) == tuple(expected[i])
        for j in range(-m, m):
            assert M[i, j] == expected[i][j] and type(M[i, j]) is Fraction
    for j in range(-m, m):
        assert M.column(j) == tuple(row[j] for row in expected)
    entries = RationalMatrix.entries(M)
    assert entries == tuple(map(tuple, expected))
    assert all(type(v) is Fraction for row in entries + (M.column(0),) for v in row)
    body = "; ".join(" ".join(str(v) for v in row) for row in expected)
    assert repr(M) == f"RationalMatrix({n}x{m}: {body})"
    for key in [(n, 0), (-n - 1, 0), (0, m), (0, -m - 1)]:
        with pytest.raises(IndexError):
            M[key]
    for read, size in [(M.row, n), (M.column, m)]:
        for index in (size, -size - 1):
            with pytest.raises(IndexError):
                read(index)
    same = RationalMatrix(expected)
    assert M == same and hash(M) == hash(same) and not M != same
    for i in range(n):
        for j in range(m):
            changed = [list(row) for row in expected]
            changed[i][j] += 1
            assert M != RationalMatrix(changed)


@pytest.mark.parametrize("rows", [
    [[0]],
    [[5]],
    [[0, 0], [0, 0]],
    [[0, 0, 0]],
    [[0], [0]],
    [[1, 0, -2], [0, 0, 0], [Fraction(3, 4), 0, "1/3"]],
    [[0, 0, 7], [0, 0, 0]],
    [[0, 1], [0, -1], [0, "2"]],
])
def test_dense_views_read_the_nonzeros(rows):
    _assert_dense_views(rows)


_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 3, Fraction(-2, 3), Fraction(7, 5)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=1, max_size=4)
))
def test_dense_views_read_the_nonzeros_of_random_matrices(rows):
    _assert_dense_views(rows)


def test_zero_matrices_differ_by_shape():
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    zeros = [RationalMatrix([[0] * m] * n) for n, m in shapes]
    assert all(Z.nonzeros() == ((),) * Z.rows for Z in zeros)
    assert [[a == b for b in zeros] for a in zeros] == [
        [i == k for k in range(len(shapes))] for i in range(len(shapes))
    ]


def test_rational_matrix_operations():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.row(1) == (Fraction(3), Fraction(4))
    assert m.column(0) == (Fraction(1), Fraction(3))
    assert transpose(m).entries() == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    product = multiply(m, identity(2))
    assert product == m
    assert multiply_vector(m, [1, 1]) == (Fraction(3), Fraction(7))
    bumped = with_entry(m, 0, 0, Fraction(9))
    assert bumped[0, 0] == 9 and m[0, 0] == 1
    assert m.to_string_rows() == [["1", "2"], ["3", "4"]]


def test_rational_matrix_is_a_value_without_arithmetic():
    for name in ("multiply", "__matmul__", "identity", "zeros", "with_entry", "transpose"):
        assert not hasattr(RationalMatrix, name), name


def test_rational_matrix_rejects_bad_shapes():
    for entries, message in [
        ([], "matrix dimensions must be positive"),
        ([[]], "matrix dimensions must be positive"),
        ([[1, 2], [3]], "ragged rows in matrix"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            RationalMatrix(entries)
    with pytest.raises(ValueError):
        multiply(RationalMatrix([[1]]), RationalMatrix([[1, 2], [3, 4]]))


def test_validate_reaction_form_clean_network(two_ambiguous):
    assert validate_reaction_form(two_ambiguous) == []
