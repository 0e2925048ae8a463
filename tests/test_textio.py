import enum
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crnsign import cli
from crnsign.model import Complex, Network, Reaction, Species, stoichiometric_matrix
from crnsign.signfix import sign_fix
from crnsign.textio import (
    KIND_BAD_COEFFICIENT,
    KIND_DUPLICATE_RATE,
    KIND_EMPTY_SIDE_BOTH,
    KIND_SYNTAX,
    ParseError,
    dump_report,
    network_json_and_text,
    network_to_json,
    parse_network,
    serialize_network,
)

from conftest import is_canonical, load, make_network, network_text


def test_minimal_reaction():
    net = parse_network("A -> B")
    assert [s.name for s in net.species] == ["A", "B"]
    assert net.reaction_count == 1
    assert net.reactions[0].reactant == Complex.from_dict({0: 1})
    assert net.reactions[0].product == Complex.from_dict({1: 1})
    assert net.reactions[0].rate is None


def test_species_order_is_first_appearance():
    net = parse_network("B -> C\nA -> B")
    assert [s.name for s in net.species] == ["B", "C", "A"]


def test_species_directive_pins_order():
    net = parse_network("species A, B, C\nB -> C\nA -> B")
    assert [s.name for s in net.species] == ["A", "B", "C"]


def test_species_directive_rejects_unknown_species_usage():
    with pytest.raises(ParseError):
        parse_network("species A, B\nA -> C")


def test_species_named_species_still_usable_as_plain_name():
    # 'species' only acts as a directive when followed by another name.
    net = parse_network("species -> B")
    assert [s.name for s in net.species] == ["species", "B"]


def test_coefficients_integer_fraction_decimal():
    net = parse_network("2A + 3/2B -> C\n1.5e1C -> 0.5A")
    S = stoichiometric_matrix(net)
    assert S.column(0) == (Fraction(-2), Fraction(-3, 2), Fraction(1))
    assert S.column(1) == (Fraction(1, 2), Fraction(0), Fraction(-15))


def test_primed_species_names():
    net = parse_network("B' -> B''")
    assert [s.name for s in net.species] == ["B'", "B''"]


def test_duplicate_species_terms_merge():
    net = parse_network("A + A -> B")
    assert net.reactions[0].reactant == Complex.from_dict({0: 2})


@pytest.mark.parametrize(
    "text, terms",
    [
        ("A + A -> B", ((0, 2),)),
        ("2A + 1/2 A -> B", ((0, Fraction(5, 2)),)),
        ("A + 2B + 3A -> C", ((0, 4), (1, 2))),
        ("species A, B, C\nC + 2B + A + B -> 0", ((0, 1), (1, 3), (2, 1))),  # sorted by index
        ("1/2A + 1/2A -> B", ((0, 1),)),  # a whole sum is stored as an int
    ],
)
def test_repeated_terms_merge_to_fraction_sums(text, terms):
    reactant = parse_network(text).reactions[0].reactant
    assert reactant.terms == terms
    assert all(is_canonical(value) for _, value in reactant.terms)


@pytest.mark.parametrize(
    "number, value",
    [("2", 2), ("4/2", 2), ("2.0", 2), ("1e2", 100), ("0.5", Fraction(1, 2)), ("1/3", Fraction(1, 3))],
)
def test_integral_numbers_are_read_as_ints(number, value):
    """A NUMBER whose value is integral is read as a plain ``int``, any
    other as a ``Fraction``."""
    read = parse_network(f"A -> {number}B").reactions[0].product.terms[0][1]
    assert read == value and type(read) is type(value)


def test_reversible_reaction_and_rates():
    net = parse_network("A <-> B ; kf=2, kr=0.5")
    assert net.reaction_count == 2
    assert net.reversible_pairs == ((0, 1),)
    assert net.reactions[0].rate == 2.0
    assert net.reactions[1].rate == 0.5
    # forward listed first
    assert net.reactions[0].reactant == Complex.from_dict({0: 1})


def test_irreversible_rate():
    net = parse_network("A -> B ; k=2.5")
    assert net.reactions[0].rate == 2.5


def test_zero_complex_sides():
    net = parse_network("0 -> A\nA -> 0")
    assert net.reactions[0].reactant.is_empty
    assert net.reactions[1].product.is_empty


def test_comments_and_blank_lines():
    net = parse_network("# a comment\n\nA -> B # trailing note\n")
    assert net.reaction_count == 1


def test_error_both_sides_empty():
    with pytest.raises(ParseError) as err:
        parse_network("0 -> 0")
    assert err.value.kind == KIND_EMPTY_SIDE_BOTH


def test_error_duplicate_rate_keyword():
    with pytest.raises(ParseError) as err:
        parse_network("A -> B ; k=1, k=2")
    assert err.value.kind == KIND_DUPLICATE_RATE


def test_error_bad_coefficients():
    with pytest.raises(ParseError) as err:
        parse_network("1/0A -> B")
    assert err.value.kind == KIND_BAD_COEFFICIENT
    with pytest.raises(ParseError) as err:
        parse_network("A -> B ; k=0")
    assert err.value.kind == KIND_BAD_COEFFICIENT


def test_error_rate_keywords_must_match_arrow():
    with pytest.raises(ParseError) as err:
        parse_network("A -> B ; kf=1, kr=2")
    assert err.value.kind == KIND_SYNTAX
    with pytest.raises(ParseError) as err:
        parse_network("A <-> B ; k=1")
    assert err.value.kind == KIND_SYNTAX


def test_error_positions_are_reported():
    with pytest.raises(ParseError) as err:
        parse_network("A -> B\nA -> @")
    assert err.value.line == 2
    assert err.value.column == 6
    assert "line 2, column 6" in str(err.value)


@pytest.mark.parametrize(
    "text, column",
    [("é -> B", 1), ("A -> Bé", 7), ("species A, é", 12), ("A -> ²B", 6)],
)
def test_non_ascii_character_is_a_syntax_error_at_its_column(text, column):
    """Names and digits are ASCII: the first non-ASCII character is an
    unexpected character, not part of a name or a coefficient."""
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert (err.value.line, err.value.column, err.value.kind) == (1, column, KIND_SYNTAX)
    assert err.value.message == f"unexpected character {text[column - 1]!r}"


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@pytest.mark.parametrize(
    "number",
    ["1e5000", "1e-5000", f"0.5e{LIMIT + 1}", f"7e-{LIMIT}", f"1e1{'0' * LIMIT}"],
    ids=["large", "small", "over-by-one", "under-by-one", "long-exponent"],
)
def test_number_with_too_many_digits_is_a_bad_coefficient(number):
    with pytest.raises(ParseError) as err:
        parse_network(f"A -> {number}B")
    assert (err.value.column, err.value.kind) == (6, KIND_BAD_COEFFICIENT)
    assert err.value.message == f"cannot read coefficient {number!r}"
    with pytest.raises(ParseError) as err:
        parse_network(f"A -> B ; k={number}")
    assert (err.value.column, err.value.kind) == (12, KIND_BAD_COEFFICIENT)
    assert err.value.message == f"cannot read rate value {number!r}"


@pytest.mark.parametrize(
    "number, value",
    [
        (f"1e{LIMIT - 1}", Fraction(10) ** (LIMIT - 1)),
        (f"1e-{LIMIT - 1}", Fraction(1, 10 ** (LIMIT - 1))),
        (f"0.5e{LIMIT}", 5 * Fraction(10) ** (LIMIT - 1)),
    ],
    ids=["large", "small", "leading-zero"],
)
def test_number_at_the_digit_limit_is_read_exactly(number, value):
    net = parse_network(f"A -> {number}B")
    assert net.reactions[0].product.coefficient(1) == value
    str(value)  # printable


def _digits(max_size=12):
    return st.text("0123456789", min_size=1, max_size=max_size)


# NUMBER tokens (``[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+|/[0-9]+)?``): digit
# runs with leading zeros, decimals, small exponents, ``p/q`` (q = 0
# included), and plain or ``p/q`` digit runs at and one over the limit.
_NUMBERS = st.one_of(
    _digits(),
    st.builds(lambda zeros, digits: "0" * zeros + digits, st.integers(1, 5), _digits()),
    st.builds(lambda whole, fraction: f"{whole}.{fraction}", _digits(), _digits()),
    st.builds(
        lambda head, e, sign, exponent: f"{head}{e}{sign}{exponent}",
        st.one_of(_digits(), st.builds(lambda w, f: f"{w}.{f}", _digits(), _digits())),
        st.sampled_from("eE"),
        st.sampled_from(["", "+", "-"]),
        _digits(max_size=2),
    ),
    st.builds(lambda p, q: f"{p}/{q}", _digits(), _digits()),
    st.builds(
        lambda size, lead, tail: lead + "7" * (size - len(lead)) + tail,
        st.sampled_from([LIMIT, LIMIT + 1]),
        st.sampled_from(["", "0", "00"]),
        st.sampled_from(["", "/3", "/0"]),
    ),
)


def _refusal(text: str, rate: bool):
    """What ``parse_number`` refuses ``text`` with, read through
    ``Fraction(text)``, or None with the value it reads."""
    try:
        value = Fraction(text)
        if rate:
            value = float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        return f"cannot read {'rate value' if rate else 'coefficient'} {text!r}", None
    if not value > 0:
        return f"{'rate constants' if rate else 'coefficients'} must be strictly positive", None
    return None, value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NUMBERS)
def test_numbers_are_read_as_fraction_reads_them(number):
    """Every coefficient equals ``Fraction(text)`` and is a plain ``int``
    exactly when it is integral, else a ``Fraction``; every rate equals
    ``float(Fraction(text))``; every refusal is a positioned
    ``bad-coefficient`` error with ``Fraction``'s verdict."""
    for text, column, rate in ((f"A -> {number}B", 6, False), (f"A -> B ; k={number}", 12, True)):
        refusal, value = _refusal(number, rate)
        if refusal is None:
            reaction = parse_network(text).reactions[0]
            read = reaction.rate if rate else reaction.product.terms[0][1]
            assert read == value
            assert type(read) is float if rate else is_canonical(read)
        else:
            with pytest.raises(ParseError) as err:
                parse_network(text)
            assert (err.value.line, err.value.column, err.value.kind) == (1, column, KIND_BAD_COEFFICIENT)
            assert err.value.message == refusal


def test_error_identical_sides():
    with pytest.raises(ParseError) as err:
        parse_network("A + B -> B + A")
    assert err.value.kind == KIND_SYNTAX


def test_error_empty_input():
    with pytest.raises(ParseError):
        parse_network("")
    with pytest.raises(ParseError):
        parse_network("# only a comment\n")


def test_catalyst_rejected_unless_allowed():
    with pytest.raises(ParseError) as err:
        parse_network("A + B -> 2B")
    assert err.value.line == 1
    net = parse_network("A + B -> 2B", allow_catalysts=True)
    assert net.allow_catalysts


def test_serialize_round_trip_fixtures():
    for name in (
        "two_ambiguous.crn",
        "deficiency_jump.crn",
        "sharp_bounds.crn",
        "one_ambiguous.crn",
        "fully_signed.crn",
        "conserving_family.crn",
    ):
        net = load(name)
        again = parse_network(serialize_network(net))
        assert again == net


def test_serialize_round_trip_rates_exact():
    net = parse_network("A <-> B ; kf=0.1, kr=3.7\nB -> C ; k=1e-3")
    again = parse_network(serialize_network(net))
    assert [r.rate for r in again.reactions] == [r.rate for r in net.reactions]


def test_serialize_nonadjacent_pair_falls_back_to_arrows():
    species = tuple(Species(n, i) for i, n in enumerate("AB"))
    fwd = Reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1}))
    mid = Reaction(Complex.from_dict({0: 2}), Complex.from_dict({1: 2}))
    rev = Reaction(Complex.from_dict({1: 1}), Complex.from_dict({0: 1}))
    net = Network(species, (fwd, mid, rev), ((0, 2),))
    text = serialize_network(net)
    assert "<->" not in text
    again = parse_network(text)
    assert stoichiometric_matrix(again) == stoichiometric_matrix(net)


def test_round_trip_random_networks(corpus):
    for net in corpus[:100]:
        again = parse_network(serialize_network(net))
        assert again == net
        # a second round trip is byte-stable
        assert serialize_network(again) == serialize_network(net)


def test_network_to_json_shape(two_ambiguous):
    body = network_to_json(two_ambiguous)
    assert body["d"] == 7
    assert body["dprime"] == 6
    assert body["species"] == ["A", "B", "C", "D", "E", "F", "G"]
    assert len(body["reactions"]) == 6
    assert body["reversible_pairs"] == [[2, 3], [4, 5]]


def test_network_json_and_text_match_the_separate_writers(corpus):
    """One formatting of each complex serves both writers: the fixed
    networks of corpus fixes (what ``analyze`` writes twice) and the
    inputs, whose "+"-joined complexes read as their terms joined by
    " + " once every "+" is spaced."""
    for net in corpus[:200]:
        for stepped in sign_fix(net).networks:
            assert network_json_and_text(stepped) == (
                network_to_json(stepped), serialize_network(stepped)
            )
        for reaction in net.reactions:
            for side in (reaction.reactant, reaction.product):
                spaced = side.format(net.species).replace("+", " + ")
                terms = [
                    (str(c) if c != 1 else "") + net.species[i].name for i, c in side.terms
                ]
                assert spaced == (" + ".join(terms) or "0")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def _json_oracle(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),  # lone surrogates included
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\té\u2028\U0001f600'),
    ),
    max_size=8,
)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 0.1]),
)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_INTS = st.one_of(st.integers(), st.integers(-(2**70), 2**70), st.sampled_from([2**64, -(2**64) - 1, 10**100]))


def _trees(floats):
    leaves = st.one_of(_TEXT, _INTS, floats, st.booleans(), st.none())

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.dictionaries(_TEXT, children, max_size=5),
            # strings, then something else: the one-join path gives up midway
            st.tuples(st.lists(_TEXT, min_size=1, max_size=4), children, st.lists(leaves, max_size=3)).map(
                lambda parts: parts[0] + [parts[1]] + parts[2]
            ),
            # ints, then something else: the int join gives up
            st.tuples(st.lists(_INTS, min_size=1, max_size=4), children, st.lists(leaves, max_size=3)).map(
                lambda parts: parts[0] + [parts[1]] + parts[2]
            ),
        )

    return st.dictionaries(_TEXT, st.recursive(leaves, containers, max_leaves=20), max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_trees(_FINITE))
def test_dump_report_matches_json_dumps(report):
    assert dump_report(report) == _json_oracle(report)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_trees(st.one_of(_FINITE, _NON_FINITE)))
def test_dump_report_names_the_first_non_finite_number_as_the_walk_did(report):
    where = oracles.non_finite_at(report)
    if where is None:
        assert dump_report(report) == _json_oracle(report)
    else:
        message = f"the report would hold a non-finite number at {where}"
        with pytest.raises(ValueError) as info:
            dump_report(report)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "report, where",
    [
        ({"a": float("nan")}, "/a"),
        ({"a": [1, "x", ["y", float("inf")]]}, "/a/2/1"),
        ({"s": ["p", "q", -float("inf"), float("nan")]}, "/s/2"),
        ({"a": ({"b": 1.0}, {"c": [0.5, float("nan")]}), "d": float("nan")}, "/a/1/c/1"),
        ({"": {"0": float("inf")}}, "//0"),
        ({"a": [1, float("nan")]}, "/a/1"),
    ],
)
def test_dump_report_non_finite_paths(report, where):
    assert oracles.non_finite_at(report) == where
    with pytest.raises(ValueError, match=f"^the report would hold a non-finite number at {where}$"):
        dump_report(report)


@pytest.mark.parametrize(
    "report",
    [
        {"a": [True, 1, False, 0, None, 2**64, -0.0]},  # bools are not written as ints
        {"a": np.float64(0.1), "b": [np.float64(1e-300)]},  # float subclasses: float.__repr__
        {"a": [[], {}, ()], "b": {"c": []}},
        {"a": "é\u2028\ud800\"\\"},
        # a list of plain ints is one join, any other list is not
        {"a": [1, True]},
        {"a": [True, 1]},
        {"a": [1, 2**70, -3]},
        {"a": [1, "a"]},
        {"a": [1, 2.5]},
        {"a": list(_Level), "b": [_Level.LOW, 2]},  # int subclasses: int.__repr__
    ],
)
def test_dump_report_matches_json_dumps_on_edge_cases(report):
    assert dump_report(report) == _json_oracle(report)


@pytest.mark.parametrize(
    "report, json_writes_it",
    [
        ({(1, 2): "tuple key"}, False),
        ({"a": object()}, False),
        ({"a": ["x", b"bytes"]}, False),
        ({"a": [1, {2}]}, False),
        ({"a": Fraction(1, 2)}, False),
        ({"a": np.int64(3)}, False),
        # json.dumps writes these keys as "1" and "null"; no report has one
        ({1: "int key"}, True),
        ({"a": {None: 1}}, True),
    ],
)
def test_dump_report_refuses_non_str_keys_and_unknown_values(report, json_writes_it):
    with pytest.raises(TypeError):
        dump_report(report)
    if not json_writes_it:
        with pytest.raises(TypeError):
            _json_oracle(report)


def test_dump_report_matches_json_dumps_on_corpus_reports(corpus, tmp_path):
    """Every ``analyze`` report body of the 500-network corpus."""
    path = tmp_path / "net.crn"
    parser = cli._build_parser()
    for net in corpus:
        path.write_text(network_text(net), encoding="utf-8")
        args = parser.parse_args(["analyze", str(path)])
        body = args.func(args).body
        assert dump_report(body) == _json_oracle(body)
