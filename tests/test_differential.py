"""The token regex of the ``.crn`` scanner, the one-pass sign fix with
its spliced stepped networks, the incremental-rank audit with its
one-pass recount, the index-permuted order relation, the integer exact
core, the elimination with one level per row, the mass-action float
kernel with its monomial table, the stacked determinant-sign sampling,
the integer sign layer, the kernel-correspondence check on cached
kernels, the characteristic polynomial interpolated from determinants,
the sparse exact Jacobian, the readers of S through its nonzeros, the
audit on interned complex ids and the bad 4-cycle search over the
reactions a species pair shares, each against the implementation it
replaced (``oracles``)."""

import dataclasses
import importlib
import random
import string
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import record_cli_golden
from conftest import FIXTURES, fixture_text, is_canonical, load, network_text
from crnsign.textio import parse_network
from crnsign import exactla, kinetics, signfix, spectra, textio
from crnsign.deficiency import (
    check_single_positive_column,
    complexes_decomposition,
    complexes_of,
    decomposition_residual,
    delta_audit,
)
from crnsign.exactla import determinant, is_conserving, kernel_basis, rank
from crnsign.graphio import CONSUMED, PRODUCED, Edge, SRGraph, build_graph, find_bad_cycles
from crnsign.model import Complex, Network, RationalMatrix, Reaction, Species, stoichiometric_matrix
from crnsign.signcheck import (
    BadClass,
    Sign,
    _bad_classes,
    Status,
    find_bad_submatrices,
    hermitian_square_status,
    jacobian_sign_status,
    sign_pattern,
)
from crnsign.signfix import (
    FixReport,
    _bordered_form,
    fix_one_report,
    sign_fix,
    verify_permutation_relation,
)


# ------------------------------------------------------------- .crn scanner


def _scan(tokenize, line):
    """The tokens of a line, or the position, message and kind of its error."""
    try:
        return tokenize(line, 1)
    except textio.ParseError as exc:
        return (exc.line, exc.column, exc.message, exc.kind)


def _assert_scans_like_oracle(line):
    """An ASCII line scans as the character loop scanned it.  A line with a
    non-ASCII character outside a comment is an unexpected character at
    the first one, unless its ASCII head is an error already."""
    first = next((i for i, ch in enumerate(line) if not ch.isascii()), len(line))
    if first == len(line) or "#" in line[:first]:
        assert _scan(textio._tokenize, line) == _scan(oracles.tokenize, line)
        return
    expected = _scan(oracles.tokenize, line[:first])
    if isinstance(expected, list):
        expected = (1, first + 1, f"unexpected character {line[first]!r}", "syntax")
    assert _scan(textio._tokenize, line) == expected


def test_scanner_matches_oracle_on_fixture_corpus_and_kinetics_lines(corpus, kinetics_networks):
    texts = [fixture_text(p.name) for p in FIXTURES.glob("*.crn")]
    texts += [network_text(net) for net in corpus + kinetics_networks]
    lines = {line for text in texts for line in text.splitlines()}
    assert len(lines) > 1000
    for line in lines:
        _assert_scans_like_oracle(line)


@settings(max_examples=2000, deadline=None)
@given(st.text(st.sampled_from(string.printable[:95] + "\t")))
def test_scanner_matches_oracle_on_printable_ascii(line):
    _assert_scans_like_oracle(line)


# Pieces that make numbers, names and arrows, and their near misses.
_PIECES = [
    "0", "1", "25", ".", "5", "e", "E", "+", "-", "/", "3", "A", "B'", "_x", "k", "kf", "=",
    ">", "<", "<->", "->", ";", ",", "#", " ", "\t", "1e-3", "2/3", "1.5e+2", "é", "²", "٣", "Ａ", "\u00a0",
]


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
@example("A -> 1e5000B")
@example("species A, é")
@example("A -> Bé # é")
def test_scanner_matches_oracle_on_grammar_pieces(line):
    _assert_scans_like_oracle(line)


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


def _assert_validated(net):
    """A network spliced by a fixing step is the one the validating
    constructor builds from the same fields."""
    built = Network(
        net.species, net.reactions, net.reversible_pairs, allow_catalysts=net.allow_catalysts
    )
    assert net == built
    assert hash(net) == hash(built)
    assert repr(net) == repr(built)


def _assert_same_run(net, order=None):
    report = sign_fix(net, order=order)
    assert report == oracles.sign_fix(net, order=order)
    assert delta_audit(report) == oracles.delta_audit(report)
    for stepped in report.networks:
        _assert_validated(stepped)
    return report


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_fix_and_audit_match_oracles_on_fixtures(name):
    _assert_same_run(load(name))


def test_fix_and_audit_match_oracles_on_corpus(corpus):
    for net in corpus:
        _assert_same_run(net)


def test_fix_and_audit_match_oracles_on_large_networks(large_networks):
    for net in large_networks:
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


# ------------------------------------------- certificate of the fixed S


def _fresh(M):
    """A copy of the matrix with an empty cache."""
    return RationalMatrix._of_nonzeros(M.rows, M.cols, M.nonzeros())


def _assert_certified_like_recomputed(net):
    """The bordered-form certificate accepts the fixed S of the run, and
    what it certifies equals the full recomputation on a fresh copy: the
    audit's final rank, the number of steps plus the rank of a cache-free
    copy of S, that of ``exactla.rank``, and "no bad class" the
    enumeration's."""
    report = sign_fix(net)
    S, fixed = stoichiometric_matrix(net), stoichiometric_matrix(report.result)
    assert _bordered_form(S, fixed, report.steps)
    assert len(report.steps) + rank(_fresh(S)) == rank(_fresh(fixed))
    assert _bad_classes(_fresh(fixed)) == ()
    delta_audit(report)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_certificate_matches_recomputation_on_fixtures(name):
    _assert_certified_like_recomputed(load(name))


def test_certificate_matches_recomputation_on_corpus(corpus):
    for net in corpus:
        _assert_certified_like_recomputed(net)


def test_certificate_matches_recomputation_on_large_networks(large_networks):
    for net in large_networks:
        _assert_certified_like_recomputed(net)


_TERM_COEFFICIENTS = ["", "2 ", "3", "1/2 ", "3/2 ", "2/3 ", "7/4", "0.5 "]


@st.composite
def network_texts(draw, catalysts):
    """``.crn`` text of up to 8 lines over up to 5 species: fractional
    coefficients, a species repeated within a complex, the zero complex
    and reversible pairs.  With ``catalysts`` a species may sit on both
    sides of a reaction; otherwise each reaction's two sides draw from
    disjoint species."""
    names = [f"X{i}" for i in range(draw(st.integers(2, 5)))]

    def side(pool):
        if not pool or draw(st.integers(0, 7)) == 0:
            return "0"
        terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        return " + ".join(draw(st.sampled_from(_TERM_COEFFICIENTS)) + name for name in terms)

    lines = []
    for _ in range(draw(st.integers(2, 8))):
        if catalysts:
            left = right = names
        else:
            shuffled = draw(st.permutations(names))
            cut = draw(st.integers(0, len(names)))
            left, right = shuffled[:cut], shuffled[cut:]
        reactant, product = side(left), side(right)
        if reactant == product == "0":  # not a reaction
            product = (right or left)[0]
        lines.append(f"{reactant} {draw(st.sampled_from(['->', '<->']))} {product}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda c: st.tuples(st.just(c), network_texts(c))))
def test_a_genuine_run_is_never_refused(drawn):
    """Over generated networks of the whole input grammar, catalysts
    included where ``sign_fix`` accepts the network, the certificate
    accepts every full run and every one-step report, and the audit,
    which raises on a refused certificate, gives the oracle's records;
    enumerating the fixed S finds no class."""
    catalysts, text = drawn
    try:
        net = parse_network(text, allow_catalysts=catalysts)
    except (textio.ParseError, ValueError):
        assume(False)
    try:
        report = sign_fix(net)
    except ValueError:
        # a class's species consumed by its own reaction (a catalyst)
        assume(False)
    S, fixed = stoichiometric_matrix(net), stoichiometric_matrix(report.result)
    assert _bordered_form(S, fixed, report.steps)
    assert _bad_classes(_fresh(fixed)) == ()
    assert delta_audit(report) == oracles.delta_audit(report)
    if report.steps:
        one = fix_one_report(net)
        assert _bordered_form(S, stoichiometric_matrix(one.result), one.steps)
        assert delta_audit(one) == oracles.delta_audit(one)


def _with_rows(M, changes):
    """M with the rows in ``changes`` ({row: {column: value}}) updated; a
    value of 0 removes the entry."""
    rows = list(M.nonzeros())
    for i, update in changes.items():
        entries = {**dict(rows[i]), **update}
        rows[i] = tuple(sorted((j, v) for j, v in entries.items() if v != 0))
    return RationalMatrix._of_nonzeros(M.rows, M.cols, tuple(rows))


def _forgeries(report):
    """Forged (kind, fixed S, steps, chain) from a run of at least two
    steps: the chain holds the networks the forged steps are replayed on,
    its last network's S read as the forged fixed S."""
    S, fixed, steps, chain = (
        stoichiometric_matrix(report.original), stoichiometric_matrix(report.result),
        report.steps, report.networks,
    )
    d, n = S.rows, S.cols
    (q, p2), ell = steps[0].zeroed_entry, steps[0].modified_column
    top, (j, v) = next((i, row[0]) for i, row in enumerate(fixed.nonzeros()[:d]) if row and row[0][0] < n)
    free = 1 if ell == 0 else 0  # a column < n where added row d is 0
    targets = {(step.zeroed_entry[0], step.modified_column) for step in steps}
    positive = [(i, j) for i, row in enumerate(S.nonzeros()) for j, x in row if x > 0]
    yield "zeroed entry restored", _with_rows(fixed, {q: {ell: p2}}), steps, chain
    yield "top-row entry doubled", _with_rows(fixed, {top: {j: 2 * v}}), steps, chain
    yield "top-row entry negated", _with_rows(fixed, {top: {j: -v}}), steps, chain
    yield "added row with an extra nonzero", _with_rows(fixed, {d: {free: -1}}), steps, chain
    yield "added row with a nonzero in another added column", _with_rows(fixed, {d: {n + 1: 1}}), steps, chain
    yield "wrong p2 in an added column", _with_rows(fixed, {q: {n: p2 + 1}}), steps, chain
    yield "added column nonzero in another top row", _with_rows(fixed, {(q + 1) % d: {n: 1}}), steps, chain
    yield "zeroed entry not a class entry", fixed, (
        dataclasses.replace(steps[0], modified_column=free),
    ) + steps[1:], chain
    for i, j in [e for e in positive if e not in targets][:1]:
        yield "zeroed entry another positive entry", fixed, (
            dataclasses.replace(steps[0], zeroed_entry=(i, p2), modified_column=j),
        ) + steps[1:], chain
        # A true bordering whose last step zeroes that entry instead of its class's
        current, step = signfix._rewrite(chain[-2], BadClass((i, j), ()), 1.0)
        yield TRUE_BORDERINGS[0], stoichiometric_matrix(current), steps[:-1] + (step,), chain[:-1] + (current,)
    yield TRUE_BORDERINGS[1], stoichiometric_matrix(chain[-2]), steps[:-1], chain[:-1]
    yield "a step repeated", fixed, steps[:1] + steps[:-1], chain


# The forgeries that are true borderings of S, at entries other than
# exactly S's classes: only ``sign_fix``'s class condition refuses them.
TRUE_BORDERINGS = ("bordered at an entry of no class", "a step dropped")


def _raised(run):
    """The message of the AssertionError that ``run()`` raises, or None."""
    try:
        run()
    except AssertionError as exc:
        return str(exc)
    return None


def _replayed(net, fixed, steps, chain, monkeypatch):
    """What ``sign_fix`` of net and ``delta_audit`` of the chain raise
    when the forged steps are the run's and the chain's last network has
    the forged fixed S: ``sign_fix``'s rewrites hand out the chain's
    networks and the forged steps, so it replays only as many steps as
    the network has classes, and both modules read the forged S in place
    of the last network's own."""
    real = stoichiometric_matrix
    with monkeypatch.context() as patch:
        # the package exports the function ``deficiency``, not the module
        for module in (signfix, importlib.import_module("crnsign.deficiency")):
            patch.setattr(module, "stoichiometric_matrix", lambda m: fixed if m is chain[-1] else real(m))
        replay = iter(zip(chain[1:], steps))
        patch.setattr(signfix, "_rewrite", lambda current, target, rate: next(replay))
        fixing = _raised(lambda: sign_fix(net)) if len(steps) == _class_count(net) else None
        report = FixReport(tuple(steps), tuple(chain), tuple(range(len(steps))))
        return fixing, _raised(lambda: delta_audit(report))


def test_forged_fixed_s_is_refused_and_raises(large_networks, monkeypatch):
    """Each forgery of the fixed S, or of the steps it is read against, is
    refused: ``sign_fix`` raises, and so does ``delta_audit``, at its
    check of a step's bordering or at the certificate of the fixed S,
    never ranking the forged S instead.  Two forgeries are true
    borderings of S at entries other than exactly S's classes, one of
    them replayed on one step fewer than the network has classes: the
    certificate accepts them, S's classes refuse them in ``sign_fix``
    (each leaves a bad class), and the audit certifies them with the
    oracle's rank."""
    kinds = set()
    nets = [load(name) for name in ("two_ambiguous.crn", "deficiency_jump.crn", "conserving_family.crn")]
    for net in nets + [large_networks[0]]:
        report = sign_fix(net)
        assert len(report.steps) >= 2
        S = stoichiometric_matrix(net)
        classes = [cls.positive_entry for cls in find_bad_submatrices(S)]
        for kind, fixed, steps, chain in _forgeries(report):
            kinds.add(kind)
            fixing, auditing = _replayed(net, fixed, steps, chain, monkeypatch)
            targets = sorted((step.zeroed_entry[0], step.modified_column) for step in steps)
            if kind in TRUE_BORDERINGS:
                assert _bordered_form(S, fixed, steps), kind
                assert targets != classes and _bad_classes(_fresh(fixed)), kind
                assert auditing is None, kind
                assert len(steps) + rank(_fresh(S)) == oracles.rank(fixed), kind
            else:
                assert not _bordered_form(S, fixed, steps), kind
                assert auditing is not None, kind
                if steps == report.steps:
                    assert auditing == "final network's S is not S bordered by the steps", kind
            if kind == TRUE_BORDERINGS[1]:
                assert fixing is None  # fewer steps than classes: not replayed
            else:
                assert fixing == "fixed matrix is not S bordered at its classes: bad classes may remain", kind
    assert len(kinds) == 12


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


@pytest.mark.parametrize("size, seed", [((20, 30), 5), ((30, 80), 3)], ids=["20x30", "30x80"])
@pytest.mark.parametrize(
    "make, conserving",
    [(record_cli_golden.weighted_conserving_text, True), (record_cli_golden.blocked_text, False)],
    ids=["weighted", "blocked"],
)
def test_conservation_matches_oracle_on_weighted_law_networks(make, conserving, size, seed):
    """A weighted law leaves the simplex a nonzero right-hand side, so it
    pivots to a witness; the blocked variant's left kernel holds no
    positive vector, and the run ends when no column of S^t can lower the
    objective.  Result and witness equal the Fraction oracle's, which
    pivots on to the end of Bland's rule."""
    S = stoichiometric_matrix(parse_network(make(*size, seed)))
    assert kernel_basis(S, "left").dim > 0
    result = is_conserving(S)
    assert result.conserving is conserving
    assert result == oracles.is_conserving(S)


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


@st.composite
def threshold_matrices(draw):
    """Sparse integer matrices with rows * cols on both sides of
    ``exactla.MOD_P_MIN_ENTRIES`` and of both orientations, some with
    planted dependent rows or columns, some with a whole row a multiple
    of the prime (a row the rank over Q counts and the rank mod p does
    not)."""
    rows, cols = draw(st.integers(12, 32)), draw(st.integers(12, 32))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    a = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        a[i] = [x + 2 * y for x, y in zip(a[j], a[k])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i, j = (draw(st.integers(0, cols - 1)) for _ in range(2))
        for row in a:
            row[i] = -row[j]
    if draw(st.booleans()):
        i = draw(st.integers(0, rows - 1))
        a[i] = [exactla.PRIME * x for x in a[i]]
    return RationalMatrix(a)


def _threshold_examples():
    """Fixed inputs for the rank differential, all at or above
    ``exactla.MOD_P_MIN_ENTRIES`` entries: a 20 x 30 matrix of full row
    rank whose pivot block holds PRIME on its diagonal (rank mod p 19, and
    a lift that fails its certificate), and wide and tall matrices with
    entries beyond int64, of full rank (certified by the elimination mod p
    alone) and of short rank (a lift refused by its int64 bound)."""
    rng, p, big = random.Random(1), exactla.PRIME, 10**30
    p_led = [[p if j == i == 7 else int(j == i) for j in range(20)]
             + [rng.randint(-3, 3) * (p if i == 7 else 1) for _ in range(10)] for i in range(20)]
    full = [[big * rng.randint(-2, 2) + rng.randint(-1, 1) for _ in range(25)] for _ in range(20)]
    short = list(full)
    short[5] = [x + 2 * y for x, y in zip(full[1], full[2])]
    short[6] = [Fraction(x, big + 7) for x in full[3]]
    out = [RationalMatrix(p_led)]
    for a in (full, short):
        out += [RationalMatrix(a), RationalMatrix([list(column) for column in zip(*a)])]
    return out


@settings(max_examples=60, deadline=None)
@given(threshold_matrices(), st.permutations(["rank", "right", "left"]))
@example(_threshold_examples()[0], ["rank", "right", "left"])
@example(_threshold_examples()[1], ["left", "rank", "right"])
@example(_threshold_examples()[2], ["right", "left", "rank"])
@example(_threshold_examples()[3], ["rank", "left", "right"])
@example(_threshold_examples()[4], ["left", "right", "rank"])
def test_rank_and_kernels_match_oracle_across_the_mod_p_threshold(S, order):
    """In any call order on a fresh matrix, the rank and both kernels,
    whether lifted, read from the cache or eliminated by Bareiss, equal
    the Fraction oracle's.  So does ``rank`` of a fresh matrix, and the
    rank a computed kernel stores with it, on a matrix with only its right
    or only its left kernel computed, which ``rank`` then reads."""
    expected = {
        "rank": oracles.rank(S),
        "right": oracles.kernel_basis(S, "right"),
        "left": oracles.kernel_basis(S, "left"),
    }
    fresh = RationalMatrix(S.entries())
    for what in order:
        got = rank(fresh) if what == "rank" else kernel_basis(fresh, what)
        assert got == expected[what], what
    assert rank(RationalMatrix(S.entries())) == expected["rank"]
    for side, other in (("right", "left"), ("left", "right")):
        cached = RationalMatrix(S.entries())
        assert kernel_basis(cached, side) == expected[side]
        assert cached._cache["rank"] == expected["rank"], side
        assert ("kernel", other) not in cached._cache
        assert rank(cached) == expected["rank"], side


def _assert_same_elimination(rows):
    """Rows, pivots, D and sign of the elimination with deferred scalings
    equal the eager oracle's, reduced and echelon alike."""
    for reduce in (True, False):
        got = exactla._eliminate([list(row) for row in rows], reduce)
        assert got == oracles._eliminate([list(row) for row in rows], reduce), reduce


def _elimination_inputs(S):
    """The integer rows the kernels and ranks eliminate: S and S^t."""
    entries = S.entries()
    return oracles._cleared_rows(entries), oracles._cleared_rows(tuple(zip(*entries)))


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_elimination_matches_eager_oracle_on_fixtures(name):
    net = load(name)
    for S in (stoichiometric_matrix(net), stoichiometric_matrix(sign_fix(net).result)):
        for rows in _elimination_inputs(S):
            _assert_same_elimination(rows)


def test_elimination_matches_eager_oracle_on_large_networks(large_networks):
    for net in large_networks:
        for S in (stoichiometric_matrix(net), stoichiometric_matrix(sign_fix(net).result)):
            for rows in _elimination_inputs(S):
                _assert_same_elimination(rows)


@st.composite
def integer_matrices(draw):
    """Integer rows with a drawn share of zero entries (from none to all),
    some rows and columns zeroed, and some rows combinations of others
    (rank-deficient); 1 x n and n x 1 included."""
    rows, cols = draw(_SHAPES)
    zeros = draw(st.integers(0, 10))  # out of 10
    entry = st.tuples(st.integers(0, 9), st.integers(-30, 30)).map(
        lambda t: 0 if t[0] < zeros else t[1]
    )
    a = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        a[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in a:
            row[j] = 0
    for i in draw(st.sets(st.integers(1, rows - 1), max_size=rows)) if rows > 1 else ():
        weights = draw(st.lists(st.integers(-3, 3), min_size=i, max_size=i))
        a[i] = [sum(w * a[k][j] for k, w in enumerate(weights)) for j in range(cols)]
    return a


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
# Two zero columns, a row swap at the first pivot, and a row with a zero
# at the second pivot's column, so only scaled there (piv * x // prev),
# then updated at the third, where the division by the previous pivot 2
# must still be exact.  An elimination that deferred its row scalings
# divided this row inexactly.
@example([[0, 0, 0, 1, 0], [0, 0, 0, 2, 1], [0, 0, 1, 0, 1]])
def test_elimination_matches_eager_oracle_on_integer_matrices(a):
    _assert_same_elimination(a)


# ------------------------------------------------------- mass-action kernel

# Zeros of both signs, subnormals, ordinary values, and values whose powers
# overflow (the OverflowError path of ``kinetics.MonomialTable``).
SPECIAL_STATES = [0.0, -0.0, 5e-324, 2.5e-310, 1e-200, 0.3, 1.0, 2.0, 7.5, 1e200, 1.7e308]
# psi does no sign check: negative bases, with fractional exponents (the
# complex-result path of ``kinetics.MonomialTable``) and integer ones.
NEGATIVE_STATES = [-5e-324, -0.5, -1.0, -3.0, -1e200]


def _same_bits(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.array_equal(new, old, equal_nan=True), (new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old)), (new, old)


def _same_int64(new, old):
    """Equal bit for bit, nan payloads and zero signs included."""
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.int64), old.view(np.int64)), (new, old)


def _assert_same_monomials(starts, terms, d, states):
    """A monomial table on each state and on the whole stack of states
    equals the per-term oracle loop on each state."""
    table, start_array = kinetics.MonomialTable(terms, d), np.array(starts, dtype=float)
    stack = np.array(states, dtype=float).reshape(len(states), d)
    expected = np.array(
        [oracles.monomials(starts, terms, x.tolist()) for x in stack], dtype=float
    ).reshape(len(states), len(terms))
    for x, row in zip(stack, expected):
        _same_int64(table(x, start_array), row)
    _same_int64(table(stack, start_array), expected)


def _assert_same_kernel(net, rates, states):
    """The float S, exponents, fluxes, right-hand sides, Jacobians at
    positive states, and the decomposition (Y, A_k, psi, residual) equal
    the oracle's bit for bit, and so do the flux and psi monomial tables
    against the per-term loop, state by state and stacked; negative
    states go to psi and the tables alone."""
    new, old = kinetics.MassActionSystem(net, rates), oracles.MassActionSystem(net, rates)
    _same_bits(new._S, old._S)
    assert new.exponents == old.exponents
    decomposition = complexes_decomposition(new)
    Y, a_k, psi = decomposition
    old_Y, old_a_k, old_psi = oracles.complexes_decomposition(old)
    assert Y == old_Y
    _same_bits(a_k, old_a_k)
    complex_terms = tuple(
        tuple((j, float(c)) for j, c in cx.terms) for cx in complexes_of(net)
    )
    with np.errstate(all="ignore"):  # overflow and nan are inputs here
        _assert_same_monomials(rates, new.exponents, net.species_count, states)
        _assert_same_monomials([1.0] * len(complex_terms), complex_terms, net.species_count, states)
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


def _assert_same_simulation(net, rates, x0, t_end, dt):
    """``kinetics.simulate`` gives the frozen oracle's times and states bit
    for bit, or raises its ``ValueError`` with the same text; returns the
    outcome (the error text if it raised).

    The oracle's flux refuses a non-finite stage state ("state must be
    finite"), where ``simulate`` finishes the step and reports leaving
    the orthant at its end.  There both must agree on every step before
    that one."""
    outcomes = []
    for module in (kinetics, oracles):
        try:
            outcomes.append(module.simulate(module.MassActionSystem(net, rates), x0, t_end, dt))
        except ValueError as exc:
            outcomes.append(str(exc))
    new, old = outcomes
    if old == "state must be finite":
        assert new.startswith("trajectory left the nonnegative orthant at t="), new
        steps = round(float(new.split("t=")[1].split(";")[0]) / dt) - 1
        if steps > 0:
            assert not isinstance(_assert_same_simulation(net, rates, x0, steps * dt, dt), str)
    elif isinstance(new, str) or isinstance(old, str):
        assert new == old
    else:
        _same_bits(new[0], old[0])
        _same_bits(new[1], old[1])
    return new


def test_simulate_matches_oracle_trajectory(kinetics_networks):
    """Every ``kinetics`` network as the workload simulates it (network 2
    leaves the orthant at t=2.89, several check blocks in), and every
    fixture at drawn rates."""
    outcomes = []
    for net in kinetics_networks:
        x0 = [1.0] * net.species_count
        outcomes.append(_assert_same_simulation(net, [r.rate for r in net.reactions], x0, 5.0, 0.01))
    assert outcomes[0][1].shape == (501, kinetics_networks[0].species_count)
    assert outcomes[2] == "trajectory left the nonnegative orthant at t=2.89; reduce dt"
    for path in sorted(FIXTURES.glob("*.crn")):
        net = load(path.name)
        rng = random.Random(path.name)
        rates = [10 ** rng.uniform(-1, 1) for _ in range(net.reaction_count)]
        x0 = [10 ** rng.uniform(-1, 1) for _ in range(net.species_count)]
        _assert_same_simulation(net, rates, x0, 5.0, 0.01)


def test_monomial_table_pads_short_rows_and_shares_powers():
    """Rows of different widths, an empty row, exponent 1 read directly
    and one power slot for a (species, exponent) pair used twice: three
    powers and the padding slot."""
    terms = (((0, 2.0), (1, 1.0), (2, 0.5)), (), ((0, 2.0),), ((1, 1.0), (0, 3.0)))
    table = kinetics.MonomialTable(terms, 3)
    assert table._pow_exponents == [0.0, 2.0, 0.5, 3.0]
    states = [[1.3, 0.7, 2.9], [0.0, -0.0, 5e-324], [1e200, 2.0, 1e-300], [-2.0, float("nan"), 3.0]]
    with np.errstate(all="ignore"):
        _assert_same_monomials([2.0, 3.0, 0.5, 1.5], terms, 3, states)
        # only empty monomials: every factor is padding
        _assert_same_monomials([2.0, 0.5], ((), ()), 3, states)


def _parent_dets(sys, fixed, points):
    """(det, threshold) of J and of J_k at each point, one point at a time,
    as ``oracles.det_sign_sampling`` computes them."""
    def det_and_scale(matrix):
        hadamard = float(np.prod(np.linalg.norm(matrix, axis=1)))
        return float(np.linalg.det(matrix)), 1e-9 * (1.0 + hadamard)

    dets_j, dets_jk = [], []
    for x in points:
        arr = np.asarray(x, dtype=float)
        dets_j.append(det_and_scale(kinetics.jacobian(sys, arr)))
        dets_jk.append(det_and_scale(kinetics.jacobian(fixed, np.concatenate([arr, [1.0]]))))
    return dets_j, dets_jk


def _assert_same_sampling(sys, report, points, k, monkeypatch):
    """The stacked sampling gives the oracle's signs and, stack by stack,
    the point-by-point (det, threshold) pairs bit for bit."""
    recorded = []
    stacked = spectra._dets_and_thresholds

    def record(jacobians):
        recorded.append(stacked(jacobians))
        return recorded[-1]

    monkeypatch.setattr(spectra, "_dets_and_thresholds", record)
    with np.errstate(all="ignore"):
        new = spectra.det_sign_sampling(sys, report, points, k)
        old = oracles.det_sign_sampling(sys, report, points, k)
        dets_j, dets_jk = _parent_dets(sys, spectra._fixed_system(sys, report, k), points)
    assert new == old
    # the recorder saw J then J_k for each stack of at most 32 points
    assert len(recorded) == 2 * -(-len(points) // spectra._STACK)
    new_j = [pair for stack in recorded[0::2] for pair in stack]
    new_jk = [pair for stack in recorded[1::2] for pair in stack]
    for new_pairs, old_pairs in ((new_j, dets_j), (new_jk, dets_jk)):
        _same_int64(np.array(new_pairs).reshape(-1, 2), np.array(old_pairs).reshape(-1, 2))
    return new


def _one_step_systems(nets, rng):
    """(system, one-step report) for each network that has a bad class."""
    out = []
    for net in nets:
        try:
            report = fix_one_report(net)
        except ValueError:
            continue
        rates = [r.rate if r.rate is not None else 10 ** rng.uniform(-1, 1) for r in net.reactions]
        out.append((kinetics.MassActionSystem(net, rates), report))
    return out


def _sample(rng, d, count):
    return [[10 ** rng.uniform(-1, 1) for _ in range(d)] for _ in range(count)]


@pytest.mark.parametrize("count", [1, 31, 32, 33, 70])
def test_det_sign_sampling_matches_oracle_on_kinetics_networks(kinetics_networks, count, monkeypatch):
    rng = random.Random(count)
    systems = _one_step_systems(kinetics_networks, rng)
    assert len(systems) >= 15
    for sys, report in systems:
        points = _sample(rng, sys.species_count, count)
        _assert_same_sampling(sys, report, points, rng.choice([1.0, 10.0, 1e3]), monkeypatch)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_det_sign_sampling_matches_oracle_on_fixtures(name, monkeypatch):
    rng = random.Random(name)
    for sys, report in _one_step_systems([load(name)], rng):
        d = sys.species_count
        # ordinary points, then extreme ones whose powers overflow
        points = _sample(rng, d, 45) + [[rng.choice([1e-300, 1e-5, 1e5, 1e200]) for _ in range(d)]
                                        for _ in range(20)]
        _assert_same_sampling(sys, report, points, 1.0, monkeypatch)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(lambda d: [1.0] * (d - 1) + [0.0], id="zero"),
        pytest.param(lambda d: [float("nan")] + [1.0] * (d - 1), id="nan"),
        pytest.param(lambda d: [1.0] * (d + 1), id="wrong-length"),
    ],
)
def test_det_sign_sampling_rejects_a_bad_point_like_the_oracle(kinetics_networks, bad):
    """A bad point in the middle raises the oracle's error, before any
    stack is evaluated."""
    (sys, report), = _one_step_systems(kinetics_networks[:1], random.Random(5))
    rng = random.Random(6)
    d = sys.species_count
    points = _sample(rng, d, 40) + [bad(d)] + _sample(rng, d, 40)
    errors = []
    for sampling in (spectra.det_sign_sampling, oracles.det_sign_sampling):
        with pytest.raises(ValueError) as info:
            sampling(sys, report, points)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_eigen_convergence_matches_fresh_systems(kinetics_networks, monkeypatch):
    """Reports whose fixed systems share the fixed network's cached
    tables equal, in every bit ``repr`` shows, those whose fixed system
    at each k is built from fresh tables, on an equal new ``Network``."""
    grid = [float(k) for k in np.geomspace(1.0, 1e6, 7)]
    systems = _one_step_systems(kinetics_networks, random.Random(7))
    new = [
        spectra.eigen_convergence(sys, report, [1.0] * (sys.species_count + 1), grid)
        for sys, report in systems
    ]
    monkeypatch.setattr(
        spectra,
        "_fixed_system",
        lambda sys, report, k: kinetics.MassActionSystem(
            _uncached(report.result), tuple(sys.rates) + (float(k),)
        ),
    )
    old = [
        spectra.eigen_convergence(sys, report, [1.0] * (sys.species_count + 1), grid)
        for sys, report in systems
    ]
    assert [repr(r) for r in new] == [repr(r) for r in old]


def _uncached(net):
    """An equal ``Network`` object that holds none of ``net``'s caches."""
    fresh = dataclasses.replace(net)
    assert fresh == net and not hasattr(fresh, "_kinetics")
    return fresh


def test_cached_tables_match_a_fresh_network(kinetics_networks):
    """A system over a network whose tables are cached, at other rates
    than the system that built them, equals a system over an equal fresh
    network bit for bit, and checks its rates with the same messages."""
    rng = random.Random(11)
    for net in kinetics_networks:
        base = kinetics.MassActionSystem(net, [r.rate for r in net.reactions])
        rates = [10 ** rng.uniform(-3, 3) for _ in range(net.reaction_count)]
        cached = kinetics.MassActionSystem(net, rates)
        fresh = kinetics.MassActionSystem(_uncached(net), rates)
        assert cached.rates == fresh.rates and cached._S is base._S and fresh._S is not base._S
        for x in _sample(rng, net.species_count, 3):
            _same_int64(kinetics.jacobian(cached, x), kinetics.jacobian(fresh, x))
            _same_int64(kinetics.flux(cached, x), kinetics.flux(fresh, x))
        # the system that built the tables keeps its own rates
        _same_int64(
            kinetics.flux(base, x),
            kinetics.flux(kinetics.MassActionSystem(_uncached(net), [r.rate for r in net.reactions]), x),
        )
    count = net.reaction_count
    for bad in ([1.0] * (count - 1) + [0.0], [float("inf")] + [1.0] * (count - 1), [1.0] * (count - 1)):
        errors = []
        for network in (net, _uncached(net)):
            with pytest.raises(ValueError) as info:
                kinetics.MassActionSystem(network, bad)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def _autocatalytic_pair():
    """2A -> 3B and 2B -> 3A: from a large enough start, RK4 overshoots."""
    return Network(
        (Species("A", 0), Species("B", 1)),
        (Reaction(Complex.from_dict({0: 2}), Complex.from_dict({1: 3})),
         Reaction(Complex.from_dict({1: 2}), Complex.from_dict({0: 3}))),
    )


@pytest.mark.parametrize("x0, dt", [([3.0, 1.0], 0.07), ([30.0, 1.0], 0.013)])
def test_simulate_orthant_error_matches_oracle(x0, dt):
    """Leaving the orthant a few steps in gives the oracle's message,
    whose time is the previous step's time plus dt."""
    error = _assert_same_simulation(_autocatalytic_pair(), [1.0, 1.0], x0, 10.0, dt)
    assert error.startswith("trajectory left the nonnegative orthant")


def test_simulate_orthant_error_after_more_than_one_check_block():
    """Leaving the orthant in a later check block names the first step
    outside it, as the oracle's test after every step does."""
    dt = 0.05
    error = _assert_same_simulation(_autocatalytic_pair(), [1.0, 1.0], [0.1, 0.1], 20.0, dt)
    assert error == "trajectory left the nonnegative orthant at t=10.15; reduce dt"
    assert round(10.15 / dt) > kinetics.CHECK_BLOCK


def test_simulate_pow_overflow_mid_run_matches_oracle(monkeypatch):
    """2A -> 3A blows up in finite time: some steps in, a stage's pow
    overflows (``OverflowError``, so that power is numpy's inf) and the
    run leaves the orthant with the oracle's message."""
    net = Network(
        (Species("A", 0),),
        (Reaction(Complex.from_dict({0: 2}), Complex.from_dict({0: 3})),),
        allow_catalysts=True,
    )
    overflowed = []
    numpy_pow = kinetics._numpy_pow
    monkeypatch.setattr(
        kinetics, "_numpy_pow", lambda x, e: overflowed.append((x, e)) or numpy_pow(x, e)
    )
    error = _assert_same_simulation(net, [1.0], [2.0], 5.0, 0.01)
    assert error == "trajectory left the nonnegative orthant at t=0.53; reduce dt"
    base, exponent = overflowed[0]
    assert exponent == 2.0 and base > 1.35e154  # its square is beyond the float range


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rated_networks(), st.data())
def test_simulate_matches_oracle_on_random_networks(net_rates, data):
    """Drawn states (zeros included) and steps, up to 150 of them: the
    same trajectory bits as the oracle, or the same orthant error."""
    net, rates = net_rates
    d = net.species_count
    x0 = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 10)), min_size=d, max_size=d))
    dt = data.draw(st.floats(1e-3, 0.5))
    steps = data.draw(st.integers(1, 150))
    _assert_same_simulation(net, rates, x0, steps * dt, dt)


# ------------------------------------------------------------ sign layer


def _assert_same_signs(net):
    """The sign pattern of S, the statuses of A A^t and of the Jacobian
    (or the same reaction-form error) and the bad classes, member order
    included, equal the oracle's."""
    S = stoichiometric_matrix(net)
    pattern = sign_pattern(S)
    assert pattern == oracles.sign_pattern(S)
    assert hermitian_square_status(pattern) == oracles.hermitian_square_status(pattern)
    assert find_bad_submatrices(S) == oracles.find_bad_submatrices(S)
    try:
        expected = oracles.jacobian_sign_status(net)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            jacobian_sign_status(net)
        assert str(err.value) == str(exc)
    else:
        assert jacobian_sign_status(net) == expected


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_sign_layer_matches_oracle_on_fixtures(name):
    _assert_same_signs(load(name))


def test_sign_layer_matches_oracle_on_corpus(corpus):
    for net in corpus:
        _assert_same_signs(net)


def test_sign_layer_matches_oracle_on_large_networks(large_networks):
    for net in large_networks:
        _assert_same_signs(net)


_SIGN_SHAPES = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(1, 4), st.just(0)),
    _SHAPES,
)


@st.composite
def sign_patterns(draw):
    """Sign patterns of any shape, the empty pattern ``()`` and rows of
    length 0 included."""
    rows, cols = draw(_SIGN_SHAPES)
    signs = st.lists(st.sampled_from(list(Sign)), min_size=cols, max_size=cols)
    return tuple(tuple(draw(signs)) for _ in range(rows))


@settings(max_examples=200, deadline=None)
@given(sign_patterns())
def test_hermitian_square_matches_oracle_on_sign_patterns(pattern):
    assert hermitian_square_status(pattern) == oracles.hermitian_square_status(pattern)


@settings(max_examples=100, deadline=None)
@given(rated_networks())
def test_sign_layer_matches_oracle_on_random_networks(net_rates):
    _assert_same_signs(net_rates[0])


def test_sign_layer_counts_past_the_int8_range():
    """A + B -> kC for k = 1..256, then A -> B: species A and B share 256
    consuming columns, C and A 256 contributing ones.  Counts kept in
    int8 would wrap to 0 there and lose the signs."""
    species = tuple(Species(name, i) for i, name in enumerate("ABC"))
    reactions = tuple(
        Reaction(Complex.from_dict({0: 1, 1: 1}), Complex.from_dict({2: k}))
        for k in range(1, 257)
    ) + (Reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1})),)
    net = Network(species, reactions)
    _assert_same_signs(net)
    jacobian = jacobian_sign_status(net).entries
    assert jacobian[0][0] is Status.MINUS  # 257 consuming columns
    assert jacobian[2][0] is Status.PLUS  # C from A, 256 times
    assert jacobian[1][0] is Status.AMBIGUOUS  # 256 minus terms, 1 plus
    square = hermitian_square_status(sign_pattern(stoichiometric_matrix(net))).entries
    assert square[0][1] is Status.AMBIGUOUS  # 256 agreeing columns, 1 opposing
    assert square[0][2] is Status.MINUS  # 256 opposing columns
    (bad,) = find_bad_submatrices(stoichiometric_matrix(net))
    assert bad.positive_entry == (1, 256) and bad.size == 256


# ---------------------------------------------- kernel correspondence chain


def _check_outcome(check, S, S_check, step):
    """The check's bool, or the message of the ValueError it raised."""
    try:
        return check(S, S_check, step)
    except ValueError as exc:
        return str(exc)


def _assert_same_chain(net, rng, order=None):
    """Over one fix chain, with the same matrix objects passed from step to
    step as the paper's verification loop does: every true step checks
    out on both sides, then each intermediate matrix is corrupted and the
    corrupted object is passed as S_check and then as the next step's S.
    Returns how many corrupted checks came out false."""
    report = sign_fix(net, order=order)
    matrices, steps = report.matrices(), report.steps
    chain = list(zip(matrices, matrices[1:], steps))
    for S, S_check, step in chain:
        assert exactla.kernel_correspondence_check(S, S_check, step) is True
        assert oracles.kernel_correspondence_check(S, S_check, step) is True
    falses = 0
    for k in range(1, len(matrices)):
        M = matrices[k]
        i, j = rng.randrange(M.rows), rng.randrange(M.cols)
        bad = oracles.with_entry(M, i, j, M[i, j] + rng.choice([-2, -1, 1, Fraction(1, 2)]))
        calls = [(matrices[k - 1], bad, steps[k - 1])]
        if k < len(steps):
            calls.append((bad, matrices[k + 1], steps[k]))
        for S, S_check, step in calls:
            got = _check_outcome(exactla.kernel_correspondence_check, S, S_check, step)
            assert got == _check_outcome(oracles.kernel_correspondence_check, S, S_check, step)
            falses += got is False
    # the good chain again, after its matrices met the corrupted ones
    for S, S_check, step in chain:
        assert exactla.kernel_correspondence_check(S, S_check, step) is True
    return falses


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_kernel_correspondence_matches_oracle_on_fixture_chains(name):
    _assert_same_chain(load(name), random.Random(name))


def test_kernel_correspondence_matches_oracle_on_corpus_chains(corpus):
    rng = random.Random(37)
    falses = 0
    for net in corpus[:60]:
        for order in _shuffled_orders(net, rng, 2):
            falses += _assert_same_chain(net, rng, order)
    assert falses > 100


@st.composite
def fixable_networks(draw):
    """Up to 7 reactions over up to 6 species with disjoint sides (so in
    reaction form), fractional coefficients and zero complexes."""
    d = draw(st.integers(2, 6))
    drafts = []
    for _ in range(draw(st.integers(1, 7))):
        chosen = draw(st.lists(st.integers(0, d - 1), unique=True, min_size=1, max_size=min(4, d)))
        coeffs = draw(st.lists(st.sampled_from(_COEFFICIENTS), min_size=len(chosen),
                               max_size=len(chosen)))
        split = draw(st.integers(0, len(chosen)))
        terms = list(zip(chosen, coeffs))
        drafts.append((dict(terms[:split]), dict(terms[split:])))
    referenced = sorted({i for r, p in drafts for i in list(r) + list(p)})
    remap = {old: new for new, old in enumerate(referenced)}
    reactions = tuple(
        Reaction(*(Complex.from_dict({remap[i]: c for i, c in part.items()}) for part in (r, p)))
        for r, p in drafts
    )
    species = tuple(Species(f"S{i + 1}", i) for i in range(len(referenced)))
    return Network(species, reactions)


@settings(max_examples=150, deadline=None)
@given(fixable_networks(), st.randoms(use_true_random=False))
def test_kernel_correspondence_matches_oracle_on_random_chains(net, rng):
    order = list(range(_class_count(net)))
    rng.shuffle(order)
    _assert_same_chain(net, rng, order)


# --------------------------------- characteristic polynomial, exact Jacobian


def _shift(n):
    """The n x n nilpotent shift: ones on the superdiagonal."""
    return RationalMatrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


@st.composite
def char_poly_matrices(draw):
    """n x n rational matrices, n = 1..8: dense; singular (a row a rational
    multiple of another, or zero); or nilpotent (strictly upper triangular
    with rows and columns permuted alike)."""
    n = draw(st.integers(1, 8))
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    rows = [draw(st.lists(fractions, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["dense", "singular", "nilpotent"]))
    if kind == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = [draw(fractions) * v for v in rows[j]] if i != j else [Fraction(0)] * n
    elif kind == "nilpotent":
        perm = draw(st.permutations(range(n)))
        upper = rows
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[perm[i]][perm[j]] = upper[i][j]
    return RationalMatrix(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(char_poly_matrices())
@example(RationalMatrix([[0]]))
@example(RationalMatrix([[0] * 8] * 8))
@example(_shift(8))
@example(RationalMatrix([[1, 2, "-1/3"], [0, 0, 0], ["1/2", 4, -1]]))
@example(RationalMatrix([["1/9973", "-2/9973", 3], ["1/2", "3/2", 0], [5, "1/7", "-4/9973"]]))
def test_char_poly_matches_oracle_on_rational_matrices(M):
    coeffs = exactla.char_poly(M)
    assert coeffs == oracles.char_poly(M)
    assert coeffs[0] == (-1) ** M.rows * determinant(M)


def _rational_point(rng, net, extra=0):
    """Rational rates and a positive rational state for ``net``, each with
    ``extra`` more entries."""
    def value():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return (
        [value() for _ in range(net.reaction_count + extra)],
        [value() for _ in range(net.species_count + extra)],
    )


def test_char_poly_matches_oracle_on_a_fixed_jacobian(kinetics_networks):
    """The 21 x 21 fixed Jacobian of a 20-species kinetics network."""
    report = fix_one_report(kinetics_networks[0])
    rates, x = _rational_point(random.Random(16), report.original, extra=1)
    J = kinetics.exact_jacobian(report.result, rates, x)
    assert J.rows == 21
    assert exactla.char_poly(J) == oracles.char_poly(J)


def _integer_reactants(net):
    return all(c.denominator == 1 for r in net.reactions for _, c in r.reactant.terms)


def test_exact_jacobian_matches_dense_oracle(corpus, kinetics_networks):
    rng = random.Random(17)
    nets = [net for net in corpus if _integer_reactants(net)] + kinetics_networks
    for net in nets:
        rates, x = _rational_point(rng, net)
        assert kinetics.exact_jacobian(net, rates, x) == oracles.exact_jacobian(net, rates, x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rated_networks(), st.randoms(use_true_random=False))
def test_exact_jacobian_matches_dense_oracle_on_random_networks(net_rates, rng):
    """Fractional coefficients (the same error), zero complexes and
    catalysts, some with a net coefficient of 0."""
    net, _ = net_rates
    rates, x = _rational_point(rng, net)
    outcomes = []
    for exact_jacobian in (kinetics.exact_jacobian, oracles.exact_jacobian):
        try:
            outcomes.append(exact_jacobian(net, rates, x))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# ------------------------------------------------- readers of S's nonzeros


def _fresh_s(net):
    """S of a network equal to ``net`` that has built nothing yet, so the
    integer images and the rank below are computed, not read from a
    cache that other tests filled."""
    return stoichiometric_matrix(dataclasses.replace(net))


def _assert_same_reads(net):
    """Every reader of S through its nonzeros gives what the dense reader
    it replaced gave, and S's nonzeros, built from the reaction terms,
    are those a constructor-built copy finds by scanning its entries."""
    S = _fresh_s(net)
    assert S.nonzeros() == RationalMatrix(S.entries()).nonzeros()
    assert S.to_string_rows() == oracles.dense_to_string_rows(S)
    for side in ("right", "left"):
        assert exactla._sparse_image(S, side) == oracles.dense_sparse_image(S, side)
    if S.rows * S.cols < exactla.MOD_P_MIN_ENTRIES:
        # the Bareiss fallback eliminates the image scattered from the nonzeros
        assert rank(_fresh_s(net)) == oracles.rank(S)
    assert sign_pattern(S) == oracles.dense_sign_pattern(S)
    assert find_bad_submatrices(S) == oracles.dense_find_bad_submatrices(S)
    try:
        expected = oracles.dense_jacobian_sign_status(net)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            jacobian_sign_status(net)
        assert str(err.value) == str(exc)
    else:
        assert jacobian_sign_status(net) == expected
    assert check_single_positive_column(net) == oracles.dense_check_single_positive_column(net)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_readers_of_nonzeros_match_dense_oracles_on_fixtures(name):
    for net in sign_fix(load(name)).networks:
        _assert_same_reads(net)


def test_readers_of_nonzeros_match_dense_oracles_on_corpus(corpus):
    for net in corpus:
        _assert_same_reads(net)
        _assert_same_reads(sign_fix(net).result)


def test_readers_of_nonzeros_match_dense_oracles_on_large_chains(large_networks):
    for net in large_networks:
        for stepped in sign_fix(net).networks:
            _assert_same_reads(stepped)


@pytest.mark.parametrize(
    "text, nonzeros",
    [
        ("species A, B, C\nA + B -> A + C\n", ((), ((0, -1),), ((0, 1),))),
        ("species A, B\n2A -> A + B\n", (((0, -1),), ((0, 1),))),
        (
            "species A, B, C\nA + B -> A + C\n2A -> A + B\nC -> 1/2A + 2C\n",
            (((1, -1), (2, Fraction(1, 2))), ((0, -1), (1, 1)), ((0, 1), (2, 1))),
        ),
    ],
    ids=["A+B->A+C", "2A->A+B", "three-reactions"],
)
def test_nonzeros_drop_a_catalyst_term_that_cancels(text, nonzeros):
    """A species on both sides of a reaction with equal coefficients nets
    to 0 there: no pair, as a scan of the entries finds none; one with
    unequal coefficients keeps their difference."""
    net = parse_network(text, allow_catalysts=True)
    assert stoichiometric_matrix(net).nonzeros() == nonzeros
    _assert_same_reads(net)


_FRACTIONS = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))


@st.composite
def sparse_networks(draw):
    """Up to 14 reactions over up to 8 species with fractional
    coefficients p/q (p <= 9, q <= 6) and zero complexes; a reaction may
    hold a catalyst, the same species on both sides with the same
    coefficient (its entry nets to 0) or with two drawn ones."""
    d = draw(st.integers(1, 8))
    side = st.dictionaries(st.integers(0, d - 1), _FRACTIONS, max_size=3)
    drafts = []
    for _ in range(draw(st.integers(1, 14))):
        reactant, product = draw(side), draw(side)
        catalyst = draw(st.none() | st.tuples(st.integers(0, d - 1), _FRACTIONS, st.booleans()))
        if catalyst is not None:
            i, c, cancels = catalyst
            reactant[i] = c
            product[i] = c if cancels else draw(_FRACTIONS)
        if reactant != product:
            drafts.append((reactant, product))
    if not drafts:
        drafts.append(({0: Fraction(1)}, {}))
    referenced = sorted({i for r, p in drafts for i in list(r) + list(p)})
    remap = {old: new for new, old in enumerate(referenced)}
    reactions = tuple(
        Reaction(*(Complex.from_dict({remap[i]: c for i, c in part.items()}) for part in (r, p)))
        for r, p in drafts
    )
    species = tuple(Species(f"S{i + 1}", i) for i in range(len(referenced)))
    return Network(species, reactions, allow_catalysts=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_networks())
def test_readers_of_nonzeros_match_dense_oracles_on_random_networks(net):
    _assert_same_reads(net)


# ---------------------------------------------- audit on interned complexes


def _shared_complexes(net):
    """``net`` with each set of equal complexes held as one object."""
    shared = {}
    reactions = tuple(
        dataclasses.replace(
            r,
            reactant=shared.setdefault(r.reactant, r.reactant),
            product=shared.setdefault(r.product, r.product),
        )
        for r in net.reactions
    )
    return Network(net.species, reactions, net.reversible_pairs, net.allow_catalysts)


def _distinct_equal_complexes(net):
    """How many complex objects of ``net`` equal an earlier, other object."""
    first = {}
    return sum(
        first.setdefault(c, c) is not c for r in net.reactions for c in (r.reactant, r.product)
    )


def _assert_same_audits(net):
    report = sign_fix(net)
    assert delta_audit(report) == oracles.delta_audit(report)


def test_audit_matches_oracle_on_parsed_and_shared_chains(corpus):
    """Parsed from text, equal complexes are distinct objects, so the
    interning must go by equality; held as one object, they must still
    count once.  Either way the audit equals the oracle's."""
    parsed = [load(p.name) for p in sorted(FIXTURES.glob("*.crn"))]
    parsed += [parse_network(network_text(net)) for net in corpus]
    assert sum(_distinct_equal_complexes(net) > 0 for net in parsed) > 100
    for net in parsed:
        _assert_same_audits(net)
        shared = _shared_complexes(net)
        assert shared == net and _distinct_equal_complexes(shared) == 0
        _assert_same_audits(shared)


# ------------------------------------------------ single-bordering shortcut


def _assert_altfix_like_oracle(net):
    """``altfix`` borders S's rows of nonzeros into the s-tilde and report
    the dense ``Fraction`` construction gave, every stored value in
    canonical form (equality alone would pass a ``Fraction(1)``)."""
    s_tilde, report = signfix.altfix(dataclasses.replace(net))
    expected, expected_report = oracles.altfix(dataclasses.replace(net))
    assert s_tilde == expected
    assert s_tilde.to_string_rows() == expected.to_string_rows()
    assert all(is_canonical(v) for row in s_tilde.nonzeros() for _, v in row)
    assert report == expected_report
    return s_tilde, report


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_altfix_matches_dense_oracle_on_fixtures(name):
    _assert_altfix_like_oracle(load(name))


def test_altfix_matches_dense_oracle_on_corpus(corpus):
    degenerate = sum(_assert_altfix_like_oracle(net)[1].degenerate for net in corpus)
    assert 0 < degenerate < len(corpus)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_altfix_matches_dense_oracle_on_weighted_law_networks(seed):
    """Fractional moved values; the weighted law of S is lost in s-tilde."""
    net = parse_network(record_cli_golden.weighted_conserving_text(20, 30, seed))
    _, report = _assert_altfix_like_oracle(net)
    assert report.conserving_original.conserving and not report.conserving_alt.conserving


def test_altfix_without_bad_classes_borders_s_by_zeros():
    net = parse_network("A -> B\nB -> C\n")
    s_tilde, report = _assert_altfix_like_oracle(net)
    assert report.degenerate and report.classes_removed == 0
    assert s_tilde.nonzeros() == stoichiometric_matrix(net).nonzeros() + ((),)


def test_altfix_sums_two_halves_into_the_int_1():
    """Both classes of row C move 1/2 into its new column: the cell holds
    the int 1, not ``Fraction(1)``."""
    net = parse_network("A -> 1/2C\nD -> 1/2C\nA + C -> B\nD + C -> B\n")
    s_tilde, report = _assert_altfix_like_oracle(net)
    c = [s.name for s in net.species].index("C")
    assert report.classes_removed == 2
    assert s_tilde.nonzeros()[c][-1] == (net.reaction_count, 1)
    assert type(s_tilde.nonzeros()[c][-1][1]) is int


# ------------------------------------------------------------ bad 4-cycles


def _assert_same_cycles(graph):
    """The cycles, order included, are the brute-force search's.  Returns
    how many there are."""
    cycles = find_bad_cycles(graph)
    assert cycles == oracles.find_bad_cycles(graph)
    return len(cycles)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_bad_cycles_match_oracle_on_fixture_chains(name):
    for M in sign_fix(load(name)).matrices():
        _assert_same_cycles(build_graph(M))


def test_bad_cycles_match_oracle_on_corpus_chains(corpus):
    found = 0
    for net in corpus[:80]:
        for M in sign_fix(net).matrices():
            found += _assert_same_cycles(build_graph(M))
    assert found > 100


@st.composite
def sr_graphs(draw):
    """Graphs as the public ``SRGraph`` constructor takes them: up to 6
    species and 7 reactions, with edges whose species or reaction lies
    outside the name lists (negative ones included), repeated (species,
    reaction) pairs and edges of no direction.  Most edges fall inside,
    so most graphs hold bad cycles."""
    d, d_prime = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    inside = st.tuples(st.integers(0, max(d - 1, 0)), st.integers(0, max(d_prime - 1, 0)))
    anywhere = st.tuples(st.integers(-3, d + 2), st.integers(-3, d_prime + 2))
    edge = st.builds(
        lambda at, direction, style: Edge(*at, direction, style),
        st.one_of(inside, inside, inside, anywhere),
        st.sampled_from([CONSUMED, CONSUMED, PRODUCED, None]),
        st.sampled_from(["solid", "dotted"]),
    )
    names = [f"S{i + 1}" for i in range(d)], [f"R{k + 1}" for k in range(d_prime)]
    return SRGraph(*names, draw(st.lists(edge, min_size=d * d_prime, max_size=80)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sr_graphs())
# One bad cycle.  Wrapped round, species -1 would be species 1 and make a
# second produced edge; of the two edges on (0, 0), the later, consumed
# one counts.
@example(
    SRGraph(
        ["A", "B"],
        ["R1", "R2"],
        [
            Edge(0, 0, PRODUCED, "dotted"),
            Edge(0, 0, CONSUMED, "solid"),
            Edge(0, 1, CONSUMED, "solid"),
            Edge(1, 0, CONSUMED, "solid"),
            Edge(1, 1, PRODUCED, "dotted"),
            Edge(-1, 0, PRODUCED, "dotted"),
            Edge(0, -2, PRODUCED, "dotted"),
        ],
    )
)
def test_bad_cycles_match_oracle_on_random_graphs(graph):
    _assert_same_cycles(graph)
