import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import record_cli_golden
from conftest import FIXTURES, load, make_network
from crnsign import exactla
from crnsign.exactla import (
    char_poly,
    determinant,
    is_conserving,
    kernel_basis,
    kernel_correspondence_check,
    rank,
)
from crnsign.graphio import build_graph
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices
from crnsign.signfix import fix_one, sign_fix
from crnsign.textio import parse_network


def _random_matrix(rng, rows, cols, lo=-3, hi=3):
    return RationalMatrix(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]
    )


def _same_span(vectors_a, vectors_b):
    """Exact subspace equality for two lists of rational vectors."""
    if not vectors_a and not vectors_b:
        return True
    if bool(vectors_a) != bool(vectors_b):
        return False
    if len(vectors_a[0]) != len(vectors_b[0]):
        return False
    ra = rank(RationalMatrix([list(v) for v in vectors_a]))
    rb = rank(RationalMatrix([list(v) for v in vectors_b]))
    stacked = rank(RationalMatrix([list(v) for v in vectors_a + vectors_b]))
    return ra == rb == stacked


def test_rank_hand_values():
    assert rank(RationalMatrix([[1, 0], [0, 1]])) == 2
    assert rank(RationalMatrix([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix([[0, 0], [0, 0]])) == 0
    assert rank(RationalMatrix([[Fraction(1, 2), Fraction(1, 3)]])) == 1


def test_rank_matches_numpy_on_random_integer_matrices():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = _random_matrix(rng, rows, cols)
        arr = np.array([[float(M[i, j]) for j in range(cols)] for i in range(rows)])
        assert rank(M) == np.linalg.matrix_rank(arr)


def test_determinant_hand_values():
    assert determinant(RationalMatrix([[2]])) == 2
    assert determinant(RationalMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(RationalMatrix([[1, 2], [2, 4]])) == 0
    M = RationalMatrix([[0, 1, 2], [1, 0, 3], [4, -3, 8]])
    assert determinant(M) == -2


def test_determinant_matches_numpy_on_random_integer_matrices():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = _random_matrix(rng, n, n)
        arr = np.array([[float(M[i, j]) for j in range(n)] for i in range(n)])
        exact = determinant(M)
        assert exact == round(np.linalg.det(arr))


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(RationalMatrix([[1, 2]]))


def test_kernel_basis_properties():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = _random_matrix(rng, rows, cols)
        r = rank(M)
        right = kernel_basis(M, "right")
        assert right.side == "right"
        assert right.dim == cols - r
        assert len(right.vectors) == right.dim
        for v in right.vectors:
            assert all(
                sum(M[i, j] * v[j] for j in range(cols)) == 0 for i in range(rows)
            )
        left = kernel_basis(M, "left")
        assert left.side == "left"
        assert left.dim == rows - r
        for w in left.vectors:
            assert all(
                sum(w[i] * M[i, j] for i in range(rows)) == 0 for j in range(cols)
            )
        # basis vectors are linearly independent
        if right.dim:
            assert rank(RationalMatrix([list(v) for v in right.vectors])) == right.dim


def test_kernel_basis_full_rank_is_trivial():
    M = RationalMatrix([[1, 0], [0, 1]])
    assert kernel_basis(M, "right").dim == 0
    assert kernel_basis(M, "right").vectors == ()
    with pytest.raises(ValueError):
        kernel_basis(M, "sideways")


def test_conservation_simple_examples():
    # A -> B conserves total mass
    res = is_conserving(RationalMatrix([[-1], [1]]))
    assert res.conserving
    m = res.witness
    assert all(entry >= 1 for entry in m)
    assert m[0] * (-1) + m[1] * 1 == 0
    # pure production cannot be conserving
    assert not is_conserving(RationalMatrix([[1]])).conserving
    assert is_conserving(RationalMatrix([[1]])).witness is None
    # weighted conservation: 2A -> B needs m = (1, 2)-type weights
    res = is_conserving(RationalMatrix([[-2], [1]]))
    assert res.conserving
    m = res.witness
    assert -2 * m[0] + m[1] == 0


def test_conservation_requires_strictly_positive_combination():
    # left kernel is spanned by (1, -1): nonzero but never positive
    M = RationalMatrix([[1, 1], [1, 1]])
    assert kernel_basis(M, "left").dim == 1
    assert not is_conserving(M).conserving


def test_witness_is_verified_exactly(conserving_family):
    S = stoichiometric_matrix(conserving_family)
    res = is_conserving(S)
    assert res.conserving
    m = res.witness
    assert len(m) == S.rows
    assert all(entry >= 1 for entry in m)
    for j in range(S.cols):
        assert sum(m[i] * S[i, j] for i in range(S.rows)) == 0


def test_conserving_family_kernels_match_known_spans(conserving_family):
    S = stoichiometric_matrix(conserving_family)
    right = kernel_basis(S, "right")
    assert _same_span(
        list(right.vectors),
        [tuple(map(Fraction, (1, 2, 1, 0, 0))), tuple(map(Fraction, (0, 0, 0, 1, 1)))],
    )
    left = kernel_basis(S, "left")
    assert _same_span(list(left.vectors), [tuple(map(Fraction, (1, 1, 1, 1)))])


def test_char_poly_known_matrices():
    # p(x) = det(xI - M), coefficients listed from the constant term up
    assert char_poly(RationalMatrix([[2]])) == [Fraction(-2), Fraction(1)]
    diag = RationalMatrix([[1, 0], [0, 2]])
    assert char_poly(diag) == [Fraction(2), Fraction(-3), Fraction(1)]
    # companion matrix of x^3 - 4x^2 + 5x - 6
    comp = RationalMatrix([[0, 0, 6], [1, 0, -5], [0, 1, 4]])
    assert char_poly(comp) == [Fraction(-6), Fraction(5), Fraction(-4), Fraction(1)]
    # zero and nilpotent (a shift): lambda^n
    power = [Fraction(0)] * 5 + [Fraction(1)]
    assert char_poly(RationalMatrix([[0] * 5] * 5)) == power
    shift = RationalMatrix([[1 if j == i + 1 else 0 for j in range(5)] for i in range(5)])
    assert char_poly(shift) == power


def test_char_poly_constant_term_is_signed_determinant():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = _random_matrix(rng, n, n)
        coeffs = char_poly(M)
        assert len(coeffs) == n + 1
        assert coeffs[-1] == 1
        assert coeffs[0] == (-1) ** n * determinant(M)


def test_kernel_correspondence_on_fix_steps(two_ambiguous, deficiency_jump):
    for net in (two_ambiguous, deficiency_jump):
        classes = find_bad_submatrices(stoichiometric_matrix(net))
        fixed, step = fix_one(net, classes[0])
        S = stoichiometric_matrix(net)
        S_check = stoichiometric_matrix(fixed)
        assert kernel_correspondence_check(S, S_check, step)


def test_kernel_correspondence_rejects_corrupted_fix(two_ambiguous):
    classes = find_bad_submatrices(stoichiometric_matrix(two_ambiguous))
    fixed, step = fix_one(two_ambiguous, classes[0])
    S = stoichiometric_matrix(two_ambiguous)
    S_check = stoichiometric_matrix(fixed)
    # corrupt one entry of the bordered column: padding no longer lands in the kernel
    bad = oracles.with_entry(S_check, S.rows, step.modified_column, Fraction(5))
    assert not kernel_correspondence_check(S, bad, step)


def test_kernel_correspondence_validates_shapes(two_ambiguous):
    classes = find_bad_submatrices(stoichiometric_matrix(two_ambiguous))
    fixed, step = fix_one(two_ambiguous, classes[0])
    S = stoichiometric_matrix(two_ambiguous)
    with pytest.raises(ValueError):
        kernel_correspondence_check(S, S, step)


def _fresh(matrix):
    """An equal matrix with an empty cache."""
    return RationalMatrix(matrix.entries())


def _isolation_inputs():
    """S and the fixed S of every fixture, and the square S S^t of each
    (a determinant with row swaps and rank deficiency), a fractional
    square matrix, and one 30 x 80 S of full row rank, at or above
    ``MOD_P_MIN_ENTRIES``, whose rank is certified mod p."""
    out = []
    for path in sorted(FIXTURES.glob("*.crn")):
        net = load(path.name)
        for S in (stoichiometric_matrix(net), stoichiometric_matrix(sign_fix(net).result)):
            out += [S, oracles.multiply(S, oracles.transpose(S))]
    out.append(RationalMatrix([[0, "1/2", 3], ["2/3", 0, -1], [1, "-3/4", 0]]))
    large = stoichiometric_matrix(make_network(random.Random(0), (30, 30), (80, 80)))
    assert large.rows * large.cols >= exactla.MOD_P_MIN_ENTRIES
    out.append(_fresh(large))
    return out


def test_cached_results_equal_those_of_a_fresh_matrix():
    """Results read through a matrix's cache are the results of a fresh
    copy, and the cache never changes the value, hash or repr."""
    for M in _isolation_inputs():
        for _ in range(2):
            for side in ("right", "left"):
                assert kernel_basis(M, side) == kernel_basis(_fresh(M), side)
                assert exactla._sparse_image(M, side) == exactla._sparse_image(_fresh(M), side)
        assert rank(M) == rank(_fresh(M))
        if M.rows == M.cols:
            assert determinant(M) == determinant(_fresh(M))
        assert is_conserving(M) == is_conserving(_fresh(M))
        for side in ("right", "left"):
            assert kernel_basis(M, side) == kernel_basis(_fresh(M), side)
        assert M == _fresh(M) and hash(M) == hash(_fresh(M)) and repr(M) == repr(_fresh(M))


def test_determinant_stays_outside_the_cache_and_rank_keeps_its_own_slot():
    M = RationalMatrix([[1, 2], [3, 4]])
    determinant(M)
    assert M._cache == {}
    assert rank(M) == 2
    # the Bareiss fallback eliminates the cleared rows, kept as the kernels keep them
    assert M._cache == {"rank": 2, ("sparse", "right"): (((0, 1), (1, 2)), ((0, 3), (1, 4)))}


class _NonzerosOnly(RationalMatrix):
    """A matrix whose dense readers raise, so only ``nonzeros()`` can be
    read."""

    __slots__ = ()

    def entries(self):
        raise AssertionError("entries() was read")

    def __getitem__(self, key):
        raise AssertionError(f"the entry at {key} was read")


def test_the_exact_core_and_the_graph_read_only_nonzeros():
    """determinant, char_poly, rank, both kernels, is_conserving and
    build_graph give a plain matrix's results on a matrix whose
    ``entries()`` and indexing raise; the graph's edges come in row-major
    order."""
    for M in _isolation_inputs():
        only = _NonzerosOnly(M.entries())
        if M.rows == M.cols:
            assert determinant(only) == determinant(_fresh(M))
            assert char_poly(only) == char_poly(_fresh(M))
        assert rank(only) == rank(_fresh(M))
        for side in ("right", "left"):
            assert kernel_basis(only, side) == kernel_basis(_fresh(M), side)
        assert is_conserving(only) == is_conserving(_fresh(M))
        edges = build_graph(only).edges
        assert [(e.species, e.reaction) for e in edges] == [
            (i, j) for i, row in enumerate(M.entries()) for j, v in enumerate(row) if v
        ]
        assert edges == build_graph(_fresh(M)).edges


def _echelon_rank(M):
    return len(exactla._eliminate(oracles._cleared_rows(M.entries()), reduce=False)[1])


def test_rank_reads_only_its_own_slot_the_right_kernel_and_the_right_image():
    """Rank equals a fresh echelon rank with and without a cached right
    kernel or right integer image (the image is what the rank mod p
    eliminates); a wrong left kernel or a planted key of another name
    (such as a chain basis, which only the kernel correspondence check
    reads) is not read.  No input here has a short rank mod p, the one
    case in which the rank reads the smaller side's kernel, left or
    right: each is below ``MOD_P_MIN_ENTRIES`` entries or of full rank
    mod p."""
    for M in _isolation_inputs():
        expected = _echelon_rank(M)
        assert rank(_fresh(M)) == expected
        with_kernel = _fresh(M)
        kernel_basis(with_kernel, "right")
        assert rank(with_kernel) == expected
        with_image = _fresh(M)
        exactla._sparse_image(with_image, "right")
        assert rank(with_image) == expected
        planted = _fresh(M)
        bogus = ((1,) * M.cols,) * min(M.rows, M.cols)
        planted._cache[("kernel", "left")] = bogus
        planted._cache[("chain", "right")] = bogus
        assert rank(planted) == expected


def _p_led(rows, cols, at, rng):
    """[D | B], D the identity with PRIME at (at, at), B random, with row
    ``at`` of B a multiple of PRIME: full row rank over Q, one less mod p."""
    p = exactla.PRIME
    out = []
    for i in range(rows):
        head = [0] * rows
        head[i] = p if i == at else 1
        tail = [rng.randint(-3, 3) * (p if i == at else 1) for _ in range(cols - rows)]
        out.append(head + tail)
    return RationalMatrix(out)


def _counted_eliminate(monkeypatch):
    """Record the shape of every array ``exactla._eliminate`` is handed."""
    seen = []
    eliminate = exactla._eliminate

    def counted(a, reduce=True):
        seen.append((len(a), len(a[0])))
        return eliminate(a, reduce)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    return seen


def test_rank_mod_p_below_min_falls_back_to_the_exact_rank(monkeypatch):
    """A 20 x 30 matrix of full row rank with a pivot equal to p: the rank
    mod p is 19, below min(rows, cols), so it certifies nothing.  The rank
    goes to the smaller side's kernel, the left one, whose lift fails its
    certificate, so Bareiss of the columns decides; both kernels and
    conservation come from Bareiss and the simplex, equal to the Fraction
    oracle's."""
    M = _p_led(20, 30, 7, random.Random(1))
    assert M.rows * M.cols >= exactla.MOD_P_MIN_ENTRIES
    assert exactla._rank_mod_p(exactla._sparse_image(M, "right"), M.cols) == 19
    seen = _counted_eliminate(monkeypatch)
    assert rank(M) == 20 == oracles.rank(M)
    assert seen == [(30, 20)]
    assert M._cache[("kernel", "left")] == () and ("kernel", "right") not in M._cache
    fresh = _fresh(M)
    assert kernel_basis(fresh, "left") == oracles.kernel_basis(M, "left")
    assert kernel_basis(fresh, "left").dim == 0
    assert kernel_basis(fresh, "right") == oracles.kernel_basis(M, "right")
    assert seen == [(30, 20), (30, 20), (20, 30)]
    assert is_conserving(_fresh(M)) == oracles.is_conserving(M)


@pytest.mark.parametrize("transpose", [False, True], ids=["wide", "tall"])
def test_a_short_rank_mod_p_is_settled_by_the_smaller_sides_kernel(monkeypatch, transpose):
    """The fixed S of a 60 x 160 ``conserving_text`` network (76 x 176,
    one conservation law) and its transpose: the rank mod p is short of
    min(rows, cols), so it certifies nothing, and the rank is
    min(rows, cols) less the lifted kernel of the smaller side (left when
    wide, right when tall).  On a fresh copy it equals the oracle's, makes
    no elimination over Q, and caches that side's kernel, equal to the
    oracle's, and the rank; the other side is not read."""
    net = parse_network(record_cli_golden.conserving_text(60, 160, 1))
    M = stoichiometric_matrix(sign_fix(net).result)
    if transpose:
        M = oracles.transpose(M)
    side, other = ("right", "left") if transpose else ("left", "right")
    assert min(M.rows, M.cols) == 76 and max(M.rows, M.cols) == 176
    expected = oracles.rank(M)
    assert expected == 75
    assert exactla._rank_mod_p(exactla._sparse_image(_fresh(M), "right"), M.cols) < 76
    fresh = _fresh(M)
    seen = _counted_eliminate(monkeypatch)
    assert rank(fresh) == expected
    assert seen == []
    assert fresh._cache["rank"] == expected
    assert fresh._cache[("kernel", side)] == oracles.kernel_basis(M, side).integers
    assert ("kernel", other) not in fresh._cache


def test_rank_mod_p_reduces_entries_beyond_int64():
    """Rows scaled to 10^30 and fractional rows whose cleared entries pass
    int64 are reduced in Python integers before the int64 elimination;
    the certified rank and kernels equal the oracle's."""
    rng = random.Random(2)
    big = 10**30
    for rows, cols in ((20, 25), (25, 20)):
        entries = [[big * rng.randint(-2, 2) + rng.randint(-1, 1) for _ in range(cols)]
                   for _ in range(rows)]
        entries[3] = [Fraction(x, big + 7) for x in entries[3]]
        M = RationalMatrix(entries)
        assert max(abs(x) for row in exactla._sparse_image(M, "right") for _, x in row) > 2**63
        assert rank(M) == oracles.rank(M) == min(rows, cols)
        assert M._cache["rank"] == min(rows, cols)
        for side in ("left", "right"):
            assert kernel_basis(_fresh(M), side) == oracles.kernel_basis(M, side)


def test_network_with_a_1e400_coefficient():
    """20 species and 25 reactions, one coefficient 10^400: rank,
    kernels and conservation equal the oracle's on a fresh S."""
    species = [f"X{i}" for i in range(20)]
    lines = ["species " + ", ".join(species)]
    lines += [f"{species[i]} -> {species[(i + 1) % 20]}" for i in range(20)]
    lines += [f"1e400 {species[0]} -> 2 {species[5]}", f"{species[3]} -> {species[9]} + {species[11]}"]
    lines += [f"{species[i]} -> 3 {species[i + 2]}" for i in range(3)]
    S = stoichiometric_matrix(parse_network("\n".join(lines) + "\n"))
    assert (S.rows, S.cols) == (20, 25) and S[0, 20] == -(10**400)
    assert rank(_fresh(S)) == oracles.rank(S)
    for side in ("left", "right"):
        assert kernel_basis(_fresh(S), side) == oracles.kernel_basis(S, side)
    assert is_conserving(_fresh(S)) == oracles.is_conserving(S)


def test_is_conserving_on_a_fresh_full_row_rank_s_needs_no_elimination(monkeypatch):
    """A library call on a fresh 30 x 80 S: the rank mod p certifies full
    row rank, so the left kernel is {0} and the answer is "not
    conserving", with no Bareiss elimination and no simplex."""
    S = _fresh(stoichiometric_matrix(make_network(random.Random(0), (30, 30), (80, 80))))
    calls = []
    monkeypatch.setattr(exactla, "_eliminate", lambda *a, **k: calls.append("eliminate"))
    monkeypatch.setattr(exactla, "_phase1_simplex", lambda *a, **k: calls.append("simplex"))
    assert is_conserving(S) == exactla.ConservationResult(False, None)
    assert calls == []
    assert S._cache[("kernel", "left")] == () and S._cache["rank"] == 30


def test_is_conserving_stops_where_phase_1_is_decided(monkeypatch):
    """The all-ones law of a 60 x 160 ``conserving_text`` network puts the
    simplex's right-hand side at 0, so phase 1 is decided before the first
    pivot: with the left kernel cached, ``is_conserving`` makes no row
    update (about 78,000 when it pivoted on to the end of Bland's rule)
    and the witness is all ones."""
    S = stoichiometric_matrix(parse_network(record_cli_golden.conserving_text(60, 160, 1)))
    assert kernel_basis(S, "left").dim > 0
    calls = []
    update = exactla._update

    def counted(*args):
        calls.append(args[-1])
        return update(*args)

    monkeypatch.setattr(exactla, "_update", counted)
    result = is_conserving(S)
    assert calls == []
    assert result == exactla.ConservationResult(True, (Fraction(1),) * 60)


@pytest.mark.parametrize("seed", range(20))
def test_conservation_generators_name_every_species(seed):
    """At 20 x 30 every seed gives a network that parses (seeds 1, 7 and 8
    of ``conserving_text`` and 1, 7 and 18 of the other two drew one that
    left a species unnamed); the unit-weight and weighted networks are
    conserving and the blocked ones are not."""
    for make, conserving in (
        (record_cli_golden.conserving_text, True),
        (record_cli_golden.weighted_conserving_text, True),
        (record_cli_golden.blocked_text, False),
    ):
        S = stoichiometric_matrix(parse_network(make(20, 30, seed)))
        assert is_conserving(S).conserving is conserving


def test_kernel_correspondence_chain_eliminates_each_matrix_once_per_side(monkeypatch):
    """Over a 6-step chain of shared matrix objects only S_0's right and
    left kernels are eliminated: every step's certificate closes, and the
    padded bases it stores on S_check are the next step's bases of S
    (18 eliminations before the kernel cache, 13 with it and before the
    certificate).  Each step reads only the rows that changed, so no
    later matrix gets an integer image of its rows or columns.  The
    network is parsed here: a shared fixture's S keeps the kernels
    earlier tests computed on it."""
    report = sign_fix(load("conserving_family.crn"))
    matrices = report.matrices()
    assert len(report.steps) == 6
    seen = _counted_eliminate(monkeypatch)
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        assert kernel_correspondence_check(S, S_check, step)
    d, d_prime = matrices[0].rows, matrices[0].cols
    assert seen == [(d, d_prime), (d_prime, d)]
    for M in matrices[1:]:
        assert M._cache["rank"] == oracles.rank(M)
        assert ("sparse", "right") not in M._cache and ("sparse", "left") not in M._cache


def test_a_verify_style_chain_reads_no_single_dense_entry(dense_reads):
    """``sign_fix``, ``fix_one`` and each step's
    ``kernel_correspondence_check`` read the entry at a class's positive
    position from its row's nonzeros, never through
    ``RationalMatrix.__getitem__`` (two reads per checked step and one per
    ``fix_one`` when they indexed it).  The weighted-law network's
    coefficients are fractional, so some recorded values are Fractions."""
    for net in (
        load("conserving_family.crn"),
        parse_network(record_cli_golden.weighted_conserving_text(6, 8, 2)),
    ):
        report = sign_fix(net)
        matrices = report.matrices()
        for S, S_check, step in zip(matrices, matrices[1:], report.steps):
            assert kernel_correspondence_check(S, S_check, step)
        fixed, step = fix_one(net, find_bad_submatrices(stoichiometric_matrix(net))[0])
        assert kernel_correspondence_check(
            stoichiometric_matrix(net), stoichiometric_matrix(fixed), step
        )
    assert dense_reads == []


def test_chain_bases_never_reach_the_public_api():
    """After a verified chain every matrix still answers ``kernel_basis``,
    ``rank`` and ``is_conserving`` as the oracle does: the padded bases
    are kept under ("chain", side), apart from the RREF basis, and some of
    them differ from it."""
    report = sign_fix(load("conserving_family.crn"))
    matrices = report.matrices()
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        assert kernel_correspondence_check(S, S_check, step)
    differ = 0
    for M in matrices[1:]:
        for side in ("right", "left"):
            expected = oracles.kernel_basis(M, side)
            assert kernel_basis(M, side) == expected
            chain = M._cache[("chain", side)]
            differ += chain != tuple(tuple(int(x) for x in v) for v in expected.vectors)
        assert rank(M) == oracles.rank(M)
        assert is_conserving(M) == oracles.is_conserving(M)
    assert differ > 0


def test_chain_left_bases_stay_coprime_on_a_fractional_chain():
    """``conserving_family.crn`` with X2, X3 and X4 counted in units of 5,
    3 and 7: every step pads the left kernel by a fractional p2, and each
    stored left basis is divided by its gcd, so its one conservation law
    stays the coprime vector of the RREF basis instead of gaining p2's
    denominator at every step (7,350 against 10 by the sixth step)."""
    report = sign_fix(
        parse_network(
            "2X1 + 12/5 X2 -> 4/3 X3 + 10/7 X4\n"
            "X1 + 1/3 X3 + 2/7 X4 -> 4/5 X2\n"
            "2/3 X3 + 6/7 X4 -> 4X1 + 4/5 X2\n"
            "4/7 X4 <-> 4X1\n"
        )
    )
    matrices = report.matrices()
    assert len(report.steps) == 6
    assert all(step.zeroed_entry[1].denominator > 1 for step in report.steps[:2])
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        assert kernel_correspondence_check(S, S_check, step) is True
        assert oracles.kernel_correspondence_check(S, S_check, step) is True
    for M in matrices[1:]:
        expected = oracles.kernel_basis(M, "left")
        assert expected.dim == 1
        assert M._cache[("chain", "left")] == (tuple(int(x) for x in expected.vectors[0]),)


def test_kernel_correspondence_certificate_closes_when_the_rank_mod_p_is_short(monkeypatch):
    """``deficiency_jump.crn`` with A + B -> C scaled by p = PRIME: that
    reaction's column of every fixed matrix vanishes mod p, so its rank
    mod p is below its rank over Q.  The certificate reads no rank mod p:
    each step changes row q by a multiple of the border row, so it
    closes with no elimination of S_check, stores the chain bases and a
    rank equal to the oracle's, gives the oracle's bool, and a corrupted
    S_check is rejected as the oracle rejects it."""
    p = exactla.PRIME
    report = sign_fix(parse_network(f"2A -> 3B + C\n{p}A + {p}B -> {p}C\n3B + C -> 2A\n"))
    matrices = report.matrices()
    assert len(report.steps) == 3
    seen = _counted_eliminate(monkeypatch)
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        image = exactla._sparse_image(_fresh(S_check), "right")
        assert exactla._rank_mod_p(image, S_check.cols) < oracles.rank(S_check)
        bad = oracles.with_entry(S_check, S.rows, step.modified_column, Fraction(5))
        assert kernel_correspondence_check(S, bad, step) is False
        assert oracles.kernel_correspondence_check(S, bad, step) is False
        del seen[:]
        assert kernel_correspondence_check(S, S_check, step) is True
        assert not {(S_check.rows, S_check.cols), (S_check.cols, S_check.rows)} & set(seen)
        assert oracles.kernel_correspondence_check(S, S_check, step) is True
        assert ("chain", "right") in S_check._cache and ("chain", "left") in S_check._cache
        assert S_check._cache["rank"] == oracles.rank(S_check)


def test_kernel_correspondence_chain_across_the_mod_p_threshold(monkeypatch):
    """A 15 x 22 network (330 entries) whose first fixed matrix has 368
    entries and every later one at least ``MOD_P_MIN_ENTRIES``: every
    certificate closes with no rank mod p (only S_0 is eliminated), no
    fixed matrix gets an integer image of its rows or columns, and every
    bool is the oracle's."""
    report = sign_fix(make_network(random.Random(2), (15, 15), (22, 22)))
    matrices = report.matrices()
    sizes = [M.rows * M.cols for M in matrices]
    assert sizes[1] < exactla.MOD_P_MIN_ENTRIES <= sizes[2] and len(report.steps) == 12
    mod_p_calls = []
    monkeypatch.setattr(exactla, "_rank_mod_p", lambda *args: mod_p_calls.append(args))
    seen = _counted_eliminate(monkeypatch)
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        assert kernel_correspondence_check(S, S_check, step) is True
        assert oracles.kernel_correspondence_check(S, S_check, step) is True
    assert mod_p_calls == []
    assert seen == [(15, 22)]
    for M in matrices[1:]:
        assert M._cache["rank"] == oracles.rank(M)
        assert ("sparse", "right") not in M._cache and ("sparse", "left") not in M._cache


def _one_ambiguous_step():
    """S, S_check and the step of ``one_ambiguous.crn``'s one fix: S is
    3 x 4 of full row rank, and rows 0 and 2 of S_check are S's rows."""
    net = parse_network((FIXTURES / "one_ambiguous.crn").read_text())
    fixed, step = fix_one(net, find_bad_submatrices(stoichiometric_matrix(net))[0])
    S, S_check = stoichiometric_matrix(net), stoichiometric_matrix(fixed)
    assert oracles.rank(S) == S.rows == 3 and step.zeroed_entry[0] == 1
    return S, S_check, step


def _with_row(M, i, factor):
    """M with row i times ``factor``."""
    return RationalMatrix([[x * factor for x in row] if k == i else row
                           for k, row in enumerate(M.entries())])


def test_kernel_correspondence_falls_back_when_the_certificate_fails(monkeypatch):
    """Row 0 of ``one_ambiguous``'s S_check doubled: both kernels are kept
    (the left one is {0}), but that row is not S's row plus a multiple of
    the border row, so the certificate fails.  The exact branch
    eliminates S_check once, stores no chain basis, and gives True, as
    the oracle does."""
    S, S_check, step = _one_ambiguous_step()
    doubled = _with_row(S_check, 0, 2)
    kernel_basis(S, "right"), kernel_basis(S, "left")
    seen = _counted_eliminate(monkeypatch)
    assert kernel_correspondence_check(S, doubled, step) is True
    assert seen == [(4, 5)]
    assert ("chain", "right") not in doubled._cache and ("chain", "left") not in doubled._cache
    assert oracles.kernel_correspondence_check(S, doubled, step) is True


def test_kernel_correspondence_rejects_a_zeroed_row_of_a_full_row_rank_network(monkeypatch):
    """Row 0 of ``one_ambiguous``'s S_check zeroed: it kills every padded
    right vector and S has no left kernel, so only the rank can tell.  The
    certificate fails, and the exact rank of S_check, one below the
    fix's, gives False, as the oracle does."""
    S, S_check, step = _one_ambiguous_step()
    zeroed = _with_row(S_check, 0, 0)
    kernel_basis(S, "right"), kernel_basis(S, "left")
    seen = _counted_eliminate(monkeypatch)
    assert kernel_correspondence_check(S, zeroed, step) is False
    assert seen == [(4, 5)]
    assert ("chain", "right") not in zeroed._cache and ("chain", "left") not in zeroed._cache
    assert oracles.kernel_correspondence_check(S, zeroed, step) is False


def test_rank_mod_p_is_the_same_in_python_integers_and_numpy():
    """Random sparse integer rows, some entries multiples of p or beyond
    int64: ``_rank_mod_p`` in numpy gives the rank of a dense elimination
    mod p in Python integers, at most the rank over Q."""
    rng = random.Random(8)
    p = exactla.PRIME
    values = [0, 0, 0, 1, -1, 2, 3, p, -2 * p, p + 1, 10**30]
    for _ in range(80):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        M = RationalMatrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        image = exactla._sparse_image(M, "right")
        assert exactla._rank_mod_p(image, cols) == _dense_rank_mod_p(M) <= oracles.rank(M)


def _dense_rank_mod_p(M):
    """Rank mod ``PRIME`` of an integer matrix by Gaussian elimination on
    its dense rows in Python integers."""
    p = exactla.PRIME
    a = [[int(x) % p for x in row] for row in M.entries()]
    r = 0
    for c in range(M.cols):
        pivot = next((i for i in range(r, M.rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inverse = pow(a[r][c], -1, p)
        for i in range(r + 1, M.rows):
            f = a[i][c] * inverse % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_kernel_correspondence_checks_left_positivity(monkeypatch):
    """A -> (3/2) B and back, fixed at (B, 0): the left kernel (3, 2) pads
    to (6, 4, 6) over S_check's cleared columns, divided by its gcd to
    (3, 2, 3), and that padded vector and its sum reach the positivity
    check."""
    S = RationalMatrix([[-1, 1], ["3/2", "-3/2"]])
    S_check = RationalMatrix([[-1, 1, 0], [0, "-3/2", "3/2"], [1, 0, -1]])
    step = SimpleNamespace(modified_column=0, zeroed_entry=(1, Fraction(3, 2)))
    seen = []
    transfers = exactla._positivity_transfers

    def recorded(padded_vectors):
        seen.append([list(v) for v in padded_vectors])
        return transfers(padded_vectors)

    monkeypatch.setattr(exactla, "_positivity_transfers", recorded)
    assert kernel_correspondence_check(S, S_check, step) is True
    monkeypatch.undo()
    assert seen == [[[1, 1, 1]], [[3, 2, 3]]]
    # a padded coordinate that breaks strict or weak positivity fails
    assert not exactla._positivity_transfers([[6, 4, -6]])
    assert not exactla._positivity_transfers([[6, 0, -1]])
    assert not exactla._positivity_transfers([[1, 0, 1], [0, 1, -2]])
    assert exactla._positivity_transfers([[1, -1, 1], [-1, 1, 0]])


def _lift_outcomes(monkeypatch):
    """Record, for each ``exactla._lifted_kernel`` call, whether it
    returned a certified basis (True) or sent the matrix to Bareiss."""
    outcomes = []
    lift = exactla._lifted_kernel

    def recorded(matrix, side):
        vectors = lift(matrix, side)
        outcomes.append(vectors is not None)
        return vectors

    monkeypatch.setattr(exactla, "_lifted_kernel", recorded)
    return outcomes


def _deficient(rng, rows, cols, rank_, values=(-3, -2, -1, 1, 2, 3)):
    """A sparse rows x cols matrix of rank at most ``rank_``: that many
    random rows of ``values`` and zeros, the others small combinations of
    two of them, all shuffled, so the rows that carry the pivots are
    spread among the others."""
    base = [[rng.choice(values) if rng.random() < 0.3 else 0 for _ in range(cols)]
            for _ in range(rank_)]
    out = list(base)
    while len(out) < rows:
        a, b = rng.sample(base, 2)
        s, t = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        out.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(out)
    return out


def _assert_kernels_match_oracle(M, monkeypatch, lifted):
    """Both kernels of a fresh copy equal the Fraction oracle's, and the
    lifting was certified (``lifted``) or fell back on each side."""
    outcomes = _lift_outcomes(monkeypatch)
    seen = _counted_eliminate(monkeypatch)
    fresh = _fresh(M)
    for side in ("right", "left"):
        assert kernel_basis(fresh, side) == oracles.kernel_basis(M, side), side
    assert outcomes == [lifted, lifted]
    assert (seen == []) == lifted
    monkeypatch.undo()


def test_lifted_kernels_match_the_oracle_on_rank_deficient_matrices(monkeypatch):
    """At or above ``MOD_P_MIN_ENTRIES`` entries, rank-deficient matrices
    of both orientations have both kernels lifted and certified, with no
    elimination over Q, equal to the oracle's: the elimination mod p picks
    the rows that carry the pivots, wherever they sit."""
    rng = random.Random(11)
    for rows, cols, rank_ in ((20, 30, 14), (30, 20, 17), (24, 24, 23), (25, 16, 9)):
        M = RationalMatrix(_deficient(rng, rows, cols, rank_))
        assert M.rows * M.cols >= exactla.MOD_P_MIN_ENTRIES
        assert oracles.rank(M) < min(rows, cols)
        _assert_kernels_match_oracle(M, monkeypatch, lifted=True)


def test_lifted_kernels_match_the_oracle_on_fractional_matrices(monkeypatch):
    """Fractional entries (each row and each column divided by its own
    integer, so the rank stays deficient), cleared row by row (right) and
    column by column (left), and the rank-deficient conserving network of
    the CLI records: both kernels are lifted, certified and equal to the
    oracle's."""
    rng = random.Random(12)
    for rows, cols, rank_ in ((20, 30, 16), (30, 22, 18)):
        a = _deficient(rng, rows, cols, rank_)
        row_scale = [rng.randint(1, 9) for _ in range(rows)]
        col_scale = [rng.randint(1, 9) for _ in range(cols)]
        M = RationalMatrix(
            [[Fraction(x, row_scale[i] * col_scale[j]) for j, x in enumerate(row)]
             for i, row in enumerate(a)]
        )
        assert oracles.rank(M) < min(rows, cols)
        _assert_kernels_match_oracle(M, monkeypatch, lifted=True)
    S = stoichiometric_matrix(parse_network(record_cli_golden.conserving_text()))
    assert (S.rows, S.cols) == (20, 30) and oracles.rank(S) == 19
    _assert_kernels_match_oracle(S, monkeypatch, lifted=True)


def test_lifted_kernels_stay_in_int64_or_go_to_bareiss(monkeypatch):
    """Entries near 10^10 keep every product of the lifting below 2^63 and
    are lifted; entries of 10^13, and a fractional row whose cleared
    entries pass int64, go to Bareiss.  Every kernel equals the oracle's."""
    rng = random.Random(13)
    a = _deficient(rng, 20, 25, 15, values=(-(10**10), 10**10 - 7, 3 * 10**9, -1))
    _assert_kernels_match_oracle(RationalMatrix(a), monkeypatch, lifted=True)
    a = _deficient(rng, 20, 25, 15, values=(-(10**13), 10**13 + 1, 2, -1))
    _assert_kernels_match_oracle(RationalMatrix(a), monkeypatch, lifted=False)
    a = _deficient(rng, 20, 25, 15)
    a[4] = [Fraction(x, 10**19 + 39) + Fraction(1, 3) for x in a[4]]
    M = RationalMatrix(a)
    assert max(abs(x) for row in exactla._sparse_image(M, "right") for _, x in row) > 2**63
    outcomes = _lift_outcomes(monkeypatch)
    assert kernel_basis(_fresh(M), "right") == oracles.kernel_basis(M, "right")
    assert outcomes == [False]


def test_a_pivot_block_singular_mod_p_sends_the_kernel_to_bareiss(monkeypatch):
    """``_p_led``: the pivot block over Q holds PRIME on its diagonal, so
    the elimination mod p misses that row and column.  The lifted vector
    of that free column is the unit vector there, which has the right
    support and count but is not in the kernel; the membership check
    rejects it, and Bareiss gives the oracle's kernels."""
    M = _p_led(20, 30, 7, random.Random(4))
    unit = tuple(int(j == 7) for j in range(30))
    assert not exactla._in_kernel(M, "right", [unit])
    assert exactla._lifted_kernel(_fresh(M), "right") is None
    assert exactla._lifted_kernel(_fresh(M), "left") is None
    seen = _counted_eliminate(monkeypatch)
    for side in ("right", "left"):
        assert kernel_basis(_fresh(M), side) == oracles.kernel_basis(M, side)
    assert seen == [(20, 30), (30, 20)]


def test_pivots_that_differ_mod_p_are_rejected_by_the_support_rule(monkeypatch):
    """Column 0 is p e_0 and column 1 is e_0, so over Q column 0 is a
    pivot and column 1 is not, and mod p the other way round; the rest is
    random and both ranks are 20, with nullity 10.  The lifted vector of
    free column 0, e_0 - p e_1, lies in the kernel and the count is right,
    but it is nonzero at the later pivot column 1: only the support rule
    rejects it, and Bareiss gives the oracle's basis."""
    p = exactla.PRIME
    rng = random.Random(5)
    a = [[p * (i == 0), int(i == 0)] + [rng.randint(-3, 3) for _ in range(28)] for i in range(20)]
    M = RationalMatrix(a)
    assert exactla._rank_mod_p(exactla._sparse_image(M, "right"), 30) == oracles.rank(M) == 20
    candidate = (1, -p) + (0,) * 28
    assert exactla._in_kernel(M, "right", [candidate])
    assert exactla._lifted_kernel(_fresh(M), "right") is None
    seen = _counted_eliminate(monkeypatch)
    expected = oracles.kernel_basis(M, "right")
    assert expected.dim == 10 and expected.integers[0][:2] == (1, -p)
    assert kernel_basis(_fresh(M), "right") == expected
    assert seen == [(20, 30)]


def test_a_column_that_does_not_reconstruct_sends_the_kernel_to_bareiss(monkeypatch):
    """With rational reconstruction made to fail, the lifting runs to its
    Hadamard bound and only the columns of X with integer entries rebuild;
    the others have no vector, so the count is short and Bareiss answers.
    With reconstruction the same matrix lifts."""
    M = RationalMatrix(_deficient(random.Random(14), 20, 30, 16))
    assert exactla._lifted_kernel(_fresh(M), "right") is not None
    monkeypatch.setattr(exactla, "_rational", lambda *args: None)
    assert exactla._lifted_kernel(_fresh(M), "right") is None
    assert kernel_basis(_fresh(M), "right") == oracles.kernel_basis(M, "right")


def test_lifted_kernels_equal_bareiss_on_large_networks(large_networks):
    """The ``large`` networks, their fixes and a 60 x 160
    network: the lifted right kernel equals the Bareiss one."""
    matrices = []
    for net in large_networks:
        matrices += [stoichiometric_matrix(net), stoichiometric_matrix(sign_fix(net).result)]
    matrices.append(stoichiometric_matrix(make_network(random.Random(1), (60, 60), (160, 160))))
    for S in matrices:
        lifted = exactla._lifted_kernel(_fresh(S), "right")
        assert lifted is not None and lifted == exactla._eliminated_kernel(_fresh(S), "right")


def test_in_kernel_packs_many_vectors_exactly():
    """The packed product gives the per-vector answer: kernel vectors of
    random sparse matrices with huge and fractional entries, alone and
    beside vectors off the kernel by +-1 or by a huge amount at one row,
    on both sides, each list also repeated to ``_PACKED_MIN_VECTORS``
    vectors or more, which are packed."""
    rng = random.Random(15)
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        values = [0, 0, 1, -1, 3, Fraction(-5, 7), 10**30, -(10**25) + 1]
        M = RationalMatrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        for side in ("right", "left"):
            image = exactla._sparse_image(M, side)
            width = cols if side == "right" else rows
            basis = list(oracles.kernel_basis(M, side).integers)
            others = [tuple(rng.choice([0, 1, -1, 10**40]) for _ in range(width)) for _ in range(3)]
            for vectors in (basis, basis + others[:1], others[1:] + basis, others):
                expected = all(
                    sum(x * v[j] for j, x in row) == 0 for v in vectors for row in image
                )
                assert exactla._in_kernel(M, side, vectors) == expected
                assert exactla._in_kernel(M, side, vectors * exactla._PACKED_MIN_VECTORS) == expected
