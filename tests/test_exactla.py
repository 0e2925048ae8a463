import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
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
    assert M._cache == {"rank": 2}


def _echelon_rank(M):
    return len(exactla._eliminate(exactla._integer_rows(M.entries()), reduce=False)[1])


def test_rank_reads_only_its_own_slot_the_right_kernel_and_the_right_image():
    """Rank equals a fresh echelon rank with and without a cached right
    kernel or right integer image (the image is what the rank mod p
    eliminates); a wrong left kernel or a planted key of another name
    (such as a chain basis, which only the kernel correspondence check
    reads) is never read."""
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
    mod p is 19, below min(rows, cols), so it certifies nothing and the
    rank, both kernels and conservation come from Bareiss and the
    simplex, equal to the Fraction oracle's."""
    M = _p_led(20, 30, 7, random.Random(1))
    assert M.rows * M.cols >= exactla.MOD_P_MIN_ENTRIES
    assert exactla._rank_mod_p(exactla._sparse_image(M, "right"), M.cols) == 19
    seen = _counted_eliminate(monkeypatch)
    assert rank(M) == 20 == oracles.rank(M)
    assert seen == [(20, 30)]
    fresh = _fresh(M)
    assert kernel_basis(fresh, "left") == oracles.kernel_basis(M, "left")
    assert kernel_basis(fresh, "left").dim == 0
    assert kernel_basis(fresh, "right") == oracles.kernel_basis(M, "right")
    assert seen == [(20, 30), (30, 20), (20, 30)]
    assert is_conserving(_fresh(M)) == oracles.is_conserving(M)


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


def test_kernel_correspondence_chain_eliminates_each_matrix_once_per_side(monkeypatch):
    """Over a 6-step chain of shared matrix objects only S_0's right and
    left kernels are eliminated: every step's certificate closes, and the
    padded bases it stores on S_check are the next step's bases of S
    (18 eliminations before the kernel cache, 13 with it and before the
    certificate).  The network is parsed here: a shared fixture's S keeps
    the kernels earlier tests computed on it."""
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


def test_kernel_correspondence_falls_back_when_the_rank_mod_p_is_short(monkeypatch):
    """``deficiency_jump.crn`` with A + B -> C scaled by p = PRIME: that
    reaction's column of every fixed matrix vanishes mod p, so its rank
    mod p is below its rank over Q and no certificate closes.  Each step
    gives the oracle's bool from the exact check, which eliminates
    S_check, stores no chain basis, and rejects a corrupted S_check as the
    oracle does."""
    p = exactla.PRIME
    report = sign_fix(parse_network(f"2A -> 3B + C\n{p}A + {p}B -> {p}C\n3B + C -> 2A\n"))
    matrices = report.matrices()
    assert len(report.steps) == 3
    seen = _counted_eliminate(monkeypatch)
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        image = exactla._sparse_image(S_check, "right")
        assert exactla._rank_mod_p(image, S_check.cols) < oracles.rank(S_check)
        bad = oracles.with_entry(S_check, S.rows, step.modified_column, Fraction(5))
        assert kernel_correspondence_check(S, bad, step) is False
        assert oracles.kernel_correspondence_check(S, bad, step) is False
        del seen[:]
        assert kernel_correspondence_check(S, S_check, step) is True
        assert oracles.kernel_correspondence_check(S, S_check, step) is True
        assert (S_check.rows, S_check.cols) in seen
        assert ("chain", "right") not in S_check._cache and ("chain", "left") not in S_check._cache


def test_kernel_correspondence_chain_across_the_mod_p_threshold(monkeypatch):
    """A 15 x 22 network (330 entries) whose first fixed matrix has 368
    entries and every later one at least ``MOD_P_MIN_ENTRIES``: the rank
    mod p of step 1 is taken in Python integers, the rest by numpy, every
    certificate closes (only S_0 is eliminated), and every bool is the
    oracle's."""
    report = sign_fix(make_network(random.Random(2), (15, 15), (22, 22)))
    matrices = report.matrices()
    sizes = [M.rows * M.cols for M in matrices]
    assert sizes[1] < exactla.MOD_P_MIN_ENTRIES <= sizes[2] and len(report.steps) == 12
    sparse_heights = []
    sparse = exactla._rank_mod_p_sparse

    def recorded(rows):
        sparse_heights.append(len(rows))
        return sparse(rows)

    monkeypatch.setattr(exactla, "_rank_mod_p_sparse", recorded)
    seen = _counted_eliminate(monkeypatch)
    for S, S_check, step in zip(matrices, matrices[1:], report.steps):
        assert kernel_correspondence_check(S, S_check, step) is True
        assert oracles.kernel_correspondence_check(S, S_check, step) is True
    assert sparse_heights == [matrices[1].rows]
    assert seen == [(15, 22)]
    assert all(M._cache["rank"] == oracles.rank(M) for M in matrices[1:])


def test_rank_mod_p_is_the_same_in_python_integers_and_numpy(monkeypatch):
    """Random sparse integer rows, some entries multiples of p or beyond
    int64: both sides of ``_rank_mod_p`` give the same rank, at most the
    rank over Q."""
    rng = random.Random(8)
    p = exactla.PRIME
    values = [0, 0, 0, 1, -1, 2, 3, p, -2 * p, p + 1, 10**30]
    for _ in range(80):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        M = RationalMatrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        image = exactla._sparse_image(M, "right")
        python_rank = exactla._rank_mod_p_sparse(image)
        with monkeypatch.context() as patched:
            patched.setattr(exactla, "MOD_P_MIN_ENTRIES", 0)
            assert exactla._rank_mod_p(image, cols) == python_rank <= oracles.rank(M)


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
