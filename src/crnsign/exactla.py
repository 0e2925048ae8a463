"""Exact rational dense linear algebra, computed in integers.

Rank, determinant, kernel bases and the characteristic polynomial all
come from one fraction-free Gauss-Jordan elimination (Bareiss 1968) of
the denominator-cleared rows: every row update divides exactly by the
previous pivot, and the reduced rows are the last pivot times the
reduced row echelon form.  The characteristic polynomial of an n x n
matrix is interpolated from n + 1 such determinants.
Conservation-law feasibility {m : S^t m = 0, m >= 1} is decided by a
phase-1 simplex with Bland's rule on an integer tableau, pivoted with the
same row update.  Fractions appear only at the API and in that
interpolation: kernel vectors, determinants, characteristic polynomials
and conservation witnesses are returned as ``Fraction``s.  Nothing in
this module ever rounds.

A rank can also be certified modulo one fixed prime ``PRIME`` < 2^31
(the modular idea of Cabay 1971).  Reducing an integer matrix mod p can
only lose rank, and no rank exceeds min(rows, cols), so

    rank_p <= rank_Q <= min(rows, cols),

and when rank_p equals min(rows, cols) it is the exact rank over Q.
Otherwise the answer comes from the Bareiss elimination, as it would
without the certificate, so an unlucky prime costs time, never
exactness.  The rank mod p is taken of the nonzeros of the cleared rows:
below ``MOD_P_MIN_ENTRIES`` entries in Python integers, one sparse row
at a time, and from there up by elimination on dense numpy int64 rows
(entries below p, so every product fits).  ``rank`` and the kernels try
it only from ``MOD_P_MIN_ENTRIES`` entries up, below which Bareiss in
Python integers is the faster of the two.

The integer image of a matrix comes from its ``nonzeros()``, never from
a scan of all its entries: each row's (column's) nonzero ``Fraction``s
are cleared by the lcm of their denominators, and ``rank``'s and the
kernels' eliminations scatter those cleared rows into fresh dense lists.
Only ``determinant``, ``char_poly`` and the simplex of ``is_conserving``
read the entries themselves.

Each ``RationalMatrix`` carries a private cache that only this module
reads and writes: the nonzeros of the denominator-cleared integer rows
("right") and columns ("left"), the integer kernel vectors of each
side, the exact rank, and the chain bases that
``kernel_correspondence_check`` certified.  A matrix is immutable, so
the cache cannot go stale; it dies with the matrix, and
``model.stoichiometric_matrix`` gives every caller of a network the same
matrix.  Every cached value is computed from, or certified on, that
matrix's own entries, and only an exact one is stored: a rank mod p is
stored as the rank only when certified.  The cached tuples are never
handed to the elimination, which works on a copy.

An exact rank in hand answers two questions without an elimination over
Q: it is the rank, and a rank equal to the row (column) count means the
left (right) kernel is {0}.  "In hand" means the cached rank, the cached
right kernel (rank = cols - nullity) or a certified rank mod p; no
elimination is ever run just to look for it.  ``is_conserving`` then
answers "not conserving" from an empty left kernel without a simplex.

The paper's kernel bijection is checked by certificate.  For a fixing
step from S to S_check, the padded kernel vectors of S are checked
exactly to lie in the kernels of S_check, on its sparse cleared rows and
columns; they are independent, so each nullity of S_check is at least
their count, and its rank is at least its rank mod p.  When the two
bounds meet on both sides, the padded vectors are bases of S_check's
kernels with no elimination over Q, and they are cached on S_check under
("chain", side), apart from the reduced basis ``kernel_basis`` returns,
for the next step to read as its S's kernels.  So a chain of one-step
checks (S_0, S_1), (S_1, S_2), ... over the same matrix objects
eliminates S_0 only, once per side, unless a certificate fails; a step
whose bounds do not meet takes the exact rank of S_check from its right
kernel, eliminated over Q, and checks the counts against it.
``determinant`` is uncached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import RationalMatrix

Vector = Tuple[Fraction, ...]
IntRows = Tuple[Tuple[int, ...], ...]
SparseRows = Tuple[Tuple[Tuple[int, int], ...], ...]

# 2^31 - 1 is prime, and (p - 1)^2 < 2^62, so a product of two residues,
# and a residue less such a product, fit in an int64.
PRIME = 2**31 - 1
# rows * cols from which a rank is first tried mod p.  On generated S and
# fixed S, numpy's per-call cost makes the elimination mod p slower than
# Bareiss in Python integers below it (0.45 against 0.33 ms per matrix at
# 200-399 entries); the two break even at 400-600, and from about 1,000
# entries up the elimination mod p wins (2.3 against 5.7 ms at 2,000).
# It is also where ``_rank_mod_p`` moves from sparse rows in Python
# integers to numpy.  On the fixed matrices of six generated 14-18 x
# 20-26 networks (Intel Xeon, best of 5), Python against numpy takes
# 0.30 against 0.33 ms per matrix at 200-399 entries, 0.47 against 0.42
# at 400-599 and 0.87 against 0.55 at 800-999; on the fixed 30 x 80
# matrix, 20.1 against 4.4 ms.
MOD_P_MIN_ENTRIES = 400


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the exact right or left kernel of a matrix.

    Every vector satisfies M v = 0 (side "right") or v^t M = 0 (side
    "left") exactly, and the vectors are linearly independent.
    """

    vectors: Tuple[Vector, ...]
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")

    @property
    def dim(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class ConservationResult:
    """Outcome of the conservation-law feasibility check.

    When ``conserving`` is true, ``witness`` is a rational vector m with
    every entry >= 1 and m^t S = 0 exactly.
    """

    conserving: bool
    witness: Optional[Vector] = None


def _denominator(values: Sequence[Fraction]) -> int:
    """The lcm of the denominators of ``values``."""
    return lcm(*(v.denominator for v in values))


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Scale each row by the lcm of its denominators (row space unchanged)."""
    out = []
    for row in rows:
        scale = _denominator(row)
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _update(row: List[int], pivot_row: List[int], piv: int, prev: int, c: int) -> List[int]:
    """Fraction-free update of ``row`` against the pivot row at column c.

    The division by the previous pivot is exact (Sylvester's identity).
    """
    f = row[c]
    if f == 0:
        return [piv * x // prev for x in row]
    return [(piv * x - f * y) // prev for x, y in zip(row, pivot_row)]


def _eliminate(
    a: List[List[int]], reduce: bool = True
) -> Tuple[List[List[int]], List[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows.

    Pivots are the first nonzero entry in column order.  Returns the rows,
    the pivot columns, the last pivot D (1 when there is none) and the
    sign of the row swaps.  Row r is D times row r of the reduced row
    echelon form, so a pivot row holds D at its own pivot column and 0 at
    the others; for a square matrix of full rank, D is the determinant of
    the rows times the swap sign.  With ``reduce`` false only the rows
    below each pivot are updated: the pivots, D and the sign are the same,
    but the rows are left in echelon form.

    A row with a zero in the pivot column would only be scaled by
    piv / prev, so it is left as it is, and ``level[i]`` records the
    pivot row i was last brought up to.  The skipped factors telescope:
    settling the row (x becomes x * prev // level[i]) applies them all at
    once, and divides exactly, since the result is the Bareiss integer
    the eager update would have stored.  A row is settled before it is
    the pivot row or is updated, and at the end every row (with
    ``reduce``) or every row below the last pivot (without) is settled.
    A nonzero factor keeps zeros zero, so the pivot search reads the
    stored rows.  Rows, pivots, D and sign are those of the eager
    elimination.
    """
    height = len(a)
    level = [1] * height

    def settle(i: int) -> None:
        if level[i] != prev:
            a[i] = [x * prev // level[i] for x in a[i]]
            level[i] = prev

    pivots: List[int] = []
    prev, sign = 1, 1
    for c in range(len(a[0])):
        r = len(pivots)
        if r == height:
            break
        p = next((i for i in range(r, height) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            level[r], level[p] = level[p], level[r]
            sign = -sign
        settle(r)
        pivot_row, piv = a[r], a[r][c]
        for i in range(height) if reduce else range(r + 1, height):
            if i != r and a[i][c] != 0:
                settle(i)
                a[i] = _update(a[i], pivot_row, piv, prev, c)
                level[i] = piv
        level[r] = piv
        pivots.append(c)
        prev = piv
    for i in range(0 if reduce else len(pivots), height):
        settle(i)
    return a, pivots, prev, sign


def _sparse_image(matrix: RationalMatrix, side: str) -> SparseRows:
    """The denominator-cleared rows ("right") or columns ("left") of the
    matrix, each scaled by the lcm of its denominators, as their nonzero
    (index, value) pairs in index order, built from the matrix's
    ``nonzeros()`` (the columns by distributing each row's pairs in row
    order); cached on it."""
    key = ("sparse", side)
    sparse = matrix._cache.get(key)
    if sparse is None:
        lines = matrix.nonzeros()
        if side == "left":
            columns: List[List[Tuple[int, Fraction]]] = [[] for _ in range(matrix.cols)]
            for i, row in enumerate(lines):
                for j, v in row:
                    columns[j].append((i, v))
            lines = columns
        found = []
        for line in lines:
            scale = lcm(*(v.denominator for _, v in line))
            found.append(tuple((j, v.numerator * (scale // v.denominator)) for j, v in line))
        sparse = matrix._cache[key] = tuple(found)
    return sparse


def _dense_image(matrix: RationalMatrix, side: str) -> List[List[int]]:
    """Fresh dense lists of the cleared rows ("right") or columns ("left"),
    scattered from ``_sparse_image``; ``_eliminate`` rewrites the rows it
    is given, so the cached tuples are never handed to it."""
    width = matrix.cols if side == "right" else matrix.rows
    rows = []
    for line in _sparse_image(matrix, side):
        dense = [0] * width
        for j, x in line:
            dense[j] = x
        rows.append(dense)
    return rows


def _in_kernel(matrix: RationalMatrix, side: str, vector: Sequence[int]) -> bool:
    """Whether the integer vector lies exactly in the right ("right") or
    left ("left") kernel of the matrix: each cleared row (column) times
    the vector, summed over its nonzeros only, is 0."""
    return all(sum(x * vector[j] for j, x in row) == 0 for row in _sparse_image(matrix, side))


def _rank_mod_p(rows: SparseRows, width: int) -> int:
    """Rank modulo ``PRIME`` of the sparse integer rows of ``width``
    columns, a lower bound on the rank over Q.  Each entry is reduced in
    Python integers first, since cleared rows can hold entries far beyond
    int64.  Below ``MOD_P_MIN_ENTRIES`` rows * width the rows are reduced
    in Python integers, one at a time against the pivot rows kept so far;
    from it up, by Gaussian elimination on dense numpy int64 rows."""
    if len(rows) * width < MOD_P_MIN_ENTRIES:
        return _rank_mod_p_sparse(rows)
    height = len(rows)
    a = np.zeros((height, width), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in row:
            a[i, j] = x % PRIME
    r = 0
    for c in range(width):
        if r == height:
            break
        nonzero = r + np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        i = nonzero[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        # the row swapped down has a zero here, so only rows past i need it
        update = nonzero[1:]
        if update.size:
            factors = a[update, c] * pow(int(a[r, c]), -1, PRIME) % PRIME
            a[update, c:] = (a[update, c:] - np.outer(factors, a[r, c:])) % PRIME
        r += 1
    return r


def _rank_mod_p_sparse(rows: SparseRows) -> int:
    """Rank modulo ``PRIME`` of the sparse integer rows, in Python
    integers.  Each row, as a dict of its nonzero residues, loses its
    first column against the pivot row kept there until it is zero or
    starts at a new column; it is then kept, scaled to 1 there.  A pivot
    row has no column before its own, so every reduction leaves only
    later columns, and the kept rows are the pivots of an echelon form."""
    pivot_rows = {}
    for row in rows:
        residues = {j: r for j, x in row if (r := x % PRIME)}
        while residues:
            c = min(residues)
            pivot_row = pivot_rows.get(c)
            if pivot_row is None:
                inverse = pow(residues[c], -1, PRIME)
                pivot_rows[c] = [(j, x * inverse % PRIME) for j, x in residues.items()]
                break
            f = residues[c]
            for j, y in pivot_row:
                x = (residues.get(j, 0) - f * y) % PRIME
                if x:
                    residues[j] = x
                else:
                    del residues[j]
    return len(pivot_rows)


def _rank_in_hand(matrix: RationalMatrix) -> Optional[int]:
    """The exact rank when it costs no elimination over Q, else None: the
    cached rank, else columns less the cached right kernel's dimension,
    else (from ``MOD_P_MIN_ENTRIES`` entries) the rank mod p of the right
    integer image when it equals min(rows, cols).  A rank found here is
    cached."""
    value = matrix._cache.get("rank")
    if value is not None:
        return value
    kernel = matrix._cache.get(("kernel", "right"))
    if kernel is not None:
        value = matrix.cols - len(kernel)
    elif matrix.rows * matrix.cols >= MOD_P_MIN_ENTRIES:
        rank_p = _rank_mod_p(_sparse_image(matrix, "right"), matrix.cols)
        if rank_p == min(matrix.rows, matrix.cols):
            value = rank_p
    if value is not None:
        matrix._cache["rank"] = value
    return value


def rank(matrix: RationalMatrix) -> int:
    """Exact rank, cached on the matrix.

    It is read from the cache, or from the cached right kernel (columns
    less its dimension), or certified mod p (see the module docstring);
    only when none of them gives it does the echelon-only integer
    elimination of the cleared rows, scattered from their nonzeros, count
    the pivots.  Every source is this matrix's own entries.
    """
    value = _rank_in_hand(matrix)
    if value is None:
        value = len(_eliminate(_dense_image(matrix, "right"), reduce=False)[1])
        matrix._cache["rank"] = value
    return value


def determinant(matrix: RationalMatrix) -> Fraction:
    """Exact determinant (square matrices): the signed last pivot of the
    integer elimination divided by the row scales, or 0 when a pivot is
    missing."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    _, pivots, last, sign = _eliminate(_integer_rows(matrix.entries()), reduce=False)
    if len(pivots) < matrix.rows:
        return Fraction(0)
    scale = prod(_denominator(row) for row in matrix.entries())
    return Fraction(sign * last, scale)


def _kernel_vectors(matrix: RationalMatrix, side: str) -> IntRows:
    """Integer basis of the right ("right") or left ("left") kernel of the
    matrix, one vector per free column of the eliminated rows in order,
    each coprime with a positive leading entry; cached on the matrix.  An
    exact rank in hand that leaves no free column gives () without an
    elimination."""
    key = ("kernel", side)
    vectors = matrix._cache.get(key)
    if vectors is not None:
        return vectors
    # An exact rank equal to the side's length leaves the kernel {0}.  No
    # rank exceeds min(rows, cols), so look for one only at that length.
    size = matrix.rows if side == "left" else matrix.cols
    if size == min(matrix.rows, matrix.cols) and _rank_in_hand(matrix) == size:
        vectors = matrix._cache[key] = ()
        return vectors
    a, pivots, last, _ = _eliminate(_dense_image(matrix, side))
    cols = len(a[0])
    pivot_set = set(pivots)
    found = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = last
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        g = gcd(*v)
        if next(x for x in v if x != 0) < 0:
            g = -g
        found.append(tuple(x // g for x in v))
    vectors = matrix._cache[key] = tuple(found)
    return vectors


def kernel_basis(matrix: RationalMatrix, side: str = "right") -> KernelBasis:
    """Exact kernel basis; dimension is cols - rank (right) or
    rows - rank (left).

    Each vector is read off the integer elimination of the matrix (its
    transpose for "left"), normalized to coprime integer entries with a
    positive leading entry, and the vectors are ordered by their free
    column.  The integer vectors are cached on the matrix, so a second
    call on the same object does not eliminate again.  When the exact
    rank is already in hand (cached, read off the cached right kernel, or
    certified mod p) and equals the side's length, the kernel is {0} and
    no elimination runs: the left kernel of a matrix of full row rank is
    free once its right kernel is known.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    vectors = _kernel_vectors(matrix, side)
    return KernelBasis(tuple(tuple(Fraction(x) for x in v) for v in vectors), side)


def _phase1_simplex(
    equations: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[Tuple[List[int], int]]:
    """Solve {u >= 0 : A u = b} exactly; returns (numerators of u, common
    denominator) or None if infeasible.

    Phase-1 simplex: one artificial variable per equation, minimize their
    sum, entering/leaving choices by Bland's rule (anti-cycling).  The
    tableau is kept as integers A over the last pivot D, pivoted with the
    elimination's row update.  It starts as the rational tableau times
    one lcm L of all its denominators, with D = 1, so every division is
    exact; A / D is then the rational tableau, except that the objective
    row and the rows not yet pivoted on stay scaled by L.  No sign, ratio
    or tie depends on a positive row scale, so the pivots are those of
    the rational simplex, and the solution is read from pivoted rows.
    """
    m = len(equations)
    n = len(equations[0]) if m else 0
    rows = []
    for i in range(m):
        row = list(equations[i])
        b = rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        row.extend(1 if k == i else 0 for k in range(m))
        row.append(b)
        rows.append(row)
    scale = lcm(*(_denominator(row) for row in rows))
    tableau = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    total = n + m
    basis = [n + i for i in range(m)]
    # Reduced-cost row for the phase-1 objective (artificials cost 1);
    # basic artificial columns start with reduced cost zero.
    obj = [-sum(column) for column in zip(*tableau)]
    for i in range(m):
        obj[n + i] = 0

    prev = 1
    while True:
        entering = next((j for j in range(total) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # ratio b_i / coeff against the best row's, cross-multiplied
                lhs = tableau[i][total] * tableau[leaving][entering]
                best = tableau[leaving][total] * coeff
                if lhs < best or (lhs == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            # Unbounded phase-1 objective cannot happen (bounded below by 0);
            # defensive guard.
            return None
        pivot_row = tableau[leaving]
        piv = pivot_row[entering]
        for i in range(m):
            if i != leaving:
                tableau[i] = _update(tableau[i], pivot_row, piv, prev, entering)
        obj = _update(obj, pivot_row, piv, prev, entering)
        prev = piv
        basis[leaving] = entering

    if obj[total] != 0:
        return None
    u = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            u[var] = tableau[i][total]
    return u, prev


def is_conserving(S: RationalMatrix) -> ConservationResult:
    """Decide exactly whether some m >= 1 (entrywise) has m^t S = 0.

    The lower bound 1 removes the scale degeneracy of the open condition
    "strictly positive left-kernel vector": a positive vector exists iff
    one with entries >= 1 does.  Substituting m = 1 + u reduces the check
    to phase-1 feasibility of {u >= 0 : S^t u = -S^t 1}, solved by the
    integer-pivot simplex.  The witness D m (D the simplex's last pivot)
    is checked in integers against the denominator-cleared rows of S^t
    before it is returned as Fractions.

    Such an m is a nonzero left-kernel vector, so an empty left kernel of
    S (from its cache, or computed and cached as by ``kernel_basis``)
    answers "not conserving" without a simplex.  Otherwise the simplex
    decides, on S's entries alone, so the witness does not depend on the
    kernel.
    """
    if not _kernel_vectors(S, "left"):
        return ConservationResult(False, None)
    equations = tuple(zip(*S.entries()))
    solved = _phase1_simplex(equations, [-sum(row) for row in equations])
    if solved is None:
        return ConservationResult(False, None)
    u, denom = solved
    scaled = [denom + value for value in u]
    if not _in_kernel(S, "left", scaled) or any(value < denom for value in scaled):
        raise AssertionError("simplex returned an invalid conservation witness")
    return ConservationResult(True, tuple(Fraction(value, denom) for value in scaled))


def kernel_correspondence_check(S: RationalMatrix, S_check: RationalMatrix, fixstep) -> bool:
    """Verify the one-step kernel correspondence between S and its fix.

    For a fixing step that zeroes the positive entry at (q, l) of value p2
    and borders the matrix with one row and one column, padding a right
    kernel vector v with v[l] and a left kernel vector w with w[q] * p2
    must give bijections between the kernels, preserving (non)negativity.
    The check is performed on exactly computed bases.

    A basis of each kernel of S is read from S's ("chain", side) cache
    key, else from ``_kernel_vectors``.  Each padded vector is checked
    exactly to lie in the kernel of ``S_check``, on the nonzeros of its
    cleared rows (columns); a miss is the answer False.  The padded
    vectors are independent, since their heads are a basis, so each
    nullity of ``S_check`` over Q is at least their count, while its rank
    over Q is at least its rank mod p.  When that rank mod p plus the
    count is the column (right) and the row (left) count, the bounds
    meet: the padded bases are bases of the kernels of ``S_check`` and
    the maps are bijections, with no elimination over Q.  They are then
    cached on ``S_check`` under ("chain", side), never as the basis that
    ``kernel_basis`` returns, together with the now exact rank, so the
    next step of a chain (S_check passed as S) starts from them: a chain
    of steps over the same matrix objects eliminates S_0 only, unless a
    certificate fails.  When the bounds do not meet, the exact rank of
    ``S_check``, read off its right kernel eliminated over Q, decides
    whether the counts are its nullities, so the answer never depends on
    the prime.  Every bound comes from the entries of ``S_check``;
    nothing is inferred from the bordering theorem.

    Args:
        S: Original d x d' matrix.
        S_check: Candidate one-step fix, (d+1) x (d'+1).
        fixstep: Step metadata; needs attributes ``modified_column`` (l)
            and ``zeroed_entry`` ((q, p2)).

    Returns:
        True iff both padded bases land in, and span, the kernels of
        ``S_check``, with dimensions preserved.

    Raises:
        ValueError: if the step metadata is inconsistent with the matrix
            shapes.
    """
    if S_check.rows != S.rows + 1 or S_check.cols != S.cols + 1:
        raise ValueError(
            f"expected a one-step fix of {S.rows}x{S.cols}, got "
            f"{S_check.rows}x{S_check.cols}"
        )
    ell = fixstep.modified_column
    q, p2 = fixstep.zeroed_entry
    if not (0 <= ell < S.cols and 0 <= q < S.rows):
        raise ValueError("fix step coordinates out of range for the matrix")
    if S[q, ell] != p2 or p2 <= 0:
        raise ValueError("fix step records a positive entry the matrix lacks")
    p2 = S[q, ell]  # the recorded value as a Fraction, whatever its type

    # Any integer basis of S's kernels gives the same answer: membership
    # is linear, the counts are the dimensions, and for every vector the
    # added coordinate is a copy (a positive multiple) of an existing one.
    right = S._cache.get(("chain", "right"))
    if right is None:
        right = _kernel_vectors(S, "right")
    padded_right = _pad_right(right, ell)
    if not all(_in_kernel(S_check, "right", v) for v in padded_right):
        return False
    left = S._cache.get(("chain", "left"))
    if left is None:
        left = _kernel_vectors(S, "left")
    padded_left = _pad_left(left, q, p2)
    if not all(_in_kernel(S_check, "left", w) for w in padded_left):
        return False

    rank_p = _rank_mod_p(_sparse_image(S_check, "right"), S_check.cols)
    if rank_p + len(padded_right) == S_check.cols and rank_p + len(padded_left) == S_check.rows:
        S_check._cache[("chain", "right")] = padded_right
        S_check._cache[("chain", "left")] = padded_left
        S_check._cache["rank"] = rank_p
    else:
        # The bounds do not meet: the exact rank of S_check, from its right
        # kernel eliminated over Q, decides whether the counts are the
        # nullities.  The answer never depends on the prime.
        check_rank = S_check.cols - len(_kernel_vectors(S_check, "right"))
        if (
            check_rank + len(padded_right) != S_check.cols
            or check_rank + len(padded_left) != S_check.rows
        ):
            return False
    # The padded vectors are bases of the kernels of S_check.  Positivity:
    # the added coordinate is a copy (resp. positive multiple) of an
    # existing one, so strict/weak positivity transfers both ways; assert
    # it on each padded basis and its sum as a concrete spot check.
    return _positivity_transfers(padded_right) and _positivity_transfers(padded_left)


def _pad_right(vectors: IntRows, ell: int) -> IntRows:
    """Each right kernel vector v of S padded with v[l]."""
    return tuple(v + (v[ell],) for v in vectors)


def _pad_left(vectors: IntRows, q: int, p2: Fraction) -> IntRows:
    """Each left kernel vector w of S padded with w[q] * p2, all of it
    times p2's denominator and divided by the gcd of its entries: a
    coprime left kernel vector of the cleared columns, so the entries of
    a chain's bases do not gain a denominator factor at every step."""
    num, den = p2.numerator, p2.denominator
    out = []
    for w in vectors:
        padded = tuple(x * den for x in w) + (w[q] * num,)
        g = gcd(*padded)
        out.append(tuple(x // g for x in padded))
    return tuple(out)


def _positivity_transfers(padded_vectors: Sequence[Sequence[int]]) -> bool:
    """Each padded vector, and their sum, is strictly (weakly) positive
    exactly when its head without the added coordinate is."""
    samples = list(padded_vectors)
    if samples:
        samples.append([sum(column) for column in zip(*samples)])
    for padded in samples:
        head = padded[:-1]
        if (all(x > 0 for x in head)) != (all(x > 0 for x in padded)):
            return False
        if (all(x >= 0 for x in head)) != (all(x >= 0 for x in padded)):
            return False
    return True


def char_poly(matrix: RationalMatrix) -> List[Fraction]:
    """Coefficients of det(lambda I - M), exact, lowest degree first.

    The polynomial has degree n, so its values at the n + 1 nodes
    lambda = 0..n fix it: each value is a ``determinant``, and Newton's
    divided differences on those nodes (spaced 1 apart, so the k-th
    division is by k) interpolate them in Fractions.  The returned list
    has length n+1 and is monic (last coefficient 1).
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.rows
    coeffs = [
        determinant(
            RationalMatrix(
                [
                    [(lam if i == j else 0) - v for j, v in enumerate(row)]
                    for i, row in enumerate(matrix.entries())
                ]
            )
        )
        for lam in range(n + 1)
    ]
    # Divided differences in place: coeffs[k] becomes p[0, 1, ..., k].
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / k
    # Expand the Newton form from the inside: poly = poly * (lambda - k) + coeffs[k].
    poly = [coeffs[n]]
    for k in range(n - 1, -1, -1):
        inner = [a - k * b for a, b in zip(poly, poly[1:])]
        poly = [coeffs[k] - k * poly[0]] + inner + [poly[-1]]
    return poly
