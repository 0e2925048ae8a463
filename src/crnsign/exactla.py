"""Exact rational dense linear algebra, computed in integers.

Rank, determinant and kernel bases all come from one fraction-free
Gauss-Jordan elimination (Bareiss 1968) of the denominator-cleared rows:
every row update divides exactly by the previous pivot, and the reduced
rows are the last pivot times the reduced row echelon form.
Conservation-law feasibility {m : S^t m = 0, m >= 1} is decided by a
phase-1 simplex with Bland's rule on an integer tableau, pivoted with the
same row update.  Fractions appear only at the API: kernel vectors,
determinants and conservation witnesses are returned as ``Fraction``s.
Nothing in this module ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Optional, Sequence, Tuple

from .model import RationalMatrix

Vector = Tuple[Fraction, ...]


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
    """
    height = len(a)
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
            sign = -sign
        pivot_row, piv = a[r], a[r][c]
        for i in range(height) if reduce else range(r + 1, height):
            if i != r:
                a[i] = _update(a[i], pivot_row, piv, prev, c)
        pivots.append(c)
        prev = piv
    return a, pivots, prev, sign


def rank(matrix: RationalMatrix) -> int:
    """Exact rank: the number of pivots of the integer elimination."""
    return len(_eliminate(_integer_rows(matrix.entries()), reduce=False)[1])


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


def _kernel_vectors(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Integer right-kernel basis of the matrix with these rows, one vector
    per free column in order, each coprime with a positive leading entry."""
    a, pivots, last, _ = _eliminate(_integer_rows(rows))
    cols = len(a[0])
    pivot_set = set(pivots)
    vectors = []
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
        vectors.append([x // g for x in v])
    return vectors


def kernel_basis(matrix: RationalMatrix, side: str = "right") -> KernelBasis:
    """Exact kernel basis; dimension is cols - rank (right) or
    rows - rank (left).

    Each vector is read off the integer elimination of the matrix (its
    transpose for "left"), normalized to coprime integer entries with a
    positive leading entry, and the vectors are ordered by their free
    column.
    """
    if side == "right":
        rows = matrix.entries()
    elif side == "left":
        rows = tuple(zip(*matrix.entries()))
    else:
        raise ValueError("side must be 'right' or 'left'")
    vectors = _kernel_vectors(rows)
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
    """
    equations = tuple(zip(*S.entries()))
    solved = _phase1_simplex(equations, [-sum(row) for row in equations])
    if solved is None:
        return ConservationResult(False, None)
    u, denom = solved
    scaled = [denom + value for value in u]
    if any(_dot(row, scaled) for row in _integer_rows(equations)) or any(
        value < denom for value in scaled
    ):
        raise AssertionError("simplex returned an invalid conservation witness")
    return ConservationResult(True, tuple(Fraction(value, denom) for value in scaled))


def _dot(row: Sequence[int], vector: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(row, vector))


def _annihilates(rows: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    return all(_dot(row, vector) == 0 for row in rows)


def kernel_correspondence_check(S: RationalMatrix, S_check: RationalMatrix, fixstep) -> bool:
    """Verify the one-step kernel correspondence between S and its fix.

    For a fixing step that zeroes the positive entry at (q, l) of value p2
    and borders the matrix with one row and one column, padding a right
    kernel vector v with v[l] and a left kernel vector w with w[q] * p2
    must give bijections between the kernels, preserving (non)negativity.
    The check is performed on exactly computed bases.

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

    # Kernel dimensions of S_check come from its rank; the bases of S and
    # the membership checks are integer vectors (positive rescalings of
    # the KernelBasis vectors, which changes neither sign nor membership).
    check_rank = rank(S_check)
    right = _kernel_vectors(S.entries())
    if len(right) != S_check.cols - check_rank:
        return False
    check_rows = _integer_rows(S_check.entries())
    padded_right = [v + [v[ell]] for v in right]
    if not all(_annihilates(check_rows, padded) for padded in padded_right):
        return False

    left = _kernel_vectors(tuple(zip(*S.entries())))
    if len(left) != S_check.rows - check_rank:
        return False
    check_columns = _integer_rows(tuple(zip(*S_check.entries())))
    for w in left:
        padded = [x * p2.denominator for x in w] + [w[q] * p2.numerator]
        if not _annihilates(check_columns, padded):
            return False

    # Dimensions agree and the padded images are independent (the first
    # coordinates already are), so the maps are bijections.  Positivity:
    # the added coordinate is a copy (resp. positive multiple) of an
    # existing one, so strict/weak positivity transfers both ways; assert
    # it on the basis and on the basis sum as a concrete spot check.
    samples = list(padded_right)
    if padded_right:
        samples.append([sum(column) for column in zip(*padded_right)])
    for padded in samples:
        head = padded[:-1]
        if (all(x > 0 for x in head)) != (all(x > 0 for x in padded)):
            return False
        if (all(x >= 0 for x in head)) != (all(x >= 0 for x in padded)):
            return False
    return True


def char_poly(matrix: RationalMatrix) -> List[Fraction]:
    """Coefficients of det(lambda I - M), exact, lowest degree first.

    Faddeev-LeVerrier recursion; the returned list has length n+1 and is
    monic (last coefficient 1).
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        nk = matrix.multiply(mk)
        trace = sum((nk[i, i] for i in range(n)), Fraction(0))
        coeffs[n - k] = -trace / k
        if k < n:
            bump = [
                [
                    nk[i, j] + (coeffs[n - k] if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            mk = RationalMatrix(bump)
    return coeffs
