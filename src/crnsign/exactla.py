"""Exact rational dense linear algebra, computed in integers.

Denominators are cleared in one place, ``_cleared``: each line (row, or
column) of a matrix's ``nonzeros()`` is scaled by the lcm of its
denominators, which leaves its row space unchanged.  From there every
routine works in Python integers.  ``Fraction``s appear only where a
matrix's entries are read and in the returned values: kernel vectors,
determinants, characteristic polynomials and conservation witnesses.
Nothing in this module ever rounds.

Rank, determinant, kernel bases and the characteristic polynomial come
from one fraction-free Gauss-Jordan elimination (Bareiss 1968) of the
cleared rows: every row update divides exactly by the previous pivot,
and the reduced rows are the last pivot times the reduced row echelon
form.  A determinant is the signed last pivot over the product P of the
row scales c_i.  For the characteristic polynomial, with C_i the cleared
row i, the rows lambda c_i e_i - C_i have determinant P det(lambda I - M),
an integer polynomial with leading coefficient P.  Its values at
lambda = 0..n are n + 1 such determinants, and Newton's divided
differences interpolate them in integers: the nodes are spaced 1 apart,
so the k-th division is by k, and it is exact, since every divided
difference of an integer polynomial at integer nodes is an integer.
Only the returned coefficients are divided by P.

Conservation-law feasibility {m : S^t m = 0, m >= 1} is decided by a
phase-1 simplex with Bland's rule on an integer tableau, pivoted with the
same row update.  The tableau is built once from S's nonzeros, cleared
by one lcm L of all of S's denominators: one row per column of S, holding
that column and minus its sum on the right.  The artificial variables
have no columns: the simplex stops once the phase-1 objective is 0, and
answers "infeasible" when no column of S^t can lower it (Farkas' lemma),
so no artificial variable ever enters the basis.

A rank can also be certified modulo one fixed prime ``PRIME`` < 2^21
(the modular idea of Cabay 1971).  Reducing an integer matrix mod p can
only lose rank, and no rank exceeds min(rows, cols), so

    rank_p <= rank_Q <= min(rows, cols),

and when rank_p equals min(rows, cols) it is the exact rank over Q.
Otherwise ``rank`` reads the kernel of the smaller side, the left one
when rows <= cols and the right one otherwise, lifted and certified as
below, or eliminated by Bareiss when its certificate fails: the rank is
min(rows, cols) less its dimension.  A matrix with conservation laws
has one left kernel vector per law, so its rank costs one short lift,
and an unlucky prime costs time, never exactness.  The rank mod p is
taken by elimination on the residues of the cleared rows as dense numpy
int64 rows (entries below p, so every product fits).  ``rank`` and the
kernels try it only from ``MOD_P_MIN_ENTRIES`` entries up, below which
Bareiss in Python integers is the faster of the two.

From ``MOD_P_MIN_ENTRIES`` entries up a kernel basis is lifted
p-adically (Dixon 1982) and certified, with Bareiss as the fallback.  Let
A be the side's cleared rows, of n columns.  The echelon elimination of
A mod p gives the pivot columns P mod p (first nonzero in column order)
and the r_p rows that carry them, and a Gauss-Jordan elimination of
[B | I] mod p the inverse of their pivot block B, r_p x r_p however many
rows A has.  X = B^-1 N, N those rows' free columns, is lifted
one p-adic digit per step in int64 products and rebuilt in rationals by
rational reconstruction (Wang 1981) over one running common denominator,
and free column f gives the vector with 1 at f and -X at the pivot
columns, made coprime with a positive leading entry.  The basis is kept
only when three checks hold in Python integers:

- every vector v has A v = 0, checked on A's nonzeros;
- there are n - r_p vectors, one per free column mod p;
- support: the vector of free column f is zero at every pivot column
  after f (it is nonzero at f and zero at the other free columns by
  construction).

Then each free column mod p is a combination over Q of earlier columns,
so no such column is a pivot over Q: the pivots over Q lie among P.
There are r_p = |P| of them, as rank_Q >= rank_p, so they are P.  The
vector of f is then the unique kernel vector with 1 at f supported on f
and P, which is the reduced row echelon form's, so the basis, and every
byte written from it, is the one ``_eliminate`` gives.  Any failed check,
a pivot block singular mod p among them, or a cleared entry too large
for exact int64 products sends the matrix to ``_eliminate``.  Kernel
membership, there and for the conservation witness, is tested on the
nonzeros of the cleared rows, with many vectors packed into one integer
per index (``_in_kernel``).

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

The paper's kernel bijection is checked by certificate, on the lines a
fixing step changed.  For a step from S (d x n) to S_check, a row of
S_check is changed when it differs from S's row.  S's kernel bases are
exact, so an unchanged row, empty in column n, kills every padded right
vector, and a padded left vector w' has w'^t S_check equal to the sum
of w'_i (rC_i - rS_i) over the changed rows i plus w'_d rC_d, rC_d the
border row: both tests read only those lines, cleared one by one.  The
padded vectors are independent, so each nullity of S_check is at least
their count.  When every changed row differs from S's by a multiple of
rC_d, and rC_d is nonzero in column n, S_check's rows span S's rows and
rC_d, so its rank is at least rank(S) + 1, with rank(S) = n less the
size of S's right basis.  The bounds then meet, and the padded vectors
are bases of S_check's kernels with no elimination, cached on S_check
under ("chain", side), apart from the reduced basis ``kernel_basis``
returns, for the next step to read as its S's kernels.  So a chain of
one-step checks (S_0, S_1), (S_1, S_2), ... over the same matrix objects
eliminates S_0 only, once per side, and builds no integer image of a
later matrix, unless a certificate fails; a step whose certificate fails
takes the exact rank of S_check from its right kernel, eliminated over
Q, and checks the counts against it.  Each padded left vector is divided
by the gcd of its entries, so a chain's entries do not gain a
denominator factor at every step.
``determinant`` and ``char_poly`` are uncached.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import Exact, RationalMatrix, SparseRow, _exact

Vector = Tuple[Fraction, ...]
IntRows = Tuple[Tuple[int, ...], ...]
SparseRows = Tuple[Tuple[Tuple[int, int], ...], ...]

# The largest prime below 2^21.  A residue is below 2^21, so a sum of
# 2^21 products of two residues stays exact in int64 (and of 2,048 in
# float64, which this module does not use), and three p-adic digits make
# one int64 (p^3 < 2^63).
PRIME = 2**21 - 9
# PRIME's inverse modulo 2^64 as an int64: int64 products wrap modulo 2^64,
# so a multiple of PRIME times it is the exact quotient, without numpy's
# integer division.
_PRIME_INVERSE = np.int64(pow(PRIME, -1, 2**64) - 2**64)
# rows * cols from which a rank is first tried mod p and a kernel is
# lifted p-adically.  On generated S and fixed S, numpy's per-call cost
# makes the elimination mod p slower than Bareiss in Python integers
# below it (0.45 against 0.33 ms per matrix at 200-399 entries); the two
# break even at 400-600, and from about 1,000 entries up the elimination
# mod p wins (2.3 against 5.7 ms at 2,000).
# Lifting a right kernel against Bareiss with its vectors, on the S and
# fixed S (more columns than rows) of 30 generated networks of 8-30
# species (Intel Xeon, best of 5 CPU times, every lift certified): 1.5
# against 0.8 ms per matrix below 400 entries, 2.0 against 1.4 at
# 400-599, 2.5 against 2.5 at 600-999, 3.7 against 5.4 at 1,000-1,999 and
# 4.8 against 10.7 at 2,000-3,999; 6.1 against 7.8 ms on the 30 x 80 S,
# 0.030 against 0.075 s at 60 x 160 and 0.5 against 3.0 s at 200 x 500.
# So lifting breaks even near 1,000 entries and costs up to 0.6 ms more
# per matrix between this threshold and there, where no benchmark
# workload computes a kernel.
MOD_P_MIN_ENTRIES = 400


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the exact right or left kernel of a matrix.

    Every vector satisfies M v = 0 (side "right") or v^t M = 0 (side
    "left") exactly, and the vectors are linearly independent.  The basis
    is held as coprime integer vectors (``integers``); ``vectors`` gives
    them as ``Fraction``s, built on first use.
    """

    integers: IntRows
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")

    @cached_property
    def vectors(self) -> Tuple[Vector, ...]:
        return tuple(tuple(Fraction(x) for x in v) for v in self.integers)

    @property
    def dim(self) -> int:
        return len(self.integers)


@dataclass(frozen=True)
class ConservationResult:
    """Outcome of the conservation-law feasibility check.

    When ``conserving`` is true, ``witness`` is a rational vector m with
    every entry >= 1 and m^t S = 0 exactly.
    """

    conserving: bool
    witness: Optional[Vector] = None


def _cleared(lines: Sequence[Sequence[Tuple[int, Exact]]]) -> Tuple[SparseRows, List[int]]:
    """Each line of nonzero (index, value) pairs scaled by the lcm of its
    denominators, as (index, integer) pairs in the same order, and those
    lcms: the one place this module turns Fractions into integers.  The
    values are in ``model``'s canonical form, so a line whose lcm is 1
    holds plain ints already and is kept as it is."""
    rows, scales = [], []
    for line in lines:
        scale = lcm(*(v.denominator for _, v in line))
        if scale == 1:
            rows.append(tuple(line))
        else:
            rows.append(tuple((j, v.numerator * (scale // v.denominator)) for j, v in line))
        scales.append(scale)
    return tuple(rows), scales


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

    Its callers: kernels below ``MOD_P_MIN_ENTRIES`` entries and kernels
    whose lifting certificate fails; ``rank`` below the threshold when no
    exact rank is in hand (above it, a rank mod p short of min(rows,
    cols) goes to the smaller side's kernel); ``determinant`` and
    ``char_poly``.  One pass of each benchmark workload at seed 0 or 1
    runs it 988 times on ``corpus`` (670 kernels and 318 ranks) and 49
    times on ``verify`` (the kernels of each chain's S_0: all 255 steps
    of its chain checks are certified), all below the threshold, and
    never on ``large`` (whose right kernels are lifted, 2 per pass) or
    ``kinetics``.  Every rank mod p those passes take is min(rows, cols).
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


def _sparse_image(matrix: RationalMatrix, side: str) -> SparseRows:
    """The ``_cleared`` rows ("right") or columns ("left") of the matrix,
    as their nonzero (index, value) pairs in index order, built from the
    matrix's ``nonzeros()`` (the columns by distributing each row's pairs
    in row order); cached on it."""
    key = ("sparse", side)
    sparse = matrix._cache.get(key)
    if sparse is None:
        lines = matrix.nonzeros()
        if side == "left":
            columns: List[List[Tuple[int, Exact]]] = [[] for _ in range(matrix.cols)]
            for i, row in enumerate(lines):
                for j, v in row:
                    columns[j].append((i, v))
            lines = columns
        sparse = matrix._cache[key] = _cleared(lines)[0]
    return sparse


def _dense(rows: SparseRows, width: int) -> List[List[int]]:
    """Fresh dense lists of the sparse integer rows; ``_eliminate``
    rewrites the rows it is given, so cached tuples are never handed to
    it."""
    out = []
    for line in rows:
        dense = [0] * width
        for j, x in line:
            dense[j] = x
        out.append(dense)
    return out


def _int64(rows: SparseRows, width: int, residues: bool) -> np.ndarray:
    """The sparse integer rows as a dense int64 array: their residues mod
    ``PRIME``, reduced in Python integers first, since cleared entries can
    be far beyond int64, or without ``residues`` the entries themselves,
    which the caller has checked to fit."""
    a = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in row:
            a[i, j] = x % PRIME if residues else x
    return a


def _kills(lines: SparseRows, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether each sparse integer line times each vector, summed over the
    line's nonzeros only, is 0."""
    return all(sum(x * v[j] for j, x in line) == 0 for v in vectors for line in lines)


# Vectors from which ``_in_kernel`` packs them.  Packing costs a fixed
# amount per column; on a 30 x 80 S it takes 148 against 152 us for 6
# kernel vectors and 634 against 1,343 us for 50, and on the fixed
# matrices of small generated networks 20-38 against 6-25 us for 1-6.
_PACKED_MIN_VECTORS = 8


def _in_kernel(matrix: RationalMatrix, side: str, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether every integer vector lies exactly in the right ("right") or
    left ("left") kernel of the matrix: each cleared row (column) times
    the vectors, summed over its nonzeros only, is 0.

    From ``_PACKED_MIN_VECTORS`` vectors up, entry j of every vector is
    packed into one integer, a slot of ``size`` bytes per vector
    (Kronecker substitution), so a row costs one product per nonzero
    instead of one per nonzero and vector.  No slot of a row's packed sum
    reaches half the slot's range, so the sum is 0 exactly when every slot
    is."""
    if not vectors:
        return True
    rows = _sparse_image(matrix, side)
    if len(vectors) < _PACKED_MIN_VECTORS:
        return _kills(rows, vectors)
    reach = max(max(sum(abs(x) for _, x in row) for row in rows), 1)
    largest = max(max(map(abs, v)) for v in vectors)
    size = (reach * largest).bit_length() // 8 + 1
    offset = 1 << (8 * size - 1)
    zero = offset.to_bytes(size, "little")
    ones = int.from_bytes((1).to_bytes(size, "little") * len(vectors), "little")
    packed = [
        int.from_bytes(
            b"".join([(y + offset).to_bytes(size, "little") if y else zero for y in column]),
            "little",
        )
        - offset * ones
        for column in zip(*vectors)
    ]
    return all(sum(x * packed[j] for j, x in row) == 0 for row in rows)


def _rank_mod_p(rows: SparseRows, width: int) -> int:
    """Rank modulo ``PRIME`` of the sparse integer rows of ``width``
    columns, a lower bound on the rank over Q: ``_eliminate_mod_p`` on
    their residues as dense numpy int64 rows, each entry reduced in
    Python integers first, since cleared rows can hold entries far beyond
    int64."""
    return len(_eliminate_mod_p(_int64(rows, width, residues=True))[0])


def _eliminate_mod_p(
    a: np.ndarray, reduce: bool = False, columns: Optional[int] = None
) -> Tuple[List[int], np.ndarray]:
    """Gaussian elimination modulo ``PRIME`` of the int64 residues ``a``,
    in place, with pivots the first nonzero entry in column order, as in
    ``_eliminate``.  Returns the pivot columns and ``order``, the original
    index of the row now at each position, so ``order[:len(pivots)]`` are
    the rows that carry the pivots.  Pivots are sought in the first
    ``columns`` columns (all by default), and each pivot row is scaled to 1
    at its pivot.  Without ``reduce`` only the rows below it are cleared
    there (echelon form); with it every other row is (Gauss-Jordan)."""
    height = a.shape[0]
    order = np.arange(height)
    pivots: List[int] = []
    for c in range(a.shape[1] if columns is None else columns):
        r = len(pivots)
        if r == height:
            break
        nonzero = r + np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        i = nonzero[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
            order[[r, i]] = order[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, PRIME) % PRIME
        if reduce:
            update = np.flatnonzero(a[:, c])
            update = update[update != r]
        else:
            # the row swapped down has a zero here, so only rows past i need it
            update = nonzero[1:]
        if update.size:
            a[update, c:] = (a[update, c:] - np.outer(a[update, c], a[r, c:])) % PRIME
        pivots.append(c)
    return pivots, order


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
    less its dimension), or certified mod p (see the module docstring).
    From ``MOD_P_MIN_ENTRIES`` entries up a rank mod p short of
    min(rows, cols) leaves the smaller side's kernel to settle it: the
    rank is min(rows, cols) less that kernel's dimension, the left kernel
    when rows <= cols and the right one otherwise, read from the cache or
    else lifted and certified, or eliminated when the certificate fails
    (``_computed_kernel``), and cached.  Below the threshold
    the echelon-only integer elimination of the cleared rows, scattered
    from their nonzeros, counts the pivots.  Every source is this
    matrix's own entries.
    """
    value = _rank_in_hand(matrix)
    if value is None:
        if matrix.rows * matrix.cols >= MOD_P_MIN_ENTRIES:
            # The rank mod p fell short: no rank is in hand to look for again.
            side = "left" if matrix.rows <= matrix.cols else "right"
            vectors = matrix._cache.get(("kernel", side))
            if vectors is None:
                vectors = _computed_kernel(matrix, side)
            value = min(matrix.rows, matrix.cols) - len(vectors)
        else:
            rows = _dense(_sparse_image(matrix, "right"), matrix.cols)
            value = len(_eliminate(rows, reduce=False)[1])
        matrix._cache["rank"] = value
    return value


def _integer_determinant(a: List[List[int]]) -> int:
    """Determinant of the square integer rows, which it rewrites: the
    signed last pivot of the echelon-only elimination, or 0 when a pivot
    is missing."""
    _, pivots, last, sign = _eliminate(a, reduce=False)
    return sign * last if len(pivots) == len(a) else 0


def determinant(matrix: RationalMatrix) -> Fraction:
    """Exact determinant (square matrices): that of the ``_cleared`` rows,
    divided by the product of the row scales."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    rows, scales = _cleared(matrix.nonzeros())
    return Fraction(_integer_determinant(_dense(rows, matrix.cols)), prod(scales))


def _kernel_vectors(matrix: RationalMatrix, side: str) -> IntRows:
    """Integer basis of the right ("right") or left ("left") kernel of the
    matrix, one vector per free column of the reduced row echelon form in
    order, each coprime with a positive leading entry; cached on the
    matrix.  An exact rank in hand that leaves no free column gives ()
    without an elimination; otherwise ``_computed_kernel`` finds it."""
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
    return _computed_kernel(matrix, side)


def _computed_kernel(matrix: RationalMatrix, side: str) -> IntRows:
    """The basis of ``_kernel_vectors`` when no rank in hand settles it:
    from ``MOD_P_MIN_ENTRIES`` entries up lifted p-adically and certified
    (``_lifted_kernel``); below it, or when the certificate fails, read
    off ``_eliminate``.  Cached on the matrix."""
    vectors = None
    if matrix.rows * matrix.cols >= MOD_P_MIN_ENTRIES:
        vectors = _lifted_kernel(matrix, side)
    if vectors is None:
        vectors = _eliminated_kernel(matrix, side)
    matrix._cache[("kernel", side)] = vectors
    return vectors


def _normalized(v: List[int]) -> Tuple[int, ...]:
    """The nonzero integer vector divided by the gcd of its entries, signed
    so that its first nonzero entry is positive."""
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def _eliminated_kernel(matrix: RationalMatrix, side: str) -> IntRows:
    """The kernel basis read off the fraction-free Gauss-Jordan elimination
    of the side's cleared rows: free column f gives D at f and minus the
    pivot rows' entries at f at their pivot columns."""
    width = matrix.cols if side == "right" else matrix.rows
    a, pivots, last, _ = _eliminate(_dense(_sparse_image(matrix, side), width))
    pivot_set = set(pivots)
    found = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [0] * width
        v[f] = last
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        found.append(_normalized(v))
    return tuple(found)


def _lifted_kernel(matrix: RationalMatrix, side: str) -> Optional[IntRows]:
    """The kernel basis of ``_eliminated_kernel``, found by p-adic lifting
    (Dixon 1982) and certified exactly, or None when the certificate
    fails or a cleared entry is too large for exact int64 products.

    The echelon elimination mod p of A, the side's cleared rows, gives
    the pivot columns and the rows that carry them, whose block B is
    invertible mod p, and a Gauss-Jordan elimination of [B | I] mod p its
    inverse; N is those rows' free columns.  X = B^-1 N is lifted one
    p-adic digit per step, then rebuilt in rationals with one running
    common denominator d (Wang 1981), and free column f gives d at f and
    -d X at the pivot columns.  The basis is certified on A's nonzeros:
    every vector lies in the kernel, there is one per free column (a column
    that does not reconstruct has none), and each is zero at every pivot
    column after its own free column (see the module docstring)."""
    rows = _sparse_image(matrix, side)
    width = matrix.cols if side == "right" else matrix.rows
    # Every residual below stays under max_i sum_j |A_ij| in size and every
    # R - B X under that times PRIME: exact in int64 below 2^63.
    if max(sum(abs(x) for _, x in row) for row in rows) * PRIME >= 2**63:
        return None
    a = _int64(rows, width, residues=False)
    pivots, order = _eliminate_mod_p(a % PRIME)
    r = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    if not free:
        return ()
    chosen = a[order[:r]]
    # Hadamard's bound, squared, on |det B| and on every numerator of
    # Cramer's rule for B X = N: the product of the chosen rows' norms.
    bound2 = prod(sum(x * x for _, x in rows[i]) for i in order[:r].tolist())
    # The rows that carry the pivots reach them in order, so their block
    # is invertible mod p; Gauss-Jordan turns [B | I] into [I | B^-1].
    block = np.concatenate([chosen[:, pivots] % PRIME, np.eye(r, dtype=np.int64)], axis=1)
    _eliminate_mod_p(block, reduce=True, columns=r)
    inverse = block[:, r:]
    values, modulus, d = _lift(chosen[:, pivots], chosen[:, free], inverse, bound2)
    vectors = []
    for k, f in enumerate(free):
        numerators, d = _rebuilt(values[k * r:(k + 1) * r], d, modulus)
        if numerators is None:
            continue
        if any(numerators[bisect_left(pivots, f):]):
            return None
        v = [0] * width
        v[f] = d
        for c, y in zip(pivots, numerators):
            v[c] = -y
        vectors.append(_normalized(v))
    if len(vectors) != len(free) or not _in_kernel(matrix, side, vectors):
        return None
    return tuple(vectors)


def _rebuilt(column: List[int], d: int, modulus: int) -> Tuple[Optional[List[int]], int]:
    """The numerators of the column's entries, given mod ``modulus``, over
    a common denominator, and that denominator: d, times the rebuilt
    denominator of each entry too wide for it (Wang 1981), the column
    redone after each.  None in place of the numerators when an entry
    does not rebuild with numerator and denominator up to
    sqrt(modulus / 2)."""
    bound = isqrt((modulus - 1) // 2)
    half = modulus // 2
    while True:
        numerators = [y - modulus if y > half else y for y in [d * x % modulus for x in column]]
        if max(numerators, default=0) <= bound and min(numerators, default=0) >= -bound:
            return numerators, d
        wide = next(y for y in numerators if abs(y) > bound)
        found = _rational(wide, modulus, bound)
        if found is None or d * found[1] > bound:
            return None, d
        d *= found[1]


def _lift(
    B: np.ndarray, N: np.ndarray, inverse: np.ndarray, bound2: int
) -> Tuple[List[int], int, int]:
    """X = B^-1 N modulo p^k, given the inverse C of B mod ``PRIME``: its
    entries column by column, p^k, and a first guess at X's common
    denominator.  Each step takes one p-adic digit X_i = C R mod p (R = N
    at first) and R <- (R - B X_i) / p, which divides exactly (as a
    product with ``_PRIME_INVERSE``).  The steps stop once a fixed
    weighted sum of X's entries rebuilds to the same fraction at two steps
    in a row, whose denominator is the guess, or else once p^k > 2
    ``bound2``, a bound on the square of every denominator and numerator,
    past which every entry rebuilds.  With r < 2^21 rows every int64 sum
    of products of residues below is exact."""
    r, width = N.shape
    # B's nonzeros row by row, for the sparse product B X_i
    B_rows, B_cols = np.nonzero(B)
    B_values = B[B_rows, B_cols][:, None]
    starts = np.flatnonzero(np.diff(B_rows, prepend=-1))
    weights = np.arange(r * width, dtype=np.int64).reshape(r, width) % 97 + 1
    residual = N
    digits = []
    modulus, probe, previous = 1, 0, None
    while modulus <= 2 * bound2:
        x = inverse @ (residual % PRIME) % PRIME
        product = np.zeros_like(residual)
        product[B_rows[starts]] = np.add.reduceat(B_values * x[B_cols], starts)
        residual = (residual - product) * _PRIME_INVERSE
        probe += int((weights * x).sum()) * modulus
        modulus *= PRIME
        digits.append(x)
        found = _rational(probe, modulus, isqrt((modulus - 1) // 2))
        if found is not None and found == previous:
            break
        previous = found
    # Three digits make one int64 (p^3 < 2^63), then Python integers.
    values = [0] * (r * width)
    scale = 1
    for k in range(0, len(digits), 3):
        chunk = digits[k]
        for t, x in enumerate(digits[k + 1:k + 3], 1):
            chunk = chunk + x * PRIME**t
        values = [v + c * scale for v, c in zip(values, chunk.T.ravel().tolist())]
        scale *= PRIME**3
    return values, modulus, previous[1] if previous is not None else 1


def _rational(u: int, modulus: int, bound: int) -> Optional[Tuple[int, int]]:
    """The fraction a / b = u mod ``modulus`` with |a| <= bound and
    0 < b <= bound, as (a, b), or None when there is none (Wang 1981).
    With 2 bound^2 < modulus it is unique."""
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def kernel_basis(matrix: RationalMatrix, side: str = "right") -> KernelBasis:
    """Exact kernel basis; dimension is cols - rank (right) or
    rows - rank (left).

    Each vector is the reduced row echelon form's vector of one free
    column of the matrix (its transpose for "left"), normalized to
    coprime integer entries with a positive leading entry, and the
    vectors are ordered by their free column.  They are read off the
    integer elimination, or from ``MOD_P_MIN_ENTRIES`` entries up lifted
    p-adically and certified (see the module docstring), with the same
    result.  The integer vectors are cached on the matrix, so a second
    call on the same object does not compute them again, and the basis
    holds them as they are (``KernelBasis.integers``).  When the exact
    rank is already in hand (cached, read off the cached right kernel, or
    certified mod p) and equals the side's length, the kernel is {0} and
    no elimination runs: the left kernel of a matrix of full row rank is
    free once its right kernel is known.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    return KernelBasis(_kernel_vectors(matrix, side), side)


def _phase1_simplex(tableau: List[List[int]], n: int) -> Optional[Tuple[List[int], int]]:
    """Solve {u >= 0 : A u = b} exactly, given the integer tableau of m rows
    [L A | L b] with b >= 0 and L > 0; returns (numerators of u, common
    denominator) or None if infeasible.

    Phase-1 simplex: one artificial variable per equation, basic at the
    start, minimize their sum, entering/leaving choices by Bland's rule
    (anti-cycling), with artificial i numbered n + i for the tie-break.
    The tableau is kept as integers over the last pivot D, which starts at
    1, pivoted with the elimination's row update, so every division is
    exact; divided by D it is the rational tableau, except that the
    objective row and the rows not yet pivoted on stay scaled by L.  No
    sign, ratio or tie depends on a positive row scale, so the pivots are
    those of the rational simplex, and the solution is read from pivoted
    rows.

    The artificial columns are never stored, and the run ends as soon as
    phase 1 is decided:

    - Once the objective is 0, every further pivot is degenerate (a step
      above 0 would push a sum of nonnegative variables below 0), so the
      point, and with it the witness, cannot move.  The loop stops there.
    - While the objective is above 0 and no structural column has a
      negative reduced cost, the simplex multipliers y give
      y^t A <= 0 < y^t b, so by Farkas' lemma no u >= 0 has A u = b: the
      answer is None.

    So no artificial column ever enters.  A row update reads only the
    row's own entries and the entering column, so leaving the artificial
    block out of the tableau (n + 1 columns instead of n + m + 1) changes
    no pivot.
    """
    m = len(tableau)
    basis = [n + i for i in range(m)]
    # Reduced-cost row for the phase-1 objective (artificials cost 1);
    # its last cell is minus the objective's value.
    obj = [-sum(column) for column in zip(*tableau)]

    prev = 1
    while obj[n]:
        entering = next((j for j in range(n) if obj[j] < 0), None)
        if entering is None:
            return None
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                # ratio b_i / coeff against the best row's, cross-multiplied
                lhs = tableau[i][n] * tableau[leaving][entering]
                best = tableau[leaving][n] * coeff
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

    u = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            u[var] = tableau[i][n]
    return u, prev


def is_conserving(S: RationalMatrix) -> ConservationResult:
    """Decide exactly whether some m >= 1 (entrywise) has m^t S = 0.

    The lower bound 1 removes the scale degeneracy of the open condition
    "strictly positive left-kernel vector": a positive vector exists iff
    one with entries >= 1 does.  Substituting m = 1 + u reduces the check
    to phase-1 feasibility of {u >= 0 : S^t u = -S^t 1}, solved by the
    integer-pivot simplex on the tableau [L A | L b] of S's nonzeros, all
    cleared by one lcm L of their denominators (each row's sign flipped
    where its right-hand side would be negative); the artificial columns
    are left implicit (see ``_phase1_simplex``).  The simplex ends when
    the objective reaches 0, at once when S^t 1 = 0, or when no column of
    S^t can lower it.  The witness D m (D the simplex's last pivot) is
    checked in integers against the denominator-cleared rows of S^t
    before it is returned as Fractions.

    Such an m is a nonzero left-kernel vector, so an empty left kernel of
    S (from its cache, or computed and cached as by ``kernel_basis``)
    answers "not conserving" without a simplex.  Otherwise the simplex
    decides, on S's entries alone, so the witness does not depend on the
    kernel.
    """
    if not _kernel_vectors(S, "left"):
        return ConservationResult(False, None)
    n, m = S.rows, S.cols
    rows, scales = _cleared(S.nonzeros())
    # row i times L / c_i: each entry v is v.numerator * (L // v.denominator)
    scale = lcm(*scales)
    tableau = [[0] * (n + 1) for _ in range(m)]
    for i, (row, c) in enumerate(zip(rows, scales)):
        for j, x in row:
            tableau[j][i] = x * (scale // c)
    for row in tableau:
        # the right-hand side is minus the row's sum; keep it nonnegative
        total = sum(row)
        if total > 0:
            row[:n] = [-x for x in row[:n]]
        row[n] = abs(total)
    solved = _phase1_simplex(tableau, n)
    if solved is None:
        return ConservationResult(False, None)
    u, denom = solved
    scaled = [denom + value for value in u]
    if not _in_kernel(S, "left", [scaled]) or any(value < denom for value in scaled):
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
    key, else from ``_kernel_vectors``.  Only the rows of ``S_check``
    that differ from S's, and its border row d, are read (see the module
    docstring): each padded vector is checked exactly on them to lie in
    the kernel of ``S_check``; a miss is the answer False.  The padded
    vectors are independent, since their heads are a basis, so each
    nullity of ``S_check`` over Q is at least their count.  When every
    changed row differs from S's by a multiple of row d, which is nonzero
    in column d', the rank of ``S_check`` is at least rank(S) + 1, and
    when that plus each count is the column (right) and the row (left)
    count, the bounds meet: the padded bases are bases of the kernels of
    ``S_check`` and the maps are bijections, with no elimination.  They
    are then cached on ``S_check`` under ("chain", side), never as the
    basis that ``kernel_basis`` returns, together with the now exact
    rank, so the next step of a chain (S_check passed as S) starts from
    them: a chain of steps over the same matrix objects eliminates S_0
    only, unless a certificate fails.  When it fails, the exact rank of
    ``S_check``, read off its right kernel eliminated over Q, decides
    whether the counts are its nullities.  Every bound comes from the
    entries of ``S_check``; nothing is inferred from the bordering
    theorem.

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
    # the matrix's own value, an int or a Fraction, whatever the record's type
    value = dict(S.nonzeros()[q]).get(ell, 0)
    if value != p2 or value <= 0:
        raise ValueError("fix step records a positive entry the matrix lacks")

    # Any integer basis of S's kernels gives the same answer: membership
    # is linear, the counts are the dimensions, and for every vector the
    # added coordinate is a copy (a positive multiple) of an existing one.
    # S's bases are exact, so a row of S_check equal to S's row (and so
    # empty in column n) kills every padded right vector, and the rows of
    # S weighted by a padded left vector sum to 0: only the changed rows
    # and the border row d are read.
    rows, check_rows = S.nonzeros(), S_check.nonzeros()
    n, border = S.cols, dict(check_rows[S.rows])
    changed = [i for i, row in enumerate(rows) if check_rows[i] != row]
    right = S._cache.get(("chain", "right"))
    if right is None:
        right = _kernel_vectors(S, "right")
    padded_right = _pad_right(right, ell)
    if not _kills(_cleared([check_rows[i] for i in changed + [S.rows]])[0], padded_right):
        return False
    left = S._cache.get(("chain", "left"))
    if left is None:
        left = _kernel_vectors(S, "left")
    padded_left = _pad_left(left, q, value)
    # w'^t S_check is the sum of w'_i (rC_i - rS_i) over the changed rows i
    # and w'_d rC_d: tested column by column on those lines.
    differences = [_difference(check_rows[i], rows[i]) for i in changed]
    columns: Dict[int, List[Tuple[int, Exact]]] = {}
    for i, line in zip(changed + [S.rows], differences + [border]):
        for j, x in line.items():
            columns.setdefault(j, []).append((i, x))
    if not _kills(_cleared(columns.values())[0], padded_left):
        return False

    # Rank certificate: when every changed row is rS_i plus a multiple of
    # rC_d, and rC_d is nonzero in column n, S_check's rows span S's rows
    # (0 in column n) and rC_d, so rank(S_check) >= rank(S) + 1, with
    # rank(S) = n - |right| exact.  The padded vectors bound each nullity
    # from below; on the right the bounds meet by that count, on the left
    # when rank(S) + 1 + |padded left| = d + 1.
    lead = border.get(n, 0)
    certified = lead != 0 and all(
        line.keys() == border.keys()
        and all(line[j] * lead == line[n] * x for j, x in border.items())
        for line in differences
    )
    check_rank = n - len(right) + 1
    if certified and check_rank + len(padded_left) == S_check.rows:
        S_check._cache[("chain", "right")] = padded_right
        S_check._cache[("chain", "left")] = padded_left
        S_check._cache["rank"] = check_rank
    else:
        # The exact rank of S_check, from its right kernel eliminated over
        # Q, decides whether the counts are the nullities.
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


def _difference(new: SparseRow, old: SparseRow) -> Dict[int, Exact]:
    """The row new - old as a dict of its nonzero entries, each in
    canonical form."""
    difference = dict(new)
    for j, x in old:
        difference[j] = difference.get(j, 0) - x
    return {j: _exact(x) for j, x in difference.items() if x}


def _pad_right(vectors: IntRows, ell: int) -> IntRows:
    """Each right kernel vector v of S padded with v[l]."""
    return tuple(v + (v[ell],) for v in vectors)


def _pad_left(vectors: IntRows, q: int, p2: Exact) -> IntRows:
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

    With c_i the row scales of ``_cleared`` and P their product, the
    integer rows lambda c_i e_i - C_i have determinant P det(lambda I - M),
    an integer polynomial of degree n.  Its values at the n + 1 nodes
    lambda = 0..n fix it, and Newton's divided differences on those nodes
    (spaced 1 apart, so the k-th division is by k, and exact) interpolate
    them in integers.  Each coefficient is then divided by P, so the
    returned list has length n+1 and is monic (last coefficient 1).
    """
    if matrix.rows != matrix.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.rows
    rows, scales = _cleared(matrix.nonzeros())
    negated = [[-x for x in row] for row in _dense(rows, n)]
    values = []
    for lam in range(n + 1):
        a = [list(row) for row in negated]
        for i, c in enumerate(scales):
            a[i][i] += lam * c
        values.append(_integer_determinant(a))
    # Divided differences in place: values[k] becomes p[0, 1, ..., k].
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            values[i] = (values[i] - values[i - 1]) // k
    # Expand the Newton form from the inside: poly = poly * (lambda - k) + values[k].
    poly = [values[n]]
    for k in range(n - 1, -1, -1):
        inner = [a - k * b for a, b in zip(poly, poly[1:])]
        poly = [values[k] - k * poly[0]] + inner + [poly[-1]]
    scale = prod(scales)
    return [Fraction(c, scale) for c in poly]
