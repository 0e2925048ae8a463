"""Sign-pattern extraction and the combinatorial sign-status checkers.

Every check reads S through its nonzeros (``RationalMatrix.nonzeros()``),
never through all d x d' entries: a fixed S is mostly zeros, since each
fixing step borders it with one row and one column of two nonzeros each.
``sign_pattern`` writes the sign of each nonzero into rows of zeros;
``find_bad_submatrices`` keeps each row's positive and negative columns
as sets; and ``_plus_minus`` scatters the nonzeros into P = (S > 0) and
N = (S < 0), int64 0/1 arrays.  The number of terms of each sign that
feed an entry of a derived matrix is then an integer matrix product, and
``_status`` maps the pair (plus count, minus count) of each entry to its
status:

* ``jacobian_sign_status``: term k of entry (i, j) of the Jacobian
  S v'(x) is present iff reaction k consumes species j, and it has the
  sign of S_ik, so the counts are (P N^t, N N^t).  Only the
  one-plus-three-minuses 2x2 pattern (``find_bad_submatrices``)
  obstructs a sign there.

* ``hermitian_square_status``: term k of entry (i, j) of A A^t is plus
  iff A_ik and A_jk have equal nonzero signs and minus iff they have
  opposite ones, so the counts are (P P^t + N N^t, P N^t + N P^t).  Both
  2x2 patterns (one plus with three minuses, and one minus with three
  pluses) matter.  It takes a sign pattern, not S, so its P and N come
  from the pattern's signs.

``find_bad_submatrices`` enumerates once per matrix and keeps the
classes in its ``_cache``; each call returns a fresh list of the
immutable classes, so the bad-classes section, ``sign_fix`` and the
single-positive-column check share one enumeration of S.

The counts are exact: products of 0/1 arrays in int64, no float.  A
narrower type would not do: an int8 product wraps at 128 contributing
columns, and a count of 256 wraps to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

from .model import Network, RationalMatrix, stoichiometric_matrix, validate_reaction_form


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"
    ZERO = "0"

    @property
    def symbol(self) -> str:
        return self.value


class Status(Enum):
    PLUS = "+"
    MINUS = "-"
    ZERO = "0"
    AMBIGUOUS = "?"

    @property
    def symbol(self) -> str:
        return self.value


SignMatrix = Tuple[Tuple[Sign, ...], ...]


@dataclass(frozen=True)
class SignStatusMatrix:
    """Per-entry sign statuses of a derived matrix (A A^t or a Jacobian)."""

    entries: Tuple[Tuple[Status, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def ambiguous_entries(self) -> List[Tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self.entries)
            for j, status in enumerate(row)
            if status is Status.AMBIGUOUS
        ]

    def symbols(self) -> List[List[str]]:
        return [[status.symbol for status in row] for row in self.entries]


@dataclass(frozen=True)
class BadSubmatrix:
    """A 2x2 submatrix of S with four nonzero entries, exactly one positive.

    ``rows`` are the two species indices, ``cols`` the two reaction
    indices (each ascending), and ``positive_at`` locates the unique
    positive entry within S.
    """

    rows: Tuple[int, int]
    cols: Tuple[int, int]
    positive_at: Tuple[int, int]


@dataclass(frozen=True)
class BadClass:
    """All bad submatrices sharing one positive entry of S.

    The classes partition the bad-submatrix set; one fixing step removes
    exactly one class.
    """

    positive_entry: Tuple[int, int]
    members: Tuple[BadSubmatrix, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _plus_minus(matrix: RationalMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """P = (M > 0) and N = (M < 0) as int64 0/1 arrays, scattered from
    the matrix's nonzeros.  An exact value has the sign of its
    numerator (an int is its own), which is compared as a plain int."""
    plus: Tuple[List[int], List[int]] = ([], [])
    minus: Tuple[List[int], List[int]] = ([], [])
    for i, row in enumerate(matrix.nonzeros()):
        for j, v in row:
            rows, cols = plus if v.numerator > 0 else minus
            rows.append(i)
            cols.append(j)
    P = np.zeros((matrix.rows, matrix.cols), dtype=np.int64)
    N = np.zeros((matrix.rows, matrix.cols), dtype=np.int64)
    P[plus] = 1
    N[minus] = 1
    return P, N


# Indexed by plus + 2 * minus.
_STATUSES = (Status.ZERO, Status.PLUS, Status.MINUS, Status.AMBIGUOUS)


def _status(plus: np.ndarray, minus: np.ndarray) -> SignStatusMatrix:
    """Each entry's status from its counts of plus and minus terms:
    ambiguous if both occur, else the sign that occurs, zero if none."""
    codes = (plus > 0) + 2 * (minus > 0)
    return SignStatusMatrix(tuple(tuple(_STATUSES[c] for c in row) for row in codes.tolist()))


def sign_pattern(matrix: RationalMatrix) -> SignMatrix:
    """Entrywise signs of an exact matrix: each row is zeros with the sign
    of each nonzero written in."""
    out = []
    for row in matrix.nonzeros():
        signs = [Sign.ZERO] * matrix.cols
        for j, v in row:
            signs[j] = Sign.PLUS if v.numerator > 0 else Sign.MINUS
        out.append(tuple(signs))
    return tuple(out)


def hermitian_square_status(pattern: SignMatrix) -> SignStatusMatrix:
    """Sign statuses of A A^t for a sign pattern A.

    Entry (i, j) is ambiguous iff there are columns k, l with
    sign A_ik = sign A_jk != 0 and sign A_il = -sign A_jl != 0; otherwise
    it carries the common sign of the nonzero products A_ik * A_jk (zero
    if none).  Diagonal entries are never minus.  The plus and minus
    counts are P P^t + N N^t and P N^t + N P^t, in int64.
    """
    width = len(pattern[0]) if pattern else 0
    P, N = (
        np.array([[s is sign for s in row] for row in pattern], dtype=np.int64)
        .reshape(len(pattern), width)
        for sign in (Sign.PLUS, Sign.MINUS)
    )
    return _status(P @ P.T + N @ N.T, P @ N.T + N @ P.T)


def find_bad_submatrices(S: RationalMatrix) -> List[BadClass]:
    """Enumerate every 2x2 submatrix of S with exactly one positive and
    three negative entries, grouped into equivalence classes by the shared
    positive entry.

    A row pair i < j holds one for each column negative in both rows
    combined with each column positive in one row and negative in the
    other; the submatrices of a row pair are listed by their column pair.
    Classes are listed in lexicographic order of their positive entry
    (row, then column); members keep the enumeration order.  Each row's
    positive and negative columns are read from its nonzeros.

    The classes are found once per matrix and kept in its ``_cache``
    (they are immutable); each call returns a fresh list of them.
    """
    classes = S._cache.get("bad_classes")
    if classes is None:
        classes = S._cache["bad_classes"] = _bad_classes(S)
    return list(classes)


def _bad_classes(S: RationalMatrix) -> Tuple[BadClass, ...]:
    rows = S.nonzeros()
    positive = [{c for c, v in row if v.numerator > 0} for row in rows]
    negative = [{c for c, v in row if v.numerator < 0} for row in rows]
    by_entry: dict = {}
    for i in range(S.rows - 1):
        for j in range(i + 1, S.rows):
            both_negative = negative[i] & negative[j]
            if not both_negative:
                continue
            one_positive = [(c, i) for c in positive[i] & negative[j]]
            one_positive += [(c, j) for c in negative[i] & positive[j]]
            pairs = sorted(
                ((min(k, c), max(k, c)), row, c)
                for k in both_negative
                for c, row in one_positive
            )
            for cols, pos_row, pos_col in pairs:
                bad = BadSubmatrix((i, j), cols, (pos_row, pos_col))
                by_entry.setdefault((pos_row, pos_col), []).append(bad)
    return tuple(
        BadClass(entry, tuple(members))
        for entry, members in sorted(by_entry.items())
    )


def jacobian_sign_status(net: Network) -> SignStatusMatrix:
    """Sign statuses of the reaction Jacobian S v'(x) over the positive
    orthant, valid for every monotone nondecreasing flux family.

    Term k of entry (i, j) contributes sign(S_ik) exactly when reaction k
    consumes species j (S_jk < 0); an entry is ambiguous iff both signs
    occur among its contributing terms.  The plus and minus counts are
    P N^t and N N^t, in int64.

    Raises:
        ValueError: if the network violates reaction form (some species
            appears on both sides of a reaction), since then flux
            dependencies are not determined by the signs of S.
    """
    violations = validate_reaction_form(net)
    if violations:
        raise ValueError(
            f"network is not in reaction form (violations: {violations}); "
            "sign analysis does not apply"
        )
    P, N = _plus_minus(stoichiometric_matrix(net))
    return _status(P @ N.T, N @ N.T)
