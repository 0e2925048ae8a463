"""Core data model: species, complexes, reactions, networks, and the
exact-rational matrices derived from them.

Everything in this module is immutable after construction and exact,
so all derived matrices are bit-reproducible.  Every exact value is kept
in one canonical form: a plain ``int`` when it is integral, and a
``fractions.Fraction`` only when its denominator is above 1.  Stoichiometric
coefficients are nearly always integers, and an ``int`` hashes, compares,
negates and prints in C where a ``Fraction`` runs Python code; ``==``,
``hash``, ordering and ``str`` agree between ``3`` and ``Fraction(3)``,
so the form changes no result and no output byte.

A network's S is built on the first ``stoichiometric_matrix`` call and
kept on the ``Network`` instance, so its callers share one matrix and
everything ``exactla`` caches on it (integer images, kernels, rank).

S is sparse: a fixing step borders it with one row and one column of two
nonzeros each, so a fixed S is mostly zeros.  A ``RationalMatrix`` is
therefore stored as its nonzeros alone, each row's nonzero entries as
(column, value) pairs, and the readers of S (the sign checks, the
integer images, the exact strings) walk those.  ``stoichiometric_matrix`` builds them
straight from the reaction terms; the public constructor finds them by
one scan of the entries it is given.  The dense views (indexing, rows,
columns, ``entries()``) are read from the nonzeros on each call, and no
copy of them is kept.  They serve the public API and the test oracles
only: no production code reads them, and the test suite's replay of
every golden CLI record asserts that it makes no call to any of them.

A ``Complex`` is its sorted terms tuple and nothing more: it checks the
terms in one pass, and its hash is the dataclass hash of the terms.  A
fixing step builds its network with ``Network._bordered``, which splices
the tuples without re-running the network checks, since the step keeps
each of them by construction; so a step costs its own change and not the
size of the network.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

# The species-name rule, ASCII only; ``textio``'s scanner reads names with it.
SPECIES_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

RationalLike = Union[int, str, Fraction]
# An exact value in canonical form: a plain int, or a Fraction whose
# denominator is above 1.
Exact = Union[int, Fraction]
# One row of a matrix's nonzero entries: (column, value) pairs in column order.
SparseRow = Tuple[Tuple[int, Exact], ...]

# A zero entry of a dense view, which reads every entry as a Fraction.
_ZERO = Fraction(0)


def _exact(value: RationalLike) -> Exact:
    """The canonical form of an int (``bool`` and other subclasses
    included), a string like "3", "0.5" or "2/3", or a Fraction: a plain
    ``int`` when the value is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not isinstance(value, (int, str, Fraction)):
            raise TypeError(f"cannot interpret {value!r} as an exact rational")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True)
class Species:
    """A chemical species.

    Attributes:
        name: Identifier; must match ``[A-Za-z_][A-Za-z0-9_']*``.
        index: 0-based position in the owning network's species order.
    """

    name: str
    index: int

    def __post_init__(self) -> None:
        if not SPECIES_NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid species name {self.name!r}")
        if self.index < 0:
            raise ValueError("species index must be nonnegative")


@dataclass(frozen=True)
class Complex:
    """A formal nonnegative combination of species (one side of a reaction).

    ``terms`` maps species index to a strictly positive rational
    coefficient, stored as a tuple of (index, coefficient) pairs sorted by
    index, each coefficient in canonical form (a plain ``int`` when
    integral, else a ``Fraction``).  The empty tuple is the zero complex.
    Two complexes are equal iff their term maps are equal.
    """

    terms: Tuple[Tuple[int, Exact], ...]

    def __post_init__(self) -> None:
        """Each term in turn: index not repeated, coefficient exact, then
        positive; after all terms, indices sorted.  One pass: while the
        indices strictly increase none can repeat, so the set of seen
        indices is built only once one does not increase.  A plain ``int``
        coefficient passes with one type test; the terms are rebuilt in
        canonical form only when some coefficient is not in it."""
        seen = None
        previous = None
        rebuild = False
        for position, (index, coeff) in enumerate(self.terms):
            if seen is None and position and not previous < index:
                seen = {i for i, _ in self.terms[:position]}
            if seen is not None:
                if index in seen:
                    raise ValueError(f"duplicate species index {index} in complex")
                seen.add(index)
            previous = index
            if type(coeff) is not int:
                if not isinstance(coeff, (int, Fraction)):
                    # stoichiometric_matrix relies on exact coefficients
                    raise TypeError(f"cannot interpret {coeff!r} as an exact rational")
                rebuild = rebuild or type(coeff) is not Fraction or coeff.denominator == 1
            if coeff.numerator <= 0:
                raise ValueError("complex coefficients must be positive")
        if seen is not None:
            raise ValueError("complex terms must be sorted by species index")
        if rebuild:
            object.__setattr__(
                self, "terms", tuple((index, _exact(coeff)) for index, coeff in self.terms)
            )

    @classmethod
    def from_dict(cls, terms: Mapping[int, RationalLike]) -> "Complex":
        items = sorted((i, _exact(c)) for i, c in terms.items())
        return cls(tuple(items))

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def coefficient(self, species_index: int) -> Exact:
        for index, coeff in self.terms:
            if index == species_index:
                return coeff
        return 0

    def species_indices(self) -> Tuple[int, ...]:
        return tuple(index for index, _ in self.terms)

    def format(self, species: Sequence[Species]) -> str:
        """Render as text, e.g. ``3B+C``; the zero complex renders as
        ``0``."""
        if not self.terms:
            return "0"
        parts = []
        for index, coeff in self.terms:
            name = species[index].name
            parts.append(name if coeff == 1 else f"{coeff}{name}")
        return "+".join(parts)


@dataclass(frozen=True)
class Reaction:
    """A single irreversible reaction: reactant complex -> product complex.

    Attributes:
        reactant: Consumed complex.
        product: Produced complex.
        rate: Optional finite, strictly positive rate constant.
        label: Optional free-form tag (kept through transformations).
    """

    reactant: Complex
    product: Complex
    rate: Optional[float] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.reactant == self.product:
            raise ValueError("reactant and product complexes must differ")
        if self.rate is not None and not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("rate constants must be finite and strictly positive")

    def shared_species(self) -> Tuple[int, ...]:
        """Species indices occurring on both sides of this reaction."""
        reactant_side = set(self.reactant.species_indices())
        return tuple(i for i in self.product.species_indices() if i in reactant_side)


@dataclass(frozen=True)
class Network:
    """An ordered reaction network.

    The species order fixes matrix row order and the reaction order fixes
    column order.  Reversible input reactions are stored as two
    irreversible reactions (forward first); the pairing is retained in
    ``reversible_pairs`` as (forward index, reverse index) tuples so that
    serialization can reconstruct the reversible syntax.

    By default a reaction whose reactant and product complexes share a
    species is rejected because it breaks the reaction-form property that
    flux j depends exactly on the species consumed by reaction j.  Pass
    ``allow_catalysts=True`` to store such networks anyway; sign-pattern
    analyses will then report themselves not applicable.
    """

    species: Tuple[Species, ...]
    reactions: Tuple[Reaction, ...]
    reversible_pairs: Tuple[Tuple[int, int], ...] = ()
    allow_catalysts: bool = False

    def __post_init__(self) -> None:
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ValueError("species names must be unique")
        for position, s in enumerate(self.species):
            if s.index != position:
                raise ValueError(
                    f"species {s.name!r} has index {s.index}, expected {position}"
                )
        if not self.reactions:
            raise ValueError("a network must contain at least one reaction")
        referenced = set()
        for r in self.reactions:
            for side in (r.reactant, r.product):
                for index, _ in side.terms:
                    if index >= len(self.species):
                        raise ValueError(f"species index {index} out of range")
                    referenced.add(index)
        unreferenced = set(range(len(self.species))) - referenced
        if unreferenced:
            missing = ", ".join(self.species[i].name for i in sorted(unreferenced))
            raise ValueError(f"species never referenced by any reaction: {missing}")
        if not self.allow_catalysts:
            for j, r in enumerate(self.reactions):
                shared = r.shared_species()
                if shared:
                    names_ = ", ".join(self.species[i].name for i in shared)
                    raise ValueError(
                        f"reaction {j} has species on both sides ({names_}); "
                        "pass allow_catalysts=True to store it anyway"
                    )
        for fwd, rev in self.reversible_pairs:
            if not (0 <= fwd < len(self.reactions) and 0 <= rev < len(self.reactions)):
                raise ValueError("reversible pair index out of range")
            if (
                self.reactions[fwd].reactant != self.reactions[rev].product
                or self.reactions[fwd].product != self.reactions[rev].reactant
            ):
                raise ValueError(
                    f"reactions {fwd} and {rev} are not mirror images; "
                    "invalid reversible pairing"
                )

    @classmethod
    def _bordered(
        cls,
        net: "Network",
        species: Species,
        ell: int,
        rewritten: Reaction,
        added: Reaction,
    ) -> "Network":
        """``net`` after one fixing step: ``species`` (B') appended,
        reaction l replaced by ``rewritten`` (its product has p2*B swapped
        for one B'), ``added`` (B' -> p2*B) appended, and every reversible
        pair that contains l dropped.  Only ``signfix._rewrite`` calls it.

        The tuples are spliced and ``__post_init__`` is skipped, because
        each of its checks holds by construction when ``net`` passed them:

        - names stay unique, since B' is a name ``net`` does not have;
        - B' has index d, the next position;
        - every index is in range, since only B' (index d) is new;
        - every species stays referenced: q, dropped from reaction l's
          product, is the product of ``added``, and B' is in both;
        - no reaction gains a species on both sides: reaction l's product
          gains only B', which no reactant holds, and ``added`` has B' on
          one side and q on the other;
        - every kept pair names two unchanged reactions, still mirror
          images and still in range.

        Equality, hash and repr equal those of the validated
        ``Network(...)`` of the same fields (the tests check this on
        every fix chain).
        """
        bordered = cls.__new__(cls)
        fields = {
            "species": net.species + (species,),
            "reactions": net.reactions[:ell] + (rewritten,) + net.reactions[ell + 1:] + (added,),
            "reversible_pairs": tuple(p for p in net.reversible_pairs if ell not in p),
            "allow_catalysts": net.allow_catalysts,
        }
        for name, value in fields.items():
            object.__setattr__(bordered, name, value)
        return bordered

    @property
    def species_count(self) -> int:
        return len(self.species)

    @property
    def reaction_count(self) -> int:
        return len(self.reactions)


class RationalMatrix:
    """A matrix of exact rationals, stored as its nonzeros: an immutable
    value with construction, indexing and accessors, and no arithmetic of
    its own.  The exact computations on a matrix live in ``exactla``.

    ``_nonzeros`` holds each row's nonzero entries as (column, value) pairs
    in column order, each value in canonical form (a plain ``int`` when
    integral, else a ``Fraction``), and is the only stored form: indexing,
    ``row``, ``column``, ``entries()`` and ``repr`` read the dense view
    from it.  The dense views return every entry as a ``Fraction``, a
    missing one being ``Fraction(0)``, so their callers may divide with
    ``/`` and stay exact.  ``_cache`` is a per-instance dict
    for data derived from the entries (``exactla`` keeps the integer images
    and kernel vectors there, ``signcheck`` the bad classes); equality,
    hash and repr ignore it, and since the entries never change it cannot
    go stale.
    """

    __slots__ = ("rows", "cols", "_nonzeros", "_cache")

    def __init__(self, entries: Iterable[Iterable[RationalLike]]):
        dense = [tuple(map(_exact, row)) for row in entries]
        if not dense or not dense[0]:
            raise ValueError("matrix dimensions must be positive")
        cols = len(dense[0])
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged rows in matrix")
        self.rows, self.cols = len(dense), cols
        self._nonzeros = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in dense)
        self._cache = {}

    @classmethod
    def _of_nonzeros(
        cls, rows: int, cols: int, nonzeros: Tuple[SparseRow, ...]
    ) -> "RationalMatrix":
        """A rows x cols matrix of nonzeros the caller has built: nonzero
        values in canonical form, in column order, one tuple per row."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix._nonzeros, matrix._cache = rows, cols, nonzeros, {}
        return matrix

    def __getitem__(self, key: Tuple[int, int]) -> Fraction:
        i, j = key
        j = _position(j, self.cols)
        return Fraction(next((v for c, v in self._nonzeros[i] if c == j), 0))

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return _dense(self._nonzeros[i], self.cols)

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(self[i, j] for i in range(self.rows))

    def entries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The dense rows, built on each call."""
        return tuple(_dense(row, self.cols) for row in self._nonzeros)

    def nonzeros(self) -> Tuple[SparseRow, ...]:
        """Each row's nonzero entries as (column, value) pairs in column
        order."""
        return self._nonzeros

    def to_string_rows(self) -> List[List[str]]:
        """Rows of exact decimal-free strings such as "3" or "-1/2"."""
        out = []
        for row in self._nonzeros:
            strings = ["0"] * self.cols
            for j, v in row:
                strings[j] = str(v)
            out.append(strings)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._nonzeros) == (other.rows, other.cols, other._nonzeros)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._nonzeros))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, _dense(row, self.cols))) for row in self._nonzeros)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"


def _position(index: int, size: int) -> int:
    """``index`` as a position in 0..size-1, a negative one counting from
    the end, as a tuple counts it."""
    position = operator.index(index)
    if position < 0:
        position += size
    if not 0 <= position < size:
        raise IndexError("matrix index out of range")
    return position


def _dense(row: SparseRow, cols: int) -> Tuple[Fraction, ...]:
    """One row of nonzeros as its ``cols`` entries, each a ``Fraction``."""
    dense = [_ZERO] * cols
    for j, v in row:
        dense[j] = Fraction(v)
    return tuple(dense)


def stoichiometric_matrix(net: Network) -> RationalMatrix:
    """The d x d' matrix whose entry (i, j) is the net production of
    species i by reaction j (product coefficient minus reactant
    coefficient).

    Built on the first call and kept on the network (not a field:
    equality, hash, repr and ``dataclasses.replace`` ignore it), so later
    calls return the same object.  Each row's nonzeros are appended in
    reaction order straight from the terms, and they are the matrix.  A
    species on both sides of reaction j (a catalyst) meets its own
    reactant entry last in row i, so its product term is added to that
    entry, which is dropped if the two cancel.  The terms are in canonical
    form already, and so is every entry but such a sum (1/2 + 1/2 is a
    ``Fraction`` of denominator 1), which alone is coerced.
    """
    try:
        return net._matrix
    except AttributeError:
        pass
    rows: List[List[Tuple[int, Exact]]] = [[] for _ in range(net.species_count)]
    for j, reaction in enumerate(net.reactions):
        for index, coeff in reaction.reactant.terms:
            rows[index].append((j, -coeff))
        for index, coeff in reaction.product.terms:
            row = rows[index]
            if row and row[-1][0] == j:
                value = row.pop()[1] + coeff
                if value:
                    row.append((j, _exact(value)))
            else:
                row.append((j, coeff))
    matrix = RationalMatrix._of_nonzeros(
        net.species_count, net.reaction_count, tuple(map(tuple, rows))
    )
    object.__setattr__(net, "_matrix", matrix)
    return matrix


def validate_reaction_form(net: Network) -> List[Tuple[int, int]]:
    """Find all (species index, reaction index) pairs where a species
    occurs on both sides of one reaction.

    An empty list means the network is in reaction form under mass
    action: flux j depends exactly on the species it consumes.
    """
    violations: List[Tuple[int, int]] = []
    for j, reaction in enumerate(net.reactions):
        for index in reaction.shared_species():
            violations.append((index, j))
    return sorted(violations)
