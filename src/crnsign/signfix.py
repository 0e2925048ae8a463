"""The sign-fixing construction.

One step targets an equivalence class of bad submatrices, identified by
its shared positive entry (q, l) of value p2: reaction l stops producing
p2 units of species q and instead produces one unit of a fresh species,
and a new reaction converts that species back into p2 units of q at a
chosen rate.  In matrix terms the positive entry is zeroed and the matrix
is bordered by one row (+1 in column l, -1 in the new column) and one
column (p2 in row q, -1 in the new row).  Each step validates its two
new reactions and builds the stepped network through
``Network._bordered``; just before its step, a target is re-checked as
still bad from the product and reactant coefficients of its members'
entries.

Also here: the verification of the order-permutation relation between two
full runs, and the single-bordering shortcut that removes every bad
submatrix at once but is documented to break the kernel dimension (it is
never used by ``sign_fix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from . import exactla
from .model import (
    Complex,
    Exact,
    Network,
    Reaction,
    RationalMatrix,
    Species,
    _exact,
    stoichiometric_matrix,
)
from .signcheck import BadClass, find_bad_submatrices


@dataclass(frozen=True)
class FixStep:
    """Audit record of one fixing step.

    Attributes:
        target_class: The class removed by this step (entries refer to the
            matrix current at the time of the step).
        modified_column: Reaction index l whose product was rewritten.
        zeroed_entry: (species index q, positive value p2) that was zeroed;
            p2 is in ``model``'s canonical exact form.
        added_species: Name of the fresh species.
        added_species_index: Its row index (d at the time of the step).
        added_reaction_index: Column index of the appended reaction
            (d' at the time of the step, 0-based).
        added_rate: Rate constant of the appended reaction.
    """

    target_class: BadClass
    modified_column: int
    zeroed_entry: Tuple[int, Exact]
    added_species: str
    added_species_index: int
    added_reaction_index: int
    added_rate: float


@dataclass(frozen=True)
class FixReport:
    """Full audit trail of a fixing run.

    ``networks`` holds the whole chain: the original network, then one
    network per completed step (so ``len(networks) == len(steps) + 1``).
    ``order`` records which class of the original enumeration each step
    targeted (a permutation of ``range(len(steps))``).
    """

    steps: Tuple[FixStep, ...]
    networks: Tuple[Network, ...]
    order: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.networks) != len(self.steps) + 1:
            raise ValueError("networks must contain one entry per step plus the original")
        if sorted(self.order) != list(range(len(self.steps))):
            raise ValueError("order must be a permutation of the step indices")

    @property
    def original(self) -> Network:
        return self.networks[0]

    @property
    def result(self) -> Network:
        return self.networks[-1]

    def matrices(self) -> List[RationalMatrix]:
        return [stoichiometric_matrix(net) for net in self.networks]


@dataclass(frozen=True)
class AltFixReport:
    """Comparison data for the single-bordering shortcut."""

    classes_removed: int
    degenerate: bool
    kernel_dim_original: int
    kernel_dim_alt: int
    left_kernel_dim_original: int
    left_kernel_dim_alt: int
    conserving_original: exactla.ConservationResult
    conserving_alt: exactla.ConservationResult

    @property
    def kernel_dim_preserved(self) -> bool:
        return self.kernel_dim_original == self.kernel_dim_alt


def _fresh_species_name(base: str, taken: set) -> str:
    candidate = base + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


def fix_one(net: Network, cls: BadClass, rate: float = 1.0) -> Tuple[Network, FixStep]:
    """Apply one fixing step at the given class.

    Reaction l's product term p2*B is replaced by one unit of a fresh
    primed species, and a reaction (fresh species) -> p2*B with the given
    rate is appended.

    Raises:
        ValueError: if ``cls`` is stale (its positive entry is no longer a
            current bad class of the network), or if the rate is not
            finite and strictly positive.
    """
    S = stoichiometric_matrix(net)
    q, ell = cls.positive_entry
    current = {c.positive_entry for c in find_bad_submatrices(S)}
    if (q, ell) not in current:
        raise ValueError(
            f"class at entry ({q}, {ell}) is stale: not a bad class of the "
            "current matrix"
        )
    fixed, step = _rewrite(net, cls, rate)
    if step.zeroed_entry[1] != dict(S.nonzeros()[q]).get(ell, 0):
        raise AssertionError("matrix entry disagrees with reaction product")
    return fixed, step


def _rewrite(net: Network, cls: BadClass, rate: float) -> Tuple[Network, FixStep]:
    """The rewrite of ``fix_one`` without its stale-class check.

    p2 is read from reaction l itself, so S is not built.  The two new
    reactions are validated as they are built; the stepped network is
    spliced by ``Network._bordered`` without re-validating the reactions
    it keeps, since the fresh name and the rewrite keep every network
    invariant (its docstring gives the argument).  A step so costs its
    own change, not the size of the network.
    """
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError("added rate constant must be finite and strictly positive")
    q, ell = cls.positive_entry
    reaction = net.reactions[ell]
    if reaction.reactant.coefficient(q) != 0:
        raise ValueError(
            f"species {net.species[q].name!r} is consumed by reaction {ell}; "
            "cannot rewrite its production"
        )
    p2 = reaction.product.coefficient(q)

    taken = {s.name for s in net.species}
    name = _fresh_species_name(net.species[q].name, taken)
    new_index = net.species_count

    # The product's terms are canonical and sorted, and the fresh index is
    # above all of them, so the new complexes are built from their terms.
    product = Complex(tuple(t for t in reaction.product.terms if t[0] != q) + ((new_index, 1),))
    rewritten = Reaction(reaction.reactant, product, reaction.rate, reaction.label)
    added = Reaction(Complex(((new_index, 1),)), Complex(((q, p2),)), float(rate))
    fixed = Network._bordered(net, Species(name, new_index), ell, rewritten, added)
    step = FixStep(
        target_class=cls,
        modified_column=ell,
        zeroed_entry=(q, p2),
        added_species=name,
        added_species_index=new_index,
        added_reaction_index=net.reaction_count,
        added_rate=float(rate),
    )
    return fixed, step


def _is_still_bad(net: Network, cls: BadClass) -> bool:
    """True iff every member of ``cls`` is still a bad submatrix of net.

    Reads the four entries of each member from the reactions, so S is not
    built: entry (i, j) is positive iff reaction j produces more of i than
    it consumes, and negative iff less.
    """
    for member in cls.members:
        for i in member.rows:
            for j in member.cols:
                reaction = net.reactions[j]
                made = reaction.product.coefficient(i)
                used = reaction.reactant.coefficient(i)
                if not (made > used if (i, j) == member.positive_at else made < used):
                    return False
    return True


def fix_one_report(
    net: Network, cls: Optional[BadClass] = None, rate: float = 1.0
) -> FixReport:
    """Apply one step and wrap it in a FixReport.

    The spectral and determinant checks are stated per step, so they take
    one-step reports; this builds one without running the algorithm to
    completion.  Defaults to the first class in the default order.

    Raises:
        ValueError: if the network has no bad classes (there is nothing
            to fix, and an identity report would not satisfy the
            one-step contract).
    """
    if cls is None:
        classes = find_bad_submatrices(stoichiometric_matrix(net))
        if not classes:
            raise ValueError("network has no bad classes; nothing to fix")
        cls = classes[default_order(classes)[0]]
    fixed, step = fix_one(net, cls, rate)
    return FixReport((step,), (net, fixed), (0,))


def default_order(classes: Sequence[BadClass]) -> Tuple[int, ...]:
    """Default class order: by (column, row) of the positive entry.

    Reactions are fixed left to right; order only changes the result up
    to the permutation relation verified by
    ``verify_permutation_relation``.
    """
    return tuple(
        sorted(
            range(len(classes)),
            key=lambda i: (classes[i].positive_entry[1], classes[i].positive_entry[0]),
        )
    )


def sign_fix(
    net: Network,
    order: Optional[Sequence[int]] = None,
    rate: Union[float, Sequence[float]] = 1.0,
) -> FixReport:
    """Run the fixing algorithm to completion.

    Args:
        net: Input network (zero bad classes gives an identity report).
        order: Optional permutation of the original class indices (as
            enumerated by ``find_bad_submatrices``); defaults to
            ``default_order``.
        rate: Rate constant for every added reaction, or one per step.

    Returns:
        FixReport whose result network has no bad submatrices; the number
        of added species equals the number of added reactions equals the
        number of equivalence classes of the original matrix.

    The classes are enumerated once.  By non-interference each step
    removes exactly its own class and leaves the other classes' members
    in place, so the steps apply the rewrites in order; before each step
    the target's members are re-read from the current reactions to check
    that it is still bad.  One enumeration at the end checks that no bad
    class remains.

    Raises:
        ValueError: if ``order`` is not a permutation of the class indices
            or the rates are invalid.
        AssertionError: if a target class is no longer bad before its
            step, or bad classes remain after the last step (an
            implementation fault, not an input error).
    """
    classes = find_bad_submatrices(stoichiometric_matrix(net))
    n = len(classes)
    if order is None:
        order = default_order(classes)
    else:
        order = tuple(order)
        if sorted(order) != list(range(n)):
            raise ValueError(
                f"order must be a permutation of 0..{n - 1}, got {order!r}"
            )
    if isinstance(rate, (int, float)):
        rates = [float(rate)] * n
    else:
        rates = [float(r) for r in rate]
        if len(rates) != n:
            raise ValueError(f"expected {n} rates, got {len(rates)}")

    networks = [net]
    steps: List[FixStep] = []
    current = net
    for position, class_index in enumerate(order):
        target = classes[class_index]
        if not _is_still_bad(current, target):
            raise AssertionError(
                f"class at {target.positive_entry} is no longer bad before its "
                "step; fixing steps must not interfere"
            )
        current, step = _rewrite(current, target, rates[position])
        networks.append(current)
        steps.append(step)

    if find_bad_submatrices(stoichiometric_matrix(current)):
        raise AssertionError("fixing run finished with bad classes remaining")
    return FixReport(tuple(steps), tuple(networks), tuple(order))


def verify_permutation_relation(
    report_a: FixReport, report_b: FixReport
) -> RationalMatrix:
    """Verify that two full runs differ by the class-order permutation.

    For runs with orders sigma and tau over the same original network the
    results satisfy
    ``S_sigma = diag(I_d, P) * S_tau * diag(I_d', P)^t`` where P is the
    permutation matrix with ``P[i][j] = 1`` iff ``tau[j] == sigma[i]``.
    So S_sigma[i][j] must equal S_tau at the row and column indices that
    P maps i and j to (the first d rows and d' columns map to
    themselves).  The identity is checked exactly, row by row: each row of
    S_sigma, its columns mapped, must hold the nonzeros of the mapped row
    of S_tau.

    Returns:
        P as a RationalMatrix.

    Raises:
        ValueError: if the reports do not fix the same original network,
            or the relation fails (which indicates an implementation bug,
            not bad input).
    """
    if report_a.original != report_b.original:
        raise ValueError("reports fix different original networks")
    n = len(report_a.steps)
    if len(report_b.steps) != n:
        raise ValueError("reports disagree on the number of classes")
    sigma, tau = report_a.order, report_b.order
    d = report_a.original.species_count
    d_prime = report_a.original.reaction_count
    s_sigma = stoichiometric_matrix(report_a.result)
    s_tau = stoichiometric_matrix(report_b.result)
    if n == 0:
        if s_sigma != s_tau:
            raise ValueError("zero-step reports disagree")
        return RationalMatrix([[1]])

    position_in_tau = {cls: j for j, cls in enumerate(tau)}
    perm = [position_in_tau[cls] for cls in sigma]  # P[i][perm[i]] == 1
    row_map = list(range(d)) + [d + j for j in perm]
    col_map = list(range(d_prime)) + [d_prime + j for j in perm]
    shape = (d + n, d_prime + n)
    tau_rows = s_tau.nonzeros()
    if (
        (s_sigma.rows, s_sigma.cols) != shape
        or (s_tau.rows, s_tau.cols) != shape
        or any(
            tuple(sorted((col_map[j], v) for j, v in row)) != tau_rows[i]
            for i, row in zip(row_map, s_sigma.nonzeros())
        )
    ):
        raise ValueError(
            "permutation relation failed: the two results are not "
            "conjugate by the order permutation"
        )
    return RationalMatrix([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def altfix(net: Network) -> Tuple[RationalMatrix, AltFixReport]:
    """Remove every bad submatrix with a single bordering row and column.

    Each class's positive entry is zeroed; the new column holds, per row,
    the sum of the values zeroed in that row; the new row holds a 1 in
    every column where something was zeroed; the bottom-right entry is
    minus the count of those columns.  s-tilde is built from S's rows of
    nonzeros, each value in canonical form (1/2 + 1/2 moved into one cell
    is the int 1).  This is cheaper than per-class fixing but does NOT
    preserve the kernel dimension, so equilibria of the two systems do
    not correspond; the returned report documents that.

    A network with no bad classes yields S bordered by zeros (flagged
    degenerate).
    """
    S = stoichiometric_matrix(net)
    classes = find_bad_submatrices(S)
    zeroed = {cls.positive_entry for cls in classes}
    columns = sorted({ell for _, ell in zeroed})
    rows = []
    for q, row in enumerate(S.nonzeros()):
        moved = sum(v for j, v in row if (q, j) in zeroed)
        kept = tuple((j, v) for j, v in row if (q, j) not in zeroed)
        rows.append(kept + ((S.cols, _exact(moved)),) if moved else kept)
    rows.append(tuple((ell, 1) for ell in columns) + ((S.cols, -len(columns)),) if columns else ())
    s_tilde = RationalMatrix._of_nonzeros(S.rows + 1, S.cols + 1, tuple(rows))

    report = AltFixReport(
        classes_removed=len(classes),
        degenerate=not classes,
        kernel_dim_original=exactla.kernel_basis(S, "right").dim,
        kernel_dim_alt=exactla.kernel_basis(s_tilde, "right").dim,
        left_kernel_dim_original=exactla.kernel_basis(S, "left").dim,
        left_kernel_dim_alt=exactla.kernel_basis(s_tilde, "left").dim,
        conserving_original=exactla.is_conserving(S),
        conserving_alt=exactla.is_conserving(s_tilde),
    )
    return s_tilde, report
