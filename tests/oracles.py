"""Reference implementations kept as differential oracles.

These are the re-enumerating ``sign_fix`` loop, the from-scratch
``delta_audit`` and the dense-product ``verify_permutation_relation``
exactly as the package had them before the one-pass fix, the
incremental-rank audit and the index-permutation check replaced them;
and the ``Fraction`` exact core (``rank``, ``determinant``, ``_rref``
with ``kernel_basis``, ``_phase1_simplex`` with ``is_conserving``) as it
was before the integer elimination and the integer-pivot simplex; and
the mass-action float kernel (the ``MassActionSystem`` float S and
reactant exponents, ``flux``, ``rhs``, ``flux_jacobian``, ``simulate``,
``complexes_decomposition`` and ``decomposition_residual``) as it was
before the float tables were built straight from the reaction terms and
the powers moved to Python floats; and the sign layer (``sign_pattern``,
``hermitian_square_status``, ``find_bad_submatrices`` and
``jacobian_sign_status``) as it was before the sign checks were rebuilt
on one integer sign array and matrix products; and the eager Bareiss
elimination (``_update`` and ``_eliminate``, every row update applied at
once) as it was before the elimination deferred the row scalings; and the
per-term ``monomials`` loop and the point-by-point ``det_sign_sampling``
as they were before one monomial table per system and the stacked
sample Jacobians replaced them; and ``kernel_correspondence_check`` with
its ``_kernel_vectors`` as they were before each matrix cached its
integer images and kernel vectors; and the fixing step (``fix_one``
with ``_rewrite`` and ``_fresh_species_name``, each stepped network built
through the validating ``Network`` constructor), ``complexes_of``,
``_linkage_classes`` and ``deficiency`` (ranked by ``rank`` here) as they
were before a step spliced its network without re-validating it and the
recount became one pass; and the character-loop ``tokenize`` of the
``.crn`` format (Unicode ``isdigit``, ``isalpha`` and ``isalnum``) as it
was before one token regex replaced it; and the Faddeev-LeVerrier
``char_poly`` and the dense ``exact_jacobian`` loop as they were before
the characteristic polynomial was interpolated from Bareiss determinants
and the exact Jacobian read only each reaction's terms; and the CLI's
``non_finite_at`` walk of a report as it was before ``dump_report``
found non-finite numbers while writing (``json.dumps`` itself is the
writer's oracle); and the dense readers of S (``dense_to_string_rows``,
``dense_sparse_image``, ``dense_sign_pattern``,
``dense_find_bad_submatrices``, ``dense_jacobian_sign_status`` and
``dense_check_single_positive_column``) as they were before they read
S's nonzeros; and ``altfix`` as it was before it bordered S's rows of
nonzeros instead of a dense ``Fraction`` copy; and the brute-force
``find_bad_cycles`` of the species-reaction graph, every species pair
against every reaction pair, as it was before each species' reactions
were indexed and a species pair was paired only over the reactions it
shares.  The ``sign_fix`` oracle enumerates its classes with that
``find_bad_submatrices`` and steps with that ``fix_one``; the
``delta_audit`` oracle recounts with that ``deficiency``; the ``altfix``
oracle takes the package's classes.  Production code does not use them;
the tests compare the package's versions against them on the same
inputs.

The oracles' own helpers ``to_float_rows``, ``multiply_vector`` and
``sign_of`` were ``RationalMatrix`` and ``Sign`` methods that only the
oracles called; ``transpose``, ``multiply``, ``identity`` and
``with_entry`` were ``RationalMatrix`` methods that only these oracles
and the tests called once the characteristic polynomial no longer
multiplied matrices; ``_class_of`` was the audit's lookup of a linkage
class before the recount returned each complex's root.  ``_check_state``
is a copy of the package's state check as these oracles were written
against it (a negative state passes when ``positive`` is false), so a
change to the package's state rule does not change an oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from crnsign import exactla, signcheck
from crnsign.deficiency import DeficiencyReport, DeltaAudit
from crnsign.exactla import ConservationResult, KernelBasis, Vector
from crnsign.graphio import PRODUCED, BadCycle, SRGraph
from crnsign.kinetics import Terms, jacobian
from crnsign.model import (
    Complex,
    Network,
    RationalMatrix,
    Reaction,
    Species,
    stoichiometric_matrix,
    validate_reaction_form,
)
from crnsign.signcheck import (
    BadClass,
    BadSubmatrix,
    Sign,
    SignMatrix,
    SignStatusMatrix,
    Status,
)
from crnsign.signfix import AltFixReport, FixReport, FixStep, default_order
from crnsign.spectra import DetSignSample, _fixed_system, _single_step
from crnsign.textio import ParseError, _Token


def to_float_rows(matrix: RationalMatrix) -> List[List[float]]:
    return [[float(v) for v in row] for row in matrix.entries()]


def multiply_vector(matrix: RationalMatrix, vector: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """The exact product of the matrix and a column vector."""
    if len(vector) != matrix.cols:
        raise ValueError("vector length does not match column count")
    return tuple(
        sum((a * b for a, b in zip(row, vector)), Fraction(0)) for row in matrix.entries()
    )


def transpose(matrix: RationalMatrix) -> RationalMatrix:
    return RationalMatrix(
        [[matrix[i, j] for i in range(matrix.rows)] for j in range(matrix.cols)]
    )


def multiply(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Fraction(0)
            for k in range(a.cols):
                acc += a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return RationalMatrix(out)


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def with_entry(matrix: RationalMatrix, i: int, j: int, value) -> RationalMatrix:
    rows = [list(row) for row in matrix.entries()]
    rows[i][j] = value  # the constructor coerces it
    return RationalMatrix(rows)


def sign_of(value) -> Sign:
    if value > 0:
        return Sign.PLUS
    if value < 0:
        return Sign.MINUS
    return Sign.ZERO


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
    if step.zeroed_entry[1] != S[q, ell]:
        raise AssertionError("matrix entry disagrees with reaction product")
    return fixed, step


def _rewrite(net: Network, cls: BadClass, rate: float) -> Tuple[Network, FixStep]:
    """The rewrite of ``fix_one`` without its stale-class check.

    p2 is read from reaction l itself, so S is not built.
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
    species = net.species + (Species(name, new_index),)

    rewritten_terms = dict(reaction.product.terms)
    del rewritten_terms[q]
    rewritten_terms[new_index] = Fraction(1)
    rewritten = Reaction(
        reaction.reactant,
        Complex.from_dict(rewritten_terms),
        reaction.rate,
        reaction.label,
    )
    added = Reaction(
        Complex.from_dict({new_index: 1}),
        Complex.from_dict({q: p2}),
        float(rate),
    )
    reactions = list(net.reactions)
    reactions[ell] = rewritten
    reactions.append(added)
    pairs = tuple(p for p in net.reversible_pairs if ell not in p)

    fixed = Network(
        species,
        tuple(reactions),
        pairs,
        allow_catalysts=net.allow_catalysts,
    )
    step = FixStep(
        target_class=cls,
        modified_column=ell,
        zeroed_entry=(q, p2),
        added_species=name,
        added_species_index=new_index,
        added_reaction_index=len(reactions) - 1,
        added_rate=float(rate),
    )
    return fixed, step


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

    Raises:
        ValueError: if ``order`` is not a permutation of the class indices
            or the rates are invalid.
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
    remaining = n
    for position, class_index in enumerate(order):
        target_entry = classes[class_index].positive_entry
        current_classes = find_bad_submatrices(stoichiometric_matrix(current))
        match = next(
            (c for c in current_classes if c.positive_entry == target_entry), None
        )
        if match is None:
            raise AssertionError(
                f"class at {target_entry} vanished before its step; "
                "fixing steps must not interfere"
            )
        current, step = fix_one(current, match, rates[position])
        count = len(find_bad_submatrices(stoichiometric_matrix(current)))
        if count >= remaining:
            raise AssertionError("bad-class count failed to decrease after a step")
        remaining = count
        networks.append(current)
        steps.append(step)

    if remaining != 0:
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
    The identity is checked by exact multiplication.

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

    p_entries = [[1 if tau[j] == sigma[i] else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        s_a = stoichiometric_matrix(report_a.result)
        s_b = stoichiometric_matrix(report_b.result)
        if s_a != s_b:
            raise ValueError("zero-step reports disagree")
        return RationalMatrix([[1]])
    P = RationalMatrix(p_entries)

    def embed(perm: RationalMatrix, size: int) -> RationalMatrix:
        rows = []
        for i in range(size + n):
            row = []
            for j in range(size + n):
                if i < size or j < size:
                    row.append(Fraction(1) if i == j else Fraction(0))
                else:
                    row.append(perm[i - size, j - size])
            rows.append(row)
        return RationalMatrix(rows)

    left = embed(P, d)
    right = transpose(embed(P, d_prime))
    s_sigma = stoichiometric_matrix(report_a.result)
    s_tau = stoichiometric_matrix(report_b.result)
    product = multiply(multiply(left, s_tau), right)
    if product != s_sigma:
        raise ValueError(
            "permutation relation failed: the two results are not "
            "conjugate by the order permutation"
        )
    return P


def complexes_of(net: Network) -> List[Complex]:
    """Distinct complexes in first-appearance order (reactant, product)."""
    seen: Dict[Complex, None] = {}
    for reaction in net.reactions:
        seen.setdefault(reaction.reactant)
        seen.setdefault(reaction.product)
    return list(seen)


def _linkage_classes(net: Network, complexes: Sequence[Complex]) -> List[FrozenSet[int]]:
    """Connected components of the graph with one edge per reaction.

    A reversible pair contributes the same undirected edge twice, which
    changes nothing.  Components are ordered by smallest member.
    """
    index = {c: i for i, c in enumerate(complexes)}
    parent = list(range(len(complexes)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for reaction in net.reactions:
        ra, rb = find(index[reaction.reactant]), find(index[reaction.product])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: Dict[int, List[int]] = {}
    for i in range(len(complexes)):
        groups.setdefault(find(i), []).append(i)
    return [frozenset(members) for _, members in sorted(groups.items())]


def deficiency(net: Network) -> DeficiencyReport:
    """Count complexes and linkage classes; s is the exact rank of S by
    ``rank`` below."""
    complexes = complexes_of(net)
    classes = _linkage_classes(net, complexes)
    n, ell, s = len(complexes), len(classes), rank(stoichiometric_matrix(net))
    return DeficiencyReport(
        n=n,
        ell=ell,
        s=s,
        delta=n - ell - s,
        complexes=tuple(complexes),
        classes=tuple(classes),
    )


def _class_of(classes: Sequence[FrozenSet[int]], index: int) -> FrozenSet[int]:
    for members in classes:
        if index in members:
            return members
    raise AssertionError("complex missing from its own linkage partition")


def delta_audit(report: FixReport) -> List[DeltaAudit]:
    """Replay a fixing run and audit each step's deficiency change.

    For every step, phi and psi are evaluated verbatim from their case
    definitions, and independently n and ell of both networks are
    recounted from scratch; Delta-n must equal the phi sum and Delta-ell
    the psi sum.  Each step must also satisfy ds = 1, 1 <= dn <= 3,
    dl <= 2, and 0 <= ddelta <= 1.

    Raises:
        AssertionError: on any disagreement (internal-consistency
            failure, not an input error).
    """
    audits: List[DeltaAudit] = []
    for step, before, after in zip(report.steps, report.networks, report.networks[1:]):
        pre = deficiency(before)
        post = deficiency(after)
        dn = post.n - pre.n
        dl = post.ell - pre.ell
        ds = post.s - pre.s
        ddelta = post.delta - pre.delta

        q, p2 = step.zeroed_entry
        p2b = Complex.from_dict({q: p2})
        rewritten_product = after.reactions[step.modified_column].product
        c2_terms = {
            j: c for j, c in rewritten_product.terms if j != step.added_species_index
        }
        c2_nonempty = bool(c2_terms)
        old_product = before.reactions[step.modified_column].product
        if old_product != Complex.from_dict({**c2_terms, q: p2}):
            raise AssertionError("step does not describe the replayed rewrite")

        pre_complexes = set(pre.complexes)
        post_complexes = set(post.complexes)
        post_index = {c: i for i, c in enumerate(post.complexes)}

        phi_rewritten = (
            2 if c2_nonempty and old_product in post_complexes else 1
        )
        phi_restored = 1 if p2b not in pre_complexes else 0

        bprime_class = _class_of(post.classes, post_index[rewritten_product])
        if old_product in post_complexes:
            disjoint = not (
                bprime_class & _class_of(post.classes, post_index[old_product])
            )
            psi_rewritten = 1 if disjoint else 0
        else:
            psi_rewritten = 0
        psi_fresh = 1 if (p2b not in pre_complexes and c2_nonempty) else 0

        if dn != phi_rewritten + phi_restored:
            raise AssertionError(
                f"complex count changed by {dn} but phi predicts "
                f"{phi_rewritten + phi_restored}"
            )
        if dl != psi_rewritten + psi_fresh:
            raise AssertionError(
                f"linkage count changed by {dl} but psi predicts "
                f"{psi_rewritten + psi_fresh}"
            )
        if ds != 1:
            raise AssertionError(f"rank changed by {ds}, expected exactly 1")
        if not (1 <= dn <= 3 and dl <= 2 and 0 <= ddelta <= 1):
            raise AssertionError(
                f"step deltas out of range: dn={dn}, dl={dl}, ddelta={ddelta}"
            )
        audits.append(
            DeltaAudit(dn, dl, ds, ddelta, (phi_rewritten, phi_restored),
                       (psi_rewritten, psi_fresh))
        )
    return audits


def _integer_rows(matrix: RationalMatrix) -> List[List[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in matrix.entries():
        denom = 1
        for v in row:
            denom = lcm(denom, v.denominator)
        out.append([int(v * denom) for v in row])
    return out


def rank(matrix: RationalMatrix) -> int:
    """Exact rank via fraction-free Gaussian elimination.

    Pivot choice is the first nonzero entry in column order, so the
    elimination (and any intermediate state) is deterministic.
    """
    a = _integer_rows(matrix)
    rows, cols = matrix.rows, matrix.cols
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def determinant(matrix: RationalMatrix) -> Fraction:
    """Exact determinant (square matrices) via Bareiss elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    a = [list(row) for row in matrix.entries()]
    n = matrix.rows
    scale = Fraction(1)
    for i in range(n):
        denom = 1
        for v in a[i]:
            denom = lcm(denom, v.denominator)
        scale *= denom
        a[i] = [int(v * denom) for v in a[i]]
    prev = 1
    sign = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[c][c] * a[i][j] - a[i][c] * a[c][j]) // prev
            a[i][c] = 0
        prev = a[c][c]
    return Fraction(sign * a[n - 1][n - 1]) / scale


def _rref(matrix: RationalMatrix) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form with the pivot columns, exact."""
    a = [list(row) for row in matrix.entries()]
    rows, cols = matrix.rows, matrix.cols
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [a[i][j] - factor * a[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _normalize(vector: Sequence[Fraction]) -> Vector:
    """Scale to coprime integers with positive leading nonzero entry."""
    denom = 1
    for v in vector:
        denom = lcm(denom, v.denominator)
    ints = [int(v * denom) for v in vector]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    leading = next((v for v in ints if v != 0), 0)
    if leading < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def kernel_basis(matrix: RationalMatrix, side: str = "right") -> KernelBasis:
    """Exact kernel basis; dimension is cols - rank (right) or
    rows - rank (left).

    Basis vectors are normalized to coprime integer entries with a
    positive leading entry, and ordered by their free column.
    """
    if side == "left":
        flipped = kernel_basis(transpose(matrix), "right")
        return KernelBasis(flipped.integers, "left")
    if side != "right":
        raise ValueError("side must be 'right' or 'left'")
    a, pivots = _rref(matrix)
    free_cols = [c for c in range(matrix.cols) if c not in pivots]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * matrix.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        vectors.append(_normalize(v))
    return KernelBasis(tuple(tuple(int(x) for x in v) for v in vectors), "right")


def _phase1_simplex(
    equations: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """Solve {u >= 0 : A u = b} exactly; returns u or None if infeasible.

    Phase-1 simplex: one artificial variable per equation, minimize their
    sum, entering/leaving choices by Bland's rule (anti-cycling).
    """
    m = len(equations)
    n = len(equations[0]) if m else 0
    tableau: List[List[Fraction]] = []
    for i in range(m):
        row = list(equations[i])
        b = rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        row.extend(Fraction(1) if k == i else Fraction(0) for k in range(m))
        row.append(b)
        tableau.append(row)
    total = n + m
    basis = [n + i for i in range(m)]
    # Reduced-cost row for the phase-1 objective (artificials cost 1);
    # basic artificial columns start with reduced cost zero.
    obj = [Fraction(0)] * (total + 1)
    for j in range(total + 1):
        obj[j] = -sum(tableau[i][j] for i in range(m))
    for i in range(m):
        obj[n + i] = Fraction(0)

    while True:
        entering = next((j for j in range(total) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio: Optional[Fraction] = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][total] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            # Unbounded phase-1 objective cannot happen (bounded below by 0);
            # defensive guard.
            return None
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    tableau[i][j] - factor * tableau[leaving][j]
                    for j in range(total + 1)
                ]
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [obj[j] - factor * tableau[leaving][j] for j in range(total + 1)]
        basis[leaving] = entering

    objective = -obj[total]
    if objective != 0:
        return None
    u = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            u[var] = tableau[i][total]
    return u


def is_conserving(S: RationalMatrix) -> ConservationResult:
    """Decide exactly whether some m >= 1 (entrywise) has m^t S = 0.

    The lower bound 1 removes the scale degeneracy of the open condition
    "strictly positive left-kernel vector": a positive vector exists iff
    one with entries >= 1 does.  Substituting m = 1 + u reduces the check
    to phase-1 feasibility of {u >= 0 : S^t u = -S^t 1}.
    """
    d = S.rows
    St = transpose(S)
    ones = [Fraction(1)] * d
    rhs = [-sum(St.row(i)[j] * ones[j] for j in range(d)) for i in range(St.rows)]
    equations = [list(St.row(i)) for i in range(St.rows)]
    u = _phase1_simplex(equations, rhs)
    if u is None:
        return ConservationResult(False, None)
    witness = tuple(Fraction(1) + value for value in u)
    residual = multiply_vector(transpose(S), witness)
    if any(v != 0 for v in residual) or any(v < 1 for v in witness):
        raise AssertionError("simplex returned an invalid conservation witness")
    return ConservationResult(True, witness)


class MassActionSystem:
    """A network together with one positive rate constant per reaction."""

    def __init__(self, network: Network, rates: Sequence[float]):
        rates = tuple(float(r) for r in rates)
        if len(rates) != network.reaction_count:
            raise ValueError(
                f"expected {network.reaction_count} rate constants, got {len(rates)}"
            )
        if any(not (r > 0) or not math.isfinite(r) for r in rates):
            raise ValueError("rate constants must be finite and strictly positive")
        self.network = network
        self.rates = rates
        self.matrix = stoichiometric_matrix(network)
        self._S = np.array(to_float_rows(self.matrix))
        # Reactant exponents, sparse per reaction: [(species, exponent), ...]
        self.exponents: Tuple[Tuple[Tuple[int, float], ...], ...] = tuple(
            tuple((j, float(c)) for j, c in r.reactant.terms)
            for r in network.reactions
        )

    @property
    def species_count(self) -> int:
        return self.network.species_count

    @property
    def reaction_count(self) -> int:
        return self.network.reaction_count


def monomials(
    starts: Sequence[float], terms: Terms, xs: Sequence[float]
) -> List[float]:
    """starts[k] * prod xs[j] ** e over terms[k], left to right, for each k.

    ``starts`` and ``xs`` hold Python floats.  Each power is one C ``pow``
    (Python's float ``**``), which is what numpy's scalar power computes,
    so the bits equal those of the numpy-scalar loop.  Where Python's
    ``**`` differs from numpy, an overflow (``OverflowError``, numpy
    gives inf) or a negative base under a fractional exponent (a complex
    result, numpy gives nan), the monomial is recomputed with numpy
    scalars.
    """
    out = []
    for start, term in zip(starts, terms):
        value = start
        try:
            for j, e in term:
                value *= xs[j] ** e
        except OverflowError:
            value = None
        if type(value) is not float:
            value = start
            for j, e in term:
                value *= np.float64(xs[j]) ** e
            value = float(value)
        out.append(value)
    return out


def _check_state(sys: MassActionSystem, x: Sequence[float], positive: bool) -> np.ndarray:
    """The package's state check as the oracles were written against it:
    shape, then finite, then strictly positive when ``positive`` (a
    negative state passes when it is not)."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (sys.species_count,):
        raise ValueError(
            f"state must have {sys.species_count} coordinates, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("state must be finite")
    if positive and not (arr > 0).all():
        raise ValueError("state must be strictly positive")
    return arr


def flux(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Reaction fluxes v(x); x must be componentwise nonnegative."""
    arr = _check_state(sys, x, positive=False)
    if np.any(arr < 0):
        raise ValueError("state must be nonnegative")
    out = np.empty(sys.reaction_count)
    for k, terms in enumerate(sys.exponents):
        value = sys.rates[k]
        for j, e in terms:
            value *= arr[j] ** e
        out[k] = value
    return out


def rhs(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Right-hand side S v(x) of the mass-action ODE."""
    return sys._S @ flux(sys, x)


def flux_jacobian(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """V'(x), the d' x d Jacobian of the flux map; requires x > 0."""
    arr = _check_state(sys, x, positive=True)
    v = flux(sys, arr)
    out = np.zeros((sys.reaction_count, sys.species_count))
    for k, terms in enumerate(sys.exponents):
        for j, e in terms:
            out[k, j] = v[k] * e / arr[j]
    return out


def simulate(
    sys: MassActionSystem,
    x0: Sequence[float],
    t_end: float,
    dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate the mass-action ODE with fixed-step classical Runge-Kutta.

    Returns (times, states) with states[i] the state at times[i],
    including both endpoints.  Aborts if the state leaves the physical
    region (NaN, or any coordinate below -1e-9).

    Raises:
        ValueError: if t_end or dt is not positive, or the step count
            t_end / dt is not finite.
    """
    if not (t_end > 0 and dt > 0):
        raise ValueError("t_end and dt must be positive")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"the step count t_end / dt = {t_end / dt} is not finite")
    x = _check_state(sys, x0, positive=False).copy()
    steps = max(1, int(round(t_end / dt)))
    times = [0.0]
    states = [x.copy()]

    def f(state: np.ndarray) -> np.ndarray:
        return sys._S @ flux(sys, np.maximum(state, 0.0))

    # overflow to inf/nan is caught below and turned into a clean error
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(x)) or np.any(x < -1e-9):
                raise ValueError(
                    f"trajectory left the nonnegative orthant at t={times[-1] + dt:.6g}; "
                    "reduce dt"
                )
            times.append((i + 1) * dt)
            states.append(x.copy())
    return np.array(times), np.array(states)


def complexes_decomposition(
    sys: MassActionSystem,
) -> Tuple[RationalMatrix, np.ndarray, Callable[[Sequence[float]], np.ndarray]]:
    """Factor the right-hand side as S v(x) = Y A_k psi(x).

    Y is the species-by-complexes coefficient matrix, psi(x) the vector
    of complex monomials psi(x)_c = prod_j x_j^Y[j,c], and A_k the
    rate-weighted Laplacian sum of k_r (e_product - e_reactant)
    e_reactant^t over reactions r (so its columns sum to zero).
    """
    net = sys.network
    complexes = complexes_of(net)
    index = {c: i for i, c in enumerate(complexes)}
    y_rows = [
        [complexes[c].coefficient(j) for c in range(len(complexes))]
        for j in range(net.species_count)
    ]
    Y = RationalMatrix(y_rows)

    a_k = np.zeros((len(complexes), len(complexes)))
    for r, reaction in enumerate(net.reactions):
        src = index[reaction.reactant]
        dst = index[reaction.product]
        a_k[dst, src] += sys.rates[r]
        a_k[src, src] -= sys.rates[r]

    y_float = np.array(to_float_rows(Y))

    def psi(x: Sequence[float]) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (net.species_count,):
            raise ValueError(f"state must have {net.species_count} coordinates")
        out = np.ones(len(complexes))
        for c in range(len(complexes)):
            for j in range(net.species_count):
                e = y_float[j, c]
                if e:
                    out[c] *= arr[j] ** e
        return out

    return Y, a_k, psi


def decomposition_residual(sys: MassActionSystem, x: Sequence[float]) -> float:
    """Relative max-norm gap between S v(x) and Y A_k psi(x)."""
    Y, a_k, psi = complexes_decomposition(sys)
    lhs = rhs(sys, x)
    produced = np.array(to_float_rows(Y)) @ (a_k @ psi(x))
    scale = 1.0 + float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - produced))) / scale


def sign_pattern(matrix: RationalMatrix) -> SignMatrix:
    """Entrywise signs of an exact matrix."""
    return tuple(tuple(sign_of(v) for v in row) for row in matrix.entries())


def hermitian_square_status(pattern: SignMatrix) -> SignStatusMatrix:
    """Sign statuses of A A^t for a sign pattern A.

    Entry (i, j) is ambiguous iff there are columns k, l with
    sign A_ik = sign A_jk != 0 and sign A_il = -sign A_jl != 0; otherwise
    it carries the common sign of the nonzero products A_ik * A_jk (zero
    if none).  Diagonal entries are never minus.
    """
    rows = len(pattern)
    cols = len(pattern[0]) if rows else 0
    out: List[List[Status]] = []
    for i in range(rows):
        row_status: List[Status] = []
        for j in range(rows):
            positive = False
            negative = False
            for k in range(cols):
                a, b = pattern[i][k], pattern[j][k]
                if a is Sign.ZERO or b is Sign.ZERO:
                    continue
                if a is b:
                    positive = True
                else:
                    negative = True
            if positive and negative:
                row_status.append(Status.AMBIGUOUS)
            elif positive:
                row_status.append(Status.PLUS)
            elif negative:
                row_status.append(Status.MINUS)
            else:
                row_status.append(Status.ZERO)
        out.append(row_status)
    return SignStatusMatrix(tuple(tuple(r) for r in out))


def find_bad_submatrices(S: RationalMatrix) -> List[BadClass]:
    """Enumerate every 2x2 submatrix of S with exactly one positive and
    three negative entries, grouped into equivalence classes by the shared
    positive entry.

    For each row pair only the columns hitting both rows can participate,
    and a valid column pair combines one all-negative column with one
    single-positive column; enumerating those directly visits exactly the
    submatrices the full scan would accept, in the same order.  Classes
    are listed in lexicographic order of their positive entry (row, then
    column); members keep the enumeration order.
    """
    sgn = [
        [1 if v > 0 else (-1 if v < 0 else 0) for v in row]
        for row in S.entries()
    ]
    by_entry: dict = {}
    for i in range(S.rows - 1):
        row_i = sgn[i]
        for j in range(i + 1, S.rows):
            row_j = sgn[j]
            # columns nonzero in both rows, split by positive count
            both_negative: List[int] = []
            one_positive: List[Tuple[int, int]] = []  # (col, row of the +)
            for c in range(S.cols):
                a, b = row_i[c], row_j[c]
                if a == 0 or b == 0 or (a > 0 and b > 0):
                    continue
                if a < 0 and b < 0:
                    both_negative.append(c)
                else:
                    one_positive.append((c, i if a > 0 else j))
            if not both_negative or not one_positive:
                continue
            pairs = []
            for k in both_negative:
                for pos_col, pos_row in one_positive:
                    cols = (k, pos_col) if k < pos_col else (pos_col, k)
                    pairs.append((cols, pos_row, pos_col))
            for cols, pos_row, pos_col in sorted(pairs):
                bad = BadSubmatrix((i, j), cols, (pos_row, pos_col))
                by_entry.setdefault((pos_row, pos_col), []).append(bad)
    return [
        BadClass(entry, tuple(members))
        for entry, members in sorted(by_entry.items())
    ]


def jacobian_sign_status(net: Network) -> SignStatusMatrix:
    """Sign statuses of the reaction Jacobian S v'(x) over the positive
    orthant, valid for every monotone nondecreasing flux family.

    Term k of entry (i, j) contributes sign(S_ik) exactly when reaction k
    consumes species j (S_jk < 0); an entry is ambiguous iff both signs
    occur among its contributing terms.

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
    S = stoichiometric_matrix(net)
    d = S.rows
    out: List[List[Status]] = []
    for i in range(d):
        row_status: List[Status] = []
        for j in range(d):
            positive = False
            negative = False
            for k in range(S.cols):
                if S[j, k] < 0 and S[i, k] != 0:
                    if S[i, k] > 0:
                        positive = True
                    else:
                        negative = True
            if positive and negative:
                row_status.append(Status.AMBIGUOUS)
            elif positive:
                row_status.append(Status.PLUS)
            elif negative:
                row_status.append(Status.MINUS)
            else:
                row_status.append(Status.ZERO)
        out.append(row_status)
    return SignStatusMatrix(tuple(tuple(r) for r in out))


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


def det_sign_sampling(
    sys: MassActionSystem,
    report: FixReport,
    points: Sequence[Sequence[float]],
    k: float = 1.0,
) -> DetSignSample:
    """Sample sign(det J) and sign(det J_k) at shared positive states.

    Since det J_k = -k det J pointwise, a constant determinant sign for
    the original system forces the constant opposite sign for the fixed
    one ("applies to both or to neither").  A determinant is classified
    as zero below 1e-9 times its Jacobian's Hadamard bound (the product
    of row norms), which keeps float noise from a singular matrix with
    large entries from reading as a sign.
    """
    _single_step(report)
    if not points:
        raise ValueError("at least one sample point required")
    fixed = _fixed_system(sys, report, k)

    def det_and_scale(matrix: np.ndarray) -> Tuple[float, float]:
        hadamard = float(np.prod(np.linalg.norm(matrix, axis=1)))
        return float(np.linalg.det(matrix)), 1e-9 * (1.0 + hadamard)

    dets_j: List[Tuple[float, float]] = []
    dets_jk: List[Tuple[float, float]] = []
    for x in points:
        arr = np.asarray(x, dtype=float)
        dets_j.append(det_and_scale(jacobian(sys, arr)))
        x_hat = np.concatenate([arr, [1.0]])
        dets_jk.append(det_and_scale(jacobian(fixed, x_hat)))

    def classify(values: List[Tuple[float, float]]) -> Tuple[int, ...]:
        return tuple(
            0 if abs(v) <= threshold else (1 if v > 0 else -1)
            for v, threshold in values
        )

    signs_j = classify(dets_j)
    signs_jk = classify(dets_jk)
    constant_j = len(set(signs_j)) == 1
    constant_jk = len(set(signs_jk)) == 1
    opposite = all(a == -b for a, b in zip(signs_j, signs_jk))
    return DetSignSample(signs_j, signs_jk, constant_j, constant_jk, opposite)


# The kernel-correspondence check as it was before each matrix cached its
# integer images and kernel vectors, verbatim, with one rename: the
# parent's ``_integer_rows`` (Fraction rows in, integer rows out) is
# ``_cleared_rows`` here, because this module's ``_integer_rows`` takes a
# matrix.  ``rank`` and ``_eliminate`` resolve to the oracles above.
def _denominator(values: Sequence[Fraction]) -> int:
    """The lcm of the denominators of ``values``."""
    return lcm(*(v.denominator for v in values))


def _cleared_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Scale each row by the lcm of its denominators (row space unchanged)."""
    out = []
    for row in rows:
        scale = _denominator(row)
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _kernel_vectors(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Integer right-kernel basis of the matrix with these rows, one vector
    per free column in order, each coprime with a positive leading entry."""
    a, pivots, last, _ = _eliminate(_cleared_rows(rows))
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
    check_rows = _cleared_rows(S_check.entries())
    padded_right = [v + [v[ell]] for v in right]
    if not all(_annihilates(check_rows, padded) for padded in padded_right):
        return False

    left = _kernel_vectors(tuple(zip(*S.entries())))
    if len(left) != S_check.rows - check_rank:
        return False
    check_columns = _cleared_rows(tuple(zip(*S_check.entries())))
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


def tokenize(line: str, lineno: int) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch == "#":
            break
        if ch.isdigit():
            j = i + 1
            while j < n and line[j].isdigit():
                j += 1
            if j < n and line[j] == "." and j + 1 < n and line[j + 1].isdigit():
                j += 1
                while j < n and line[j].isdigit():
                    j += 1
            if (
                j < n
                and line[j] in "eE"
                and j + 1 < n
                and (
                    line[j + 1].isdigit()
                    or (line[j + 1] in "+-" and j + 2 < n and line[j + 2].isdigit())
                )
            ):
                j += 2
                while j < n and line[j].isdigit():
                    j += 1
            elif j < n and line[j] == "/" and j + 1 < n and line[j + 1].isdigit():
                j += 2
                while j < n and line[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", line[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (line[j].isalnum() or line[j] in "_'"):
                j += 1
            tokens.append(_Token("IDENT", line[i:j], col))
            i = j
            continue
        if ch == "+":
            tokens.append(_Token("PLUS", "+", col))
            i += 1
            continue
        if ch == "-" and line[i : i + 2] == "->":
            tokens.append(_Token("ARROW", "->", col))
            i += 2
            continue
        if ch == "<" and line[i : i + 3] == "<->":
            tokens.append(_Token("ARROW", "<->", col))
            i += 3
            continue
        if ch == ";":
            tokens.append(_Token("SEMI", ";", col))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("COMMA", ",", col))
            i += 1
            continue
        if ch == "=":
            tokens.append(_Token("EQUALS", "=", col))
            i += 1
            continue
        raise ParseError(lineno, col, f"unexpected character {ch!r}")
    tokens.append(_Token("END", "", len(line) + 1))
    return tokens


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
    mk = identity(n)
    for k in range(1, n + 1):
        nk = multiply(matrix, mk)
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


def exact_jacobian(
    network: Network, rates: Sequence[Fraction], x: Sequence[Fraction]
) -> RationalMatrix:
    """Exact-rational Jacobian at a positive rational state.

    Requires integer reactant coefficients (rational exponentiation of a
    rational base is not exact in general).  Used as an oracle for the
    float Jacobian and for exact characteristic polynomials.
    """
    S = stoichiometric_matrix(network)
    rates = [Fraction(r) for r in rates]
    xs = [Fraction(v) for v in x]
    if len(rates) != network.reaction_count:
        raise ValueError("one rate per reaction required")
    if len(xs) != network.species_count or any(v <= 0 for v in xs):
        raise ValueError("state must be strictly positive with one entry per species")
    vprime = [
        [Fraction(0)] * network.species_count for _ in range(network.reaction_count)
    ]
    for k, reaction in enumerate(network.reactions):
        value = rates[k]
        for j, coeff in reaction.reactant.terms:
            if coeff.denominator != 1:
                raise ValueError(
                    "exact jacobian requires integer reactant coefficients"
                )
            value *= xs[j] ** int(coeff)
        for j, coeff in reaction.reactant.terms:
            vprime[k][j] = value * coeff / xs[j]
    rows = [
        [
            sum((S[i, k] * vprime[k][j] for k in range(network.reaction_count)), Fraction(0))
            for j in range(network.species_count)
        ]
        for i in range(network.species_count)
    ]
    return RationalMatrix(rows)


def non_finite_at(value, where: str = "") -> Optional[str]:
    """The path of the first non-finite float in a report, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        if not isinstance(item, (str, int)):  # the bulk of a report; never non-finite
            found = non_finite_at(item, f"{where}/{key}")
            if found:
                return found
    return None


# The dense readers of S as they were before they read its nonzeros
# (``RationalMatrix.nonzeros()``), verbatim, each renamed with a ``dense_``
# prefix where an older oracle above holds the name: ``to_string_rows``
# (then a method), ``_sparse_image``'s scan of every entry (without its
# cache, so the oracle never fills the package's), the sign layer on one
# dense sign array (``sign_pattern``, ``find_bad_submatrices`` and
# ``jacobian_sign_status``, with their helper ``_sign_array``), and
# ``check_single_positive_column``'s column scan.
def dense_to_string_rows(matrix: RationalMatrix) -> List[List[str]]:
    """Rows of exact decimal-free strings such as "3" or "-1/2"."""
    return [[str(v) for v in row] for row in matrix.entries()]


def dense_sparse_image(matrix: RationalMatrix, side: str) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The denominator-cleared rows ("right") or columns ("left") of the
    matrix, each scaled by the lcm of its denominators, as their nonzero
    (index, value) pairs in index order, built from the nonzero
    ``Fraction``s alone."""
    entries = matrix.entries() if side == "right" else zip(*matrix.entries())
    found = []
    for row in entries:
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        scale = lcm(*(v.denominator for _, v in nonzero))
        found.append(tuple((j, v.numerator * (scale // v.denominator)) for j, v in nonzero))
    return tuple(found)


def _sign_array(rows: Sequence[Sequence]) -> np.ndarray:
    """The signs (1, -1, 0) of the entries of exact rows (Fractions or
    ints), as an int64 array.  A Fraction has the sign of its numerator,
    which is compared as a plain int."""
    width = len(rows[0]) if rows else 0
    return np.array(
        [[(v.numerator > 0) - (v.numerator < 0) for v in row] for row in rows],
        dtype=np.int64,
    ).reshape(len(rows), width)


def _plus_minus(signs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P = (signs > 0) and N = (signs < 0) as int64 0/1 arrays."""
    return (signs > 0).astype(np.int64), (signs < 0).astype(np.int64)


# Indexed by a sign value (-1 picks the last), and by plus + 2 * minus.
_SIGNS = (Sign.ZERO, Sign.PLUS, Sign.MINUS)
_STATUSES = (Status.ZERO, Status.PLUS, Status.MINUS, Status.AMBIGUOUS)


def _status(plus: np.ndarray, minus: np.ndarray) -> SignStatusMatrix:
    """Each entry's status from its counts of plus and minus terms:
    ambiguous if both occur, else the sign that occurs, zero if none."""
    codes = (plus > 0) + 2 * (minus > 0)
    return SignStatusMatrix(tuple(tuple(_STATUSES[c] for c in row) for row in codes.tolist()))


def dense_sign_pattern(matrix: RationalMatrix) -> SignMatrix:
    """Entrywise signs of an exact matrix."""
    signs = _sign_array(matrix.entries()).tolist()
    return tuple(tuple(_SIGNS[v] for v in row) for row in signs)


def dense_find_bad_submatrices(S: RationalMatrix) -> List[BadClass]:
    """Enumerate every 2x2 submatrix of S with exactly one positive and
    three negative entries, grouped into equivalence classes by the shared
    positive entry.

    A row pair i < j holds one for each column negative in both rows
    combined with each column positive in one row and negative in the
    other; the submatrices of a row pair are listed by their column pair.
    Classes are listed in lexicographic order of their positive entry
    (row, then column); members keep the enumeration order.
    """
    rows = _sign_array(S.entries()).tolist()
    positive = [{c for c, v in enumerate(row) if v > 0} for row in rows]
    negative = [{c for c, v in enumerate(row) if v < 0} for row in rows]
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
    return [
        BadClass(entry, tuple(members))
        for entry, members in sorted(by_entry.items())
    ]


def dense_jacobian_sign_status(net: Network) -> SignStatusMatrix:
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
    P, N = _plus_minus(_sign_array(stoichiometric_matrix(net).entries()))
    return _status(P @ N.T, N @ N.T)


def dense_check_single_positive_column(net: Network) -> bool:
    """True iff every bad class's column has exactly one positive entry.

    When true, a full fixing run leaves the deficiency unchanged (the
    test suite asserts that consequence on every such network).
    Vacuously true without bad classes.
    """
    S = stoichiometric_matrix(net)
    return all(
        sum(c > 0 for c in S.column(cls.positive_entry[1])) == 1
        for cls in dense_find_bad_submatrices(S)
    )


def altfix(net: Network) -> Tuple[RationalMatrix, AltFixReport]:
    """The single-bordering shortcut as it was before it bordered S's rows
    of nonzeros: a dense ``Fraction`` copy of S, bordered in ``Fraction``
    arithmetic and handed to the public constructor, with the report
    computed by the package's ``exactla``."""
    S = stoichiometric_matrix(net)
    classes = signcheck.find_bad_submatrices(S)
    entries = [list(row) for row in S.entries()]
    new_col = [Fraction(0)] * S.rows
    new_row = [Fraction(0)] * S.cols
    for cls in classes:
        q, ell = cls.positive_entry
        new_col[q] += entries[q][ell]
        new_row[ell] = Fraction(1)
        entries[q][ell] = Fraction(0)
    bottom_right = -sum(new_row, Fraction(0))
    for i in range(S.rows):
        entries[i].append(new_col[i])
    entries.append(new_row + [bottom_right])
    s_tilde = RationalMatrix(entries)

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


def find_bad_cycles(graph: SRGraph) -> List[BadCycle]:
    """All bad 4-cycles, ordered like the matrix-side enumeration."""
    by_pair = {(e.species, e.reaction): e.direction for e in graph.edges}
    cycles = []
    d = len(graph.species_names)
    d_prime = len(graph.reaction_names)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d_prime):
                for ell in range(k + 1, d_prime):
                    corners = [(i, k), (i, ell), (j, k), (j, ell)]
                    directions = [by_pair.get(c) for c in corners]
                    if None in directions:
                        continue
                    produced = [c for c, dirn in zip(corners, directions) if dirn == PRODUCED]
                    if len(produced) == 1:
                        cycles.append(BadCycle((i, j), (k, ell), produced[0]))
    return cycles
