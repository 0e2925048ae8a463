"""Complexes, linkage classes, deficiency, and the per-step change audit.

The deficiency of a network is delta = n - ell - s: complexes minus
linkage classes minus the rank of the stoichiometric matrix.  A fixing
step changes s by exactly one, and its effect on n and ell is captured
by two small case functions (phi for new complexes, psi for new linkage
classes) evaluated on the step's cast of characters: the fresh species
B', the rewritten product B' + C2, and the restored complex p2*B.
``delta_audit`` computes phi/psi literally from their case definitions
and cross-checks them, step by step, against from-scratch recounts of n
and ell of every network.  Each recount is one pass over the network's
reactions (``_recount``): it indexes the network's complexes in
first-appearance order and joins them into linkage classes by
union-find; the audit reads whether a complex is present, and its
class, from that index.

The recounts of one audit share only the complex-equality interning
(``_Interner``): each distinct complex of the chain gets an int once,
by equality, and each reaction object its pair of ints once, so a
recount walks ints and never hashes a complex again.  They share no
count: each network is recounted from its own reaction tuple, never
updated incrementally from the previous network's.  Nor do they share a
matrix: the rank is not recomputed per step, since each step is checked
to be exactly the documented bordering, which raises the rank by one,
and the rank of the final network's own S, built from its own reactions
and never spliced from its parent's, confirms the total.  A mismatch
means the implementation is wrong, not the input.  The reactions a step
keeps are compared as two tuple slices around column l, and the
rewritten and appended reactions field by field against the expected
terms tuples.  The original rank is ``exactla.rank`` of the original
network's one cached S, so a rank the command already knows costs
nothing.  The final rank is read from the final S by certificate
(``signfix._bordered_form``): one pass over its nonzeros checks that it
is S bordered by the steps, [[S_z, P], [E, -I]] up to column order with
S_z + P E = S, whose rank is the number of steps plus rank(S), and
rank(S) is then ``exactla.rank`` of a copy of S that shares its nonzero
tuples and starts with an empty cache: nothing cached on S is read or
written, so a wrong rank or kernel cached on S is still caught.  A
refused certificate raises; nothing ranks the final S instead.

Also here: the decomposition S v(x) = Y A_k psi(x) of the right-hand
side through complex space (Y lists complex coefficients, A_k is the
rate-weighted Laplacian of the reaction graph on complexes), built once
per system and then evaluated at any number of states:
``complexes_decomposition`` builds Y, A_k and the psi ``MonomialTable``
(called with start 1.0) and returns a ``Decomposition`` that unpacks as
(Y, a_k, psi) and checks a state with ``residual(x)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from . import exactla
from .kinetics import MassActionSystem, MonomialTable, rhs
from .model import Complex, Network, RationalMatrix, Reaction, stoichiometric_matrix
from .signcheck import find_bad_submatrices
from .signfix import FixReport, FixStep, _bordered_form


class _Interner:
    """Complexes to ints, by equality, and reactions to their (reactant
    id, product id) pairs, by object.

    A complex gets the next id the first time an equal one is met.  A
    reaction object is read once, the first time it is met: a fixing
    chain shares its unchanged reactions between networks, so each
    network's pairs cost a lookup per reaction, and a complex is hashed
    and compared once per reaction object that holds it.  Reactions are
    keyed by ``id()``; the networks being counted hold them, so no id is
    reused while the interner lives.
    """

    def __init__(self) -> None:
        self.complexes: Dict[Complex, int] = {}
        self._pairs: Dict[int, Tuple[int, int]] = {}

    def pair(self, reaction: Reaction) -> Tuple[int, int]:
        """The (reactant id, product id) pair of ``reaction``."""
        pair = self._pairs.get(id(reaction))
        if pair is None:
            ids = self.complexes
            pair = self._pairs[id(reaction)] = (
                ids.setdefault(reaction.reactant, len(ids)),
                ids.setdefault(reaction.product, len(ids)),
            )
        return pair

    def pairs(self, net: Network) -> List[Tuple[int, int]]:
        """The pair of each reaction of ``net``, in order; the reactions
        met before are looked up without a Python call each."""
        pairs = list(map(self._pairs.get, map(id, net.reactions)))
        if None in pairs:
            for k, pair in enumerate(pairs):
                if pair is None:
                    pairs[k] = self.pair(net.reactions[k])
        return pairs


def _recount(net: Network, interner: _Interner) -> Tuple[Dict[int, int], List[int]]:
    """Complexes and linkage classes of ``net``, counted from scratch in
    one pass over its reactions, on the interned complex ids.

    Each reaction side's id gets the next index on first appearance
    (reactant, then product), so the dict maps the ids of the network's
    complexes to their indices in first-appearance order.  The linkage
    classes are the connected components of the graph with one edge per
    reaction, found by union-find over those indices; a union keeps the
    smaller root, so every parent index is below its child's, and one
    ascending pass then points each index at its root, its class's
    smallest member.  The list returned holds that root per index.  A
    reversible pair contributes the same undirected edge twice, which
    changes nothing.
    """
    ends = [x for pair in interner.pairs(net) for x in pair]
    index = {x: i for i, x in enumerate(dict.fromkeys(ends))}
    local = iter(list(map(index.__getitem__, ends)))
    parent = list(range(len(index)))
    for a, b in zip(local, local):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # parent[i] <= i, so parent[parent[i]] is a root by the time i is reached
    for i in range(len(parent)):
        parent[i] = parent[parent[i]]
    return index, parent


def _complexes(net: Network) -> Tuple[List[Complex], List[FrozenSet[int]]]:
    """The distinct complexes of ``net`` in first-appearance order
    (reactant, product), and its linkage classes over their indices,
    ordered by their smallest member."""
    interner = _Interner()
    index, roots = _recount(net, interner)
    by_id = list(interner.complexes)
    # a root is its class's smallest member, so roots are met in increasing order
    groups: Dict[int, List[int]] = {}
    for i, root in enumerate(roots):
        groups.setdefault(root, []).append(i)
    return [by_id[x] for x in index], [frozenset(members) for members in groups.values()]


def complexes_of(net: Network) -> List[Complex]:
    """Distinct complexes in first-appearance order (reactant, product)."""
    return _complexes(net)[0]


@dataclass(frozen=True)
class DeficiencyReport:
    """Complex count n, linkage classes ell, rank s, and delta = n - ell - s."""

    n: int
    ell: int
    s: int
    delta: int
    complexes: Tuple[Complex, ...]
    classes: Tuple[FrozenSet[int], ...]


def deficiency(net: Network) -> DeficiencyReport:
    """Count complexes and linkage classes; s is the exact rank of S,
    cached on the network's S (see ``exactla.rank``)."""
    complexes, classes = _complexes(net)
    n, ell, s = len(complexes), len(classes), exactla.rank(stoichiometric_matrix(net))
    return DeficiencyReport(
        n=n,
        ell=ell,
        s=s,
        delta=n - ell - s,
        complexes=tuple(complexes),
        classes=tuple(classes),
    )


@dataclass(frozen=True)
class DeltaAudit:
    """Per-step deficiency bookkeeping.

    phi_values = (phi(B'+C2), phi(p2*B)) counts new complexes;
    psi_values = (psi([B'+C2]), psi([B'])) counts new linkage classes.
    """

    dn: int
    dl: int
    ds: int
    ddelta: int
    phi_values: Tuple[int, int]
    psi_values: Tuple[int, int]


def _check_bordering(step: FixStep, before: Network, after: Network) -> None:
    """Require ``after`` to be ``before`` with exactly the step's changes.

    Reaction l's product loses p2*B and gains one B' (reactant, rate and
    label kept), every other reaction is unchanged, B' is appended to the
    species and B' -> p2*B to the reactions.  Then S_after with column l
    plus the new column is [[S_before, p2*e_q], [0, -1]], so the rank of S
    rises by exactly one.

    The rewritten reaction and the appended one are compared field by
    field with the expected terms tuples; nothing is built for them.
    """
    q, p2 = step.zeroed_entry
    ell = step.modified_column
    d, r = before.species_count, before.reaction_count
    if (
        step.added_species_index != d
        or step.added_reaction_index != r
        or after.species[:d] != before.species
        or [s.name for s in after.species[d:]] != [step.added_species]
        or len(after.reactions) != r + 1
    ):
        raise AssertionError("step does not add exactly one species and one reaction")
    # Tuple comparison tests each pair by identity before ``==``, so the
    # reactions a step shares with its parent cost no field comparison.
    if (
        not 0 <= ell < r
        or before.reactions[:ell] != after.reactions[:ell]
        or before.reactions[ell + 1:] != after.reactions[ell + 1:r]
    ):
        raise AssertionError("step changed a reaction other than its column")
    old = before.reactions[ell]
    if not p2 > 0 or old.reactant.coefficient(q) != 0 or old.product.coefficient(q) != p2:
        raise AssertionError("zeroed entry is not the positive entry of the rewritten column")
    # Every index of ``before`` is below d, so (d, 1) sorts last.
    terms = tuple(t for t in old.product.terms if t[0] != q) + ((d, 1),)
    new = after.reactions[ell]
    if (
        (new.reactant, new.rate, new.label) != (old.reactant, old.rate, old.label)
        or new.product.terms != terms
    ):
        raise AssertionError("reaction l is not rewritten as documented")
    added = after.reactions[r]
    if added.reactant.terms != ((d, 1),) or added.product.terms != ((q, p2),):
        raise AssertionError("appended reaction is not B' -> p2*B")


def delta_audit(report: FixReport) -> List[DeltaAudit]:
    """Replay a fixing run and audit each step's deficiency change.

    Per step: the step must be exactly the documented bordering (see
    ``_check_bordering``); phi and psi are evaluated verbatim from their
    case definitions; n and ell of the new network are recounted from
    scratch by one pass over its reactions (``_recount``), and the
    previous network's recount is reused; Delta-n must equal the phi sum
    and Delta-ell the psi sum; and each step must satisfy 1 <= dn <= 3,
    dl <= 2, and 0 <= ddelta <= 1.  The recounts run on one interning of
    the chain's complexes by equality (``_Interner``); whether a complex
    is in a network, and which linkage class holds it, is read from that
    network's recount by the complex's id.  p2*B is the appended
    reaction's product, C2 + B' the rewritten product and p2*B + C2 the
    old one (``_check_bordering`` compared their terms), so each id is
    read from its reaction.  The bordering check makes ds = 1 exact, so
    the rank is carried forward.

    Once: the rank of the final network's S, read from that matrix and
    never inferred from the steps, must be the original rank plus the
    number of steps.  The original rank goes through ``exactla.rank``'s
    cache on S, so a rank the command already knows costs nothing.  The
    final rank is read by certificate: one pass over the final S's
    nonzeros must find it S bordered by the steps
    (``signfix._bordered_form``), or the audit raises.  Its rank is then
    the number of steps plus rank(S), with rank(S) the ``exactla.rank``
    of a copy of S built from its nonzeros with an empty cache
    (``RationalMatrix._of_nonzeros``): no rank or kernel cached on S is
    read, so a wrong one is caught, and nothing is written to S.  The
    class condition of ``sign_fix`` is not needed for the rank, so a
    one-step report of ``fix_one_report`` is certified too.

    Raises:
        AssertionError: on any disagreement (internal-consistency
            failure, not an input error), a refused certificate among
            them.
    """
    audits: List[DeltaAudit] = []
    if not report.steps:
        return audits
    S = stoichiometric_matrix(report.original)
    s0 = exactla.rank(S)
    interner = _Interner()
    pre_index, pre_roots = _recount(report.original, interner)
    pre_classes = len(set(pre_roots))
    for step, before, after in zip(report.steps, report.networks, report.networks[1:]):
        _check_bordering(step, before, after)
        post_index, post_roots = _recount(after, interner)
        post_classes = len(set(post_roots))
        dn = len(post_index) - len(pre_index)
        dl = post_classes - pre_classes
        ds = 1  # exact: _check_bordering found the documented bordering
        ddelta = dn - dl - ds

        q = step.zeroed_entry[0]
        ell = step.modified_column
        p2b = interner.pair(after.reactions[before.reaction_count])[1]
        rewritten_product = interner.pair(after.reactions[ell])[1]
        old_product = interner.pair(before.reactions[ell])[1]
        # _check_bordering made old_product p2*B + C2, so C2 is the rest.
        c2_nonempty = any(j != q for j, _ in before.reactions[ell].product.terms)

        phi_rewritten = (
            2 if c2_nonempty and old_product in post_index else 1
        )
        phi_restored = 1 if p2b not in pre_index else 0

        bprime_root = post_roots[post_index[rewritten_product]]
        if old_product in post_index:
            disjoint = post_roots[post_index[old_product]] != bprime_root
            psi_rewritten = 1 if disjoint else 0
        else:
            psi_rewritten = 0
        psi_fresh = 1 if (p2b not in pre_index and c2_nonempty) else 0

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
        if not (1 <= dn <= 3 and dl <= 2 and 0 <= ddelta <= 1):
            raise AssertionError(
                f"step deltas out of range: dn={dn}, dl={dl}, ddelta={ddelta}"
            )
        audits.append(
            DeltaAudit(dn, dl, ds, ddelta, (phi_rewritten, phi_restored),
                       (psi_rewritten, psi_fresh))
        )
        pre_index, pre_classes = post_index, post_classes

    if not _bordered_form(S, stoichiometric_matrix(report.result), report.steps):
        raise AssertionError("final network's S is not S bordered by the steps")
    # a copy of S with an empty cache: nothing cached on S is read or written
    copy = RationalMatrix._of_nonzeros(S.rows, S.cols, S.nonzeros())
    final = len(report.steps) + exactla.rank(copy)
    if final != s0 + len(report.steps):
        raise AssertionError(
            f"final rank {final} is not the original {s0} plus "
            f"{len(report.steps)} steps"
        )
    return audits


def check_single_positive_column(net: Network) -> bool:
    """True iff every bad class's column has exactly one positive entry.

    When true, a full fixing run leaves the deficiency unchanged (the
    test suite asserts that consequence on every such network).
    Vacuously true without bad classes.
    """
    S = stoichiometric_matrix(net)
    positives = Counter(j for row in S.nonzeros() for j, v in row if v.numerator > 0)
    return all(positives[cls.positive_entry[1]] == 1 for cls in find_bad_submatrices(S))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """S v(x) = Y A_k psi(x) for one system, built once.

    Unpacks as ``(Y, a_k, psi)``.  Y is the exact species-by-complexes
    coefficient matrix, ``a_k`` the rate-weighted Laplacian, ``psi`` the
    complex monomials; ``residual`` checks the factorization at a state.
    """

    system: MassActionSystem
    Y: RationalMatrix
    a_k: np.ndarray
    y_float: np.ndarray  # Y as floats, for the products in ``residual``
    psi_table: MonomialTable  # the complex monomials, called with start 1.0

    def __iter__(self) -> Iterator:
        return iter((self.Y, self.a_k, self.psi))

    def psi(self, x: Sequence[float]) -> np.ndarray:
        """psi(x)_c = prod_j x_j ** Y[j, c], in species order, from 1.0."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.system.species_count,):
            raise ValueError(f"state must have {self.system.species_count} coordinates")
        return self.psi_table(arr, 1.0)

    def residual(self, x: Sequence[float]) -> float:
        """Relative max-norm gap between S v(x) and Y A_k psi(x)."""
        lhs = rhs(self.system, x)
        produced = self.y_float @ (self.a_k @ self.psi(x))
        scale = 1.0 + float(np.max(np.abs(lhs)))
        return float(np.max(np.abs(lhs - produced))) / scale


def complexes_decomposition(sys: MassActionSystem) -> Decomposition:
    """Factor the right-hand side as S v(x) = Y A_k psi(x).

    Y is the species-by-complexes coefficient matrix, psi(x) the vector
    of complex monomials psi(x)_c = prod_j x_j^Y[j,c], and A_k the
    rate-weighted Laplacian sum of k_r (e_product - e_reactant)
    e_reactant^t over reactions r (so its columns sum to zero).

    Y, its float copy and A_k are built once from the complexes' terms;
    the returned ``Decomposition`` evaluates psi and the residual at any
    number of states without rebuilding them.  psi is one
    ``kinetics.MonomialTable`` with start 1.0, evaluated like the fluxes.
    """
    net = sys.network
    complexes = complexes_of(net)
    index = {cx: c for c, cx in enumerate(complexes)}
    y_rows = [[0] * len(complexes) for _ in range(net.species_count)]
    y_float = np.zeros((net.species_count, len(complexes)))
    for c, cx in enumerate(complexes):
        for j, coeff in cx.terms:
            y_rows[j][c] = coeff
            y_float[j, c] = float(coeff)

    a_k = np.zeros((len(complexes), len(complexes)))
    for r, reaction in enumerate(net.reactions):
        src = index[reaction.reactant]
        dst = index[reaction.product]
        a_k[dst, src] += sys.rates[r]
        a_k[src, src] -= sys.rates[r]

    psi_table = MonomialTable(
        tuple(tuple((j, float(coeff)) for j, coeff in cx.terms) for cx in complexes),
        net.species_count,
    )
    return Decomposition(sys, RationalMatrix(y_rows), a_k, y_float, psi_table)


def decomposition_residual(sys: MassActionSystem, x: Sequence[float]) -> float:
    """Relative max-norm gap between S v(x) and Y A_k psi(x).

    Builds the decomposition for this one state; to check many states
    of one system, call ``complexes_decomposition`` once and its
    ``residual`` per state.
    """
    return complexes_decomposition(sys).residual(x)
