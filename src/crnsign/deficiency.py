"""Complexes, linkage classes, deficiency, and the per-step change audit.

The deficiency of a network is delta = n - ell - s: complexes minus
linkage classes minus the rank of the stoichiometric matrix.  A fixing
step changes s by exactly one, and its effect on n and ell is captured
by two small case functions (phi for new complexes, psi for new linkage
classes) evaluated on the step's cast of characters: the fresh species
B', the rewritten product B' + C2, and the restored complex p2*B.
``delta_audit`` computes phi/psi literally from their case definitions
and cross-checks them, step by step, against from-scratch recounts of n
and ell of every network.  The rank is not recomputed per step: each
step is checked to be exactly the documented bordering, which raises the
rank by one, and one from-scratch rank of the final network confirms the
total.  A mismatch means the implementation is wrong, not the input.

Also here: the decomposition S v(x) = Y A_k psi(x) of the right-hand
side through complex space (Y lists complex coefficients, A_k is the
rate-weighted Laplacian of the reaction graph on complexes), built once
per system and then evaluated at any number of states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import exactla
from .kinetics import MassActionSystem, Terms, monomials, rhs
from .model import Complex, Network, RationalMatrix, Reaction, stoichiometric_matrix
from .signcheck import find_bad_submatrices
from .signfix import FixReport, FixStep


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


@dataclass(frozen=True)
class DeficiencyReport:
    """Complex count n, linkage classes ell, rank s, and delta = n - ell - s."""

    n: int
    ell: int
    s: int
    delta: int
    complexes: Tuple[Complex, ...]
    classes: Tuple[FrozenSet[int], ...]


def deficiency(net: Network, *, rank: Optional[int] = None) -> DeficiencyReport:
    """Count complexes and linkage classes; ``rank``, when the caller
    already knows the exact rank of S, is used instead of computing it."""
    complexes = complexes_of(net)
    classes = _linkage_classes(net, complexes)
    s = exactla.rank(stoichiometric_matrix(net)) if rank is None else rank
    n, ell = len(complexes), len(classes)
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


def _class_of(classes: Sequence[FrozenSet[int]], index: int) -> FrozenSet[int]:
    for members in classes:
        if index in members:
            return members
    raise AssertionError("complex missing from its own linkage partition")


def _check_bordering(step: FixStep, before: Network, after: Network) -> None:
    """Require ``after`` to be ``before`` with exactly the step's changes.

    Reaction l's product loses p2*B and gains one B' (reactant, rate and
    label kept), every other reaction is unchanged, B' is appended to the
    species and B' -> p2*B to the reactions.  Then S_after with column l
    plus the new column is [[S_before, p2*e_q], [0, -1]], so the rank of S
    rises by exactly one.
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
    if not 0 <= ell < r or any(
        a != b for j, (a, b) in enumerate(zip(before.reactions, after.reactions)) if j != ell
    ):
        raise AssertionError("step changed a reaction other than its column")
    old = before.reactions[ell]
    if not p2 > 0 or old.reactant.coefficient(q) != 0 or old.product.coefficient(q) != p2:
        raise AssertionError("zeroed entry is not the positive entry of the rewritten column")
    terms = dict(old.product.terms)
    del terms[q]
    terms[d] = Fraction(1)
    rewritten = Reaction(old.reactant, Complex.from_dict(terms), old.rate, old.label)
    if after.reactions[ell] != rewritten:
        raise AssertionError("reaction l is not rewritten as documented")
    added = after.reactions[r]
    fresh, restored = Complex.from_dict({d: 1}), Complex.from_dict({q: p2})
    if (added.reactant, added.product) != (fresh, restored):
        raise AssertionError("appended reaction is not B' -> p2*B")


def delta_audit(report: FixReport) -> List[DeltaAudit]:
    """Replay a fixing run and audit each step's deficiency change.

    Per step: the step must be exactly the documented bordering (see
    ``_check_bordering``); phi and psi are evaluated verbatim from their
    case definitions; n and ell of the new network are recounted from
    scratch, the previous network's recount is reused; Delta-n must equal
    the phi sum and Delta-ell the psi sum; and each step must satisfy
    ds = 1, 1 <= dn <= 3, dl <= 2, and 0 <= ddelta <= 1.  The bordering
    check makes ds = 1 exact, so the rank is carried forward.

    Once: the exact rank of S is computed from scratch for the original
    network and for the final one, and the final rank must be the
    original plus the number of steps.

    Raises:
        AssertionError: on any disagreement (internal-consistency
            failure, not an input error).
    """
    audits: List[DeltaAudit] = []
    if not report.steps:
        return audits
    pre = deficiency(report.original)
    s0 = pre.s
    for step, before, after in zip(report.steps, report.networks, report.networks[1:]):
        _check_bordering(step, before, after)
        post = deficiency(after, rank=pre.s + 1)
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
        pre = post

    final = exactla.rank(stoichiometric_matrix(report.result))
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
    for cls in find_bad_submatrices(S):
        _, ell = cls.positive_entry
        positives = sum(1 for i in range(S.rows) if S[i, ell] > 0)
        if positives != 1:
            return False
    return True


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
    complex_terms: Terms  # each complex's (species, float coefficient) pairs

    def __iter__(self) -> Iterator:
        return iter((self.Y, self.a_k, self.psi))

    def psi(self, x: Sequence[float]) -> np.ndarray:
        """psi(x)_c = prod_j x_j ** Y[j, c], in species order, from 1.0."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.system.species_count,):
            raise ValueError(f"state must have {self.system.species_count} coordinates")
        ones = [1.0] * len(self.complex_terms)
        return np.array(monomials(ones, self.complex_terms, arr.tolist()))

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
    number of states without rebuilding them.  Each monomial is
    evaluated like a flux (``kinetics.monomials``), starting from 1.0.
    """
    net = sys.network
    complexes = complexes_of(net)
    index = {c: i for i, c in enumerate(complexes)}
    y_rows = [[Fraction(0)] * len(complexes) for _ in range(net.species_count)]
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

    complex_terms = tuple(
        tuple((j, float(coeff)) for j, coeff in cx.terms) for cx in complexes
    )
    return Decomposition(sys, RationalMatrix(y_rows), a_k, y_float, complex_terms)


def decomposition_residual(sys: MassActionSystem, x: Sequence[float]) -> float:
    """Relative max-norm gap between S v(x) and Y A_k psi(x).

    Builds the decomposition for this one state; to check many states
    of one system, call ``complexes_decomposition`` once and its
    ``residual`` per state.
    """
    return complexes_decomposition(sys).residual(x)
