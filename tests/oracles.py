"""Reference implementations kept as differential oracles.

These are the re-enumerating ``sign_fix`` loop, the from-scratch
``delta_audit`` and the dense-product ``verify_permutation_relation``
exactly as the package had them before the one-pass fix, the
incremental-rank audit and the index-permutation check replaced them.
Production code does not use them; the tests compare the package's
versions against them on the same inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Union

from crnsign.deficiency import DeltaAudit, _class_of, deficiency
from crnsign.model import Complex, Network, RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices
from crnsign.signfix import FixReport, FixStep, default_order, fix_one


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
    right = embed(P, d_prime).transpose()
    s_sigma = stoichiometric_matrix(report_a.result)
    s_tau = stoichiometric_matrix(report_b.result)
    product = left.multiply(s_tau).multiply(right)
    if product != s_sigma:
        raise ValueError(
            "permutation relation failed: the two results are not "
            "conjugate by the order permutation"
        )
    return P



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


