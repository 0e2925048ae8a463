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
the powers moved to Python floats.  Production code does not use them; the tests compare the package's
versions against them on the same inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from crnsign.deficiency import DeltaAudit, _class_of, deficiency
from crnsign.deficiency import complexes_of
from crnsign.exactla import ConservationResult, KernelBasis, Vector
from crnsign.kinetics import _check_state
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
        flipped = kernel_basis(matrix.transpose(), "right")
        return KernelBasis(flipped.vectors, "left")
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
    return KernelBasis(tuple(vectors), "right")


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
    St = S.transpose()
    ones = [Fraction(1)] * d
    rhs = [-sum(St.row(i)[j] * ones[j] for j in range(d)) for i in range(St.rows)]
    equations = [list(St.row(i)) for i in range(St.rows)]
    u = _phase1_simplex(equations, rhs)
    if u is None:
        return ConservationResult(False, None)
    witness = tuple(Fraction(1) + value for value in u)
    residual = S.transpose().multiply_vector(witness)
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
        self._S = np.array(self.matrix.to_float_rows())
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

    y_float = np.array(Y.to_float_rows())

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
    produced = np.array(Y.to_float_rows()) @ (a_k @ psi(x))
    scale = 1.0 + float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - produced))) / scale
