"""Spectral comparison of a Jacobian with its one-step-fixed counterpart.

For a single fixing step with added rate constant k, the characteristic
polynomials satisfy (monic convention p(l) = det(lI - M))

    p_k(l) = (l + k) p(l) + l H(l),      deg H <= d - 2,

pointwise in the (positive) state.  Three consequences are checked here
numerically: det J_k = -k det J (set l = 0), d eigenvalues of the fixed
Jacobian converge to those of the original as k grows (at rate ~1/k),
and the remaining "escaping" eigenvalue is real and tracks -k.  The
polynomial identity itself is verified exactly, at any number of
species, by interpolating in k over the rationals.

None of this requires an equilibrium: every relation is an algebraic
identity in the state, so checks run at arbitrary positive points.  The
three float checks enter through one check, ``_check_report``: the
report is a one-step fix of the system's network.  x_hat is then
checked against the fixed system, and each sample point against the
original one, by ``kinetics``' one state rule.

``eigen_convergence`` builds one fixed system per k, all sharing the
fixed network's tables.  ``char_poly_relation`` computes four exact
Jacobians and four characteristic polynomials, at most d + 2
determinants each.  ``det_sign_sampling`` checks every point first, then
evaluates J and J_k on stacks of at most 32 points, bit-identical to one
point at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import exactla
from .kinetics import MassActionSystem, _check_state, _jacobians, exact_jacobian, jacobian
from .signfix import FixReport


def eigenvalues(matrix) -> List[complex]:
    """All eigenvalues of a real square matrix, sorted by (real, imag).

    Accepts anything ``np.asarray`` turns into a square 2-D float array.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    values = np.linalg.eigvals(arr)
    return sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))


def _single_step(report: FixReport) -> None:
    if len(report.steps) != 1:
        raise ValueError(
            f"a one-step fix report is required, got {len(report.steps)} steps"
        )


def _check_report(sys: MassActionSystem, report: FixReport) -> None:
    """The entry check of the three float checks: ``report`` must be a
    one-step fix of ``sys``'s network."""
    _single_step(report)
    if sys.network != report.original:
        raise ValueError("system does not match the report's original network")


def _fixed_system(sys: MassActionSystem, report: FixReport, k: float) -> MassActionSystem:
    return MassActionSystem(report.result, tuple(sys.rates) + (float(k),))


# Most sample points ``det_sign_sampling`` evaluates in one numpy stack;
# the cap bounds the stacked V' arrays (n x d' x d floats each).
_STACK = 32


@dataclass(frozen=True)
class DetRelationResult:
    """Outcome of one determinant-relation check."""

    k: float
    det_original: float
    det_fixed: float
    residual: float
    tolerance: float
    passed: bool


def det_relation_check(
    sys: MassActionSystem,
    report: FixReport,
    x_hat: Sequence[float],
    k: float,
) -> DetRelationResult:
    """Check det J_k(x_hat) = -k det J(x) for a one-step fix, where x is
    x_hat without its last coordinate.

    Holds pointwise at every positive x_hat, so the point need not be an
    equilibrium.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    _check_report(sys, report)
    fixed = _fixed_system(sys, report, k)
    x_hat_arr = _check_state(fixed, x_hat, positive=True)
    det_j = float(np.linalg.det(jacobian(sys, x_hat_arr[:-1])))
    det_jk = float(np.linalg.det(jacobian(fixed, x_hat_arr)))
    residual = abs(det_jk + k * det_j)
    tolerance = 1e-9 * (1.0 + k * abs(det_j))
    return DetRelationResult(
        k=float(k),
        det_original=det_j,
        det_fixed=det_jk,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
    )


def _greedy_match(
    fixed_eigs: Sequence[complex], targets: Sequence[complex]
) -> Tuple[List[Tuple[int, int]], int]:
    """Greedy global-minimum-distance matching.

    Pairs every target with a distinct fixed eigenvalue, smallest
    distances first, ties broken by (fixed index, target index).  Returns
    the pairs and the index of the one unmatched fixed eigenvalue.
    """
    candidates = sorted(
        (abs(fixed_eigs[fi] - targets[ti]), fi, ti)
        for fi in range(len(fixed_eigs))
        for ti in range(len(targets))
    )
    used_f, used_t = set(), set()
    pairs: List[Tuple[int, int]] = []
    for _, fi, ti in candidates:
        if fi in used_f or ti in used_t:
            continue
        pairs.append((fi, ti))
        used_f.add(fi)
        used_t.add(ti)
        if len(pairs) == len(targets):
            break
    leftover = next(i for i in range(len(fixed_eigs)) if i not in used_f)
    return pairs, leftover


def _verdict(max_real: float, margin: float) -> str:
    if max_real < -margin:
        return "stable"
    if max_real > margin:
        return "unstable"
    return "marginal"


@dataclass(frozen=True)
class ConvergenceReport:
    """Eigenvalue behaviour of the one-step-fixed Jacobian across a k grid.

    ``matched_errors[i]`` is the max distance between eig(J) and the d
    best-matching eigenvalues of the fixed Jacobian at ``k_grid[i]``;
    ``escaping_eigenvalues[i]`` is the one left over.  ``slope`` is the
    log-log decay rate of the matched error fitted from the knee (the
    largest error) onward.  ``chosen_k`` reports the largest grid point
    when all criteria pass — a rate constant witnessing stability
    preservation, with no claim of minimality.
    """

    k_grid: Tuple[float, ...]
    matched_errors: Tuple[float, ...]
    escaping_eigenvalues: Tuple[complex, ...]
    eigenvalues_original: Tuple[complex, ...]
    eigenvalues_fixed: Tuple[Tuple[complex, ...], ...]
    slope: float
    knee_index: int
    matched_ok: bool
    escaper_ok: bool
    escaper_real_tail: bool
    slope_ok: bool
    nonincreasing_after_knee: bool
    clustered: bool
    stability_original: str
    stability_fixed: str
    stability_agrees: bool
    passed: bool
    chosen_k: Optional[float]


def eigen_convergence(
    sys: MassActionSystem,
    report: FixReport,
    x_hat: Sequence[float],
    k_grid: Sequence[float],
) -> ConvergenceReport:
    """Track eig(J_k) against eig(J) across a grid of added rates.

    Requirements on the grid: at least 5 increasing positive points
    spanning at least 4 decades.  Pass criteria (all at the largest k
    unless noted): matched error <= 1e-3*(1+max|eig(J)|); escaper real,
    negative, and within 20% of -k; fitted log-log slope <= -0.8.  A
    cluster flag is set (not failed) when eig(J) contains eigenvalues
    closer than the matching resolution.
    """
    _check_report(sys, report)
    ks = [float(k) for k in k_grid]
    if len(ks) < 5:
        raise ValueError("k grid must have at least 5 points")
    if any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k grid must be positive and strictly increasing")
    if ks[-1] / ks[0] < 1e4:
        raise ValueError("k grid must span at least 4 decades")
    systems = [_fixed_system(sys, report, k) for k in ks]
    x_hat_arr = _check_state(systems[0], x_hat, positive=True)

    eig_j = eigenvalues(jacobian(sys, x_hat_arr[:-1]))
    scale = 1.0 + max(abs(z) for z in eig_j)
    resolution = 1e-3 * scale
    clustered = any(
        abs(a - b) < resolution for i, a in enumerate(eig_j) for b in eig_j[:i]
    )

    matched_errors: List[float] = []
    escapers: List[complex] = []
    all_fixed: List[Tuple[complex, ...]] = []
    matched_at_largest: List[complex] = []
    for k, fixed in zip(ks, systems):
        eig_fixed = eigenvalues(jacobian(fixed, x_hat_arr))
        pairs, leftover = _greedy_match(eig_fixed, eig_j)
        matched_errors.append(
            max(abs(eig_fixed[fi] - eig_j[ti]) for fi, ti in pairs)
        )
        escapers.append(eig_fixed[leftover])
        all_fixed.append(tuple(eig_fixed))
        if k == ks[-1]:
            matched_at_largest = [eig_fixed[fi] for fi, _ in pairs]

    matched_ok = matched_errors[-1] <= resolution
    escaper = escapers[-1]
    escaper_ok = abs(escaper - (-ks[-1])) <= 0.2 * ks[-1]

    knee = max(range(len(ks)), key=lambda i: matched_errors[i])
    # Up to and including the knee the matching is pre-asymptotic and the
    # leftover eigenvalue can sit in a conjugate pair; realness is a
    # large-k fact, so it is checked strictly past the knee.
    escaper_real_tail = all(
        abs(z.imag) <= 1e-6 * (1.0 + abs(z)) for z in escapers[knee + 1 :]
    )
    tail_k = ks[knee:]
    tail_err = [max(e, 1e-300) for e in matched_errors[knee:]]
    if len(tail_k) >= 2:
        slope = float(
            np.polyfit(np.log10(tail_k), np.log10(tail_err), 1)[0]
        )
    else:
        slope = float("nan")
    slope_ok = slope <= -0.8
    nonincreasing = all(
        b <= a * (1 + 1e-9) for a, b in zip(tail_err, tail_err[1:])
    )

    margin = 2e-3 * scale
    verdict_orig = _verdict(max(z.real for z in eig_j), margin)
    verdict_fixed = _verdict(max(z.real for z in matched_at_largest), margin)
    agrees = (
        verdict_orig == verdict_fixed
        or "marginal" in (verdict_orig, verdict_fixed)
    )

    passed = matched_ok and escaper_ok and slope_ok
    return ConvergenceReport(
        k_grid=tuple(ks),
        matched_errors=tuple(matched_errors),
        escaping_eigenvalues=tuple(escapers),
        eigenvalues_original=tuple(eig_j),
        eigenvalues_fixed=tuple(all_fixed),
        slope=slope,
        knee_index=knee,
        matched_ok=matched_ok,
        escaper_ok=escaper_ok,
        escaper_real_tail=escaper_real_tail,
        slope_ok=slope_ok,
        nonincreasing_after_knee=nonincreasing,
        clustered=clustered,
        stability_original=verdict_orig,
        stability_fixed=verdict_fixed,
        stability_agrees=agrees,
        passed=passed,
        chosen_k=ks[-1] if passed else None,
    )


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul_linear(p: Sequence[Fraction], c: Fraction) -> Tuple[Fraction, ...]:
    """(lambda + c) * p, coefficients lowest degree first."""
    out = [Fraction(0)] * (len(p) + 1)
    for i, a in enumerate(p):
        out[i] += c * a
        out[i + 1] += a
    return tuple(out)


@dataclass(frozen=True)
class CharPolyRelation:
    """Exact factorization p_k(l) = (l+k) p(l) + l H(l) of a one-step fix."""

    base: Tuple[Fraction, ...]
    correction: Tuple[Fraction, ...]
    passed: bool
    detail: str


def char_poly_relation(
    report: FixReport,
    rates: Sequence[Fraction],
    x: Sequence[Fraction],
) -> CharPolyRelation:
    """Verify the characteristic-polynomial identity exactly (d >= 2).

    Works over the rationals: the fixed Jacobian's characteristic
    polynomial is affine in the added rate k, so evaluating it at k=1,2
    recovers the base polynomial p (which must equal the characteristic
    polynomial of the original Jacobian) and the correction H with
    deg H <= d-2; k=3 cross-checks the interpolation.  Coefficients are
    listed lowest degree first, monic convention det(lambda*I - M).

    Cost: four exact Jacobians and four ``exactla.char_poly`` calls, one
    on J and three on the fixed Jacobians; an n x n polynomial costs
    n + 1 Bareiss determinants, so at most d + 2 per polynomial.
    """
    _single_step(report)
    d = report.original.species_count
    if d < 2:
        raise ValueError("need at least 2 species for the degree bound to say anything")
    rates = [Fraction(r) for r in rates]
    x_hat = list(x) + [1]  # fixed Jacobian does not depend on the added coordinate

    # exact_jacobian checks the state
    p_direct = tuple(exactla.char_poly(exact_jacobian(report.original, rates, x)))
    p_at = {}
    for k in (1, 2, 3):
        j_hat = exact_jacobian(report.result, rates + [Fraction(k)], x_hat)
        p_at[k] = tuple(exactla.char_poly(j_hat))

    base = _poly_sub(p_at[2], p_at[1])
    if base != p_direct:
        return CharPolyRelation(base, (), False, "interpolated base polynomial differs from det(lambda*I - J)")
    remainder = _poly_sub(p_at[1], _poly_mul_linear(base, Fraction(1)))
    if remainder[0] != 0:
        return CharPolyRelation(base, (), False, "remainder not divisible by lambda")
    correction = tuple(remainder[1:]) if len(remainder) > 1 else (Fraction(0),)
    if len(correction) - 1 > d - 2:
        return CharPolyRelation(
            base, correction, False, f"correction degree {len(correction) - 1} exceeds d-2"
        )
    predicted = list(_poly_mul_linear(base, Fraction(3)))
    for i, c in enumerate(correction):
        predicted[i + 1] += c
    if tuple(predicted) != p_at[3]:
        return CharPolyRelation(base, correction, False, "k=3 cross-check failed")
    return CharPolyRelation(base, correction, True, "ok")


@dataclass(frozen=True)
class DetSignSample:
    """Determinant signs of J and J_k across a shared sample of states."""

    signs_original: Tuple[int, ...]
    signs_fixed: Tuple[int, ...]
    constant_original: bool
    constant_fixed: bool
    opposite: bool

    @property
    def passed(self) -> bool:
        return (not self.constant_original) or (self.constant_fixed and self.opposite)


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

    After the report, every point is checked, in order, as
    ``kinetics.jacobian`` checks a state, so the first bad point raises
    its ``ValueError``.
    The Jacobians are then evaluated on stacks of at most 32 points: one
    monomial-table call, one scatter into V', one S @ V', one
    ``np.linalg.det`` and one row-norm product per system and stack.
    numpy runs the same per-matrix computation for a stack as for one
    matrix, so every determinant and threshold has the bits of the
    point-by-point evaluation; the cap keeps the stacked arrays, and so
    the peak memory, small.
    """
    _check_report(sys, report)
    if not points:
        raise ValueError("at least one sample point required")
    fixed = _fixed_system(sys, report, k)
    states = np.array([_check_state(sys, x, positive=True) for x in points])

    dets_j: List[Tuple[float, float]] = []
    dets_jk: List[Tuple[float, float]] = []
    for start in range(0, len(states), _STACK):
        stack = states[start : start + _STACK]
        dets_j += _dets_and_thresholds(_jacobians(sys, stack))
        x_hat = np.concatenate([stack, np.ones((len(stack), 1))], axis=1)
        dets_jk += _dets_and_thresholds(_jacobians(fixed, x_hat))

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


def _dets_and_thresholds(jacobians: np.ndarray) -> List[Tuple[float, float]]:
    """(det J, 1e-9 * (1 + Hadamard bound of J)) for each J of a stack."""
    hadamard = np.prod(np.linalg.norm(jacobians, axis=-1), axis=-1)
    return list(zip(np.linalg.det(jacobians).tolist(), (1e-9 * (1.0 + hadamard)).tolist()))
