"""Mass-action kinetics: fluxes, Jacobians, equilibria, simulation.

The flux of a reaction is its rate constant times the product of the
reactant concentrations raised to their stoichiometric coefficients, so
the right-hand side of the ODE system is S v(x) and the Jacobian of the
right-hand side factors as S V'(x) with V'[k][j] = v_k(x) e_kj / x_j
(e_kj the reactant coefficient).  Everything numeric is float/numpy;
``exact_jacobian`` is the slow exact-rational twin used for
cross-checking.

A ``MassActionSystem`` builds its float tables once, straight from the
reaction terms: the float S (each nonzero exact net coefficient converted
by ``float``) and the sparse reactant terms, also as index arrays for the
Jacobian.  No ``Fraction`` arithmetic runs per evaluation.  ``monomials``
evaluates rate times prod x_j ** e_j over plain Python floats, one C
``pow`` per term in term order; the complex monomials of
``deficiency.complexes_decomposition`` use it too.  The powers stay
scalar on purpose: numpy's vectorised ``np.power`` (and even ``x*x`` for
``x ** 2``) rounds differently from ``pow`` in a small share of cases on
SIMD hardware, which would change the reported ``*_f64`` bits.

Equilibrium correspondence with a fixing run: each added species B' sits
between reaction l and the appended reaction B' -> p2 B, so at
equilibrium its concentration is forced to v_l(x)/k.  ``lift_equilibrium``
extends an equilibrium of the original system one added coordinate at a
time; ``project_equilibrium`` drops the added coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .model import Network, RationalMatrix, stoichiometric_matrix
from .signfix import FixReport

# Most RK4 steps ``simulate`` takes; each step's state is kept in memory.
MAX_STEPS = 1_000_000

Terms = Tuple[Tuple[Tuple[int, float], ...], ...]


class EquilibriumNotFound(Exception):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


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
        self._S = np.zeros((network.species_count, network.reaction_count))
        for k, r in enumerate(network.reactions):
            net_terms: Dict[int, Fraction] = dict(r.product.terms)
            for j, c in r.reactant.terms:
                net_terms[j] = net_terms.get(j, 0) - c
            for j, c in net_terms.items():
                if c:
                    self._S[j, k] = float(c)
        # Reactant exponents, sparse per reaction: [(species, exponent), ...]
        self.exponents: Terms = tuple(
            tuple((j, float(c)) for j, c in r.reactant.terms)
            for r in network.reactions
        )
        # The same terms flattened, for the Jacobian's one scatter.
        flat = [(k, j, e) for k, terms in enumerate(self.exponents) for j, e in terms]
        self._rows = np.array([k for k, _, _ in flat], dtype=np.intp)
        self._cols = np.array([j for _, j, _ in flat], dtype=np.intp)
        self._exps = np.array([e for _, _, e in flat], dtype=float)

    @classmethod
    def from_network_rates(cls, network: Network) -> "MassActionSystem":
        """Build from the rate constants stored on the reactions themselves."""
        missing = [j for j, r in enumerate(network.reactions) if r.rate is None]
        if missing:
            raise ValueError(f"reactions {missing} carry no rate constant")
        return cls(network, [r.rate for r in network.reactions])

    @property
    def species_count(self) -> int:
        return self.network.species_count

    @property
    def reaction_count(self) -> int:
        return self.network.reaction_count


def _check_state(sys: MassActionSystem, x: Sequence[float], positive: bool) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (sys.species_count,):
        raise ValueError(
            f"state must have {sys.species_count} coordinates, got shape {arr.shape}"
        )
    if positive and not (arr > 0).all():
        raise ValueError("state must be strictly positive")
    return arr


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


def flux(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Reaction fluxes v(x); x must be componentwise nonnegative."""
    arr = _check_state(sys, x, positive=False)
    if (arr < 0).any():
        raise ValueError("state must be nonnegative")
    return _flux(sys, arr)


def _flux(sys: MassActionSystem, arr: np.ndarray) -> np.ndarray:
    """v(arr) for a state array the caller has already checked."""
    return np.array(monomials(sys.rates, sys.exponents, arr.tolist()))


def rhs(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Right-hand side S v(x) of the mass-action ODE."""
    return sys._S @ flux(sys, x)


def flux_jacobian(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """V'(x), the d' x d Jacobian of the flux map; requires x > 0."""
    arr = _check_state(sys, x, positive=True)
    v = _flux(sys, arr)
    out = np.zeros((sys.reaction_count, sys.species_count))
    out[sys._rows, sys._cols] = v[sys._rows] * sys._exps / arr[sys._cols]
    return out


def jacobian(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Jacobian S V'(x) of the right-hand side at a positive state."""
    return sys._S @ flux_jacobian(sys, x)


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


def find_equilibrium(
    sys: MassActionSystem,
    x0: Sequence[float],
    max_iterations: int = 200,
) -> Tuple[float, ...]:
    """Damped Newton search for a positive equilibrium of S v(x).

    Stops when the residual max-norm drops below 1e-9 * (1 + initial
    residual).  Steps solve regularized normal equations and are halved
    until the iterate stays positive and the residual decreases.

    Raises:
        EquilibriumNotFound: if the tolerance is not met within the
            iteration budget or a step stalls.
    """
    x = _check_state(sys, x0, positive=True).copy()
    g = rhs(sys, x)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(g))))
    for iteration in range(max_iterations):
        norm = float(np.max(np.abs(g)))
        if norm <= tol:
            return tuple(float(v) for v in x)
        J = jacobian(sys, x)
        lhs = J.T @ J + 1e-12 * np.eye(sys.species_count)
        try:
            dx = np.linalg.solve(lhs, -J.T @ g)
        except np.linalg.LinAlgError:
            raise EquilibriumNotFound("Newton system is singular", iteration, norm)
        alpha = 1.0
        while alpha > 1e-14 and np.any(x + alpha * dx <= 0):
            alpha *= 0.5
        accepted = False
        while alpha > 1e-14:
            trial = x + alpha * dx
            g_trial = rhs(sys, trial)
            if float(np.max(np.abs(g_trial))) < norm:
                x, g = trial, g_trial
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise EquilibriumNotFound("Newton step stalled", iteration, norm)
    norm = float(np.max(np.abs(g)))
    if norm <= tol:
        return tuple(float(v) for v in x)
    raise EquilibriumNotFound("iteration budget exhausted", max_iterations, norm)


@dataclass(frozen=True)
class EquilibriumPair:
    """An equilibrium of the original system and its fixed-system twin."""

    x: Tuple[float, ...]
    x_hat: Tuple[float, ...]
    residual_original: float
    residual_fixed: float


def fixed_system_rates(report: FixReport, rates: Sequence[float]) -> Tuple[float, ...]:
    """Rate vector for the fixed network: originals, then one per step."""
    rates = tuple(float(r) for r in rates)
    if len(rates) != report.original.reaction_count:
        raise ValueError(
            f"expected {report.original.reaction_count} original rates, got {len(rates)}"
        )
    return rates + tuple(step.added_rate for step in report.steps)


def lift_equilibrium(
    report: FixReport,
    rates: Sequence[float],
    x: Sequence[float],
    tol: float = 1e-8,
) -> EquilibriumPair:
    """Extend an equilibrium of the original system to the fixed system.

    Each added species equals the flux of its rewritten reaction divided
    by the added rate constant; the original coordinates are unchanged.

    Raises:
        ValueError: if x is not an equilibrium of the original system to
            within ``tol``, or if the extended point fails the residual
            tolerance max(tol, 10 * residual of x) (which would indicate
            an inconsistent fixing report).
    """
    original = MassActionSystem(report.original, rates)
    x_arr = _check_state(original, x, positive=True)
    res_orig = float(np.max(np.abs(rhs(original, x_arr))))
    if res_orig > tol:
        raise ValueError(
            f"input point has residual {res_orig:.3e} > {tol:.3e}; "
            "it is not an equilibrium of the original system"
        )

    fixed = MassActionSystem(report.result, fixed_system_rates(report, rates))
    x_hat = list(float(v) for v in x_arr)
    v_orig = flux(original, x_arr)
    for step in report.steps:
        # The rewritten reaction keeps its reactant, so its flux at the
        # lifted point equals the original flux of that column.
        x_hat.append(float(v_orig[step.modified_column]) / step.added_rate)
    res_fixed = float(np.max(np.abs(rhs(fixed, x_hat))))
    if res_fixed > max(tol, 10 * res_orig):
        raise ValueError(
            f"lifted point has residual {res_fixed:.3e}; "
            "the input is not an equilibrium of the original system"
        )
    return EquilibriumPair(
        tuple(float(v) for v in x_arr), tuple(x_hat), res_orig, res_fixed
    )


def project_equilibrium(
    report: FixReport,
    rates: Sequence[float],
    x_hat: Sequence[float],
    tol: float = 1e-8,
) -> EquilibriumPair:
    """Restrict an equilibrium of the fixed system to the original one.

    Raises:
        ValueError: if x_hat is not an equilibrium of the fixed system to
            within ``tol``, or if the restricted point fails the residual
            tolerance max(tol, 10 * residual of x_hat).
    """
    fixed = MassActionSystem(report.result, fixed_system_rates(report, rates))
    x_hat_arr = _check_state(fixed, x_hat, positive=True)
    res_fixed = float(np.max(np.abs(rhs(fixed, x_hat_arr))))
    if res_fixed > tol:
        raise ValueError(
            f"input point has residual {res_fixed:.3e} > {tol:.3e}; "
            "it is not an equilibrium of the fixed system"
        )

    original = MassActionSystem(report.original, rates)
    x = x_hat_arr[: report.original.species_count]
    res_orig = float(np.max(np.abs(rhs(original, x))))
    if res_orig > max(tol, 10 * res_fixed):
        raise ValueError(
            f"projected point has residual {res_orig:.3e}; "
            "the input is not an equilibrium of the fixed system"
        )
    return EquilibriumPair(
        tuple(float(v) for v in x), tuple(float(v) for v in x_hat_arr), res_orig, res_fixed
    )


def step_count(t_end: float, dt: float) -> int:
    """The number of fixed steps ``simulate`` takes from 0 to t_end.

    Raises:
        ValueError: if t_end or dt is not positive, or the step count
            t_end / dt is not finite or exceeds ``MAX_STEPS``.
    """
    if not (t_end > 0 and dt > 0):
        raise ValueError("t_end and dt must be positive")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"the step count t_end / dt = {ratio} is not finite")
    steps = max(1, int(round(ratio)))
    if steps > MAX_STEPS:
        raise ValueError(
            f"the step count t_end / dt = {ratio:.6g} exceeds the limit of {MAX_STEPS} steps"
        )
    return steps


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
            t_end / dt is not finite or exceeds ``MAX_STEPS`` (see
            ``step_count``).
    """
    steps = step_count(t_end, dt)
    x = _check_state(sys, x0, positive=False).copy()
    times = [0.0]
    states = [x.copy()]

    def f(state: np.ndarray) -> np.ndarray:
        return sys._S @ _flux(sys, np.maximum(state, 0.0))

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
