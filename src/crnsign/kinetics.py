"""Mass-action kinetics: fluxes, Jacobians, equilibria, simulation.

The flux of a reaction is its rate constant times the product of the
reactant concentrations raised to their stoichiometric coefficients, so
the right-hand side of the ODE system is S v(x) and the Jacobian of the
right-hand side factors as S V'(x) with V'[k][j] = v_k(x) e_kj / x_j
(e_kj the reactant coefficient).  Everything numeric is float/numpy;
``exact_jacobian`` is the slow exact-rational twin used for
cross-checking.

The float tables do not depend on the rates, so the first
``MassActionSystem`` over a ``Network`` builds them and keeps them on
that network, as ``stoichiometric_matrix`` keeps S: the float S (each
reaction's net coefficients, product minus reactant, converted by
``float`` into its column), the sparse reactant
terms as index arrays for the Jacobian, and a ``MonomialTable`` for the
fluxes.  Every system over that network shares them and adds only its
rates.  No ``Fraction`` arithmetic runs per
evaluation.  The table evaluates start times prod x_j ** e_j for every
reaction at once, for one state or a stack of states, with the rates as
starts; the complex monomials of ``deficiency.complexes_decomposition``
use one too, with start 1.0.  It works in a factor buffer laid out as
``[x | power slots | starts]``.  Each distinct (species, exponent) pair
with an exponent other than 1 is raised once per state, by one scalar C
``pow`` (Python's float ``**``), into its power slot; an exponent of 1
reads x_j itself, which is what ``pow(x, 1.0)`` returns, also for zeros
of both signs, infinities, nan and subnormals.  The powers stay scalar
on purpose: numpy's vectorised ``np.power`` (and even ``x*x`` for
``x ** 2``) rounds differently from ``pow`` in a small share of cases
on SIMD hardware, which would change the reported ``*_f64`` bits.  The
products are vectorised: one ``take`` gathers every factor of every
monomial, start first and missing terms padded by an exact 1.0, and one
``np.multiply.reduce`` along the factor axis forms start * t_1 * ... *
t_w.  numpy reduces a float multiply strictly in index order (only
additions are summed pairwise), and float multiplication is correctly
rounded elementwise, so the bits equal those of the scalar loop that
multiplied the same factors in the same order.  ``simulate`` keeps one
buffer for a whole run, so each RK4 stage costs a fixed number of numpy
calls: a clamp into the buffer, the powers, the gather, the product and
``S @ v``.

``exact_jacobian`` computes each reaction's slopes once and adds s
times them over the nonzeros s of S's rows, not d x d' x d products.
``simulate`` takes at most ``MAX_STEPS`` steps, written into one
preallocated (steps + 1, d) array, and checks the orthant once per
``CHECK_BLOCK`` stored states; its error names the first step outside
it.
``step_count`` refuses a non-positive or infinite dt and a step count
that is not finite or above the cap.  A NaN or infinite state is a
``ValueError``, and so is a coefficient beyond the float range, named by
its reaction and species.

Equilibrium correspondence with a fixing run: each added species B' sits
between reaction l and the appended reaction B' -> p2 B, so at
equilibrium its concentration is forced to v_l(x)/k.  ``lift_equilibrium``
extends an equilibrium of the original system one added coordinate at a
time; ``project_equilibrium`` drops the added coordinates.  Both default
to a residual tolerance of 1e-8 (1 + max_i sum_j |S_ij| k_j), which
accepts every point the solver returns from a start in (0, 1]^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import Network, RationalMatrix, stoichiometric_matrix
from .signfix import FixReport

# Most RK4 steps ``simulate`` takes; each step's state is kept in memory
# (8 bytes per coordinate).
MAX_STEPS = 1_000_000
# The most Newton steps ``find_equilibrium`` takes before it gives up.
MAX_NEWTON_ITERATIONS = 200
# ``simulate`` checks the stored states for leaving the orthant once per
# this many steps; a run that leaves it computes at most this many more.
CHECK_BLOCK = 64
# The command line's caps on the work a flag can ask for; a larger value
# is an input error, refused before anything is allocated for it.  The
# most points of a ``--k-grid lo:hi:n`` grid: each costs one
# eigendecomposition of the fixed Jacobian and puts its d + 1 eigenvalues
# in the report.  The slope fit needs 5 points over 4 decades, and 1,000
# points give it 250 per decade (0.2 s in all on a 7-species fixture).
MAX_K_GRID_POINTS = 1_000
# The most ``--samples`` states of a sampled check: each is d floats and
# two determinants (``spectra``) or one residual (``decompose``).  This is
# 50 times the larger default (200), 0.2 s (``spectra``) and 0.5 s
# (``decompose``) on a 7-species fixture, and about 20 s at 200 species.
MAX_SAMPLES = 10_000

Terms = Tuple[Tuple[Tuple[int, float], ...], ...]


class EquilibriumNotFound(Exception):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class MonomialTable:
    """starts[k] * prod x_j ** e over terms[k], for every k at once.

    Built once from ``(terms, species_count)``; ``terms[k]`` lists
    (species, exponent) pairs.  The table holds no starts: calling it as
    ``table(x, starts)``, with ``starts`` an array of len(terms) floats
    or one float for all, on a state of shape (d,) returns the
    monomials, shape (len(terms),); on a stack of shape (n, d) it
    returns shape (n, len(terms)).  The caller checks the states.

    The work runs in a factor buffer laid out as ``[x | power slots |
    starts]``, one row per state (``buffer``); ``evaluate`` reads the
    states and starts from it, and ``simulate`` keeps one buffer for a
    whole run.  Each distinct (species, exponent) pair with an exponent
    other than 1 gets one power slot, filled per state by one C ``pow``
    (builtin ``pow`` over ``map``, the same call as Python's float
    ``**``).  An exponent of 1 reads x_j directly.  One ``take`` through
    a (width + 1, len(terms)) index, whose row 0 is the start slots and
    row i the i-th factor of every monomial, gathers all factors, and
    one ``np.multiply.reduce`` along that axis multiplies them strictly
    in index order, start first.  Rows with fewer terms read one more
    slot, x_0 ** 0.0, which ``pow`` makes exactly 1.0 for every float.
    Where Python's ``pow`` differs from numpy's scalar power, an overflow
    (``OverflowError``, numpy gives inf) or a negative base under a
    fractional exponent (a complex result, numpy gives nan), that power
    is recomputed with an ``np.float64`` scalar, so every monomial holding
    it gets the numpy value.
    """

    def __init__(self, terms: Terms, species_count: int):
        width = max([len(term) for term in terms] + [1])
        slots: Dict[Tuple[int, float], int] = {}
        if any(len(term) < width for term in terms):
            # The padding factor (a network has a species 0).
            slots[(0, 0.0)] = species_count
        for term in terms:
            for j, e in term:
                if e != 1.0:
                    slots.setdefault((j, e), species_count + len(slots))
        self._species_count = species_count
        self._pow_species = np.array([j for j, _ in slots], dtype=np.intp)
        self._pow_exponents = [e for _, e in slots]
        self._starts = species_count + len(slots)  # the first start slot
        self._size = self._starts + len(terms)  # of a buffer row
        # Row 0: the start of every monomial; row i: its factor i.
        index = [list(range(self._starts, self._size))]
        index += [[species_count] * len(terms) for _ in range(width)]
        for k, term in enumerate(terms):
            for i, (j, e) in enumerate(term):
                index[i + 1][k] = j if e == 1.0 else slots[(j, e)]
        self._index = np.array(index, dtype=np.intp)

    def __call__(self, x: np.ndarray, starts: Union[np.ndarray, float]) -> np.ndarray:
        factors = self.buffer(x.shape[:-1], starts)
        factors[..., : self._species_count] = x
        return self.evaluate(factors)

    def buffer(self, shape: Tuple[int, ...], starts: Union[np.ndarray, float]) -> np.ndarray:
        """A factor buffer for states of shape ``shape + (d,)``: its start
        slots hold ``starts``; the caller writes the states into its first
        d columns before each ``evaluate``."""
        factors = np.empty(shape + (self._size,))
        factors[..., self._starts :] = starts
        return factors

    def evaluate(self, factors: np.ndarray) -> np.ndarray:
        """The monomials of the states and starts in a factor buffer; the
        power slots are overwritten."""
        bases = factors.take(self._pow_species, axis=-1)
        values = bases.ravel().tolist()
        exponents = self._pow_exponents * math.prod(bases.shape[:-1])
        try:
            # TypeError: a complex result cannot be stored as a float
            powers = np.fromiter(map(pow, values, exponents), float, len(values))
        except (OverflowError, TypeError):
            powers = np.array([_numpy_pow(v, e) for v, e in zip(values, exponents)])
        factors[..., self._species_count : self._starts] = powers.reshape(bases.shape)
        return np.multiply.reduce(factors.take(self._index, axis=-1), axis=-2)


def _numpy_pow(x: float, e: float) -> float:
    """pow(x, e), or numpy's scalar power where Python's ``**`` raises
    ``OverflowError`` or gives a complex number."""
    try:
        value = x ** e
    except OverflowError:
        value = None
    if type(value) is not float:
        value = float(np.float64(x) ** e)
    return value


def _rate_free_tables(network: Network) -> Tuple:
    """(exponents, flux table, S, rows, cols, exps) of a network, built on
    the first call and kept on it (not a field: equality, hash, repr and
    ``dataclasses.replace`` ignore it); nothing writes to them later.  A
    coefficient beyond the float range is a ``ValueError`` that names its
    reaction and species."""
    try:
        return network._kinetics
    except AttributeError:
        pass
    # Each reaction's net coefficient at each of its terms, converted into
    # its column (the rest is 0), then its reactant exponents, sparse per
    # reaction: [(species, exponent), ...]
    S = np.zeros((network.species_count, network.reaction_count))
    reactant_terms = []
    try:
        for k, r in enumerate(network.reactions):
            for j, _ in r.reactant.terms + r.product.terms:
                S[j, k] = float(r.product.coefficient(j) - r.reactant.coefficient(j))
            term = []
            for j, c in r.reactant.terms:
                term.append((j, float(c)))
            reactant_terms.append(tuple(term))
    except OverflowError:
        raise ValueError(
            f"reaction R{k + 1}: a coefficient of species {network.species[j].name!r} "
            "is beyond the float range"
        ) from None
    exponents: Terms = tuple(reactant_terms)
    # The same terms flattened, for the Jacobian's one scatter.
    flat = [(k, j, e) for k, terms in enumerate(exponents) for j, e in terms]
    arrays = (
        S,
        np.array([k for k, _, _ in flat], dtype=np.intp),
        np.array([j for _, j, _ in flat], dtype=np.intp),
        np.array([e for _, _, e in flat], dtype=float),
    )
    for array in arrays:
        array.flags.writeable = False  # shared by every system over the network
    tables = (exponents, MonomialTable(exponents, network.species_count)) + arrays
    object.__setattr__(network, "_kinetics", tables)
    return tables


def _checked_rates(network: Network, rates: Sequence[float]) -> Tuple[float, ...]:
    rates = tuple(float(r) for r in rates)
    if len(rates) != network.reaction_count:
        raise ValueError(
            f"expected {network.reaction_count} rate constants, got {len(rates)}"
        )
    if any(not (r > 0) or not math.isfinite(r) for r in rates):
        raise ValueError("rate constants must be finite and strictly positive")
    return rates


class MassActionSystem:
    """A network together with one positive rate constant per reaction;
    its float tables are the network's (see ``_rate_free_tables``)."""

    def __init__(self, network: Network, rates: Sequence[float]):
        self.rates = _checked_rates(network, rates)
        self.network = network
        self._rates = np.array(self.rates)
        self.exponents, self._table, self._S, self._rows, self._cols, self._exps = (
            _rate_free_tables(network)
        )

    @property
    def species_count(self) -> int:
        return self.network.species_count

    @property
    def reaction_count(self) -> int:
        return self.network.reaction_count


def _check_state(sys: MassActionSystem, x: Sequence[float], positive: bool) -> np.ndarray:
    """The one state rule: x as a float array of shape (d,), finite, and
    strictly positive (``positive``) or nonnegative, checked in that order."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (sys.species_count,):
        raise ValueError(
            f"state must have {sys.species_count} coordinates, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("state must be finite")
    if positive and not (arr > 0).all():
        raise ValueError("state must be strictly positive")
    if not positive and (arr < 0).any():
        raise ValueError("state must be nonnegative")
    return arr


def flux(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Reaction fluxes v(x); x must be finite and componentwise nonnegative."""
    return _flux(sys, _check_state(sys, x, positive=False))


def _flux(sys: MassActionSystem, arr: np.ndarray) -> np.ndarray:
    """v(arr) for a state, or a stack of states, the caller has checked."""
    return sys._table(arr, sys._rates)


def rhs(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Right-hand side S v(x) of the mass-action ODE."""
    return sys._S @ flux(sys, x)


def flux_jacobian(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """V'(x), the d' x d Jacobian of the flux map; requires a finite x > 0."""
    return _flux_jacobian(sys, _check_state(sys, x, positive=True))


def _flux_jacobian(sys: MassActionSystem, arr: np.ndarray) -> np.ndarray:
    """V' at a state of shape (d,), or at each of a stack (n, d), checked."""
    v = _flux(sys, arr)
    out = np.zeros(arr.shape[:-1] + (sys.reaction_count, sys.species_count))
    out[..., sys._rows, sys._cols] = v[..., sys._rows] * sys._exps / arr[..., sys._cols]
    return out


def jacobian(sys: MassActionSystem, x: Sequence[float]) -> np.ndarray:
    """Jacobian S V'(x) of the right-hand side at a positive state."""
    return sys._S @ flux_jacobian(sys, x)


def _jacobians(sys: MassActionSystem, states: np.ndarray) -> np.ndarray:
    """S V'(x) for each row x of an (n, d) stack of checked positive
    states.  numpy runs the same per-matrix product for a stack as for
    one matrix, so each entry equals ``jacobian`` at that state."""
    return sys._S @ _flux_jacobian(sys, states)


def exact_jacobian(
    network: Network, rates: Sequence[Fraction], x: Sequence[Fraction]
) -> RationalMatrix:
    """Exact-rational Jacobian at a positive rational state.

    Requires integer reactant coefficients (rational exponentiation of a
    rational base is not exact in general).  Used as an oracle for the
    float Jacobian and for exact characteristic polynomials.

    J[i][j] = sum_k S[i, k] V'[k][j] is accumulated sparsely: V'[k] is
    nonzero only at reaction k's reactant terms, so each reaction's
    slopes V'[k][j] are computed once, and row i of J adds s times the
    slopes of reaction k for each nonzero (k, s) of row i of S.
    """
    rates = [Fraction(r) for r in rates]
    xs = [Fraction(v) for v in x]
    if len(rates) != network.reaction_count:
        raise ValueError("one rate per reaction required")
    if len(xs) != network.species_count or any(v <= 0 for v in xs):
        raise ValueError("state must be strictly positive with one entry per species")
    slopes = []
    for k, reaction in enumerate(network.reactions):
        value = rates[k]
        for j, coeff in reaction.reactant.terms:
            if coeff.denominator != 1:
                raise ValueError(
                    "exact jacobian requires integer reactant coefficients"
                )
            value *= xs[j] ** int(coeff)
        slopes.append([(j, value * coeff / xs[j]) for j, coeff in reaction.reactant.terms])
    rows = [[0] * network.species_count for _ in range(network.species_count)]
    for J_i, row in zip(rows, stoichiometric_matrix(network).nonzeros()):
        for k, s in row:
            for j, slope in slopes[k]:
                J_i[j] += s * slope
    return RationalMatrix(rows)


def find_equilibrium(sys: MassActionSystem, x0: Sequence[float]) -> Tuple[float, ...]:
    """Damped Newton search for a positive equilibrium of S v(x).

    Stops when the residual max-norm drops below 1e-9 * (1 + initial
    residual).  Steps solve regularized normal equations and are halved
    until the iterate stays positive and the residual decreases.

    Raises:
        EquilibriumNotFound: if the tolerance is not met within
            ``MAX_NEWTON_ITERATIONS`` steps or a step stalls.
    """
    x = _check_state(sys, x0, positive=True).copy()
    g = rhs(sys, x)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(g))))
    for iteration in range(MAX_NEWTON_ITERATIONS):
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
            # a non-finite trial point is a rejected step, like a worse one
            if np.isfinite(trial).all():
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
    raise EquilibriumNotFound("iteration budget exhausted", MAX_NEWTON_ITERATIONS, norm)


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


def _default_tolerance(sys: MassActionSystem) -> float:
    """The residual tolerance ``lift_equilibrium`` and ``project_equilibrium``
    take by default: 1e-8 * (1 + max_i sum_j |S_ij| k_j).

    At a start x0 in (0, 1]^d every monomial is at most 1, so
    |S v(x0)|_i <= sum_j |S_ij| k_j.  ``find_equilibrium``'s stopping
    threshold, 1e-9 * (1 + max |S v(x0)|), is then at most a tenth of
    this one: every point it returns from such a start, x0 = 1 among
    them, is accepted.  From a larger start, pass the tolerance
    explicitly.
    """
    return 1e-8 * (1.0 + float(np.max(np.abs(sys._S) @ sys._rates)))


def _carried(
    source: MassActionSystem,
    point: Sequence[float],
    tol: Optional[float],
    carry: Callable[[np.ndarray], Tuple[MassActionSystem, Sequence[float]]],
    image: str,
    name: str,
) -> Tuple[np.ndarray, float, Sequence[float], float]:
    """The one check of ``lift_equilibrium`` and ``project_equilibrium``.

    ``point`` must be an equilibrium of ``source``, the ``name`` system,
    to within ``tol`` (``_default_tolerance(source)`` by default).  Only
    then does ``carry`` give its image, the ``image`` point, and the
    system it belongs to, where its residual must be at most
    max(tol, 10 * the residual of ``point``).  Returns the checked point,
    its residual, the image and the image's residual.
    """
    point_arr = _check_state(source, point, positive=True)
    if tol is None:
        tol = _default_tolerance(source)
    res_in = float(np.max(np.abs(rhs(source, point_arr))))
    if res_in > tol:
        raise ValueError(
            f"input point has residual {res_in:.3e} > {tol:.3e}; "
            f"it is not an equilibrium of the {name} system"
        )
    target, mapped = carry(point_arr)
    res_out = float(np.max(np.abs(rhs(target, mapped))))
    if res_out > max(tol, 10 * res_in):
        raise ValueError(
            f"{image} point has residual {res_out:.3e}; "
            f"the input is not an equilibrium of the {name} system"
        )
    return point_arr, res_in, mapped, res_out


def lift_equilibrium(
    report: FixReport,
    rates: Sequence[float],
    x: Sequence[float],
    tol: Optional[float] = None,
) -> EquilibriumPair:
    """Extend an equilibrium of the original system to the fixed system.

    Each added species equals the flux of its rewritten reaction divided
    by the added rate constant; the original coordinates are unchanged.
    ``tol`` defaults to 1e-8 * (1 + max_i sum_j |S_ij| k_j) over the
    original system, which accepts every point ``find_equilibrium``
    returns from a start in (0, 1]^d (see ``_default_tolerance``).

    Raises:
        ValueError: if x is not an equilibrium of the original system to
            within ``tol``, or if the extended point fails the residual
            tolerance max(tol, 10 * residual of x) (which would indicate
            an inconsistent fixing report).
    """
    original = MassActionSystem(report.original, rates)

    def lifted(x_arr: np.ndarray) -> Tuple[MassActionSystem, List[float]]:
        fixed = MassActionSystem(report.result, fixed_system_rates(report, rates))
        # The rewritten reaction keeps its reactant, so its flux at the
        # lifted point equals the original flux of that column.
        v_orig = flux(original, x_arr)
        added = [float(v_orig[step.modified_column]) / step.added_rate for step in report.steps]
        return fixed, [float(v) for v in x_arr] + added

    x_arr, res_orig, x_hat, res_fixed = _carried(original, x, tol, lifted, "lifted", "original")
    return EquilibriumPair(tuple(float(v) for v in x_arr), tuple(x_hat), res_orig, res_fixed)


def project_equilibrium(
    report: FixReport,
    rates: Sequence[float],
    x_hat: Sequence[float],
    tol: Optional[float] = None,
) -> EquilibriumPair:
    """Restrict an equilibrium of the fixed system to the original one.
    ``tol`` defaults to 1e-8 * (1 + max_i sum_j |S_ij| k_j) over the
    fixed system (see ``_default_tolerance``).

    Raises:
        ValueError: if x_hat is not an equilibrium of the fixed system to
            within ``tol``, or if the restricted point fails the residual
            tolerance max(tol, 10 * residual of x_hat).
    """
    fixed = MassActionSystem(report.result, fixed_system_rates(report, rates))

    def projected(x_hat_arr: np.ndarray) -> Tuple[MassActionSystem, np.ndarray]:
        return MassActionSystem(report.original, rates), x_hat_arr[: report.original.species_count]

    x_hat_arr, res_fixed, x, res_orig = _carried(fixed, x_hat, tol, projected, "projected", "fixed")
    return EquilibriumPair(
        tuple(float(v) for v in x), tuple(float(v) for v in x_hat_arr), res_orig, res_fixed
    )


def step_count(t_end: float, dt: float) -> int:
    """The number of fixed steps ``simulate`` takes from 0 to t_end.

    Raises:
        ValueError: if t_end or dt is not positive, dt is not finite, or
            the step count t_end / dt is not finite or exceeds
            ``MAX_STEPS``.
    """
    if not (t_end > 0 and dt > 0):
        raise ValueError("t_end and dt must be positive")
    if dt == math.inf:
        raise ValueError("dt must be finite")
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
    region (NaN, or any coordinate below -1e-9).  The states go straight
    into one preallocated (steps + 1, d) float array, so the trajectory
    holds (steps + 1) * d * 8 bytes, plus 8 bytes per step for the times.

    One factor buffer of the flux table, ``[x | power slots | rates]``,
    serves the whole run: each stage clamps its state into the buffer's
    first d entries, and the table's ``evaluate`` writes the powers in
    place, gathers every factor with one ``take`` and multiplies them in
    index order with one ``np.multiply.reduce``, before ``S @ v``.  The
    orthant test runs on each block of ``CHECK_BLOCK`` stored states;
    the error names the first step outside it, as a test after every
    step would.

    Raises:
        ValueError: if t_end or dt is not positive, dt is not finite, or
            the step count t_end / dt is not finite or exceeds
            ``MAX_STEPS`` (see ``step_count``); if x0 is not finite or
            has a negative coordinate (zeros are allowed).
    """
    steps = step_count(t_end, dt)
    x = _check_state(sys, x0, positive=False)
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, sys.species_count))
    states[0] = x
    S, evaluate = sys._S, sys._table.evaluate
    factors = sys._table.buffer((), sys._rates)
    clamped = factors[: sys.species_count]  # the state each stage reads

    def f(state: np.ndarray) -> np.ndarray:
        np.maximum(state, 0.0, out=clamped)
        return S @ evaluate(factors)

    # overflow to inf/nan is caught below and turned into a clean error
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, CHECK_BLOCK):
            stop = min(start + CHECK_BLOCK, steps)
            for i in range(start, stop):
                k1 = f(x)
                k2 = f(x + 0.5 * dt * k1)
                k3 = f(x + 0.5 * dt * k2)
                k4 = f(x + dt * k3)
                x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                states[i + 1] = x
            block = states[start + 1 : stop + 1]
            left = (~np.isfinite(block) | (block < -1e-9)).any(axis=1)
            if left.any():
                i = start + int(left.argmax())
                raise ValueError(
                    f"trajectory left the nonnegative orthant at t={float(times[i]) + dt:.6g}; "
                    "reduce dt"
                )
    return times, states
