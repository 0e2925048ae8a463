import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crnsign.kinetics import (
    MAX_STEPS,
    EquilibriumNotFound,
    MassActionSystem,
    exact_jacobian,
    find_equilibrium,
    fixed_system_rates,
    flux,
    flux_jacobian,
    jacobian,
    lift_equilibrium,
    project_equilibrium,
    rhs,
    simulate,
    step_count,
)
from crnsign.signfix import sign_fix
from crnsign.textio import parse_network


def _unit_system(net):
    return MassActionSystem(net, [1.0] * net.reaction_count)


def test_flux_hand_value():
    net = parse_network("A + 2B -> C")
    sys = MassActionSystem(net, [3.0])
    assert flux(sys, [2.0, 0.5, 7.0]) == pytest.approx([3.0 * 2.0 * 0.25])
    assert rhs(sys, [2.0, 0.5, 7.0]) == pytest.approx([-1.5, -3.0, 1.5])


def test_flux_accepts_boundary_rejects_negative():
    net = parse_network("A -> B")
    sys = MassActionSystem(net, [1.0])
    assert flux(sys, [0.0, 1.0]) == pytest.approx([0.0])
    with pytest.raises(ValueError):
        flux(sys, [-0.1, 1.0])
    with pytest.raises(ValueError):
        flux(sys, [1.0])
    with pytest.raises(ValueError):
        flux_jacobian(sys, [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_states_are_rejected(bad):
    sys = MassActionSystem(parse_network("A -> B"), [1.0])
    for call in (flux, rhs, flux_jacobian, jacobian):
        for x in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                call(sys, x)
    with pytest.raises(ValueError, match="finite"):
        find_equilibrium(sys, [1.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_newton_trial_is_a_rejected_step(monkeypatch, bad):
    """A Newton step that leads to a non-finite point is rejected like a
    step that raises the residual: the search stalls, it does not raise
    ``ValueError``."""
    sys = MassActionSystem(parse_network("A -> B\nB -> A"), [1.0, 2.0])
    monkeypatch.setattr(np.linalg, "solve", lambda lhs, rhs_: np.full(len(rhs_), bad))
    with pytest.raises(EquilibriumNotFound, match="stalled"):
        find_equilibrium(sys, [1.0, 1.0])


def test_system_validations():
    net = parse_network("A -> B")
    with pytest.raises(ValueError):
        MassActionSystem(net, [])
    with pytest.raises(ValueError):
        MassActionSystem(net, [0.0])
    with pytest.raises(ValueError):
        MassActionSystem(net, [float("nan")])


def test_systems_over_one_network_share_its_tables(deficiency_jump):
    """The rate-free tables are the network's: a second system at other
    rates reuses S (read-only) and the flux table, and keeps its own rates."""
    first = MassActionSystem(deficiency_jump, [1.0, 2.0, 3.0])
    second = MassActionSystem(deficiency_jump, [4.0, 5.0, 6.0])
    assert second._S is first._S and second._table is first._table
    assert not first._S.flags.writeable
    assert first.rates == (1.0, 2.0, 3.0) and second.rates == (4.0, 5.0, 6.0)
    x = [1.0, 2.0, 3.0]
    assert flux(second, x).tolist() == (flux(first, x) * [4.0, 2.5, 2.0]).tolist()


def test_jacobian_matches_exact_rational_twin(corpus):
    rng = random.Random(21)
    for net in corpus[:20]:
        # dyadic rationals convert to float exactly
        rates = [Fraction(rng.randint(1, 16), 8) for _ in range(net.reaction_count)]
        x = [Fraction(rng.randint(1, 16), 8) for _ in range(net.species_count)]
        sys = MassActionSystem(net, [float(r) for r in rates])
        J = jacobian(sys, [float(v) for v in x])
        J_exact = exact_jacobian(net, rates, x)
        scale = 1.0 + float(np.max(np.abs(J)))
        for i in range(net.species_count):
            for j in range(net.species_count):
                assert abs(J[i, j] - float(J_exact[i, j])) <= 1e-12 * scale


def test_jacobian_matches_central_differences(two_ambiguous, deficiency_jump, conserving_family):
    for net in (two_ambiguous, deficiency_jump, conserving_family):
        sys = _unit_system(net)
        d = net.species_count
        x = np.array([0.7 + 0.1 * i for i in range(d)])
        J = jacobian(sys, x)
        scale = 1.0 + float(np.max(np.abs(J)))
        for j in range(d):
            h = 1e-6 * x[j]
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            column = (rhs(sys, xp) - rhs(sys, xm)) / (2 * h)
            assert np.max(np.abs(column - J[:, j])) <= 1e-6 * scale


def test_exact_jacobian_validations():
    net = parse_network("1/2A -> B")
    with pytest.raises(ValueError, match="integer"):
        exact_jacobian(net, [Fraction(1)], [Fraction(1), Fraction(1)])
    net = parse_network("A -> B")
    with pytest.raises(ValueError):
        exact_jacobian(net, [Fraction(1)], [Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        exact_jacobian(net, [], [Fraction(1), Fraction(1)])


@pytest.mark.parametrize(
    "text, named",
    [
        ("A -> 3B\nB -> 1e2000A", "reaction R2: a coefficient of species 'A'"),
        ("1e2000A -> B\nB -> A", "reaction R1: a coefficient of species 'A'"),
        # net coefficient 0: only the exponent is beyond the float range
        ("1e2000A + B -> 1e2000A + C\nC -> B", "reaction R1: a coefficient of species 'A'"),
        # reaction order first: a row-major walk of S's nonzeros meets R2's A first
        ("A -> 1e2000B\n1e2000A -> C", "reaction R1: a coefficient of species 'B'"),
        # net coefficients before exponents: A's exponent is converted after C's entry
        (
            "1e2000A + B -> 1e2000A + 1e2000C\nC -> B\nB -> C",
            "reaction R1: a coefficient of species 'C'",
        ),
    ],
    ids=["product", "reactant", "exponent-only", "reaction-order", "entries-before-exponents"],
)
def test_coefficient_beyond_the_float_range_names_its_reaction_and_species(text, named):
    net = parse_network(text, allow_catalysts=True)
    with pytest.raises(ValueError) as err:
        MassActionSystem(net, [1.0] * net.reaction_count)
    assert str(err.value) == f"{named} is beyond the float range"


def test_two_species_equilibrium_ratio():
    net = parse_network("A <-> B ; kf=2, kr=1")
    sys = MassActionSystem(net, [r.rate for r in net.reactions])
    x = find_equilibrium(sys, [1.0, 1.0])
    assert all(v > 0 for v in x)
    # at equilibrium the net interconversion stops: 2 x_A = x_B
    assert x[1] / x[0] == pytest.approx(2.0, rel=1e-6)


def test_closed_form_equilibrium_is_exact(conserving_family):
    sys = _unit_system(conserving_family)
    residual = rhs(sys, [0.5, 1.0, 4.0, 0.5])
    assert float(np.max(np.abs(residual))) == 0.0


def test_newton_from_perturbed_start(conserving_family):
    sys = _unit_system(conserving_family)
    x = find_equilibrium(sys, [0.6, 1.1, 3.5, 0.4])
    assert float(np.max(np.abs(rhs(sys, x)))) <= 1e-8


def test_newton_reaches_tolerance_on_fixtures(two_ambiguous, deficiency_jump):
    for net in (two_ambiguous, deficiency_jump):
        sys = _unit_system(net)
        x = find_equilibrium(sys, [1.0] * net.species_count)
        assert all(v > 0 for v in x)
        g0 = float(np.max(np.abs(rhs(sys, [1.0] * net.species_count))))
        assert float(np.max(np.abs(rhs(sys, x)))) <= 1e-9 * (1.0 + g0)


def test_newton_failure_is_reported():
    # constant inflow has no equilibrium at all
    net = parse_network("0 -> A")
    sys = MassActionSystem(net, [1.0])
    with pytest.raises(EquilibriumNotFound) as err:
        find_equilibrium(sys, [1.0])
    assert err.value.residual > 0
    assert err.value.iterations >= 0


def test_fixed_system_rates_concatenation(deficiency_jump):
    report = sign_fix(deficiency_jump, rate=[4.0, 5.0, 6.0])
    rates = fixed_system_rates(report, [1.0, 2.0, 3.0])
    assert rates == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    with pytest.raises(ValueError):
        fixed_system_rates(report, [1.0])


def test_lift_and_project_round_trip(two_ambiguous, deficiency_jump):
    for net in (two_ambiguous, deficiency_jump):
        report = sign_fix(net)
        rates = [1.0] * net.reaction_count
        sys = MassActionSystem(net, rates)
        x = find_equilibrium(sys, [1.0] * net.species_count)
        pair = lift_equilibrium(report, rates, x)
        assert len(pair.x_hat) == net.species_count + len(report.steps)
        assert pair.x_hat[: net.species_count] == pair.x
        assert pair.residual_fixed <= max(1e-8, 10 * pair.residual_original)
        back = project_equilibrium(report, rates, pair.x_hat)
        assert back.x == pair.x  # projection is a coordinate restriction


def test_lift_of_exact_equilibrium(conserving_family):
    report = sign_fix(conserving_family)
    rates = [1.0] * conserving_family.reaction_count
    pair = lift_equilibrium(report, rates, [0.5, 1.0, 4.0, 0.5])
    assert pair.residual_original == 0.0
    assert pair.residual_fixed <= 1e-12
    assert len(pair.x_hat) == 4 + len(report.steps)
    assert all(v > 0 for v in pair.x_hat)


def test_lift_accepts_the_solvers_point_above_1e_8():
    """The solver stops at 1e-9 * (1 + 14) here, and returned a point
    with residual 1.1e-8 that a flat 1e-8 refused."""
    net = parse_network("A -> 0\nA + X1 + 12B -> 0\n2B -> X1\n")
    rates = [1.0, 1.0, 1.0]
    x = find_equilibrium(MassActionSystem(net, rates), [1.0, 1.0, 1.0])
    report = sign_fix(net)
    pair = lift_equilibrium(report, rates, x)
    assert pair.residual_original > 1e-8
    assert project_equilibrium(report, rates, pair.x_hat).x == pair.x


def test_lift_and_project_accept_every_solver_point_from_the_unit_box(corpus):
    """Starts in (0, 1]^d and random rates on corpus networks that need a
    fix: each point the solver returns passes the default tolerance."""
    rng = random.Random(17)
    done = {lift_equilibrium: 0, project_equilibrium: 0}
    for net in corpus[:150]:
        report = sign_fix(net)
        if not report.steps:
            continue
        rates = [rng.uniform(0.5, 20.0) for _ in range(net.reaction_count)]
        systems = {
            lift_equilibrium: MassActionSystem(net, rates),
            project_equilibrium: MassActionSystem(report.result, fixed_system_rates(report, rates)),
        }
        for check, sys in systems.items():
            x0 = [rng.uniform(1e-3, 1.0) for _ in range(sys.species_count)]
            try:
                x = find_equilibrium(sys, x0)
            except EquilibriumNotFound:
                continue
            check(report, rates, x)
            done[check] += 1
    assert min(done.values()) >= 20, done


def test_lift_and_project_reject_non_equilibria(deficiency_jump):
    report = sign_fix(deficiency_jump)
    with pytest.raises(ValueError, match="not an equilibrium"):
        lift_equilibrium(report, [1.0, 1.0, 1.0], [5.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="not an equilibrium"):
        project_equilibrium(report, [1.0, 1.0, 1.0], [5.0] * 6)


def test_rk4_matches_exponential_decay():
    net = parse_network("A -> B")
    sys = MassActionSystem(net, [1.0])
    times, states = simulate(sys, [1.0, 0.0], t_end=1.0, dt=0.01)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    assert states.shape == (101, 2)
    assert states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-7)
    assert states[-1, 1] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-7)


def test_rk4_preserves_conserved_total(conserving_family):
    sys = _unit_system(conserving_family)
    times, states = simulate(sys, [0.4, 0.8, 3.0, 0.6], t_end=5.0, dt=0.01)
    totals = states.sum(axis=1)
    drift = np.max(np.abs(totals - totals[0]))
    assert drift <= 1e-6 * totals[0]


def test_simulate_holds_one_states_array(conserving_family):
    """The states go into one preallocated array: 20,000 steps peak below
    twice that array's bytes (one array per step, stacked at the end,
    needs several times as much)."""
    sys = _unit_system(conserving_family)
    tracemalloc.start()
    try:
        times, states = simulate(sys, [0.4, 0.8, 3.0, 0.6], t_end=20.0, dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.shape == (20_001, 4) and times.shape == (20_001,)
    assert peak < 2 * states.nbytes, (peak, states.nbytes)


def test_rk4_aborts_on_blow_up():
    net = parse_network("2A -> 3B\n2B -> 3A")
    sys = MassActionSystem(net, [1.0, 1.0])
    with pytest.raises(ValueError, match="reduce dt"):
        simulate(sys, [1e5, 1e5], t_end=10.0, dt=1.0)


def test_simulate_argument_validation():
    net = parse_network("A -> B")
    sys = MassActionSystem(net, [1.0])
    with pytest.raises(ValueError):
        simulate(sys, [1.0, 0.0], t_end=0.0, dt=0.1)
    with pytest.raises(ValueError):
        simulate(sys, [1.0, 0.0], t_end=1.0, dt=-0.1)
    with pytest.raises(ValueError, match="^dt must be finite$"):
        simulate(sys, [1.0, 0.0], t_end=1.0, dt=math.inf)


def test_simulate_rejects_a_negative_initial_state():
    """A negative x0 is an input error of its own, not a step-size one;
    zero coordinates stay allowed."""
    sys = MassActionSystem(parse_network("A -> B"), [1.0])
    with pytest.raises(ValueError, match="^state must be nonnegative$"):
        simulate(sys, [-1.0, 1.0], t_end=1.0, dt=0.1)
    with pytest.raises(ValueError, match="^state must be nonnegative$"):
        simulate(sys, [1.0, -1e-300], t_end=1.0, dt=0.1)
    times, states = simulate(sys, [0.0, 1.0], t_end=1.0, dt=0.1)
    assert states[-1].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("t_end, dt", [(1e300, 1e-10), (float("inf"), 0.1), (1e308, 1e-300)])
def test_simulate_rejects_a_non_finite_step_count(t_end, dt):
    sys = MassActionSystem(parse_network("A -> B"), [1.0])
    with pytest.raises(ValueError, match="step count"):
        simulate(sys, [1.0, 0.0], t_end=t_end, dt=dt)


def test_simulate_rejects_more_steps_than_the_cap():
    assert step_count(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    with pytest.raises(ValueError, match="exceeds the limit"):
        step_count(2.0, 1.0 / MAX_STEPS)
    sys = MassActionSystem(parse_network("A -> B"), [1.0])
    with pytest.raises(ValueError, match="exceeds the limit"):
        simulate(sys, [1.0, 0.0], t_end=1.0, dt=1e-300)
