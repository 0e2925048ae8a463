import dataclasses
import importlib
import random

import numpy as np
import pytest

from conftest import load
from crnsign import exactla
from crnsign.deficiency import (
    check_single_positive_column,
    complexes_decomposition,
    complexes_of,
    decomposition_residual,
    deficiency,
    delta_audit,
)
from crnsign.kinetics import MassActionSystem
from crnsign.model import Complex, Network, Reaction, Species, stoichiometric_matrix
from crnsign.signfix import FixReport, sign_fix
from crnsign.textio import parse_network

# the package re-exports the function ``deficiency`` under the module's name
deficiency_module = importlib.import_module("crnsign.deficiency")


def _unit_system(net):
    return MassActionSystem(net, [1.0] * net.reaction_count)


def _disjoint_union(a: Network, b: Network) -> Network:
    """Side-by-side composition with disjoint species; an additivity oracle."""
    offset = a.species_count
    species = a.species + tuple(
        Species(f"{s.name}_b", offset + i) for i, s in enumerate(b.species)
    )

    def shift(c: Complex) -> Complex:
        return Complex.from_dict({j + offset: v for j, v in c.terms})

    reactions = a.reactions + tuple(
        Reaction(shift(r.reactant), shift(r.product), r.rate, r.label)
        for r in b.reactions
    )
    pairs = a.reversible_pairs + tuple(
        (i + a.reaction_count, j + a.reaction_count) for i, j in b.reversible_pairs
    )
    return Network(species, reactions, pairs)


def test_complexes_first_appearance_order():
    net = parse_network("2A -> B\nB -> C + D\nC + D -> 2A")
    names = tuple(s.name for s in net.species)
    assert names == ("A", "B", "C", "D")
    complexes = complexes_of(net)
    assert len(complexes) == 3
    assert complexes[0] == Complex.from_dict({0: 2})
    assert complexes[1] == Complex.from_dict({1: 1})
    assert complexes[2] == Complex.from_dict({2: 1, 3: 1})


def test_deficiency_simple_cycle():
    net = parse_network("2A -> B\nB -> C + D\nC + D -> 2A")
    rep = deficiency(net)
    assert (rep.n, rep.ell, rep.s, rep.delta) == (3, 1, 2, 0)
    assert rep.classes == (frozenset({0, 1, 2}),)


def test_deficiency_two_species():
    rep = deficiency(parse_network("A -> B"))
    assert (rep.n, rep.ell, rep.s, rep.delta) == (2, 1, 1, 0)


def test_deficiency_fixture_values(
    two_ambiguous, deficiency_jump, sharp_bounds, one_ambiguous, fully_signed, conserving_family
):
    expected = {
        id(two_ambiguous): (8, 4, 4, 0),
        id(deficiency_jump): (4, 2, 2, 0),
        id(sharp_bounds): (5, 2, 3, 0),
        id(one_ambiguous): (4, 1, 3, 0),
        id(fully_signed): (7, 2, 4, 1),
        id(conserving_family): (8, 4, 3, 1),
    }
    for net in (two_ambiguous, deficiency_jump, sharp_bounds, one_ambiguous, fully_signed, conserving_family):
        rep = deficiency(net)
        assert (rep.n, rep.ell, rep.s, rep.delta) == expected[id(net)]
        assert len(rep.complexes) == rep.n
        assert len(rep.classes) == rep.ell
        # the classes partition the complex indices
        seen = sorted(i for cls in rep.classes for i in cls)
        assert seen == list(range(rep.n))


def test_deficiency_additive_over_disjoint_union(two_ambiguous, deficiency_jump, conserving_family):
    for a, b in ((two_ambiguous, deficiency_jump), (conserving_family, deficiency_jump), (deficiency_jump, deficiency_jump)):
        union = _disjoint_union(a, b)
        ra, rb, ru = deficiency(a), deficiency(b), deficiency(union)
        assert ru.n == ra.n + rb.n
        assert ru.ell == ra.ell + rb.ell
        assert ru.s == ra.s + rb.s
        assert ru.delta == ra.delta + rb.delta


def test_single_step_audit_known_values(sharp_bounds):
    report = sign_fix(sharp_bounds)
    audits = delta_audit(report)
    first = audits[0]
    assert (first.dn, first.dl, first.ds, first.ddelta) == (3, 2, 1, 0)
    assert first.phi_values == (2, 1)
    assert first.psi_values == (1, 1)
    before = deficiency(report.networks[0])
    after = deficiency(report.networks[1])
    assert (before.n, before.ell) == (5, 2)
    assert (after.n, after.ell) == (8, 4)


def test_audit_values_across_fixtures(two_ambiguous, deficiency_jump, conserving_family):
    expected = {
        id(two_ambiguous): [(1, 0, 0), (3, 1, 1)],
        id(deficiency_jump): [(3, 1, 1), (1, 0, 0), (1, 0, 0)],
        id(conserving_family): [(2, 1, 0), (2, 1, 0)] + [(1, 0, 0)] * 4,
    }
    for net in (two_ambiguous, deficiency_jump, conserving_family):
        audits = delta_audit(sign_fix(net))
        assert [(a.dn, a.dl, a.ddelta) for a in audits] == expected[id(net)]
        assert all(a.ds == 1 for a in audits)


def test_total_deficiency_change(deficiency_jump, two_ambiguous):
    # the full run on this network raises the deficiency by exactly one
    report = sign_fix(deficiency_jump)
    assert deficiency(report.result).delta - deficiency(deficiency_jump).delta == 1
    report = sign_fix(two_ambiguous)
    assert deficiency(report.result).delta - deficiency(two_ambiguous).delta == 1


def test_final_deficiency_is_order_independent(deficiency_jump, two_ambiguous):
    deltas = {
        deficiency(sign_fix(deficiency_jump, order=order).result).delta
        for order in ((0, 1, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1))
    }
    assert deltas == {1}
    deltas = {
        deficiency(sign_fix(two_ambiguous, order=order).result).delta
        for order in ((0, 1), (1, 0))
    }
    assert deltas == {1}


def test_audit_rejects_forged_report(two_ambiguous):
    report = sign_fix(two_ambiguous)
    forged = FixReport(
        steps=(report.steps[1], report.steps[0]),
        networks=report.networks,
        order=report.order,
    )
    with pytest.raises(AssertionError):
        delta_audit(forged)


def test_audit_rejects_other_reaction_changed(deficiency_jump):
    report = sign_fix(deficiency_jump)
    middle = report.networks[1]
    j = next(j for j in range(3) if j != report.steps[0].modified_column)
    reaction = middle.reactions[j]
    doubled = Complex.from_dict({i: 2 * c for i, c in reaction.product.terms})
    reactions = list(middle.reactions)
    reactions[j] = Reaction(reaction.reactant, doubled, reaction.rate, reaction.label)
    networks = list(report.networks)
    networks[1] = dataclasses.replace(middle, reactions=tuple(reactions))
    forged = FixReport(report.steps, tuple(networks), report.order)
    with pytest.raises(AssertionError, match="other than its column"):
        delta_audit(forged)


@pytest.mark.parametrize("offset", ["ell-1", "ell+1", "r-1"])
def test_audit_rejects_a_neighbour_of_the_column_changed(conserving_family, offset):
    """Reactions l-1 and l+1 and the last reaction the step kept sit at
    the bounds of the unchanged slices: a changed rate there, which moves
    no count and no rank, must still fail the bordering check.  The last
    step is forged, so no later step can catch the change instead."""
    report = sign_fix(conserving_family)
    k = len(report.steps) - 1
    step, after = report.steps[k], report.networks[k + 1]
    ell, r = step.modified_column, report.networks[k].reaction_count
    j = {"ell-1": ell - 1, "ell+1": ell + 1, "r-1": r - 1}[offset]
    assert (ell, r) == (4, 10)
    reactions = list(after.reactions)
    reactions[j] = dataclasses.replace(reactions[j], rate=123.0)
    networks = list(report.networks)
    networks[k + 1] = dataclasses.replace(after, reactions=tuple(reactions))
    forged = FixReport(report.steps, tuple(networks), report.order)
    with pytest.raises(AssertionError, match="other than its column"):
        delta_audit(forged)


def test_fix_chain_work_counts(large_networks, monkeypatch):
    """A fixing step splices its network without re-validating it, and the
    audit recounts every network of the chain from scratch exactly once."""
    validations = []
    post_init = Network.__post_init__

    def counted_post_init(self):
        validations.append(self)
        post_init(self)

    monkeypatch.setattr(Network, "__post_init__", counted_post_init)
    recounts = []
    recount = deficiency_module._recount

    def counted_recount(net, *args):
        recounts.append(net)
        return recount(net, *args)

    monkeypatch.setattr(deficiency_module, "_recount", counted_recount)
    for net in large_networks:
        validations.clear()
        report = sign_fix(net)
        assert len(report.steps) > 50
        assert validations == []
        recounts.clear()
        delta_audit(report)
        assert [id(n) for n in recounts] == [id(n) for n in report.networks]
    Network(net.species, net.reactions)
    assert len(validations) == 1


def test_audit_rejects_wrong_zeroed_value(two_ambiguous):
    report = sign_fix(two_ambiguous)
    q, p2 = report.steps[0].zeroed_entry
    wrong = dataclasses.replace(report.steps[0], zeroed_entry=(q, p2 + 1))
    forged = FixReport((wrong,) + report.steps[1:], report.networks, report.order)
    with pytest.raises(AssertionError, match="zeroed entry"):
        delta_audit(forged)


def test_audit_rejects_species_no_step_added(deficiency_jump):
    report = sign_fix(deficiency_jump)
    # one step, but its network is two steps on: one fresh species unexplained
    forged = FixReport(report.steps[:1], (report.networks[0], report.networks[2]), (0,))
    with pytest.raises(AssertionError, match="exactly one species"):
        delta_audit(forged)


def test_audit_catches_a_wrong_cached_rank():
    """The original rank is read through S's cache: a correct cached right
    kernel changes nothing, and a wrong one planted on S is caught by the
    final rank, which is read from the fixed network's own S."""
    for name in ("two_ambiguous.crn", "deficiency_jump.crn", "conserving_family.crn"):
        expected = delta_audit(sign_fix(load(name)))
        net = load(name)
        S = stoichiometric_matrix(net)
        exactla.kernel_basis(S, "right")
        assert delta_audit(sign_fix(net)) == expected
        forged = load(name)
        stoichiometric_matrix(forged)._cache[("kernel", "right")] = (
            exactla._kernel_vectors(S, "right") + ((0,) * S.cols,)
        )
        with pytest.raises(AssertionError, match="final rank"):
            delta_audit(sign_fix(forged))


def test_audit_over_corpus(corpus):
    for net in corpus[:40]:
        report = sign_fix(net)
        audits = delta_audit(report)  # raises on any internal disagreement
        for a in audits:
            assert a.ds == 1
            assert 1 <= a.dn <= 3
            assert a.dl <= 2
            assert 0 <= a.ddelta <= 1


def test_single_positive_column_fixtures(
    two_ambiguous, deficiency_jump, sharp_bounds, one_ambiguous, fully_signed
):
    assert check_single_positive_column(one_ambiguous)
    assert check_single_positive_column(fully_signed)  # vacuous: no bad classes
    assert not check_single_positive_column(deficiency_jump)
    assert not check_single_positive_column(two_ambiguous)
    assert not check_single_positive_column(sharp_bounds)


def test_single_positive_column_preserves_deficiency():
    net = parse_network("A + B -> 2C\nA + C -> B\nB + C -> A")
    assert check_single_positive_column(net)
    report = sign_fix(net)
    assert len(report.steps) >= 1
    assert deficiency(report.result).delta == deficiency(net).delta


def test_single_positive_column_on_corpus(corpus):
    """Where the column condition holds, a full run keeps delta fixed."""
    checked = 0
    for net in corpus:
        if not check_single_positive_column(net):
            continue
        report = sign_fix(net)
        if not report.steps:
            continue
        assert deficiency(report.result).delta == deficiency(net).delta
        checked += 1
        if checked == 15:
            break
    assert checked == 15


def test_decomposition_simple():
    net = parse_network("A -> B")
    sys = MassActionSystem(net, [2.0])
    Y, a_k, psi = complexes_decomposition(sys)
    assert Y.entries() == ((1, 0), (0, 1))
    assert a_k.tolist() == [[-2.0, 0.0], [2.0, 0.0]]
    assert psi([3.0, 5.0]).tolist() == [3.0, 5.0]
    assert decomposition_residual(sys, [3.0, 5.0]) == 0.0


def test_decomposition_matches_rhs_on_fixtures(
    two_ambiguous, deficiency_jump, sharp_bounds, one_ambiguous, fully_signed, conserving_family
):
    rng = random.Random(41)
    for net in (two_ambiguous, deficiency_jump, sharp_bounds, one_ambiguous, fully_signed, conserving_family):
        rates = [10.0 ** rng.uniform(-1, 1) for _ in range(net.reaction_count)]
        sys = MassActionSystem(net, rates)
        _, a_k, _ = complexes_decomposition(sys)
        col_sums = np.abs(a_k.sum(axis=0))
        assert float(col_sums.max()) <= 1e-12
        for _ in range(50):
            x = [10.0 ** rng.uniform(-1, 1) for _ in range(net.species_count)]
            assert decomposition_residual(sys, x) <= 1e-10


def test_decomposition_psi_validates_shape(deficiency_jump):
    _, _, psi = complexes_decomposition(_unit_system(deficiency_jump))
    with pytest.raises(ValueError):
        psi([1.0])
