import random
from fractions import Fraction

import numpy as np
import pytest

from crnsign.kinetics import MassActionSystem, jacobian
from crnsign.signfix import fix_one_report, sign_fix
from crnsign.spectra import (
    char_poly_relation,
    det_relation_check,
    det_sign_sampling,
    eigen_convergence,
    eigenvalues,
)
from crnsign.textio import parse_network

GRID = tuple(float(k) for k in np.geomspace(1.0, 1e6, 7))


def _unit_system(net):
    return MassActionSystem(net, [1.0] * net.reaction_count)


def _ones(n):
    return [1.0] * n


@pytest.fixture(scope="module")
def invertible_net():
    """Three species, three reactions, bad classes AND det J != 0."""
    return parse_network("A -> 3B + C\nA + B -> C\n3B + C -> 2A")


def test_eigenvalues_triangular_are_diagonal():
    M = [[3.0, 5.0, -1.0], [0.0, -2.0, 4.0], [0.0, 0.0, 1.0]]
    assert eigenvalues(M) == pytest.approx([-2.0, 1.0, 3.0])


def test_eigenvalues_symmetric():
    vals = eigenvalues([[2.0, 1.0], [1.0, 2.0]])
    assert vals == pytest.approx([1.0, 3.0], abs=1e-12)


def test_eigenvalues_companion_oracle():
    # companion matrix of (x+1)(x+2)(x+3)(x+4)(x+5)
    coeffs = [120.0, 274.0, 225.0, 85.0, 15.0]
    M = np.zeros((5, 5))
    for i in range(4):
        M[i + 1, i] = 1.0
    M[:, 4] = [-c for c in coeffs]
    vals = eigenvalues(M)
    assert all(abs(v.imag) <= 1e-7 for v in vals)
    assert [v.real for v in vals] == pytest.approx([-5, -4, -3, -2, -1], abs=1e-7)


def test_eigenvalues_sort_key_uses_imaginary_part():
    vals = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
    assert vals == [complex(0, -1), complex(0, 1)]


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues([[1.0, 2.0]])
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 2, 2)))


def test_eigenvalues_beyond_100x100_match_numpy():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(120, 120))
    expected = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    vals = eigenvalues(M)
    assert len(vals) == 120
    assert vals == pytest.approx(expected, abs=1e-9)


def test_det_relation_zero_determinant(deficiency_jump):
    # rank S = 2 < 3, so det J vanishes identically and so must det J_k
    report = fix_one_report(deficiency_jump)
    sys = _unit_system(deficiency_jump)
    result = det_relation_check(sys, report, _ones(4), 1.0)
    assert result.det_original == pytest.approx(0.0, abs=1e-12)
    assert result.det_fixed == pytest.approx(0.0, abs=1e-12)
    assert result.passed


def test_det_relation_nonzero_determinant(invertible_net):
    report = fix_one_report(invertible_net)
    sys = _unit_system(invertible_net)
    result = det_relation_check(sys, report, _ones(4), 1.0)
    assert result.det_original == pytest.approx(4.0, rel=1e-12)
    assert result.det_fixed == pytest.approx(-4.0, rel=1e-12)
    assert result.passed
    # the relation scales with k
    for k in (10.0, 100.0):
        r = det_relation_check(sys, report, _ones(4), k)
        assert r.det_fixed == pytest.approx(-k * r.det_original, rel=1e-9)
        assert r.passed


def test_det_relation_at_random_points(invertible_net):
    report = fix_one_report(invertible_net)
    sys = _unit_system(invertible_net)
    rng = random.Random(31)
    for _ in range(20):
        x_hat = [10.0 ** rng.uniform(-1, 1) for _ in range(4)]
        for k in (1.0, 10.0, 100.0):
            assert det_relation_check(sys, report, x_hat, k).passed


def test_det_relation_detects_perturbation(invertible_net):
    report = fix_one_report(invertible_net)
    sys = _unit_system(invertible_net)
    J = jacobian(sys, _ones(3))
    J_perturbed = J.copy()
    J_perturbed[0, 0] += 1e-3
    result = det_relation_check(
        sys, report, _ones(4), 1.0, jacobian_original=J_perturbed
    )
    assert not result.passed
    assert result.residual > result.tolerance


def test_det_relation_argument_validation(deficiency_jump, two_ambiguous):
    report = fix_one_report(deficiency_jump)
    sys = _unit_system(deficiency_jump)
    with pytest.raises(ValueError):
        det_relation_check(sys, report, _ones(4), 0.0)
    with pytest.raises(ValueError):
        det_relation_check(sys, report, _ones(3), 1.0)  # wrong length
    with pytest.raises(ValueError):
        det_relation_check(sys, report, [-1.0, 1.0, 1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        det_relation_check(_unit_system(two_ambiguous), report, _ones(4), 1.0)
    multi = sign_fix(deficiency_jump)
    with pytest.raises(ValueError, match="one-step"):
        det_relation_check(sys, multi, _ones(6), 1.0)


def test_eigen_convergence_known_network(deficiency_jump):
    report = fix_one_report(deficiency_jump)
    sys = _unit_system(deficiency_jump)
    conv = eigen_convergence(sys, report, _ones(4), GRID)
    assert conv.passed
    assert conv.matched_ok and conv.escaper_ok and conv.slope_ok
    assert conv.chosen_k == GRID[-1]
    assert conv.knee_index == 1
    assert conv.slope == pytest.approx(-1.0, abs=0.2)
    assert conv.nonincreasing_after_knee
    assert conv.escaper_real_tail
    escaper = conv.escaping_eigenvalues[-1]
    assert escaper.imag == pytest.approx(0.0, abs=1e-6)
    assert abs(escaper - (-GRID[-1])) <= 0.2 * GRID[-1]
    # rank-deficient S makes 0 an eigenvalue of J: marginal on both sides
    assert conv.stability_original == "marginal"
    assert conv.stability_fixed == "marginal"
    assert conv.stability_agrees
    assert not conv.clustered
    assert len(conv.matched_errors) == len(GRID)
    assert all(len(e) == 4 for e in conv.eigenvalues_fixed)
    assert len(conv.eigenvalues_original) == 3


def test_eigen_convergence_preserves_instability(invertible_net):
    report = fix_one_report(invertible_net)
    sys = _unit_system(invertible_net)
    conv = eigen_convergence(sys, report, _ones(4), GRID)
    assert conv.passed
    assert conv.stability_original == "unstable"
    assert conv.stability_fixed == "unstable"
    assert conv.stability_agrees


def test_eigen_convergence_grid_validation(deficiency_jump):
    report = fix_one_report(deficiency_jump)
    sys = _unit_system(deficiency_jump)
    with pytest.raises(ValueError, match="at least 5"):
        eigen_convergence(sys, report, _ones(4), [1.0, 10.0, 100.0, 1e4])
    with pytest.raises(ValueError, match="increasing"):
        eigen_convergence(sys, report, _ones(4), [1.0, 1.0, 100.0, 1e4, 1e6])
    with pytest.raises(ValueError, match="decades"):
        eigen_convergence(sys, report, _ones(4), [1.0, 2.0, 4.0, 8.0, 16.0])
    with pytest.raises(ValueError):
        eigen_convergence(sys, report, _ones(4), [-1.0, 10.0, 100.0, 1e4, 1e6])


def test_one_step_checks_reject_full_reports(two_ambiguous):
    report = sign_fix(two_ambiguous)  # two steps
    sys = _unit_system(two_ambiguous)
    with pytest.raises(ValueError, match="one-step"):
        eigen_convergence(sys, report, _ones(10), GRID)


def test_char_poly_relation_known_values(deficiency_jump):
    report = fix_one_report(deficiency_jump)
    ones = [Fraction(1)] * 3
    rel = char_poly_relation(report, ones, ones)
    assert rel.passed
    assert rel.detail == "ok"
    # p(l) = l^3 + 16 l^2 + 28 l, H(l) = 30 l + 6, both exact
    assert rel.base == (Fraction(0), Fraction(28), Fraction(16), Fraction(1))
    assert rel.correction == (Fraction(6), Fraction(30))


def test_char_poly_relation_rational_states(deficiency_jump, conserving_family, invertible_net):
    rng = random.Random(33)
    for net in (deficiency_jump, conserving_family, invertible_net):
        report = fix_one_report(net)
        d = net.species_count
        for _ in range(3):
            rates = [
                Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(net.reaction_count)
            ]
            x = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(d)]
            rel = char_poly_relation(report, rates, x)
            assert rel.passed, rel.detail
            assert len(rel.base) == d + 1
            assert rel.base[-1] == 1  # monic
            assert len(rel.correction) - 1 <= d - 2


def test_char_poly_relation_validation(two_ambiguous, deficiency_jump):
    big = fix_one_report(two_ambiguous)  # 7 species
    with pytest.raises(ValueError, match="up to 4"):
        char_poly_relation(big, [Fraction(1)] * 6, [Fraction(1)] * 7)
    report = fix_one_report(deficiency_jump)
    with pytest.raises(ValueError):
        char_poly_relation(report, [Fraction(1)] * 3, [Fraction(1)] * 2)
    with pytest.raises(ValueError):
        char_poly_relation(report, [Fraction(1)] * 3, [Fraction(-1)] * 3)
    multi = sign_fix(deficiency_jump)
    with pytest.raises(ValueError, match="one-step"):
        char_poly_relation(multi, [Fraction(1)] * 3, [Fraction(1)] * 3)


def test_det_sign_sampling_pointwise_opposition(invertible_net, deficiency_jump):
    rng = random.Random(35)
    points = [
        [10.0 ** rng.uniform(-1, 1) for _ in range(3)] for _ in range(20)
    ]
    for net in (invertible_net, deficiency_jump):
        sys = _unit_system(net)
        report = fix_one_report(net)
        sample = det_sign_sampling(sys, report, points, k=1.0)
        assert sample.passed
        assert len(sample.signs_original) == 20
        for a, b in zip(sample.signs_original, sample.signs_fixed):
            assert b == -a
        assert det_sign_sampling(sys, report, points, k=10.0).passed


def test_det_sign_sampling_zero_case(deficiency_jump):
    sys = _unit_system(deficiency_jump)
    report = fix_one_report(deficiency_jump)
    sample = det_sign_sampling(sys, report, [_ones(3)])
    assert sample.signs_original == (0,)
    assert sample.signs_fixed == (0,)
    assert sample.constant_original and sample.constant_fixed
    assert sample.opposite
    with pytest.raises(ValueError):
        det_sign_sampling(sys, report, [])


def test_stability_certificates_along_full_run(two_ambiguous):
    """Chained one-step certificates cover a multi-step fixing run."""
    current = two_ambiguous
    rates = [1.0] * two_ambiguous.reaction_count
    steps_taken = 0
    while True:
        try:
            report = fix_one_report(current)
        except ValueError:
            break
        sys = MassActionSystem(current, rates)
        conv = eigen_convergence(
            sys, report, _ones(current.species_count + 1), GRID
        )
        assert conv.passed
        assert conv.stability_agrees
        current = report.result
        rates = rates + [report.steps[0].added_rate]
        steps_taken += 1
    assert steps_taken == 2
