"""The one-pass sign fix, the incremental-rank audit and the index-permuted
order relation, each against the implementation it replaced (``oracles``)."""

import random

import pytest

import oracles
from conftest import FIXTURES, load
from crnsign.deficiency import delta_audit
from crnsign.model import stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices
from crnsign.signfix import FixReport, sign_fix, verify_permutation_relation


def _class_count(net):
    return len(find_bad_submatrices(stoichiometric_matrix(net)))


def _multi_class(corpus, count):
    nets = [net for net in corpus if _class_count(net) >= 2][:count]
    assert len(nets) == count
    return nets


def _shuffled_orders(net, rng, count):
    orders = []
    for _ in range(count):
        order = list(range(_class_count(net)))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _assert_same_run(net, order=None):
    report = sign_fix(net, order=order)
    assert report == oracles.sign_fix(net, order=order)
    assert delta_audit(report) == oracles.delta_audit(report)
    return report


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.crn")))
def test_fix_and_audit_match_oracles_on_fixtures(name):
    _assert_same_run(load(name))


def test_fix_and_audit_match_oracles_on_corpus(corpus):
    for net in corpus:
        _assert_same_run(net)


def test_fix_and_audit_match_oracles_on_shuffled_orders(corpus):
    rng = random.Random(29)
    for net in _multi_class(corpus, 100):
        for order in _shuffled_orders(net, rng, 3):
            _assert_same_run(net, order)


def test_permutation_relation_matches_dense_oracle(corpus):
    rng = random.Random(31)
    for net in _multi_class(corpus, 100):
        a, b = (sign_fix(net, order=order) for order in _shuffled_orders(net, rng, 2))
        assert verify_permutation_relation(a, b) == oracles.verify_permutation_relation(a, b)
        # b's networks under an order they were not built in
        rotated = b.order[1:] + b.order[:1]
        mismatched = FixReport(b.steps, b.networks, rotated)
        for check in (verify_permutation_relation, oracles.verify_permutation_relation):
            with pytest.raises(ValueError, match="permutation relation failed"):
                check(a, mismatched)
