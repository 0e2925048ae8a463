import random
from fractions import Fraction
from pathlib import Path
from typing import Tuple

import pytest

from crnsign.model import Complex, Network, Reaction, Species
from crnsign.textio import parse_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load(name: str) -> Network:
    return parse_network(fixture_text(name))


def _draft(rng: random.Random, d: int):
    """One reaction's sides over species 0..d-1: disjoint, coefficients 1..3."""
    order = list(range(d))
    rng.shuffle(order)
    n_react = rng.randint(1, min(3, d - 1))
    n_prod = rng.randint(1, min(3, d - n_react))
    reactant = {i: Fraction(rng.randint(1, 3)) for i in order[:n_react]}
    product = {
        i: Fraction(rng.randint(1, 3))
        for i in order[n_react:n_react + n_prod]
    }
    return reactant, product


def _compact(drafts):
    """Species named S1.. for the referenced indices, and the sides renumbered."""
    referenced = sorted({i for r, p in drafts for i in list(r) + list(p)})
    remap = {old: new for new, old in enumerate(referenced)}
    species = tuple(Species(f"S{i + 1}", i) for i in range(len(referenced)))
    sides = [
        (
            Complex.from_dict({remap[i]: c for i, c in reactant.items()}),
            Complex.from_dict({remap[i]: c for i, c in product.items()}),
        )
        for reactant, product in drafts
    ]
    return species, sides


def make_network(
    rng: random.Random,
    species: Tuple[int, int] = (2, 8),
    reactions: Tuple[int, int] = (2, 10),
) -> Network:
    """Random reaction-form network; by default d <= 8 species and
    d' <= 10 reactions, otherwise sizes drawn from the given ranges.

    Reactant and product sides are disjoint with coefficients in 1..3;
    species that end up unreferenced are compacted away so the Network
    validator is always satisfied.
    """
    d = rng.randint(*species)
    d_prime = rng.randint(*reactions)
    names, sides = _compact([_draft(rng, d) for _ in range(d_prime)])
    return Network(names, tuple(Reaction(r, p) for r, p in sides))


def make_reversible_network(rng: random.Random) -> Network:
    """25 reversible pairs over at most 20 species, drawn as in
    ``make_network``, each direction with a rate in [0.5, 2]."""
    names, sides = _compact([_draft(rng, 20) for _ in range(25)])
    reactions = []
    for reactant, product in sides:
        kf, kr = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        reactions += [Reaction(reactant, product, kf), Reaction(product, reactant, kr)]
    return Network(names, tuple(reactions), tuple((2 * j, 2 * j + 1) for j in range(25)))


@pytest.fixture(scope="session")
def two_ambiguous():
    return load("two_ambiguous.crn")


@pytest.fixture(scope="session")
def deficiency_jump():
    return load("deficiency_jump.crn")


@pytest.fixture(scope="session")
def sharp_bounds():
    return load("sharp_bounds.crn")


@pytest.fixture(scope="session")
def one_ambiguous():
    return load("one_ambiguous.crn")


@pytest.fixture(scope="session")
def fully_signed():
    return load("fully_signed.crn")


@pytest.fixture(scope="session")
def conserving_family():
    return load("conserving_family.crn")


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(0)
    return [make_network(rng) for _ in range(500)]


@pytest.fixture(scope="session")
def large_networks():
    """The two 30-species, 80-reaction networks of the benchmark's
    ``large`` workload (same generator draws, seed 0)."""
    rng = random.Random(0)
    return [make_network(rng, (30, 30), (80, 80)) for _ in range(2)]


@pytest.fixture(scope="session")
def kinetics_networks():
    """The 20 reversible networks of the benchmark's ``kinetics`` workload
    (same generator draws, seed 0)."""
    rng = random.Random(0)
    return [make_reversible_network(rng) for _ in range(20)]
