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
    drafts = []
    for _ in range(d_prime):
        order = list(range(d))
        rng.shuffle(order)
        n_react = rng.randint(1, min(3, d - 1))
        n_prod = rng.randint(1, min(3, d - n_react))
        reactant = {i: Fraction(rng.randint(1, 3)) for i in order[:n_react]}
        product = {
            i: Fraction(rng.randint(1, 3))
            for i in order[n_react:n_react + n_prod]
        }
        drafts.append((reactant, product))
    referenced = sorted({i for r, p in drafts for i in list(r) + list(p)})
    remap = {old: new for new, old in enumerate(referenced)}
    species = tuple(Species(f"S{i + 1}", i) for i in range(len(referenced)))
    reactions = tuple(
        Reaction(
            Complex.from_dict({remap[i]: c for i, c in reactant.items()}),
            Complex.from_dict({remap[i]: c for i, c in product.items()}),
        )
        for reactant, product in drafts
    )
    return Network(species, reactions)


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
