"""Seeded network generator for the benchmark workloads.

``make_network`` with its default sizes reproduces the test suite's
corpus generator draw for draw, so ``corpus(0)`` is the 500-network
corpus the tests use.  ``make_reversible_network`` adds what that
generator never makes: reversible pairs and rate constants.
``network_text`` writes a network in the ``.crn`` format without calling
the package's serializer, so the inputs do not change when it does.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from crnsign.model import Complex, Network, Reaction, Species

Side = Dict[int, Fraction]

REVERSIBLE_SPECIES = 20
REVERSIBLE_PAIRS = 25
RATE_RANGE = (0.5, 2.0)


def _draft(rng: random.Random, d: int) -> Tuple[Side, Side]:
    """One reaction over species 0..d-1: disjoint sides, coefficients 1..3."""
    order = list(range(d))
    rng.shuffle(order)
    n_react = rng.randint(1, min(3, d - 1))
    n_prod = rng.randint(1, min(3, d - n_react))
    reactant = {i: Fraction(rng.randint(1, 3)) for i in order[:n_react]}
    product = {
        i: Fraction(rng.randint(1, 3)) for i in order[n_react:n_react + n_prod]
    }
    return reactant, product


def _compact(drafts) -> Tuple[Tuple[Species, ...], List[Tuple[Complex, Complex]]]:
    """Drop unreferenced species and renumber the rest in order."""
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
    """Irreversible reaction-form network; sizes drawn from the given ranges."""
    d = rng.randint(*species)
    d_prime = rng.randint(*reactions)
    drafts = [_draft(rng, d) for _ in range(d_prime)]
    names, sides = _compact(drafts)
    return Network(names, tuple(Reaction(r, p) for r, p in sides))


def make_reversible_network(rng: random.Random) -> Network:
    """Reaction-form network of ``REVERSIBLE_PAIRS`` reversible pairs over
    at most ``REVERSIBLE_SPECIES`` species, each direction with a rate
    drawn from ``RATE_RANGE``."""
    drafts = [_draft(rng, REVERSIBLE_SPECIES) for _ in range(REVERSIBLE_PAIRS)]
    names, sides = _compact(drafts)
    reactions = []
    for reactant, product in sides:
        kf, kr = rng.uniform(*RATE_RANGE), rng.uniform(*RATE_RANGE)
        reactions += [Reaction(reactant, product, kf), Reaction(product, reactant, kr)]
    return Network(
        names, tuple(reactions), tuple((2 * j, 2 * j + 1) for j in range(REVERSIBLE_PAIRS))
    )


def corpus(seed: int, count: int = 500) -> List[Network]:
    rng = random.Random(seed)
    return [make_network(rng) for _ in range(count)]


def permuted(net: Network, rng: random.Random) -> Network:
    """The same network with species and reactions listed in a random order.

    Species keep their names.  A reversible pair stays adjacent, forward
    first, so that it is still written with ``<->``.  Sizes, bad classes
    and kernel dimensions are unchanged, so the work to analyze the
    network stays about the same.
    """
    rows = list(range(net.species_count))
    rng.shuffle(rows)
    new_index = {old: new for new, old in enumerate(rows)}
    species = tuple(Species(net.species[old].name, new) for new, old in enumerate(rows))
    paired = dict(net.reversible_pairs)
    units = [
        (j, paired[j]) if j in paired else (j,)
        for j in range(net.reaction_count)
        if j not in paired.values()
    ]
    rng.shuffle(units)

    def moved(side: Complex) -> Complex:
        return Complex.from_dict({new_index[i]: c for i, c in side.terms})

    reactions, pairs = [], []
    for unit in units:
        if len(unit) == 2:
            pairs.append((len(reactions), len(reactions) + 1))
        for j in unit:
            r = net.reactions[j]
            reactions.append(Reaction(moved(r.reactant), moved(r.product), r.rate))
    return Network(species, tuple(reactions), tuple(pairs))


def _side_text(side: Complex, net: Network) -> str:
    return " + ".join(
        f"{'' if c == 1 else c}{net.species[i].name}" for i, c in side.terms
    )


def network_text(net: Network) -> str:
    """The network as ``.crn`` text, with a ``species`` line fixing row order."""
    lines = ["species " + ", ".join(s.name for s in net.species)]
    paired = dict(net.reversible_pairs)
    for j, r in enumerate(net.reactions):
        if j in paired.values():
            continue
        lhs, rhs = _side_text(r.reactant, net), _side_text(r.product, net)
        if j in paired:
            rev = net.reactions[paired[j]]
            lines.append(f"{lhs} <-> {rhs} ; kf={r.rate!r}, kr={rev.rate!r}")
        elif r.rate is not None:
            lines.append(f"{lhs} -> {rhs} ; k={r.rate!r}")
        else:
            lines.append(f"{lhs} -> {rhs}")
    return "\n".join(lines) + "\n"
