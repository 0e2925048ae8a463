import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from crnsign.model import Network, RationalMatrix
from crnsign.textio import parse_network

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


# The benchmark's network generator, loaded by path, is the suite's: the
# corpus, ``large`` and ``kinetics`` networks below are its draws.
# ``make_network`` draws reaction-form networks (d <= 8, d' <= 10 unless
# other ranges are given); ``make_reversible_network`` draws 25 reversible
# pairs over at most 20 species with rates in [0.5, 2]; ``network_text``
# writes a network as the benchmark's ``.crn`` input.
_spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gen)
make_network = _gen.make_network
make_reversible_network = _gen.make_reversible_network
network_text = _gen.network_text


def is_canonical(value) -> bool:
    """True iff ``value`` is an exact value in the model's canonical form:
    a plain ``int`` exactly when it is integral, a ``Fraction`` otherwise."""
    if Fraction(value).denominator == 1:
        return type(value) is int
    return type(value) is Fraction


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load(name: str) -> Network:
    return parse_network(fixture_text(name))


@pytest.fixture
def dense_reads(monkeypatch):
    """Record each call to a dense view of ``RationalMatrix``: ``entries``,
    ``__getitem__``, ``row`` and ``column``, as (view, rows, cols).  The
    package reads S through its nonzeros, so a test asserts the list
    stays empty; ``column`` reads its entries by indexing, so a call to it
    records those too."""
    calls = []

    def counted(name):
        view = getattr(RationalMatrix, name)

        def spy(self, *args):
            calls.append((name, self.rows, self.cols))
            return view(self, *args)

        return spy

    for name in ("entries", "__getitem__", "row", "column"):
        monkeypatch.setattr(RationalMatrix, name, counted(name))
    return calls


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
