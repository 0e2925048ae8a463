import random

import pytest

from conftest import make_network
from crnsign.graphio import (
    CONSUMED,
    PRODUCED,
    Edge,
    SRGraph,
    build_graph,
    export_dot,
    find_bad_cycles,
    read_dot,
)
from crnsign.model import RationalMatrix, stoichiometric_matrix
from crnsign.signcheck import find_bad_submatrices
from crnsign.signfix import sign_fix


def _graph_of(net):
    return build_graph(
        stoichiometric_matrix(net),
        [s.name for s in net.species],
        [f"R{j + 1}" for j in range(net.reaction_count)],
    )


def test_build_graph_edges_and_default_names():
    g = build_graph(RationalMatrix([[-1, 2], [1, 0]]))
    assert g.species_names == ("S1", "S2")
    assert g.reaction_names == ("R1", "R2")
    assert set(g.edges) == {
        Edge(0, 0, CONSUMED, "solid"),
        Edge(0, 1, PRODUCED, "dotted"),
        Edge(1, 0, PRODUCED, "dotted"),
    }


def test_build_graph_name_validation():
    with pytest.raises(ValueError):
        build_graph(RationalMatrix([[1]]), species_names=["A", "B"])


def test_graph_matches_matrix_signs(two_ambiguous):
    S = stoichiometric_matrix(two_ambiguous)
    g = _graph_of(two_ambiguous)
    assert len(g.edges) == 18
    by_pair = {(e.species, e.reaction): e for e in g.edges}
    for i in range(S.rows):
        for j in range(S.cols):
            if S[i, j] < 0:
                edge = by_pair[(i, j)]
                assert edge.direction == CONSUMED and edge.style == "solid"
            elif S[i, j] > 0:
                edge = by_pair[(i, j)]
                assert edge.direction == PRODUCED and edge.style == "dotted"
            else:
                assert (i, j) not in by_pair


def test_bad_cycles_known_network(two_ambiguous):
    """The cycles come by species pair, then by reaction pair, while the
    classes of the matrix side come by positive entry: (2, 5) first."""
    cycles = find_bad_cycles(_graph_of(two_ambiguous))
    assert [(c.species, c.reactions, c.produced_at) for c in cycles] == [
        ((2, 3), (2, 4), (3, 4)),
        ((2, 3), (2, 5), (2, 5)),
    ]
    classes = find_bad_submatrices(stoichiometric_matrix(two_ambiguous))
    assert [cls.positive_entry for cls in classes] == [(2, 5), (3, 4)]


def test_cycles_match_bad_submatrices(two_ambiguous, deficiency_jump, sharp_bounds, conserving_family):
    """The fixtures and a 60 x 160 network, where a species pair shares
    few reactions."""
    wide = make_network(random.Random(1), (60, 60), (160, 160))
    for net in (two_ambiguous, deficiency_jump, sharp_bounds, conserving_family, wide):
        S = stoichiometric_matrix(net)
        members = {
            (m.rows, m.cols, m.positive_at)
            for cls in find_bad_submatrices(S)
            for m in cls.members
        }
        cycles = {
            (c.species, c.reactions, c.produced_at)
            for c in find_bad_cycles(build_graph(S))
        }
        assert cycles == members


def test_cycles_match_bad_submatrices_on_corpus(corpus):
    for net in corpus[:80]:
        S = stoichiometric_matrix(net)
        members = {
            (m.rows, m.cols, m.positive_at)
            for cls in find_bad_submatrices(S)
            for m in cls.members
        }
        cycles = {
            (c.species, c.reactions, c.produced_at)
            for c in find_bad_cycles(build_graph(S))
        }
        assert cycles == members


def test_fixed_network_graph_has_no_bad_cycles(two_ambiguous, deficiency_jump):
    for net in (two_ambiguous, deficiency_jump):
        fixed = sign_fix(net).result
        assert find_bad_cycles(_graph_of(fixed)) == []


def test_sign_constant_matrices_have_no_bad_cycles():
    assert find_bad_cycles(build_graph(RationalMatrix([[0, 0], [0, 0]]))) == []
    assert find_bad_cycles(build_graph(RationalMatrix([[1, 2], [3, 4]]))) == []
    assert find_bad_cycles(build_graph(RationalMatrix([[-1, -2], [-3, -4]]))) == []


def test_dot_export_shape():
    g = build_graph(RationalMatrix([[-1, 2], [1, 0]]))
    dot = export_dot(g)
    assert dot.startswith("digraph SR {\n")
    assert dot.endswith("}\n")
    assert '  "S1" [shape=ellipse];' in dot
    assert '  "R1" [shape=box];' in dot
    assert '  "S1" -> "R1";' in dot                      # consumed: solid
    assert '  "R1" -> "S2" [style=dotted];' in dot       # produced: dotted
    assert '  "R2" -> "S1" [style=dotted];' in dot


def test_dot_round_trip_fixtures(two_ambiguous, deficiency_jump, sharp_bounds, conserving_family):
    for net in (two_ambiguous, deficiency_jump, sharp_bounds, conserving_family):
        g = _graph_of(net)
        dot = export_dot(g)
        assert read_dot(dot) == g
        # export is byte-stable through a round trip
        assert export_dot(read_dot(dot)) == dot


def test_dot_round_trip_corpus(corpus):
    for net in corpus[:50]:
        g = build_graph(stoichiometric_matrix(net))
        assert read_dot(export_dot(g)) == g


def test_dot_quotes_primed_names(two_ambiguous):
    fixed = sign_fix(two_ambiguous).result
    dot = export_dot(_graph_of(fixed))
    assert '"D\'" [shape=ellipse];' in dot
    assert read_dot(dot) == _graph_of(fixed)


def test_dot_quoting_handles_quotes_and_backslashes():
    g = SRGraph(['sp"ecies', "back\\slash"], ["R1"], [Edge(0, 0, CONSUMED, "solid")])
    assert read_dot(export_dot(g)) == g


def test_read_dot_rejects_bad_input():
    with pytest.raises(ValueError, match="unrecognized"):
        read_dot('digraph SR {\n  garbage\n}\n')
    # a solid edge from a reaction to a species breaks the convention
    bad = (
        'digraph SR {\n  "A" [shape=ellipse];\n  "R1" [shape=box];\n'
        '  "R1" -> "A";\n}\n'
    )
    with pytest.raises(ValueError, match="convention"):
        read_dot(bad)
    # so does a dotted species-to-reaction edge
    bad = (
        'digraph SR {\n  "A" [shape=ellipse];\n  "R1" [shape=box];\n'
        '  "A" -> "R1" [style=dotted];\n}\n'
    )
    with pytest.raises(ValueError, match="convention"):
        read_dot(bad)
    # and an edge between unknown nodes
    with pytest.raises(ValueError):
        read_dot('digraph SR {\n  "A" -> "B";\n}\n')
    dup = (
        'digraph SR {\n  "A" [shape=ellipse];\n  "R1" [shape=box];\n'
        '  "A" -> "R1";\n  "A" -> "R1";\n}\n'
    )
    with pytest.raises(ValueError, match="duplicate"):
        read_dot(dup)
