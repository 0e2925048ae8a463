"""Bipartite species-reaction graph, bad 4-cycles, and DOT export.

Every nonzero stoichiometric entry is one edge between a species node
and a reaction node: consumed (entry < 0, drawn species -> reaction,
solid) or produced (entry > 0, drawn reaction -> species, dotted).  The
styling convention is one of the two equivalent global choices, fixed
for reproducible output.

A bad 4-cycle is a species-reaction-species-reaction cycle whose four
edges split three consumed / one produced; these are in bijection with
the bad 2x2 submatrices of the matrix, and ``find_bad_cycles`` is the
graph-side enumeration used to cross-check the matrix-side one.  It
pairs two species only over the reactions both touch, and lists the
cycles by species pair, then by reaction pair; ``find_bad_submatrices``
groups its members into classes ordered by their positive entry, so the
two agree as sets, not as lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .model import RationalMatrix

CONSUMED = "consumed"
PRODUCED = "produced"


@dataclass(frozen=True)
class Edge:
    species: int
    reaction: int
    direction: str  # consumed | produced
    style: str  # solid | dotted


class SRGraph:
    """Species and reaction node names plus the signed edge set."""

    def __init__(
        self,
        species_names: Sequence[str],
        reaction_names: Sequence[str],
        edges: Sequence[Edge],
    ):
        self.species_names = tuple(species_names)
        self.reaction_names = tuple(reaction_names)
        self.edges = tuple(edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SRGraph):
            return NotImplemented
        return (
            self.species_names == other.species_names
            and self.reaction_names == other.reaction_names
            and set(self.edges) == set(other.edges)
        )

    def __repr__(self) -> str:
        return (
            f"SRGraph({len(self.species_names)} species, "
            f"{len(self.reaction_names)} reactions, {len(self.edges)} edges)"
        )


def build_graph(
    S: RationalMatrix,
    species_names: Optional[Sequence[str]] = None,
    reaction_names: Optional[Sequence[str]] = None,
) -> SRGraph:
    """Graph of a stoichiometric matrix; default names S1../R1.. (1-based)."""
    if species_names is None:
        species_names = [f"S{i + 1}" for i in range(S.rows)]
    if reaction_names is None:
        reaction_names = [f"R{j + 1}" for j in range(S.cols)]
    if len(species_names) != S.rows or len(reaction_names) != S.cols:
        raise ValueError("need one species name per row and one reaction name per column")
    edges = [
        Edge(i, j, CONSUMED, "solid") if value < 0 else Edge(i, j, PRODUCED, "dotted")
        for i, row in enumerate(S.nonzeros())
        for j, value in row
    ]
    return SRGraph(species_names, reaction_names, edges)


@dataclass(frozen=True)
class BadCycle:
    """4-cycle with three consumed edges and one produced edge.

    ``produced_at`` names the (species, reaction) pair of the produced
    edge, matching the positive entry of the corresponding bad 2x2
    submatrix.
    """

    species: Tuple[int, int]
    reactions: Tuple[int, int]
    produced_at: Tuple[int, int]


def find_bad_cycles(graph: SRGraph) -> List[BadCycle]:
    """All bad 4-cycles, in order of species pair (i, j), i < j, then of
    reaction pair (k, l), k < l.

    Each species' reactions are indexed once, and a species pair is paired
    only with the reactions both species touch.  An edge of no direction,
    or whose species or reaction lies outside the name lists, is ignored,
    and of two edges on one (species, reaction) pair the later one counts.
    """
    by_pair = {(e.species, e.reaction): e.direction for e in graph.edges}
    species, reactions = range(len(graph.species_names)), range(len(graph.reaction_names))
    touched: Dict[int, Set[int]] = {}
    for (i, k), direction in by_pair.items():
        if direction is not None and i in species and k in reactions:
            touched.setdefault(i, set()).add(k)
    cycles = []
    for i, j in combinations(sorted(touched), 2):
        for k, ell in combinations(sorted(touched[i] & touched[j]), 2):
            corners = ((i, k), (i, ell), (j, k), (j, ell))
            produced = [c for c in corners if by_pair[c] == PRODUCED]
            if len(produced) == 1:
                cycles.append(BadCycle((i, j), (k, ell), produced[0]))
    return cycles


def export_dot(graph: SRGraph) -> str:
    """Deterministic Graphviz text: ellipses for species, boxes for reactions."""

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph SR {"]
    for name in graph.species_names:
        lines.append(f"  {quote(name)} [shape=ellipse];")
    for name in graph.reaction_names:
        lines.append(f"  {quote(name)} [shape=box];")
    for edge in sorted(graph.edges, key=lambda e: (e.reaction, e.species)):
        s = quote(graph.species_names[edge.species])
        r = quote(graph.reaction_names[edge.reaction])
        if edge.direction == CONSUMED:
            lines.append(f"  {s} -> {r};")
        else:
            lines.append(f"  {r} -> {s} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE_RE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*\[shape=(ellipse|box)\];\s*$')
_EDGE_RE = re.compile(
    r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s*(\[style=dotted\])?;\s*$'
)


def _unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def read_dot(text: str) -> SRGraph:
    """Minimal reader for the DOT dialect written by ``export_dot``.

    Exists for round-trip verification, not as a general DOT parser.
    """
    species: List[str] = []
    reactions: List[str] = []
    raw_edges: List[Tuple[str, str, bool]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped in ("digraph SR {", "}"):
            continue
        node = _NODE_RE.match(line)
        if node:
            name = _unquote(node.group(1))
            (species if node.group(2) == "ellipse" else reactions).append(name)
            continue
        edge = _EDGE_RE.match(line)
        if edge:
            raw_edges.append(
                (_unquote(edge.group(1)), _unquote(edge.group(2)), bool(edge.group(3)))
            )
            continue
        raise ValueError(f"unrecognized DOT line: {line!r}")

    species_index = {n: i for i, n in enumerate(species)}
    reaction_index = {n: i for i, n in enumerate(reactions)}
    edges = []
    seen: Set[Tuple[int, int]] = set()
    for src, dst, dotted in raw_edges:
        if src in species_index and dst in reaction_index and not dotted:
            edge = Edge(species_index[src], reaction_index[dst], CONSUMED, "solid")
        elif src in reaction_index and dst in species_index and dotted:
            edge = Edge(species_index[dst], reaction_index[src], PRODUCED, "dotted")
        else:
            raise ValueError(f"edge {src!r} -> {dst!r} does not fit the convention")
        if (edge.species, edge.reaction) in seen:
            raise ValueError("duplicate edge")
        seen.add((edge.species, edge.reaction))
        edges.append(edge)
    return SRGraph(species, reactions, edges)
