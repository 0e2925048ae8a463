"""Plain-text reaction-network format: parser, serializer, JSON helpers.

Grammar (authoritative)::

    file    := (line NEWLINE)*
    line    := reaction | directive | comment | blank
    comment := '#' anything
    directive := 'species' IDENT (',' IDENT)*
    reaction  := complex arrow complex [';' rates]
    complex := '0' | term ('+' term)*
    term    := [coeff] IDENT
    coeff   := positive integer, decimal, or p/q
    arrow   := '->' | '<->'
    rates   := 'k=' NUM            (for '->')
             | 'kf=' NUM ',' 'kr=' NUM   (for '<->')

Whitespace between tokens is insignificant (``2B`` and ``2 B`` are both
accepted).  Identifiers match ``[A-Za-z_][A-Za-z0-9_']*``.  A ``species``
directive pins the species (row) order explicitly; species not covered by
a directive are ordered by first appearance in the file.  ``<->`` expands
to two irreversible reactions, forward first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (
    SPECIES_NAME_RE,
    Complex,
    Network,
    Reaction,
    Species,
)

KIND_SYNTAX = "syntax"
KIND_DUPLICATE_RATE = "duplicate-rate"
KIND_BAD_COEFFICIENT = "bad-coefficient"
KIND_EMPTY_SIDE_BOTH = "empty-side-both"


class ParseError(Exception):
    """A positioned parse failure.

    Attributes:
        line: 1-based line number of the offending source line.
        column: 1-based column within that line.
        message: Human-readable description.
        kind: One of {syntax, duplicate-rate, bad-coefficient,
            empty-side-both}.
    """

    def __init__(self, line: int, column: int, message: str, kind: str = KIND_SYNTAX):
        super().__init__(f"line {line}, column {column}: {message} [{kind}]")
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER PLUS ARROW SEMI COMMA EQUALS END
    text: str
    column: int  # 1-based


def _tokenize(line: str, lineno: int) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch == "#":
            break
        if ch.isdigit():
            j = i + 1
            while j < n and line[j].isdigit():
                j += 1
            if j < n and line[j] == "." and j + 1 < n and line[j + 1].isdigit():
                j += 1
                while j < n and line[j].isdigit():
                    j += 1
            if (
                j < n
                and line[j] in "eE"
                and j + 1 < n
                and (
                    line[j + 1].isdigit()
                    or (line[j + 1] in "+-" and j + 2 < n and line[j + 2].isdigit())
                )
            ):
                j += 2
                while j < n and line[j].isdigit():
                    j += 1
            elif j < n and line[j] == "/" and j + 1 < n and line[j + 1].isdigit():
                j += 2
                while j < n and line[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", line[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (line[j].isalnum() or line[j] in "_'"):
                j += 1
            tokens.append(_Token("IDENT", line[i:j], col))
            i = j
            continue
        if ch == "+":
            tokens.append(_Token("PLUS", "+", col))
            i += 1
            continue
        if ch == "-" and line[i : i + 2] == "->":
            tokens.append(_Token("ARROW", "->", col))
            i += 2
            continue
        if ch == "<" and line[i : i + 3] == "<->":
            tokens.append(_Token("ARROW", "<->", col))
            i += 3
            continue
        if ch == ";":
            tokens.append(_Token("SEMI", ";", col))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("COMMA", ",", col))
            i += 1
            continue
        if ch == "=":
            tokens.append(_Token("EQUALS", "=", col))
            i += 1
            continue
        raise ParseError(lineno, col, f"unexpected character {ch!r}")
    tokens.append(_Token("END", "", len(line) + 1))
    return tokens


class _LineParser:
    """Recursive-descent parser over one line's token list."""

    def __init__(self, tokens: List[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def error(self, message: str, kind: str = KIND_SYNTAX) -> ParseError:
        return ParseError(self.lineno, self.peek().column, message, kind)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what}")
        return self.advance()

    def parse_coefficient(self, token: _Token) -> Fraction:
        try:
            value = Fraction(token.text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                self.lineno,
                token.column,
                f"cannot read coefficient {token.text!r}",
                KIND_BAD_COEFFICIENT,
            )
        if value <= 0:
            raise ParseError(
                self.lineno,
                token.column,
                "coefficients must be strictly positive",
                KIND_BAD_COEFFICIENT,
            )
        return value

    def parse_complex(self, resolve) -> Complex:
        tok = self.peek()
        if tok.kind == "NUMBER" and tok.text == "0":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind in ("ARROW", "SEMI", "END"):
                self.advance()
                return Complex(())
        terms: Dict[int, Fraction] = {}
        while True:
            tok = self.peek()
            coeff = Fraction(1)
            if tok.kind == "NUMBER":
                self.advance()
                coeff = self.parse_coefficient(tok)
                tok = self.peek()
            if tok.kind != "IDENT":
                raise self.error("expected a species name")
            self.advance()
            index = resolve(tok)
            terms[index] = terms.get(index, Fraction(0)) + coeff
            if self.peek().kind == "PLUS":
                self.advance()
                continue
            break
        return Complex.from_dict(terms)

    def parse_rates(self, reversible: bool) -> Dict[str, float]:
        pairs: Dict[str, float] = {}
        while True:
            key_tok = self.expect("IDENT", "a rate keyword (k, kf, or kr)")
            if key_tok.text not in ("k", "kf", "kr"):
                raise ParseError(
                    self.lineno, key_tok.column, f"unknown rate keyword {key_tok.text!r}"
                )
            self.expect("EQUALS", "'='")
            num_tok = self.expect("NUMBER", "a rate value")
            try:
                value = float(Fraction(num_tok.text))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise ParseError(
                    self.lineno,
                    num_tok.column,
                    f"cannot read rate value {num_tok.text!r}",
                    KIND_BAD_COEFFICIENT,
                )
            if not value > 0:
                raise ParseError(
                    self.lineno,
                    num_tok.column,
                    "rate constants must be strictly positive",
                    KIND_BAD_COEFFICIENT,
                )
            if key_tok.text in pairs:
                raise ParseError(
                    self.lineno,
                    key_tok.column,
                    f"rate {key_tok.text!r} given twice",
                    KIND_DUPLICATE_RATE,
                )
            pairs[key_tok.text] = value
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        expected = {"kf", "kr"} if reversible else {"k"}
        if set(pairs) != expected:
            want = " and ".join(sorted(expected))
            raise self.error(f"this reaction takes rates {want}")
        return pairs


def parse_network(text: str, allow_catalysts: bool = False) -> Network:
    """Parse the text format into a Network.

    Raises:
        ParseError: positioned at the first violation.
    """
    species_order: List[str] = []
    species_index: Dict[str, int] = {}
    reactions: List[Reaction] = []
    pairs: List[Tuple[int, int]] = []
    first_directive_line: Optional[int] = None
    reaction_lines: List[int] = []

    def resolve_factory(lineno: int):
        def resolve(tok: _Token) -> int:
            name = tok.text
            if name not in species_index:
                species_index[name] = len(species_order)
                species_order.append(name)
            return species_index[name]

        return resolve

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if tokens[0].kind == "END":
            continue
        parser = _LineParser(tokens, lineno)
        first = parser.peek()
        if (
            first.kind == "IDENT"
            and first.text == "species"
            and parser.tokens[1].kind == "IDENT"
        ):
            parser.advance()
            if first_directive_line is None:
                first_directive_line = lineno
            while True:
                name_tok = parser.expect("IDENT", "a species name")
                if name_tok.text in species_index:
                    raise ParseError(
                        lineno, name_tok.column, f"species {name_tok.text!r} declared twice"
                    )
                species_index[name_tok.text] = len(species_order)
                species_order.append(name_tok.text)
                if parser.peek().kind == "COMMA":
                    parser.advance()
                    continue
                break
            if parser.peek().kind != "END":
                raise parser.error("unexpected trailing input after species list")
            continue

        resolve = resolve_factory(lineno)
        reactant = parser.parse_complex(resolve)
        arrow = parser.expect("ARROW", "'->' or '<->'")
        product = parser.parse_complex(resolve)
        if reactant.is_empty and product.is_empty:
            raise ParseError(
                lineno,
                1,
                "both sides of the reaction are the zero complex",
                KIND_EMPTY_SIDE_BOTH,
            )
        rates: Dict[str, float] = {}
        if parser.peek().kind == "SEMI":
            parser.advance()
            rates = parser.parse_rates(reversible=arrow.text == "<->")
        if parser.peek().kind != "END":
            raise parser.error("unexpected trailing input")
        if reactant == product:
            raise ParseError(lineno, 1, "reactant and product complexes are identical")
        if arrow.text == "->":
            reactions.append(Reaction(reactant, product, rates.get("k")))
            reaction_lines.append(lineno)
        else:
            fwd = len(reactions)
            reactions.append(Reaction(reactant, product, rates.get("kf")))
            reactions.append(Reaction(product, reactant, rates.get("kr")))
            reaction_lines.extend((lineno, lineno))
            pairs.append((fwd, fwd + 1))

    if not reactions:
        raise ParseError(1, 1, "no reactions in input")

    species = tuple(Species(name, i) for i, name in enumerate(species_order))
    try:
        return Network(
            species,
            tuple(reactions),
            tuple(pairs),
            allow_catalysts=allow_catalysts,
        )
    except ValueError as exc:
        message = str(exc)
        lineno = first_directive_line or 1
        if "both sides" in message and reaction_lines:
            # Point at the offending reaction line rather than the file head.
            for j, r in enumerate(reactions):
                if r.shared_species():
                    lineno = reaction_lines[j]
                    break
        raise ParseError(lineno, 1, message) from exc


def _format_coefficient(coeff: Fraction) -> str:
    return "" if coeff == 1 else str(coeff)


def _format_complex(cpx: Complex, net: Network) -> str:
    if cpx.is_empty:
        return "0"
    parts = []
    for index, coeff in cpx.terms:
        parts.append(f"{_format_coefficient(coeff)}{net.species[index].name}")
    return " + ".join(parts)


def serialize_network(net: Network) -> str:
    """Render a network in the text format.

    A ``species`` directive is always emitted so that the species order
    survives a round trip.  Reversible pairs stored at adjacent indices
    (forward, forward+1) are written with ``<->``; any other pairing is
    written as two irreversible lines.  ``parse(serialize(net))`` is
    structurally equal to ``net`` for every network produced by
    ``parse_network``.
    """
    lines = ["species " + ", ".join(s.name for s in net.species), ""]
    adjacent = {fwd: rev for fwd, rev in net.reversible_pairs if rev == fwd + 1}
    skip = set()
    for j, reaction in enumerate(net.reactions):
        if j in skip:
            continue
        lhs = _format_complex(reaction.reactant, net)
        rhs = _format_complex(reaction.product, net)
        if j in adjacent:
            rev = net.reactions[adjacent[j]]
            if (reaction.rate is None) == (rev.rate is None):
                suffix = ""
                if reaction.rate is not None:
                    suffix = f" ; kf={reaction.rate!r}, kr={rev.rate!r}"
                lines.append(f"{lhs} <-> {rhs}{suffix}")
                skip.add(adjacent[j])
                continue
        suffix = "" if reaction.rate is None else f" ; k={reaction.rate!r}"
        lines.append(f"{lhs} -> {rhs}{suffix}")
    return "\n".join(lines) + "\n"


def network_to_json(net: Network) -> dict:
    """A JSON-ready summary of a network (insertion-ordered, no floats
    beyond the rate constants)."""
    return {
        "species": [s.name for s in net.species],
        "d": net.species_count,
        "dprime": net.reaction_count,
        "reactions": [
            {
                "text": net.format_reaction(j),
                "rate": net.reactions[j].rate,
            }
            for j in range(net.reaction_count)
        ],
        "reversible_pairs": [list(p) for p in net.reversible_pairs],
    }


def vector_to_exact_json(vector: Sequence[Fraction]) -> List[str]:
    return [str(v) for v in vector]


def dump_report(report: dict) -> str:
    """Serialize a report dict deterministically (insertion order kept)."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
