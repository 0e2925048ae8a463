r"""Plain-text reaction-network format: parser, serializer, JSON helpers,
and ``dump_report``, the report writer.

Grammar (authoritative).  A line is scanned into tokens, each one match
of ``_TOKEN_RE``, with blanks (space and tab) between them::

    NUMBER | IDENT | '+' | '->' | '<->' | ';' | ',' | '='
    NUMBER := [0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+|/[0-9]+)?
    IDENT  := [A-Za-z_][A-Za-z0-9_']*        (``model.SPECIES_NAME_RE``)

``#`` ends the line.  Any other character, a non-ASCII letter or digit
included, is an "unexpected character" error at its own column.  The
tokens of a line then form::

    line      := reaction | directive | blank
    directive := 'species' IDENT (',' IDENT)*
    reaction  := complex arrow complex [';' rates]
    complex   := '0' | term ('+' term)*
    term      := [NUMBER] IDENT
    arrow     := '->' | '<->'
    rates     := 'k' '=' NUMBER                        (for '->')
               | 'kf' '=' NUMBER ',' 'kr' '=' NUMBER   (for '<->', either order)

Coefficients are exact values in ``model``'s canonical form (a plain
``int`` when integral, else a ``Fraction``) and rates are
``float(Fraction(text))``; both must be strictly positive.  A NUMBER
with more digits than Python's int-to-str limit (4,300 by default),
counting its significant digits plus its decimal exponent, is a
``bad-coefficient`` error, since no report could print it.

Whitespace between tokens is insignificant (``2B`` and ``2 B`` are both
accepted).  A ``species`` directive pins the species (row) order
explicitly; species not covered by a directive are ordered by first
appearance in the file.  ``<->`` expands to two irreversible reactions,
forward first.

A plain digit run is read as ``int(text)``, without ``Fraction``'s
regex; any other NUMBER by ``Fraction(text)``, and as the ``int`` of
its numerator when its value is integral (``4/2``, ``2.0``, ``1e2``).
A term without a coefficient is ``1``, a repeated species adds its
coefficients in the term dict, and the sorted terms go to ``Complex``
directly (which stores a sum such as 1/2 + 1/2 as the ``int`` 1).

``dump_report`` writes a report in one recursive pass into one list of
chunks, joined once: the bytes of ``json.dumps(report, indent=2) + "\n"``
(``json``'s own C quoting for strings, ``int.__repr__`` and
``float.__repr__`` for numbers).  A container writes its members of
exact type ``str``, ``int``, ``float``, ``bool`` or ``None`` inline and
recurses only into the others, and a list of only plain strings or only
plain ints is written in one join.  A non-finite float is a
``ValueError`` naming its ``/key/index`` path, found in the same pass.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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


class _Token(NamedTuple):
    kind: str  # IDENT NUMBER PLUS ARROW SEMI COMMA EQUALS END
    text: str
    column: int  # 1-based


# One token.  BAD takes any character but a blank, so ``finditer`` skips
# only the blanks between tokens; COMMENT ends the line.
_TOKEN_RE = re.compile(
    r"(?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+|/[0-9]+)?)"
    rf"|(?P<IDENT>{SPECIES_NAME_RE.pattern})"
    r"|(?P<PLUS>\+)|(?P<ARROW><?->)|(?P<SEMI>;)|(?P<COMMA>,)|(?P<EQUALS>=)"
    r"|(?P<COMMENT>#)|(?P<BAD>[^ \t])"
)

# Python's default int-to-str limit; it bounds a number's digits where the
# limit is switched off (0) or missing (Python before 3.10.7) too.
_DEFAULT_MAX_DIGITS = 4300


def _tokenize(line: str, lineno: int) -> List[_Token]:
    tokens: List[_Token] = []
    for match in _TOKEN_RE.finditer(line):
        kind = match.lastgroup
        if kind == "COMMENT":
            break
        if kind == "BAD":
            raise ParseError(lineno, match.start() + 1, f"unexpected character {match[0]!r}")
        tokens.append(_Token(kind, match[0], match.start() + 1))
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

    def parse_number(self, token: _Token, rate: bool = False) -> Union[int, Fraction, float]:
        """The strictly positive value of a NUMBER token: a coefficient as
        an exact ``int`` when integral, else a ``Fraction``; a rate as
        ``float(Fraction(text))``.

        A number with an exponent is refused before ``Fraction`` expands
        it when its significant digits plus its decimal shift exceed
        Python's int-to-str limit: no report could print it.  A long
        literal without one is refused by ``Fraction``'s own ``int``.
        """
        text = token.text
        try:
            if text.isdigit():  # a plain integer, read without Fraction's regex
                value = int(text)
            else:
                head, _, exponent = text.lower().partition("e")
                if exponent:
                    whole, _, fraction = head.partition(".")
                    digits = len((whole + fraction).lstrip("0")) + abs(int(exponent) - len(fraction))
                    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_MAX_DIGITS
                    if digits > limit:
                        raise ValueError(f"{digits} digits")
                value = Fraction(text)
                if value.denominator == 1:
                    value = value.numerator
            if rate:
                value = float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ParseError(
                self.lineno,
                token.column,
                f"cannot read {'rate value' if rate else 'coefficient'} {text!r}",
                KIND_BAD_COEFFICIENT,
            )
        if not value:  # a NUMBER has no sign, so only zero is not positive
            raise ParseError(
                self.lineno,
                token.column,
                f"{'rate constants' if rate else 'coefficients'} must be strictly positive",
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
        terms: Dict[int, Union[int, Fraction]] = {}
        while True:
            tok = self.peek()
            coeff = 1
            if tok.kind == "NUMBER":
                self.advance()
                coeff = self.parse_number(tok)
                tok = self.peek()
            if tok.kind != "IDENT":
                raise self.error("expected a species name")
            self.advance()
            index = resolve(tok)
            if index in terms:  # a repeated species: its coefficients add up
                coeff += terms[index]
            terms[index] = coeff
            if self.peek().kind == "PLUS":
                self.advance()
                continue
            break
        return Complex(tuple(sorted(terms.items())))

    def parse_rates(self, reversible: bool) -> Dict[str, float]:
        pairs: Dict[str, float] = {}
        while True:
            key_tok = self.expect("IDENT", "a rate keyword (k, kf, or kr)")
            if key_tok.text not in ("k", "kf", "kr"):
                raise ParseError(
                    self.lineno, key_tok.column, f"unknown rate keyword {key_tok.text!r}"
                )
            self.expect("EQUALS", "'='")
            value = self.parse_number(self.expect("NUMBER", "a rate value"), rate=True)
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

    def resolve(tok: _Token) -> int:
        name = tok.text
        if name not in species_index:
            species_index[name] = len(species_order)
            species_order.append(name)
        return species_index[name]

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


def serialize_network(net: Network) -> str:
    """Render a network in the text format.

    A ``species`` directive is always emitted so that the species order
    survives a round trip.  Reversible pairs stored at adjacent indices
    (forward, forward+1) are written with ``<->``; any other pairing is
    written as two irreversible lines.  ``parse(serialize(net))`` is
    structurally equal to ``net`` for every network produced by
    ``parse_network``.
    """
    return _serialized(net, _sides(net))


def network_to_json(net: Network) -> dict:
    """A JSON-ready summary of a network (insertion-ordered, no floats
    beyond the rate constants)."""
    return _network_json(net, _sides(net))


def network_json_and_text(net: Network) -> Tuple[dict, str]:
    """``network_to_json(net)`` and ``serialize_network(net)``, formatting
    each complex once for both."""
    sides = _sides(net)
    return _network_json(net, sides), _serialized(net, sides)


def _sides(net: Network) -> List[Tuple[str, str]]:
    """Each reaction's reactant and product as ``Complex.format`` writes
    them, e.g. ``("3B+C", "0")``."""
    return [(r.reactant.format(net.species), r.product.format(net.species)) for r in net.reactions]


def _serialized(net: Network, sides: List[Tuple[str, str]]) -> str:
    lines = ["species " + ", ".join(s.name for s in net.species), ""]
    adjacent = {fwd: rev for fwd, rev in net.reversible_pairs if rev == fwd + 1}
    skip = set()
    for j, reaction in enumerate(net.reactions):
        if j in skip:
            continue
        # A species name or coefficient holds no "+" (``SPECIES_NAME_RE``,
        # positive rationals), so every "+" is a separator between terms.
        lhs, rhs = (side.replace("+", " + ") for side in sides[j])
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


def _network_json(net: Network, sides: List[Tuple[str, str]]) -> dict:
    return {
        "species": [s.name for s in net.species],
        "d": net.species_count,
        "dprime": net.reaction_count,
        "reactions": [
            {"text": f"{lhs} -> {rhs}", "rate": reaction.rate}
            for reaction, (lhs, rhs) in zip(net.reactions, sides)
        ],
        "reversible_pairs": [list(p) for p in net.reversible_pairs],
    }


def vector_to_exact_json(vector: Sequence[Union[int, Fraction]]) -> List[str]:
    return [str(v) for v in vector]


class _NonFinite(Exception):
    """A non-finite float met by ``_write``; ``keys`` is its path, innermost first."""

    def __init__(self):
        super().__init__()
        self.keys: List[object] = []


def _finite_repr(value: float) -> str:
    if not math.isfinite(value):
        raise _NonFinite()
    return float.__repr__(value)


# The writers of a container's scalar members, by exact type; a member of
# any other type (a container, a subclass) goes through ``_write``.
_INLINE = {
    str: _quote,
    int: int.__repr__,
    float: _finite_repr,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write(value, newline: str, out: List[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(indent=2)`` writes it;
    ``newline`` is a line break plus the indent of ``value``'s own line.

    A container writes its scalar members inline through ``_INLINE`` and
    recurses only into the others; a list of only plain strings or only
    plain ints is written in one join."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_finite_repr(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        first = type(value[0])
        if first is str:  # matrix rows and kernel vectors, in one join
            try:
                out += ("[", inner, comma.join(map(_quote, value)), newline, "]")
                return
            except TypeError:  # a member that is not a str
                pass
        elif first is int and set(map(type, value)) == {int}:  # index lists
            out += ("[", inner, comma.join(map(int.__repr__, value)), newline, "]")
            return
        separator = "[" + inner
        try:
            for index, item in enumerate(value):
                write = _INLINE.get(type(item))
                if write is None:
                    out.append(separator)
                    _write(item, inner, out)
                else:
                    out += (separator, write(item))
                separator = comma
        except _NonFinite as exc:
            exc.keys.append(index)
            raise
        out += (newline, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        try:
            for key, item in value.items():
                out += (separator, _quote(key), ": ")  # a key not a str: TypeError
                separator = "," + inner
                write = _INLINE.get(type(item))
                if write is None:
                    _write(item, inner, out)
                else:
                    out.append(write(item))
        except _NonFinite as exc:
            exc.keys.append(key)
            raise
        out += (newline, "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def dump_report(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2) + "\\n"`` writes it,
    byte for byte (insertion order kept, non-ASCII escaped).

    Raises:
        ValueError: at the first non-finite float in document order,
            naming its ``/key/index`` path.
        TypeError: for a key that is not a ``str`` or a value that JSON
            cannot hold.
    """
    out: List[str] = []
    try:
        _write(report, "\n", out)
    except _NonFinite as exc:
        path = "".join(f"/{key}" for key in reversed(exc.keys))
        raise ValueError(f"the report would hold a non-finite number at {path}") from None
    out.append("\n")
    return "".join(out)
