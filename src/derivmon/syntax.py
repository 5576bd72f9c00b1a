"""Abstract and concrete syntax for regular expressions with shuffle.

The expression language has seven constructors::

    e ::= 0 | eps | a | e e | e + e | e* | e || e

where ``a`` ranges over identifier-like event symbols.  ``||`` is the
shuffle (interleaving) operator.  Operator precedence, tightest first:
star, juxtaposition (concatenation), ``+`` (union), ``||`` (shuffle);
the binary operators associate to the left.

Expression trees are immutable and compared structurally.  No
simplification is ever applied by this package: derivatives are kept in
raw syntactic form because the space bounds measured elsewhere are
claims about exactly that raw form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

Symbol = str
Word = tuple[Symbol, ...]

_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    """Raised on malformed concrete syntax; messages carry line:column."""


@dataclass(frozen=True)
class Regex:
    """Base class of expression nodes; equality and hashing are structural."""

    def __str__(self) -> str:
        return format_regex(self)


@dataclass(frozen=True)
class Empty(Regex):
    """The empty language: 0."""


@dataclass(frozen=True)
class Eps(Regex):
    """The language containing only the empty word: eps."""


@dataclass(frozen=True)
class Sym(Regex):
    """A single event symbol."""

    name: Symbol

    def __post_init__(self) -> None:
        if not _SYMBOL_RE.match(self.name):
            raise ValueError(f"invalid symbol name: {self.name!r}")


@dataclass(frozen=True)
class Cat(Regex):
    """Concatenation: e0 e1."""

    left: Regex
    right: Regex


@dataclass(frozen=True)
class Or(Regex):
    """Union: e0 + e1."""

    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    """Kleene star: e*."""

    body: Regex


@dataclass(frozen=True)
class Shuffle(Regex):
    """Shuffle: all order-preserving interleavings of e0 and e1."""

    left: Regex
    right: Regex


class EpsFlag(Enum):
    """Two-valued nullability flag: does a language contain the empty word?

    EPS acts as true and ZERO as false under ``&`` and ``|``, and the two
    values map back to the constant expressions ``eps`` and ``0`` so that
    a flag can be embedded literally inside a derivative.
    """

    EPS = "eps"
    ZERO = "0"

    def __bool__(self) -> bool:
        return self is EpsFlag.EPS

    def __and__(self, other: "EpsFlag") -> "EpsFlag":
        return EpsFlag.EPS if (self and other) else EpsFlag.ZERO

    def __or__(self, other: "EpsFlag") -> "EpsFlag":
        return EpsFlag.EPS if (self or other) else EpsFlag.ZERO

    def as_regex(self) -> Regex:
        return Eps() if self else Empty()


def has_eps(e: Regex) -> EpsFlag:
    """EPS iff the empty word belongs to the language of ``e``."""
    match e:
        case Empty() | Sym():
            return EpsFlag.ZERO
        case Eps() | Star():
            return EpsFlag.EPS
        case Cat(left, right) | Shuffle(left, right):
            return has_eps(left) & has_eps(right)
        case Or(left, right):
            return has_eps(left) | has_eps(right)
    raise TypeError(f"not a Regex: {e!r}")


def height(e: Regex) -> int:
    """Tree height; constants and symbols sit at height 0."""
    match e:
        case Empty() | Eps() | Sym():
            return 0
        case Cat(left, right) | Or(left, right) | Shuffle(left, right):
            return max(height(left), height(right)) + 1
        case Star(body):
            return height(body) + 1
    raise TypeError(f"not a Regex: {e!r}")


def size(e: Regex) -> int:
    """Number of nodes of the expression tree."""
    match e:
        case Empty() | Eps() | Sym():
            return 1
        case Cat(left, right) | Or(left, right) | Shuffle(left, right):
            return size(left) + size(right) + 1
        case Star(body):
            return size(body) + 1
    raise TypeError(f"not a Regex: {e!r}")


def children(e: Regex) -> tuple[Regex, ...]:
    """The direct subexpressions of ``e``, left to right."""
    match e:
        case Cat(left, right) | Or(left, right) | Shuffle(left, right):
            return (left, right)
        case Star(body):
            return (body,)
    return ()


def alphabet(e: Regex) -> frozenset[Symbol]:
    """The set of symbol names occurring in ``e``."""
    return frozenset(node.name for node in subterms(e) if isinstance(node, Sym))


def subterms(e: Regex) -> Iterator[Regex]:
    """Yield ``e`` and all of its subexpressions, parents first, left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# Rendering levels, loosest binding first.  A node is parenthesized when
# it appears in a position requiring a tighter level than its own.
_SHUFFLE, _OR, _CAT, _STAR, _ATOM = range(5)


def format_regex(e: Regex) -> str:
    """Render ``e`` with minimal parentheses; inverse of :func:`parse`.

    The star of anything but a constant or a symbol is parenthesized, so
    nested stars read ``((a*)*)*``.
    """
    return _format(e, _SHUFFLE)


def _format(e: Regex, level: int) -> str:
    match e:
        case Empty():
            return "0"
        case Eps():
            return "eps"
        case Sym(name):
            return name
        case Star(body):
            text = _format(body, _ATOM) + "*"
            return f"({text})" if level > _STAR else text
        case Cat(left, right):
            text = f"{_format(left, _CAT)} {_format(right, _STAR)}"
            return f"({text})" if level > _CAT else text
        case Or(left, right):
            text = f"{_format(left, _OR)} + {_format(right, _CAT)}"
            return f"({text})" if level > _OR else text
        case Shuffle(left, right):
            text = f"{_format(left, _SHUFFLE)} || {_format(right, _OR)}"
            return f"({text})" if level > _SHUFFLE else text
    raise TypeError(f"not a Regex: {e!r}")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident zero eps star plus shuffle lparen rparen end
    text: str
    line: int
    col: int


_ONE_CHAR_KINDS = {"(": "lparen", ")": "rparen", "*": "star", "+": "plus", "0": "zero"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if c in _ONE_CHAR_KINDS:
            tokens.append(_Token(_ONE_CHAR_KINDS[c], c, line, start_col))
            i, col = i + 1, col + 1
        elif c == "|":
            if text[i : i + 2] != "||":
                raise ParseError(f"{line}:{start_col}: expected '||'")
            tokens.append(_Token("shuffle", "||", line, start_col))
            i, col = i + 2, col + 2
        elif c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "eps" if word == "eps" else "ident"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
        else:
            raise ParseError(f"{line}:{start_col}: unexpected character {c!r}")
    tokens.append(_Token("end", "", line, col))
    return tokens


_ATOM_STARTERS = frozenset({"ident", "zero", "eps", "lparen"})


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _fail(self, token: _Token, expected: str) -> ParseError:
        found = repr(token.text) if token.kind != "end" else "end of input"
        return ParseError(f"{token.line}:{token.col}: expected {expected}, found {found}")

    def expression(self) -> Regex:
        e = self._union()
        while self._peek().kind == "shuffle":
            self._next()
            e = Shuffle(e, self._union())
        return e

    def _union(self) -> Regex:
        e = self._concat()
        while self._peek().kind == "plus":
            self._next()
            e = Or(e, self._concat())
        return e

    def _concat(self) -> Regex:
        e = self._postfix()
        while self._peek().kind in _ATOM_STARTERS:
            e = Cat(e, self._postfix())
        return e

    def _postfix(self) -> Regex:
        e = self._atom()
        while self._peek().kind == "star":
            self._next()
            e = Star(e)
        return e

    def _atom(self) -> Regex:
        token = self._next()
        match token.kind:
            case "zero":
                return Empty()
            case "eps":
                return Eps()
            case "ident":
                return Sym(token.text)
            case "lparen":
                e = self.expression()
                closing = self._next()
                if closing.kind != "rparen":
                    raise self._fail(closing, "')'")
                return e
        raise self._fail(token, "an expression")


def parse(text: str) -> Regex:
    """Parse concrete syntax into an expression tree.

    Raises :class:`ParseError` on empty input or at the first offending
    token, with its line and column in the message.
    """
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("1:1: empty input")
    parser = _Parser(tokens)
    e = parser.expression()
    trailing = parser._peek()
    if trailing.kind != "end":
        raise ParseError(f"{trailing.line}:{trailing.col}: unexpected {trailing.text!r}")
    return e


def parse_word(text: str) -> Word:
    """Split whitespace-separated event symbols into a word; '' is the empty word."""
    events = tuple(text.split())
    for event in events:
        if not _SYMBOL_RE.match(event):
            raise ValueError(f"invalid event symbol: {event!r}")
    return events
