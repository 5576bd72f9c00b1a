"""Abstract and concrete syntax for regular expressions with shuffle.

The expression language has seven constructors::

    e ::= 0 | eps | a | e e | e + e | e* | e || e

where ``a`` ranges over identifier-like event symbols other than the
reserved ``eps``.  ``||`` is the shuffle (interleaving) operator.
Operator precedence, tightest first: star, juxtaposition
(concatenation), ``+`` (union), ``||`` (shuffle).  Concatenation
associates to the right, so a partial-derivative step of ``e0 e1 ... en``
keeps the untouched suffix and builds one node; ``+`` and ``||``
associate to the left.

Every node stores its nullability, size, height, structural hash and
first-symbol mask when it is built, so code reads ``.nullable``,
``.size`` and ``.height`` directly, hashing costs nothing per call, and
the partial-derivative step skips every subterm that cannot step by its
symbol.  :data:`EMPTY` and :data:`EPS` are the two shared leaves that
parsing and both derivatives build with, and :func:`builder` gives each
caller its own hash-consing constructor.  Nodes are immutable by
convention and compared structurally.  :func:`parse`, equality,
:func:`subterms` and :func:`format_regex` use explicit stacks, so they
work at any depth.  No derivative this package returns is simplified:
derivatives are kept in raw form, the form the space bounds are about.
"""

from __future__ import annotations

import functools
import re
import zlib
from typing import Callable

Symbol = str
Word = tuple[Symbol, ...]

_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    """Raised on malformed concrete syntax; messages carry line:column."""


class Regex:
    """Base class of expression nodes.

    Each constructor stores five facts about the tree it roots, computed
    once from the children's stored values: ``nullable`` (the language
    contains the empty word), ``size`` (number of tree nodes), ``height``
    (constants and symbols sit at 0), a structural hash, and ``first``, a
    64-bit mask of the :func:`symbol_bit` of every symbol leaf that a
    first step can consume.  ``first`` follows the structure, not the
    language (``a 0`` has ``a``'s bit), and two symbols may share a bit,
    but a symbol whose bit is clear has no partial derivative.  Nodes are
    immutable by convention: nothing assigns to a built node, and the
    stored facts would go stale if anything did.  Equality is structural.
    """

    __slots__ = ("nullable", "size", "height", "_hash", "first")

    nullable: bool
    size: int
    height: int
    first: int

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Walks both trees with an explicit stack, pruning shared subtrees;
        # a type, hash or size mismatch settles inequality at once.
        if self is other:
            return True
        if not isinstance(other, Regex):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b) or a._hash != b._hash or a.size != b.size:
                return False
            if kind is Sym:
                if a.name != b.name:
                    return False
            elif kind is Star:
                stack.append((a.body, b.body))
            elif kind is not Empty and kind is not Eps:
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
        return True

    def __repr__(self) -> str:
        return f"parse({format_regex(self)!r})"

    def __str__(self) -> str:
        return format_regex(self)


class Empty(Regex):
    """The empty language: 0."""

    __slots__ = ()

    def __init__(self) -> None:
        self.nullable = False
        self.size = 1
        self.height = 0
        self._hash = hash((0,))
        self.first = 0


class Eps(Regex):
    """The language containing only the empty word: eps."""

    __slots__ = ()

    def __init__(self) -> None:
        self.nullable = True
        self.size = 1
        self.height = 0
        self._hash = hash((1,))
        self.first = 0


class Sym(Regex):
    """A single event symbol."""

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: Symbol) -> None:
        if not _SYMBOL_RE.match(name) or name == "eps":
            raise ValueError(f"invalid symbol name: {name!r}")
        self.name = name
        self.nullable = False
        self.size = 1
        self.height = 0
        self._hash = hash((2, name))
        self.first = symbol_bit(name)


class Cat(Regex):
    """Concatenation: e0 e1."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left = left
        self.right = right
        self.nullable = left.nullable and right.nullable
        self.size = left.size + right.size + 1
        self.height = (left.height if left.height > right.height else right.height) + 1
        self._hash = hash((3, left._hash, right._hash))
        self.first = left.first | right.first if left.nullable else left.first


class Or(Regex):
    """Union: e0 + e1."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left = left
        self.right = right
        self.nullable = left.nullable or right.nullable
        self.size = left.size + right.size + 1
        self.height = (left.height if left.height > right.height else right.height) + 1
        self._hash = hash((4, left._hash, right._hash))
        self.first = left.first | right.first


class Star(Regex):
    """Kleene star: e*."""

    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __init__(self, body: Regex) -> None:
        self.body = body
        self.nullable = True
        self.size = body.size + 1
        self.height = body.height + 1
        self._hash = hash((5, body._hash))
        self.first = body.first


class Shuffle(Regex):
    """Shuffle: all order-preserving interleavings of e0 and e1."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left = left
        self.right = right
        self.nullable = left.nullable and right.nullable
        self.size = left.size + right.size + 1
        self.height = (left.height if left.height > right.height else right.height) + 1
        self._hash = hash((6, left._hash, right._hash))
        self.first = left.first | right.first


EMPTY = Empty()  # shared leaves: raw derivatives are mostly these two
EPS = Eps()


@functools.lru_cache(maxsize=1 << 12)
def symbol_bit(name: Symbol) -> int:
    """The one bit of ``name`` in ``first`` masks: a CRC-32 of the name, so
    it is the same in every process (``hash`` of a str is salted).  Any str
    has a bit, even one no expression can contain, such as a lone surrogate.
    The last 4096 names' bits are memoised: a step computes no CRC for them."""
    return 1 << (zlib.crc32(name.encode("utf-8", "surrogatepass")) & 63)


def builder() -> Callable[[type, Regex, Regex], Regex]:
    """A fresh ``make(kind, left, right)`` building one ``Cat``/``Or``/``Shuffle`` per
    kind and two child objects; each entry holds the children whose ids key it."""
    built: dict[tuple[type, int, int], Regex] = {}  # (kind, id(left), id(right)) -> node

    def make(kind: type, left: Regex, right: Regex) -> Regex:
        key = (kind, id(left), id(right))
        node = built.get(key)
        return built.setdefault(key, kind(left, right)) if node is None else node

    return make


def has_eps(e: Regex) -> bool:
    """Whether the empty word belongs to the language of ``e``."""
    return e.nullable


def height(e: Regex) -> int:
    """Tree height; constants and symbols sit at height 0."""
    return e.height


def size(e: Regex) -> int:
    """Number of nodes of the expression tree."""
    return e.size


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
    return frozenset(node.name for node in subterms(e) if type(node) is Sym)


def subterms(e: Regex) -> list[Regex]:
    """``e`` and all of its subexpressions, parents first, left to right.

    Folding over the reversed list visits every node after its subtrees,
    and the right subtree's result is pushed before the left one's, so a
    fold that keeps results on a stack finds the left side's on top.
    """
    order: list[Regex] = []
    stack = [e]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Star:
            stack.append(node.body)
        elif kind is Cat or kind is Or or kind is Shuffle:
            stack.append(node.right)
            stack.append(node.left)
    return order


# Rendering levels, loosest binding first.  A node is parenthesized when
# it appears in a position requiring a tighter level than its own.
_SHUFFLE, _OR, _CAT, _STAR, _ATOM = range(5)


# Binary operators: own level, left operand's level, separator, right
# operand's level.
_BINARY_LAYOUT = {
    Cat: (_CAT, _STAR, " ", _CAT),
    Or: (_OR, _OR, " + ", _CAT),
    Shuffle: (_SHUFFLE, _SHUFFLE, " || ", _OR),
}


def format_regex(e: Regex) -> str:
    """Render ``e`` with minimal parentheses; inverse of :func:`parse`.

    The star of anything but a constant or a symbol is parenthesized, so
    nested stars read ``((a*)*)*``.
    """
    parts: list[str] = []
    # Pending output, last item first: literal text or (node, level) pairs.
    todo: list[str | tuple[Regex, int]] = [(e, _SHUFFLE)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, level = item
        kind = type(node)
        if kind is Sym:
            parts.append(node.name)
        elif kind is Empty:
            parts.append("0")
        elif kind is Eps:
            parts.append("eps")
        elif kind is Star:
            if level > _STAR:
                parts.append("(")
                todo.append(")")
            todo.append("*")
            todo.append((node.body, _ATOM))
        elif kind in _BINARY_LAYOUT:
            own, left_level, separator, right_level = _BINARY_LAYOUT[kind]
            if level > own:
                parts.append("(")
                todo.append(")")
            todo.append((node.right, right_level))
            todo.append(separator)
            todo.append((node.left, left_level))
        else:
            raise TypeError(f"not a Regex: {node!r}")
    return "".join(parts)


# One token per match: an identifier, an operator or constant, a lone
# '|', or any other non-space character.  The search itself skips spaces.
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)|(\|\||[()*+0])|(\|)|(\S)")


def _position(text: str, offset: int) -> str:
    """The 1-based ``line:column`` of ``offset`` in ``text``."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return f"{line}:{column}"


def parse(text: str) -> Regex:
    """Parse concrete syntax into an expression tree.

    Raises :class:`ParseError` on empty input or at the first offending
    token, with its line and column in the message.  Parsing uses no
    recursion, so parentheses may nest to any depth.
    """
    tokens: list[tuple[str, int]] = []
    for scanned in _TOKEN_RE.finditer(text):
        if scanned.lastindex > 2:
            where = _position(text, scanned.start())
            if scanned.lastindex == 3:
                raise ParseError(f"{where}: expected '||'")
            raise ParseError(f"{where}: unexpected character {scanned.group()!r}")
        tokens.append((scanned.group(), scanned.start()))
    if not tokens:
        raise ParseError("1:1: empty input")
    tokens.append(("", len(text)))  # end of input
    # Operator precedence: pending binary operators sit on ``operators``
    # as their rendering level, open parentheses as -1.  A juxtaposition
    # reduces no pending juxtaposition, so concatenation nests right.
    binary = {_SHUFFLE: Shuffle, _OR: Or, _CAT: Cat}
    operands: list[Regex] = []
    operators: list[int] = []
    expect_operand = True
    for token, offset in tokens:
        if not expect_operand:
            if token == "*":
                operands[-1] = Star(operands[-1])
                continue
            if token == "+":
                level = _OR
            elif token == "||" or token == ")" or not token:
                level = _SHUFFLE
            else:  # juxtaposition: the token starts the next operand
                level = _CAT
            while operators and operators[-1] >= level + (level == _CAT):
                right = operands.pop()
                operands[-1] = binary[operators.pop()](operands[-1], right)
            if token == ")":
                if not operators:
                    raise ParseError(f"{_position(text, offset)}: unexpected ')'")
                operators.pop()
                continue
            if not token:
                if operators:
                    raise ParseError(
                        f"{_position(text, offset)}: expected ')', found end of input"
                    )
                break
            operators.append(level)
            if level != _CAT:
                expect_operand = True
                continue
        if token == "(":
            operators.append(-1)
        elif token == "0":
            operands.append(EMPTY)
        elif token == "eps":
            operands.append(EPS)
        elif token[:1].isalpha():
            operands.append(Sym(token))
        else:
            found = repr(token) if token else "end of input"
            raise ParseError(f"{_position(text, offset)}: expected an expression, found {found}")
        expect_operand = token == "("
    return operands[0]


def parse_word(text: str) -> Word:
    """Split whitespace-separated event symbols into a word; '' is the empty word."""
    events = tuple(text.split())
    for event in events:
        if not _SYMBOL_RE.match(event):
            raise ValueError(f"invalid event symbol: {event!r}")
    return events
