"""Brzozowski derivatives.

``derive(e, a)`` rewrites ``e`` into the unique expression whose
language is { w : a w in L(e) }.  The step is total and deterministic:
mismatching symbols produce ``0`` rather than getting stuck, and the
concatenation rule embeds the nullability flag of the left factor as a
literal ``eps`` or ``0`` constant.  No simplification is performed, so
iterated derivatives can grow without bound; the partial-derivative
engine is the space-friendly alternative.

A raw derivative keeps the untouched subtrees of its input, so the next
step meets them again.  :func:`deriver` returns one walk that derives
each node by each symbol once and builds its nodes through its own
:func:`.syntax.builder`, sharing both results by identity.  Its
trees are structurally equal to the unshared ones, with the same size
and height: the form stays raw.  :func:`derive_word` runs one walk per
word, and ``derive`` one walk per step.

Membership reads only the nullability of the last derivative, so
:func:`acceptor` returns a function that folds one live walk over each
word it is given, and :func:`accepts` is a fresh one's call.  The live
walk builds each node directly through :func:`_absorbing`, which
applies the ``0`` and ``eps`` identities, and keeps no builder table; it
derives a subterm whose ``first`` mask lacks the symbol's bit straight
to ``0`` without visiting its children (its raw derivative has the empty
language too).  Both rules are congruent on languages, so each live
derivative is language-equal to the raw one; on a sequence spec a step
returns the spec's own suffix.  These are the module's two walks: the
raw one is the reference, the live one decides membership, and the
checker runs both.  No public function returns a live derivative.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .syntax import (
    EMPTY,
    EPS,
    Cat,
    Empty,
    Eps,
    Or,
    Regex,
    Shuffle,
    Star,
    Sym,
    Symbol,
    builder,
    symbol_bit,
)


def deriver() -> Callable[[Regex, Symbol], Regex]:
    """A fresh walk: a function equal to :func:`derive` that keeps, while its
    caller holds it, every derivative it computed and every node it built.
    Each memo entry holds the node whose ``id`` keys it, so no key can
    outlive its node and come back for another."""
    return _walk(live=False)


def _walk(live: bool) -> Callable[[Regex, Symbol], Regex]:
    """:func:`deriver`'s walk; a ``live`` one builds through :func:`_absorbing`
    with no table, and derives a node whose ``first`` mask lacks the
    symbol's bit to ``0`` without visiting its children.  Its results are
    only language-equal to the raw ones: no public function may return them."""
    # symbol -> (memo: id(node) -> (node, derivative), the symbol's bit if live else 0)
    memos: dict[Symbol, tuple[dict[int, tuple[Regex, Regex]], int]] = {}
    make = _absorbing if live else builder()

    def derive(e: Regex, symbol: Symbol) -> Regex:
        entry = memos.get(symbol)
        if entry is None:
            entry = memos[symbol] = ({}, symbol_bit(symbol) if live else 0)
        memo, bit = entry
        stack = [e]  # a node stays on the stack until its children are derived
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            kind = type(node)
            if live and not node.first & bit:
                out = EMPTY
            elif kind is Cat or kind is Or or kind is Shuffle:
                left, right = memo.get(id(node.left)), memo.get(id(node.right))
                if left is None or right is None:
                    stack += (node.right, node.left)
                    continue
                dl, dr = left[1], right[1]
                if kind is Cat:
                    flag = EPS if node.left.nullable else EMPTY
                    out = make(Or, make(Cat, dl, node.right), make(Cat, flag, dr))
                elif kind is Or:
                    out = make(Or, dl, dr)
                else:
                    out = make(Or, make(Shuffle, dl, node.right), make(Shuffle, node.left, dr))
            elif kind is Star:
                body = memo.get(id(node.body))
                if body is None:
                    stack.append(node.body)
                    continue
                out = make(Cat, body[1], node)
            elif kind is Sym:
                out = EPS if node.name == symbol else EMPTY
            elif kind is Empty or kind is Eps:
                out = EMPTY
            else:
                raise TypeError(f"not a Regex: {node!r}")
            stack.pop()
            memo[id(node)] = (node, out)
        return memo[id(e)][1]

    return derive


def _absorbing(kind: type, left: Regex, right: Regex) -> Regex:
    """``kind(left, right)`` behind the identities ``0 + e = e + 0 = e``,
    ``0 e = e 0 = 0 || e = e || 0 = 0`` and ``eps e = e``: it builds a node
    only where none applies, and returns a language-equal one."""
    if type(left) is Empty:
        return right if kind is Or else EMPTY
    if type(right) is Empty:
        return left if kind is Or else EMPTY
    if kind is Cat and type(left) is Eps:
        return right
    return kind(left, right)


def derive(e: Regex, symbol: Symbol) -> Regex:
    """One-step derivative of ``e`` by ``symbol``."""
    return deriver()(e, symbol)


def derive_word(e: Regex, word: Sequence[Symbol]) -> Regex:
    """Left fold of :func:`derive` over ``word`` in one walk; the empty word
    is identity."""
    step = deriver()
    for symbol in word:
        e = step(e, symbol)
    return e


def acceptor() -> Callable[[Regex, Sequence[Symbol]], bool]:
    """A fresh :func:`accepts`, the live counterpart of :func:`deriver`: every
    call folds the one live walk it keeps, so calls on shared subterms
    derive each of them by each symbol once.  It returns only bools."""
    step = _walk(live=True)

    def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
        for symbol in word:
            e = step(e, symbol)
        return e.nullable

    return accepts


def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
    """Whether ``word`` is in the language of ``e``: the nullability of the
    live derivative by ``word``, language-equal to the raw one."""
    return acceptor()(e, word)
