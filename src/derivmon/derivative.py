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
)


def deriver() -> Callable[[Regex, Symbol], Regex]:
    """A fresh walk: a function equal to :func:`derive` that keeps, while its
    caller holds it, every derivative it computed and every node it built.
    Each memo entry holds the node whose ``id`` keys it, so no key can
    outlive its node and come back for another."""
    memos: dict[Symbol, dict[int, tuple[Regex, Regex]]] = {}  # id(node) -> (node, derivative)
    make = builder()

    def derive(e: Regex, symbol: Symbol) -> Regex:
        memo = memos.setdefault(symbol, {})
        stack = [e]  # a node stays on the stack until its children are derived
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            kind = type(node)
            if kind is Cat or kind is Or or kind is Shuffle:
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


def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
    """Whether ``word`` is in the language of ``e``, by iterated derivation."""
    return derive_word(e, word).nullable
