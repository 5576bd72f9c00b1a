"""Brzozowski derivatives.

``derive(e, a)`` rewrites ``e`` into the unique expression whose
language is { w : a w in L(e) }.  The step is total and deterministic:
mismatching symbols produce ``0`` rather than getting stuck, and the
concatenation rule embeds the nullability flag of the left factor as a
literal ``eps`` or ``0`` constant.  No simplification is performed, so
iterated derivatives can grow without bound; the partial-derivative
engine is the space-friendly alternative.
"""

from __future__ import annotations

from typing import Sequence

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
    subterms,
)


def derive(e: Regex, symbol: Symbol) -> Regex:
    """One-step derivative of ``e`` by ``symbol``."""
    results: list[Regex] = []
    for node in reversed(subterms(e)):
        kind = type(node)
        if kind is Cat:
            left, right = results.pop(), results.pop()
            flag = EPS if node.left.nullable else EMPTY
            out = Or(Cat(left, node.right), Cat(flag, right))
        elif kind is Or:
            left, right = results.pop(), results.pop()
            out = Or(left, right)
        elif kind is Sym:
            out = EPS if node.name == symbol else EMPTY
        elif kind is Star:
            out = Cat(results.pop(), node)
        elif kind is Shuffle:
            left, right = results.pop(), results.pop()
            out = Or(Shuffle(left, node.right), Shuffle(node.left, right))
        elif kind is Empty or kind is Eps:
            out = EMPTY
        else:
            raise TypeError(f"not a Regex: {node!r}")
        results.append(out)
    return results[0]


def derive_word(e: Regex, word: Sequence[Symbol]) -> Regex:
    """Left fold of :func:`derive` over ``word``; the empty word is identity."""
    for symbol in word:
        e = derive(e, symbol)
    return e


def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
    """Whether ``word`` is in the language of ``e``, by iterated derivation."""
    return derive_word(e, word).nullable
