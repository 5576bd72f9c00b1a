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
:func:`acceptor` returns a function that folds :func:`_live_step` over
each word it is given, with one memo per symbol, and :func:`accepts` is
a fresh one's call.  The live step builds each node directly through
:func:`_absorbing`, which applies the ``0`` and ``eps`` identities, and
keeps no builder table.  It derives only what the answer can read: a
child whose ``first`` mask lacks the symbol's bit is ``0`` (its raw
derivative has the empty language too), and a symbol ``eps`` or ``0``
by its name, at once and with no memo entry; the right factor of a
concatenation whose left factor is not nullable is not derived, its
term being ``0``.  Both rules are congruent on languages, so each live
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
    # symbol -> memo: id(node) -> (node, derivative)
    memos: dict[Symbol, dict[int, tuple[Regex, Regex]]] = {}
    make = builder()

    def derive(e: Regex, symbol: Symbol) -> Regex:
        memo = memos.get(symbol)
        if memo is None:
            memo = memos[symbol] = {}
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


def _live_step(e: Regex, symbol: Symbol, memo: dict[int, tuple[Regex, Regex]]) -> Regex:
    """The live derivative of ``e`` by ``symbol``, built through :func:`_absorbing`
    and deriving no child whose term the answer cannot read (see the module
    docstring).
    ``memo`` maps the ``id`` of each composite live node it derived by
    ``symbol`` to ``(node, derivative)``.  Its results are only
    language-equal to the raw ones: no public function may return them."""
    bit = symbol_bit(symbol)
    if not e.first & bit:  # 0, eps and every dead subterm
        return EMPTY
    if type(e) is Sym:
        return EPS if e.name == symbol else EMPTY
    found = memo.get(id(e))
    if found is not None:
        return found[1]
    # Composite live nodes not yet in memo; each waits for the one above it,
    # so no node is pushed twice.
    stack = [e]
    while stack:
        node = stack[-1]
        kind = type(node)
        left = node.body if kind is Star else node.left
        if left.first & bit:  # a star's body always has its bit
            if type(left) is Sym:
                dl = EPS if left.name == symbol else EMPTY
            else:
                found = memo.get(id(left))
                if found is None:
                    stack.append(left)
                    continue
                dl = found[1]
        else:
            dl = EMPTY
        if kind is Star:
            out = _absorbing(Cat, dl, node)
        else:
            right = node.right
            if right.first & bit and (kind is not Cat or left.nullable):
                if type(right) is Sym:
                    dr = EPS if right.name == symbol else EMPTY
                else:
                    found = memo.get(id(right))
                    if found is None:
                        stack.append(right)
                        continue
                    dr = found[1]
            else:
                dr = EMPTY
            if kind is Cat:  # the raw eps d(r) is d(r); dr stayed 0 where the flag is 0
                out = _absorbing(Or, _absorbing(Cat, dl, right), dr)
            elif kind is Or:
                out = _absorbing(Or, dl, dr)
            else:
                out = _absorbing(Or, _absorbing(Shuffle, dl, right), _absorbing(Shuffle, left, dr))
        stack.pop()
        memo[id(node)] = (node, out)
    return out


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
    call folds :func:`_live_step` through one memo per symbol that the
    acceptor keeps, so calls on shared subterms derive each of them by each
    symbol once.  It returns only bools."""
    memos: dict[Symbol, dict[int, tuple[Regex, Regex]]] = {}  # symbol -> _live_step's memo

    def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
        for symbol in word:
            memo = memos.get(symbol)
            if memo is None:
                memo = memos[symbol] = {}
            e = _live_step(e, symbol, memo)
        return e.nullable

    return accepts


def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
    """Whether ``word`` is in the language of ``e``: the nullability of the
    live derivative by ``word``, language-equal to the raw one."""
    return acceptor()(e, word)
