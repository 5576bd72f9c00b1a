"""Antimirov partial derivatives.

Where the Brzozowski derivative pads with ``0`` to stay total, the
partial-derivative step is a nondeterministic relation: it returns the
finite set of expressions reachable by consuming one symbol, and that
set may be empty.  Emptiness is the useful signal for online
monitoring: once no step is possible, no extension of the input can be
accepted.

Members are deduplicated by structural equality only; no smart
constructors, no reassociation.  The closure (every expression reachable
over all words) is finite, so it can be an NFA state space.  A step
builds its wrappers through ``make``, plain construction by default.
:func:`.automaton.build_nfa` passes one from :func:`.syntax.builder`,
so it finds equal states by identity; the monitor keeps the default, as
its frontiers on long specs never recur.

:func:`step_frontier` is the one walk.  It goes top down from every
member of a frontier at once, and each subterm it visits carries its
context: the wrappers between that subterm and its member.  A
concatenation's left factor is wrapped in ``Cat(., right)``, a star's
body in ``Cat(., star)``, and each side of a shuffle in the shuffle with
the other side; a union adds no wrapper.  A symbol that matches steps to
``eps``, and rebuilding ``eps`` outward through its context gives one
member of the result.  :func:`partial_derivatives` is that walk from a
single expression.

The step walks only the subterms whose stored ``first`` mask has the
symbol's bit.  That is exact: a subterm has a derivative by ``a``
exactly when a first step can consume one of its ``a`` leaves (``a`` is
in its structural first set), and its mask holds the bits of all such
symbols.  A bit shared with another symbol costs a walk that finds
nothing, never a member, so the result is the paper's raw relation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .syntax import (
    EPS,
    Cat,
    Or,
    Regex,
    Shuffle,
    Star,
    Symbol,
    symbol_bit,
)

DEFAULT_CLOSURE_CAP = 1_000_000


def partial_derivatives(e: Regex, symbol: Symbol, make: Callable = type.__call__) -> frozenset[Regex]:
    """The set of one-step partial derivatives of ``e`` by ``symbol``.

    ``0``, ``eps`` and mismatched symbols have no derivatives at all;
    a nullable left factor lets concatenation step into its right side.
    """
    return step_frontier((e,), symbol, make)


def step_frontier(
    frontier: Iterable[Regex], symbol: Symbol, make: Callable = type.__call__
) -> frozenset[Regex]:
    """Set-lifted single step: the union of members' partial derivatives."""
    bit = symbol_bit(symbol)
    out: set[Regex] = set()
    # A context is None at a member, else (wrapper, left, right, outer):
    # ``wrapper(left, right)`` with the stepped subterm in place of the
    # side that is None, inside the wrappers of ``outer``.
    stack: list[tuple[Regex, tuple | None]] = []
    for e in frontier:
        if e.first & bit:
            stack.append((e, None))
    while stack:
        node, context = stack.pop()
        kind = type(node)
        if kind is Cat:
            left, right = node.left, node.right
            if left.first & bit:
                stack.append((left, (Cat, None, right, context)))
            if left.nullable and right.first & bit:
                stack.append((right, context))
        elif kind is Or:
            if node.left.first & bit:
                stack.append((node.left, context))
            if node.right.first & bit:
                stack.append((node.right, context))
        elif kind is Star:
            stack.append((node.body, (Cat, None, node, context)))
        elif kind is Shuffle:
            left, right = node.left, node.right
            if left.first & bit:
                stack.append((left, (Shuffle, None, right, context)))
            if right.first & bit:
                stack.append((right, (Shuffle, left, None, context)))
        elif node.name == symbol:  # a Sym: 0 and eps have no bit, so none is pushed
            d: Regex = EPS
            while context is not None:
                wrapper, left, right, context = context
                d = make(wrapper, d, right) if left is None else make(wrapper, left, d)
            out.add(d)
    return frozenset(out)


def partial_derivatives_word(e: Regex, word: Sequence[Symbol]) -> frozenset[Regex]:
    """All partial derivatives of ``e`` by ``word``; the empty word gives {e}."""
    frontier: frozenset[Regex] = frozenset({e})
    for symbol in word:
        if not frontier:  # no step leaves the empty frontier
            break
        frontier = step_frontier(frontier, symbol)
    return frontier


def accepts(e: Regex, word: Sequence[Symbol]) -> bool:
    """Whether some partial derivative of ``e`` by ``word`` is nullable."""
    return any(d.nullable for d in partial_derivatives_word(e, word))


def closure(e: Regex, *, cap: int = DEFAULT_CLOSURE_CAP) -> frozenset[Regex]:
    """All expressions reachable from ``e`` by partial derivatives.

    These are the states of the partial-derivative NFA.  There are
    finitely many, but exponentially many in the number of shuffled
    operands (4**n for ``file_descriptor_spec(n)``, over the default
    ``cap`` at n = 10), so ``cap`` bounds the search.
    """
    from .automaton import build_nfa  # automaton imports this module

    return frozenset(build_nfa(e, cap=cap).states)
