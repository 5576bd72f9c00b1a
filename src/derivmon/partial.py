"""Antimirov partial derivatives.

Where the Brzozowski derivative pads with ``0`` to stay total, the
partial-derivative step is a nondeterministic relation: it returns the
finite set of expressions reachable by consuming one symbol, and that
set may be empty.  Emptiness is the useful signal for online
monitoring: once no step is possible, no extension of the input can be
accepted.

Members are deduplicated by structural equality only; no smart
constructors, no reassociation.  The closure (every expression reachable
over all words) is finite, so it can be an NFA state space: :func:`closure`
is the states of :func:`.automaton.build_nfa`, under the build's cap.  A
step keeps no memo of its own.  It builds its wrappers through the node
builder its caller passes, the monitor's :func:`.syntax.builder`, so
that a member equal to one built before is that very object; without
one, as in :func:`accepts`, it calls ``Cat`` and ``Shuffle`` themselves.
The NFA build steps each state by every symbol at once instead, through
memoized linear forms and one node builder.

:func:`step_frontier` is the one walk.  It goes top down from each
member of a frontier, and each subterm it visits carries its context:
the wrappers between that subterm and its member.  A concatenation's
left factor is wrapped in ``Cat(., right)``, a star's body in
``Cat(., star)``, and each side of a shuffle in the shuffle with the
other side; a union adds no wrapper.  A symbol that matches steps to
``eps``, and rebuilding ``eps`` outward through its context gives one
member of the result.  The walk descends in place into a child whose
``first`` mask (below) has the symbol's bit, and keeps a ``(subterm,
context)`` pair on its stack only where a node has two such children: a
union or shuffle whose sides both have it, or a nullable concatenation
whose factors both have it.  A sequence spec's step is one path down and
stacks nothing.  :func:`partial_derivatives` is that walk from a single
expression.

The step walks only the subterms whose stored ``first`` mask has the
symbol's bit.  That is exact: a subterm has a derivative by ``a``
exactly when a first step can consume one of its ``a`` leaves (``a`` is
in its structural first set), and its mask holds the bits of all such
symbols.  A bit shared with another symbol costs a walk that finds
nothing, never a member, so the result is the paper's raw relation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .automaton import DEFAULT_CLOSURE_CAP, build_nfa
from .syntax import (
    EPS,
    Cat,
    Or,
    Regex,
    Shuffle,
    Star,
    Sym,
    Symbol,
    symbol_bit,
)


def partial_derivatives(e: Regex, symbol: Symbol) -> frozenset[Regex]:
    """The set of one-step partial derivatives of ``e`` by ``symbol``.

    ``0``, ``eps`` and mismatched symbols have no derivatives at all;
    a nullable left factor lets concatenation step into its right side.
    """
    return step_frontier((e,), symbol)


def step_frontier(
    frontier: Iterable[Regex],
    symbol: Symbol,
    make: Callable[[type, Regex, Regex], Regex] | None = None,
) -> frozenset[Regex]:
    """Set-lifted single step: the union of members' partial derivatives.

    Each member's wrappers are rebuilt through ``make(kind, left, right)``,
    a :func:`.syntax.builder`, when one is given, else by ``Cat`` and
    ``Shuffle`` themselves."""
    bit = symbol_bit(symbol)
    out: set[Regex] = set()
    # A context is None at a member, else (wrapper, left, right, outer):
    # ``wrapper(left, right)`` with the stepped subterm in place of the
    # side that is None, inside the wrappers of ``outer``.  Every node
    # visited has the bit, so the walk goes on in place into a child that
    # has it; ``stack`` holds the other child wherever both have it.
    stack: list[tuple[Regex, tuple | None]] = []
    for node in frontier:
        if not node.first & bit:
            continue
        context = None
        while True:
            kind = type(node)
            while kind is not Sym:  # 0 and eps have no bit, so none is visited
                if kind is Cat:
                    left, right = node.left, node.right
                    if left.first & bit:
                        if left.nullable and right.first & bit:
                            stack.append((right, context))
                        node, context = left, (Cat, None, right, context)
                    else:  # the bit came through a nullable left factor
                        node = right
                elif kind is Or:
                    left, right = node.left, node.right
                    if left.first & bit:
                        if right.first & bit:
                            stack.append((right, context))
                        node = left
                    else:
                        node = right
                elif kind is Star:
                    node, context = node.body, (Cat, None, node, context)
                else:  # Shuffle
                    left, right = node.left, node.right
                    if left.first & bit:
                        if right.first & bit:
                            stack.append((right, (Shuffle, left, None, context)))
                        node, context = left, (Shuffle, None, right, context)
                    else:
                        node, context = right, (Shuffle, left, None, context)
                kind = type(node)
            if node.name == symbol:
                d: Regex = EPS
                if make is None:
                    while context is not None:
                        wrapper, left, right, context = context
                        d = wrapper(d, right) if left is None else wrapper(left, d)
                else:
                    while context is not None:
                        wrapper, left, right, context = context
                        d = make(wrapper, d, right) if left is None else make(wrapper, left, d)
                out.add(d)
            if not stack:
                break
            node, context = stack.pop()
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
    return frozenset(build_nfa(e, cap=cap).states)
