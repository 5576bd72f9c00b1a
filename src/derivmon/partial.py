"""Antimirov partial derivatives.

Where the Brzozowski derivative pads with ``0`` to stay total, the
partial-derivative step is a nondeterministic relation: it returns the
finite set of expressions reachable by consuming one symbol, and that
set may be empty.  Emptiness is the useful signal for online
monitoring: once no step is possible, no extension of the input can be
accepted.

Members are deduplicated by structural equality only; no smart
constructors, no reassociation.  The set of all expressions reachable
over all words (the closure) is finite, which is what makes the
construction usable as an NFA state space.

The step walks only the subterms whose stored ``first`` mask has the
symbol's bit.  That is exact: a subterm has a derivative by ``a``
exactly when a first step can consume one of its ``a`` leaves (``a`` is
in its structural first set), and its mask holds the bits of all such
symbols.  A bit shared with another symbol costs a walk that finds
nothing, never a member, so the result is the paper's raw relation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

DEFAULT_CLOSURE_CAP = 1_000_000
_NO_DERIVATIVES: frozenset[Regex] = frozenset()


def partial_derivatives(e: Regex, symbol: Symbol) -> frozenset[Regex]:
    """The set of one-step partial derivatives of ``e`` by ``symbol``.

    ``0``, ``eps`` and mismatched symbols have no derivatives at all;
    a nullable left factor lets concatenation step into its right side.
    """
    bit = symbol_bit(symbol)
    if not e.first & bit:
        return _NO_DERIVATIVES
    # Collect the subterms that can step, each before its children: those
    # whose ``first`` mask has the symbol's bit, and the right side of a
    # concatenation only when its left side is nullable.  Every collected
    # node has the bit, so at least one of its children is collected too.
    needed: list[Regex] = []
    stack = [e]
    while stack:
        node = stack.pop()
        needed.append(node)
        kind = type(node)
        if kind is Cat:
            if node.left.first & bit:
                stack.append(node.left)
            if node.left.nullable and node.right.first & bit:
                stack.append(node.right)
        elif kind is Or or kind is Shuffle:
            if node.left.first & bit:
                stack.append(node.left)
            if node.right.first & bit:
                stack.append(node.right)
        elif kind is Star:
            stack.append(node.body)
    # Each subtree is a contiguous run of ``needed``, so in reverse every
    # node comes right after its collected children, whose results then
    # sit on top of ``results``: the right side's above the left side's.
    # A result is a list that may repeat a member; every wrapper maps
    # members one to one, so one frozenset at the end deduplicates.
    results: list[list[Regex]] = []
    for node in reversed(needed):
        kind = type(node)
        if kind is Sym:
            out = [EPS] if node.name == symbol else []
        elif kind is Cat:
            left, right = node.left, node.right
            after = results.pop() if left.nullable and right.first & bit else []
            steps = results.pop() if left.first & bit else []
            out = [Cat(d, right) for d in steps] + after
        elif kind is Or:
            after = results.pop() if node.right.first & bit else []
            steps = results.pop() if node.left.first & bit else []
            out = steps + after
        elif kind is Star:
            out = [Cat(d, node) for d in results.pop()]
        elif kind is Shuffle:
            left, right = node.left, node.right
            rights = results.pop() if right.first & bit else []
            lefts = results.pop() if left.first & bit else []
            out = [Shuffle(d, right) for d in lefts] + [Shuffle(left, d) for d in rights]
        else:
            raise TypeError(f"not a Regex: {node!r}")
        results.append(out)
    return frozenset(results[0])


def step_frontier(frontier: Iterable[Regex], symbol: Symbol) -> frozenset[Regex]:
    """Set-lifted single step: the union of members' partial derivatives."""
    out: set[Regex] = set()
    for e in frontier:
        out |= partial_derivatives(e, symbol)
    return frozenset(out)


def partial_derivatives_word(e: Regex, word: Sequence[Symbol]) -> frozenset[Regex]:
    """All partial derivatives of ``e`` by ``word``; the empty word gives {e}."""
    frontier: frozenset[Regex] = frozenset({e})
    for symbol in word:
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
