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
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .syntax import (
    Cat,
    Empty,
    Eps,
    Or,
    Regex,
    Shuffle,
    Star,
    Sym,
    Symbol,
    has_eps,
)

DEFAULT_CLOSURE_CAP = 1_000_000
_NO_DERIVATIVES: frozenset[Regex] = frozenset()


def partial_derivatives(e: Regex, symbol: Symbol) -> frozenset[Regex]:
    """The set of one-step partial derivatives of ``e`` by ``symbol``.

    ``0``, ``eps`` and mismatched symbols have no derivatives at all;
    a nullable left factor lets concatenation step into its right side.
    """
    # Collect the subterms the step needs, each before its children: a
    # concatenation needs its right side only when its left side is nullable.
    needed: list[Regex] = []
    stack = [e]
    while stack:
        node = stack.pop()
        needed.append(node)
        kind = type(node)
        if kind is Cat:
            stack.append(node.left)
            if node.left.nullable:
                stack.append(node.right)
        elif kind is Or or kind is Shuffle:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is Star:
            stack.append(node.body)
    # Each subtree is a contiguous run of ``needed``, so in reverse every
    # node comes right after its children, whose results then sit on top
    # of ``results``: the right side's above the left side's.
    results: list[frozenset[Regex]] = []
    for node in reversed(needed):
        kind = type(node)
        if kind is Cat:
            right = node.right
            after = results.pop() if node.left.nullable else _NO_DERIVATIVES
            steps = results.pop()
            out = frozenset([Cat(d, right) for d in steps]).union(after) if steps else after
        elif kind is Sym:
            out = frozenset([Eps()]) if node.name == symbol else _NO_DERIVATIVES
        elif kind is Or:
            after = results.pop()
            out = results.pop() | after
        elif kind is Star:
            steps = results.pop()
            out = frozenset([Cat(d, node) for d in steps]) if steps else _NO_DERIVATIVES
        elif kind is Shuffle:
            left, right = node.left, node.right
            rights = results.pop()
            lefts = results.pop()
            out = frozenset(
                [Shuffle(d, right) for d in lefts] + [Shuffle(left, d) for d in rights]
            )
        elif kind is Empty or kind is Eps:
            out = _NO_DERIVATIVES
        else:
            raise TypeError(f"not a Regex: {node!r}")
        results.append(out)
    return results[0]


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
    return any(has_eps(d) for d in partial_derivatives_word(e, word))


def closure(e: Regex, *, cap: int = DEFAULT_CLOSURE_CAP) -> frozenset[Regex]:
    """All expressions reachable from ``e`` by partial derivatives.

    These are the states of the partial-derivative NFA.  The result is
    finite, so exceeding ``cap`` signals a bug rather than expected
    behavior.
    """
    from .automaton import build_nfa  # automaton imports this module

    return frozenset(build_nfa(e, cap=cap).states)
