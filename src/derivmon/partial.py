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
is the states of :func:`.automaton.build_nfa`, under the build's cap.

:func:`step_frontier` is the package's one partial-derivative walk.
:mod:`.automaton` defines it and says how it goes, because the build
steps each state through it and this module imports the build.  A
one-symbol step keeps no memo of its own.  It builds its wrappers
through the maker its caller passes: the monitor's
:func:`.syntax.builder`, so that a member equal to one built before is
that very object, or by default ``type.__call__``, as in
:func:`accepts`, which calls ``Cat`` and ``Shuffle`` and keeps nothing.
:func:`partial_derivatives` is that walk from a single expression.
"""

from __future__ import annotations

from typing import Sequence

from .automaton import DEFAULT_CLOSURE_CAP, build_nfa, step_frontier
from .syntax import Regex, Symbol


def partial_derivatives(e: Regex, symbol: Symbol) -> frozenset[Regex]:
    """The set of one-step partial derivatives of ``e`` by ``symbol``.

    ``0``, ``eps`` and mismatched symbols have no derivatives at all;
    a nullable left factor lets concatenation step into its right side.
    """
    return step_frontier((e,), symbol)


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
