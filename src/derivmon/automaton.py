"""NFA construction over the partial-derivative state space, and the walk
that computes partial derivatives.

States are the expressions reachable from the initial one, identified
up to structural equality; a state is final when it is nullable.  The
number of states can explode (n interleaved three-event sessions need
4^n) while each state stays small: the trade-off ``bounds`` quantifies.

Construction is breadth-first with successors ordered by their rendered
text, so state numbering, transition order, and every serialization are
stable across runs.  A build raises :class:`.errors.CapacityError` past
``cap`` states, ``DEFAULT_CLOSURE_CAP`` unless its caller gives one;
:func:`.partial.closure` is a build's states under the same cap.

:func:`step_frontier` is the package's one partial-derivative walk
(Antimirov 1996).  The monitor steps its misses through it, the build
steps each state through it, and :mod:`.partial`, which imports the
build, re-exports it.  It goes top down from each member of a frontier,
and each subterm it visits carries its context: the wrappers between
that subterm and its member.  A concatenation's left factor is wrapped
in ``Cat(., right)``, a star's body in ``Cat(., star)``, and each side of
a shuffle in the shuffle with the other side; a union adds no wrapper.
A symbol that matches steps to ``eps``, and rebuilding ``eps`` outward
through its context, each wrapper by ``make(kind, left, right)``, gives
one member of the result.  ``make`` is the caller's
:func:`.syntax.builder`, or by default ``type.__call__``, which calls
``kind(left, right)`` and keeps nothing.  The walk descends
in place into a child whose ``first`` mask has the symbol's bit, and
keeps a ``(subterm, context)`` pair on its stack only where a node has
two such children: a union or shuffle whose sides both have it, or a
nullable concatenation whose factors both have it.  A sequence spec's
step is one path down and stacks nothing.

The walk visits only the subterms whose stored ``first`` mask has the
symbol's bit.  That is exact: a subterm has a derivative by ``a``
exactly when a first step can consume one of its ``a`` leaves (``a`` is
in its structural first set), and its mask holds the bits of all such
symbols.  A bit shared with another symbol costs a walk that finds
nothing, never a member, so the result is the paper's raw relation.

A build steps each new state once, by every symbol at once: the walk
with every bit set, where each symbol leaf gives a ``(symbol, member)``
pair.  Its ``make`` is one :func:`.syntax.builder`, so shared
subterms stay one object and a successor equal to a known state is
almost always that state's object, found by identity.  The build also
passes the walk a shuffle memo.  A shuffle whose two sides both step,
met inside a wrapper rather than as the top of a state, keeps its pairs
there relative to itself, keyed by its identity with the node held so
the key stays valid.  Each later visit, in the same state or another,
re-wraps the stored pairs through its own context instead of walking
the shuffle again, so the interleavings of n sessions share their inner
shuffles across all 4^n states.  Nothing else is kept.  A union adds no
wrapper, so a 10,000-branch union is one linear walk.  Any other subterm
is walked again in each state that holds it: cheap for the one-path
subterms of most specs, slower than a memo where many states share a
large live union or a deep star tower.  A memo holds for one build: one
builder, every symbol.

The per-state step is named ``partial_derivatives`` like
:func:`.partial.partial_derivatives`, whose relation it computes for
every symbol, because the traced benchmark times the build's steps by
rebinding that module-level name.

The build keeps each state's grouped steps as its successor map, one int
per symbol: a lone target's index, or ``~k`` for the tuple of two or more
targets that the build interns once as ``Nfa.choices[k]``.  Acceptance
walks these maps, so its memory stays linear in the transitions, and a
one-state subset steps by one dict lookup and a sign test per event, as
in RE2's DFA (Cox, "Regular Expression Matching in the Wild", 2010).
The transition list is derived from the maps on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import CapacityError
from .syntax import EPS, Cat, Or, Regex, Shuffle, Star, Sym, Symbol, builder, format_regex, symbol_bit

DEFAULT_CLOSURE_CAP = 1_000_000


@dataclass(frozen=True)
class Nfa:
    """An NFA over the states it lists, numbered by their position.

    ``successors[i]`` is state i's successor map: each symbol that steps
    it, in sorted order, to one int.  An entry ``t >= 0`` is the one
    target's index; an entry ``~k`` (negative) names ``choices[k]``, the
    tuple of two or more target indices, in the order :func:`build_nfa`
    gives them.  ``choices[0]`` is ``()``, which a missing symbol reads
    as through ``.get(symbol, -1)``.  The maps are dicts, so
    ``hash(nfa)`` raises TypeError.
    """

    states: tuple[Regex, ...]
    initial: int
    successors: tuple[dict[Symbol, int], ...]
    finals: frozenset[int]
    choices: tuple[tuple[int, ...], ...] = ((),)

    @cached_property
    def transitions(self) -> tuple[tuple[int, Symbol, int], ...]:
        """Every edge ``(source, symbol, target)``, by source, then symbol,
        then target, in the order the successor maps list them: a choice
        entry expands to one edge per member of its tuple."""
        choices = self.choices
        edges: list[tuple[int, Symbol, int]] = []
        append = edges.append
        for source, row in enumerate(self.successors):
            for symbol, target in row.items():
                if target >= 0:
                    append((source, symbol, target))
                else:
                    for member in choices[~target]:
                        append((source, symbol, member))
        return tuple(edges)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Subset simulation over the successor maps, in one forward walk.
        A one-state subset steps by one lookup in its state's map and a
        sign test; from the first choice entry on, the subset steps by
        the union of its members' targets to the end of the word."""
        successors, choices = self.successors, self.choices
        symbols = iter(word)
        state = self.initial
        for symbol in symbols:
            state = successors[state].get(symbol, -1)
            if state < 0:
                break
        else:
            return state in self.finals
        subset = choices[~state]
        for symbol in symbols:
            if not subset:
                return False
            stepped: set[int] = set()
            for member in subset:
                target = successors[member].get(symbol, -1)
                if target >= 0:
                    stepped.add(target)
                else:
                    stepped.update(choices[~target])
            subset = stepped
        return not self.finals.isdisjoint(subset)

    def to_json_dict(self) -> dict:
        return {
            "states": [format_regex(state) for state in self.states],
            "initial": self.initial,
            "finals": sorted(self.finals),
            "transitions": [list(t) for t in self.transitions],
        }

    def to_dot(self) -> str:
        lines = [
            "digraph nfa {",
            "  rankdir=LR;",
            '  start [shape=none, label=""];',
        ]
        for index, state in enumerate(self.states):
            shape = "doublecircle" if index in self.finals else "circle"
            label = format_regex(state).replace('"', '\\"')
            lines.append(f'  n{index} [shape={shape}, label="{label}"];')
        lines.append(f"  start -> n{self.initial};")
        for source, symbol, target in self.transitions:
            lines.append(f'  n{source} -> n{target} [label="{symbol}"];')
        lines.append("}")
        return "\n".join(lines)


def step_frontier(
    frontier: Iterable[Regex],
    symbol: Symbol | None,
    make: Callable[[type, Regex, Regex], Regex] = type.__call__,
    memo: dict[int, tuple[Regex, list[tuple[Symbol, Regex]]]] | None = None,
) -> frozenset[Regex] | list[tuple[Symbol, Regex]]:
    """Set-lifted single step: the union of members' partial derivatives.

    Each member's wrappers are rebuilt through ``make(kind, left, right)``:
    a :func:`.syntax.builder`, or the default ``type.__call__``, which
    calls ``kind(left, right)``.  With ``symbol`` None the walk steps by
    every symbol at once, for the build: it takes the build's ``make``
    and shuffle ``memo``, reads and fills the memo, and returns the list
    of ``(symbol, member)`` pairs."""
    if symbol is None:
        bit = -1
        out = sink = []
    else:
        bit = symbol_bit(symbol)
        out = set()
    # A context is None at a member, else (wrapper, left, right, outer):
    # ``wrapper(left, right)`` with the stepped subterm in place of the
    # side that is None, inside the wrappers of ``outer``.  Every node
    # visited has the bit, so the walk goes on in place into a child that
    # has it; ``stack`` holds the other child wherever both have it.  A
    # memo shuffle's walk sends its pairs to its own entry, and below that
    # walk's frames it leaves a frame ``(None, (pairs, context, sink))``:
    # popped, it sends the entry's pairs through ``context`` into ``sink``,
    # the list around the shuffle.
    stack: list[tuple[Regex | None, tuple | None]] = []
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
                            if memo is not None and context is not None:
                                known = memo.get(id(node))
                                if known is not None:  # the path ends in the entry's pairs
                                    stack.append((None, (known[1], context, sink)))
                                    break
                                memo[id(node)] = (node, pairs := [])
                                stack.append((None, (pairs, context, sink)))
                                sink, context = pairs, None
                            stack.append((right, (Shuffle, left, None, context)))
                        node, context = left, (Shuffle, None, right, context)
                    else:
                        node, context = right, (Shuffle, left, None, context)
                kind = type(node)
            else:  # a symbol leaf; a memo hit breaks out past it
                if symbol is None or node.name == symbol:
                    d: Regex = EPS
                    while context is not None:
                        wrapper, left, right, context = context
                        d = make(wrapper, d, right) if left is None else make(wrapper, left, d)
                    if symbol is None:
                        sink.append((node.name, d))
                    else:
                        out.add(d)
            while stack:
                node, context = stack.pop()
                if node is not None:
                    break
                pairs, outer, sink = context
                for name, d in pairs:
                    context = outer
                    while context is not None:
                        wrapper, left, right, context = context
                        d = make(wrapper, d, right) if left is None else make(wrapper, left, d)
                    sink.append((name, d))
            else:  # the member's walk is done
                break
    return out if symbol is None else frozenset(out)


def partial_derivatives(
    state: Regex,
    make: Callable[[type, Regex, Regex], Regex],
    memo: dict[int, tuple[Regex, list[tuple[Symbol, Regex]]]],
) -> dict[Symbol, list[Regex]]:
    """The partial derivatives of ``state`` by every symbol at once, grouped
    per symbol: each symbol's members in walk order, repeats included.
    ``make`` is the build's node builder and ``memo`` its shuffle memo."""
    steps: dict[Symbol, list[Regex]] = {}
    for symbol, d in step_frontier((state,), None, make, memo):
        known = steps.get(symbol)
        if known is None:
            steps[symbol] = [d]
        else:
            known.append(d)
    return steps


def build_nfa(e: Regex, *, cap: int = DEFAULT_CLOSURE_CAP) -> Nfa:
    """Build the NFA whose states are the reachable partial derivatives."""
    make = builder()
    memo: dict[int, tuple[Regex, list[tuple[Symbol, Regex]]]] = {}
    index: dict[Regex, int] = {e: 0}
    states: list[Regex] = [e]  # also the queue: the loop reaches each state as it is appended
    successors: list[dict[Symbol, int]] = []
    choices: list[tuple[int, ...]] = [()]
    choice_index: dict[tuple[int, ...], int] = {(): 0}
    for state in states:
        steps = partial_derivatives(state, make, memo)
        row: dict[Symbol, int] = {}
        for symbol in sorted(steps):
            targets = steps[symbol]
            if len(targets) > 1:
                targets = sorted(set(targets), key=format_regex)
            for target in targets:
                target_index = index.get(target)
                if target_index is None:
                    target_index = index[target] = len(states)
                    states.append(target)
                    if len(states) > cap:
                        raise CapacityError(f"state space exceeded {cap} states")
                row[symbol] = target_index  # the entry of a lone target
            if len(targets) > 1:  # two or more: the entry names their interned tuple
                key = tuple([index[target] for target in targets])
                k = choice_index.get(key)
                if k is None:
                    k = choice_index[key] = len(choices)
                    choices.append(key)
                row[symbol] = ~k
        successors.append(row)
    finals = frozenset(i for i, state in enumerate(states) if state.nullable)
    return Nfa(tuple(states), 0, tuple(successors), finals, tuple(choices))
