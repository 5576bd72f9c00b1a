"""NFA construction over the partial-derivative state space.

States are the expressions reachable from the initial one, identified
up to structural equality; a state is final when it is nullable.  The
number of states can explode (n interleaved three-event sessions need
4^n) while each state stays small: the trade-off ``bounds`` quantifies.

Construction is breadth-first with successors ordered by their rendered
text, so state numbering, transition order, and every serialization are
stable across runs.

A build steps each new state once, by every symbol at once, through its
linear form (Antimirov 1996): the list of its ``(symbol, partial
derivative)`` pairs.  A node's form follows from its children's: a
symbol's is ``(a, eps)``, a concatenation wraps its left factor's pairs
in ``Cat(., right)`` and, when the left factor is nullable, adds its
right factor's pairs; a star wraps its body's in ``Cat(., star)``, a
shuffle each side's in the shuffle with the other side, and a union
joins its sides' pairs.  A child whose ``first`` mask is 0 has none.
The build memoizes each form by the identity of its node, so a subterm
shared by many states is walked once, and builds every wrapper through
one :func:`.syntax.builder`, so shared subterms stay one object and a
successor equal to a known state is almost always that state's object,
found by identity.  A new state then costs about one wrapper per
transition, not one walk per symbol of the alphabet.

Two kinds of form are not kept, so the memo stays linear in what the
states hold.  A state's own form is read once, so it is grouped and
dropped.  A union inside a chain of unions is never a node of the walk:
the chain's top joins the forms of the chain's leaves, as keeping every
inner union's pairs would hold n²/2 pairs for an n-branch union.

The step is named ``partial_derivatives`` like
:func:`.partial.partial_derivatives`, whose relation it computes for
every symbol, because the traced benchmark times the build's steps by
rebinding that module-level name.

Acceptance steps over per-symbol rows of successors (one pointer per
symbol and state), so a one-state subset steps by one list index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .errors import CapacityError
from .partial import DEFAULT_CLOSURE_CAP
from .syntax import EPS, Cat, Or, Regex, Shuffle, Star, Sym, Symbol, builder, format_regex

Pairs = list[tuple[Symbol, Regex]]


@dataclass(frozen=True)
class Nfa:
    states: tuple[Regex, ...]
    initial: int
    transitions: tuple[tuple[int, Symbol, int], ...]
    finals: frozenset[int]

    @cached_property
    def _rows(self) -> dict[Symbol, list[tuple[int, ...]]]:
        rows: dict[Symbol, list[tuple[int, ...]]] = {}
        for source, symbol, target in self.transitions:
            row = rows.get(symbol)
            if row is None:
                row = rows[symbol] = [()] * len(self.states)
            row[source] += (target,)
        return rows

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Subset simulation over per-symbol rows, built on the first call at
        one pointer per symbol and state: a one-state subset steps by one
        list index, a larger one by the union of its members' rows."""
        rows = self._rows
        current: tuple[int, ...] = (self.initial,)
        for symbol in word:
            row = rows.get(symbol)
            if row is None:
                return False
            if len(current) == 1:
                current = row[current[0]]
            else:
                current = tuple(set().union(*[row[state] for state in current]))
            if not current:
                return False
        return not self.finals.isdisjoint(current)

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


def partial_derivatives(
    state: Regex, make: Callable[[type, Regex, Regex], Regex], forms: dict[int, tuple[Regex, Pairs]]
) -> dict[Symbol, set[Regex]]:
    """The partial derivatives of ``state`` by every symbol at once: its
    linear form, grouped per symbol into sets of structurally distinct
    members.  ``forms`` is the build's memo, ``id(node) -> (node, pairs)``,
    and ``make`` its node builder.

    The walk has no recursion: a node stays on its stack until the forms
    of its live children are known, pushing the missing ones above itself
    (a symbol's form is read in place), and then joins them into its own.
    """
    known = forms.get(id(state))
    if known is not None:
        pairs = known[1]
    elif not state.first:  # no symbol steps it: every node walked below has a bit
        pairs = []
    else:

        def form(node: Regex) -> Pairs:
            return [(node.name, EPS)] if type(node) is Sym else forms[id(node)][1]

        stack = [state]
        while stack:
            node = stack[-1]
            if id(node) in forms:  # stacked twice, by two parents
                stack.pop()
                continue
            kind = type(node)
            if kind is Cat:
                parts = (node.left, node.right) if node.left.nullable else (node.left,)
            elif kind is Shuffle:
                parts = (node.left, node.right)
            elif kind is Or:  # the chain's leaves, through every union below it
                parts, chain = [], [node]
                while chain:
                    link = chain.pop()
                    for child in (link.right, link.left):
                        if child.first:
                            (chain if type(child) is Or else parts).append(child)
            elif kind is Star:
                parts = (node.body,)
            else:  # a symbol
                parts = ()
            missing = [
                part for part in parts if part.first and type(part) is not Sym and id(part) not in forms
            ]
            if missing:
                stack += missing
                continue
            stack.pop()
            if kind is Cat:
                left, right = node.left, node.right
                pairs = [(s, make(Cat, d, right)) for s, d in form(left)] if left.first else []
                if left.nullable and right.first:
                    pairs += form(right)
            elif kind is Shuffle:
                left, right = node.left, node.right
                pairs = [(s, make(Shuffle, d, right)) for s, d in form(left)] if left.first else []
                if right.first:
                    pairs += [(s, make(Shuffle, left, d)) for s, d in form(right)]
            elif kind is Or:
                pairs = []
                for leaf in parts:
                    pairs += form(leaf)
            elif kind is Star:
                pairs = [(s, make(Cat, d, node)) for s, d in form(node.body)]
            else:
                pairs = [(node.name, EPS)]
            if node is not state:
                forms[id(node)] = (node, pairs)
    steps: dict[Symbol, set[Regex]] = {}
    for symbol, d in pairs:
        targets = steps.get(symbol)
        if targets is None:
            steps[symbol] = {d}
        else:
            targets.add(d)
    return steps


def build_nfa(e: Regex, *, cap: int = DEFAULT_CLOSURE_CAP) -> Nfa:
    """Build the NFA whose states are the reachable partial derivatives."""
    make = builder()
    forms: dict[int, tuple[Regex, Pairs]] = {}
    index: dict[Regex, int] = {e: 0}
    states: list[Regex] = [e]
    transitions: list[tuple[int, Symbol, int]] = []
    queue: deque[Regex] = deque([e])
    while queue:
        state = queue.popleft()
        source = index[state]
        steps = partial_derivatives(state, make, forms)
        for symbol in sorted(steps):
            targets = steps[symbol]
            if len(targets) > 1:
                targets = sorted(targets, key=format_regex)
            for target in targets:
                target_index = index.get(target)
                if target_index is None:
                    target_index = index[target] = len(states)
                    states.append(target)
                    queue.append(target)
                    if len(states) > cap:
                        raise CapacityError(f"state space exceeded {cap} states")
                transitions.append((source, symbol, target_index))
    finals = frozenset(i for i, state in enumerate(states) if state.nullable)
    return Nfa(tuple(states), 0, tuple(transitions), finals)
