"""NFA construction over the partial-derivative state space.

States are the expressions reachable from the initial one, identified
up to structural equality; a state is final when it is nullable.  The
number of states can explode (n interleaved three-event sessions need
4^n) while each state stays small: the trade-off ``bounds`` quantifies.

Construction is breadth-first with successors ordered by their rendered
text, so state numbering, transition order, and every serialization are
stable across runs.  A build raises :class:`.errors.CapacityError` past
``cap`` states, ``DEFAULT_CLOSURE_CAP`` unless its caller gives one;
:func:`.partial.closure` is a build's states under the same cap.

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
from typing import Callable, Sequence

from .errors import CapacityError
from .syntax import EPS, Cat, Or, Regex, Shuffle, Star, Sym, Symbol, builder, format_regex

DEFAULT_CLOSURE_CAP = 1_000_000

Pairs = list[tuple[Symbol, Regex]]


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
        """Subset simulation over the successor maps.  A one-state subset
        steps by one lookup in its state's map and a sign test; past a
        choice entry the subset steps by the union of its members'
        targets, and when that narrows to one state the walk returns to
        the one-lookup step."""
        successors, choices = self.successors, self.choices
        symbols = iter(word)
        state = self.initial
        while True:
            for symbol in symbols:
                state = successors[state].get(symbol, -1)
                if state < 0:
                    break
            else:
                return state in self.finals
            subset = choices[~state]
            if not subset:
                return False
            for symbol in symbols:
                stepped: set[int] = set()
                for member in subset:
                    target = successors[member].get(symbol, -1)
                    if target >= 0:
                        stepped.add(target)
                    else:
                        stepped.update(choices[~target])
                if len(stepped) < 2:
                    break
                subset = stepped
            else:
                return not self.finals.isdisjoint(subset)
            if not stepped:
                return False
            state = stepped.pop()

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


def _form(node: Regex, forms: dict[int, tuple[Regex, Pairs]]) -> Pairs:
    """A live child's memoized form; a symbol's is read in place."""
    return [(node.name, EPS)] if type(node) is Sym else forms[id(node)][1]


def partial_derivatives(
    state: Regex, make: Callable[[type, Regex, Regex], Regex], forms: dict[int, tuple[Regex, Pairs]]
) -> dict[Symbol, Regex | list[Regex]]:
    """The partial derivatives of ``state`` by every symbol at once: its
    linear form, grouped per symbol.  A symbol with one distinct member
    maps to that member; a list is made only when a second distinct
    member appears, and may repeat members after those two.  ``forms`` is
    the build's memo, ``id(node) -> (node, pairs)``, and ``make`` its
    node builder.

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
                pairs = [(s, make(Cat, d, right)) for s, d in _form(left, forms)] if left.first else []
                if left.nullable and right.first:
                    pairs += _form(right, forms)
            elif kind is Shuffle:
                left, right = node.left, node.right
                pairs = [(s, make(Shuffle, d, right)) for s, d in _form(left, forms)] if left.first else []
                if right.first:
                    pairs += [(s, make(Shuffle, left, d)) for s, d in _form(right, forms)]
            elif kind is Or:
                pairs = []
                for leaf in parts:
                    pairs += _form(leaf, forms)
            elif kind is Star:
                pairs = [(s, make(Cat, d, node)) for s, d in _form(node.body, forms)]
            else:
                pairs = [(node.name, EPS)]
            if node is not state:
                forms[id(node)] = (node, pairs)
    steps: dict[Symbol, Regex | list[Regex]] = {}
    for symbol, d in pairs:
        known = steps.get(symbol)
        if known is None:
            steps[symbol] = d
        elif type(known) is list:
            known.append(d)
        elif known is not d and known != d:
            steps[symbol] = [known, d]
    return steps


def build_nfa(e: Regex, *, cap: int = DEFAULT_CLOSURE_CAP) -> Nfa:
    """Build the NFA whose states are the reachable partial derivatives."""
    make = builder()
    forms: dict[int, tuple[Regex, Pairs]] = {}
    index: dict[Regex, int] = {e: 0}
    states: list[Regex] = [e]  # also the queue: the loop reaches each state as it is appended
    successors: list[dict[Symbol, int]] = []
    choices: list[tuple[int, ...]] = [()]
    choice_index: dict[tuple[int, ...], int] = {(): 0}
    for state in states:
        steps = partial_derivatives(state, make, forms)
        row: dict[Symbol, int] = {}
        for symbol in sorted(steps):
            targets = steps[symbol]
            if type(targets) is not list:
                targets = (targets,)
            else:
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
