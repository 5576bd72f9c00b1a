"""NFA construction over the partial-derivative state space.

States are the expressions reachable from the initial one, identified
up to structural equality; a state is final when it is nullable.  The
number of states can explode (n interleaved three-event sessions need
4^n) while each state stays small: the trade-off ``bounds`` quantifies.

Construction is breadth-first with successors ordered by their rendered
text, so state numbering, transition order, and every serialization are
stable across runs.  A build steps through one :func:`.syntax.builder`,
so a successor equal to a known state is almost always that state's
object, found by identity.  It skips a symbol whose bit, computed once
per build, is not in the state's ``first`` mask: that step is empty.
Acceptance steps over per-symbol rows of successors (one pointer per
symbol and state), so a one-state subset steps by one list index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import CapacityError
from .partial import DEFAULT_CLOSURE_CAP, partial_derivatives
from .syntax import Regex, Symbol, alphabet, builder, format_regex, symbol_bit


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


def build_nfa(e: Regex, *, cap: int = DEFAULT_CLOSURE_CAP) -> Nfa:
    """Build the NFA whose states are the reachable partial derivatives."""
    symbols = [(symbol, symbol_bit(symbol)) for symbol in sorted(alphabet(e))]
    make = builder()
    index: dict[Regex, int] = {e: 0}
    states: list[Regex] = [e]
    transitions: list[tuple[int, Symbol, int]] = []
    queue: deque[Regex] = deque([e])
    while queue:
        state = queue.popleft()
        source = index[state]
        for symbol, bit in symbols:
            targets = partial_derivatives(state, symbol, make) if state.first & bit else ()
            if len(targets) > 1:
                targets = sorted(targets, key=format_regex)
            for target in targets:
                if target not in index:
                    index[target] = len(states)
                    states.append(target)
                    queue.append(target)
                    if len(states) > cap:
                        raise CapacityError(f"state space exceeded {cap} states")
                transitions.append((source, symbol, index[target]))
    finals = frozenset(i for i, state in enumerate(states) if state.nullable)
    return Nfa(tuple(states), 0, tuple(transitions), finals)
