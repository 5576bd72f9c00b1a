"""The paper's claims checked on one expression, for the fuzz command and the tests.

Each check returns the first broken property as text, or None, and its
docstring states the order it checks in, which decides the text when
more than one property is broken.  Every engine, the monitor included,
is looked up through its module at call time, so a test can replace one
and watch the check fail.  The Brzozowski check runs both walks of
:mod:`.derivative`: the raw reference walk on the inner words of its
word trie, and the live membership step at the leaves.
"""

from __future__ import annotations

from typing import Sequence

from . import automaton, bounds, derivative, monitor, oracle
from .automaton import Nfa
from .errors import CapacityError
from .monitor import ACCEPTING, PENDING, VIOLATION, MonitorSession
from .syntax import Regex, Symbol, Word, alphabet


def bounds_problem(e: Regex, nfa: Nfa) -> str | None:
    """The paper's space claims on ``e`` and ``nfa``, the NFA of ``e``.

    Checked in this order: the two budget ranges of ``e``; the height and
    then the size cap on each state, in state order; then the one-step
    invariant ``m + B`` never increasing, on each edge in
    ``nfa.transitions`` order, height before size on each edge.  Every
    partial-derivative step from a reachable expression is an edge of
    ``nfa``, so the edges are all the steps there are to check.
    """
    if not 0 <= bounds.height_increment_bound(e) <= 1:
        return "height budget out of range"
    if not 0 <= bounds.size_increment_bound(e) <= e.size**2:
        return "size budget out of range"
    h_cap, s_cap = bounds.height_budget(e), bounds.size_budget(e)
    heights: list[int] = []  # height + height budget, per state
    sizes: list[int] = []  # size + size budget, per state
    for state in nfa.states:
        if state.height > h_cap:
            return "height bound exceeded"
        if state.size > s_cap:
            return "size bound exceeded"
        heights.append(state.height + bounds.height_increment_bound(state))
        sizes.append(state.size + bounds.size_increment_bound(state))
    for source, _, target in nfa.transitions:
        if heights[target] > heights[source]:
            return "height invariant broken"
        if sizes[target] > sizes[source]:
            return "size invariant broken"
    return None


def agreement_problem(e: Regex, nfa: Nfa, symbols: Sequence[Symbol], max_len: int) -> str | None:
    """The oracle against the Brzozowski derivative, a session of one shared
    ``monitor.Monitor`` (its frontier, verdict, and largest size and height
    within the budgets of ``e``) and ``nfa`` on every word over ``symbols`` up to
    ``max_len``; names the shortest failing word, the first in ``symbols``
    order among equally short ones.  Inner words derive through the raw
    ``derivative.deriver`` walk; a word of length ``max_len`` is a leaf of
    the trie, and its Brzozowski check reads one shared
    ``derivative.acceptor`` on its parent's raw derivative and last symbol,
    so both walks are checked against the oracle."""
    lang = oracle.lang_up_to(e, max_len)
    derive, in_lang = derivative.deriver(), derivative.acceptor()  # one of each for the trie
    s_cap, h_cap = bounds.size_budget(e), bounds.height_budget(e)
    problem, limit = None, max_len  # after a failure, only shorter words can replace it
    # Depth first, in symbols order: a popped entry steps its parent's derivative and session.
    stack: list[tuple[Word, Regex, MonitorSession]] = [((), e, monitor.Monitor(e).new_session())]
    while stack:
        word, brz, parent = stack.pop()
        if len(word) > limit:
            continue
        session = monitor.step(parent, word[-1]) if word else parent
        if word and len(word) == max_len:  # a leaf: nothing would step its derivative
            nullable = in_lang(brz, word[-1:])
        else:
            brz = derive(brz, word[-1]) if word else brz
            nullable = brz.nullable
        frontier, member = session.frontier, word in lang
        accepting, max_size, max_height = False, parent.max_size_seen, parent.max_height_seen
        for m in frontier:
            accepting = accepting or m.nullable
            if m.size > max_size:
                max_size = m.size
            if m.height > max_height:
                max_height = m.height
        if nullable != member:
            found = "derivative disagrees"
        elif accepting != member:
            found = "partial derivatives disagree"
        elif (
            session.verdict is not (ACCEPTING if member else PENDING if frontier else VIOLATION)
            or session.max_size_seen != max_size
            or session.max_height_seen != max_height
            or max_size > s_cap
            or max_height > h_cap
        ):
            found = "monitor disagrees"
        elif nfa.accepts(word) != member:
            found = "NFA disagrees"
        else:
            if len(word) < limit:
                stack.extend((word + (symbol,), brz, session) for symbol in reversed(symbols))
            continue
        problem, limit = f"{found} with oracle on {word!r}", len(word) - 1
    return problem


def problem(e: Regex, max_len: int) -> str | None:
    """Every claim on ``e``, as ``derivmon fuzz`` checks it: the NFA of ``e``
    within 100,000 states, then :func:`bounds_problem`, then
    :func:`agreement_problem` on every word over ``alphabet(e)`` up to ``max_len``."""
    try:
        nfa = automaton.build_nfa(e, cap=100_000)
    except CapacityError:
        return "closure blow-up"
    return bounds_problem(e, nfa) or agreement_problem(e, nfa, sorted(alphabet(e)), max_len)
