"""Online trace monitoring by frontier rewriting.

A session, a :class:`MonitorSession` record, keeps the set of partial
derivatives of its specification by the events consumed so far, and the
:class:`Monitor` it was opened from.  Each event rewrites that frontier
in place-free fashion: ``step`` returns a new session, so sessions can
be shared freely and stepped independently.

A ``Monitor`` is the partial-derivative automaton of one specification,
determinized on demand.  It remembers transitions ``(frontier, event)
-> next frontier``, each with the next frontier's verdict and the size
and height of its largest member, so a frontier reached again is
stepped by one table lookup; only frontiers that occur are ever built,
never the 4**n states of the eager automaton.  Lookups are exact (keys
compare as frozensets of expressions), and the stored frontier is
handed back to the session, so the next lookup matches on identity.
Sessions opened from one monitor share its table.

A miss steps the frontier once and reads each new member's stored
``size``, ``height`` and ``nullable`` in one pass.  It stores the
transition while the table holds fewer than ``NODE_CAP`` transitions
and the expression nodes of the distinct frontiers it holds, each
member counted at its full size, stay within ``NODE_CAP`` with both of
the transition's ends; else the step goes uncached.  The entry bound
matters after a violation, where transitions into the stored empty
frontier add no nodes.  The bounds change no result, only its cost.

Each monitor holds a :func:`.syntax.builder`, and a miss rebuilds its
members' wrappers through it.  So a frontier equal to a stored one holds
the very same member objects, and the table lookups that follow match
on identity, with no structural comparison of trees; a rebuilt wrapper
is a dict hit, not a new node.  A refused store drops the builder for
the walk's default maker, ``type.__call__``, which keeps nothing.  So
until then a miss builds new nodes only for a frontier the table then
stores, and the builder holds about what the table holds.  Transitions
that fit later are still stored: a loop reached after a long prefix is
cached, and the 20,000-symbol sequence ``e0 ... e19999``, whose first
frontier alone passes the node bound, stores one transition near its
end and holds no builder for the frontiers it cannot store.

The paper's budgets bound each member, and ``TraceStats.max_size`` and
``max_height`` report the largest one.  The frontier as a whole is not
bounded by them: ``(a* || a* || a*)*`` after ``a a a`` holds 7 members
of total size 150, against a size budget of 90 and a largest member of 24.

``run_trace`` keeps one session and nothing per event, as the paper's
monitor stores one derivative per step: a trace generator is read as it
goes, and the per-event frontiers are seen only through ``on_step``.

The verdict is three-valued.  An empty frontier means no correct trace
extends the input: VIOLATION, and it is absorbing.  A nullable frontier
member means the input itself is a correct trace: ACCEPTING.  Otherwise
PENDING.  PENDING promises nothing about the future: a specification
with a dead subterm such as ``a 0`` keeps a nonempty frontier after
``a`` even though no continuation can ever be accepted; only the
violation direction is definitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .bounds import height_budget, size_budget
from .partial import step_frontier
from .syntax import Regex, Symbol, builder, has_eps, height, size

NODE_CAP = 1 << 14


class Verdict(Enum):
    ACCEPTING = "ACCEPTING"
    PENDING = "PENDING"
    VIOLATION = "VIOLATION"


# The members as plain module names: reading one costs a global lookup,
# reading ``Verdict.ACCEPTING`` a far slower enum attribute lookup.
ACCEPTING, PENDING, VIOLATION = Verdict.ACCEPTING, Verdict.PENDING, Verdict.VIOLATION


# Next frontier, its largest member's size and height, and its verdict.
_Transition = tuple[frozenset[Regex], int, int, Verdict]


class Monitor:
    """The lazily determinized automaton of one specification.

    ``hits`` and ``misses`` count table lookups, and ``kept`` the
    expression nodes of the distinct frontiers that stored transitions
    hold.  The monitor is the one mutable object of the package; its
    caller owns it.
    """

    __slots__ = ("spec", "hits", "misses", "kept", "_table", "_frontiers", "_make")

    def __init__(self, spec: Regex) -> None:
        self.spec = spec
        self.hits = 0
        self.misses = 0
        self.kept = 0
        self._table: dict[tuple[frozenset[Regex], Symbol], _Transition] = {}
        self._frontiers: dict[frozenset[Regex], frozenset[Regex]] = {}
        self._make: Callable[[type, Regex, Regex], Regex] = builder()

    def new_session(self) -> MonitorSession:
        """A session at the start of a trace, sharing this monitor's table."""
        verdict = ACCEPTING if has_eps(self.spec) else PENDING
        return MonitorSession(
            self, frozenset({self.spec}), 0, size(self.spec), height(self.spec), verdict
        )

    def _miss(self, frontier: frozenset[Regex], event: Symbol) -> _Transition:
        self.misses += 1
        after = step_frontier(frontier, event, self._make)
        nodes = max_size = max_height = 0
        verdict = PENDING if after else VIOLATION
        for e in after:
            nodes += e.size
            if e.size > max_size:
                max_size = e.size
            if e.height > max_height:
                max_height = e.height
            if e.nullable:
                verdict = ACCEPTING
        frontiers = self._frontiers
        kept = NODE_CAP + 1  # refused unless both bounds admit it below
        if len(self._table) < NODE_CAP:
            stored_after = frontiers.get(after)
            kept = self.kept if stored_after is not None else self.kept + nodes
            # Charging the source end only adds, so it waits for ``after`` to fit.
            if kept <= NODE_CAP:
                stored_from = frontiers.get(frontier)
                # A self-loop from a new frontier stores, and charges, one frontier.
                if stored_from is None and after != frontier:
                    kept += sum([e.size for e in frontier])
        if kept > NODE_CAP:  # the one refusal releases the builder (module docstring)
            self._make = type.__call__
            return after, max_size, max_height, verdict
        self.kept = kept
        # Both ends become the stored objects, so that the session stepping
        # from ``after`` next time looks up an identical frontier.
        if stored_from is None:
            stored_from = frontiers.setdefault(frontier, frontier)
        if stored_after is None:
            stored_after = frontiers.setdefault(after, after)
        found = (stored_after, max_size, max_height, verdict)
        self._table[(stored_from, event)] = found
        return found


@dataclass(slots=True, eq=False)
class MonitorSession:
    """One trace's position: its monitor, frontier, verdict and counters.

    Immutable by convention, like expression nodes: ``step`` builds a
    new session and nothing assigns to a built one.  Not frozen, because
    a frozen dataclass's ``__init__`` assigns through ``object.__setattr__``,
    which ``step`` would pay on every event; ``eq=False`` keeps identity
    equality and hashing.
    """

    monitor: Monitor
    frontier: frozenset[Regex]
    events_seen: int
    max_size_seen: int
    max_height_seen: int
    verdict: Verdict


def new_session(spec: Regex) -> MonitorSession:
    """A session of a fresh :class:`Monitor` of ``spec``."""
    return Monitor(spec).new_session()


def step(session: MonitorSession, event: Symbol) -> MonitorSession:
    """Consume one event; on an empty frontier only the event count moves."""
    monitor = session.monitor
    found = monitor._table.get((session.frontier, event))
    if found is None:
        found = monitor._miss(session.frontier, event)
    else:
        monitor.hits += 1
    frontier, max_size, max_height, verdict = found
    return MonitorSession(
        monitor,
        frontier,
        session.events_seen + 1,
        max_size if max_size > session.max_size_seen else session.max_size_seen,
        max_height if max_height > session.max_height_seen else session.max_height_seen,
        verdict,
    )


def current_verdict(session: MonitorSession) -> Verdict:
    return session.verdict


@dataclass(frozen=True)
class TraceStats:
    """End-of-trace telemetry of fixed size, with the space budgets never exceeded."""

    events: int
    verdict: Verdict
    max_size: int
    max_height: int
    size_budget: int
    height_budget: int
    cache_hits: int
    cache_misses: int
    cache_kept: int

    def to_json_dict(self) -> dict:
        return {
            "events": self.events,
            "verdict": self.verdict.value,
            "maxSize": self.max_size,
            "maxHeight": self.max_height,
            "sizeBudget": self.size_budget,
            "heightBudget": self.height_budget,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses, "kept": self.cache_kept},
        }


def run_trace(
    spec: Regex,
    trace: Iterable[Symbol],
    on_step: Callable[[Symbol, MonitorSession], None] | None = None,
) -> tuple[Verdict, TraceStats]:
    """Fold a trace, read once, through a session of a fresh monitor and report statistics.

    ``on_step(event, session)``, when given, sees the session after each event.
    """
    monitor = Monitor(spec)
    session = monitor.new_session()
    for event in trace:
        session = step(session, event)
        if on_step is not None:
            on_step(event, session)
    stats = TraceStats(
        events=session.events_seen,
        verdict=session.verdict,
        max_size=session.max_size_seen,
        max_height=session.max_height_seen,
        size_budget=size_budget(spec),
        height_budget=height_budget(spec),
        cache_hits=monitor.hits,
        cache_misses=monitor.misses,
        cache_kept=monitor.kept,
    )
    return session.verdict, stats
