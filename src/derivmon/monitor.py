"""Online trace monitoring by frontier rewriting.

A session keeps the set of partial derivatives of its specification by
the events consumed so far.  Each event rewrites that frontier in
place-free fashion: ``advance`` returns a new session, so sessions can
be shared freely and stepped independently.

The verdict is three-valued.  An empty frontier means no correct trace
extends the input: VIOLATION, and it is absorbing.  A nullable frontier
member means the input itself is a correct trace: ACCEPTING.  Otherwise
PENDING.  PENDING promises nothing about the future: a specification
with a dead subterm such as ``a 0`` keeps a nonempty frontier after
``a`` even though no continuation can ever be accepted; only the
violation direction is definitive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .bounds import height_budget, size_budget
from .partial import step_frontier
from .syntax import Regex, Symbol, has_eps, height, size


class Verdict(Enum):
    ACCEPTING = "ACCEPTING"
    PENDING = "PENDING"
    VIOLATION = "VIOLATION"

    @property
    def exit_code(self) -> int:
        return {"ACCEPTING": 0, "PENDING": 1, "VIOLATION": 2}[self.value]


@dataclass(frozen=True)
class MonitorSession:
    spec: Regex
    frontier: frozenset[Regex]
    events_seen: int
    max_size_seen: int
    max_height_seen: int


def new_session(spec: Regex) -> MonitorSession:
    return MonitorSession(
        spec=spec,
        frontier=frozenset({spec}),
        events_seen=0,
        max_size_seen=size(spec),
        max_height_seen=height(spec),
    )


def step(session: MonitorSession, event: Symbol) -> MonitorSession:
    """Consume one event; on an empty frontier only the event count moves."""
    frontier = step_frontier(session.frontier, event)
    max_size = max([session.max_size_seen] + [size(e) for e in frontier])
    max_height = max([session.max_height_seen] + [height(e) for e in frontier])
    return dataclasses.replace(
        session,
        frontier=frontier,
        events_seen=session.events_seen + 1,
        max_size_seen=max_size,
        max_height_seen=max_height,
    )


def current_verdict(session: MonitorSession) -> Verdict:
    if not session.frontier:
        return Verdict.VIOLATION
    if any(has_eps(e) for e in session.frontier):
        return Verdict.ACCEPTING
    return Verdict.PENDING


@dataclass(frozen=True)
class TraceStats:
    """End-of-trace telemetry, including the space budgets never exceeded."""

    events: int
    verdict: Verdict
    max_size: int
    max_height: int
    size_budget: int
    height_budget: int
    frontier_history: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "events": self.events,
            "verdict": self.verdict.value,
            "maxSize": self.max_size,
            "maxHeight": self.max_height,
            "sizeBudget": self.size_budget,
            "heightBudget": self.height_budget,
            "frontierHistory": list(self.frontier_history),
        }


def run_trace(
    spec: Regex,
    trace: Sequence[Symbol],
    on_step: Callable[[Symbol, MonitorSession], None] | None = None,
) -> tuple[Verdict, TraceStats]:
    """Fold a whole trace through a fresh session and report statistics.

    ``on_step(event, session)``, when given, sees the session after each event.
    """
    session = new_session(spec)
    history = [len(session.frontier)]
    for event in trace:
        session = step(session, event)
        history.append(len(session.frontier))
        if on_step is not None:
            on_step(event, session)
    verdict = current_verdict(session)
    stats = TraceStats(
        events=session.events_seen,
        verdict=verdict,
        max_size=session.max_size_seen,
        max_height=session.max_height_seen,
        size_budget=size_budget(spec),
        height_budget=height_budget(spec),
        frontier_history=tuple(history),
    )
    return verdict, stats
