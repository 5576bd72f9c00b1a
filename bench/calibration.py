"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of the processor drifts by
up to a factor of two for minutes at a time, and it also jitters from
one millisecond to the next.  The benchmark therefore runs many short
probes of a fixed load after every pass, for a tenth of the pass's time,
and takes their median as the run's machine speed.  Timings are reported
at the speed at which one probe takes :data:`REFERENCE_S` seconds.

The load is a miniature partial-derivative stepper over this module's
own node classes, so that its mix of pattern matching, frozen-dataclass
hashing, frozenset unions, recursion, string rendering and sorting
resembles derivmon's; it imports nothing from derivmon, so a change to
derivmon cannot move it.  The correction is partial: on this host the
probes and derivmon's work slow down together, but not in proportion.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.015
SHARE = 0.1  # probe time per second of measured work
MIN_PROBES = 3


@dataclass(frozen=True)
class _Eps:
    pass


@dataclass(frozen=True)
class _Sym:
    name: str


@dataclass(frozen=True)
class _Cat:
    left: object
    right: object


@dataclass(frozen=True)
class _Star:
    body: object


@dataclass(frozen=True)
class _Shuffle:
    left: object
    right: object


def _nullable(e) -> bool:
    match e:
        case _Eps() | _Star():
            return True
        case _Cat(left, right) | _Shuffle(left, right):
            return _nullable(left) and _nullable(right)
    return False


def _size(e) -> int:
    match e:
        case _Cat(left, right) | _Shuffle(left, right):
            return _size(left) + _size(right) + 1
        case _Star(body):
            return _size(body) + 1
    return 1


def _step(e, symbol: str) -> frozenset:
    match e:
        case _Sym(name):
            return frozenset({_Eps()}) if name == symbol else frozenset()
        case _Cat(left, right):
            out = {_Cat(d, right) for d in _step(left, symbol)}
            return frozenset(out | _step(right, symbol)) if _nullable(left) else frozenset(out)
        case _Star(body):
            return frozenset({_Cat(d, e) for d in _step(body, symbol)})
        case _Shuffle(left, right):
            lefts = {_Shuffle(d, right) for d in _step(left, symbol)}
            return frozenset(lefts | {_Shuffle(left, d) for d in _step(right, symbol)})
    return frozenset()


def _format(e) -> str:
    match e:
        case _Sym(name):
            return name
        case _Cat(left, right):
            return f"({_format(left)} {_format(right)})"
        case _Shuffle(left, right):
            return f"({_format(left)} || {_format(right)})"
        case _Star(body):
            return f"{_format(body)}*"
    return "eps"


def _chain(n: int):
    e = _Sym("e0")
    for i in range(1, n):
        e = _Cat(e, _Sym(f"e{i}"))
    return e


_LOOPS = _Shuffle(
    _Star(_Cat(_Cat(_Sym("o"), _Star(_Sym("a"))), _Sym("c"))),
    _Star(_Cat(_Sym("p"), _Sym("q"))),
)
_RUNS = (
    (_LOOPS, "o p a q a a p c q o c".split() * 3),
    (_chain(40), [f"e{i}" for i in range(40)]),
)


def probe_s() -> float:
    """Seconds taken by the fixed load: two frontiers stepped through
    their traces; at every step each member is sized, rendered, sorted
    and numbered in a dict."""
    started = perf_counter()
    for spec, trace in _RUNS:
        frontier = frozenset({spec})
        numbers = {spec: 0}
        for symbol in trace:
            frontier = frozenset().union(*(_step(e, symbol) for e in frontier))
            max(map(_size, frontier))
            for e in sorted(frontier, key=_format):
                numbers.setdefault(e, len(numbers))
    return perf_counter() - started


def probe(work_s: float, at_least: int = MIN_PROBES) -> list[float]:
    """Probe times for a share of ``work_s`` seconds of work, at least
    ``at_least`` of them."""
    times: list[float] = []
    while len(times) < at_least or sum(times) < SHARE * work_s:
        times.append(probe_s())
    return times


def slowdown(times: list[float]) -> float:
    """Machine slowdown over the probes' span (1 = reference speed)."""
    return statistics.median(times) / REFERENCE_S
