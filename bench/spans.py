"""In-memory span recording for the traced benchmark run.

A span is one call into a derivmon public function: its name, start and
end (``perf_counter_ns``) and the index of the enclosing span.  Spans
come from two places:

* calls the benchmark itself makes, through the wrapped functions that
  :func:`api` hands to the workloads;
* calls one derivmon module makes into another, by rebinding the
  imported name in the calling module's namespace (for example
  ``derivmon.monitor.step_frontier``).  Recursion inside a module goes
  through that module's own globals and is therefore never intercepted.

Untraced runs use :func:`api` without a tracer and rebind nothing.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Callable

# Imported names rebound in the calling module: (module, name, span name).
# ``syntax.metrics`` groups the size/height/has_eps calls made by monitor.
REBOUND = (
    ("monitor", "step_frontier", "partial.step_frontier"),
    ("monitor", "size", "syntax.metrics"),
    ("monitor", "height", "syntax.metrics"),
    ("monitor", "has_eps", "syntax.metrics"),
    ("automaton", "partial_derivatives", "automaton.pd"),
    ("automaton", "format_regex", "automaton.order"),
)


class Tracer:
    """Collects spans and the exact counts observed while ``counting`` is set."""

    def __init__(self, raw: SimpleNamespace) -> None:
        self.raw = raw  # untraced functions, for the bookkeeping of exact counts
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counting = False
        self.calls: dict[str, dict[str, float]] = {}  # summary of the counting pass
        self.counts: Counter[str] = Counter()
        self.extrema: dict[str, int] = {}

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``observe(args, result)`` runs
        after the span closes, and only while ``counting`` is set."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(index)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if observe is not None and self.counting:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value: int) -> None:
        self.extrema[key] = max(value, self.extrema.get(key, value))

    def minimum(self, key: str, value: int) -> None:
        self.extrema[key] = min(value, self.extrema.get(key, value))

    def mark(self) -> int:
        """Index of the next span, for splitting spans into phases."""
        return len(self.start)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total minus
        the time covered by direct child spans), over spans ``lo:hi``."""
        hi = len(self.start) if hi is None else hi
        child_ns = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child_ns[p - lo] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(lo, hi):
            row = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[i - lo]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: index, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


def api(dm: SimpleNamespace, tracer: Tracer | None = None) -> SimpleNamespace:
    """The derivmon functions the workloads call, wrapped when tracing.

    With a tracer this also rebinds the names in :data:`REBOUND` (again
    wrapping the original function if they are already rebound); the
    modules in ``dm`` are then traced for the rest of the process.
    """
    direct = {
        "parse": dm.syntax.parse,
        "size": dm.syntax.size,
        "height": dm.syntax.height,
        "alphabet": dm.syntax.alphabet,
        "new_session": dm.monitor.new_session,
        "step": dm.monitor.step,
        "current_verdict": dm.monitor.current_verdict,
        "size_budget": dm.bounds.size_budget,
        "height_budget": dm.bounds.height_budget,
        "height_increment_bound": dm.bounds.height_increment_bound,
        "size_increment_bound": dm.bounds.size_increment_bound,
        "check_height_invariant": dm.bounds.check_height_invariant,
        "check_size_invariant": dm.bounds.check_size_invariant,
        "closure": dm.partial.closure,
        "partial_accepts": dm.partial.accepts,
        "derivative_accepts": dm.derivative.accepts,
        "derive_word": dm.derivative.derive_word,
        "lang_up_to": dm.oracle.lang_up_to,
        "build_nfa": dm.automaton.build_nfa,
        "nfa_accepts": dm.automaton.Nfa.accepts,
        "gen_corpus": dm.corpus.gen_corpus,
        "GenConfig": dm.corpus.GenConfig,
        "file_descriptor_spec": dm.corpus.file_descriptor_spec,
        "Verdict": dm.monitor.Verdict,
    }
    if tracer is None:
        return SimpleNamespace(**direct)

    size = dm.syntax.size
    t = tracer

    def members_out(args, frontier):
        t.count("partial.members_out", len(frontier))

    def metric_nodes(args, result):
        t.count("syntax.metric_nodes", size(args[0]))

    def nfa_built(args, nfa):
        t.count("automaton.states", len(nfa.states))
        t.count("automaton.transitions", len(nfa.transitions))

    def accepted_events(args, result):
        t.count("automaton.accepts_events", len(args[1]))

    observers = {
        "partial.step_frontier": members_out,
        "syntax.metrics": metric_nodes,
    }
    for module, name, span in REBOUND:
        mod = getattr(dm, module)
        original = getattr(mod, name)
        original = getattr(original, "__wrapped__", original)
        setattr(mod, name, t.wrap(span, original, observers.get(span)))

    spans = {
        "parse": ("syntax.parse", None),
        "size": ("syntax.size", None),
        "height": ("syntax.height", None),
        "alphabet": ("syntax.alphabet", None),
        "new_session": ("monitor.new_session", None),
        "step": ("monitor.step", None),
        "current_verdict": ("monitor.verdict", None),
        "size_budget": ("bounds.budget", None),
        "height_budget": ("bounds.budget", None),
        "height_increment_bound": ("bounds.budget", None),
        "size_increment_bound": ("bounds.budget", None),
        "check_height_invariant": ("bounds.invariant", None),
        "check_size_invariant": ("bounds.invariant", None),
        "closure": ("partial.closure", None),
        "partial_accepts": ("partial.accepts", None),
        "derivative_accepts": ("derivative.accepts", None),
        "lang_up_to": ("oracle.lang", None),
        "build_nfa": ("automaton.build", nfa_built),
        "nfa_accepts": ("automaton.accepts", accepted_events),
        "gen_corpus": ("corpus.gen", None),
        "file_descriptor_spec": ("corpus.gen", None),
    }
    wrapped = dict(direct)
    for key, (span, observe) in spans.items():
        wrapped[key] = t.wrap(span, direct[key], observe)
    return SimpleNamespace(**wrapped)
