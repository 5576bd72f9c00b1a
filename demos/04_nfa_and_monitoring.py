"""Exponentially many NFA states, each small, and online trace monitoring.

Run with: python demos/04_nfa_and_monitoring.py
"""

import json

from derivmon import format_regex, parse, size
from derivmon.automaton import build_nfa
from derivmon.bounds import size_budget
from derivmon.corpus import file_descriptor_spec
from derivmon.monitor import Monitor, new_session, run_trace, step
from derivmon.oracle import shuffle_words

# The reachable partial derivatives of an expression form an NFA: the
# expression is the initial state, steps are transitions, nullable states
# are final.
nfa = build_nfa(parse("a* b*"))
print(json.dumps(nfa.to_json_dict(), indent=2))
print()

# Interleaving independent event sessions blows the state count up
# exponentially (4 states per open/access/close session)...
print("sessions  states  largest-state-size  quadratic-cap")
for n in range(1, 5):
    spec = file_descriptor_spec(n)
    states = build_nfa(spec).states
    largest = max(size(s) for s in states)
    print(f"{n:8d}  {len(states):6d}  {largest:18d}  {size_budget(spec):13d}")
print("... while every single state stays quadratically small.")
print(f"(4 sessions: {len(build_nfa(file_descriptor_spec(4)).states)} states)")
print()

# A monitor therefore never materializes the automaton.  It keeps only the
# current frontier and rewrites it event by event.
spec = file_descriptor_spec(2)
print("monitoring:", format_regex(spec))
session = new_session(spec)
for event in ("o1", "o2", "a2", "a1", "c1", "c2"):
    session = step(session, event)
    print(f"  {event} -> {session.verdict.value:9}  frontier size {len(session.frontier)}")
print()

# Closing a file before accessing it empties the frontier: no continuation
# can repair the trace, which is exactly the violation signal.
# The monitor keeps no per-event record; on_step sees each event's session.
history = [len(new_session(spec).frontier)]
verdict, stats = run_trace(
    spec, ("o1", "c1", "o2"), lambda _, session: history.append(len(session.frontier))
)
print("bad trace o1 c1 o2 ->", verdict.value)
print("frontier history:   ", history)
print("space telemetry:     max size", stats.max_size, "of budget", stats.size_budget,
      "| max height", stats.max_height, "of budget", stats.height_budget)
print("transition cache:    hits", stats.cache_hits, "| misses", stats.cache_misses)
print()

# A Monitor builds the automaton lazily instead: it stores each
# (frontier, event) transition the first time a session takes it, so
# sessions sharing one Monitor soon step by table lookup alone.
monitor = Monitor(spec)
traces = sorted(shuffle_words(("o1", "a1", "c1"), ("o2", "a2", "c2")))
verdicts = set()
for trace in traces * 3:
    session = monitor.new_session()
    for event in trace:
        session = step(session, event)
    verdicts.add(session.verdict.value)
print(f"{3 * len(traces)} valid traces through one Monitor: verdicts {sorted(verdicts)}")
print(f"  hits {monitor.hits}, misses {monitor.misses}, nodes kept {monitor.kept}")

