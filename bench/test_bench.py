"""Tests of the benchmark itself: its exact counts are deterministic.

Run from the root of the source tree::

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Counts that must be nonzero on each workload, so that repeating them
# exactly means something.
EXERCISED = {
    "stream-star": ("monitor.transition_reuse", "syntax.metric_nodes", "partial.members_out"),
    "stream-deep": ("monitor.step_calls", "syntax.metric_nodes", "partial.members_out"),
    "check-corpus": ("derivative.max_size", "automaton.states", "automaton.transitions"),
    "nfa-build": ("automaton.states", "automaton.transitions", "automaton.accepts_events"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_for_a_seed_and_follow_it(name):
    first = run.count_run(name, seed=11)
    again = run.count_run(name, seed=11)
    other = run.count_run(name, seed=12)
    assert first == again
    assert first != other
    for key in EXERCISED[name]:
        assert first[key] > 0, key


def test_raw_derivative_size_model_matches_the_engine():
    dm = run.load_library()
    cfg = dm.corpus.GenConfig(max_size=15, alphabet_size=3, shuffle_enabled=True, seed=3)
    for e in dm.corpus.gen_corpus(cfg, 200):
        sizes = workloads.raw_derivative_sizes(e, steps=3)
        d = e
        for k, symbol in enumerate(("", "a", "b", "a")):
            if symbol:
                d = dm.derivative.derive(d, symbol)
            assert dm.syntax.size(d) == sizes[k]
