import dataclasses

import pytest
from hypothesis import given, settings

from derivmon import automaton, bounds, derivative, monitor, partial
from derivmon.automaton import Nfa, build_nfa
from derivmon.check import agreement_problem, bounds_problem, problem
from derivmon.corpus import GenConfig, file_descriptor_spec, gen_corpus
from derivmon.syntax import Empty, Or, alphabet, height, parse, size
from strategies import all_regexes, regexes


def test_agreement_problem_names_the_shortest_failing_word(monkeypatch):
    deriver = derivative.deriver
    monkeypatch.setattr(
        derivative,
        "deriver",
        lambda: lambda e, symbol: Empty() if symbol == "b" else deriver()(e, symbol),
    )
    e = parse("(a + b)*")
    # ('a', 'b') has the full length, so it is a leaf: it reads the
    # acceptor's live walk, not the broken one, and passes; ('b',) fails.
    assert agreement_problem(e, build_nfa(e), ("a", "b"), 2) == (
        "derivative disagrees with oracle on ('b',)"
    )


def test_agreement_problem_reads_leaf_words_through_the_acceptor(monkeypatch):
    monkeypatch.setattr(derivative, "acceptor", lambda: lambda e, word: False)
    e = parse("(a + b)*")
    # Only the words of length 2 are leaves; ('b',) still derives after
    # ('a', 'a') fails, and passes.
    assert agreement_problem(e, build_nfa(e), ("a", "b"), 2) == (
        "derivative disagrees with oracle on ('a', 'a')"
    )


def test_agreement_problem_shares_one_acceptor_across_the_trie(monkeypatch):
    made, acceptor = [], derivative.acceptor
    monkeypatch.setattr(derivative, "acceptor", lambda: made.append(1) or acceptor())
    e = parse("(a + b)* a")
    assert agreement_problem(e, build_nfa(e), ("a", "b"), 3) is None
    assert made == [1]


def test_agreement_problem_names_an_nfa_that_disagrees():
    e = parse("a*")
    nfa = dataclasses.replace(build_nfa(e), finals=frozenset())
    assert agreement_problem(e, nfa, ("a",), 2) == "NFA disagrees with oracle on ()"


def test_agreement_problem_names_a_frontier_that_disagrees(monkeypatch):
    monkeypatch.setattr(monitor, "step_frontier", lambda frontier, event, make=None: frozenset())
    e = parse("a*")
    assert agreement_problem(e, build_nfa(e), ("a",), 2) == (
        "partial derivatives disagree with oracle on ('a',)"
    )


def test_problem_names_a_closure_past_the_cap(monkeypatch):
    build = automaton.build_nfa
    monkeypatch.setattr(automaton, "build_nfa", lambda e, cap: build(e, cap=10))
    assert problem(file_descriptor_spec(3), 1) == "closure blow-up"


@pytest.mark.parametrize("text", ["a b", "(a b)*", "a* || b"])
def test_problem_compares_the_monitor_members_with_the_budgets(monkeypatch, text):
    # Each wrapping keeps the language, nullability and first mask, so only
    # the comparisons of the largest size and height with the budgets of e
    # can see it: d + d + ... past size 200 breaks both budgets, and
    # (d + 0) + 0, two levels higher and 4 nodes larger, the height budget
    # alone.  The NFA's build steps by every symbol at once and never calls
    # monitor.step_frontier, so no other check can.
    def bloated(d):
        while d.size <= 200:
            d = Or(d, d)
        return d

    def raised(d):
        return Or(Or(d, Empty()), Empty())

    def wrapped(frontier, event, make=None):
        return frozenset(map(wrap, step(frontier, event)))

    step = monitor.step_frontier
    monkeypatch.setattr(monitor, "step_frontier", wrapped)
    for wrap in (bloated, raised):
        assert problem(parse(text), 3) == "monitor disagrees with oracle on ('a',)", wrap.__name__


def test_agreement_problem_compares_the_largest_member_with_the_size_budget(monkeypatch):
    # `a` steps e to eps, widened here to d + d + ... past the size budget
    # (127 nodes against 72) at height 6, under the height budget of 7, so
    # of the monitor's checks only the size comparison can see it.
    e = parse("a + ((((b*)*)*)*)*")
    s_cap, h_cap = bounds.size_budget(e), bounds.height_budget(e)
    seen = []

    def widened(frontier, event, make=None):
        members = []
        for d in step(frontier, event):
            while d.size <= s_cap:
                d = Or(d, d)
            members.append(d)
        seen.extend(members)
        return frozenset(members)

    step = monitor.step_frontier
    monkeypatch.setattr(monitor, "step_frontier", widened)
    assert agreement_problem(e, build_nfa(e), ("a",), 1) == "monitor disagrees with oracle on ('a',)"
    assert [(d.size, d.height) for d in seen] == [(127, 6)] and (s_cap, h_cap) == (72, 7)


def test_agreement_problem_names_the_shortest_word_a_stale_verdict_breaks(monkeypatch):
    step = monitor.step

    def stale_on_hit(session, event):
        hits = session.monitor.hits
        after = step(session, event)
        if session.monitor.hits == hits:
            return after
        return monitor.MonitorSession(
            after.monitor,
            after.frontier,
            after.events_seen,
            after.max_size_seen,
            after.max_height_seen,
            session.verdict,
        )

    monkeypatch.setattr(monitor, "step", stale_on_hit)
    e = parse("a* b*")
    # The step from {eps b*} by a is stored on its second sighting, at
    # ('a', 'b', 'a'); ('a', 'b', 'b', 'a') is the first hit to keep the
    # ACCEPTING verdict, and ('b', 'a') the shortest.
    assert agreement_problem(e, build_nfa(e), ("a", "b"), 4) == (
        "monitor disagrees with oracle on ('b', 'a')"
    )


@given(regexes())
@settings(max_examples=500, deadline=None)
def test_random_expressions_have_no_problem(e):
    assert problem(e, 4) is None


def test_every_small_expression_has_no_problem():
    # All 7,896 trees of up to 6 nodes over a and b, shuffle included, so
    # every small nondeterministic shape goes through the walk and the build.
    trees = all_regexes(6)
    assert len(trees) == 7896
    assert [(str(e), found) for e in trees if (found := problem(e, 3))] == []


class TestDeepInputs:
    # Both are deeper than the default recursion limit.
    def test_a_long_sequence_spec_has_no_problem(self):
        assert problem(parse(" ".join("abc"[i % 3] for i in range(1200))), 2) is None

    def test_a_shuffle_with_a_long_union_has_no_problem(self):
        assert problem(parse("(a b)* || " + " + ".join(["a"] * 3000)), 4) is None


# The checker that re-derived every state by every symbol of ``e`` before
# it read the NFA's edges, kept as the reference.


def reference_bounds_problem(e, nfa):
    if not 0 <= bounds.height_increment_bound(e) <= 1:
        return "height budget out of range"
    if not 0 <= bounds.size_increment_bound(e) <= size(e) ** 2:
        return "size budget out of range"
    h_cap, s_cap = bounds.height_budget(e), bounds.size_budget(e)
    symbols = sorted(alphabet(e))
    for state in nfa.states:
        if height(state) > h_cap:
            return "height bound exceeded"
        if size(state) > s_cap:
            return "size bound exceeded"
        for symbol in symbols:
            if not all(r.holds for r in bounds.check_height_invariant(state, symbol)):
                return "height invariant broken"
            if not all(r.holds for r in bounds.check_size_invariant(state, symbol)):
                return "size invariant broken"
    return None


_height, _size = bounds.height_increment_bound, bounds.size_increment_bound

# The real budgets, then budgets forced low enough that the invariants,
# and sometimes the ranges, break.
BUDGETS = {
    "unpatched": (_height, _size),
    "size-1": (_height, lambda e: _size(e) - 1),
    "height0": (lambda e: 0, _size),
    "both": (lambda e: 0, lambda e: _size(e) - 1),
    "size//2": (_height, lambda e: _size(e) // 2),
}


class TestBoundsProblem:
    @pytest.mark.parametrize("budgets", BUDGETS.values(), ids=BUDGETS.keys())
    @given(e=regexes(max_leaves=6))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_rederiving_reference(self, budgets, e):
        nfa = build_nfa(e)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "height_increment_bound", budgets[0])
            mp.setattr(bounds, "size_increment_bound", budgets[1])
            assert bounds_problem(e, nfa) == reference_bounds_problem(e, nfa)

    @pytest.mark.parametrize(
        "name, budget, message",
        [
            ("height_increment_bound", lambda e: 2, "height budget out of range"),
            ("height_budget", lambda e: e.height - 1, "height bound exceeded"),
            ("size_budget", lambda e: e.size - 1, "size bound exceeded"),
        ],
        ids=["height-range", "height-cap", "size-cap"],
    )
    def test_names_the_budget_or_cap_it_breaks(self, monkeypatch, name, budget, message):
        # Each patch breaks one check alone: a budget out of its range, or a
        # cap one below the height or size of e, the initial state.
        e = parse("a b || c")
        nfa = build_nfa(e)
        monkeypatch.setattr(bounds, name, budget)
        assert bounds_problem(e, nfa) == message

    def test_reads_the_edges_and_derives_nothing(self, monkeypatch):
        corpus = gen_corpus(GenConfig(seed=0), 200) + [file_descriptor_spec(3)]
        nfas = [build_nfa(e) for e in corpus]

        def refuse(*args):
            raise AssertionError("bounds_problem derived a step again")

        monkeypatch.setattr(partial, "step_frontier", refuse)  # every step goes through it
        monkeypatch.setattr(bounds, "check_height_invariant", refuse)
        monkeypatch.setattr(bounds, "check_size_invariant", refuse)
        for e, nfa in zip(corpus, nfas):
            assert bounds_problem(e, nfa) is None

    def test_an_edge_that_grows_size_plus_budget_breaks_the_invariant(self):
        # Both states are within the caps of the first, and the edge keeps
        # height + budget at 2 while size + budget goes from 5 to 7.
        source, target = parse("a b c"), parse("(a + b) (c + a)")
        nfa = Nfa((source, target), 0, ({"a": 1}, {}), frozenset())
        assert bounds_problem(source, nfa) == "size invariant broken"
