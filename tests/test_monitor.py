import random
import tracemalloc

import pytest
from hypothesis import given, settings

from derivmon import monitor as monitor_mod
from derivmon.corpus import file_descriptor_spec
from derivmon.monitor import (
    Monitor,
    Verdict,
    current_verdict,
    new_session,
    run_trace,
    step,
)
from derivmon.oracle import shuffle_words
from derivmon.syntax import EPS, Cat, Regex, parse
from strategies import regexes, words


class TestNewSession:
    def test_nullable_spec_starts_accepting(self):
        session = new_session(parse("a*"))
        assert session.frontier == {parse("a*")}
        assert current_verdict(session) is Verdict.ACCEPTING

    def test_plain_symbol_starts_pending(self):
        session = new_session(parse("a"))
        assert session.frontier == {parse("a")}
        assert current_verdict(session) is Verdict.PENDING

    def test_empty_language_is_pending_not_violated(self):
        # The frontier still holds the (dead) expression; only an empty
        # frontier is reported as a violation.
        session = new_session(parse("0"))
        assert current_verdict(session) is Verdict.PENDING

    def test_the_start_frontier_is_stored_once_when_it_fits(self, monkeypatch):
        spec = parse("(a b)*")
        monitor = Monitor(spec)
        assert monitor.kept == spec.size
        assert monitor.new_session().frontier is monitor.new_session().frontier
        monkeypatch.setattr(monitor_mod, "NODE_CAP", spec.size - 1)
        assert Monitor(spec).kept == 0


class TestStep:
    def test_star_pair(self):
        session = step(new_session(parse("a* b*")), "a")
        assert session.frontier == {parse("(eps a*) b*")}

    def test_file_sessions_take_the_right_projection(self):
        session = step(new_session(file_descriptor_spec(2)), "o2")
        assert session.frontier == {parse("o1 a1 c1 || eps a2 c2")}
        assert current_verdict(session) is Verdict.PENDING

    def test_empty_frontier_is_absorbing(self):
        session = step(new_session(parse("a")), "b")
        assert session.frontier == frozenset()
        again = step(session, "a")
        assert again.frontier == frozenset()
        assert again.events_seen == 2
        assert current_verdict(again) is Verdict.VIOLATION

    def test_counters_track_the_largest_member_seen(self):
        session = new_session(parse("((a*)*)*"))
        assert (session.max_size_seen, session.max_height_seen) == (4, 3)
        session = step(session, "a")
        assert session.max_size_seen == 13
        assert session.max_height_seen == 4


class TestCurrentVerdict:
    def test_accepting_after_full_word(self):
        session = new_session(parse("a* b*"))
        for event in ("a", "b"):
            session = step(session, event)
        assert current_verdict(session) is Verdict.ACCEPTING

    def test_violation_on_foreign_symbol(self):
        session = step(new_session(parse("a0 || a1")), "a2")
        assert current_verdict(session) is Verdict.VIOLATION

    def test_proper_prefix_is_pending(self):
        session = step(new_session(parse("a b")), "a")
        assert current_verdict(session) is Verdict.PENDING

    def test_pending_may_be_a_dead_end(self):
        # Nonempty frontier does not promise completability: after `a`
        # the remaining obligation contains an empty language.
        session = step(new_session(parse("a 0")), "a")
        assert session.frontier == {parse("eps 0")}
        assert current_verdict(session) is Verdict.PENDING


class TestRunTrace:
    def test_valid_interleaving_accepts(self):
        verdict, stats = run_trace(
            file_descriptor_spec(2), ("o1", "o2", "a2", "a1", "c1", "c2")
        )
        assert verdict is Verdict.ACCEPTING
        assert stats.events == 6

    def test_close_before_access_violates(self):
        sizes = []
        verdict, _ = run_trace(
            file_descriptor_spec(2), ("o1", "c1"), lambda _, session: sizes.append(len(session.frontier))
        )
        assert verdict is Verdict.VIOLATION
        assert sizes == [1, 0]

    def test_empty_trace_matches_fresh_session(self):
        for text in ("a*", "a", "0"):
            spec = parse(text)
            seen = []
            verdict, stats = run_trace(spec, (), lambda event, session: seen.append(event))
            assert verdict is current_verdict(new_session(spec))
            assert stats.events == 0
            assert seen == []

    def test_stats_json_shape(self):
        _, stats = run_trace(parse("a* b*"), ("a", "b"))
        record = stats.to_json_dict()
        assert set(record) == {
            "events",
            "verdict",
            "maxSize",
            "maxHeight",
            "sizeBudget",
            "heightBudget",
            "cache",
        }
        assert record["verdict"] == "ACCEPTING"
        # Both misses are stored: a* b* (5 nodes), (eps a*) b* (7) and eps b* (4).
        assert record["cache"] == {"hits": 0, "misses": 2, "kept": 16}

    def test_a_generator_trace_is_folded_in_constant_memory(self):
        # 10^5 events: a list of one size per event would peak near 1.5 MiB,
        # the fold's own state at a few KiB.
        spec = parse("(o a* c)* || (p q)*")
        events = (event for _ in range(20_000) for event in ("o", "a", "c", "p", "q"))
        tracemalloc.start()
        try:
            verdict, stats = run_trace(spec, events)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (verdict, stats.events) == (Verdict.ACCEPTING, 100_000)
        assert peak < 256 * 1024

    @given(regexes(max_leaves=6), words(max_len=4))
    @settings(max_examples=80)
    def test_on_step_sees_every_event_in_order(self, e, w):
        seen = []
        verdict, _ = run_trace(e, w, lambda event, session: seen.append((event, session)))
        assert [event for event, _ in seen] == list(w)
        assert [session.events_seen for _, session in seen] == list(range(1, len(w) + 1))
        assert [session.frontier for _, session in seen] == [s.frontier for s in fold(new_session(e), w)]
        if seen:
            assert current_verdict(seen[-1][1]) is verdict


LONG_N = 1200


@pytest.fixture(scope="module")
def long_sequence_run():
    """The sequence spec e0 e1 ... e1199 monitored on its one complete trace:
    its verdict, its stats and the frontier size after each event."""
    events = [f"e{i}" for i in range(LONG_N)]
    sizes = []
    verdict, stats = run_trace(
        parse(" ".join(events)), events, lambda _, session: sizes.append(len(session.frontier))
    )
    return verdict, stats, sizes


@pytest.fixture(scope="module")
def hundred_thousand_symbol_spec():
    """The text e0 e1 ... e99999 and its parse, which nests 100,000 deep."""
    text = " ".join(f"e{i}" for i in range(100_000))
    return text, parse(text)


class TestDeepSpecs:
    """Sequence specs e0 e1 ... e(n-1) nest n deep; nothing may recurse on depth."""

    def test_hundred_thousand_symbol_spec(self, hundred_thousand_symbol_spec):
        text, spec = hundred_thousand_symbol_spec
        assert spec == parse(text)
        session = new_session(spec)
        verdicts = []
        for event in ("e0", "e1", "e3"):
            session = step(session, event)
            verdicts.append(current_verdict(session))
        assert verdicts == [Verdict.PENDING, Verdict.PENDING, Verdict.VIOLATION]

    def test_each_event_builds_one_node_over_the_spec_suffix(self, hundred_thousand_symbol_spec):
        # Concatenation nests right, so after k events the one member is
        # eps followed by the spec's own k-th suffix, shared by identity.
        _, spec = hundred_thousand_symbol_spec
        session = new_session(spec)
        suffix = spec
        for k in range(5):
            session = step(session, f"e{k}")
            suffix = suffix.right
            (member,) = session.frontier
            assert type(member) is Cat and member.left is EPS and member.right is suffix

    def test_complete_trace_of_a_long_spec_accepts(self, long_sequence_run):
        n = LONG_N
        verdict, _, sizes = long_sequence_run
        assert verdict is Verdict.ACCEPTING
        assert sizes == [1] * n


def criterion_8_traces(count=60, seed=80908):
    """Valid file-session interleavings and mutated ones, as in criterion 8."""
    valid = sorted(shuffle_words(("o1", "a1", "c1"), ("o2", "a2", "c2")))
    rng = random.Random(seed)
    traces = []
    for _ in range(count):
        trace = list(rng.choice(valid))
        if rng.random() < 0.5:
            del trace[rng.randrange(len(trace))]
        elif rng.random() < 0.5:
            i = rng.randrange(len(trace) - 1)
            trace[i], trace[i + 1] = trace[i + 1], trace[i]
        traces.append(tuple(trace))
    return traces


def fold(session, trace):
    """The sessions after each event of ``trace``."""
    out = []
    for event in trace:
        session = step(session, event)
        out.append(session)
    return out


class TestMonitorCache:
    def test_shared_monitor_matches_fresh_sessions_on_criterion_8(self):
        spec = file_descriptor_spec(2)
        shared = Monitor(spec)
        for trace in criterion_8_traces():
            run = []
            verdict, _ = run_trace(spec, trace, lambda _, session: run.append(session))
            cached = fold(shared.new_session(), trace)
            fresh = fold(new_session(spec), trace)
            assert [s.frontier for s in cached] == [s.frontier for s in fresh]
            assert [current_verdict(s) for s in cached] == [current_verdict(s) for s in fresh]
            assert [s.frontier for s in run] == [s.frontier for s in cached]
            assert current_verdict(cached[-1]) is verdict
        assert shared.hits > shared.misses > 0

    def test_a_trace_of_new_frontiers_hits_nothing_within_the_cap(self, long_sequence_run):
        _, stats, _ = long_sequence_run
        assert (stats.cache_hits, stats.cache_misses) == (0, 1200)
        assert 0 < stats.cache_kept <= monitor_mod.NODE_CAP

    def test_recurring_transitions_are_kept_from_their_first_sighting(self):
        # Frontiers F0 = {(a b)*} -a-> F1 -b-> F2 -a-> F1 -b-> F2: the first
        # pass misses on (F0, a), (F1, b) and (F2, a), and hits on (F1, b).
        monitor = Monitor(parse("(a b)*"))
        fold(monitor.new_session(), "abab")
        assert (monitor.hits, monitor.misses) == (1, 3)
        # F0 (a b)* has 4 nodes, F1 (eps b) (a b)* 8 and F2 eps (a b)* 6.
        assert monitor.kept == 18
        fold(monitor.new_session(), "abab")
        assert (monitor.hits, monitor.misses) == (5, 3)
        fold(monitor.new_session(), "abab")
        assert (monitor.hits, monitor.misses) == (9, 3)

    def test_a_self_loop_is_charged_and_stored_once(self):
        # {a*} -a-> F1 = {eps a*} -a-> F1: the second miss is a self-loop
        # into a stored frontier, and the third step hits it.
        monitor = Monitor(parse("a*"))
        sessions = fold(monitor.new_session(), "aaa")
        # a* has 2 nodes and eps a* 4.
        assert (monitor.hits, monitor.misses, monitor.kept) == (1, 2, 6)
        assert sessions[2].frontier is sessions[1].frontier
        # {eps a*} steps to itself from the start, stored when the monitor is built.
        monitor = Monitor(parse("eps a*"))
        start = monitor.new_session()
        sessions = fold(start, "aaa")
        assert (monitor.hits, monitor.misses, monitor.kept) == (2, 1, 4)
        assert all(s.frontier is start.frontier for s in sessions)

    def test_a_transition_between_stored_frontiers_is_kept_at_a_full_cap(self, monkeypatch):
        # F0 = {(a + b)*} has 4 nodes and F1 = {eps (a + b)*} 6, so F0 -a-> F1
        # fills a cap of 10; F0 -b-> F1 adds nothing and is still stored.
        monkeypatch.setattr(monitor_mod, "NODE_CAP", 10)
        monitor = Monitor(parse("(a + b)*"))
        start = monitor.new_session()
        step(start, "a")
        assert (monitor.misses, monitor.kept) == (1, 10)
        step(start, "b")
        assert (monitor.hits, monitor.misses, monitor.kept) == (0, 2, 10)
        step(start, "b")
        assert (monitor.hits, monitor.misses, monitor.kept) == (1, 2, 10)

    def test_transitions_that_fit_are_stored_after_a_refusal(self, monkeypatch):
        # The start frontier {e0 ... e99 + (a b)*} alone passes a cap of 100,
        # so neither it nor its step is stored; F1 = {(eps b) (a b)*} (8 nodes)
        # -b-> F2 = {eps (a b)*} (6) and F2 -a-> F1 fit, and every later step
        # hits.
        monkeypatch.setattr(monitor_mod, "NODE_CAP", 100)
        monitor = Monitor(parse(" ".join(f"e{i}" for i in range(100)) + " + (a b)*"))
        fold(monitor.new_session(), "ab" * 20)
        assert (monitor.hits, monitor.misses, monitor.kept) == (37, 3, 14)
        assert len(monitor._table) == 2

    def test_a_refused_store_releases_the_builder(self):
        # A long sequence spec's frontiers never recur and pass the node
        # bound at once; a builder kept for the whole trace would hold a new
        # wrapper per event, about 2 MiB over these 5,000 events.
        text = " ".join(f"e{i}" for i in range(5000))
        spec = parse(text)
        events = (event for event in text.split())
        tracemalloc.start()
        try:
            verdict, _ = run_trace(spec, events)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict is Verdict.ACCEPTING
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "text, trace, counts",
        [
            ("(o a* c)* || (p q)*", "o a a c p q o c p o a q c p q".split() * 50, (735, 15, 186)),
            ("a* || b* || c*", "a b c b a c c b a".split() * 20, (174, 6, 44)),
        ],
    )
    def test_a_recurring_frontier_is_found_by_identity(self, monkeypatch, text, trace, counts):
        # Misses build through the monitor's builder, so a frontier equal to a
        # stored one holds the very same members and no lookup compares trees.
        calls, eq = [], Regex.__eq__
        monkeypatch.setattr(Regex, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
        _, stats = run_trace(parse(text), trace)
        assert len(calls) == 0
        assert (stats.cache_hits, stats.cache_misses, stats.cache_kept) == counts

    @pytest.mark.parametrize("cap", [0, 40, 10**6])
    def test_admission_limits_change_no_result(self, monkeypatch, cap):
        monkeypatch.setattr(monitor_mod, "NODE_CAP", cap)
        spec = file_descriptor_spec(2)
        shared = Monitor(spec)
        for trace in criterion_8_traces(count=40, seed=5):
            cached = fold(shared.new_session(), trace)
            fresh = fold(new_session(spec), trace)
            assert [s.frontier for s in cached] == [s.frontier for s in fresh]
            assert [current_verdict(s) for s in cached] == [current_verdict(s) for s in fresh]
            assert shared.kept <= cap
            assert len(shared._table) <= cap
            # A transition links two stored frontiers, each charged once.
            stored = shared._frontiers
            for (source, _), (target, *_) in shared._table.items():
                assert stored.get(source) is source and stored.get(target) is target
            assert shared.kept == sum(e.size for frontier in stored for e in frontier)

    def test_distinct_events_after_a_violation_fill_no_more_than_the_cap(self, monkeypatch):
        # Transitions into the stored empty frontier add no nodes, so only
        # the entry bound keeps a flood of new events from growing the table.
        monkeypatch.setattr(monitor_mod, "NODE_CAP", 50)
        monitor = Monitor(parse("a b"))
        trace = [f"x{i}" for i in range(200)]
        session = fold(monitor.new_session(), trace)[-1]
        assert len(monitor._table) <= monitor_mod.NODE_CAP
        assert current_verdict(session) is Verdict.VIOLATION
        assert session.events_seen == len(trace)
