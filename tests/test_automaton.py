import hashlib
import json
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings

from derivmon.automaton import Nfa, build_nfa
from derivmon.corpus import GenConfig, file_descriptor_spec, gen_corpus
from derivmon.errors import CapacityError
from derivmon.partial import partial_derivatives
from derivmon.syntax import Shuffle, alphabet, format_regex, has_eps, parse, subterms
from strategies import branching_regexes, regexes

SHARED = parse("a || b")


class TestBuildNfa:
    def test_single_symbol(self):
        nfa = build_nfa(parse("a"))
        assert len(nfa.states) == 2
        assert nfa.transitions == ((0, "a", 1),)
        assert nfa.finals == {1}

    def test_empty_language(self):
        nfa = build_nfa(parse("0"))
        assert len(nfa.states) == 1
        assert nfa.transitions == ()
        assert nfa.finals == frozenset()

    def test_initial_state_is_the_expression(self):
        e = parse("a* b")
        nfa = build_nfa(e)
        assert nfa.initial == 0
        assert nfa.states[0] == e

    def test_cap_is_enforced(self):
        with pytest.raises(CapacityError):
            build_nfa(file_descriptor_spec(3), cap=10)

    def test_successors_are_ordered_by_their_text(self):
        # Two steps with four successors each; set iteration order varies
        # with the process's string hashing, the rendered order does not.
        spec = "(a b + a c + a d + a e)*"
        assert build_nfa(parse(spec)).to_json_dict() == {
            "states": [spec] + [f"(eps {x}) {spec}" for x in "bcde"] + [f"eps {spec}"],
            "initial": 0,
            "finals": [0, 5],
            "transitions": [[0, "a", 1], [0, "a", 2], [0, "a", 3], [0, "a", 4]]
            + [[1, "b", 5], [2, "c", 5], [3, "d", 5], [4, "e", 5]]
            + [[5, "a", 1], [5, "a", 2], [5, "a", 3], [5, "a", 4]],
        }
        # Both four-target steps name the one tuple the build interns.
        nfa = build_nfa(parse(spec))
        assert nfa.successors[0]["a"] == nfa.successors[5]["a"] == ~1
        assert nfa.choices == ((), (1, 2, 3, 4))

    def test_equal_subterms_of_states_are_one_object(self):
        # One node builder per build: 365 distinct subterms (336 shuffles of
        # reachable session positions, 7 nodes per session, and eps), 527
        # objects without it.
        nfa = build_nfa(file_descriptor_spec(4))
        nodes = {id(node): node for state in nfa.states for node in subterms(state)}
        assert len(nodes) == len(set(nodes.values())) == 365

    @given(regexes(max_leaves=6))
    @settings(max_examples=60)
    def test_transitions_mirror_partial_derivatives_and_finals_nullability(self, e):
        assert_mirrors_partial_derivatives(e)

    @pytest.mark.parametrize(
        "e",
        [
            parse("a* a || a"),  # a nullable concatenation whose two factors both step
            parse("(a + eps) (a || b)"),
            parse("(a + a b)* a"),
            parse("(a + b) (a + (b + a)) || (a + b)*"),  # union chains nested both ways
            parse("a 0 || b"),  # a live left factor before 0
            parse("(a* || a* || a*)*"),
            # Shuffles with two live sides inside a wrapper: the walk keeps
            # their pairs in the build's memo and re-wraps them on each visit.
            parse("((a || b) || c) d"),
            parse("((a || b*) || c)*"),
            file_descriptor_spec(3),
            Shuffle(SHARED, SHARED),  # one object on both sides: read back in the same step
        ],
        ids=format_regex,
    )
    def test_branching_and_memo_cases_mirror_partial_derivatives(self, e):
        assert_mirrors_partial_derivatives(e)

    def test_large_alphabets_build_quickly(self):
        # One step per state by every symbol at once: the work per state
        # grows neither with the 20,000 symbols of a sequence nor with the
        # 10,000 branches of a union, and acceptance walks the build's
        # successor maps.  The wall bound is generous; a build that steps
        # each state by each symbol in turn misses it.
        started = time.perf_counter()
        sequence = tuple(f"e{i}" for i in range(20000))
        nfa = build_nfa(parse(" ".join(sequence)))
        assert len(nfa.states) == 20001
        assert nfa.accepts(sequence)
        nfa = build_nfa(parse(" + ".join(f"a b{i}" for i in range(10000))))
        assert len(nfa.states) == 10002
        assert nfa.accepts(("a", "b9999"))
        assert time.perf_counter() - started < 10


def assert_mirrors_partial_derivatives(e):
    """Each state's transitions are its partial derivatives by each symbol,
    and the finals are exactly the nullable states."""
    nfa = build_nfa(e)
    assert len(set(nfa.states)) == len(nfa.states)
    listed = {}
    for source, symbol, target in nfa.transitions:
        listed.setdefault((source, symbol), set()).add(nfa.states[target])
    for index, state in enumerate(nfa.states):
        for symbol in alphabet(e):
            expected = partial_derivatives(state, symbol)
            assert listed.get((index, symbol), set()) == set(expected)
        assert (index in nfa.finals) == has_eps(state)


class TestNfaAccepts:
    def test_star_pair(self):
        assert build_nfa(parse("a* b*")).accepts(("a", "a", "b"))

    def test_single_symbol_rejects_empty(self):
        assert not build_nfa(parse("a")).accepts(())

    def test_shuffle(self):
        assert build_nfa(parse("a0 || a1")).accepts(("a0", "a1"))

    def test_memory_is_linear_in_the_transitions(self):
        # The walk reads the build's successor maps and allocates no index
        # of its own: one pointer per symbol and state would take about
        # 123 MiB here, 4,000 symbols by 4,001 states.
        sequence = tuple(f"e{i}" for i in range(4000))
        nfa = build_nfa(parse(" ".join(sequence)))
        tracemalloc.start()
        try:
            assert nfa.accepts(sequence)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


    def test_a_subset_ends_dies_or_narrows_to_one_state(self):
        # `a` steps `a + a b` to eps and `eps b`, and `(a b + a c) d*` to
        # two states that each step by their own symbol to one state that
        # loops on `d`.
        nfa = build_nfa(parse("a + a b"))
        assert nfa.successors[0]["a"] < 0
        assert nfa.accepts(("a",))  # the word ends in the subset
        assert nfa.accepts(("a", "b"))
        nfa = build_nfa(parse("(a b + a c) d*"))
        assert len(nfa.choices[~nfa.successors[0]["a"]]) == 2
        assert not nfa.accepts(("a", "d"))  # a dead step: neither member steps by d
        assert not nfa.accepts(("a", "z"))  # nor by a symbol of no map
        tail = ("d",) * 10000
        assert nfa.accepts(("a", "b") + tail)
        assert nfa.accepts(("a", "c") + tail)
        assert not nfa.accepts(("a", "b") + tail + ("b",))
        # A member of the subset {eps (b c + b d), eps e} steps by `b` to a
        # choice of its own.
        nfa = build_nfa(parse("a (b c + b d) + a e"))
        assert nfa.accepts(("a", "b", "d"))
        assert nfa.accepts(("a", "e"))

    @given(branching_regexes(alphabet=("a", "b"), max_leaves=8))
    @settings(max_examples=300)
    def test_accepts_is_a_subset_simulation_over_the_transitions(self, e):
        # Every word up to length 4 over a, b and the foreign c: a random
        # word seldom takes two choices in a row, so it would miss a subset
        # member's own choice.  Each subset is its prefix's stepped once.
        nfa = build_nfa(e)
        pending = [((), {nfa.initial})]
        while pending:
            word, current = pending.pop()
            assert nfa.accepts(word) == (not current.isdisjoint(nfa.finals)), word
            if len(word) < 4:
                for symbol in ("a", "b", "c"):
                    after = {t for s, label, t in nfa.transitions if s in current and label == symbol}
                    pending.append((word + (symbol,), after))


class TestDeterminism:
    def test_golden_json(self):
        nfa = build_nfa(parse("a* b*"))
        assert nfa.to_json_dict() == {
            "states": ["a* b*", "(eps a*) b*", "eps b*"],
            "initial": 0,
            "finals": [0, 1, 2],
            "transitions": [
                [0, "a", 1],
                [0, "b", 2],
                [1, "a", 1],
                [1, "b", 2],
                [2, "b", 2],
            ],
        }

    def test_numbering_and_edge_order_are_pinned(self):
        # A SHA-256 over the JSON of fd(1..4) and 100 corpus expressions per
        # seed 0-2, with and without shuffle, recorded from a known-good
        # build: a change to the state numbering, the edge order or the
        # rendered states changes it.
        specs = [file_descriptor_spec(n) for n in range(1, 5)]
        for seed in range(3):
            for shuffle in (True, False):
                specs += gen_corpus(GenConfig(seed=seed, shuffle_enabled=shuffle), 100)
        digest = hashlib.sha256()
        for e in specs:
            digest.update(json.dumps(build_nfa(e).to_json_dict()).encode())
        assert digest.hexdigest() == "a6b1674dde2b527460b39b44eb11ab4f2291a9703ac43d14d4a17c2f0439f679"

    def test_dot_output_mentions_every_state(self):
        dot = build_nfa(parse("a b")).to_dot()
        assert dot.startswith("digraph")
        assert dot.count("doublecircle") == 1
        assert 'label="a"' in dot


def test_accepts_walks_the_successor_maps():
    nfa = Nfa(
        states=(parse("a"), parse("eps")),
        initial=0,
        successors=({"a": 1}, {}),
        finals=frozenset({1}),
    )
    assert nfa.accepts(("a",))
    assert not nfa.accepts(("a", "a"))
    # Nondeterministic: `a` leads to a two-state subset, the interned
    # choice ~1, whose members share their `b` target, and only the second
    # member steps by `c`.
    nfa = Nfa(
        states=tuple(parse(text) for text in ("a b + a (b + c)", "b", "b + c", "eps")),
        initial=0,
        successors=({"a": ~1}, {"b": 3}, {"b": 3, "c": 3}, {}),
        finals=frozenset({3}),
        choices=((), (1, 2)),
    )
    assert nfa.accepts(("a", "b"))
    assert nfa.accepts(("a", "c"))
    assert not nfa.accepts(("d",))
    assert not nfa.accepts(("a", "a"))
    assert not nfa.accepts(())
    assert replace(nfa, initial=3).accepts(())
    edges = [[0, "a", 1], [0, "a", 2], [1, "b", 3], [2, "b", 3], [2, "c", 3]]
    assert nfa.transitions == tuple(map(tuple, edges))
    assert nfa.to_json_dict()["transitions"] == edges
    # A deterministic step by `x` before the two-state subset, which then
    # steps by `b` to one state and goes on by `d` from there.
    texts = ("x (a b d + a (b + c) d)", "a b d + a (b + c) d", "b d", "(b + c) d", "d", "eps")
    nfa = Nfa(
        states=tuple(parse(text) for text in texts),
        initial=0,
        successors=({"x": 1}, {"a": ~1}, {"b": 4}, {"b": 4, "c": 4}, {"d": 5}, {}),
        finals=frozenset({5}),
        choices=((), (2, 3)),
    )
    assert nfa.accepts(("x", "a", "b", "d"))
    assert nfa.accepts(("x", "a", "c", "d"))
    assert not nfa.accepts(("x", "a", "b"))
    assert not nfa.accepts(("x", "a", "b", "d", "d"))
