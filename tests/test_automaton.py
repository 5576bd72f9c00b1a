import time
from dataclasses import replace

import pytest
from hypothesis import given, settings

from derivmon.automaton import Nfa, build_nfa
from derivmon.corpus import file_descriptor_spec
from derivmon.errors import CapacityError
from derivmon.partial import partial_derivatives
from derivmon.syntax import alphabet, has_eps, parse, subterms
from strategies import regexes


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
        "text",
        [
            "a* a || a",  # a nullable concatenation whose two factors both step
            "(a + eps) (a || b)",
            "(a + a b)* a",
            "(a + b) (a + (b + a)) || (a + b)*",  # union chains nested both ways
            "a 0 || b",  # a live left factor before 0
            "(a* || a* || a*)*",
        ],
    )
    def test_linear_form_cases_mirror_partial_derivatives(self, text):
        assert_mirrors_partial_derivatives(parse(text))

    def test_large_alphabets_build_quickly(self):
        # One step per state by every symbol at once: the work per state
        # grows neither with the 20,000 symbols of a sequence nor with the
        # 10,000 branches of a union.  The wall bound is generous; a build
        # that steps each state by each symbol in turn misses it.
        started = time.perf_counter()
        assert len(build_nfa(parse(" ".join(f"e{i}" for i in range(20000)))).states) == 20001
        assert len(build_nfa(parse(" + ".join(f"a b{i}" for i in range(10000)))).states) == 10002
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

    def test_dot_output_mentions_every_state(self):
        dot = build_nfa(parse("a b")).to_dot()
        assert dot.startswith("digraph")
        assert dot.count("doublecircle") == 1
        assert 'label="a"' in dot


def test_accepts_uses_indexed_transitions():
    nfa = Nfa(
        states=(parse("a"), parse("eps")),
        initial=0,
        transitions=((0, "a", 1),),
        finals=frozenset({1}),
    )
    assert nfa.accepts(("a",))
    assert not nfa.accepts(("a", "a"))
    # Nondeterministic: `a` leads to a two-state subset whose members share
    # their `b` target, and only the second member steps by `c`.
    nfa = Nfa(
        states=tuple(parse(text) for text in ("a b + a (b + c)", "b", "b + c", "eps")),
        initial=0,
        transitions=((0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 3), (2, "c", 3)),
        finals=frozenset({3}),
    )
    assert nfa.accepts(("a", "b"))
    assert nfa.accepts(("a", "c"))
    assert not nfa.accepts(("d",))
    assert not nfa.accepts(("a", "a"))
    assert not nfa.accepts(())
    assert replace(nfa, initial=3).accepts(())
