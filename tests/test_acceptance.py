"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they happen.
"""

import random
import time
from contextlib import contextmanager

import pytest

from derivmon import derivative, partial
from derivmon.automaton import build_nfa
from derivmon.bounds import (
    height_budget,
    height_increment_bound,
    size_budget,
    size_increment_bound,
    star_chain_growth,
)
from derivmon.check import agreement_problem, bounds_problem
from derivmon.corpus import GenConfig, file_descriptor_spec, gen_corpus
from derivmon.monitor import Verdict, run_trace
from derivmon.oracle import lang_up_to, shuffle_words
from derivmon.syntax import format_regex, size
from golden import replay_entry, worked_examples

ALPHABET = ("a", "b", "c")


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS  {description}  ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def shuffle_corpus():
    return gen_corpus(GenConfig(max_size=15, alphabet_size=3, seed=20250809), 2000)


@pytest.fixture(scope="module")
def shuffle_free_corpus():
    cfg = GenConfig(max_size=15, alphabet_size=3, shuffle_enabled=False, seed=906)
    return gen_corpus(cfg, 2000)


def test_criterion_1_golden_examples():
    with criterion(1, "golden examples, exact equality"):
        started = time.perf_counter()
        for entry in worked_examples():
            replay_entry(entry)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_three_way_agreement(shuffle_corpus):
    with criterion(2, "oracle/derivative/monitor/NFA agree, within budgets, on 2000 expressions"):
        problems = [
            (format_regex(e), problem)
            for e in shuffle_corpus
            if (problem := agreement_problem(e, build_nfa(e), ALPHABET, 4)) is not None
        ]
        assert problems == []


def test_criterion_3_antimirov_decomposition(shuffle_corpus):
    with criterion(3, "frontier languages decompose the derivative on 600 expressions"):
        mismatches = 0
        for e in shuffle_corpus[:600]:
            for symbol in ALPHABET:
                unioned = frozenset().union(
                    *(lang_up_to(d, 3) for d in partial.partial_derivatives(e, symbol))
                )
                if unioned != lang_up_to(derivative.derive(e, symbol), 3):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_4_bound_properties(shuffle_corpus):
    with criterion(4, "budget ranges and step invariants, zero violations"):
        range_corpus = gen_corpus(GenConfig(max_size=15, alphabet_size=3, seed=41), 5000)
        for e in range_corpus:
            assert 0 <= height_increment_bound(e) <= 1
            assert 0 <= size_increment_bound(e) <= size(e) ** 2

        # Every step of every walk from a corpus expression is an edge of
        # its NFA, so checking all edges covers words of any length, in
        # particular all words up to length 6.
        problems = [
            (format_regex(e), problem)
            for e in shuffle_corpus
            if (problem := bounds_problem(e, build_nfa(e))) is not None
        ]
        assert problems == []


def test_criterion_5_shuffle_free_strengthenings(shuffle_free_corpus):
    with criterion(5, "shuffle-free: zero height budget after one step, linear closure"):
        violations = 0
        for e in shuffle_free_corpus:
            for symbol in ALPHABET:
                for d in partial.partial_derivatives(e, symbol):
                    if height_increment_bound(d) != 0:
                        violations += 1
            if len(partial.closure(e)) > size(e) + 1:
                violations += 1
        assert violations == 0


def test_criterion_6_star_chain_formula():
    with criterion(6, "star-chain derivative sizes match the closed formula"):
        for n in range(2, 9):
            observed, predicted = star_chain_growth(n)
            assert observed == predicted == n + (n * n + n) // 2 - 1


def test_criterion_7_nfa_growth_benchmark():
    with criterion(7, "4^n states, each quadratically small"):
        started = time.perf_counter()
        specs = [file_descriptor_spec(n) for n in (1, 2, 3, 4)]
        nfas = [build_nfa(spec) for spec in specs]
        assert [len(nfa.states) for nfa in nfas] == [4, 16, 64, 256]
        for spec, nfa in zip(specs, nfas):
            cap = size_budget(spec)
            assert all(size(state) <= cap for state in nfa.states)
        assert time.perf_counter() - started <= 30.0


def test_criterion_8_monitor_end_to_end():
    with criterion(8, "monitored file-session traces, verdicts match the oracle"):
        started = time.perf_counter()
        spec = file_descriptor_spec(2)
        h_cap, s_cap = height_budget(spec), size_budget(spec)
        valid = sorted(shuffle_words(("o1", "a1", "c1"), ("o2", "a2", "c2")))
        assert len(valid) == 20
        language = lang_up_to(spec, 6)
        assert language == set(valid)
        rng = random.Random(80908)

        def check_budgets(stats):
            assert stats.max_size <= s_cap
            assert stats.max_height <= h_cap

        for _ in range(100):
            trace = rng.choice(valid)
            verdict, stats = run_trace(spec, trace)
            assert verdict is Verdict.ACCEPTING
            check_budgets(stats)

        mutated = 0
        while mutated < 100:
            trace = list(rng.choice(valid))
            if rng.random() < 0.5:
                del trace[rng.randrange(len(trace))]
            else:
                i = rng.randrange(len(trace) - 1)
                trace[i], trace[i + 1] = trace[i + 1], trace[i]
            trace = tuple(trace)
            if trace in language:
                continue  # an adjacent swap can still be a valid interleaving
            mutated += 1
            verdict, stats = run_trace(spec, trace)
            assert verdict is not Verdict.ACCEPTING
            check_budgets(stats)
        assert time.perf_counter() - started <= 10.0
