from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivmon import oracle
from derivmon.errors import CapacityError
from derivmon.oracle import lang_up_to, shuffle_words
from derivmon.syntax import Cat, Empty, Eps, Or, Shuffle, Star, Sym, parse
from strategies import regexes, words


def w(text):
    return tuple(text.split())


class TestShuffleWords:
    def test_empty_word_is_identity(self):
        assert shuffle_words((), w("b c")) == {w("b c")}
        assert shuffle_words(w("b c"), ()) == {w("b c")}

    def test_all_three_interleavings(self):
        assert shuffle_words(w("a b"), w("c",)) == {w("a b c"), w("a c b"), w("c a b")}

    def test_identical_symbols_collapse(self):
        assert shuffle_words(("a",), ("a",)) == {("a", "a")}

    @given(words(max_len=4), words(max_len=4))
    def test_commutative(self, w1, w2):
        assert shuffle_words(w1, w2) == shuffle_words(w2, w1)

    @given(words(max_len=4), words(max_len=4))
    def test_cardinality_bounded_by_binomial(self, w1, w2):
        result = shuffle_words(w1, w2)
        bound = comb(len(w1) + len(w2), len(w1))
        assert len(result) <= bound
        if not (set(w1) & set(w2)):
            assert len(result) == bound

    @given(words(max_len=4), words(max_len=4))
    def test_every_interleaving_preserves_lengths(self, w1, w2):
        for merged in shuffle_words(w1, w2):
            assert len(merged) == len(w1) + len(w2)
            assert sorted(merged) == sorted(w1 + w2)


class TestLangUpTo:
    def test_singleton_language(self):
        assert lang_up_to(parse("a b"), 3) == {w("a b")}

    def test_star_pair(self):
        assert lang_up_to(parse("a* b*"), 2) == {
            (), ("a",), ("b",), w("a a"), w("a b"), w("b b"),
        }

    def test_shuffle_of_singletons(self):
        assert lang_up_to(parse("a0 || a1"), 2) == {w("a0 a1"), w("a1 a0")}

    def test_empty_language(self):
        assert lang_up_to(parse("0"), 4) == frozenset()

    @given(regexes(max_leaves=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_monotone_in_the_bound(self, e, k):
        smaller = lang_up_to(e, k)
        larger = lang_up_to(e, k + 1)
        assert smaller <= larger
        assert {v for v in larger if len(v) <= k} == smaller

    @given(regexes(max_leaves=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_star_matches_one_unrolling(self, e, k):
        assert lang_up_to(Star(e), k) == lang_up_to(Or(Eps(), Cat(e, Star(e))), k)

    def test_guard_on_max_len(self):
        with pytest.raises(ValueError):
            lang_up_to(parse("a*"), 13)

    def test_negative_max_len(self):
        with pytest.raises(ValueError):
            lang_up_to(parse("a*"), -1)

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 50)
        with pytest.raises(CapacityError):
            lang_up_to(parse("(a + b)*"), 10)


# The recursive definition the explicit-stack enumeration replaced, kept
# as the reference (without the guard and the cap).


def reference_lang_up_to(e, max_len):
    match e:
        case Empty():
            return frozenset()
        case Eps():
            return frozenset({()})
        case Sym(name):
            return frozenset({(name,)}) if max_len >= 1 else frozenset()
        case Or(left, right):
            return reference_lang_up_to(left, max_len) | reference_lang_up_to(right, max_len)
        case Cat(left, right):
            rights = reference_lang_up_to(right, max_len)
            return frozenset(
                u + v
                for u in reference_lang_up_to(left, max_len)
                for v in rights
                if len(u) + len(v) <= max_len
            )
        case Shuffle(left, right):
            rights = reference_lang_up_to(right, max_len)
            return frozenset().union(
                *(
                    shuffle_words(u, v)
                    for u in reference_lang_up_to(left, max_len)
                    for v in rights
                    if len(u) + len(v) <= max_len
                )
            )
        case Star(body):
            base = [u for u in reference_lang_up_to(body, max_len) if u]
            reached = {()}
            todo = [()]
            while todo:
                u = todo.pop()
                for v in base:
                    if len(u + v) <= max_len and u + v not in reached:
                        reached.add(u + v)
                        todo.append(u + v)
            return frozenset(reached)
    raise TypeError(f"not a Regex: {e!r}")


class TestLangWithoutRecursion:
    @given(regexes(max_leaves=10), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_matches_the_recursive_reference(self, e, k):
        assert lang_up_to(e, k) == reference_lang_up_to(e, k)

    def test_deep_union(self):
        assert lang_up_to(parse(" + ".join(["a"] * 10_000)), 1) == {("a",)}

    def test_deep_star_tower(self):
        tower = Sym("a")
        for _ in range(10_000):
            tower = Star(tower)
        assert lang_up_to(tower, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}
