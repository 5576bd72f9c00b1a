from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivmon import derivative
from derivmon.corpus import GenConfig, gen_corpus
from derivmon.derivative import accepts, derive, derive_word, deriver
from derivmon.oracle import lang_up_to
from derivmon.syntax import EMPTY, EPS, Cat, Empty, Eps, Or, Shuffle, Star, Sym, parse, size
from strategies import regexes, symbols, words


class TestDerive:
    @given(regexes(max_leaves=5), symbols(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_derivative_language(self, e, a, k):
        derived = lang_up_to(derive(e, a), k)
        quotient = {v[1:] for v in lang_up_to(e, k + 1) if v[:1] == (a,)}
        assert derived == quotient


# The recursive definition the explicit-stack derive replaced, kept as the reference.


def reference_derive(e, symbol):
    match e:
        case Empty() | Eps():
            return Empty()
        case Sym(name):
            return Eps() if name == symbol else Empty()
        case Cat(left, right):
            return Or(
                Cat(reference_derive(left, symbol), right),
                Cat(Eps() if left.nullable else Empty(), reference_derive(right, symbol)),
            )
        case Or(left, right):
            return Or(reference_derive(left, symbol), reference_derive(right, symbol))
        case Star(body):
            return Cat(reference_derive(body, symbol), e)
        case Shuffle(left, right):
            return Or(
                Shuffle(reference_derive(left, symbol), right),
                Shuffle(left, reference_derive(right, symbol)),
            )
    raise TypeError(f"not a Regex: {e!r}")


class TestDeriveWithoutRecursion:
    @given(regexes(max_leaves=12), words(max_len=3))
    def test_matches_the_recursive_reference(self, e, word):
        expected = e
        for symbol in word:
            expected = reference_derive(expected, symbol)
        assert derive_word(e, word) == expected

    def test_deep_union(self):
        union = parse(" + ".join(["a"] * 10_000))
        derived = derive(union, "a")
        assert derived.nullable
        assert accepts(union, ("a",))
        assert not accepts(union, ("a", "a"))
        assert size(derived) == size(union)

    def test_deep_star_tower(self):
        tower = Sym("a")
        for _ in range(10_000):
            tower = Star(tower)
        derived = derive(tower, "a")
        assert derived.nullable
        assert accepts(tower, ("a",))
        assert accepts(tower, ("a", "a"))
        # Level k adds a concatenation node and the k-level tower itself.
        assert size(derived) == 1 + sum(k + 2 for k in range(1, 10_001))


class TestSharedWalk:
    def test_one_walk_over_the_word_trie_matches_the_reference(self):
        # The order of check.agreement_problem: depth first, in symbol order,
        # each word derived from its parent's derivative when it is popped.
        symbols = ("a", "b", "c")
        for e in gen_corpus(GenConfig(seed=12, shuffle_enabled=True), 150):
            step = deriver()
            stack = [((), e, e)]
            while stack:
                word, shared, expected = stack.pop()
                if word:
                    shared = step(shared, word[-1])
                    expected = reference_derive(expected, word[-1])
                assert shared == expected, (e, word)
                assert size(shared) == size(expected)
                if len(word) < 3:
                    stack.extend((word + (a,), shared, expected) for a in reversed(symbols))

    def test_freed_nodes_never_hit_the_memo(self):
        # Distinct nodes built and dropped one after another tend to reuse
        # one address, so a memo that did not keep its keys alive would hand
        # one node's derivative to the next.
        step = deriver()
        for i in range(2000):
            left, right = ("a", "b") if i % 2 else ("b", "a")
            e = Cat(Sym(left), Star(Sym(right)))
            assert step(e, "a") == reference_derive(e, "a")


class TestDeriveWord:
    def test_empty_word_is_identity(self):
        e = parse("a* || b c")
        assert derive_word(e, ()) is e

    def test_symbol_match(self):
        assert derive_word(parse("a"), ("a",)) == parse("eps")

    def test_symbol_mismatch(self):
        assert derive_word(parse("a"), ("b",)) == parse("0")


class TestAccepts:
    def test_examples(self):
        assert accepts(parse("a* b*"), ("a", "b"))
        assert not accepts(parse("a"), ())
        assert accepts(parse("a0 || a1"), ("a1", "a0"))
        # After "a" the derivative is eps: nullable, but no symbol steps it.
        assert accepts(parse("a"), ("a", "a")) is False

    @given(regexes(max_leaves=12), words(("a", "b", "c", "x"), max_len=4))
    @example(Cat(Sym("a"), Sym("b")), ("x", "b"))
    @example(Sym("a"), ("a", "a"))
    def test_is_the_nullability_of_the_raw_derivative(self, e, word):
        # "x" occurs in no generated expression and shares "a"'s first-mask
        # bit, so the live walk must still apply the symbol rule.
        assert accepts(e, word) == derive_word(e, word).nullable

    def test_stops_at_the_first_dead_derivative(self, monkeypatch):
        steps, live_step = [], derivative._live_step

        def counted(e, symbol, memo):
            steps.append(symbol)
            return live_step(e, symbol, memo)

        monkeypatch.setattr(derivative, "_live_step", counted)
        e, word = parse("a*"), ("b",) + ("a",) * 50
        assert accepts(e, word) is False
        assert steps == ["b"]  # "b" leaves 0, whose first mask is 0
        in_lang = derivative.acceptor()
        assert in_lang(e, word) is False
        assert steps == ["b", "b"]
        assert "a" not in in_lang.keywords["memos"]  # the acceptor opened no memo for "a"

    def test_derives_only_subterms_that_can_read_the_symbol(self):
        def live(e, symbol):
            return derivative._live_step(e, symbol, {})

        # "b a" cannot read "a": the raw step builds (0 a) + (0 eps).
        assert live(parse("b a"), "a") is EMPTY
        # The raw step by "a" builds (eps + 0) c + 0 0; the absorbing one returns c.
        e = parse("(a + b) c")
        assert live(e, "a") is e.right
        # Each step of a sequence spec returns the spec's own suffix.
        e = parse(" ".join(f"e{i}" for i in range(100)))
        for i in range(99):
            assert live(e, f"e{i}") is e.right
            e = e.right
        assert live(e, "e99") is EPS
        # The raw step of a* by "a" builds eps a*; the absorbing one returns a*.
        e = parse("a*")
        assert live(e, "a") is e


# The raw rules of reference_derive with every node built through the live
# step's absorbing constructor: the form the live step must return.


def absorbing_reference(e, symbol):
    make = derivative._absorbing
    match e:
        case Empty() | Eps():
            return EMPTY
        case Sym(name):
            return EPS if name == symbol else EMPTY
        case Cat(left, right):
            return make(
                Or,
                make(Cat, absorbing_reference(left, symbol), right),
                make(Cat, EPS if left.nullable else EMPTY, absorbing_reference(right, symbol)),
            )
        case Or(left, right):
            return make(Or, absorbing_reference(left, symbol), absorbing_reference(right, symbol))
        case Star(body):
            return make(Cat, absorbing_reference(body, symbol), e)
        case Shuffle(left, right):
            return make(
                Or,
                make(Shuffle, absorbing_reference(left, symbol), right),
                make(Shuffle, left, absorbing_reference(right, symbol)),
            )
    raise TypeError(f"not a Regex: {e!r}")


class TestLiveStep:
    @given(regexes(max_leaves=12), symbols(("a", "b", "c", "x")))
    @example(Cat(Sym("a"), Empty()), "a")
    @example(Shuffle(Sym("a"), Empty()), "a")
    @example(Cat(Star(Sym("a")), Sym("b")), "b")
    @example(Star(Sym("a")), "a")
    def test_is_the_absorbing_reference(self, e, symbol):
        # "x" shares "a"'s first-mask bit, so a symbol leaf "a" stepped by
        # "x" is live by its mask and must still derive to 0 by its name.
        assert derivative._live_step(e, symbol, {}) == absorbing_reference(e, symbol)

    def test_skips_the_right_factor_of_a_concatenation_that_is_not_nullable(self):
        tower = Sym("a")
        for _ in range(10_000):
            tower = Star(tower)
        e, memo = Cat(Sym("a"), tower), {}
        assert derivative._live_step(e, "a", memo) is tower
        # Only the concatenation itself is memoized: no node of the tower.
        # Compare the keys alone, so a failure does not print derived trees.
        keys = set(memo)
        assert keys == {id(e)}


def test_iterated_derivatives_grow_without_simplification():
    # Brzozowski derivatives are intentionally unnormalized, so repeated
    # steps on this needle-in-haystack shape never shrink.
    e = parse("(a + b)* a (a + b)*")
    sizes = [size(e)]
    for _ in range(5):
        e = derive(e, "a")
        sizes.append(size(e))
    assert sizes == sorted(sizes)
