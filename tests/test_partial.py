import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derivmon import automaton, syntax
from derivmon.bounds import star_chain_growth
from derivmon.errors import CapacityError
from derivmon.partial import (
    accepts,
    closure,
    partial_derivatives,
    partial_derivatives_word,
    step_frontier,
)
from derivmon.syntax import Cat, Empty, Eps, Or, Shuffle, Star, Sym, format_regex, parse
from strategies import DEFAULT_ALPHABET, regexes, symbols, words
from test_syntax import reference_first_set

# "z" occurs in no generated expression and shares its first-mask bit with
# "c", so stepping by it walks subterms and must still find nothing.
FOREIGN = "z"
steps = st.sampled_from(DEFAULT_ALPHABET + (FOREIGN,))


def reference_partial_derivatives(e, symbol):
    """The unpruned step: every subterm walked, a frozenset at every level."""
    match e:
        case Empty() | Eps():
            return frozenset()
        case Sym(name):
            return frozenset({Eps()}) if name == symbol else frozenset()
        case Cat(left, right):
            out = frozenset(Cat(d, right) for d in reference_partial_derivatives(left, symbol))
            if left.nullable:
                out |= reference_partial_derivatives(right, symbol)
            return out
        case Or(left, right):
            return reference_partial_derivatives(left, symbol) | reference_partial_derivatives(
                right, symbol
            )
        case Star(body):
            return frozenset(Cat(d, e) for d in reference_partial_derivatives(body, symbol))
        case Shuffle(left, right):
            return frozenset(
                [Shuffle(d, right) for d in reference_partial_derivatives(left, symbol)]
                + [Shuffle(left, d) for d in reference_partial_derivatives(right, symbol)]
            )
    raise TypeError(f"not a Regex: {e!r}")


class TestPartialDerivatives:
    def test_nullable_left_factor_steps_into_right(self):
        assert partial_derivatives(parse("a* b*"), "b") == {parse("eps b*")}

    def test_constants_have_no_derivatives(self):
        assert partial_derivatives(parse("0"), "a") == frozenset()
        assert partial_derivatives(parse("eps"), "a") == frozenset()


class TestFirstMaskPruning:
    def test_foreign_symbol_shares_a_bit(self):
        assert syntax.symbol_bit(FOREIGN) == syntax.symbol_bit("c")

    def test_any_str_is_a_symbol_without_derivatives(self):
        # Events reach the monitor unvalidated; this one cannot be UTF-8 encoded.
        assert partial_derivatives(parse("a* || b"), "\udc80") == frozenset()

    @given(regexes(), st.lists(regexes(), min_size=1, max_size=3), steps)
    # Nullable concatenations whose two factors both read the symbol.
    @example(parse("(eps + a) a"), [parse("(eps + a) a")], "a")
    @example(parse("a* (a + b)"), [parse("a* (a + b)")], "a")
    @settings(max_examples=200)
    def test_equals_the_unpruned_step(self, e, frontier, a):
        expected = reference_partial_derivatives(e, a)
        assert partial_derivatives(e, a) == expected
        expected = frozenset().union(*(reference_partial_derivatives(m, a) for m in frontier))
        assert step_frontier(frontier, a) == expected
        # Through one builder, a second step returns the very same members.
        make = syntax.builder()
        built = step_frontier(frontier, a, make)
        assert built == expected
        assert set(map(id, step_frontier(frontier, a, make))) == set(map(id, built))

    @given(regexes(), steps)
    @settings(max_examples=200)
    def test_nonempty_exactly_on_the_first_set(self, e, a):
        assert bool(partial_derivatives(e, a)) == (a in reference_first_set(e))

    @given(regexes(), steps)
    @settings(max_examples=100)
    def test_one_shared_bit_changes_nothing(self, e, a):
        expected = partial_derivatives(e, a)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(syntax, "symbol_bit", lambda name: 1)
            patch.setattr(automaton, "symbol_bit", lambda name: 1)  # the walk's module
            rebuilt = parse(format_regex(e))  # nodes built under the patch
            assert rebuilt.first == (1 if reference_first_set(e) else 0)
            assert partial_derivatives(rebuilt, a) == expected


class TestInPlaceDescent:
    """The step goes on in place into a child that has the symbol's bit and
    keeps the other child for later only where both have it."""

    @staticmethod
    def check(text, symbol, members):
        e = parse(text)
        stepped = partial_derivatives(e, symbol)
        assert stepped == reference_partial_derivatives(e, symbol)
        assert sorted(map(format_regex, stepped)) == members

    def test_union_whose_left_side_lacks_the_bit(self):
        self.check("(b + a c) d", "a", ["(eps c) d"])
        self.check("(a b + b + a c) d", "a", ["(eps b) d", "(eps c) d"])

    def test_shuffle_whose_right_side_lacks_the_bit(self):
        self.check("(a b || c) d", "a", ["(eps b || c) d"])
        self.check("c || a b", "a", ["c || eps b"])
        self.check("a || a b", "a", ["a || eps b", "eps || a b"])

    def test_nullable_concatenation_with_both_sides_live_below_the_root(self):
        self.check(
            "c || (a* (a + b)*) d",
            "a",
            ["c || ((eps a*) (a + b)*) d", "c || (eps (a + b)*) d"],
        )

    def test_union_chain_with_one_live_leaf_at_the_far_end(self):
        # Left-nested 10^4 deep; "b" does not share "a"'s bit, so the walk
        # follows one path down and stacks nothing.
        assert syntax.symbol_bit("a") != syntax.symbol_bit("b")
        chain = parse(" + ".join(["a c"] + ["b"] * 9_999))
        assert chain.height == 10_000
        assert partial_derivatives(chain, "a") == reference_partial_derivatives(parse("a c"), "a")


class TestDeepShapes:
    """Shapes nested 10^4 deep step without Python recursion."""

    def test_star_tower(self):
        observed, predicted = star_chain_growth(10_000)
        assert observed == predicted

    def test_star_chain_needs_a_star(self):
        with pytest.raises(ValueError):
            star_chain_growth(1)

    def test_shuffle_chain(self):
        # About 1 in 64 of the other symbols shares a0's bit and is walked too.
        names = [f"a{i}" for i in range(10_000)]
        chain = parse(" || ".join(names))
        (d,) = step_frontier((chain,), "a0")
        assert d.size == chain.size
        assert format_regex(d) == " || ".join(["eps"] + names[1:])


class TestPartialDerivativesWord:
    def test_two_steps(self):
        assert partial_derivatives_word(parse("a* b*"), ("a", "b")) == {parse("eps b*")}

    def test_empty_word(self):
        e = parse("a + b*")
        assert partial_derivatives_word(e, ()) == {e}

    @given(regexes(max_leaves=6), symbols(), words(max_len=3))
    @settings(max_examples=80)
    def test_step_then_word_decomposition(self, e, a, w):
        direct = partial_derivatives_word(e, (a,) + w)
        unioned = frozenset().union(
            *(partial_derivatives_word(d, w) for d in partial_derivatives(e, a))
        )
        assert direct == unioned


class TestAccepts:
    def test_examples(self):
        assert not accepts(parse("a* b*"), ("b", "a"))
        assert accepts(parse("a* b*"), ("b", "b"))
        assert not accepts(parse("a0 || a1"), ("a2",))


class TestClosure:
    def test_single_symbol(self):
        assert closure(parse("a")) == {parse("a"), parse("eps")}

    def test_star(self):
        assert closure(parse("a*")) == {parse("a*"), parse("eps a*")}

    def test_empty_expression(self):
        assert closure(parse("0")) == {parse("0")}

    def test_cap_is_enforced(self):
        with pytest.raises(CapacityError):
            closure(parse("(a b c)* || (a b c)*"), cap=3)

    @given(regexes(max_leaves=6), words(max_len=3))
    @settings(max_examples=60)
    def test_contains_every_reachable_frontier(self, e, w):
        reachable = closure(e)
        assert partial_derivatives_word(e, w) <= reachable
