import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derivmon.syntax import (
    Cat,
    Empty,
    Eps,
    Or,
    ParseError,
    Shuffle,
    Star,
    Sym,
    alphabet,
    format_regex,
    has_eps,
    height,
    parse,
    parse_word,
    size,
    subterms,
    symbol_bit,
)
from strategies import regexes


class TestParse:
    def test_union_binds_looser_than_concatenation(self):
        assert parse("a b + a c") == Or(Cat(Sym("a"), Sym("b")), Cat(Sym("a"), Sym("c")))

    def test_zero_literal(self):
        assert parse("0") == Empty()

    def test_shuffle_binds_loosest(self):
        assert parse("a* b* || c") == Shuffle(Cat(Star(Sym("a")), Star(Sym("b"))), Sym("c"))

    def test_eps_literal(self):
        assert parse("eps") == Eps()

    def test_concatenation_associates_right(self):
        assert parse("a b c") == Cat(Sym("a"), Cat(Sym("b"), Sym("c")))
        assert parse("a + b + c") == Or(Or(Sym("a"), Sym("b")), Sym("c"))
        assert parse("a || b || c") == Shuffle(Shuffle(Sym("a"), Sym("b")), Sym("c"))

    def test_postfix_star_stacks(self):
        assert parse("a**") == Star(Star(Sym("a")))

    def test_star_of_group(self):
        assert parse("(a b)*") == Star(Cat(Sym("a"), Sym("b")))
        assert format_regex(Star(Cat(Sym("a"), Sym("b")))) == "(a b)*"

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   \n  ")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError, match=r"2:3"):
            parse("a +\nb )")

    def test_single_pipe_rejected(self):
        with pytest.raises(ParseError):
            parse("a | b")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("a b )")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "1:1: empty input"),
            ("   \n  ", "1:1: empty input"),
            ("a |", "1:3: expected '||'"),
            ("a ||| b", "1:5: expected '||'"),
            ("a +", "1:4: expected an expression, found end of input"),
            ("(a", "1:3: expected ')', found end of input"),
            ("a)", "1:2: unexpected ')'"),
            ("()", "1:2: expected an expression, found ')'"),
            ("*a", "1:1: expected an expression, found '*'"),
            ("a $", "1:3: unexpected character '$'"),
            ("1", "1:1: unexpected character '1'"),
            ("a +\nb )", "2:3: unexpected ')'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == message

    def test_symbols_are_ascii(self):
        # Symbols match [A-Za-z][A-Za-z0-9_]*, in parse as in Sym.
        with pytest.raises(ParseError) as caught:
            parse("é")
        assert str(caught.value) == "1:1: unexpected character 'é'"

    def test_deep_parentheses(self):
        assert parse("(" * 10_000 + "a" + ")" * 10_000) == Sym("a")

    def test_deep_terms_round_trip(self):
        chain = Sym("a")
        tower = Sym("a")
        for _ in range(10_000):
            chain = Cat(Sym("b"), chain)
            tower = Star(tower)
        assert parse(format_regex(chain)) == chain
        assert parse(format_regex(tower)) == tower


class TestFormat:
    def test_nested_stars(self):
        assert format_regex(Star(Star(Star(Sym("a"))))) == "((a*)*)*"

    def test_eps(self):
        assert format_regex(Eps()) == "eps"

    def test_union(self):
        assert format_regex(Or(Sym("a"), Sym("b"))) == "a + b"

    def test_right_nested_operators_get_parentheses(self):
        assert format_regex(Or(Sym("a"), Or(Sym("b"), Sym("c")))) == "a + (b + c)"
        # Concatenation nests right, so its left-nested form is the one
        # that needs them.
        assert format_regex(Cat(Sym("a"), Cat(Sym("b"), Sym("c")))) == "a b c"
        assert format_regex(Cat(Cat(Sym("a"), Sym("b")), Sym("c"))) == "(a b) c"
        assert format_regex(Shuffle(Sym("a"), Shuffle(Sym("b"), Sym("c")))) == "a || (b || c)"

    @given(regexes())
    def test_roundtrip(self, e):
        assert parse(format_regex(e)) == e
        assert str(e) == format_regex(e)

    def test_deep_sequence_prints_without_recursion(self):
        text = " ".join(f"e{i}" for i in range(10_000))
        assert format_regex(parse(text)) == text


class TestMetrics:
    def test_height_examples(self):
        assert height(parse("a* b*")) == 2
        assert height(parse("(eps a*) b*")) == 3
        assert height(parse("eps")) == 0
        assert height(parse("a")) == 0
        assert height(parse("0")) == 0

    def test_size_examples(self):
        assert size(parse("((a*)*)*")) == 4
        assert size(parse("((eps a*) (a*)*) ((a*)*)*")) == 13
        assert size(parse("a* || b*")) == 5
        assert size(parse("0")) == 1

    @given(regexes())
    def test_height_below_size(self, e):
        assert height(e) < size(e)


class TestHasEps:
    def test_examples(self):
        assert has_eps(parse("a*")) is True
        assert has_eps(parse("a")) is False
        assert has_eps(parse("0")) is False
        assert has_eps(parse("eps")) is True


class TestSymbols:
    def test_symbol_names_validated(self):
        with pytest.raises(ValueError):
            Sym("9lives")
        with pytest.raises(ValueError):
            Sym("")
        assert Sym("open_file").name == "open_file"

    def test_eps_is_reserved(self):
        # A symbol named eps would print as "eps", which parses as the empty word.
        with pytest.raises(ValueError):
            Sym("eps")
        assert parse(format_regex(Eps())) == Eps()
        # As an event it stays legal: no expression has it, so it is foreign.
        assert parse_word("a eps") == ("a", "eps")

    def test_parse_word(self):
        assert parse_word("o1 a1\nc1") == ("o1", "a1", "c1")
        assert parse_word("") == ()
        with pytest.raises(ValueError):
            parse_word("a 1b")


# The recursive definitions the stored metrics replaced, kept as the reference.


def reference_has_eps(e):
    match e:
        case Empty() | Sym():
            return False
        case Eps() | Star():
            return True
        case Cat(left, right) | Shuffle(left, right):
            return reference_has_eps(left) and reference_has_eps(right)
        case Or(left, right):
            return reference_has_eps(left) or reference_has_eps(right)
    raise TypeError(f"not a Regex: {e!r}")


def reference_subterms(e):
    match e:
        case Cat(left, right) | Or(left, right) | Shuffle(left, right):
            return [e] + reference_subterms(left) + reference_subterms(right)
        case Star(body):
            return [e] + reference_subterms(body)
    return [e]


def reference_first_set(e):
    """The symbols that lead a partial-derivative step of ``e``: its
    structural first set, which ignores emptiness (``a 0`` starts with a)."""
    match e:
        case Empty() | Eps():
            return frozenset()
        case Sym(name):
            return frozenset({name})
        case Cat(left, right):
            if reference_has_eps(left):
                return reference_first_set(left) | reference_first_set(right)
            return reference_first_set(left)
        case Or(left, right) | Shuffle(left, right):
            return reference_first_set(left) | reference_first_set(right)
        case Star(body):
            return reference_first_set(body)
    raise TypeError(f"not a Regex: {e!r}")


def reference_height(e):
    match e:
        case Empty() | Eps() | Sym():
            return 0
        case Cat(left, right) | Or(left, right) | Shuffle(left, right):
            return max(reference_height(left), reference_height(right)) + 1
        case Star(body):
            return reference_height(body) + 1
    raise TypeError(f"not a Regex: {e!r}")


def reference_size(e):
    match e:
        case Empty() | Eps() | Sym():
            return 1
        case Cat(left, right) | Or(left, right) | Shuffle(left, right):
            return reference_size(left) + reference_size(right) + 1
        case Star(body):
            return reference_size(body) + 1
    raise TypeError(f"not a Regex: {e!r}")


def rebuild(e, replace_leaf=None):
    """A fresh copy of ``e`` sharing no node with it; ``replace_leaf``
    maps the leaves, numbered left to right, to their replacements."""
    leaves = itertools.count()

    def go(node):
        match node:
            case Cat(left, right) | Or(left, right) | Shuffle(left, right):
                return type(node)(go(left), go(right))
            case Star(body):
                return Star(go(body))
            case Sym(name):
                fresh = Sym(name)
            case _:
                fresh = type(node)()
        index = next(leaves)
        return replace_leaf(index, fresh) if replace_leaf else fresh

    return go(e)


def other_leaf(leaf):
    match leaf:
        case Empty():
            return Eps()
        case Eps():
            return Empty()
        case Sym(name):
            return Sym(name + "x")


class TestStoredMetrics:
    @given(regexes())
    def test_match_the_recursive_reference(self, e):
        assert has_eps(e) is reference_has_eps(e)
        assert size(e) == reference_size(e)
        assert height(e) == reference_height(e)
        bits = 0
        for name in reference_first_set(e):
            bits |= symbol_bit(name)
        assert e.first == bits

    def test_symbol_bit_is_one_fixed_bit(self):
        # CRC-32 of the name, so every process agrees.
        assert symbol_bit("a") == 1 << 3
        assert symbol_bit("open_file") == 1 << 53
        assert all(bin(symbol_bit(f"s{i}")).count("1") == 1 for i in range(200))
        assert all(symbol_bit(f"s{i}") < 1 << 64 for i in range(200))

    @given(regexes())
    def test_subterms_match_the_recursive_preorder(self, e):
        walked = subterms(e)
        assert type(walked) is list
        assert [id(node) for node in walked] == [id(node) for node in reference_subterms(e)]

    def test_subterms_of_a_deep_star_tower(self):
        e = Sym("a")
        for _ in range(10**4):
            e = Star(e)
        walked = subterms(e)
        assert len(walked) == 10**4 + 1 and walked[0] is e
        assert all(walked[i].body is walked[i + 1] for i in range(10**4))
        assert alphabet(e) == {"a"}

    def test_subterms_of_a_long_union(self):
        e = Sym("a0")
        for i in range(1, 10**4):
            e = Or(e, Sym(f"a{i}"))
        walked = subterms(e)
        assert len(walked) == 2 * 10**4 - 1 and walked[0] is e
        unions, leaves = walked[: 10**4 - 1], walked[10**4 - 1 :]
        assert all(unions[i].left is unions[i + 1] for i in range(len(unions) - 1))
        assert [leaf.name for leaf in leaves] == [f"a{i}" for i in range(10**4)]
        assert alphabet(e) == {f"a{i}" for i in range(10**4)}

    @given(regexes())
    def test_independent_copies_are_equal_and_hash_equal(self, e):
        copy = rebuild(e)
        assert copy is not e
        assert copy == e and e == copy
        assert hash(copy) == hash(e)

    @given(regexes(), st.data())
    def test_one_leaf_mutation_makes_copies_unequal(self, e, data):
        leaf_count = sum(1 for node in subterms(e) if isinstance(node, (Empty, Eps, Sym)))
        target = data.draw(st.integers(min_value=0, max_value=leaf_count - 1))
        mutated = rebuild(e, lambda index, leaf: other_leaf(leaf) if index == target else leaf)
        assert mutated != e and e != mutated
        # With every hash forced equal, the structural walk alone must find the leaf.
        for original, changed in zip(subterms(e), subterms(mutated)):
            changed._hash = original._hash
        assert mutated != e

    def test_not_equal_to_other_types(self):
        assert Sym("a") != "a"
        assert Empty() != Eps()
