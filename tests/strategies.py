"""Hypothesis strategies shared by the property suites."""

from hypothesis import strategies as st

from derivmon.syntax import Cat, Empty, Eps, Or, Shuffle, Star, Sym

DEFAULT_ALPHABET = ("a", "b", "c")


def symbols(alphabet=DEFAULT_ALPHABET):
    return st.sampled_from(alphabet)


def regexes(alphabet=DEFAULT_ALPHABET, max_leaves=8, shuffle=True):
    leaves = st.one_of(
        st.just(Empty()),
        st.just(Eps()),
        symbols(alphabet).map(Sym),
    )

    def compound(children):
        binary = st.tuples(children, children)
        options = [
            binary.map(lambda pair: Cat(*pair)),
            binary.map(lambda pair: Or(*pair)),
            children.map(Star),
        ]
        if shuffle:
            options.append(binary.map(lambda pair: Shuffle(*pair)))
        return st.one_of(options)

    return st.recursive(leaves, compound, max_leaves=max_leaves)


def branching_regexes(alphabet=DEFAULT_ALPHABET, max_leaves=8):
    """``regexes()`` mixed with unions and shuffles of two products that
    share a first symbol, nested once, whose NFAs mostly have a step with
    more than one target, and often a second one past it."""
    tails = regexes(alphabet, max_leaves=max_leaves // 2)

    def branch(tails):
        parts = st.tuples(st.sampled_from((Or, Shuffle)), symbols(alphabet), tails, tails)
        return parts.map(lambda p: p[0](Cat(Sym(p[1]), p[2]), Cat(Sym(p[1]), p[3])))

    return st.one_of(regexes(alphabet, max_leaves), branch(st.one_of(tails, branch(tails))))


def words(alphabet=DEFAULT_ALPHABET, max_len=5):
    return st.lists(symbols(alphabet), max_size=max_len).map(tuple)
