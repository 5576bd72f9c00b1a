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


def all_regexes(max_size):
    """Every expression tree over ``a b``, shuffle included, of at most
    ``max_size`` nodes, by size: 4, 4, 52, 148, 1444 and 6244 trees of
    sizes 1 to 6."""
    by_size = [[], [Empty(), Eps(), Sym("a"), Sym("b")]]
    for n in range(2, max_size + 1):
        trees = [Star(body) for body in by_size[n - 1]]
        for k in range(1, n - 1):
            pairs = [(left, right) for left in by_size[k] for right in by_size[n - 1 - k]]
            trees += [kind(left, right) for kind in (Cat, Or, Shuffle) for left, right in pairs]
        by_size.append(trees)
    return [e for trees in by_size for e in trees]


def words(alphabet=DEFAULT_ALPHABET, max_len=5):
    return st.lists(symbols(alphabet), max_size=max_len).map(tuple)
