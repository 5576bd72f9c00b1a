"""Brute-force language enumeration, the semantic ground truth.

Everything here works directly from the set-theoretic meaning of the
operators, by enumerating all words up to a length bound.  It is
deliberately naive: the rest of the package is validated against these
functions on small instances, so they must not share any machinery with
the derivative engines.
"""

from __future__ import annotations

from .errors import CapacityError
from .syntax import Cat, Empty, Eps, Or, Regex, Shuffle, Star, Sym, Word

DEFAULT_MAX_LEN_GUARD = 12
DEFAULT_CAP = 1_000_000


def shuffle_words(w1: Word, w2: Word) -> frozenset[Word]:
    """All order-preserving interleavings of two words.

    The result has at most C(|w1|+|w2|, |w1|) elements, with equality
    when the two words share no symbol.
    """
    # ``row[j]`` holds the interleavings of ``w2[:j]`` with the part of ``w1`` read so far.
    row = [frozenset({w2[:j]}) for j in range(len(w2) + 1)]
    for a in w1:
        built = [frozenset({u + (a,) for u in row[0]})]
        for j, b in enumerate(w2, 1):
            built.append(frozenset({u + (a,) for u in row[j]} | {u + (b,) for u in built[-1]}))
        row = built
    return row[-1]


def lang_up_to(e: Regex, max_len: int) -> frozenset[Word]:
    """All words of the language of ``e`` having length at most ``max_len``.

    ``max_len`` must stay at or below ``DEFAULT_MAX_LEN_GUARD``; shuffles
    and stars blow up combinatorially, and a :class:`CapacityError` is
    raised instead of hanging when an intermediate set outgrows
    ``DEFAULT_CAP``.  Both constants are read at call time.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    guard, cap = DEFAULT_MAX_LEN_GUARD, DEFAULT_CAP
    if max_len > guard:
        raise ValueError(f"max_len {max_len} exceeds guard {guard}")

    memo: dict[Regex, frozenset[Word]] = {}

    def check(words: set[Word] | frozenset[Word]) -> None:
        if len(words) > cap:
            raise CapacityError(f"language enumeration exceeded {cap} words")

    # Post-order over an explicit stack: a node comes back as ready above
    # its children, whose languages then sit on top of ``langs``, the right
    # side's above the left's.  Structurally equal subterms share one memo entry.
    langs: list[frozenset[Word]] = []
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            cached = memo.get(node)
            if cached is not None:
                langs.append(cached)
                continue
            stack.append((node, True))
            kind = type(node)
            if kind is Star:
                stack.append((node.body, False))
            elif kind is Cat or kind is Or or kind is Shuffle:
                stack.append((node.right, False))
                stack.append((node.left, False))
            continue
        out: frozenset[Word]
        match node:
            case Empty():
                out = frozenset()
            case Eps():
                out = frozenset({()})
            case Sym(name):
                out = frozenset({(name,)}) if max_len >= 1 else frozenset()
            case Or():
                out = langs.pop() | langs.pop()
            case Cat():
                rights, lefts = langs.pop(), langs.pop()
                acc: set[Word] = set()
                for u in lefts:
                    room = max_len - len(u)
                    for v in rights:
                        if len(v) <= room:
                            acc.add(u + v)
                    check(acc)
                out = frozenset(acc)
            case Shuffle():
                rights, lefts = langs.pop(), langs.pop()
                acc = set()
                for u in lefts:
                    room = max_len - len(u)
                    for v in rights:
                        if len(v) <= room:
                            acc |= shuffle_words(u, v)
                    check(acc)
                out = frozenset(acc)
            case Star():
                base = [w for w in langs.pop() if w]
                reached: set[Word] = {()}
                todo: list[Word] = [()]
                while todo:
                    w = todo.pop()
                    for u in base:
                        v = w + u
                        if len(v) <= max_len and v not in reached:
                            reached.add(v)
                            todo.append(v)
                    check(reached)
                out = frozenset(reached)
            case _:
                raise TypeError(f"not a Regex: {node!r}")
        check(out)
        memo[node] = out
        langs.append(out)
    return langs[0]
