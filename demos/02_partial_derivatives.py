"""Partial derivatives: set-valued steps, stuck states, finite closure.

Run with: python demos/02_partial_derivatives.py
"""

from derivmon import format_regex, parse
from derivmon.automaton import build_nfa
from derivmon.derivative import derive
from derivmon.oracle import lang_up_to
from derivmon.partial import partial_derivatives

def show(frontier):
    return "{" + ", ".join(sorted(map(format_regex, frontier))) + "}"

# Instead of one padded derivative, a partial-derivative step yields a SET
# of expressions, one per way the symbol can be consumed.  No `0` padding
# appears, and the set can be empty.
e = parse("a b + a c")
print("expression:       ", format_regex(e))
print("frontier under a: ", show(partial_derivatives(e, "a")))
print("frontier under x: ", show(partial_derivatives(e, "x")))
print()

# An empty frontier is a verdict: no extension of the input can ever be
# accepted.  Shuffle keeps that property: a symbol owned by neither side
# gets stuck immediately.
stuck = parse("a0 || a1")
print(format_regex(stuck), "under a2 ->", show(partial_derivatives(stuck, "a2")))
print()

# Folding the set-valued step over a word tracks every nondeterministic
# branch at once.
branching = parse("(eps || a*) (b || a*)")
frontier = frozenset({branching})
print("walking", format_regex(branching), "over a b a:")
for symbol in ("a", "b", "a"):
    frontier = frozenset().union(*(partial_derivatives(m, symbol) for m in frontier))
    print(f"  after {symbol}: {show(frontier)}")
print()

# The languages of the frontier members jointly decompose the Brzozowski
# derivative -- same words, different bookkeeping.
union = frozenset().union(*(lang_up_to(d, 3) for d in partial_derivatives(e, "a")))
assert union == lang_up_to(derive(e, "a"), 3)
print("frontier languages == derivative language, checked up to length 3")
print()

# Unlike Brzozowski derivatives, only finitely many distinct expressions
# are ever reachable.  They are the states of the NFA of demo 04.
for text in ("a*", "(a b)* c", "a* || b*"):
    reachable = build_nfa(parse(text)).states
    print(f"closure({text}) has {len(reachable)} members: {show(reachable)}")
