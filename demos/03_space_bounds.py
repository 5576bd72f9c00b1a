"""How big can a partial derivative get?  Budgets and invariants.

Run with: python demos/03_space_bounds.py
"""

from derivmon import format_regex, height, parse, size
from derivmon.bounds import height_increment_bound, size_increment_bound, star_chain_growth
from derivmon.partial import partial_derivatives

# Two metrics, two budget functions.  The budget bounds how much the metric
# can still grow along ANY future chain of steps, and the running invariant
# is: metric + budget never increases.
e = parse("a* b*")
print("expression:", format_regex(e))
print("height", height(e), "+ budget", height_increment_bound(e))
(d,) = partial_derivatives(e, "a")
print("after a:", format_regex(d))
print("height", height(d), "+ budget", height_increment_bound(d))
print("=> height can only ever rise by one, and only on the first step")
print()

# Size is quadratic rather than constant: a tower of stars realizes the
# worst case.  The derivative size follows the closed formula
# n + (n^2 + n)/2 - 1 exactly.
print("star chains: size n -> derivative size")
for n in range(2, 9):
    observed, predicted = star_chain_growth(n)
    marker = "ok" if observed == predicted else "MISMATCH"
    print(f"  n={n}: observed {observed:3d}  predicted {predicted:3d}  {marker}")
print()

# Why the shuffle case of the size budget must ADD the two sides instead of
# taking their max: both sides of a shuffle stay alive, so both can still
# grow.  With max, the invariant breaks on the very first step here.
pair = parse("a* || b*")
(after,) = partial_derivatives(pair, "a")


def max_based_budget(x):
    # same recursion as size_increment_bound but max over shuffle sides
    from derivmon.syntax import Cat, Empty, Eps, Or, Shuffle, Star, Sym
    match x:
        case Empty() | Eps() | Sym():
            return 0
        case Cat(l, r):
            return max(max_based_budget(l), max_based_budget(r) - size(l) - 1)
        case Or(l, r):
            return max(max_based_budget(l) - size(r) - 1,
                       max_based_budget(r) - size(l) - 1, 0)
        case Star(b):
            return size(b) + max_based_budget(b) + 1
        case Shuffle(l, r):
            return max(max_based_budget(l), max_based_budget(r))


print(f"{format_regex(pair)}  --a-->  {format_regex(after)}")
print(f"  sizes: {size(pair)} -> {size(after)}")
print(f"  additive budgets: {size_increment_bound(pair)} -> {size_increment_bound(after)}")
lhs = size(after) + size_increment_bound(after)
rhs = size(pair) + size_increment_bound(pair)
print(f"  invariant with sum: {lhs} <= {rhs}  ({lhs <= rhs})")
weak_lhs = size(after) + max_based_budget(after)
weak_rhs = size(pair) + max_based_budget(pair)
print(f"  invariant with max: {weak_lhs} <= {weak_rhs}  ({weak_lhs <= weak_rhs})  <- broken")
print()

# The same sums make the invariant visible on arbitrary expressions.
tower = parse("((a*)*)*")
m, b = size(tower), size_increment_bound(tower)
print("size reports for ((a*)*)* under a:")
for member in sorted(partial_derivatives(tower, "a"), key=format_regex):
    m_after, b_after = size(member), size_increment_bound(member)
    holds = m_after + b_after <= m + b
    print(f"  {m}+{b} >= {m_after}+{b_after}  holds={holds}  {format_regex(member)}")
