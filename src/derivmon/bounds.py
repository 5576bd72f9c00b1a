"""Increment budgets for the space taken by partial derivatives.

For each metric (height, size) there is a budget function giving an
upper bound on how much that metric can still grow along any future
chain of partial-derivative steps.  Writing ``m`` for the metric and
``B`` for its budget, every single step ``e -> e'`` satisfies

    m(e') + B(e') <= m(e) + B(e)

so ``m + B`` never increases along a run.  Combined with the ranges
``0 <= height budget <= 1`` and ``0 <= size budget <= size^2``, any
derivative reachable by any word has height at most ``height(e) + 1``
and size at most ``size(e) + size(e)^2``.  The checkers below evaluate
the invariant on actual derivation steps and report per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .partial import partial_derivatives
from .syntax import (
    Cat,
    Empty,
    Eps,
    Or,
    Regex,
    Shuffle,
    Star,
    Sym,
    Symbol,
    format_regex,
    height,
    size,
    subterms,
)


def height_increment_bound(e: Regex) -> int:
    """Budget for future height growth; always 0 or 1.

    Only a star can add a level, and only while it sits on the spine
    that determines the overall height: a concatenation forwards its
    left budget only when the left side is at least as tall, a shuffle
    keeps the budgets of its not-strictly-shorter sides, and a union
    discards both (its derivative drops the union node).  So the budget
    is 1 exactly when a star is reachable along forwarded sides.
    """
    stack = [e]
    while stack:
        match stack.pop():
            case Star():
                return 1
            case Cat(left, right):
                if left.height >= right.height:
                    stack.append(left)
            case Shuffle(left, right):
                if left.height >= right.height:
                    stack.append(left)
                if right.height >= left.height:
                    stack.append(right)
            case Empty() | Eps() | Sym() | Or():
                pass
            case node:
                raise TypeError(f"not a Regex: {node!r}")
    return 0


def size_increment_bound(e: Regex) -> int:
    """Budget for future size growth; between 0 and size(e)^2.

    A star unfolds into ``d e*`` and so can add up to the size of its
    body plus the body's own budget plus one concatenation node.  The
    branches of a union and the consumed left factor of a concatenation
    are subtracted because stepping removes them.  A shuffle keeps both
    sides alive, so both budgets add up.  Intermediate values are
    signed; the outer max keeps the result non-negative.
    """
    budgets: list[int] = []
    for node in reversed(subterms(e)):
        kind = type(node)
        if kind is Cat:
            left, right = budgets.pop(), budgets.pop()
            budget = max(left, right - node.left.size - 1)
        elif kind is Or:
            left, right = budgets.pop(), budgets.pop()
            budget = max(left - node.right.size - 1, right - node.left.size - 1, 0)
        elif kind is Star:
            budget = node.body.size + budgets.pop() + 1
        elif kind is Shuffle:
            budget = budgets.pop() + budgets.pop()
        elif kind is Empty or kind is Eps or kind is Sym:
            budget = 0
        else:
            raise TypeError(f"not a Regex: {node!r}")
        budgets.append(budget)
    return budgets[0]


def height_budget(e: Regex) -> int:
    """Hard cap on the height of any derivative reachable from ``e``."""
    return e.height + 1


def size_budget(e: Regex) -> int:
    """Hard cap on the size of any derivative reachable from ``e``."""
    return e.size + e.size**2


@dataclass(frozen=True)
class BoundReport:
    """One derivation step seen through a metric and its budget."""

    expr: Regex
    metric_before: int
    metric_after: int
    bound_before: int
    bound_after: int

    @property
    def holds(self) -> bool:
        return self.metric_after + self.bound_after <= self.metric_before + self.bound_before


def _reports(
    e: Regex, symbol: Symbol, metric: Callable[[Regex], int], budget: Callable[[Regex], int]
) -> list[BoundReport]:
    m, b = metric(e), budget(e)
    return [
        BoundReport(d, m, metric(d), b, budget(d))
        for d in sorted(partial_derivatives(e, symbol), key=format_regex)
    ]


def check_height_invariant(e: Regex, symbol: Symbol) -> list[BoundReport]:
    """Height reports for every partial derivative of ``e`` by ``symbol``."""
    return _reports(e, symbol, height, height_increment_bound)


def check_size_invariant(e: Regex, symbol: Symbol) -> list[BoundReport]:
    """Size reports for every partial derivative of ``e`` by ``symbol``."""
    return _reports(e, symbol, size, size_increment_bound)


def star_chain_growth(n: int) -> tuple[int, int]:
    """Observed and predicted derivative size for an n-node star chain.

    The expression is a single symbol under n-1 stars, so its size is
    exactly n.  Its unique partial derivative under that symbol has
    size n + (n^2 + n)/2 - 1; the returned pair is (observed,
    predicted) and the two must agree.
    """
    if n < 2:
        raise ValueError("need n >= 2 for at least one star")
    e: Regex = Sym("a")
    for _ in range(n - 1):
        e = Star(e)
    (derivative,) = partial_derivatives(e, "a")
    predicted = e.size + (n * n + n) // 2 - 1
    return derivative.size, predicted
