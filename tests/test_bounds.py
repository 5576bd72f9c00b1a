import operator

from hypothesis import given

from derivmon.bounds import (
    BoundReport,
    check_height_invariant,
    check_size_invariant,
    height_increment_bound,
    size_increment_bound,
)
from derivmon.partial import partial_derivatives
from derivmon.syntax import (
    Cat,
    Empty,
    Eps,
    Or,
    Shuffle,
    Star,
    Sym,
    height,
    parse,
    size,
)
from strategies import regexes


class TestHeightIncrementBound:
    def test_star(self):
        assert height_increment_bound(parse("a*")) == 1

    def test_union(self):
        assert height_increment_bound(parse("a + b")) == 0

    def test_concatenation_forwards_left_budget(self):
        assert height_increment_bound(parse("a* b*")) == 1

    def test_left_side_is_forwarded_only_when_at_least_as_tall(self):
        assert height_increment_bound(parse("a* b")) == 1
        assert height_increment_bound(parse("a b*")) == 0

    def test_short_left_side_is_masked(self):
        assert height_increment_bound(parse("a* (b*)*")) == 0

    def test_empty(self):
        assert height_increment_bound(Empty()) == 0


class TestSizeIncrementBound:
    def test_star(self):
        assert size_increment_bound(parse("a*")) == 2

    def test_shuffled_stars_add_up(self):
        assert size_increment_bound(parse("a* || b*")) == 4

    def test_constants(self):
        assert size_increment_bound(Eps()) == 0
        assert size_increment_bound(Sym("a")) == 0
        assert size_increment_bound(Empty()) == 0


# The recursive definitions the explicit-stack budgets replaced, kept as the reference.


def reference_height_increment_bound(e):
    match e:
        case Empty() | Eps() | Sym() | Or():
            return 0
        case Star():
            return 1
        case Cat(left, right):
            return (left.height >= right.height) * reference_height_increment_bound(left)
        case Shuffle(left, right):
            return max(
                (left.height >= right.height) * reference_height_increment_bound(left),
                (right.height >= left.height) * reference_height_increment_bound(right),
            )
    raise TypeError(f"not a Regex: {e!r}")


def reference_size_increment_bound(e, combine=operator.add):
    """``combine`` joins the two sides' budgets under a shuffle."""
    match e:
        case Empty() | Eps() | Sym():
            return 0
        case Cat(left, right):
            return max(
                reference_size_increment_bound(left, combine),
                reference_size_increment_bound(right, combine) - size(left) - 1,
            )
        case Or(left, right):
            return max(
                reference_size_increment_bound(left, combine) - size(right) - 1,
                reference_size_increment_bound(right, combine) - size(left) - 1,
                0,
            )
        case Star(body):
            return size(body) + reference_size_increment_bound(body, combine) + 1
        case Shuffle(left, right):
            return combine(
                reference_size_increment_bound(left, combine),
                reference_size_increment_bound(right, combine),
            )
    raise TypeError(f"not a Regex: {e!r}")


class TestBudgetsWithoutRecursion:
    @given(regexes(max_leaves=12))
    def test_match_the_recursive_reference(self, e):
        assert height_increment_bound(e) == reference_height_increment_bound(e)
        assert size_increment_bound(e) == reference_size_increment_bound(e)

    def test_deep_terms(self):
        union = parse(" + ".join(["a"] * 10_000))
        assert (height_increment_bound(union), size_increment_bound(union)) == (0, 0)
        tower = Sym("a")
        for _ in range(10_000):
            tower = Star(tower)
        assert height_increment_bound(tower) == 1
        # Each star adds its body's size, its body's budget and one node.
        assert size_increment_bound(tower) == sum(range(10_001)) + 10_000


class TestInvariantChecks:
    def test_star_pair_height_report(self):
        (report,) = check_height_invariant(parse("a* b*"), "a")
        assert (report.metric_before, report.metric_after) == (2, 3)
        assert (report.bound_before, report.bound_after) == (1, 0)
        assert report.holds

    def test_shuffle_member_with_height_jump_has_zero_budget(self):
        e = parse("(eps || a*) (b || a*)")
        member = parse("(eps || eps a*) (b || a*)")
        reports = {r.expr: r for r in check_height_invariant(e, "a")}
        assert member in reports
        report = reports[member]
        assert report.metric_after == height(e) + 1
        assert report.bound_after == 0
        assert report.holds

    def test_no_derivatives_no_reports(self):
        assert check_height_invariant(parse("0"), "a") == []
        assert check_size_invariant(parse("eps"), "a") == []

    def test_nested_stars_size_report(self):
        (report,) = check_size_invariant(parse("((a*)*)*"), "a")
        assert (report.metric_before, report.metric_after) == (4, 13)
        assert report.holds

    def test_shuffled_stars_size_report(self):
        (report,) = check_size_invariant(parse("a* || b*"), "a")
        assert (report.metric_before, report.metric_after) == (5, 7)
        assert (report.bound_before, report.bound_after) == (4, 2)
        assert report.holds


def test_max_based_shuffle_budget_breaks_the_invariant():
    # Combining shuffle budgets with max instead of sum under-counts
    # repeatable growth on the other side.
    e = parse("a* || b*")
    (d,) = partial_derivatives(e, "a")
    weak_before = reference_size_increment_bound(e, max)
    weak_after = reference_size_increment_bound(d, max)
    assert (size(e), weak_before, size(d), weak_after) == (5, 2, 7, 2)
    # One-sided bound still holds...
    assert size(d) <= size(e) + weak_before
    # ...but the invariant that makes multi-step reasoning work does not.
    assert size(d) + weak_after > size(e) + weak_before
    # The shipped definition repairs exactly this step.
    assert size(d) + size_increment_bound(d) <= size(e) + size_increment_bound(e)


def test_bound_report_holds_property():
    failing = BoundReport(Sym("a"), 1, 5, 1, 0)
    assert not failing.holds
