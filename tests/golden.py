"""The golden example set and its replay helper.

The worked examples collect small expressions with independently known
derivatives, metrics, and verdicts.  They are the one home of these
hand-checked values; acceptance criterion 1 replays them as regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from derivmon import bounds, derivative, monitor, partial
from derivmon.syntax import Word, has_eps, height, parse, size


@dataclass(frozen=True)
class CorpusEntry:
    """A golden example: an expression, an optional trace, and expectations.

    ``expect`` keys understood by :func:`replay_entry`:

    - ``derive``: mapping symbol -> rendered Brzozowski derivative
    - ``derive_has_eps``: mapping symbol -> whether the derivative is nullable
    - ``frontier``: mapping symbol -> exact list of rendered members
    - ``walk_heights`` / ``walk_sizes`` / ``walk_size_slack``: metric
      values along the trace, which must keep the frontier a singleton
    - ``frontier_after_contains``: rendered members the final frontier
      must include
    - ``verdict``: final monitor verdict name for the trace
    - ``frontier_history``: frontier cardinality at the start and after
      each event, as the monitor's ``on_step`` hook sees it
    """

    label: str
    text: str
    trace: Word = ()
    expect: Mapping[str, object] = field(default_factory=dict)


def worked_examples() -> list[CorpusEntry]:
    """The fixed regression corpus of hand-checked examples."""
    return [
        CorpusEntry(
            label="sum of products keeps both branches",
            text="a b + a c",
            expect={
                "derive": {
                    "a": "(eps b + 0 0) + (eps c + 0 0)",
                    "b": "(0 b + 0 eps) + (0 c + 0 0)",
                },
                "frontier": {"a": ["eps b", "eps c"]},
            },
        ),
        CorpusEntry(
            label="star pair, height rises then falls",
            text="a* b*",
            trace=("a", "b"),
            expect={"walk_heights": [2, 3, 2]},
        ),
        CorpusEntry(
            label="star pair, height stays flat",
            text="a* b*",
            trace=("b", "b"),
            expect={"walk_heights": [2, 2, 2]},
        ),
        CorpusEntry(
            label="nested stars, quadratic size jump",
            text="((a*)*)*",
            trace=("a", "a"),
            expect={"walk_sizes": [4, 13, 13]},
        ),
        CorpusEntry(
            label="late size growth under concatenation",
            text="a b**",
            trace=("a", "b"),
            expect={"walk_sizes": [5, 5, 8]},
        ),
        CorpusEntry(
            label="shuffle stuck on a foreign symbol",
            text="a0 || a1",
            expect={
                "derive": {"a2": "(0 || a1) + (a0 || 0)"},
                "derive_has_eps": {"a2": False},
                "frontier": {"a2": []},
            },
        ),
        CorpusEntry(
            label="shuffled stars, size budget must add up",
            text="a* || b*",
            trace=("a",),
            expect={"walk_sizes": [5, 7], "walk_size_slack": [4, 2]},
        ),
        CorpusEntry(
            label="shuffle makes height budgets recur",
            text="(eps || a*) (b || a*)",
            trace=("a", "b", "a"),
            expect={"frontier_after_contains": ["eps || eps a*"]},
        ),
        CorpusEntry(
            label="two file sessions, valid interleaving",
            text="o1 a1 c1 || o2 a2 c2",
            trace=("o1", "o2", "a2", "a1", "c1", "c2"),
            expect={"verdict": "ACCEPTING"},
        ),
        CorpusEntry(
            label="two file sessions, close before access",
            text="o1 a1 c1 || o2 a2 c2",
            trace=("o1", "c1"),
            expect={"verdict": "VIOLATION", "frontier_history": [1, 1, 0]},
        ),
    ]


def replay_entry(entry):
    """Run every expectation attached to a corpus entry; assert exact matches."""
    e = parse(entry.text)
    expect = entry.expect

    for symbol, rendered in expect.get("derive", {}).items():
        assert derivative.derive(e, symbol) == parse(rendered), entry.label

    for symbol, nullable in expect.get("derive_has_eps", {}).items():
        assert has_eps(derivative.derive(e, symbol)) == nullable, entry.label

    for symbol, rendered_members in expect.get("frontier", {}).items():
        expected = frozenset(parse(text) for text in rendered_members)
        assert partial.partial_derivatives(e, symbol) == expected, entry.label

    walk_keys = [key for key in ("walk_heights", "walk_sizes", "walk_size_slack") if key in expect]
    if walk_keys:
        metric = {
            "walk_heights": height,
            "walk_sizes": size,
            "walk_size_slack": bounds.size_increment_bound,
        }
        observed = {key: [] for key in walk_keys}
        current = e
        for key in walk_keys:
            observed[key].append(metric[key](current))
        for symbol in entry.trace:
            (current,) = partial.partial_derivatives(current, symbol)
            for key in walk_keys:
                observed[key].append(metric[key](current))
        for key in walk_keys:
            assert observed[key] == list(expect[key]), (entry.label, key)

    if "frontier_after_contains" in expect:
        frontier = partial.partial_derivatives_word(e, entry.trace)
        for rendered in expect["frontier_after_contains"]:
            assert parse(rendered) in frontier, entry.label

    if "verdict" in expect or "frontier_history" in expect:
        sizes = [1]
        verdict, _ = monitor.run_trace(
            e, entry.trace, lambda _, session: sizes.append(len(session.frontier))
        )
        if "verdict" in expect:
            assert verdict.name == expect["verdict"], entry.label
        if "frontier_history" in expect:
            assert sizes == list(expect["frontier_history"]), entry.label
