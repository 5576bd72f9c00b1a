from derivmon import derivative
from derivmon.automaton import build_nfa
from derivmon.check import agreement_problem
from derivmon.syntax import Empty, parse


def test_agreement_problem_names_the_shortest_failing_word(monkeypatch):
    derive = derivative.derive
    monkeypatch.setattr(
        derivative, "derive", lambda e, symbol: Empty() if symbol == "b" else derive(e, symbol)
    )
    e = parse("(a + b)*")
    # Depth first, ('a', 'b') fails before ('b',) is reached.
    assert agreement_problem(e, build_nfa(e), ("a", "b"), 2) == (
        "derivative disagrees with oracle on ('b',)"
    )
