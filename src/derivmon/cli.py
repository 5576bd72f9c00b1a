"""Command-line front end.

Subcommands: derive, pderive, closure, bounds, nfa, oracle, monitor,
fuzz.  Monitor runs exit with 0/1/2 for ACCEPTING/PENDING/VIOLATION;
input problems (usage errors, unparsable expressions, missing files)
exit with 3; an internal failure exits with 4, never as a verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import NoReturn

from . import bounds as bounds_mod
from . import check, corpus, derivative, oracle, partial
from .automaton import build_nfa
from .errors import CapacityError
from .monitor import MonitorSession, Verdict, new_session, run_trace
from .syntax import Word, format_regex, parse, parse_word

_VERDICT_EXIT = {Verdict.ACCEPTING: 0, Verdict.PENDING: 1, Verdict.VIOLATION: 2}
_INPUT_ERROR = 3
_INTERNAL_ERROR = 4


def _word_from_args(symbols: list[str]) -> Word:
    return parse_word(" ".join(symbols))


def _cmd_derive(args: argparse.Namespace) -> int:
    e = parse(args.expr)
    print(format_regex(derivative.derive_word(e, _word_from_args(args.symbols))))
    return 0


def _cmd_pderive(args: argparse.Namespace) -> int:
    e = parse(args.expr)
    frontier = partial.partial_derivatives_word(e, _word_from_args(args.symbols))
    for member in sorted(frontier, key=format_regex):
        print(format_regex(member))
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    states = build_nfa(parse(args.expr)).states
    for member in sorted(states, key=format_regex):
        print(format_regex(member))
    print(f"total {len(states)}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    e = parse(args.expr)
    if not args.trace:
        if args.symbols:
            raise ValueError("word arguments require --trace")
        print(f"height: {e.height}")
        print(f"size: {e.size}")
        print(f"deltaMax: {bounds_mod.height_increment_bound(e)}")
        print(f"etaMax: {bounds_mod.size_increment_bound(e)}")
        return 0
    word = _word_from_args(args.symbols)
    h_budget = bounds_mod.height_budget(e)
    s_budget = bounds_mod.size_budget(e)
    print("step\tsymbol\theight\tsize\tdeltaMax\tetaMax\theightBudget\tsizeBudget")

    def print_rows(symbol: str, session: MonitorSession) -> None:
        for member in sorted(session.frontier, key=format_regex):
            print(
                f"{session.events_seen}\t{symbol}\t{member.height}\t{member.size}"
                f"\t{bounds_mod.height_increment_bound(member)}"
                f"\t{bounds_mod.size_increment_bound(member)}"
                f"\t{h_budget}\t{s_budget}"
            )

    print_rows("-", new_session(e))
    run_trace(e, word, print_rows)
    return 0


def _cmd_nfa(args: argparse.Namespace) -> int:
    nfa = build_nfa(parse(args.expr))
    if args.dot:
        print(nfa.to_dot())
    else:
        print(json.dumps(nfa.to_json_dict(), indent=2))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    words = oracle.lang_up_to(parse(args.expr), args.max_len)
    for word in sorted(words, key=lambda w: (len(w), w)):
        print(" ".join(word))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    spec = parse(Path(args.spec_file).read_text())
    if args.trace_file == "-":
        trace_text = sys.stdin.read()
    else:
        trace_text = Path(args.trace_file).read_text()

    def print_step(event: str, session: MonitorSession) -> None:
        print(f"{session.events_seen} {event} {session.verdict.value} {len(session.frontier)}")

    hook = print_step if args.step else None
    trace = parse_word(trace_text)
    # Opened first, so a bad stats path exits 3 before any verdict is printed.
    with open(args.stats, "w") if args.stats else contextlib.nullcontext() as stats_file:
        verdict, stats = run_trace(spec, trace, hook)
        if stats_file is not None:
            stats_file.write(json.dumps(stats.to_json_dict(), separators=(",", ":")) + "\n")
    print(verdict.value)
    return _VERDICT_EXIT[verdict]


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    if args.max_word_len < 0:
        raise ValueError(f"--max-word-len must be non-negative, got {args.max_word_len}")
    if args.max_word_len > oracle.DEFAULT_MAX_LEN_GUARD:
        raise ValueError(
            f"--max-word-len must be at most {oracle.DEFAULT_MAX_LEN_GUARD}, got {args.max_word_len}"
        )

    max_len = args.max_word_len
    cfg = corpus.GenConfig(seed=args.seed, shuffle_enabled=args.shuffle)
    for e in corpus.gen_corpus(cfg, args.count):
        if check.problem(e, max_len) is None:
            continue
        shrunk = corpus.shrink_regex(e, lambda x: check.problem(x, max_len) is not None)
        print(f"FAIL: {check.problem(shrunk, max_len)}")
        print(f"counterexample: {format_regex(shrunk)}")
        return 1
    print(f"ok: {args.count} expressions checked (seed {args.seed})")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are input problems: they exit 3, since argparse's 2 reads
    as VIOLATION.  Subparsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="derivmon",
        description="Regular-expression derivatives with shuffle, and trace monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print the word derivative of an expression")
    p.add_argument("expr")
    p.add_argument("symbols", nargs="*", help="event symbols; none means the empty word")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("pderive", help="print the partial-derivative frontier for a word")
    p.add_argument("expr")
    p.add_argument("symbols", nargs="*")
    p.set_defaults(func=_cmd_pderive)

    p = sub.add_parser("closure", help="print all reachable partial derivatives")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("bounds", help="print metrics and growth budgets")
    p.add_argument("expr")
    p.add_argument("symbols", nargs="*")
    p.add_argument("--trace", action="store_true", help="tabulate a walk over the word")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("nfa", help="emit the partial-derivative NFA")
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true", help="Graphviz instead of JSON")
    p.set_defaults(func=_cmd_nfa)

    p = sub.add_parser("oracle", help="enumerate the language up to a length")
    p.add_argument("expr")
    p.add_argument("max_len", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("monitor", help="check an event trace against a specification")
    p.add_argument("spec_file")
    p.add_argument("trace_file", nargs="?", default="-", help="trace file or - for stdin")
    p.add_argument("--stats", metavar="PATH", help="write end-of-trace statistics as JSON")
    p.add_argument("--step", action="store_true", help="print one verdict line per event")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("fuzz", help="randomized agreement and bounds checking")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true", help="enable the shuffle operator")
    p.add_argument(
        "--max-word-len",
        type=int,
        default=3,
        help=f"check every word up to this length, at most {oracle.DEFAULT_MAX_LEN_GUARD}; each"
        " added symbol costs about 4x in time and 3x in memory (measured figures: README, fuzz table)",
    )
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _INTERNAL_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
