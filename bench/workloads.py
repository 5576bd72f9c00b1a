"""The four benchmark workloads: seeded inputs, one pass, and output checks.

Every workload builds its inputs from the seed before timing starts and
then runs identical passes over them (check-corpus cycles through equal
-profile batches).  A pass is a closed loop: each call returns before
the next is made.  Outputs are checked against references that do not
come from the engine under test:

* stream-star and stream-deep: the verdict after every event, known from
  how the trace was generated;
* check-corpus: ``oracle.lang_up_to`` for acceptance, and the budget
  formulas for the bounds;
* nfa-build: the closed-form state and transition counts of the
  file-descriptor spec, and acceptance by projecting a trace onto each
  session.

An op is the unit counted in ``attempted``: a monitored session on the
stream workloads, one expression on check-corpus, one NFA build or one
trace acceptance on nfa-build.  An op fails on an exception (counted by
its class name) or on any disagreement with the reference ("mismatch").
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter_ns
from types import SimpleNamespace


@dataclass
class Pass:
    """What one pass did and how long it took."""

    wall_ns: int = 0
    events: int = 0
    event_ns: int = 0
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    latencies_ns: list[int] = field(default_factory=list)
    # Set by the caller after the pass, which then drops the latencies:
    samples: int = 0
    p99_ns: float = 0.0


def _failure(exc: Exception) -> str:
    return type(exc).__name__


# --------------------------------------------------------------------------
# Stream workloads: sessions of the monitor, verdict checked at every event.


@dataclass
class Streams:
    specs: list
    events: list[list[str]]
    expected: list[list]  # Verdict after each event
    order: list[int]  # session index of each event, in feed order


def run_streams(api: SimpleNamespace, streams: Streams, tracer=None) -> Pass:
    """Feed every session its trace, in ``streams.order``."""
    result = Pass()
    step, verdict = api.step, api.current_verdict
    n = len(streams.specs)
    sessions: list = [None] * n
    failed: list[str | None] = [None] * n
    position = [0] * n
    latencies = result.latencies_ns
    counting = tracer is not None and tracer.counting
    transitions: set = set()
    started = perf_counter_ns()
    for i, spec in enumerate(streams.specs):
        try:
            sessions[i] = api.new_session(spec)
        except Exception as exc:
            failed[i] = _failure(exc)
    for i in streams.order:
        k = position[i]
        position[i] = k + 1
        session = sessions[i]
        if session is None:
            continue
        event = streams.events[i][k]
        try:
            t0 = perf_counter_ns()
            session = step(session, event)
            answer = verdict(session)
            t1 = perf_counter_ns()
        except Exception as exc:
            failed[i] = _failure(exc)
            sessions[i] = None
            continue
        latencies.append(t1 - t0)
        if answer is not streams.expected[i][k] and failed[i] is None:
            failed[i] = "mismatch"
        if counting:
            transitions.add((sessions[i].frontier, event))
            tracer.count("monitor.steps")
            tracer.count("monitor.frontier_total", len(session.frontier))
            tracer.maximum("monitor.frontier_max", len(session.frontier))
        sessions[i] = session
    result.wall_ns = perf_counter_ns() - started
    result.events = len(latencies)
    result.event_ns = sum(latencies)
    result.attempted = n
    result.failed.update(kind for kind in failed if kind is not None)
    if counting:
        tracer.count("monitor.distinct_transitions", len(transitions))
        for i, session in enumerate(sessions):
            if session is not None:
                slack = tracer.raw.size_budget(streams.specs[i]) - session.max_size_seen
                tracer.minimum("monitor.size_slack", slack)
    return result


def _round_robin(lengths: list[int]) -> list[int]:
    order = []
    for k in range(max(lengths)):
        order.extend(i for i, length in enumerate(lengths) if k < length)
    return order


# stream-star: concurrent sessions of one spec whose frontiers recur.
STAR_SPEC = "(o a* c)* || (p q)*"
STAR_SESSIONS = 64
STAR_EVENTS = 160  # events per valid session trace
STAR_VIOLATED = 16  # sessions that get one injected event
STAR_TAIL = 4  # events fed after the injected one


def _star_trace(rng: random.Random, inject_at: int | None) -> tuple[list[str], list[str]]:
    """A valid interleaving of (o a* c)* and (p q)*, optionally with one
    event the current state forbids at ``inject_at``; returns the events
    and the verdict name after each."""
    left_open = right_open = violated = False
    events: list[str] = []
    verdicts: list[str] = []
    length = STAR_EVENTS if inject_at is None else inject_at + 1 + STAR_TAIL
    for k in range(length):
        if k == inject_at:
            forbidden = (["o"] if left_open else ["a", "c"]) + (["p"] if right_open else ["q"])
            events.append(rng.choice(forbidden))
            violated = True
        elif rng.random() < 0.5:
            if not left_open:
                events.append("o")
                left_open = True
            elif rng.random() < 0.6:
                events.append("a")
            else:
                events.append("c")
                left_open = False
        else:
            events.append("q" if right_open else "p")
            right_open = not right_open
        if violated:
            verdicts.append("VIOLATION")
        else:
            verdicts.append("PENDING" if left_open or right_open else "ACCEPTING")
    return events, verdicts


def star_inputs(api: SimpleNamespace, seed: int) -> Streams:
    rng = random.Random(seed)
    spec = api.parse(STAR_SPEC)
    violated = set(rng.sample(range(STAR_SESSIONS), STAR_VIOLATED))
    events, expected = [], []
    for i in range(STAR_SESSIONS):
        inject_at = rng.randrange(STAR_EVENTS // 4, 3 * STAR_EVENTS // 4) if i in violated else None
        trace, verdicts = _star_trace(rng, inject_at)
        events.append(trace)
        expected.append([api.Verdict[name] for name in verdicts])
    order = _round_robin([len(trace) for trace in events])
    return Streams([spec] * STAR_SESSIONS, events, expected, order)


# stream-deep: one session per sequence spec e0 e1 ... e(n-1).  Events
# cost about n^2 each, so each spec sits in a fixed stratum of n with a
# fixed trace kind, and the seed moves n and the cut points only a
# little: the cost of a pass is then nearly the same for every seed.
DEEP_N = (32, 52, 72, 92, 112, 132, 152)  # stratum starts; n adds 0..3
DEEP_KINDS = ("complete", "wrong", "truncated", "complete", "truncated", "wrong", "wrong")
DEEP_LONG_N = 1000  # the long spec has n = 1000..1199
DEEP_TAIL = 4  # events fed after the wrong one


def _sequence(n: int) -> str:
    return " ".join(f"e{i}" for i in range(n))


def _deep_trace(rng: random.Random, n: int, kind: str) -> tuple[list[str], list[str]]:
    if kind == "complete":
        return [f"e{i}" for i in range(n)], ["PENDING"] * (n - 1) + ["ACCEPTING"]
    if kind == "truncated":
        m = rng.randint(65 * n // 100, 75 * n // 100)
        return [f"e{i}" for i in range(m)], ["PENDING"] * m
    # wrong at k: e(k) is skipped, so e(k+1) arrives where e(k) is due.
    k = rng.randint(45 * n // 100, 55 * n // 100)
    events = [f"e{i}" for i in range(k)] + [f"e{i}" for i in range(k + 1, k + 2 + DEEP_TAIL)]
    return events, ["PENDING"] * k + ["VIOLATION"] * (1 + DEEP_TAIL)


def deep_inputs(api: SimpleNamespace, seed: int) -> Streams:
    rng = random.Random(seed)
    specs, events, expected = [], [], []
    plan = [(start + rng.randrange(4), kind) for start, kind in zip(DEEP_N, DEEP_KINDS)]
    plan.append((DEEP_LONG_N + rng.randrange(200), "complete"))
    for n, kind in plan:
        specs.append(api.parse(_sequence(n)))
        trace, verdicts = _deep_trace(rng, n, kind)
        events.append(trace)
        expected.append([api.Verdict[name] for name in verdicts])
    order = [i for i, trace in enumerate(events) for _ in trace]
    return Streams(specs, events, expected, order)


# --------------------------------------------------------------------------
# check-corpus: the fuzz check on corpus expressions.

CHECK_BATCH = 45  # expressions per pass
CHECK_BATCHES = 12  # distinct batches; later passes cycle through them
CHECK_POOL = 6  # candidates generated per expression kept
CHECK_REFERENCE_SEED = 0  # seed of the pool that fixes the cost profile
CHECK_WORD_LEN = 4
CHECK_CLOSURE_CAP = 100_000


@dataclass
class Corpus:
    batches: list[list]
    words: list[tuple[str, ...]]
    model_sizes: dict  # id(expression) -> raw derivative sizes, steps 0..4
    next_batch: int = 0


def raw_derivative_sizes(e, steps: int = CHECK_WORD_LEN) -> tuple[int, ...]:
    """Tree sizes of the unsimplified Brzozowski derivatives of ``e`` by
    any word of length 0..steps.

    The raw rules never inspect the symbol, except to choose between the
    size-1 leaves ``eps`` and ``0``, so the sizes depend on the shape of
    ``e`` alone.  This is an independent model of the derivative engine's
    output size, used both as a cost proxy and as a check.
    """
    ones = (1,) * (steps + 1)

    @lru_cache(maxsize=None)
    def cat(a: tuple, b: tuple, k: int) -> int:
        # d(l r) = (d(l) r) + (nu(l) d(r)), with nu(l) a size-1 leaf.
        if k == 0:
            return 1 + a[0] + b[0]
        return 1 + cat(a[1:], b, k - 1) + cat(ones, b[1:], k - 1)

    @lru_cache(maxsize=None)
    def shuffle(a: tuple, b: tuple, k: int) -> int:
        # d(l || r) = (d(l) || r) + (l || d(r))
        if k == 0:
            return 1 + a[0] + b[0]
        return 1 + shuffle(a[1:], b, k - 1) + shuffle(a, b[1:], k - 1)

    def sizes(node) -> tuple[int, ...]:
        kind = type(node).__name__
        if kind in ("Cat", "Or", "Shuffle"):
            a, b = sizes(node.left), sizes(node.right)
            if kind == "Or":
                return tuple(1 + x + y for x, y in zip(a, b))
            combine = cat if kind == "Cat" else shuffle
            return tuple(combine(a, b, k) for k in range(steps + 1))
        if kind == "Star":
            # d(s*) = d(s) s*: step k of the star is step k-1 of that product.
            body = sizes(node.body)
            out = [1 + body[0]]
            for k in range(1, steps + 1):
                known = tuple(out) + (0,) * (steps + 1 - len(out))
                out.append(cat(body[1:] + (0,), known, k - 1))
            return tuple(out)
        return ones

    return sizes(e)


def _all_words(symbols: list[str], max_len: int) -> list[tuple[str, ...]]:
    return [w for n in range(max_len + 1) for w in itertools.product(symbols, repeat=n)]


def _modelled_work(e) -> tuple[int, tuple[int, ...]]:
    """Derivative nodes built by ``derivative.accepts`` over all the check's
    words (a derivative by k symbols is built once per word of length >= k),
    and the raw derivative sizes it is computed from."""
    sizes = raw_derivative_sizes(e)
    built = [sum(3**n for n in range(k, CHECK_WORD_LEN + 1)) for k in range(CHECK_WORD_LEN + 1)]
    return sum(b * s for b, s in zip(built, sizes)), sizes


def corpus_inputs(api: SimpleNamespace, seed: int) -> Corpus:
    """Batches of acceptance-suite corpus expressions with a fixed cost profile.

    Check cost is heavy-tailed (a few expressions take 100 times the
    median), so a plain sample of a few hundred expressions gives a rate
    that depends on the seed.  Instead, for each quantile of the modelled
    work of a fixed reference pool, the seed's pool contributes its
    expression of nearest modelled work; the kept expressions are dealt,
    heaviest first, into batches of equal modelled work.
    """
    kept = CHECK_BATCH * CHECK_BATCHES

    def pool(pool_seed: int):
        cfg = api.GenConfig(max_size=15, alphabet_size=3, shuffle_enabled=True, seed=pool_seed)
        return cfg, api.gen_corpus(cfg, kept * CHECK_POOL)

    cfg, candidates = pool(seed)
    modelled = [_modelled_work(e) for e in candidates]
    reference = sorted(_modelled_work(e)[0] for e in pool(CHECK_REFERENCE_SEED)[1])
    targets = [reference[(2 * q + 1) * len(reference) // (2 * kept)] for q in range(kept)]
    ranked = sorted(range(len(candidates)), key=lambda i: (modelled[i][0], i))
    ranked_work = [modelled[i][0] for i in ranked]
    taken: set[int] = set()
    chosen = []
    for target in targets:
        hi = bisect.bisect_left(ranked_work, target)
        lo = hi - 1
        while lo in taken:
            lo -= 1
        while hi in taken:
            hi += 1
        options = [p for p in (lo, hi) if 0 <= p < len(ranked)]
        pick = min(options, key=lambda p: abs(ranked_work[p] - target))
        taken.add(pick)
        chosen.append(ranked[pick])
    batches: list[list[int]] = [[] for _ in range(CHECK_BATCHES)]
    totals = [0] * CHECK_BATCHES
    for i in sorted(chosen, key=lambda i: -modelled[i][0]):
        b = min((b for b in range(CHECK_BATCHES) if len(batches[b]) < CHECK_BATCH), key=totals.__getitem__)
        batches[b].append(i)
        totals[b] += modelled[i][0]
    rng = random.Random(seed)
    for batch in batches:
        rng.shuffle(batch)
    return Corpus(
        batches=[[candidates[i] for i in batch] for batch in batches],
        words=_all_words(cfg.symbols(), CHECK_WORD_LEN),
        model_sizes={id(candidates[i]): modelled[i][1] for i in chosen},
    )


def _check_expression(api: SimpleNamespace, e, words, result: Pass) -> bool:
    """The fuzz check on one expression; False on the first broken property."""
    if not 0 <= api.height_increment_bound(e) <= 1:
        return False
    if not 0 <= api.size_increment_bound(e) <= api.size(e) ** 2:
        return False
    reachable = api.closure(e, cap=CHECK_CLOSURE_CAP)
    height_budget, size_budget = api.height_budget(e), api.size_budget(e)
    symbols = sorted(api.alphabet(e))
    for state in reachable:
        if api.height(state) > height_budget or api.size(state) > size_budget:
            return False
        for symbol in symbols:
            if not all(r.holds for r in api.check_height_invariant(state, symbol)):
                return False
            if not all(r.holds for r in api.check_size_invariant(state, symbol)):
                return False
    language = api.lang_up_to(e, CHECK_WORD_LEN)
    nfa = api.build_nfa(e)
    engines = (
        (api.derivative_accepts, e),
        (api.partial_accepts, e),
        (api.nfa_accepts, nfa),
    )
    latencies = result.latencies_ns
    ok = True
    for word in words:
        member = word in language
        for accepts, subject in engines:
            t0 = perf_counter_ns()
            answer = accepts(subject, word)
            t1 = perf_counter_ns()
            latencies.append(t1 - t0)
            result.event_ns += t1 - t0
            result.events += len(word)
            ok = ok and answer == member
    return ok


def run_corpus(api: SimpleNamespace, corpus: Corpus, tracer=None) -> Pass:
    """Check the next batch of expressions."""
    result = Pass()
    batch = corpus.batches[corpus.next_batch % len(corpus.batches)]
    corpus.next_batch += 1
    counting = tracer is not None and tracer.counting
    started = perf_counter_ns()
    for e in batch:
        result.attempted += 1
        try:
            ok = _check_expression(api, e, corpus.words, result)
        except Exception as exc:
            result.failed[_failure(exc)] += 1
            continue
        if counting:
            longest = tracer.raw.derive_word(e, corpus.words[-1])
            size = tracer.raw.size(longest)
            tracer.maximum("derivative.max_size", size)
            ok = ok and size == corpus.model_sizes[id(e)][-1]
        if not ok:
            result.failed["mismatch"] += 1
    result.wall_ns = perf_counter_ns() - started
    return result


# --------------------------------------------------------------------------
# nfa-build: eager 4^n construction next to read-only acceptance.

NFA_SESSIONS = (5, 6)
NFA_TRACES = 4000  # per spec, a third each valid, truncated and mutated


@dataclass
class Automata:
    specs: dict
    traces: dict  # n -> list of (trace, expected acceptance)


def _fd_accepts(n: int, trace: tuple[str, ...]) -> bool:
    """Membership in o1 a1 c1 || ... || on an cn by projection: the
    sessions use disjoint symbols, so a trace is accepted iff its events of
    every session read exactly o_i a_i c_i."""
    projected: dict[str, list[str]] = {str(i): [] for i in range(1, n + 1)}
    for event in trace:
        if event[1:] not in projected:
            return False
        projected[event[1:]].append(event[0])
    return all(events == ["o", "a", "c"] for events in projected.values())


def _fd_trace(rng: random.Random, n: int, kind: int) -> tuple[str, ...]:
    owners = [i for i in range(1, n + 1) for _ in range(3)]
    rng.shuffle(owners)
    seen: Counter = Counter()
    trace = []
    for i in owners:
        trace.append("oac"[seen[i]] + str(i))
        seen[i] += 1
    if kind == 1:
        trace = trace[: rng.randrange(1, len(trace))]
    elif kind == 2:
        a, b = rng.sample(range(len(trace)), 2)
        trace[a], trace[b] = trace[b], trace[a]
    return tuple(trace)


def nfa_inputs(api: SimpleNamespace, seed: int) -> Automata:
    rng = random.Random(seed)
    specs = {n: api.file_descriptor_spec(n) for n in NFA_SESSIONS}
    traces = {}
    for n in NFA_SESSIONS:
        batch = [_fd_trace(rng, n, k % 3) for k in range(NFA_TRACES)]
        traces[n] = [(trace, _fd_accepts(n, trace)) for trace in batch]
    return Automata(specs, traces)


def run_automata(api: SimpleNamespace, automata: Automata, tracer=None) -> Pass:
    """Build each NFA, check its size, then run its traces through it."""
    result = Pass()
    accepts = api.nfa_accepts
    latencies = result.latencies_ns
    started = perf_counter_ns()
    for n in NFA_SESSIONS:
        result.attempted += 1
        try:
            nfa = api.build_nfa(automata.specs[n])
        except Exception as exc:
            result.failed[_failure(exc)] += 1
            continue
        if len(nfa.states) != 4**n or len(nfa.transitions) != 3 * n * 4 ** (n - 1):
            result.failed["mismatch"] += 1
        for trace, expected in automata.traces[n]:
            result.attempted += 1
            try:
                t0 = perf_counter_ns()
                answer = accepts(nfa, trace)
                t1 = perf_counter_ns()
            except Exception as exc:
                result.failed[_failure(exc)] += 1
                continue
            latencies.append(t1 - t0)
            result.events += len(trace)
            if answer != expected:
                result.failed["mismatch"] += 1
    result.wall_ns = perf_counter_ns() - started
    result.event_ns = sum(latencies)
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    run_pass: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-star", star_inputs, run_streams),
        Workload("stream-deep", deep_inputs, run_streams),
        Workload("check-corpus", corpus_inputs, run_corpus),
        Workload("nfa-build", nfa_inputs, run_automata),
    )
}
