"""derivmon benchmark: one workload, one process, one thread.

Usage, from the root of a derivmon source tree::

    python3 bench/run.py --workload stream-star --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of that tree.  Set-up (import,
parsing, generating traces and corpus) is repeated and timed before the
measured passes start.  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, whose spans are also written to
``bench/out/``.  The line before it is a JSON object of run context.
See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibration
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("syntax", "derivative", "partial", "bounds", "automaton", "monitor", "oracle", "corpus")
SETUP_REPEATS = 5  # at least, and until SETUP_SECONDS have been spent
SETUP_SECONDS = 1.0


def load_library() -> SimpleNamespace:
    """Import the derivmon modules afresh from ``src/``."""
    for name in [m for m in sys.modules if m == "derivmon" or m.startswith("derivmon.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"derivmon.{name}") for name in MODULES}
    origin = Path(modules["syntax"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"derivmon was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload: workloads.Workload, seed: int, probes: list[float]):
    """Import and build inputs repeatedly; keep the last.

    Returns the set-up times and the slowdown measured by the probes run
    between them, which are also added to ``probes``."""
    times: list[float] = []
    local: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        started = perf_counter()
        dm = load_library()
        inputs = workload.make_inputs(spans.api(dm), seed)
        times.append(perf_counter() - started)
        gc.collect()  # the previous import's cycles, so peak memory does not grow
        local += calibration.probe(times[-1], at_least=1)
    probes += local
    return dm, inputs, times, calibration.slowdown(local)


def run_passes(workload, api, inputs, seconds: float, probes: list[float], tracer=None):
    """Whole passes until ``seconds`` have elapsed; at least one.  Each
    pass is followed by calibration probes."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        p = workload.run_pass(api, inputs, tracer)
        probes += calibration.probe(p.wall_ns / 1e9)
        p.samples = len(p.latencies_ns)
        if p.samples > 1:
            p.p99_ns = statistics.quantiles(p.latencies_ns, n=100)[98]
        p.latencies_ns.clear()  # so that memory does not grow with the run
        passes.append(p)
        if perf_counter() >= deadline:
            return passes


def events_per_s(passes, slowdown: float = 1.0) -> float:
    """Median over passes; at reference speed given the run's slowdown."""
    rates = (p.events / p.event_ns * 1e9 if p.event_ns else 0.0 for p in passes)
    return statistics.median(rates) * slowdown


def failures(passes) -> tuple[int, int, dict[str, int]]:
    """Attempted ops, failed ops, and failed ops by kind."""
    kinds = sum((p.failed for p in passes), Counter())
    return sum(p.attempted for p in passes), sum(kinds.values()), dict(kinds)


def p99_us(passes, slowdown: float) -> float:
    """Median over passes of the p99 call latency, at reference speed."""
    return statistics.median(p.p99_ns for p in passes) / 1e3 / slowdown


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    probes: list[float] = []
    dm, inputs, setup_times, setup_slowdown = set_up(workload, seed, probes)
    passes = run_passes(workload, spans.api(dm), inputs, seconds, probes)
    slowdown = calibration.slowdown(probes)
    attempted, failed, _ = failures(passes)
    raw = {
        "events_per_s": events_per_s(passes),
        "pass_s": statistics.median(p.wall_ns for p in passes) / 1e9,
        "call_p99_us": p99_us(passes, 1.0),
        "setup_s": statistics.median(setup_times),
    }
    metrics = {
        "events_per_s": (raw["events_per_s"] * slowdown, "events/s"),
        "pass_s": (raw["pass_s"] / slowdown, "s"),
        "setup_s": (raw["setup_s"] / setup_slowdown, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_ratio": (1 - failed / attempted, "fraction"),
    }
    context = {
        "passes": len(passes),
        "call_samples_per_pass": statistics.median(p.samples for p in passes),
        "slowdown": slowdown,
        "setup_slowdown": setup_slowdown,
        "probes": len(probes),
        "setups": len(setup_times),
        "raw": raw,
    }
    return metrics, passes, context


def counting_pass(workload, dm: SimpleNamespace, seed: int, tracer: spans.Tracer) -> workloads.Pass:
    """Build fresh inputs and run one pass with exact counting, traced."""
    api = spans.api(dm, tracer)
    inputs = workload.make_inputs(api, seed)
    start = tracer.mark()
    tracer.counting = True
    result = workload.run_pass(api, inputs, tracer)
    tracer.counting = False
    tracer.calls = tracer.summary(start)
    return result


def exact_counts(tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    """The deterministic per-layer numbers of the counting pass."""
    counts, extrema = tracer.counts, tracer.extrema
    steps = counts["monitor.steps"]

    def calls_of(name: str) -> int:
        return tracer.calls.get(name, {}).get("calls", 0)

    return {
        "monitor.step_calls": (calls_of("monitor.step"), "count"),
        "monitor.frontier_mean": (counts["monitor.frontier_total"] / steps if steps else 0.0, "count"),
        "monitor.frontier_max": (extrema.get("monitor.frontier_max", 0), "count"),
        "monitor.transition_reuse": (
            1 - counts["monitor.distinct_transitions"] / steps if steps else 0.0,
            "fraction",
        ),
        "monitor.size_slack": (extrema.get("monitor.size_slack", 0), "count"),
        "partial.step_frontier_calls": (calls_of("partial.step_frontier"), "count"),
        "partial.members_out": (counts["partial.members_out"], "count"),
        "syntax.metrics_calls": (calls_of("syntax.metrics"), "count"),
        "syntax.metric_nodes": (counts["syntax.metric_nodes"], "count"),
        "derivative.accepts_calls": (calls_of("derivative.accepts"), "count"),
        "derivative.max_size": (extrema.get("derivative.max_size", 0), "count"),
        "automaton.states": (counts["automaton.states"], "count"),
        "automaton.transitions": (counts["automaton.transitions"], "count"),
        "automaton.accepts_events": (counts["automaton.accepts_events"], "count"),
    }


def count_run(name: str, seed: int) -> dict[str, float]:
    """Exact counts of one counting pass of workload ``name``."""
    dm = load_library()
    tracer = spans.Tracer(spans.api(dm))
    counting_pass(workloads.WORKLOADS[name], dm, seed, tracer)
    return {key: value for key, (value, _) in exact_counts(tracer).items()}


def traced(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Untraced passes, then traced passes, then one traced counting pass.

    Times are seconds per traced pass at reference speed; parse and
    corpus times come from the counting pass's own input generation."""
    plain_probes: list[float] = []
    dm, inputs, _, _ = set_up(workload, seed, plain_probes)
    plain = run_passes(workload, spans.api(dm), inputs, seconds / 2, plain_probes)
    tracer = spans.Tracer(spans.api(dm))
    traced_probes: list[float] = []
    timed = run_passes(workload, spans.api(dm, tracer), inputs, seconds / 2, traced_probes, tracer)
    per_pass = tracer.summary()
    setup_start = tracer.mark()
    counted = counting_pass(workload, dm, seed, tracer)
    setup = tracer.summary(setup_start)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.tsv.gz")
    passes = plain + timed + [counted]
    attempted, failed, kinds = failures(passes)
    slowdown = calibration.slowdown(traced_probes)
    plain_slowdown = calibration.slowdown(plain_probes)
    untraced_rate = events_per_s(plain, plain_slowdown)
    streams = workload.run_pass is workloads.run_streams
    traced_rate = events_per_s(timed, slowdown)

    def seconds_of(*names: str, key: str = "s", summary=per_pass, runs=len(timed)) -> float:
        total = sum(summary.get(name, {}).get(key, 0.0) for name in names)
        return total / runs / slowdown

    def setup_seconds(name: str) -> float:
        return seconds_of(name, summary=setup, runs=1)

    metrics = exact_counts(tracer)
    metrics.update({
        "monitor.step_s": (seconds_of("monitor.step"), "s"),
        "monitor.step_self_s": (seconds_of("monitor.step", key="self_s"), "s"),
        "monitor.verdict_s": (seconds_of("monitor.verdict"), "s"),
        "monitor.step_p99_us": (p99_us(plain, plain_slowdown) if streams else 0.0, "us"),
        "monitor.step_p99_samples": (sum(p.samples for p in plain) if streams else 0, "count"),
        "partial.step_frontier_s": (seconds_of("partial.step_frontier"), "s"),
        "partial.accepts_s": (seconds_of("partial.accepts"), "s"),
        "partial.closure_s": (seconds_of("partial.closure"), "s"),
        "syntax.parse_calls": (setup.get("syntax.parse", {}).get("calls", 0), "count"),
        "syntax.parse_s": (setup_seconds("syntax.parse"), "s"),
        "syntax.metrics_s": (seconds_of("syntax.metrics"), "s"),
        "derivative.accepts_s": (seconds_of("derivative.accepts"), "s"),
        "oracle.lang_s": (seconds_of("oracle.lang"), "s"),
        "bounds.invariant_s": (seconds_of("bounds.invariant"), "s"),
        "bounds.budget_s": (seconds_of("bounds.budget"), "s"),
        "automaton.build_s": (seconds_of("automaton.build"), "s"),
        "automaton.pd_s": (seconds_of("automaton.pd"), "s"),
        "automaton.order_s": (seconds_of("automaton.order"), "s"),
        "automaton.accepts_s": (seconds_of("automaton.accepts"), "s"),
        "corpus.gen_s": (setup_seconds("corpus.gen"), "s"),
        "failed.RecursionError": (kinds.get("RecursionError", 0), "count"),
        "failed.CapacityError": (kinds.get("CapacityError", 0), "count"),
        "failed.mismatch": (kinds.get("mismatch", 0), "count"),
        "failed.other": (
            sum(v for k, v in kinds.items() if k not in ("RecursionError", "CapacityError", "mismatch")),
            "count",
        ),
        "failed_ratio": (failed / attempted, "fraction"),
        "trace.overhead": (1 - traced_rate / untraced_rate if untraced_rate else 0.0, "fraction"),
        "src.lines": (source_lines(), "count"),
    })
    context = {
        "passes_untraced": len(plain),
        "passes_traced": len(timed),
        "events_per_s_untraced": untraced_rate,
        "events_per_s_traced": traced_rate,
        "spans": tracer.mark(),
    }
    return metrics, passes, context


def source_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    """HEAD of the source tree, read without running git; '' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return ""
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "derivmon" / "__init__.py").is_file():
        print(f"error: no derivmon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    metrics, passes, context = measure(workload, args.seed, args.seconds)
    attempted, failed, kinds = failures(passes)
    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
        src_lines=source_lines(),
        failures=kinds,
    )
    result = {
        "correct": kinds.get("mismatch", 0) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"context": context, **result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
