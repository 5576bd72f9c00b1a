import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import derivmon
from derivmon import check, derivative
from derivmon.cli import main, run
from derivmon.syntax import Empty, format_regex, parse, size
from golden import worked_examples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_word_derivative(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "a b", "a", "b")
        assert code == 0
        assert out.strip() == "0 b + eps eps + (0 0 + 0 0)"

    def test_empty_word_prints_the_expression(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "a* b*")
        assert code == 0
        assert out.strip() == "a* b*"

    def test_quoted_word_argument(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "a", "a")
        assert out.strip() == "eps"

    def test_parse_error_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "derive", "a +")
        assert code == 3
        assert "error:" in err

    def test_non_ascii_symbol_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "derive", "é")
        assert code == 3
        assert err == "error: 1:1: unexpected character 'é'\n"

    def test_golden_derivatives(self, capsys):
        for entry in worked_examples():
            for symbol, rendered in entry.expect.get("derive", {}).items():
                code, out, _ = run_cli(capsys, "derive", entry.text, symbol)
                assert (code, out) == (0, format_regex(parse(rendered)) + "\n"), entry.label


def golden_frontiers(empty):
    cases = [
        (entry, symbol, members)
        for entry in worked_examples()
        for symbol, members in entry.expect.get("frontier", {}).items()
        if (not members) == empty
    ]
    assert cases
    return cases


class TestPderive:
    def test_frontier_sorted_one_per_line(self, capsys):
        for entry, symbol, members in golden_frontiers(empty=False):
            lines = sorted(format_regex(parse(member)) for member in members)
            code, out, _ = run_cli(capsys, "pderive", entry.text, symbol)
            assert (code, out) == (0, "".join(line + "\n" for line in lines)), entry.label

    def test_empty_frontier_prints_nothing(self, capsys):
        for entry, symbol, _ in golden_frontiers(empty=True):
            code, out, _ = run_cli(capsys, "pderive", entry.text, symbol)
            assert (code, out) == (0, ""), entry.label


class TestClosure:
    def test_lists_members_and_count(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "a*")
        assert code == 0
        assert out.splitlines() == ["a*", "eps a*", "total 2"]


class TestBounds:
    def test_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "a* || b*")
        assert code == 0
        assert out.splitlines() == [
            "height: 2",
            "size: 5",
            "deltaMax: 1",
            "etaMax: 4",
        ]

    def test_trace_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--trace", "a* b*", "a", "b")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "step", "symbol", "height", "size",
            "deltaMax", "etaMax", "heightBudget", "sizeBudget",
        ]
        assert lines[1].split("\t") == ["0", "-", "2", "5", "1", "2", "3", "30"]
        assert lines[2].split("\t") == ["1", "a", "3", "7", "0", "0", "3", "30"]
        assert lines[3].split("\t") == ["2", "b", "2", "4", "0", "0", "3", "30"]

    def test_word_without_trace_flag_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "a*", "a")
        assert code == 3
        assert "require" in err


class TestNfa:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "nfa", "a")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "states": ["a", "eps"],
            "initial": 0,
            "finals": [1],
            "transitions": [[0, "a", 1]],
        }

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "nfa", "--dot", "a")
        assert code == 0
        assert out.startswith("digraph")
        assert '"eps"' in out


class TestOracle:
    def test_words_sorted_by_length_then_text(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "a* b*", "2")
        assert code == 0
        assert out.splitlines() == ["", "a", "b", "a a", "a b", "b b"]

    def test_negative_length_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "a", "-1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")


class TestMonitor:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_accepting_trace(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "o1 a1 c1 || o2 a2 c2\n")
        trace = self.write(tmp_path, "trace.txt", "o1 o2\na2 a1\nc1 c2\n")
        code, out, _ = run_cli(capsys, "monitor", spec, trace)
        assert code == 0
        assert out.strip() == "ACCEPTING"

    def test_violation_exit_code_and_steps(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "o1 a1 c1 || o2 a2 c2")
        trace = self.write(tmp_path, "trace.txt", "o1 c1")
        code, out, _ = run_cli(capsys, "monitor", "--step", spec, trace)
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "1 o1 PENDING 1"
        assert lines[1] == "2 c1 VIOLATION 0"
        assert lines[2] == "VIOLATION"

    def test_console_script_exits_with_the_verdict_code(self, tmp_path, capsys, monkeypatch):
        spec = self.write(tmp_path, "spec.txt", "a b")
        trace = self.write(tmp_path, "trace.txt", "b")
        monkeypatch.setattr(sys, "argv", ["derivmon", "monitor", spec, trace])
        with pytest.raises(SystemExit) as exit_info:
            run()
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == "VIOLATION\n"

    def test_trace_read_from_stdin(self, tmp_path, capsys, monkeypatch):
        spec = self.write(tmp_path, "spec.txt", "a b")
        monkeypatch.setattr(sys, "stdin", io.StringIO("a\nb\n"))
        code, out, _ = run_cli(capsys, "monitor", spec, "-")
        assert code == 0
        assert out == "ACCEPTING\n"

    def test_pending_exit_code(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "a b")
        trace = self.write(tmp_path, "trace.txt", "a")
        code, out, _ = run_cli(capsys, "monitor", spec, trace)
        assert code == 1
        assert out.strip() == "PENDING"

    def test_eps_event_is_a_violation(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "a*")
        trace = self.write(tmp_path, "trace.txt", "a eps")
        code, out, _ = run_cli(capsys, "monitor", spec, trace)
        assert code == 2
        assert out.strip() == "VIOLATION"

    def test_stats_file(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "a* b*")
        trace = self.write(tmp_path, "trace.txt", "a b")
        stats_path = tmp_path / "stats.json"
        code, out, _ = run_cli(capsys, "monitor", "--step", "--stats", str(stats_path), spec, trace)
        assert code == 0
        assert out.splitlines() == ["1 a ACCEPTING 1", "2 b ACCEPTING 1", "ACCEPTING"]
        text = stats_path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1 and ", " not in text  # one compact line
        record = json.loads(text)
        assert record["events"] == 2
        assert record["verdict"] == "ACCEPTING"
        assert record["maxSize"] == 7
        assert record["sizeBudget"] == 30
        assert record["heightBudget"] == 3
        assert record["cache"] == {"hits": 0, "misses": 2, "kept": 16}

    def test_unwritable_stats_path_prints_no_verdict(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "a b")
        trace = self.write(tmp_path, "trace.txt", "a")
        stats_path = str(tmp_path / "missing" / "stats.json")
        code, out, err = run_cli(capsys, "monitor", "--step", "--stats", stats_path, spec, trace)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("step", [False, True])
    @pytest.mark.parametrize("stats", [False, True])
    def test_invalid_event_symbol_exits_3_before_any_output(self, tmp_path, capsys, step, stats):
        # The trace is parsed before the stats file is opened or any event stepped.
        spec = self.write(tmp_path, "spec.txt", "a b")
        trace = self.write(tmp_path, "trace.txt", "a 1b")
        stats_path = tmp_path / "stats.json"
        flags = ["--step"] * step + ["--stats", str(stats_path)] * stats
        code, out, err = run_cli(capsys, "monitor", *flags, spec, trace)
        assert code == 3
        assert out == ""
        assert err == "error: invalid event symbol: '1b'\n"
        assert not stats_path.exists()

    def test_empty_trace_file(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "a*")
        trace = self.write(tmp_path, "trace.txt", "")
        code, out, _ = run_cli(capsys, "monitor", spec, trace)
        assert code == 0
        assert out.strip() == "ACCEPTING"
        # The start frontier {a*} is stored, and its 2 nodes kept, before any event.
        stats_path = tmp_path / "stats.json"
        code, _, _ = run_cli(capsys, "monitor", "--stats", str(stats_path), spec, trace)
        assert code == 0
        assert json.loads(stats_path.read_text())["cache"] == {"hits": 0, "misses": 0, "kept": 2}

    def test_missing_spec_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "monitor", str(tmp_path / "nope.txt"))
        assert code == 3
        assert "error:" in err

    def test_unknown_event_symbol_empties_frontier(self, tmp_path, capsys):
        spec = self.write(tmp_path, "spec.txt", "a b")
        trace = self.write(tmp_path, "trace.txt", "zz")
        code, out, _ = run_cli(capsys, "monitor", spec, trace)
        assert code == 2
        assert out.strip() == "VIOLATION"

    def test_library_crash_exits_4_not_a_verdict(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("derivmon.cli.run_trace", crash)
        spec = self.write(tmp_path, "spec.txt", "a b")
        trace = self.write(tmp_path, "trace.txt", "a b")
        code, out, err = run_cli(capsys, "monitor", spec, trace)
        assert code == 4
        assert "internal error: RecursionError" in err
        assert out == ""

    def test_long_sequence_spec_accepts_its_trace(self, tmp_path, capsys):
        events = " ".join(f"e{i}" for i in range(600))
        spec = self.write(tmp_path, "spec.txt", events)
        trace = self.write(tmp_path, "trace.txt", events)
        code, out, _ = run_cli(capsys, "monitor", spec, trace)
        assert code == 0
        assert out.strip() == "ACCEPTING"

    def test_closed_output_pipe_exits_141_quietly(self, tmp_path):
        spec = self.write(tmp_path, "spec.txt", "(a b)*")
        trace = self.write(tmp_path, "trace.txt", "a b " * 50_000)
        env = {**os.environ, "PYTHONPATH": str(Path(derivmon.__file__).parents[1])}
        argv = [sys.executable, "-m", "derivmon", "monitor", spec, trace, "--step"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"1 a PENDING 1\n"
            proc.stdout.close()  # the reader goes away with 10^5 lines still to come
            err = proc.stderr.read()
        assert proc.returncode == 141
        assert err == b""

    def test_missing_arguments_exit_3_not_violation(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["monitor"])
        assert exit_info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "required: spec_file" in captured.err


def test_no_command_exits_3(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: derivmon")


class TestDeepSpecs:
    """Specs nested 10^4 deep print instead of failing with exit 4."""

    def test_pderive_on_a_deep_sequence(self, capsys):
        events = " ".join(f"e{i}" for i in range(10_000))
        code, out, _ = run_cli(capsys, "pderive", events, "e0")
        assert code == 0
        assert out == "eps " + events.removeprefix("e0 ") + "\n"

    def test_closure_and_nfa_on_a_deep_union(self, capsys):
        union = " + ".join(["a"] * 10_000)
        code, out, _ = run_cli(capsys, "closure", union)
        assert code == 0
        assert out.splitlines() == [union, "eps", "total 2"]
        code, out, _ = run_cli(capsys, "nfa", union)
        assert code == 0
        assert json.loads(out)["states"] == [union, "eps"]

    def test_pderive_in_deep_parentheses(self, capsys):
        code, out, _ = run_cli(capsys, "pderive", "(" * 10_000 + "a" + ")" * 10_000, "a")
        assert code == 0
        assert out == "eps\n"

    def test_derive_and_oracle_on_a_deep_union(self, capsys):
        union = " + ".join(["a"] * 10_000)
        code, out, _ = run_cli(capsys, "derive", union, "a")
        assert code == 0
        assert out == " + ".join(["eps"] * 10_000) + "\n"
        code, out, _ = run_cli(capsys, "oracle", union, "1")
        assert code == 0
        assert out == "a\n"

    def test_bounds_trace_on_a_deep_union(self, capsys):
        union = " + ".join(["a"] * 10_000)
        code, out, _ = run_cli(capsys, "bounds", "--trace", union, "a")
        assert code == 0
        header, start, after = out.splitlines()
        assert header.startswith("step\tsymbol")
        assert start.startswith("0\t-\t9999\t19999\t0\t0\t")
        assert after.startswith("1\ta\t0\t1\t0\t0\t")


class TestFuzz:
    def test_small_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "25", "--seed", "5", "--shuffle")
        assert code == 0
        assert "ok: 25 expressions" in out

    def test_without_shuffle(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--count", "25", "--seed", "6")
        assert code == 0

    def test_disagreement_is_reported_and_shrunk(self, capsys, monkeypatch):
        monkeypatch.setattr("derivmon.derivative.deriver", lambda: lambda e, symbol: Empty())
        code, out, _ = run_cli(capsys, "fuzz", "--count", "25", "--seed", "5", "--shuffle")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL: derivative disagrees with oracle")
        assert lines[1].startswith("counterexample: ")
        assert size(parse(lines[1].removeprefix("counterexample: "))) == 1

    def test_reported_problem_is_the_counterexamples_own(self, capsys, monkeypatch):
        # The first failing expression is "b b", whose shortest failing word
        # is ('b', 'b'); the shrunk "b" fails on ('b',).
        deriver = derivative.deriver
        monkeypatch.setattr(
            "derivmon.derivative.deriver",
            lambda: lambda e, symbol: Empty() if symbol == "b" else deriver()(e, symbol),
        )
        code, out, _ = run_cli(capsys, "fuzz", "--count", "40", "--seed", "5", "--shuffle")
        assert code == 1
        failure, counterexample = out.splitlines()
        e = parse(counterexample.removeprefix("counterexample: "))
        assert failure == f"FAIL: {check.problem(e, 3)}"

    def test_budget_out_of_range_is_reported_and_shrunk(self, capsys, monkeypatch):
        monkeypatch.setattr("derivmon.bounds.size_increment_bound", lambda e: -1)
        code, out, _ = run_cli(capsys, "fuzz", "--count", "25", "--seed", "5")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL: size budget out of range"
        assert size(parse(lines[1].removeprefix("counterexample: "))) == 1

    def test_non_integer_count_is_a_usage_error_exiting_3(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--count", "x"])
        assert exit_info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: derivmon fuzz")
        assert "argument --count: invalid int value: 'x'" in captured.err

    def test_console_script_usage_error_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["derivmon", "fuzz", "--count", "x"])
        with pytest.raises(SystemExit) as exit_info:
            run()
        assert exit_info.value.code == 3

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: derivmon fuzz")

    def test_negative_count_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--count", "-5")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_negative_max_word_len_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--count", "5", "--max-word-len", "-2")
        assert code == 3
        assert out == ""
        assert err == "error: --max-word-len must be non-negative, got -2\n"

    def test_max_word_len_over_the_oracle_guard_names_the_flag(self, capsys):
        for count in ("0", "5"):  # checked even when no expression is
            code, out, err = run_cli(capsys, "fuzz", "--count", count, "--max-word-len", "13")
            assert code == 3
            assert out == ""
            assert err == "error: --max-word-len must be at most 12, got 13\n"
