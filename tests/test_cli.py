"""Command-line interface: exit codes, output shapes, and that printed
schedules really replay to the printed histories."""

import errno
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlin
from qlin.cli import generate_history, main
from qlin.explorer import induce_history, replay_schedule
from qlin.history import NULL, parse_history
from qlin.hwmodel import MUTANT_DIRTY_SPIN, MUTANT_NO_SWAP_CLEAR, Config, DeqOp, EnqOp

from support import (
    DEQ,
    ENQ,
    check_configuration,
    pinned_history,
    purely_blocking_check,
    seq_history,
)


LIN = "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1\n"
VIO = "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 2\n"
MULTI = (
    "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq\n"
    "inv 2 deq\nres 2 deq 2\ninv 3 deq\nres 3 deq 5\n"
)
VORD_VWIT = (
    "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq\n"
    "inv 2 deq\nres 2 deq 2\ninv 3 deq\nres 3 deq null\n"
)
REPEATED = (
    "inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\ninv 2 enq 6\nres 2 enq\n"
    "inv 3 deq\nres 3 deq 6\ninv 4 deq\nres 4 deq null\n"
)


@pytest.fixture
def hist_file(tmp_path):
    def write(text, name="h.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_linearizable(capsys, hist_file):
    code, out, err = run(capsys, ["check", hist_file(LIN)])
    assert code == 0
    assert out == "linearizable\n"
    assert err == ""


def test_check_witness_human(capsys, hist_file):
    code, out, _ = run(capsys, ["check", hist_file(LIN), "--witness"])
    assert code == 0
    assert out == "linearizable\nwitness: enq^0(1) deq^1(1)\n"


def test_check_witness_lines(capsys, hist_file):
    code, out, _ = run(capsys, ["check", hist_file(LIN), "--witness", "--format", "lines"])
    assert code == 0
    assert out == "LINEARIZABLE\nWITNESS enq^0(1) deq^1(1)\n"


def test_check_violation(capsys, hist_file):
    code, out, _ = run(capsys, ["check", hist_file(VIO)])
    assert code == 1
    assert out == "violation: vfresh d=1\n"


def test_check_violation_lines(capsys, hist_file):
    code, out, _ = run(capsys, ["check", hist_file(VIO), "--format", "lines"])
    assert code == 1
    assert out == "VIOLATION vfresh d=1\n"


def test_check_all_lists_every_detector_hit(capsys, hist_file):
    # the fresh value leaves no candidate match to read VOrd through
    code, out, _ = run(capsys, ["check", hist_file(MULTI), "--all"])
    assert code == 1
    assert out == "violation: vfresh d=3\n"
    code, out, _ = run(capsys, ["check", hist_file(MULTI), "--all", "--format", "lines"])
    assert code == 1
    assert out == "VIOLATION vfresh d=3\n"
    # the verdict's match also breaks VWit, repeated values or not
    for text, want in [(VORD_VWIT, "vord e1=0 e2=1 d2=2\n  also: vwit d=3 alive=0\n"),
                       (REPEATED, "vord e1=0 e2=2 d2=3\n  also: vwit d=4 alive=0\n")]:
        code, out, _ = run(capsys, ["check", hist_file(text), "--all"])
        assert (code, out) == (1, f"violation: {want}")


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(LIN))
    code, out, _ = run(capsys, ["check", "-"])
    assert code == 0
    assert out == "linearizable\n"


def test_check_parse_error(capsys, hist_file):
    path = hist_file("inv 0 enq 1\nbogus line\n")
    code, out, err = run(capsys, ["check", path])
    assert code == 2
    assert out == ""
    assert err == "error: line 2: expected at least 3 tokens, got 2\n"


def test_check_decides_long_duplicate_value_history(capsys, hist_file):
    # 1,100 enqueue/dequeue pairs over three values: the candidate-match
    # search goes 1,100 dequeues deep
    seq = [(m, i % 3 + 1) for i in range(1100) for m in (ENQ, DEQ)]
    code, out, err = run(capsys, ["check", hist_file(seq_history(seq).serialize())])
    assert (code, out, err) == (0, "linearizable\n", "")


def test_check_pinned_pending_family_is_a_vwit(capsys, monkeypatch):
    # 8 completed enqueues, 7 pending dequeues and one NULL dequeue: the
    # dequeues cannot drain all 8 values, so the NULL is impossible
    monkeypatch.setattr("sys.stdin", io.StringIO(pinned_history(7).serialize()))
    code, out, err = run(capsys, ["check", "-", "--format", "lines"])
    assert (code, err) == (1, "")
    assert out.startswith("VIOLATION vwit ")


def test_check_witness_when_uids_are_not_in_invocation_order(capsys, monkeypatch):
    # deq 3 returns 3 before enq(2) is invoked, so enq(3) goes first
    # although its uid is higher
    text = generate_history(922, 3, 3).serialize()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, ["check", "-", "--witness", "--format", "lines"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "LINEARIZABLE"


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["check", str(tmp_path / "nope.txt")])
    assert code == 2
    assert err.startswith("error:")


BAD_UTF8 = b"inv 0 enq 1\n\xff\n"


@pytest.mark.parametrize("cmd", ["check", "oracle"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, cmd):
    path = tmp_path / "bad.txt"
    path.write_bytes(BAD_UTF8)
    code, out, err = run(capsys, [cmd, str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 12)\n"


@pytest.mark.parametrize("cmd", ["check", "oracle"])
def test_non_utf8_stdin_is_an_input_error(capsys, monkeypatch, cmd):
    stdin = io.TextIOWrapper(io.BytesIO(BAD_UTF8), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, [cmd, "-"])
    assert (code, out) == (2, "")
    assert err == "error: <stdin>: not UTF-8 text (invalid start byte at byte 12)\n"


def run_with_stdout(args, stdout, buffered):
    """Run the CLI in a child process whose stdout is ``stdout``, a file
    descriptor or an open file; returns (exit code, stderr)."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(qlin.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = "import sys; from qlin.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("buffered, command", [
    (False, "check"), (True, "check"),
    (False, "help"), (True, "help"),
    (False, "check-help"), (True, "check-help"),
], ids=["unbuffered", "buffered", "unbuffered-help", "buffered-help",
        "unbuffered-check-help", "buffered-check-help"])
def test_closed_stdout_is_an_io_error(hist_file, buffered, command):
    # unbuffered, the command's print fails; buffered, the last flush does.
    # argparse swallows a failed help write, so help needs its own cases
    args = {"check": ["check", hist_file(LIN), "--witness"],
            "help": ["--help"], "check-help": ["check", "--help"]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_with_stdout(args, write_end, buffered)
    finally:
        os.close(write_end)
    assert result == (2, "error: cannot write to stdout: broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered, command", [
    (False, "check"), (True, "check"), (False, "help"), (True, "help"),
], ids=["unbuffered", "buffered", "unbuffered-help", "buffered-help"])
def test_full_stdout_is_an_io_error(hist_file, buffered, command):
    args = {"check": ["check", hist_file(LIN), "--witness"], "help": ["--help"]}[command]
    with open("/dev/full", "w") as full:
        result = run_with_stdout(args, full, buffered)
    assert result == (2, f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_linearizable(capsys, hist_file):
    code, out, _ = run(capsys, ["oracle", hist_file(LIN)])
    assert (code, out) == (0, "linearizable\n")


def test_oracle_violation(capsys, hist_file):
    code, out, _ = run(capsys, ["oracle", hist_file(VIO)])
    assert (code, out) == (1, "not linearizable\n")
    code, out, _ = run(capsys, ["oracle", hist_file(VIO), "--format", "lines"])
    assert (code, out) == (1, "NOT-LINEARIZABLE\n")


def test_oracle_event_guard(capsys, hist_file):
    code, _, err = run(capsys, ["oracle", hist_file(LIN), "--max-actions", "3"])
    assert code == 2
    assert err == "error: history has 4 actions, above --max-actions 3\n"


def test_oracle_decides_long_sequential_history(capsys, hist_file):
    # 1,200 events: the oracle's search goes one level per event
    seq = [(m, i) for i in range(600) for m in (ENQ, DEQ)]
    text = seq_history(seq).serialize()
    code, out, err = run(capsys, ["oracle", hist_file(text), "--max-actions", "100000"])
    assert (code, out, err) == (0, "linearizable\n", "")


def test_oracle_parse_error(capsys, hist_file):
    code, _, err = run(capsys, ["oracle", hist_file("res 0 deq\n")])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# explore


def test_explore_clean_human(capsys):
    code, out, _ = run(capsys, ["explore", "--enq", "1", "--deq", "1"])
    assert code == 0
    assert out == (
        "explored 46 schedules, 2 representative histories (at least one per isomorphism class): clean\n"
    )


def test_explore_clean_lines_with_oracle(capsys):
    code, out, _ = run(
        capsys, ["explore", "--enq", "1", "--deq", "1", "--format", "lines", "--oracle"]
    )
    assert code == 0
    assert out == (
        "SWEEP clean traces=46 complete-histories=2 "
        "history-mode=quotient "
        "complete-traces=42 bound-hit-traces=4 "
        "oracle-checked=2 oracle-disagreements=0\n"
    )


def test_explore_packed_violations_replay(capsys):
    code, out, _ = run(
        capsys,
        ["explore", "--enq", "1", "--deq", "2", "--mutant", "no_swap_clear",
         "--format", "lines"],
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == (
        "SWEEP violations=6 traces=104940 complete-histories=6 "
        "history-mode=quotient "
        "complete-traces=93400 bound-hit-traces=11540"
    )
    assert sum(1 for l in lines if l.startswith("VIOLATION ")) == 6
    # every printed schedule must replay to the printed history
    config = Config(
        (EnqOp(1), DeqOp(), DeqOp()), capacity=1, loop_bound=3,
        mutant=MUTANT_NO_SWAP_CLEAR,
    )
    i = 1
    blocks = 0
    while i < len(lines):
        assert lines[i].startswith("VIOLATION vrepet")
        i += 1
        hist_lines = []
        while not lines[i].lstrip().startswith("schedule "):
            hist_lines.append(lines[i].strip())
            i += 1
        schedule = lines[i].split()[1:]
        i += 1
        trace = replay_schedule(config, schedule)
        assert trace.status == "COMPLETE"
        assert induce_history(trace).serialize() == "\n".join(hist_lines)
        blocks += 1
    assert blocks == 6


def test_explore_engines_agree_on_clean_and_counts(capsys):
    # the packed kernel behind explore against the readable model's report
    ref = check_configuration(
        Config((EnqOp(1), EnqOp(2), DeqOp()), capacity=2, loop_bound=3)
    )
    assert ref.clean and ref.total_traces == 12102 and ref.distinct_complete == 124
    code, out, _ = run(capsys, ["explore", "--enq", "2", "--deq", "1", "--format", "lines"])
    assert code == 0
    # the same schedules, checked by representative histories
    assert "SWEEP clean traces=12102 complete-histories=12 " in out


def test_explore_custom_values_do_not_change_anything(capsys):
    code, out, _ = run(
        capsys, ["explore", "--enq", "2", "--deq", "1", "--values", "4,9", "--capacity", "2"]
    )
    assert code == 0
    assert out == (
        "explored 12102 schedules, 12 representative histories (at least one per isomorphism class): clean\n"
    )


def test_explore_wide_fields(capsys):
    code, out, _ = run(
        capsys,
        ["explore", "--enq", "1", "--deq", "1", "--capacity", "8", "--loop-bound", "8"],
    )
    assert code == 0
    assert out == (
        "explored 261 schedules, 2 representative histories (at least one per isomorphism class): clean\n"
    )


def test_explore_values_arity_error(capsys):
    code, _, err = run(capsys, ["explore", "--enq", "2", "--deq", "1", "--values", "9"])
    assert code == 2
    assert err == "error: --values needs exactly 2 entries\n"


def test_explore_values_entry_not_an_integer(capsys):
    code, _, err = run(capsys, ["explore", "--enq", "2", "--deq", "1", "--values", "1,x"])
    assert code == 2
    assert err == "error: --values entry 'x' is not an integer\n"


def test_explore_dirty_spin_purity_fails(capsys):
    argv = ["explore", "--enq", "1", "--deq", "1", "--mutant", "dirty_spin"]
    code, out, _ = run(capsys, argv)
    assert code == 0  # no linearizability violation without the purity check
    code, out, _ = run(capsys, argv + ["--purity"])
    assert code == 1
    evidence = "- impure dequeue: thread 1 run alone blocks after changing shared state\n"
    assert out == (
        "explored 46 schedules, 2 representative histories (at least one per isomorphism class): "
        "7 purity violation(s)\n"
        + evidence + "  schedule: 1:D1 1:D1 1:D1 0:E1\n"
        + evidence + "  schedule: 1:D1 1:D1 0:E1 1:D1 1:D2\n"
        + evidence + "  schedule: 1:D1 1:D1 0:E1 1:D1\n"
        + evidence + "  schedule: 1:D1 0:E1 1:D1 1:D2 1:D1 1:D2\n"
        + evidence + "  schedule: 1:D1 0:E1 1:D1 1:D2 1:D1\n"
        + evidence + "  schedule: 0:E1 1:D1 1:D2 1:D1 1:D2 1:D1 1:D2\n"
        + evidence + "  schedule: 0:E1 1:D1 1:D2 1:D1 1:D2 1:D1\n"
    )
    code, out, _ = run(capsys, argv + ["--purity", "--format", "lines"])
    assert code == 1
    assert out.splitlines()[0].endswith("purity-violations=7")


def test_explore_impure_dequeue_schedules_replay(capsys):
    # every printed schedule parks the named thread where its solo run,
    # on the readable model, blocks after changing shared state
    code, out, _ = run(capsys, ["explore", "--enq", "1", "--deq", "1", "--mutant",
                                "dirty_spin", "--purity", "--format", "lines"])
    assert code == 1
    config = Config((EnqOp(1), DeqOp()), capacity=1, loop_bound=3, mutant=MUTANT_DIRTY_SPIN)
    lines = out.splitlines()[1:]
    assert len(lines) == 14
    for record, schedule in zip(lines[::2], lines[1::2]):
        assert record.startswith("IMPURE tid=")
        assert schedule.startswith("  schedule ")
        trace = replay_schedule(config, schedule.split()[1:])
        tid = int(record.split("=")[1])
        assert purely_blocking_check(config, trace.final, tid) == "VIOLATION"


def test_explore_needs_threads(capsys):
    code, _, err = run(capsys, ["explore", "--enq", "0", "--deq", "0"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("counts", [("-1", "1"), ("1", "-2")])
def test_explore_rejects_negative_thread_counts(capsys, counts):
    code, out, err = run(capsys, ["explore", "--enq", counts[0], "--deq", counts[1]])
    assert (code, out) == (2, "")
    assert err == "error: need --enq >= 0 and --deq >= 0\n"


# ---------------------------------------------------------------------------
# divergence


def test_divergence_vrepet_pass(capsys):
    code, out, _ = run(capsys, ["divergence", "vrepet"])
    assert code == 0
    assert out == (
        "vrepet (('v', 7), ('m', 2), ('k', 0), ('loop_bound', 3), "
        "('mutant', 'none')): pass (920 states explored)\n"
    )


def test_divergence_vrepet_mutant_fails(capsys):
    code, out, _ = run(capsys, ["divergence", "vrepet", "--mutant", "no_swap_clear"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("FAIL (968 states explored)")
    assert lines[1] == "  counterexample: two deq(7) threads finished on one enq(7)"
    assert "    1:D2A" in lines
    assert "    inv 2 deq" in lines


def test_divergence_vord_lines(capsys):
    code, out, _ = run(capsys, ["divergence", "vord", "--format", "lines"])
    assert code == 0
    assert out == (
        "DIVERGENCE vord k=0 v1=1 v2=2 loop_bound=3 mutant=none "
        "status=pass states=40 caveat=loop-bound-hit slot-invariant=ok\n"
    )


def test_divergence_parameter_errors(capsys):
    code, _, err = run(capsys, ["divergence", "vrepet", "--m", "0"])
    assert code == 2
    assert err == "error: m must be at least 2\n"
    code, _, err = run(capsys, ["divergence", "vord", "--k", "-1"])
    assert code == 2
    assert err == "error: k must be non-negative\n"


@pytest.mark.parametrize("argv, message", [
    (["vrepet", "--m", "1"], "m must be at least 2"),
    (["vord", "--loop-bound", "0"], "loop_bound must be at least 1"),
    (["vrepet", "--loop-bound", "0"], "loop_bound must be at least 1"),
], ids=["vrepet-m1", "vord-loop-bound0", "vrepet-loop-bound0"])
def test_divergence_bad_parameters_exit_2(capsys, argv, message):
    code, out, err = run(capsys, ["divergence"] + argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# one transition relation


INTERPRETER = {
    "qlin.hwmodel": ("successors", "hw_init", "classify_endpoint"),
    "qlin.explorer": ("successors", "hw_init", "classify_endpoint", "replay_schedule"),
}


def test_no_command_reaches_the_interpreter(capsys, monkeypatch):
    # every command explores on the packed kernel alone: with the
    # readable model's transitions and replay made to raise, each of
    # these prints what it printed before, counterexamples included
    commands = [
        "divergence vrepet --mutant no_swap_clear",
        "divergence vord --k 1 --mutant skip_slot_zero",
        "divergence vord --k 1",
        "explore --enq 1 --deq 2 --mutant no_swap_clear",
        "explore --enq 1 --deq 1 --mutant dirty_spin --purity",
        "explore --enq 2 --deq 1 --mutant skip_slot_zero --oracle",
    ]
    normal = [run(capsys, argv.split())[:2] for argv in commands]

    def interpreter(*args, **kwargs):
        raise AssertionError("a command reached the interpreter")

    for module, names in INTERPRETER.items():
        for name in names:
            monkeypatch.setattr(importlib.import_module(module), name, interpreter)
    for argv, before in zip(commands, normal):
        assert run(capsys, argv.split())[:2] == before, argv


def test_no_check_reads_an_aspect_by_value(capsys, monkeypatch, hist_file):
    # every check reads the aspects through candidate matches alone: with
    # the value-keyed detectors and derive_match made to raise, wherever
    # they are called from, each of these prints what it printed before
    paths = [hist_file(text, f"h{i}.txt") for i, text in enumerate([LIN, VIO, VORD_VWIT,
                                                                     REPEATED, MULTI])]
    commands = [["check", path, *flags] for path in paths
                for flags in ([], ["--all"], ["--witness"], ["--all", "--format", "lines"])]
    normal = [run(capsys, argv)[:2] for argv in commands]

    def by_value(*args, **kwargs):
        raise AssertionError("a check read an aspect by value")

    for name in ("detect_vord", "detect_vwit", "derive_match"):
        monkeypatch.setattr(getattr(qlin.checker, name), "__code__", by_value.__code__)
    for argv, before in zip(commands, normal):
        assert run(capsys, argv)[:2] == before, argv


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic_per_seed(capsys):
    args = ["gen", "--seed", "11", "--enq", "3", "--deq", "3"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second
    _, other, _ = run(capsys, ["gen", "--seed", "12", "--enq", "3", "--deq", "3"])
    assert other != first


def test_gen_output_is_complete_and_differentiated(capsys):
    for seed in range(20):
        code, out, _ = run(capsys, ["gen", "--seed", str(seed), "--enq", "3", "--deq", "2"])
        assert code == 0
        h = parse_history(out)
        assert h.is_differentiated
        assert all(not e.pending for e in h.events)
        assert sorted(e.value for e in h.events if e.is_enq) == [1, 2, 3]


def test_generate_history_dequeues_may_return_null_or_any_value():
    seen = set()
    for seed in range(200):
        h = generate_history(seed, 2, 2)
        seen.update(e.value for e in h.events if e.is_deq)
    assert seen == {1, 2, NULL}


def test_gen_rejects_empty(capsys):
    code, _, err = run(capsys, ["gen", "--enq", "0", "--deq", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
