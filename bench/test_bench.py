"""Tests of the benchmark itself (not part of the program's test suite).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import expect  # noqa: E402
import qlin  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from qlin.checker import brute_force_linearizable  # noqa: E402
from qlin.history import parse_history  # noqa: E402

SMALL_PENDING = {1: (3, 5), 2: (3, 5), 3: (2, 4), 4: (2, 3)}


def small_long(seed):
    return corpus.long_corpus(seed, count=12, sizes=(8, 28), null_sizes=(8, 28))


def small_pending(seed):
    return corpus.pending_corpus(seed, count=10, shape=SMALL_PENDING,
                                 pinned=False)


def test_corpora_are_deterministic_per_seed():
    assert small_long(3) == small_long(3)
    assert small_pending(3) == small_pending(3)
    assert small_long(3) != small_long(4)
    assert small_pending(3) != small_pending(4)


def test_full_corpora_have_the_promised_shape():
    long = corpus.long_corpus(0)
    assert len(long) >= 100
    sizes = [len(item.text.splitlines()) for item in long]
    assert min(sizes) <= 60 and max(sizes) >= 390
    shapes = [item.name.rsplit("-", 1)[1] for item in long]
    assert shapes.count("nullwin") == 25
    assert shapes.count("swap") + shapes.count("null") == 25
    pending = corpus.pending_corpus(0)
    assert len(pending) >= 100
    assert {item.pending_deqs for item in pending} == {1, 2, 3, 4}
    for item in pending:
        h = parse_history(item.text)
        n_pending = sum(e.pending and e.is_deq for e in h.events)
        assert n_pending == item.pending_deqs
        assert not any(e.pending and e.is_enq for e in h.events)
        assert len(h.enq_values()) <= 12


@pytest.mark.parametrize("seed", range(3))
def test_expected_verdicts_agree_with_the_oracle(seed):
    items = small_long(seed) + small_pending(seed) + [corpus.pinned_item(p) for p in (1, 2)]
    for item in items:
        got = brute_force_linearizable(parse_history(item.text))
        assert got == (item.status == corpus.LINEARIZABLE), item.name


def test_witness_check_accepts_the_run_and_rejects_a_reordering():
    actions, lin = corpus.simulate(random.Random(5), 30)
    text = corpus.to_text(actions)
    result = {}
    for kind, uid, method, payload in actions:
        if (kind == "inv") == (method == "enq"):
            result[uid] = (method, payload)
    steps = [(uid, *result[uid]) for uid in lin]
    assert corpus.fifo_witness_ok(text, steps)
    assert not corpus.fifo_witness_ok(text, steps[1:])
    enqs = [i for i, s in enumerate(steps) if s[1] == "enq"]
    swapped = list(steps)
    swapped[enqs[0]], swapped[enqs[1]] = swapped[enqs[1]], swapped[enqs[0]]
    assert not corpus.fifo_witness_ok(text, swapped)


def test_percentile_estimate_follows_the_samples():
    assert run.hd_quantile([4.0], 0.9) == 4.0
    assert run.hd_quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    xs = [float(i) for i in range(1, 102)]
    assert run.hd_quantile(xs, 0.5) == pytest.approx(51.0, abs=0.5)
    assert run.hd_quantile(xs, 0.9) == pytest.approx(91.0, abs=1.0)
    assert run.hd_quantile(xs, 0.5) < run.hd_quantile(xs, 0.9) < xs[-1]


def test_divergence_gate_flags_a_corrupted_count(monkeypatch):
    work = worker.Divergence(qlin, 0)
    ops = dict(work.ops)
    report = ops["vord_k0"]()
    assert work.check("vord_k0", report) == []
    monkeypatch.setitem(expect.VORD_EXPECT, 0, expect.VORD_EXPECT[0] + 1)
    assert work.check("vord_k0", report)


def _copy_tree(dest: Path, with_src: bool) -> None:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_corrupted_expectation_makes_the_command_fail(tmp_path):
    _copy_tree(tmp_path, with_src=True)
    frozen = tmp_path / "bench" / "expect.py"
    text = frozen.read_text()
    assert "(1, 0): (1, 0, 1)," in text
    frozen.write_text(text.replace("(1, 0): (1, 0, 1),", "(1, 0): (2, 0, 1),"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-grid", "--seed", "0",
         "--seconds", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    rate = next(line for line in proc.stdout.splitlines() if "error_rate" in line)
    assert float(rate.split()[1]) > 0


def test_command_fails_without_the_program(tmp_path):
    _copy_tree(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
