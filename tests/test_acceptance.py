"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints exactly
one PASS or FAIL line (to the real stdout, so the lines survive pytest's
capture).  Expected counts were frozen from reference runs of the
independent oracles; notes on scoping decisions live next to the
assertions they affect.

The whole file takes about four minutes on one core; criteria 5, 3
and 1 take most of it.
"""

import sys
import time
from contextlib import contextmanager

from qlin.checker import (
    EnqOrderCycle,
    LINEARIZABLE,
    brute_force_linearizable,
    check_linearizable,
    derive_match,
    detect_vrepet,
    detect_vwit,
)
from qlin.cli import generate_history
from qlin.explorer import (
    divergence_check_vord,
    divergence_check_vrepet,
    induce_history,
    replay_schedule,
)
from qlin.history import NULL, parse_history
from qlin.hwmodel import (
    Config,
    DeqOp,
    EnqOp,
    MUTANT_DIRTY_SPIN,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_SKIP_SLOT_ZERO,
)
from qlin.queuespec import is_legal
from qlin.sweep import sweep_config

from lemmas import (
    alt_witness_check,
    before_set,
    behavior_of,
    canonicalize,
    compute_bad,
    detect_pwit_covering,
    enq_order,
    find_sequential_witness,
    is_canonical,
    obs_equiv,
    verify_covering,
)
from support import (
    behavior_seqs,
    brute_covering_exists,
    canonical_histories,
    check_safe,
    enumerate_traces,
    purely_blocking_check,
    purity_sweep,
    pwit_prime,
    reference_check_ordered,
    seq_history,
)


# one line per criterion; echoed live when capture is off and replayed in
# the terminal summary either way (see conftest.pytest_terminal_summary)
REPORT_LINES: list = []


def _report(line):
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(label):
    """Emit one PASS/FAIL line per criterion, whatever happens inside."""
    info = {"detail": ""}
    start = time.time()
    try:
        yield info
    except BaseException:
        _report(f"FAIL {label}")
        raise
    detail = f" [{info['detail']}]" if info["detail"] else ""
    _report(f"PASS {label}{detail} ({time.time() - start:.1f}s)")


def small_instances():
    for n_enq in range(4):
        for n_deq in range(4):
            yield from canonical_histories(n_enq, n_deq)


# instances per (enqueues, dequeues) cell, one per isomorphism class;
# verdicts are isomorphism-invariant (property-tested in test_checker),
# so checking class representatives covers the full instance space
INSTANCE_CELLS = {
    (0, 0): 1, (0, 1): 1, (0, 2): 2, (0, 3): 6,
    (1, 0): 1, (1, 1): 6, (1, 2): 48, (1, 3): 480,
    (2, 0): 2, (2, 1): 36, (2, 2): 684, (2, 3): 14742,
    (3, 0): 6, (3, 1): 240, (3, 2): 8736, (3, 3): 335616,
}
INSTANCE_TOTAL = 360_607


def test_criterion_01_detectors_agree_with_oracle_on_all_small_instances():
    with criterion("criterion 1: four-detector verdict equals brute-force "
                   "verdict on every small instance") as info:
        cells = {}
        disagreements = 0
        for n_enq in range(4):
            for n_deq in range(4):
                n = 0
                for c in canonical_histories(n_enq, n_deq):
                    n += 1
                    fast = check_linearizable(c, build_witness=False)
                    if (fast.status == LINEARIZABLE) != brute_force_linearizable(c):
                        disagreements += 1
                cells[(n_enq, n_deq)] = n
        assert cells == INSTANCE_CELLS
        total = sum(cells.values())
        assert total == INSTANCE_TOTAL
        assert disagreements == 0
        info["detail"] = f"instances={total} disagreements=0"


def test_criterion_02_legality_equals_witness_existence_for_short_behaviors():
    with criterion("criterion 2: a behavior is legal exactly when a "
                   "sequential witness exists, all lengths to 6") as info:
        total = legal_count = disagreements = 0
        for seq in behavior_seqs(6):
            b = behavior_of(seq_history(seq))
            total += 1
            ok = is_legal(b)
            if ok:
                legal_count += 1
            if ok != (find_sequential_witness(b) is not None):
                disagreements += 1
        assert total == 137_256
        assert legal_count == 5_460
        assert disagreements == 0
        info["detail"] = f"behaviors={total} legal={legal_count} disagreements=0"


def test_criterion_03_reformulation_lemmas_hold_across_the_instance_set():
    with criterion("criterion 3: witness reformulation, covering "
                   "equivalence, order acyclicity, canonicalization") as info:
        matched = alt_bad = cycle_count = 0
        repeat_free = windows = covering_bad = 0
        vwit_equiv_bad = 0
        witnesses = canon_bad = 0
        for c in small_instances():
            nulls = [d.uid for d in c.events if d.is_deq and d.value is NULL]
            m = derive_match(c)
            if m is not None and check_safe(c, m) is None and reference_check_ordered(c, m) is None:
                matched += 1
                for d in nulls:
                    direct = not (compute_bad(c, m, d) & before_set(c, d))
                    if alt_witness_check(c, m, d) != direct:
                        alt_bad += 1
                try:
                    enq_order(c, m)
                except EnqOrderCycle:
                    cycle_count += 1
            # the covering reformulation presumes each value is dequeued at
            # most once, which is what the repeat detector establishes
            # before the witness detector ever runs; outside that premise
            # counterexamples exist (504 of them in this set)
            if detect_vrepet(c) is None:
                repeat_free += 1
                for d in nulls:
                    windows += 1
                    chain = detect_pwit_covering(c, d)
                    found = chain is not None
                    ok = found == brute_covering_exists(c, d) == (not pwit_prime(c, d))
                    if found and not verify_covering(c, d, chain):
                        ok = False
                    if not ok:
                        covering_bad += 1
            if (detect_vwit(c) is not None) != any(not pwit_prime(c, d) for d in nulls):
                vwit_equiv_bad += 1
            verdict = check_linearizable(c)
            if verdict.status == LINEARIZABLE and verdict.witness is not None:
                witnesses += 1
                w = verdict.witness
                cw = canonicalize(w, find_sequential_witness(w))
                null_at = lambda b: [
                    i for i, e in enumerate(b.events) if e.is_deq and e.value is NULL
                ]
                if not (is_canonical(cw) and is_legal(cw) and obs_equiv(cw, w)
                        and null_at(cw) == null_at(w)):
                    canon_bad += 1
        assert matched == 78_281 and alt_bad == 0 and cycle_count == 0
        assert repeat_free == 193_601 and windows == 221_492 and covering_bad == 0
        assert vwit_equiv_bad == 0
        assert witnesses == 45_071 and canon_bad == 0
        info["detail"] = (f"matched={matched} windows={windows} "
                          f"witnesses={witnesses} all clean")


# the motivating two-enqueue scenario: both enqueues claim slots, the
# first dequeue scans past the still-empty slot 0, and the schedule stops
# with one dequeue mid-scan so both return orders are still reachable
SCENARIO = Config(
    (EnqOp(1), EnqOp(2), DeqOp(), DeqOp(), DeqOp()), capacity=2, loop_bound=2
)
PREFIX = ("0:E1", "1:E1", "2:D1", "2:D2", "1:E2", "0:E2", "3:D1")
EXTENSION_A = PREFIX + ("2:D2", "2:ret", "4:D1", "4:D2", "4:ret")
EXTENSION_B = PREFIX + ("3:D2", "3:ret", "4:D1", "4:D2", "4:D2", "4:ret")

TEXTBOOK = (
    "0:E1", "1:E1", "2:D1", "0:E2", "3:D1", "2:D2", "2:ret",
    "4:D1", "4:D2", "1:E2", "4:D2", "4:ret",
)
TEXTBOOK_HISTORY = (
    "inv 0 enq 1\ninv 1 enq 2\ninv 2 deq\ninv 3 deq\n"
    "res 2 deq 1\ninv 4 deq\nres 4 deq 2"
)


def deq_returns(trace):
    h = induce_history(trace)
    return {e.uid: e.value for e in h.events if e.is_deq and not e.pending}


def test_criterion_04_textbook_scenarios_replay_exactly():
    with criterion("criterion 4: the two textbook schedules replay to the "
                   "expected histories and verdicts") as info:
        # one extension hands out the values in each order
        assert deq_returns(replay_schedule(SCENARIO, EXTENSION_A)) == {2: 2, 4: 1}
        assert deq_returns(replay_schedule(SCENARIO, EXTENSION_B)) == {3: 1, 4: 2}
        # and exhaustive exploration from the shared prefix finds both
        orders = set()
        prefix_trace = replay_schedule(SCENARIO, PREFIX)
        for t in enumerate_traces(SCENARIO, start=prefix_trace, dedup=True):
            h = induce_history(t)
            got = tuple(
                e.value for e in sorted(
                    (e for e in h.events if e.is_deq and not e.pending),
                    key=lambda e: h.res_index(e.uid),
                )
                if e.value is not NULL
            )
            if len(got) == 2:
                orders.add(got)
        assert orders == {(1, 2), (2, 1)}

        # the longer published schedule induces its printed history byte
        # for byte and checks out with the expected witness
        trace = replay_schedule(SCENARIO, TEXTBOOK)
        h = induce_history(trace)
        assert h.serialize() == TEXTBOOK_HISTORY
        verdict = check_linearizable(h)
        assert verdict.status == LINEARIZABLE
        target = behavior_of(parse_history(
            "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq\n"
            "inv 2 deq\nres 2 deq 1\ninv 3 deq\nres 3 deq 2"
        ))
        assert obs_equiv(verdict.witness, target)
        info["detail"] = "both dequeue orders reached; witness obs-equivalent"


# full desk-scale grid: loop bound 4, capacity 4, one operation per
# thread; (complete-traces, bound-hit-traces, quotient representatives of
# the complete histories, which can be finer than isomorphism classes)
GRID_EXPECT = {
    (0, 1): (0, 1, 0),
    (0, 2): (0, 70, 0),
    (0, 3): (0, 34650, 0),
    (1, 0): (1, 0, 1),
    (1, 1): (70, 5, 2),
    (1, 2): (0, 1318924, 0),
    (1, 3): (0, 1812456071658, 0),
    (2, 0): (20, 0, 2),
    (2, 1): (24224, 500, 12),
    (2, 2): (56593098636, 17071912740, 67),
    (2, 3): (0, 235100101119133554996, 0),
    (3, 0): (1680, 0, 6),
    (3, 1): (20510004, 210000, 72),
    (3, 2): (6694609371969360, 1086839162777880, 865),
    (3, 3): (16258745088826186010894152992, 27376389726332926896116032968, 8567),
}
PURITY_EXPECT = {
    0: {"PURE": 1},
    1: {"PURE": 3, "TERMINATES": 3},
    2: {"PURE": 7, "TERMINATES": 36},
    3: {"PURE": 14, "TERMINATES": 342},
}

_grid_cache: dict = {}


def grid_report(n_enq, n_deq):
    if (n_enq, n_deq) not in _grid_cache:
        threads = tuple(EnqOp(i + 1) for i in range(n_enq)) + tuple(
            DeqOp() for _ in range(n_deq)
        )
        config = Config(threads, capacity=4, loop_bound=4)
        _grid_cache[(n_enq, n_deq)] = sweep_config(
            config, oracle=True, check_purity=True
        )
    return _grid_cache[(n_enq, n_deq)]


def test_criterion_05_correct_queue_is_clean_at_desk_scale():
    with criterion("criterion 5: every configuration to 3+3 threads is "
                   "violation-free and oracle-confirmed") as info:
        checked = 0
        for (ne, nd), (n_complete, n_bound, reps) in GRID_EXPECT.items():
            r = grid_report(ne, nd)
            assert r.clean, (ne, nd)
            assert r.trace_counts.get("COMPLETE", 0) == n_complete, (ne, nd)
            assert r.trace_counts.get("BOUND_HIT", 0) == n_bound, (ne, nd)
            assert "OVERFLOW" not in r.trace_counts and "STUCK" not in r.trace_counts
            assert r.distinct_complete == reps, (ne, nd)
            assert r.oracle_checked == reps
            assert r.oracle_disagreements == 0, (ne, nd)
            checked += reps
        assert checked == 9_594
        big = GRID_EXPECT[(3, 3)]
        info["detail"] = (f"history-representatives={checked} "
                          f"largest-cell-traces={big[0] + big[1]}")


MUTANT_EXPECT = {
    # (enqueuers, dequeuers, mutant): (representatives, violations, kind)
    (1, 2, MUTANT_NO_SWAP_CLEAR): (6, 6, "vrepet"),
    (2, 1, MUTANT_SKIP_SLOT_ZERO): (7, 3, "vord"),
    (3, 2, MUTANT_NONATOMIC_ENQ): (1335, 248, "vord"),
}


def test_criterion_06_every_mutant_is_caught_with_replayable_evidence():
    with criterion("criterion 6: each seeded bug yields oracle-confirmed "
                   "violations of its engineered class") as info:
        total = 0
        for (ne, nd, mutant), (reps, nviol, kind) in MUTANT_EXPECT.items():
            threads = tuple(EnqOp(i + 1) for i in range(ne)) + tuple(
                DeqOp() for _ in range(nd)
            )
            config = Config(threads, capacity=4, loop_bound=4, mutant=mutant)
            r = sweep_config(config, oracle=True)
            assert r.distinct_complete == reps, mutant
            assert len(r.violations) == nviol and nviol >= 1, mutant
            assert {v.verdict.violation.kind for v in r.violations} == {kind}
            assert r.oracle_disagreements == 0
            for v in r.violations:
                assert not brute_force_linearizable(v.history)
                again = replay_schedule(config, v.schedule)
                assert again.status == "COMPLETE"
                assert induce_history(again).serialize() == v.history.serialize()
            total += nviol

        # the dirty-spin mutant's engineered defect is observable impurity,
        # not a linearizability violation; exhibit it the same way, with a
        # schedule replaying to a state whose solo dequeue run is impure
        config = Config((EnqOp(1), DeqOp()), capacity=4, loop_bound=4,
                        mutant=MUTANT_DIRTY_SPIN)
        p = purity_sweep(config)
        assert dict(p.outcomes) == {"PURE": 4, "TERMINATES": 62, "VIOLATION": 24}
        schedule = ("0:E1", "1:D1")
        trace = replay_schedule(config, schedule)
        assert purely_blocking_check(config, trace.final, 1) == "VIOLATION"
        info["detail"] = (f"linearizability-violations={total} "
                          f"impurity-violations={len(p.violations)}")


VREPET_EXPECT = {(2, 0): 920, (2, 1): 95_562, (3, 0): 23_596, (3, 1): 4_076_372}
VORD_EXPECT = {0: 40, 1: 3_817, 2: 642_546}

_vord_cache: dict = {}


def vord_report(k, mutant="none"):
    if (k, mutant) not in _vord_cache:
        _vord_cache[(k, mutant)] = divergence_check_vord(k=k, mutant=mutant)
    return _vord_cache[(k, mutant)]


def test_criterion_07_divergence_harnesses_pass_clean_and_fail_mutated():
    with criterion("criterion 7: duplicate-return and overtake harnesses "
                   "pass on the correct queue, fail on mutants") as info:
        states = 0
        for (m, k), expect in VREPET_EXPECT.items():
            r = divergence_check_vrepet(m=m, k=k)
            assert r.passed and r.counterexample is None, (m, k)
            assert r.states == expect, (m, k)
            states += r.states
        for k, expect in VORD_EXPECT.items():
            r = vord_report(k)
            assert r.passed and r.counterexample is None, k
            assert r.states == expect, k
            states += r.states

        bad = divergence_check_vrepet(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR)
        assert not bad.passed and bad.states == 968
        assert bad.counterexample.note == "two deq(7) threads finished on one enq(7)"
        bad2 = vord_report(1, MUTANT_SKIP_SLOT_ZERO)
        assert not bad2.passed and bad2.states == 1_829
        assert bad2.counterexample.note == (
            "deq(2) finished although enq(1) came first and was never dequeued"
        )
        info["detail"] = f"clean-harness-states={states}"


def test_criterion_08_slot_invariant_holds_in_every_reachable_state():
    with criterion("criterion 8: some slot below back holds the older value "
                   "with nothing newer ahead, in all overtake-harness states") as info:
        for k in VORD_EXPECT:
            r = vord_report(k)
            assert r.invariant_ok is True, k
            assert r.invariant_example is None, k
        info["detail"] = f"checked-k={sorted(VORD_EXPECT)}"


def test_criterion_09_pending_dequeues_are_never_impure_at_desk_scale():
    with criterion("criterion 9: every pending dequeue run solo terminates "
                   "or blocks without touching shared state") as info:
        checks = 0
        for (ne, nd) in GRID_EXPECT:
            r = grid_report(ne, nd)
            assert r.purity_violations == 0, (ne, nd)
            assert "VIOLATION" not in r.purity_outcomes, (ne, nd)
            assert dict(r.purity_outcomes) == (PURITY_EXPECT[ne] if nd else {})
            checks += sum(r.purity_outcomes.values())
        info["detail"] = f"distinct-purity-checks={checks}"


def test_criterion_10_seeded_fuzzing_agrees_and_is_deterministic():
    with criterion("criterion 10: 1000 seeded random histories, full "
                   "checker-oracle agreement, deterministic per seed") as info:
        agree = lin = 0
        for seed in range(1000):
            h = generate_history(seed, 3, 3)
            assert generate_history(seed, 3, 3).serialize() == h.serialize()
            fast = check_linearizable(h, build_witness=False)
            if (fast.status == LINEARIZABLE) == brute_force_linearizable(h):
                agree += 1
            if fast.status == LINEARIZABLE:
                lin += 1
        assert agree == 1000
        assert 0 < lin < 1000  # corpus exercises both verdicts
        info["detail"] = f"agreement=1000/1000 linearizable={lin}"
