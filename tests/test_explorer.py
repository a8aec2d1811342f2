"""Schedule replay and the divergence harnesses, plus the reference
trace enumeration, per-configuration reports, purity sweep and harness
walk on the readable model that the packed kernel is compared against.

Expected counts in this file were frozen from reference runs of the
exhaustive sweeps themselves; every schedule-shaped expectation is also
replayed through the machine to confirm it is not a stale literal.
"""

from itertools import groupby
from math import factorial

import pytest

from qlin.explorer import (
    Counterexample,
    divergence_check_vord,
    divergence_check_vrepet,
    induce_history,
    replay_schedule,
    vord_config,
    vrepet_config,
)
from qlin.history import NULL
from qlin.hwmodel import (
    ChoiceOp,
    Config,
    DeqOp,
    EnqOp,
    GATE_FLAG_DONE,
    MUTANTS,
    MUTANT_DIRTY_SPIN,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_NONE,
    MUTANT_SKIP_SLOT_ZERO,
)

from qlin import sweep
from qlin.sweep import _Kernel, reachable_states

from support import (
    ConfigReport,
    check_configuration,
    count_traces,
    enumerate_traces,
    kernel_frame,
    plain_config,
    purity_sweep,
    reference_divergence_vord,
    reference_divergence_vrepet,
)


ONE_ONE = plain_config(1, 1)


# ---------------------------------------------------------------------------
# config builders


def test_vrepet_config_shape():
    c = vrepet_config(m=2, k=1)
    assert isinstance(c.threads[0], EnqOp) and c.threads[0].value == 7
    assert all(isinstance(t, DeqOp) and t.prophecy == 7 for t in c.threads[1:3])
    assert isinstance(c.threads[3], ChoiceOp)
    assert c.capacity == 2  # one slot per extra enqueue source
    # background menu must stay away from the pivot value
    for op, gate in c.threads[3].menu:
        assert gate is None
        v = op.value if isinstance(op, EnqOp) else op.prophecy
        assert v != 7


def test_vrepet_config_rejects_small_m():
    with pytest.raises(ValueError):
        vrepet_config(m=1)


def test_vrepet_config_rejects_negative_k():
    with pytest.raises(ValueError):
        vrepet_config(m=2, k=-1)


def test_vord_config_shape():
    c = vord_config(k=1)
    assert isinstance(c.threads[0], DeqOp) and c.threads[0].prophecy == 2
    assert isinstance(c.threads[1], EnqOp) and c.threads[1].value == 1
    assert c.flag_tid == 1
    menu = c.threads[2].menu
    # only the enq of the watched value is gated on the flag thread
    gated = [op for op, gate in menu if gate == GATE_FLAG_DONE]
    assert [op.value for op in gated] == [2]
    # nothing in the menu may dequeue the older value
    assert all(op.prophecy != 1 for op, _ in menu if isinstance(op, DeqOp))


def test_vord_config_rejects_negative_k():
    with pytest.raises(ValueError):
        vord_config(k=-1)


# ---------------------------------------------------------------------------
# trace enumeration and replay


def test_count_traces_matches_enumeration():
    raw = {}
    for t in enumerate_traces(ONE_ONE):
        raw[t.status] = raw.get(t.status, 0) + 1
    assert raw == {"COMPLETE": 42, "BOUND_HIT": 4}
    assert dict(count_traces(ONE_ONE)) == raw


def test_enumerate_dedup_preserves_outcomes():
    outcome = lambda t: (t.status, t.final, induce_history(t).serialize())
    raw = {outcome(t) for t in enumerate_traces(ONE_ONE)}
    ded = [outcome(t) for t in enumerate_traces(ONE_ONE, dedup=True)]
    assert len(ded) == len(set(ded)) == 7
    assert set(ded) == raw


def test_replay_schedule_round_trip():
    for t in enumerate_traces(ONE_ONE, dedup=True):
        again = replay_schedule(ONE_ONE, t.schedule)
        assert again.final == t.final
        assert again.status == t.status
        assert again.actions == t.actions


def test_replay_schedule_rejects_disabled_label():
    with pytest.raises(ValueError):
        replay_schedule(ONE_ONE, ("0:E2",))


def test_induced_history_is_actions_only():
    t = replay_schedule(ONE_ONE, ("0:E1", "0:E2", "0:ret"))
    h = induce_history(t)
    assert h.serialize() == "inv 0 enq 1\nres 0 enq"


# ---------------------------------------------------------------------------
# configuration reports


def test_report_counts_small_clean():
    r = check_configuration(ONE_ONE, oracle=True)
    assert isinstance(r, ConfigReport)
    assert r.clean
    assert r.total_traces == 46
    assert dict(r.trace_counts) == {"COMPLETE": 42, "BOUND_HIT": 4}
    assert r.distinct_complete == 5
    assert dict(r.endpoint_counts) == {"COMPLETE": 5, "BOUND_HIT": 2}
    assert r.nodes == 53
    assert r.oracle_checked == 5
    assert r.oracle_disagreements == 0
    assert r.summary() == (
        "EXPLORE clean traces=46 complete-histories=5 "
        "complete-traces=42 bound-hit-traces=4 "
        "oracle-checked=5 oracle-disagreements=0"
    )


def test_two_enqueuer_report():
    r = check_configuration(plain_config(2, 1), oracle=True)
    assert r.clean
    assert r.total_traces == 12102
    assert r.distinct_complete == 124
    assert r.nodes == 1230
    assert (r.oracle_checked, r.oracle_disagreements) == (124, 0)


def test_more_dequeuers_than_values_never_complete():
    # without NULL returns a starved dequeue spins forever
    r = check_configuration(plain_config(1, 2))
    assert r.distinct_complete == 0
    assert dict(r.endpoint_counts) == {"BOUND_HIT": 56}
    assert r.clean


def test_mutant_violations_detected_and_oracle_confirmed():
    r = check_configuration(plain_config(1, 2, mutant=MUTANT_NO_SWAP_CLEAR), oracle=True)
    assert not r.clean
    assert r.distinct_complete == 33
    assert len(r.violations) == 33
    assert {v.verdict.violation.kind for v in r.violations} == {"vrepet"}
    assert (r.oracle_checked, r.oracle_disagreements) == (33, 0)
    assert r.summary() == (
        "EXPLORE violations=33 traces=104940 complete-histories=33 "
        "complete-traces=93400 bound-hit-traces=11540 "
        "oracle-checked=33 oracle-disagreements=0"
    )


def test_violation_record_lines_and_replay():
    r = check_configuration(plain_config(1, 2, mutant=MUTANT_NO_SWAP_CLEAR))
    doubled = "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1\ninv 2 deq\nres 2 deq 1"
    rec = next(v for v in r.violations if v.history.serialize() == doubled)
    assert rec.to_lines() == [
        "schedule:",
        "  0:E1",
        "  0:E2",
        "  0:ret",
        "  1:D1",
        "  1:D2",
        "  1:ret",
        "  2:D1",
        "  2:D2",
        "  2:ret",
        "history:",
        "  inv 0 enq 1",
        "  res 0 enq",
        "  inv 1 deq",
        "  res 1 deq 1",
        "  inv 2 deq",
        "  res 2 deq 1",
        "VIOLATION vrepet d=1 d2=2",
    ]
    again = replay_schedule(r.config, rec.schedule)
    assert again.status == "COMPLETE"
    assert induce_history(again).serialize() == doubled


def test_skip_slot_zero_ordering_violations():
    r = check_configuration(plain_config(2, 1, mutant=MUTANT_SKIP_SLOT_ZERO), oracle=True)
    assert r.distinct_complete == 66
    assert len(r.violations) == 18
    assert {v.verdict.violation.kind for v in r.violations} == {"vord"}
    assert (r.oracle_checked, r.oracle_disagreements) == (66, 0)
    for v in r.violations:
        again = replay_schedule(r.config, v.schedule)
        assert induce_history(again).serialize() == v.history.serialize()


def test_nonatomic_enqueue_clean_below_three_enqueuers():
    # the split enqueue needs a third in-flight insertion to misorder
    r = check_configuration(plain_config(2, 1, mutant=MUTANT_NONATOMIC_ENQ), oracle=True)
    assert r.clean
    assert r.distinct_complete == 132
    assert (r.oracle_checked, r.oracle_disagreements) == (132, 0)


def test_reports_are_value_independent():
    base = plain_config(2, 2, loop_bound=2)
    renamed = Config(
        (EnqOp(5), EnqOp(3), DeqOp(), DeqOp()),
        capacity=2, loop_bound=2,
    )
    a = check_configuration(base)
    b = check_configuration(renamed)
    assert a.trace_counts == b.trace_counts
    assert a.distinct_complete == b.distinct_complete == 1704
    assert a.nodes == b.nodes
    assert len(a.violations) == len(b.violations) == 0


def test_prophecy_menu_covers_plain_dequeue():
    # running the instrumented dequeue once per predicted value must
    # reproduce exactly the plain dequeue's complete histories
    def complete_set(deq):
        c = Config((EnqOp(1), EnqOp(2), deq), capacity=2, loop_bound=3)
        return {
            induce_history(t).serialize()
            for t in enumerate_traces(c, dedup=True)
            if t.status == "COMPLETE"
        }

    plain = complete_set(DeqOp())
    assert len(plain) == 124
    parts = {x: complete_set(DeqOp(prophecy=x)) for x in (1, 2, NULL)}
    assert len(parts[1]) == len(parts[2]) == 62
    assert parts[NULL] == set()  # a NULL prediction can never commit here
    assert parts[1] | parts[2] == plain


# ---------------------------------------------------------------------------
# divergence harnesses


def test_vrepet_passes_on_correct_queue():
    r = divergence_check_vrepet(m=2, k=0)
    assert r.passed
    assert r.states == 920
    assert r.bound_caveat
    assert r.counterexample is None
    assert r.invariant_ok is None  # slot invariant belongs to the vord harness
    assert r.summary() == (
        "DIVERGENCE vrepet v=7 m=2 k=0 loop_bound=3 mutant=none "
        "status=pass states=920 caveat=loop-bound-hit"
    )


def test_vrepet_passes_with_background_thread():
    r = divergence_check_vrepet(m=2, k=1)
    assert r.passed
    assert r.states == 95562


def test_vrepet_passes_with_three_racers():
    r = divergence_check_vrepet(m=3, k=0)
    assert r.passed
    assert r.states == 23596


def test_vrepet_fails_without_swap_clear():
    r = divergence_check_vrepet(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR)
    assert not r.passed
    assert r.states == 968
    cx = r.counterexample
    assert isinstance(cx, Counterexample)
    assert cx.note == "two deq(7) threads finished on one enq(7)"
    assert cx.schedule == (
        "0:E1", "0:E2", "1:D1", "1:D2A", "1:ret", "2:D1", "2:D2A", "2:ret",
    )
    assert cx.history.serialize() == (
        "inv 0 enq 7\ninv 1 deq\nres 1 deq 7\ninv 2 deq\nres 2 deq 7"
    )
    assert cx.to_lines()[0] == "counterexample: two deq(7) threads finished on one enq(7)"
    # the schedule must actually drive the mutant to that history
    again = replay_schedule(vrepet_config(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR), cx.schedule)
    assert induce_history(again).serialize() == cx.history.serialize()
    assert r.summary() == (
        "DIVERGENCE vrepet v=7 m=2 k=0 loop_bound=3 mutant=no_swap_clear "
        "status=fail states=968 caveat=loop-bound-hit"
    )


def test_vord_passes_solo():
    r = divergence_check_vord(k=0)
    assert r.passed
    assert r.states == 40
    assert r.invariant_ok is True
    assert r.invariant_example is None


def test_vord_passes_with_background_thread():
    r = divergence_check_vord(k=1)
    assert r.passed
    assert r.states == 3817
    assert r.invariant_ok is True


def test_vord_skip_slot_zero_needs_contention():
    # with no background thread the scan-start mutant has nothing to skip to
    quiet = divergence_check_vord(k=0, mutant=MUTANT_SKIP_SLOT_ZERO)
    assert quiet.passed
    assert quiet.states == 25
    assert quiet.invariant_ok is None  # invariant is only claimed unmutated
    busy = divergence_check_vord(k=1, mutant=MUTANT_SKIP_SLOT_ZERO)
    assert not busy.passed
    assert busy.states == 1829
    cx = busy.counterexample
    assert cx.note == "deq(2) finished although enq(1) came first and was never dequeued"
    assert cx.schedule == (
        "1:E1", "1:E2", "1:ret", "2:choose[enq(2)]", "2:E1",
        "0:D1", "2:E2", "0:D2A", "0:ret",
    )
    assert cx.history.serialize() == (
        "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\ninv 2 deq\nres 2 deq 2"
    )
    again = replay_schedule(
        vord_config(k=1, mutant=MUTANT_SKIP_SLOT_ZERO), cx.schedule
    )
    assert induce_history(again).serialize() == cx.history.serialize()


# ---------------------------------------------------------------------------
# harnesses on the kernel against the reference walk over hwmodel states

HARNESSES = [
    pytest.param("vrepet", dict(m=2, k=0), id="vrepet-m2-k0"),
    pytest.param("vrepet", dict(m=2, k=1), id="vrepet-m2-k1"),
    pytest.param("vrepet", dict(m=3, k=0), id="vrepet-m3-k0"),
    pytest.param("vord", dict(k=0), id="vord-k0"),
    pytest.param("vord", dict(k=1), id="vord-k1"),
    pytest.param("vrepet", dict(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR), id="vrepet-no-swap-clear"),
    pytest.param("vord", dict(k=1, mutant=MUTANT_SKIP_SLOT_ZERO), id="vord-skip-slot-zero"),
]

# the unmutated harnesses, and a small one of each kind under every mutant
FINISHED_DEQUEUE_HARNESSES = [p.values for p in HARNESSES if "mutant" not in p.values[1]] + [
    (kind, dict(params, mutant=mutant))
    for kind, params in (("vrepet", dict(m=2, k=0)), ("vord", dict(k=1)))
    for mutant in MUTANTS if mutant != MUTANT_NONE
]

# every harness above, each once; ids as HARNESSES names its mutant ones
REFERENCE_HARNESSES = HARNESSES + [
    pytest.param(kind, params, id=f"{kind}-{params['mutant'].replace('_', '-')}")
    for kind, params in FINISHED_DEQUEUE_HARNESSES
    if (kind, params) not in [p.values for p in HARNESSES]
]


def report_lines(r):
    lines = [r.summary(), repr((r.passed, r.states, r.bound_caveat, r.invariant_ok))]
    for cx in (r.counterexample, r.invariant_example):
        lines.extend(cx.to_lines() if cx is not None else ["none"])
    return lines


@pytest.mark.parametrize("kind, params", REFERENCE_HARNESSES)
def test_harness_matches_reference(kind, params):
    if kind == "vrepet":
        mine, ref = divergence_check_vrepet(**params), reference_divergence_vrepet(**params)
    else:
        mine, ref = divergence_check_vord(**params), reference_divergence_vord(**params)
    assert report_lines(mine) == report_lines(ref)


@pytest.mark.parametrize("kind, params", HARNESSES)
def test_orbit_sum_equals_unreduced_state_count(kind, params):
    config = (vrepet_config if kind == "vrepet" else vord_config)(**params)
    kernel = _Kernel(config)
    canonical, _ = reachable_states(kernel)
    orbit_sum = sum(kernel.orbit_size(s) for s in canonical)
    # explore every raw state, one orbit each: canon reads the groups off
    # sym_groups and canon_step off group_at, its per-thread table of them
    kernel.sym_groups = ()
    kernel.group_at = (None,) * kernel.n
    raw, _ = reachable_states(kernel)
    assert len(raw) == orbit_sum
    assert all(kernel.orbit_size(s) == 1 for s in raw)


@pytest.mark.parametrize("kind, params", HARNESSES)
def test_orbit_size_is_the_sorted_multinomial(kind, params):
    # orbit_size counts runs of adjacent equal frames, which needs a
    # canonical state; here each group's frames are sorted afresh
    kernel = _Kernel((vrepet_config if kind == "vrepet" else vord_config)(**params))
    canonical, _ = reachable_states(kernel)
    for state in canonical:
        size = 1
        for tids in kernel.sym_groups:
            frames = sorted(kernel_frame(kernel, state, t) for t in tids)
            size *= factorial(len(frames))
            for _, equal in groupby(frames):
                size //= factorial(len(list(equal)))
        assert kernel.orbit_size(state) == size, state


def test_harness_walks_through_the_sweep_module(monkeypatch):
    # the harnesses look their state walk up on qlin.sweep at call time,
    # so a wrapper installed there, as a per-layer trace would be, sees
    # every call, one per harness
    real = sweep.reachable_states
    calls = []

    def walking(kernel):
        calls.append(kernel)
        return real(kernel)

    monkeypatch.setattr(sweep, "reachable_states", walking)
    assert divergence_check_vrepet().passed
    assert len(calls) == 1
    assert divergence_check_vord(k=1, mutant=MUTANT_SKIP_SLOT_ZERO).counterexample is not None
    assert len(calls) == 2


def test_harness_without_twins_reads_its_counterexample_off_its_walk(monkeypatch):
    # vord has no two threads with one declared operation, so its walk is
    # first_schedule's and the counterexample costs one successors call
    # per hop on top of one per state
    want = divergence_check_vord(k=1, mutant=MUTANT_SKIP_SLOT_ZERO)

    def refuse(kernel, stop):
        raise AssertionError("first_schedule walked the states again")

    real = _Kernel.successors
    calls = []

    def counting(self, state, gate_groups=()):
        calls.append(state)
        return real(self, state, gate_groups)

    monkeypatch.setattr(sweep, "first_schedule", refuse)
    monkeypatch.setattr(_Kernel, "successors", counting)
    got = divergence_check_vord(k=1, mutant=MUTANT_SKIP_SLOT_ZERO)
    assert got == want
    assert got.states == 1829
    assert got.counterexample.schedule == (
        "1:E1", "1:E2", "1:ret", "2:choose[enq(2)]", "2:E1",
        "0:D1", "2:E2", "0:D2A", "0:ret",
    )
    assert len(calls) <= got.states + len(got.counterexample.schedule)


def test_harness_with_twins_walks_raw_states_once_for_its_counterexample(monkeypatch):
    # the two deq(7) threads of vrepet are twins: the canonical walk's
    # parents are not a raw breadth-first tree, so first_schedule finds
    # the counterexample, once
    real = sweep.first_schedule
    calls = []

    def counting(kernel, stop):
        calls.append(kernel)
        return real(kernel, stop)

    monkeypatch.setattr(sweep, "first_schedule", counting)
    r = divergence_check_vrepet(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR)
    assert not r.passed
    assert r.states == 968
    assert len(calls) == 1



def test_finished_dequeues_hold_a_value():
    # the vrepet predicate counts finished deq(7) threads without reading
    # what they took; that equals counting those that took a value only
    # while no kernel dequeue can finish with its result field empty
    checked = 0
    for kind, params in FINISHED_DEQUEUE_HARNESSES:
        kernel = _Kernel((vrepet_config if kind == "vrepet" else vord_config)(**params))
        canonical, _ = reachable_states(kernel)
        for state in canonical:
            for t in range(kernel.n):
                prog = kernel.progs[t]
                if prog is None and (entry := kernel._entry(state, t)):
                    prog = kernel.menus[t][entry - 1][0]
                if prog is None or prog[0] or not kernel.done(state, t):
                    continue
                checked += 1
                res = (kernel_frame(kernel, state, t) & kernel.low_mask) >> kernel.res_sh
                assert res, (kind, params, state, t)
    assert checked


# ---------------------------------------------------------------------------
# purity sweep


def test_purity_clean_on_correct_queue():
    p = purity_sweep(ONE_ONE)
    assert p.clean
    assert p.states == 48
    assert p.checks == 40
    assert dict(p.outcomes) == {"PURE": 14, "TERMINATES": 26}
    assert p.summary() == "PURITY clean states=48 checks=40 pure=14 terminates=26"


def test_purity_flags_dirty_spin():
    p = purity_sweep(plain_config(1, 1, mutant=MUTANT_DIRTY_SPIN))
    assert not p.clean
    assert dict(p.outcomes) == {"PURE": 3, "TERMINATES": 40, "VIOLATION": 15}
    assert len(p.violations) == 15
    assert p.summary() == (
        "PURITY violations=15 states=72 checks=58 pure=3 terminates=40 violation=15"
    )
    # each recorded pair is a parked dequeue in the state it was checked at
    for state, tid in p.violations:
        f = state.frames[tid]
        assert isinstance(f.op, DeqOp)
        assert f.uid is not None and not f.done
