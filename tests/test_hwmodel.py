"""The array-queue operational model: stepping, endpoints, mutants, purity.

The two scenario tests mirror the classic two-enqueuer/three-dequeuer
interleaving: after both slots are claimed but before both writes land, a
scanning dequeuer can be parked at either slot, so the two values can come
out in either order.
"""

import pytest

from qlin.checker import LINEARIZABLE, check_linearizable
from qlin.explorer import induce_history, replay_schedule
from qlin.history import NULL
from qlin.hwmodel import (
    GATE_FLAG_DONE,
    MUTANT_DIRTY_SPIN,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_SKIP_SLOT_ZERO,
    ChoiceOp,
    Config,
    DeqOp,
    EnqOp,
    classify_endpoint,
    hw_init,
    successors,
)
from lemmas import obs_equiv
from support import enabled_threads, enumerate_traces, hw_step, purely_blocking_check


def run(config, labels):
    state = hw_init(config)
    for label in labels:
        state = hw_step(config, state, label).state
    return state


# ---- construction validation ----


def test_op_validation():
    with pytest.raises(ValueError):
        EnqOp(-1)
    with pytest.raises(ValueError):
        EnqOp(True)
    with pytest.raises(ValueError):
        DeqOp(prophecy=-2)
    DeqOp(prophecy=NULL)  # fine
    with pytest.raises(ValueError):
        ChoiceOp(((EnqOp(1), "sometimes"),))
    with pytest.raises(ValueError):
        ChoiceOp((("enq", None),))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown mutant"):
        Config((EnqOp(1),), capacity=1, mutant="chaotic")
    with pytest.raises(ValueError, match="loop_bound"):
        Config((DeqOp(),), capacity=1, loop_bound=0)
    with pytest.raises(ValueError, match="capacity"):
        Config((EnqOp(1), EnqOp(2)), capacity=1)
    gated = ChoiceOp(((DeqOp(), GATE_FLAG_DONE),))
    with pytest.raises(ValueError, match="flag_tid"):
        Config((EnqOp(1), gated), capacity=2)
    Config((EnqOp(1), gated), capacity=2, flag_tid=0)  # fine


def test_op_labels():
    assert EnqOp(3).label() == "enq(3)"
    assert DeqOp().label() == "deq"
    assert DeqOp(prophecy=4).label() == "deq(4)"
    assert DeqOp(prophecy=NULL).label() == "deq(null)"
    assert not DeqOp().instrumented
    assert DeqOp(prophecy=NULL).instrumented


# ---- small-step walks ----


def test_single_enqueue_walk():
    config = Config((EnqOp(7),), capacity=1)
    s0 = hw_init(config)
    assert s0.back == 0 and s0.items == (NULL,)
    succs = successors(config, s0, 0)
    assert [s.label for s in succs] == ["0:E1"]
    s1 = succs[0].state
    assert succs[0].action.serialize() == "inv 0 enq 7"
    assert s1.back == 1 and s1.items == (NULL,)  # slot claimed, not written
    s2 = hw_step(config, s1, "0:E2").state
    assert s2.items == (7,)
    done = hw_step(config, s2, "0:ret")
    assert done.action.serialize() == "res 0 enq"
    assert done.state.all_done
    assert classify_endpoint(config, done.state) == "COMPLETE"


def test_enqueue_dequeue_round_trip():
    config = Config((EnqOp(7), DeqOp()), capacity=1)
    trace = replay_schedule(
        config, ["0:E1", "0:E2", "0:ret", "1:D1", "1:D2", "1:ret"]
    )
    assert trace.status == "COMPLETE"
    assert trace.final.items == (NULL,)  # swapped back out
    c = induce_history(trace)
    assert c.serialize() == (
        "inv 0 enq 7\nres 0 enq\ninv 1 deq\nres 1 deq 7"
    )


def test_dequeue_scan_misses_then_hits():
    # claim both slots, write only the second: the scan must skip slot 0
    config = Config((EnqOp(1), EnqOp(2), DeqOp()), capacity=2)
    state = run(config, ["0:E1", "1:E1", "1:E2", "2:D1"])
    f = state.frames[2]
    assert (f.pc, f.slot, f.rng) == ("d2", 0, 1)
    state = hw_step(config, state, "2:D2").state  # miss at slot 0
    assert state.frames[2].slot == 1
    state = hw_step(config, state, "2:D2").state  # take slot 1
    assert state.frames[2].result == 2
    assert state.items == (NULL, NULL)


def test_empty_scan_stays_between_iterations():
    config = Config((DeqOp(),), capacity=1, loop_bound=2)
    s1 = hw_step(config, hw_init(config), "0:D1").state
    f = s1.frames[0]
    # nothing claimed: no scan, cursor fields parked
    assert (f.pc, f.slot, f.rng, f.iters) == ("d1", 0, -1, 1)
    s2 = hw_step(config, s1, "0:D1").state
    assert s2.frames[0].iters == 2
    assert successors(config, s2, 0) == []
    assert classify_endpoint(config, s2) == "BOUND_HIT"


def test_hw_step_rejects_disabled_label():
    config = Config((EnqOp(1),), capacity=1)
    with pytest.raises(ValueError, match="not enabled"):
        hw_step(config, hw_init(config), "0:E2")


def test_enabled_threads():
    config = Config((EnqOp(1), DeqOp()), capacity=1, loop_bound=1)
    s = hw_init(config)
    assert enabled_threads(config, s) == [0, 1]
    s = run(config, ["1:D1"])  # dequeue burns its only iteration
    assert enabled_threads(config, s) == [0]


def test_uids_assigned_by_invocation_order():
    config = Config((EnqOp(1), DeqOp()), capacity=1)
    state = run(config, ["1:D1", "0:E1"])
    assert state.frames[1].uid == 0
    assert state.frames[0].uid == 1


# ---- endpoint classification ----


def test_overflow_endpoint():
    # the committed choice fills the array; the fixed enqueue cannot start
    config = Config(
        (EnqOp(1), ChoiceOp(((EnqOp(2), None),))), capacity=1
    )
    state = run(config, ["1:choose[enq(2)]", "1:E1", "1:E2", "1:ret"])
    assert successors(config, state, 0) == []
    assert classify_endpoint(config, state) == "OVERFLOW"


def test_stuck_endpoint_on_wrong_prophecy():
    config = Config((EnqOp(1), DeqOp(prophecy=5)), capacity=1)
    state = run(config, ["0:E1", "0:E2", "0:ret", "1:D1"])
    # slot 0 holds 1, the prediction says 5: neither commit nor skip
    assert successors(config, state, 1) == []
    assert classify_endpoint(config, state) == "STUCK"


# ---- choice threads and gates ----


def test_choice_commit_then_run():
    config = Config((ChoiceOp(((EnqOp(3), None), (DeqOp(), None))),), capacity=1)
    s0 = hw_init(config)
    labels = [s.label for s in successors(config, s0, 0)]
    assert labels == ["0:choose[enq(3)]", "0:choose[deq]"]
    s1 = hw_step(config, s0, "0:choose[enq(3)]").state
    assert [s.label for s in successors(config, s1, 0)] == ["0:E1"]


def test_gated_choice_waits_for_flag_thread():
    menu = ChoiceOp(((EnqOp(2), None), (DeqOp(), GATE_FLAG_DONE)))
    config = Config((EnqOp(1), menu), capacity=2, flag_tid=0)
    s0 = hw_init(config)
    assert [s.label for s in successors(config, s0, 1)] == ["1:choose[enq(2)]"]
    s1 = run(config, ["0:E1", "0:E2", "0:ret"])
    assert [s.label for s in successors(config, s1, 1)] == [
        "1:choose[enq(2)]",
        "1:choose[deq]",
    ]


# ---- mutants, at the single-step level ----


def test_no_swap_clear_leaves_value_behind():
    config = Config((EnqOp(1), DeqOp()), capacity=1, mutant=MUTANT_NO_SWAP_CLEAR)
    state = run(config, ["0:E1", "0:E2", "0:ret", "1:D1", "1:D2"])
    assert state.frames[1].result == 1
    assert state.items == (1,)  # still there


def test_skip_slot_zero_never_sees_slot_zero():
    config = Config((EnqOp(1), DeqOp()), capacity=1, mutant=MUTANT_SKIP_SLOT_ZERO)
    state = run(config, ["0:E1", "0:E2", "0:ret", "1:D1"])
    f = state.frames[1]
    # scan start 1 is already past rng 0: no D2 phase at all
    assert (f.pc, f.rng) == ("d1", -1)


def test_nonatomic_enqueue_can_lose_a_value():
    config = Config(
        (EnqOp(1), EnqOp(2)), capacity=2, mutant=MUTANT_NONATOMIC_ENQ
    )
    state = run(config, ["0:E1", "1:E1"])
    assert state.frames[0].slot == state.frames[1].slot == 0
    state = run(
        config,
        ["0:E1", "1:E1", "0:E1b", "1:E1b", "0:E2", "1:E2", "0:ret", "1:ret"],
    )
    # both wrote slot 0; value 1 was overwritten and slot 1 stays empty
    assert state.items == (2, NULL)
    assert state.back == 2


def test_dirty_spin_marks_scratch_on_miss():
    config = Config((EnqOp(1), DeqOp()), capacity=1, mutant=MUTANT_DIRTY_SPIN)
    state = run(config, ["0:E1", "1:D1", "1:D2"])
    assert state.scratch == 1


# ---- purely-blocking check ----


def test_purity_pure_on_empty_queue():
    config = Config((DeqOp(),), capacity=1, loop_bound=2)
    state = run(config, ["0:D1"])
    assert purely_blocking_check(config, state, 0) == "PURE"


def test_purity_terminates_with_value_available():
    config = Config((EnqOp(1), DeqOp()), capacity=1)
    state = run(config, ["0:E1", "0:E2", "0:ret", "1:D1"])
    assert purely_blocking_check(config, state, 1) == "TERMINATES"


def test_purity_violation_under_dirty_spin():
    config = Config((EnqOp(1), DeqOp()), capacity=1, mutant=MUTANT_DIRTY_SPIN)
    state = run(config, ["0:E1", "1:D1"])
    assert purely_blocking_check(config, state, 1) == "VIOLATION"


def test_purity_check_ignores_prior_iterations():
    # thread already at the loop bound: the solo run gets a fresh budget
    config = Config((EnqOp(1), DeqOp()), capacity=1, loop_bound=1)
    state = run(config, ["1:D1", "0:E1", "0:E2", "0:ret"])
    assert state.frames[1].iters == 1
    assert purely_blocking_check(config, state, 1) == "TERMINATES"


# ---- the two-enqueuer scenario: prefix and both extensions ----

SCENARIO = Config(
    (EnqOp(1), EnqOp(2), DeqOp(), DeqOp(), DeqOp()),
    capacity=2,
    loop_bound=2,
)

# claim both slots, write the later one, then the earlier; one scanner is
# already parked past slot 0, a second has its snapshot
PREFIX = ("0:E1", "1:E1", "2:D1", "2:D2", "1:E2", "0:E2", "3:D1")


def test_scenario_prefix_state():
    trace = replay_schedule(SCENARIO, PREFIX)
    s = trace.final
    assert s.items == (1, 2)
    v, w = s.frames[2], s.frames[3]
    assert (v.pc, v.slot) == ("d2", 1)  # parked at the second slot
    assert (w.pc, w.slot) == ("d2", 0)  # about to scan from the first
    assert induce_history(trace).serialize() == (
        "inv 0 enq 1\ninv 1 enq 2\ninv 2 deq\ninv 3 deq"
    )


def test_scenario_extension_second_value_first():
    ext = PREFIX + ("2:D2", "2:ret", "4:D1", "4:D2", "4:ret")
    c = induce_history(replay_schedule(SCENARIO, ext))
    assert c.event(2).value == 2
    assert c.event(4).value == 1
    assert check_linearizable(c).status == LINEARIZABLE


def test_scenario_extension_first_value_first():
    ext = PREFIX + ("3:D2", "3:ret", "4:D1", "4:D2", "4:D2", "4:ret")
    c = induce_history(replay_schedule(SCENARIO, ext))
    assert c.event(3).value == 1
    assert c.event(4).value == 2
    assert check_linearizable(c).status == LINEARIZABLE


def test_scenario_exploration_reaches_both_orders():
    start = replay_schedule(SCENARIO, PREFIX)
    orders = set()
    for trace in enumerate_traces(SCENARIO, start=start, dedup=True):
        c = induce_history(trace)
        got = tuple(
            e.value for e in c.events if e.is_deq and not e.pending
        )
        orders.add(got)
    assert (1, 2) in orders and (2, 1) in orders


# ---- the full textbook trace and its induced history ----

TEXTBOOK = (
    "0:E1", "1:E1", "2:D1", "0:E2", "3:D1",
    "2:D2", "2:ret", "4:D1", "4:D2", "1:E2", "4:D2", "4:ret",
)

TEXTBOOK_HISTORY = (
    "inv 0 enq 1\n"
    "inv 1 enq 2\n"
    "inv 2 deq\n"
    "inv 3 deq\n"
    "res 2 deq 1\n"
    "inv 4 deq\n"
    "res 4 deq 2"
)


def test_textbook_trace_induces_exact_history():
    trace = replay_schedule(SCENARIO, TEXTBOOK)
    assert induce_history(trace).serialize() == TEXTBOOK_HISTORY


def test_textbook_history_linearizes_in_enqueue_order():
    c = induce_history(replay_schedule(SCENARIO, TEXTBOOK))
    v = check_linearizable(c)
    assert v.status == LINEARIZABLE
    from lemmas import behavior_of
    from support import seq_history

    target = behavior_of(
        seq_history([("enq", 1), ("enq", 2), ("deq", 1), ("deq", 2)])
    )
    assert obs_equiv(v.witness, target)
