"""Packed-integer sweep kernel, cross-validated against the dataclass
interpreter on every scale both can reach.

The kernel re-implements the machine semantics for speed; nothing here
trusts it on its own.  Trace counts, history sets, violation sets and
purity verdicts are all compared against the reference interpreter, and
the isomorphism quotient against the exact collection of the reference
walk in support, an independent semantic canonical form and brute-force
isomorphism.  Numeric literals were frozen from those cross-runs.
"""

import sys
from collections import Counter

import pytest

from qlin import sweep
from qlin.explorer import induce_history, replay_schedule, vord_config, vrepet_config
from qlin.history import NULL
from qlin.hwmodel import (
    GATE_FLAG_DONE,
    ChoiceOp,
    Config,
    DeqOp,
    EnqOp,
    MUTANT_DIRTY_SPIN,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_NONE,
    MUTANT_SKIP_SLOT_ZERO,
)
from qlin.sweep import (
    SweepScopeError,
    _Kernel,
    _T_EINV,
    collect_histories,
    count_schedules,
    first_schedule,
    reachable_states,
    sweep_config,
    walked_schedule,
)

from support import (
    canonical_form,
    canonicalize_tokens,
    check_configuration,
    count_traces,
    enumerate_traces,
    erase_values,
    gated_reachable_states,
    isomorphic,
    kernel_frame,
    plain_config,
    purely_blocking_check,
    purity_sweep,
    reference_collect_histories,
    reference_purity_scan,
    stamped_canonical_states,
    traced_lines,
)


# configs small enough for the reference interpreter: one per mutant,
# one with a repeated enqueue value, one with fields wider than 3 bits
CROSS_CONFIGS = [
    pytest.param(plain_config(1, 1), id="1enq-1deq"),
    pytest.param(plain_config(2, 1), id="2enq-1deq"),
    pytest.param(plain_config(1, 2), id="1enq-2deq"),
    pytest.param(plain_config(1, 2, mutant=MUTANT_NO_SWAP_CLEAR), id="no-swap-clear"),
    pytest.param(plain_config(2, 1, mutant=MUTANT_SKIP_SLOT_ZERO), id="skip-slot-zero"),
    pytest.param(plain_config(2, 1, mutant=MUTANT_NONATOMIC_ENQ), id="nonatomic-enq"),
    pytest.param(plain_config(1, 1, mutant=MUTANT_DIRTY_SPIN), id="dirty-spin"),
    pytest.param(
        Config((EnqOp(5), EnqOp(5), DeqOp()), capacity=2, loop_bound=3),
        id="repeated-value",
    ),
    pytest.param(plain_config(1, 1, capacity=8, loop_bound=8), id="wide-fields"),
]


def exact_histories(config):
    kernel = _Kernel(config)
    tokens, _ = reference_collect_histories(kernel, quotient=False)
    return kernel, {kernel.tokens_to_history(t).serialize() for t in tokens}


def isomorphic_sets(got, want) -> bool:
    """Every history in either collection has an isomorphic one in the other."""
    return (all(any(isomorphic(g, w) for w in want) for g in got)
            and all(any(isomorphic(w, g) for g in got) for w in want))


# ---------------------------------------------------------------------------
# scope guard: sweep_config refuses the divergence harnesses' thread kinds


def test_scope_rejects_instrumented_dequeue():
    c = Config((EnqOp(1), DeqOp(prophecy=1)), capacity=1, loop_bound=3)
    with pytest.raises(SweepScopeError):
        sweep_config(c)


def test_scope_rejects_choice_threads():
    menu = ((EnqOp(1), None),)
    c = Config((ChoiceOp(menu), DeqOp()), capacity=1, loop_bound=3)
    with pytest.raises(SweepScopeError):
        sweep_config(c)


def test_scope_rejects_divergence_harness():
    with pytest.raises(SweepScopeError):
        sweep_config(vrepet_config())


# ---------------------------------------------------------------------------
# cross-validation against the reference interpreter


@pytest.mark.parametrize("config", CROSS_CONFIGS)
def test_trace_counts_match_reference(config):
    counts, _ = count_schedules(_Kernel(config))
    assert counts == count_traces(config)


# configs with choice threads or prophecy dequeues, which only the
# divergence harnesses run: their counts need the uid and op fields
HARNESS_CONFIGS = [
    pytest.param(vrepet_config(m=2, k=0), id="vrepet-m2-k0"),
    pytest.param(vrepet_config(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR), id="vrepet-no-swap-clear"),
    pytest.param(vord_config(k=1), id="vord-k1"),
    pytest.param(vord_config(k=1, mutant=MUTANT_SKIP_SLOT_ZERO), id="vord-skip-slot-zero"),
    pytest.param(vord_config(k=1, mutant=MUTANT_DIRTY_SPIN), id="vord-dirty-spin"),
    pytest.param(vord_config(k=1, mutant=MUTANT_NONATOMIC_ENQ), id="vord-nonatomic-enq"),
    pytest.param(
        Config((EnqOp(1), DeqOp(prophecy=NULL), DeqOp(prophecy=5)), capacity=1, loop_bound=2),
        id="unmatched-prophecies",
    ),
    pytest.param(
        Config((ChoiceOp(((EnqOp(3), GATE_FLAG_DONE), (DeqOp(), None))), DeqOp(prophecy=3),
                ChoiceOp(((EnqOp(3), None),))), capacity=1, loop_bound=2, flag_tid=1),
        id="gated-choice",
    ),
    pytest.param(
        Config((DeqOp(prophecy=2), EnqOp(1), EnqOp(1), ChoiceOp(((EnqOp(2), GATE_FLAG_DONE),))),
               capacity=3, loop_bound=2, flag_tid=1),
        id="flag-thread-twin",
    ),
]


@pytest.mark.parametrize("config", HARNESS_CONFIGS)
def test_harness_trace_counts_match_reference(config):
    counts, _ = count_schedules(_Kernel(config))
    assert counts == count_traces(config)


def test_null_prophecy_dequeue_hits_the_loop_bound():
    # a NULL prediction never commits, so the lone dequeue spins, as in hwmodel
    config = Config((DeqOp(prophecy=NULL),), capacity=1, loop_bound=3)
    counts, states = count_schedules(_Kernel(config))
    assert dict(counts) == dict(count_traces(config)) == {"BOUND_HIT": 1}
    assert len(states) == 4


# ---------------------------------------------------------------------------
# the canonical walks: one-frame re-canonicalisation, and the walk that
# counts nothing against the one that counts


def grid_config(n_enq, n_deq, mutant=MUTANT_NONE):
    threads = tuple(EnqOp(i + 1) for i in range(n_enq)) + (DeqOp(),) * n_deq
    return Config(threads, capacity=4, loop_bound=4, mutant=mutant)


# the benchmark's grid cells and mutant cells, two non-trivial groups of
# plain threads, the divergence harnesses, and a harness where a choice
# group and a prophecy group both have two members
CANON_CONFIGS = [
    pytest.param(grid_config(ne, nd), id=f"grid-{ne}+{nd}")
    for ne, nd in ((0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
                   (2, 0), (2, 1), (2, 2), (3, 0), (3, 1))
] + [
    pytest.param(grid_config(1, 2, MUTANT_NO_SWAP_CLEAR), id="grid-1+2-no-swap-clear"),
    pytest.param(grid_config(2, 1, MUTANT_SKIP_SLOT_ZERO), id="grid-2+1-skip-slot-zero"),
    pytest.param(
        Config((EnqOp(1), EnqOp(1), DeqOp(), DeqOp()), capacity=2, loop_bound=3),
        id="two-groups",
    ),
    pytest.param(vrepet_config(m=2, k=0), id="vrepet-m2-k0"),
    pytest.param(vrepet_config(m=2, k=1), id="vrepet-m2-k1"),
    pytest.param(vrepet_config(m=3, k=0), id="vrepet-m3-k0"),
    pytest.param(vord_config(k=0), id="vord-k0"),
    pytest.param(vord_config(k=1), id="vord-k1"),
    pytest.param(vrepet_config(m=2, k=0, mutant=MUTANT_NO_SWAP_CLEAR), id="vrepet-no-swap-clear"),
    pytest.param(vord_config(k=1, mutant=MUTANT_SKIP_SLOT_ZERO), id="vord-skip-slot-zero"),
    pytest.param(vrepet_config(m=2, k=2, loop_bound=1), id="vrepet-m2-k2-choice-group"),
]


@pytest.mark.parametrize("config", CANON_CONFIGS)
def test_canon_step_is_canon_on_every_successor(config):
    # a walk that canonicalises with canon alone, checking canon_step on
    # every successor of every canonical state it reaches
    kernel = _Kernel(config)
    init = kernel.canon(kernel.init_state())
    seen = {init}
    stack = [init]
    while stack:
        state = stack.pop()
        for tid, _, _, ns in kernel.successors(state):
            full = kernel.canon(ns)
            assert kernel.canon_step(ns, tid) == full, (state, tid)
            if full not in seen:
                seen.add(full)
                stack.append(full)
    assert reachable_states(kernel)[0].keys() == seen


@pytest.mark.parametrize("config", CANON_CONFIGS)
def test_reachable_states_match_the_count_walk(config):
    kernel = _Kernel(config)
    states, bound_hit = reachable_states(kernel)
    counts, counted = count_schedules(kernel)
    assert states.keys() == set(counted)
    assert bound_hit == (counts["BOUND_HIT"] > 0)


@pytest.mark.parametrize("config", CANON_CONFIGS)
def test_reachable_states_walk_breadth_first(config):
    # expanding the states in the walk's order, canonicalising with canon
    # alone, discovers them in that same order, each first from its parent
    kernel = _Kernel(config)
    parents, _ = reachable_states(kernel)
    init = kernel.canon(kernel.init_state())
    first = {init: -1}
    for state in parents:
        for tid, _, _, ns in kernel.successors(state):
            first.setdefault(kernel.canon(ns), state)
    assert list(first.items()) == list(parents.items())


@pytest.mark.parametrize(
    "config", [p for p in CANON_CONFIGS if not _Kernel(p.values[0]).sym_groups])
def test_walk_without_symmetry_is_first_schedules_walk(config):
    # with no two threads alike the canonical walk is the raw walk
    # first_schedule makes, so its parents give first_schedule's
    # schedule, and tokens, to every state
    kernel = _Kernel(config)
    parents, _ = reachable_states(kernel)
    raw, found = sweep._breadth_first(kernel, lambda state: False)
    assert found is None
    assert list(parents) == list(raw)
    for state in parents:
        assert walked_schedule(kernel, parents, state) == sweep._schedule_to(raw, state)


# the plain configurations among CANON_CONFIGS, a repeated enqueue value,
# and the mutants that add a step (nonatomic_enq) or a shared counter
# (dirty_spin) to a run; then configurations that stress the tail rule of
# collection (see collect_histories): loop bounds 1 and 2, where a re-scan
# taken alone is more often a dequeuer's last, capacity below the thread
# count, a dequeue that leaves its value in the slot (no_swap_clear), a
# re-scan next to a NULL swap that writes the scratch counter (dirty_spin),
# and re-scans while an enqueuer sits between claiming a slot and moving
# back (nonatomic_enq); last, configurations where the tail memo's key
# folds states that differ by swapping identical threads: a group of
# three dequeuers, three dequeuers that can return one value twice
# (no_swap_clear), and two groups, so enqueue responses are relabelled too
COLLECT_CONFIGS = [p for p in CANON_CONFIGS if not _Kernel(p.values[0]).ranked] + [
    pytest.param(
        Config((EnqOp(1), EnqOp(1), EnqOp(2), DeqOp()), capacity=3, loop_bound=2),
        id="repeated-value",
    ),
    pytest.param(plain_config(2, 2, mutant=MUTANT_NONATOMIC_ENQ, capacity=2, loop_bound=2),
                 id="nonatomic-enq"),
    pytest.param(plain_config(1, 2, mutant=MUTANT_DIRTY_SPIN, capacity=1, loop_bound=3),
                 id="dirty-spin"),
] + [
    pytest.param(plain_config(ne, nd, capacity=4, loop_bound=lb), id=f"{ne}+{nd}-lb{lb}")
    for ne, nd in ((2, 1), (2, 2), (3, 1)) for lb in (1, 2)
] + [
    pytest.param(plain_config(1, 2, capacity=1, loop_bound=3), id="1+2-cap1"),
    pytest.param(plain_config(2, 2, capacity=2, loop_bound=3), id="2+2-cap2"),
    pytest.param(plain_config(2, 2, mutant=MUTANT_NO_SWAP_CLEAR, capacity=3, loop_bound=3),
                 id="no-swap-clear-2+2"),
    pytest.param(plain_config(2, 1, mutant=MUTANT_DIRTY_SPIN, capacity=2, loop_bound=3),
                 id="dirty-spin-2+1"),
    pytest.param(plain_config(2, 2, mutant=MUTANT_NONATOMIC_ENQ, capacity=2, loop_bound=3),
                 id="nonatomic-enq-2+2-lb3"),
    pytest.param(plain_config(3, 3, capacity=3, loop_bound=1), id="3+3-lb1"),
    pytest.param(plain_config(2, 3, mutant=MUTANT_NO_SWAP_CLEAR, capacity=2, loop_bound=2),
                 id="no-swap-clear-2+3"),
] + [
    pytest.param(Config((EnqOp(1), EnqOp(1), DeqOp(), DeqOp()), capacity=cap, loop_bound=cap),
                 id=f"two-groups-cap{cap}")
    for cap in (2, 3)
]


def has_idle_thread(kernel, state) -> bool:
    # program counter 0 is idle
    return any(kernel_frame(kernel, state, t) & 0x7 == 0 for t in range(kernel.n))


def count_successors(monkeypatch, kernel) -> list:
    """The (state, gate groups) of every successors call on kernel."""
    calls = []
    real = kernel.successors

    def counting(state, gate_groups=()):
        calls.append((state, gate_groups))
        return real(state, gate_groups)

    monkeypatch.setattr(kernel, "successors", counting)
    return calls


# ids name the reference walk's mode; its exact mode has no product twin
@pytest.mark.parametrize(
    "config", [pytest.param(*p.values, id=f"quotient-{p.id}") for p in COLLECT_CONFIGS])
def test_collect_matches_the_reference_walk(monkeypatch, config):
    # the same histories as the node-by-node walk; the level walk expands
    # each (depth, state) pair of it whose state has an idle thread once,
    # gated, and the tail walk each state it memoizes once, ungated: a
    # canonical state with no thread at RET (program counter 5)
    kernel = _Kernel(config)
    pairs: set = set()
    want, _ = reference_collect_histories(kernel, quotient=True, expanded=pairs)
    calls = count_successors(monkeypatch, kernel)
    got, _ = collect_histories(kernel)
    assert got == want
    level = Counter(state for state, groups in calls if has_idle_thread(kernel, state))
    assert level == Counter(state for _, state in pairs if has_idle_thread(kernel, state))
    assert all(groups == kernel.emit_groups() for state, groups in calls
               if has_idle_thread(kernel, state))
    tail = [(state, groups) for state, groups in calls if not has_idle_thread(kernel, state)]
    assert len({state for state, _ in tail}) == len(tail)
    assert all(groups == () for _, groups in tail)
    assert all(kernel.canon(state) == state for state, _ in tail)
    assert not any(kernel_frame(kernel, state, t) & 0x7 == 5
                   for state, _ in tail for t in range(kernel.n))


@pytest.mark.parametrize("cell, expanded, nodes, level, calls, got_nodes", [
    pytest.param((2, 2), 4_033, 7_127, 514, 1_075, 2_206, id="grid-2+2"),
    pytest.param((3, 1), 1_104, 2_589, 240, 473, 1_047, id="grid-3+1"),
    pytest.param((1, 3), 3_399, 4_969, 401, 599, 1_397, id="grid-1+3"),
])
def test_collect_expands_level_states_once_per_level_and_tail_states_once(
        monkeypatch, cell, expanded, nodes, level, calls, got_nodes):
    # the node-by-node walk expands a state once per prefix that reaches
    # it; collection's level walk, once per BFS depth at which some
    # prefix does, while the state has an idle thread, and its tail walk
    # once per state it memoizes.  A level walk without the tail rule
    # makes one call per (depth, state) pair: 4,033 at 2+2
    kernel = _Kernel(grid_config(*cell))
    pairs: set = set()
    _, ref_nodes = reference_collect_histories(kernel, quotient=True, expanded=pairs)
    assert (len(pairs), ref_nodes) == (expanded, nodes)
    assert sum(has_idle_thread(kernel, state) for _, state in pairs) == level
    got = count_successors(monkeypatch, kernel)
    assert collect_histories(kernel)[1] == got_nodes
    assert len(got) == calls


def test_collect_without_symmetry_leaves_states_as_they_are(monkeypatch):
    # grid 3+1 has distinct enqueue values and one dequeuer, so no state
    # has a twin: collection canonicalises nothing
    kernel = _Kernel(grid_config(3, 1))
    assert not kernel.sym_groups

    def refuse(*args):
        raise AssertionError("canonicalised a state with no twin")

    monkeypatch.setattr(kernel, "canon_map", refuse)
    monkeypatch.setattr(kernel, "canon_step", refuse)
    complete, nodes = collect_histories(kernel)
    assert (len(complete), nodes) == (72, 1_047)


@pytest.mark.parametrize("config", CROSS_CONFIGS)
def test_exact_histories_match_reference(config):
    _, mine = exact_histories(config)
    ref = {
        induce_history(t).serialize()
        for t in enumerate_traces(config, dedup=True)
        if t.status == "COMPLETE"
    }
    assert mine == ref


# a mutant with a repeated enqueue value, where no schedule emits some
# representatives' run order and the report names the emitted history
REPEATED_VALUE_MUTANT = Config((EnqOp(1), EnqOp(1), EnqOp(2), DeqOp()), capacity=3,
                               loop_bound=2, mutant=MUTANT_SKIP_SLOT_ZERO)


@pytest.mark.parametrize("config", CROSS_CONFIGS + [
    pytest.param(REPEATED_VALUE_MUTANT, id="repeated-value-skip-slot-zero"),
])
def test_exact_violations_match_reference(config):
    # the report checks representatives; the interpreter's every history
    report = sweep_config(config)
    ref = check_configuration(config)
    assert isomorphic_sets([v.history for v in report.violations],
                           [v.history for v in ref.violations])

    def kinds(violations):
        return {v.verdict.violation.kind for v in violations}

    assert kinds(report.violations) == kinds(ref.violations)


@pytest.mark.parametrize("config", CROSS_CONFIGS)
def test_purity_scan_agrees_with_reference(config):
    r = sweep_config(config, check_purity=True)
    ref = purity_sweep(config)
    assert (not r.impure) == ref.clean
    assert set(r.purity_outcomes) == set(ref.outcomes)


# ---------------------------------------------------------------------------
# the stamped count walk: sweep_config counts on the stamped kernel of its
# configuration with the enqueue values erased, and reads purity off the
# states that walk visits; the real-valued count walk is the reference
# for both


ERASURE_CONFIGS = CROSS_CONFIGS + COLLECT_CONFIGS


def stamped_kernel(config) -> _Kernel:
    return _Kernel(erase_values(config), stamped=True)


@pytest.mark.parametrize("config", ERASURE_CONFIGS)
def test_erased_counts_match_the_real_count_walk(config):
    erased = _Kernel(erase_values(config))
    assert len(erased.values) == (1 if any(erased.is_enq) else 0)
    want = count_schedules(_Kernel(config))[0]
    assert count_schedules(erased)[0] == count_schedules(stamped_kernel(config))[0] == want


# ERASURE_CONFIGS holds dirty-spin-2+1 and no-swap-clear-2+2 through
# COLLECT_CONFIGS
@pytest.mark.parametrize("config", ERASURE_CONFIGS + [
    pytest.param(plain_config(3, 1, mutant=MUTANT_NONATOMIC_ENQ), id="nonatomic-3+1"),
])
def test_purity_over_collected_states_matches_the_count_walk(config):
    # sweep_config's verdict counts, read off the stamped count walk,
    # against one solo run per pair over the real-valued count walk.
    # Stamping by claimed slot instead of invocation rank fails the
    # nonatomic configs (two enqueuers can claim one slot); erasing the
    # values and weighting each pair by its number of value maps fails
    # no-swap-clear (one value in a slot and in a result at once)
    kernel = _Kernel(config)
    want = Counter(reference_purity_scan(kernel, count_schedules(kernel)[1]).values())
    r = sweep_config(config, check_purity=True)
    assert r.purity_outcomes == want
    assert len(r.impure) == want["VIOLATION"]


@pytest.mark.parametrize("config", ERASURE_CONFIGS)
def test_renamed_gated_states_are_the_reachable_states(config):
    # the stamped walk's pairs, renamed through every injective map of
    # their stamps to the enqueuers, are exactly the pairs the real
    # count walk reaches, each with the verdict the real one has
    kernel = _Kernel(config)
    stamped = stamped_kernel(config)
    want = reference_purity_scan(kernel, count_schedules(kernel)[1])
    got: dict = {}
    for pair, verdict in reference_purity_scan(stamped, count_schedules(stamped)[1]).items():
        for real_pair in stamped.real_pairs(pair, kernel):
            assert got.setdefault(real_pair, verdict) == verdict
    assert got == want


@pytest.mark.parametrize("config", ERASURE_CONFIGS)
def test_collected_states_hold_every_gated_pair(config):
    # the canonical states the stamped count walk hands purity_scan hold
    # every pending-dequeue pair of the raw states of runs whose
    # identical threads invoke in thread order, and no other pair
    stamped = stamped_kernel(config)

    def pairs(states):
        return {pair for state in states for pair, _ in stamped.pending_dequeues(state)}

    assert pairs(count_schedules(stamped)[1]) == pairs(gated_reachable_states(stamped))


def test_impurity_evidence_replays():
    # one evidence entry per impure pair, in the order a breadth-first
    # walk first reaches them: each schedule parks the named thread
    # where its solo run on the readable model is impure
    config = plain_config(2, 1, mutant=MUTANT_DIRTY_SPIN)
    r = sweep_config(config, check_purity=True)
    assert len(r.impure) == r.purity_outcomes["VIOLATION"] == 27
    depths = [len(imp.schedule) for imp in r.impure]
    assert depths == sorted(depths)
    for imp in r.impure:
        trace = replay_schedule(config, imp.schedule)
        assert purely_blocking_check(config, trace.final, imp.tid) == "VIOLATION"


def test_purity_needs_no_collection_when_nothing_completes(monkeypatch):
    # no run of grid cell 1+3 completes, so its sweep collects nothing,
    # and purity is read off the count walk alone
    def collect(kernel):
        raise AssertionError("collect_histories ran")

    monkeypatch.setattr(sweep, "collect_histories", collect)
    r = sweep_config(grid_config(1, 3), check_purity=True)
    assert (r.distinct_complete, r.nodes) == (0, 0)
    assert dict(r.purity_outcomes) == {"PURE": 3, "TERMINATES": 3}


@pytest.mark.parametrize("config", CANON_CONFIGS + [
    pytest.param(plain_config(2, 1, mutant=MUTANT_NONATOMIC_ENQ), id="nonatomic-enq"),
    pytest.param(plain_config(2, 1, mutant=MUTANT_DIRTY_SPIN), id="dirty-spin"),
])
def test_no_slot_at_or_above_back_holds_a_value(config):
    # an enqueue writes only the slot it claimed below back, which is
    # why real_pairs reads no slot of a stamped state at or above back.
    # nonatomic_enq claims the slot at back before it moves back past
    # it, and writes it after
    kernels = [_Kernel(config)]
    if not kernels[0].ranked:
        kernels.append(stamped_kernel(config))
    for kernel in kernels:
        for state in reachable_states(kernel)[0]:
            back = state & kernel.back_mask
            assert all((state >> (kernel.items_sh + kernel.item_w * i)) & kernel.item_mask == 0
                       for i in range(back, kernel.cap)), state


def test_purity_sweep_lines_do_not_grow_with_capacity():
    # a 2+1 run claims no slot past the second, so its purity sweep runs
    # the same lines of sweep.py at capacity 4 as at capacity 10,000
    def run(capacity):
        config = plain_config(2, 1, capacity=capacity)
        return traced_lines(sweep.__file__, lambda: sweep_config(config, check_purity=True))

    (small, small_lines), (large, large_lines) = run(4), run(10_000)
    assert small_lines == large_lines
    assert small.purity_outcomes == large.purity_outcomes


def test_purity_looks_up_each_dequeuer_view_once(monkeypatch):
    # a pending-dequeue lookup reads the shared fields and the dequeuer
    # frames, so purity_scan looks up once per such view of the count
    # walk's states, not once per state
    config = grid_config(2, 2)
    stamped = stamped_kernel(config)
    states = count_schedules(stamped)[1]
    deqs = [t for t in range(stamped.n) if not stamped.is_enq[t]]
    views = {(s & stamped.shared_mask, *(kernel_frame(stamped, s, t) for t in deqs))
             for s in states}
    calls = []
    real = _Kernel.pending_dequeues

    def counting(kernel, state):
        calls.append(kernel.stamped)
        return real(kernel, state)

    monkeypatch.setattr(_Kernel, "pending_dequeues", counting)
    r = sweep_config(config, check_purity=True)
    assert dict(r.purity_outcomes) == {"PURE": 7, "TERMINATES": 36}
    assert (len(calls), len(views), len(states)) == (len(views), 875, 1762)
    assert all(calls)


def test_count_fields_hold_every_frozen_count():
    # count_schedules packs one count per endpoint status into count_w
    # bits, a width read off the configuration: every grid count frozen
    # by the acceptance suite fits, 3+3's 95-bit bound-hit count too,
    # and the dequeuers' scan rounds are bounded by the enqueuers, so the
    # width does not grow with the capacity
    from test_acceptance import GRID_EXPECT

    for (ne, nd), (n_complete, n_bound, _) in GRID_EXPECT.items():
        width = stamped_kernel(grid_config(ne, nd)).count_w
        assert width >= max(n_complete, n_bound).bit_length(), (ne, nd)
    assert GRID_EXPECT[(3, 3)][1].bit_length() == 95
    assert (_Kernel(plain_config(2, 1, capacity=4)).count_w
            == _Kernel(plain_config(2, 1, capacity=10_000)).count_w)


def test_count_walk_lines_stay_in_budget():
    # the count walk's own lines at grid 2+2, with every successor list
    # and canonical step looked up instead of computed: summing one
    # packed int per state, not a tuple of four, keeps it under budget
    kernel = stamped_kernel(grid_config(2, 2))
    want, states = count_schedules(kernel)
    succs = {s: kernel.successors(s) for s in states}
    canon = {(ns, tid): kernel.canon_step(ns, tid)
             for s in states for tid, _, _, ns in succs[s]}
    kernel.successors = succs.__getitem__
    kernel.canon_step = lambda ns, tid: canon[ns, tid]
    (got, _), _ = traced_lines(sweep.__file__, lambda: count_schedules(kernel), 42_000)
    assert got == want


def test_successors_lines_stay_in_budget():
    # successors over the stamped 2+2 kernel's states: a thread that
    # cannot move costs no base, and the invocation stamp is read once
    # per call, which keeps it under budget
    kernel = stamped_kernel(grid_config(2, 2))
    states = count_schedules(kernel)[1]
    traced_lines(sweep.__file__, lambda: [kernel.successors(s) for s in states], 120_000)


@pytest.mark.parametrize("config", [
    pytest.param(plain_config(2, 1), id="2enq-1deq"),
    pytest.param(plain_config(3, 1, mutant=MUTANT_NONATOMIC_ENQ), id="nonatomic-3+1"),
    pytest.param(Config((EnqOp(1), EnqOp(1), EnqOp(2), DeqOp()), capacity=3, loop_bound=2),
                 id="repeated-value"),
])
def test_sweep_config_counts_once_on_the_erased_kernel(monkeypatch, config):
    # counts once, on the stamped kernel of the value-erased configuration
    real = sweep.count_schedules
    kernels = []

    def counting(kernel):
        kernels.append(kernel)
        return real(kernel)

    monkeypatch.setattr(sweep, "count_schedules", counting)
    r = sweep_config(config, check_purity=True)
    assert len(kernels) == 1
    (kernel,) = kernels
    assert kernel.stamped and len(kernel.values) == 1
    assert kernel.item_mask >= sum(kernel.is_enq)
    assert kernel.sym_groups[0] == tuple(t for t in range(kernel.n) if kernel.is_enq[t])
    assert r.trace_counts == count_schedules(_Kernel(config))[0]


# ---------------------------------------------------------------------------
# isomorphism quotient


@pytest.mark.parametrize("config", CROSS_CONFIGS)
def test_quotient_is_canonical_image_of_exact(config):
    kernel = _Kernel(config)
    exact, _ = reference_collect_histories(kernel, quotient=False)
    quot, _ = collect_histories(kernel)
    assert {canonicalize_tokens(kernel, t) for t in exact} == quot


@pytest.mark.parametrize("config", CROSS_CONFIGS)
def test_quotient_matches_semantic_classes(config):
    kernel = _Kernel(config)
    exact, _ = reference_collect_histories(kernel, quotient=False)
    quot, _ = collect_histories(kernel)
    exact_hs = [kernel.tokens_to_history(t) for t in exact]
    quot_hs = [kernel.tokens_to_history(t) for t in quot]
    if len(kernel.values) == sum(kernel.is_enq):
        # the independent normal form: the exact set has the quotient's
        # forms, and the representatives have pairwise distinct ones
        forms = {canonical_form(h) for h in quot_hs}
        assert {canonical_form(h) for h in exact_hs} == forms
        assert len(forms) == len(quot)
        return
    # canonical_form refuses repeated values, so group by isomorphism:
    # the representatives cover every class of the exact set, and no
    # other; repeated-value is the one such config here
    classes: list = []
    for h in quot_hs:
        if not any(isomorphic(h, c) for c in classes):
            classes.append(h)
    hit = {next((i for i, c in enumerate(classes) if isomorphic(h, c)), None)
           for h in exact_hs}
    assert (len(exact), len(quot), len(classes)) == (42, 10, 9)
    assert hit == set(range(len(classes)))


def test_canonical_form_refuses_repeated_values():
    kernel = _Kernel(Config((EnqOp(5), EnqOp(5), DeqOp()), capacity=2, loop_bound=3))
    tokens, _ = collect_histories(kernel)
    with pytest.raises(ValueError):
        canonical_form(kernel.tokens_to_history(min(tokens)))


def test_quotient_sizes_at_small_scale():
    sizes = {}
    for config, key in [
        (plain_config(1, 1), "1+1"),
        (plain_config(2, 1), "2+1"),
        (plain_config(2, 2, loop_bound=2), "2+2"),
        (plain_config(1, 2, mutant=MUTANT_NO_SWAP_CLEAR), "noswap"),
        (plain_config(2, 1, mutant=MUTANT_SKIP_SLOT_ZERO), "skip0"),
        (plain_config(2, 1, mutant=MUTANT_NONATOMIC_ENQ), "nonatomic"),
    ]:
        kernel = _Kernel(config)
        exact, exact_nodes = reference_collect_histories(kernel, quotient=False)
        quot, quot_nodes = collect_histories(kernel)
        sizes[key] = (len(exact), exact_nodes, len(quot), quot_nodes)
    assert sizes == {
        "1+1": (5, 53, 2, 25),
        "2+1": (124, 1230, 12, 145),
        "2+2": (1704, 23457, 67, 960),
        "noswap": (33, 634, 6, 134),
        "skip0": (66, 774, 7, 85),
        "nonatomic": (132, 3176, 14, 312),
    }


def test_canonicalize_tokens_is_idempotent():
    kernel = _Kernel(plain_config(2, 1))
    exact, _ = reference_collect_histories(kernel, quotient=False)
    for t in exact:
        c = canonicalize_tokens(kernel, t)
        assert canonicalize_tokens(kernel, c) == c


# ---------------------------------------------------------------------------
# reports


def test_report_small_clean():
    r = sweep_config(plain_config(1, 1), oracle=True, check_purity=True)
    assert r.clean
    assert dict(r.trace_counts) == {"COMPLETE": 42, "BOUND_HIT": 4}
    assert r.total_traces == 46
    assert r.canonical_states == 29
    assert r.nodes == 25
    assert r.distinct_complete == 2
    assert (r.oracle_checked, r.oracle_disagreements) == (2, 0)
    assert dict(r.purity_outcomes) == {"PURE": 3, "TERMINATES": 3}
    assert r.purity_violations == 0
    assert r.summary() == (
        "SWEEP clean traces=46 complete-histories=2 "
        "history-mode=quotient "
        "complete-traces=42 bound-hit-traces=4 "
        "oracle-checked=2 oracle-disagreements=0 purity-violations=0"
    )


def test_report_exact_mode():
    # the exact collection lives in the test reference only
    with pytest.raises(ValueError, match="reference_collect_histories"):
        sweep_config(plain_config(1, 1), quotient=False)


def test_impure_dequeues_make_the_report_unclean():
    r = sweep_config(plain_config(1, 1, mutant=MUTANT_DIRTY_SPIN), check_purity=True)
    assert not r.violations
    assert not r.clean
    assert dict(r.purity_outcomes) == {"PURE": 1, "TERMINATES": 10, "VIOLATION": 7}
    assert r.purity_violations == 7
    assert r.summary() == (
        "SWEEP violations=0 traces=46 complete-histories=2 "
        "history-mode=quotient "
        "complete-traces=42 bound-hit-traces=4 purity-violations=7"
    )


def test_starved_dequeues_never_complete():
    r = sweep_config(plain_config(1, 2))
    assert r.distinct_complete == 0
    assert dict(r.trace_counts) == {"BOUND_HIT": 87870}
    config = plain_config(2, 3, loop_bound=2)
    big = sweep_config(config)
    assert big.distinct_complete == 0
    assert dict(big.trace_counts) == {"BOUND_HIT": 1131613866168}
    # the stamped count walk's states; 5,614 with the real values
    assert big.canonical_states == stamped_canonical_states(config) == 2503


def test_deep_state_graph_leaves_the_recursion_limit_alone():
    # a 600-iteration loop bound makes paths far deeper than the default
    # recursion limit of 1000, so every walk here must be iterative
    limit = sys.getrecursionlimit()
    r = sweep_config(plain_config(1, 1, capacity=1, loop_bound=600),
                     oracle=True, check_purity=True)
    assert sys.getrecursionlimit() == limit
    assert dict(r.trace_counts) == {"COMPLETE": 1262100, "BOUND_HIT": 601}
    assert r.canonical_states == 4208
    assert r.distinct_complete == 2
    assert dict(r.purity_outcomes) == {"PURE": 3, "TERMINATES": 3}
    assert r.clean


def test_mutant_violation_schedules_replay():
    config = plain_config(1, 2, mutant=MUTANT_NO_SWAP_CLEAR)
    ref = check_configuration(config, oracle=True)
    assert len(ref.violations) == ref.distinct_complete == 33
    assert {v.verdict.violation.kind for v in ref.violations} == {"vrepet"}
    assert (ref.oracle_checked, ref.oracle_disagreements) == (33, 0)
    assert dict(ref.trace_counts) == {"COMPLETE": 93400, "BOUND_HIT": 11540}
    r = sweep_config(config, oracle=True)
    assert r.trace_counts == ref.trace_counts
    assert r.oracle_disagreements == 0
    assert isomorphic_sets([v.history for v in r.violations],
                           [v.history for v in ref.violations])
    for v in r.violations:
        again = replay_schedule(config, v.schedule)
        assert again.status == "COMPLETE"
        assert induce_history(again).serialize() == v.history.serialize()


def test_skip_slot_zero_quotient_report():
    config = plain_config(2, 1, mutant=MUTANT_SKIP_SLOT_ZERO)
    r = sweep_config(config, oracle=True)
    assert r.distinct_complete == 7
    assert len(r.violations) == 3
    assert {v.verdict.violation.kind for v in r.violations} == {"vord"}
    assert (r.oracle_checked, r.oracle_disagreements) == (7, 0)
    for v in r.violations:
        again = replay_schedule(config, v.schedule)
        assert induce_history(again).serialize() == v.history.serialize()


def test_nonatomic_clean_at_two_enqueuers():
    config = plain_config(2, 1, mutant=MUTANT_NONATOMIC_ENQ)
    r = sweep_config(config)
    assert r.clean
    assert r.distinct_complete == 14
    assert dict(r.trace_counts) == {"COMPLETE": 84780, "BOUND_HIT": 5140}
    # the stamped count walk's states; 633 with the real values
    assert r.canonical_states == stamped_canonical_states(config) == 401


def test_purity_outcome_counts():
    expect = {
        "1+1": {"PURE": 3, "TERMINATES": 3},
        "2+1": {"PURE": 7, "TERMINATES": 36},
        "skip0": {"PURE": 10, "TERMINATES": 12},
    }
    got = {}
    for key, config in [
        ("1+1", plain_config(1, 1)),
        ("2+1", plain_config(2, 1)),
        ("skip0", plain_config(2, 1, mutant=MUTANT_SKIP_SLOT_ZERO)),
    ]:
        r = sweep_config(config, check_purity=True)
        assert not r.impure
        got[key] = dict(r.purity_outcomes)
    assert got == expect


# ---------------------------------------------------------------------------
# schedule search


def test_find_schedule_replays_every_exact_history():
    for config in (plain_config(2, 1), plain_config(1, 2, mutant=MUTANT_NO_SWAP_CLEAR)):
        kernel = _Kernel(config)
        tokens, _ = reference_collect_histories(kernel, quotient=False)
        for t in sorted(tokens):
            labels, emitted = kernel.find_schedule(t)
            assert emitted == t
            again = replay_schedule(config, labels)
            assert again.status == "COMPLETE"
            assert induce_history(again).serialize() == kernel.tokens_to_history(t).serialize()


def test_find_schedule_run_multiset_fallback():
    # swapping the two enqueue invocations of this emission produces a
    # sequence no schedule emits verbatim: with both slots filled the
    # dequeue must take slot 0, so invoking enq(2) first forces deq->2
    config = plain_config(2, 1)
    kernel = _Kernel(config)
    tokens, _ = reference_collect_histories(kernel, quotient=False)
    wanted = "inv 0 enq 1\ninv 1 enq 2\nres 0 enq\nres 1 enq\ninv 2 deq\nres 2 deq 1"
    orig = next(t for t in tokens if kernel.tokens_to_history(t).serialize() == wanted)
    variant = (orig[1], orig[0]) + orig[2:]
    assert variant not in tokens
    assert kernel._find_schedule([(t,) for t in variant]) is None
    labels, emitted = kernel.find_schedule(variant)
    assert emitted == orig
    assert labels == (
        "0:E1", "0:E2", "1:E1", "0:ret", "1:E2", "1:ret", "2:D1", "2:D2", "2:ret",
    )
    again = replay_schedule(config, labels)
    assert again.status == "COMPLETE"
    # the matcher settles on the realizable member of the variant's run
    # class, which is the emission we started from
    assert induce_history(again).serialize() == wanted
    assert isomorphic(induce_history(again), kernel.tokens_to_history(variant))


def test_repeated_value_violations_replay_to_their_history():
    # with two enqueuers of 1 the sorted runs of a representative can be
    # an order no schedule emits; the reported history is then the one
    # the schedule emits, so the printed schedule replays to it
    config = REPEATED_VALUE_MUTANT
    r = sweep_config(config)
    assert (r.distinct_complete, len(r.violations)) == (133, 31)
    for v in r.violations:
        again = replay_schedule(config, v.schedule)
        assert again.status == "COMPLETE"
        assert induce_history(again).serialize() == v.history.serialize()


def test_first_schedule_tokens_match_replay_on_choice_threads():
    # the divergence harnesses read counterexample histories off the
    # tokens of first_schedule's walk; on a choice thread the enqueued
    # value comes from the menu entry, so check those against replay
    config = vord_config(k=1)
    kernel = _Kernel(config)
    states, _ = reachable_states(kernel)
    assert len(states) == 3817
    choice = [t for t in range(kernel.n) if kernel.progs[t] is None]
    choice_enqs = {(_T_EINV, t) for t in choice}
    invoked = [s for s in sorted(states)
               if any(kernel_frame(kernel, s, t) & 0x7 for t in choice)][:40]
    assert len(invoked) == 40
    enqueued_by_choice = 0
    for state in invoked:
        schedule, tokens, raw = first_schedule(kernel, lambda s: kernel.canon(s) == state)
        assert kernel.canon(raw) == state
        history = kernel.tokens_to_history(tokens)
        assert history.serialize() == induce_history(replay_schedule(config, schedule)).serialize()
        enqueued_by_choice += any(t[:2] in choice_enqs for t in tokens)
    assert enqueued_by_choice


def test_find_schedule_rejects_unrealizable_tokens():
    kernel = _Kernel(plain_config(1, 1))
    tokens, _ = reference_collect_histories(kernel, quotient=False)
    some = next(iter(tokens))
    # doubling the whole emission is never realizable
    with pytest.raises(RuntimeError):
        kernel.find_schedule(some + some)
