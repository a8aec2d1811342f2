"""The aspect detectors, witness machinery, and the brute-force oracle.

Small-scale exhaustive agreement lives here (operation counts up to 2+2,
and up to 5 events for the match checks against their references); the
acceptance suite runs the same comparison over the full battery up to 3
enqueues and 3 dequeues.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qlin import checker
from qlin.cli import generate_history
from qlin.checker import (
    INDETERMINATE,
    LINEARIZABLE,
    VIOLATION,
    EnqOrderCycle,
    OracleBoundExceeded,
    VFresh,
    VOrd,
    VRepet,
    VWit,
    _match_violations,
    _total_enq_order,
    _undominated_completions,
    brute_force_linearizable,
    candidate_matches,
    check_linearizable,
    construct_linearization,
    derive_match,
    detect_all,
    detect_vfresh,
    detect_vord,
    detect_vrepet,
    detect_vwit,
)
from qlin.history import (
    NULL,
    Action,
    History,
    deq_inv,
    deq_res,
    enq_inv,
    enq_res,
    parse_history,
)
from qlin.queuespec import SearchBoundExceeded, is_legal

from lemmas import (
    alt_witness_check,
    before_set,
    compute_bad,
    detect_pwit_covering,
    enq_order,
    fifo_shortfall,
    interchangeable_blocks,
    is_linearization_of,
    uids,
    verify_covering,
)
from support import (
    atomic_queue_history,
    brute_alt_witness,
    brute_covering_exists,
    brute_respects_order,
    canonical_histories,
    check_safe,
    isomorphic,
    overlapping_history,
    pinned_history,
    pwit_prime,
    reference_check_linearizable,
    reference_check_ordered,
    reference_compute_bad,
    reference_construct_linearization,
    reference_detect_first,
    reference_detect_vord,
    reference_detect_vwit,
    reference_total_enq_order,
)


def h(text):
    return parse_history(text)


# ---- detector fixtures, one hand-built trigger per aspect ----


def test_vfresh_value_never_enqueued():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 2")
    assert detect_vfresh(c) == VFresh(d=1)
    assert check_linearizable(c).summary() == "VIOLATION vfresh d=1"


def test_vfresh_value_enqueued_only_later():
    c = h("inv 0 deq\nres 0 deq 5\ninv 1 enq 5\nres 1 enq")
    assert detect_vfresh(c) == VFresh(d=0)


def test_vfresh_absent_when_enqueue_overlaps():
    c = h("inv 0 deq\ninv 1 enq 5\nres 0 deq 5\nres 1 enq")
    assert detect_vfresh(c) is None


def test_vrepet_same_value_twice():
    c = h(
        "inv 0 enq 1\nres 0 enq\n"
        "inv 1 deq\nres 1 deq 1\n"
        "inv 2 deq\nres 2 deq 1"
    )
    assert detect_vrepet(c) == VRepet(d=1, d2=2)
    assert detect_vfresh(c) is None


def test_vrepet_ignores_null_pairs():
    c = h("inv 0 deq\nres 0 deq null\ninv 1 deq\nres 1 deq null")
    assert detect_vrepet(c) is None


def test_vord_second_enqueue_dequeued_first_value_never():
    c = h(
        "inv 0 enq 1\nres 0 enq\n"
        "inv 1 enq 2\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 2"
    )
    assert detect_vord(c) == VOrd(e1=0, e2=1, d2=2)


def test_vord_dequeues_inverted():
    c = h(
        "inv 0 enq 1\nres 0 enq\n"
        "inv 1 enq 2\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 2\n"
        "inv 3 deq\nres 3 deq 1"
    )
    assert detect_vord(c) == VOrd(e1=0, e2=1, d2=2, d1=3)


def test_vord_absent_when_enqueues_overlap():
    c = h(
        "inv 0 enq 1\ninv 1 enq 2\nres 0 enq\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 2"
    )
    assert detect_vord(c) is None


def test_vwit_null_during_nonempty():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq null")
    assert detect_vwit(c) == VWit(d=1, alive=(0,))


def test_vwit_absent_when_enqueue_overlaps_window():
    c = h("inv 1 deq\ninv 0 enq 1\nres 0 enq\nres 1 deq null")
    assert detect_vwit(c) is None


def test_violation_priority_and_detect_all():
    # the fresh value leaves no candidate match, so only VFresh and
    # VRepet are listed; the NULL dequeue's VWit is read through a match
    c = h(
        "inv 0 enq 1\nres 0 enq\n"
        "inv 1 deq\nres 1 deq 2\n"
        "inv 2 deq\nres 2 deq null"
    )
    kinds = [v.kind for v in detect_all(c)]
    assert kinds == ["vfresh"]
    assert check_linearizable(c).violation.kind == "vfresh"
    # the one match breaks VOrd and VWit; the verdict reports the first
    c = h(
        "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 2\ninv 3 deq\nres 3 deq null"
    )
    assert detect_all(c) == [VOrd(e1=0, e2=1, d2=2), VWit(d=3, alive=(0,))]
    assert check_linearizable(c).violation == detect_all(c)[0]


def test_detectors_none_on_linearizable():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1")
    assert detect_all(c) == []
    assert check_linearizable(c).status == LINEARIZABLE


# ---- matches ----


def test_derive_match():
    c = h(
        "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1\n"
        "inv 2 deq\nres 2 deq null"
    )
    assert derive_match(c) == {1: 0, 2: None}


def test_derive_match_none_for_fresh_value():
    c = h("inv 0 deq\nres 0 deq 9")
    assert derive_match(c) is None


def test_derive_match_requires_differentiated():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 enq 1\nres 1 enq")
    with pytest.raises(ValueError, match="duplicate"):
        derive_match(c)


def test_candidate_matches_duplicates():
    c = h(
        "inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 5"
    )
    got = list(candidate_matches(c.events))
    assert got == [{2: 0}, {2: 1}]
    with pytest.raises(SearchBoundExceeded):
        list(candidate_matches(c.events, bound=1))


def test_check_safe_clauses():
    c = h(
        "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1\n"
        "inv 2 deq\nres 2 deq null"
    )
    assert check_safe(c, {1: 0, 2: None}) is None
    c2 = h("inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq\ninv 2 deq\nres 2 deq 1")
    assert check_safe(c2, {2: 1}) == "value-agreement"
    assert check_safe(c, {1: None, 2: None}) == "null-iff-bottom"
    c3 = h(
        "inv 0 enq 5\nres 0 enq\ninv 1 deq\nres 1 deq 5\ninv 2 deq\nres 2 deq 5"
    )
    assert check_safe(c3, {1: 0, 2: 0}) == "injective"


def test_match_violation_clauses():
    # no-future-take is VFresh and fifo is VOrd, read through the match
    c = h("inv 0 deq\nres 0 deq 1\ninv 1 enq 1\nres 1 enq")
    assert next(_match_violations(c, {0: 1}), None) == VFresh(d=0)
    c2 = h(
        "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 2"
    )
    assert next(_match_violations(c2, {2: 1}), None) == VOrd(e1=0, e2=1, d2=2)
    # both dequeues precede the enqueue they take from; the evidence is
    # the first one invoked, whatever order the match lists them in
    c3 = h(
        "inv 2 deq\nres 2 deq 1\ninv 3 deq\nres 3 deq 2\n"
        "inv 0 enq 1\nres 0 enq\ninv 1 enq 2\nres 1 enq"
    )
    assert next(_match_violations(c3, {3: 1, 2: 0}), None) == VFresh(d=2)
    assert check_linearizable(c3).violation == VFresh(d=2)


# ---- NULL-dequeue machinery: bad sets, both witness formulations ----


def test_compute_bad_undrainable_enqueues():
    # enq(1) finished before the null deq started, never dequeued: bad
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq null")
    assert compute_bad(c, {1: None}, 1) == {0}
    assert next(_match_violations(c, {1: None}), None) == VWit(d=1, alive=(0,))


def test_compute_bad_empty_when_drainable():
    c = h(
        "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1\n"
        "inv 2 deq\nres 2 deq null"
    )
    assert compute_bad(c, {1: 0, 2: None}, 2) == frozenset()
    assert next(_match_violations(c, {1: 0, 2: None}), None) is None


def test_bad_set_propagates_through_chaining():
    # enq(2) starts after the window yet drags enq(1) in: e1's dequeue
    # happens entirely after e2 finished, so draining e1 needs e2 drained
    c = h(
        "inv 3 deq\n"
        "inv 0 enq 1\nres 0 enq\n"
        "res 3 deq null\n"
        "inv 1 enq 2\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 1"
    )
    match = {3: None, 2: 0}
    # enq 1 (value 2) is never dequeued: level 0.  enq 0's dequeue comes
    # after enq 1 completes, so enq 0 joins at level 1.
    assert compute_bad(c, match, 3) == {0, 1}


PWIT_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def iter_matched_instances(sizes=PWIT_SIZES):
    for ne, nd in sizes:
        for c in canonical_histories(ne, nd):
            match = derive_match(c)
            if match is None:
                continue
            if check_safe(c, match) or reference_check_ordered(c, match):
                continue
            yield c, match


def test_witness_formulations_agree_exhaustively():
    """The per-dequeue direct check (no bad enqueue before) and the
    constructive set-pair reformulation decide alike on every safe,
    ordered match up to 2+2."""
    seen_null = 0
    for c, match in iter_matched_instances():
        for d, target in match.items():
            if target is not None:
                continue
            seen_null += 1
            direct = not (compute_bad(c, match, d) & before_set(c, d))
            assert alt_witness_check(c, match, d) == direct, c.serialize()
    assert seen_null > 300


def test_covering_characterizes_vwit_exhaustively():
    """For every NULL dequeue: a covering chain exists exactly when the
    pending window is never observably empty, matching the brute-force
    chain search and the complement of the empty-prefix formulation."""
    windows = 0
    for ne, nd in PWIT_SIZES:
        for c in canonical_histories(ne, nd):
            for d in c.events:
                if not d.is_deq or d.value is not NULL:
                    continue
                windows += 1
                chain = detect_pwit_covering(c, d.uid)
                assert (chain is not None) == brute_covering_exists(c, d.uid)
                assert (chain is not None) == (not pwit_prime(c, d.uid))
                if chain is not None:
                    assert verify_covering(c, d.uid, chain)
    assert windows > 500


def test_vwit_agrees_with_covering_per_history():
    for ne, nd in PWIT_SIZES:
        for c in canonical_histories(ne, nd):
            first = check_linearizable(c, build_witness=False).violation
            if first is not None and first.kind != "vwit":
                continue
            v = detect_vwit(c)
            covered = any(
                detect_pwit_covering(c, d.uid) is not None
                for d in c.events
                if d.is_deq and d.value is NULL
            )
            assert (v is not None) == covered, c.serialize()


def test_covering_argument_validation():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1")
    with pytest.raises(ValueError, match="NULL"):
        detect_pwit_covering(c, 1)
    assert not verify_covering(c, 1, ())


def test_covering_multi_link_chain():
    # no single enqueue spans the window; the chain must hand over
    c = h(
        "inv 0 enq 1\nres 0 enq\n"      # e0 alive from here
        "inv 9 deq\n"                    # window opens
        "inv 1 enq 2\nres 1 enq\n"      # e1 becomes alive
        "inv 2 deq\nres 2 deq 1\n"      # e0 dies, e1 still alive
        "res 9 deq null"
    )
    chain = detect_pwit_covering(c, 9)
    assert chain == (0, 1)
    assert verify_covering(c, 9, chain)
    assert brute_covering_exists(c, 9)


# ---- enqueue ordering and witness construction ----


def test_enq_order_contains_precedence_and_deq_order():
    c = h(
        "inv 0 enq 1\nres 0 enq\n"
        "inv 1 enq 2\ninv 2 enq 3\nres 1 enq\nres 2 enq\n"
        "inv 3 deq\nres 3 deq 2\ninv 4 deq\nres 4 deq 3"
    )
    match = derive_match(c)
    order = enq_order(c, match)
    assert (0, 1) in order and (0, 2) in order  # real-time
    assert (1, 2) in order                      # dequeue order
    assert not any((b, a) in order for a, b in order)


def test_enq_order_consumed_before_unconsumed():
    c = h(
        "inv 0 enq 1\ninv 1 enq 2\nres 0 enq\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 2"
    )
    # e1 consumed, e0 not: e1 must come first among the overlapping pair
    assert (1, 0) in enq_order(c, {2: 1})


def cyclic_order_history():
    # e0 precedes e1 in real time; e2 overlaps both; the dequeue order
    # 2, 3, 1 forces e1 < e2 < e0, closing a cycle
    return h(
        "inv 2 enq 3\n"
        "inv 0 enq 1\nres 0 enq\n"
        "inv 1 enq 2\nres 1 enq\n"
        "res 2 enq\n"
        "inv 3 deq\nres 3 deq 2\n"
        "inv 4 deq\nres 4 deq 3\n"
        "inv 5 deq\nres 5 deq 1"
    )


def test_enq_order_cycle_detected():
    with pytest.raises(EnqOrderCycle):
        enq_order(cyclic_order_history(), {3: 1, 4: 2, 5: 0})


def test_total_enq_order_cycle_detected():
    with pytest.raises(EnqOrderCycle):
        _total_enq_order(cyclic_order_history(), {3: 1, 4: 2, 5: 0})


def test_construct_linearization_validates_match():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq null")
    with pytest.raises(ValueError, match="no maximal event"):
        construct_linearization(c, {1: None})
    with pytest.raises(ValueError, match="no maximal event"):
        construct_linearization(
            h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1"), {1: None}
        )


def test_construct_linearization_small_example():
    c = h(
        "inv 0 enq 1\ninv 1 deq\nres 0 enq\nres 1 deq 1\n"
        "inv 2 deq\nres 2 deq null"
    )
    w = construct_linearization(c, derive_match(c))
    assert [(e.method, e.value) for e in w] == [
        ("enq", 1), ("deq", 1), ("deq", NULL),
    ]


@pytest.mark.parametrize("text", [
    # differentiated: the detectors clear the one candidate
    "inv 0 enq 1\ninv 1 deq\nres 0 enq\nres 1 deq 1\ninv 2 deq\nres 2 deq null",
    # duplicate values: the first candidate passes the match checks
    "inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\n"
    "inv 2 deq\nres 2 deq 5\ninv 3 deq\nres 3 deq 5\ninv 4 deq\nres 4 deq null",
], ids=["differentiated", "duplicate-values"])
def test_each_aspect_is_checked_once_per_witness(monkeypatch, text):
    calls = Counter()
    for name in ("_first_vord", "_first_vwit"):
        def counting(*args, _name=name, _scan=getattr(checker, name)):
            calls[_name] += 1
            return _scan(*args)
        monkeypatch.setattr(checker, name, counting)
    v = check_linearizable(h(text))
    assert v.status == LINEARIZABLE and v.witness is not None
    assert calls == {"_first_vord": 1, "_first_vwit": 1}


# ---- the sweeps against the rescanning reference ----


def with_values_merged(c, mapping):
    """c with every value (enqueued or dequeued) renamed by mapping."""
    acts = []
    for a in c.actions:
        if a.kind == "inv" and a.method == "enq":
            a = enq_inv(a.uid, mapping.get(a.payload, a.payload))
        elif a.kind == "res" and a.method == "deq":
            a = deq_res(a.uid, mapping.get(a.payload, a.payload))
        acts.append(a)
    return History(acts)


def assert_witness_matches_reference(c, match):
    got = [e.uid for e in construct_linearization(c, match)]
    assert got == [e.uid for e in reference_construct_linearization(c, match)]


MERGINGS = ({}, {2: 1}, {2: 1, 3: 1}, {3: 2})


@pytest.mark.parametrize(
    "ne,nd", [(ne, nd) for ne in range(4) for nd in range(4) if 0 < ne + nd <= 5]
)
def test_sweeps_match_reference_on_canonical_histories(ne, nd):
    """Every canonical history up to 5 events, unmerged and under three
    value mergings: VWit evidence, and every NULL dequeue's bad set under
    every candidate match, equal their references.  Ranks are compared
    on the candidate matches that pass the safety and ordering clauses,
    the only ones _total_enq_order is given, and witnesses on those that
    also pass the NULL-dequeue condition."""
    for base in canonical_histories(ne, nd):
        for mapping in MERGINGS:
            c = with_values_merged(base, mapping)
            assert detect_vwit(c) == reference_detect_vwit(c)
            for match in candidate_matches(c.events):
                for d, t in match.items():
                    if t is None:
                        assert compute_bad(c, match, d) == reference_compute_bad(c, match, d)
                if (check_safe(c, match) is not None
                        or reference_check_ordered(c, match) is not None):
                    continue
                assert _total_enq_order(c, match) == reference_total_enq_order(c, match)
                if next(_match_violations(c, match), None) is None:
                    assert_witness_matches_reference(c, match)


def test_construct_linearization_guards_its_output():
    """Every total match of every canonical history up to 4 events,
    unmerged and with value 2 merged into 1: a witness match gives the
    reference's witness, and any other match either raises ValueError or
    gives a legal linearization of the history."""
    outcomes = Counter()
    for ne, nd in itertools.product(range(5), repeat=2):
        if not 0 < ne + nd <= 4:
            continue
        for base in canonical_histories(ne, nd):
            for mapping in ({}, {2: 1}):
                c = with_values_merged(base, mapping)
                deqs = [d.uid for d in c.events if d.is_deq]
                targets = [e.uid for e in c.events if e.is_enq] + [None]
                for choice in itertools.product(targets, repeat=len(deqs)):
                    match = dict(zip(deqs, choice))
                    try:
                        want = reference_construct_linearization(c, match)
                    except ValueError:
                        want = None
                    try:
                        got = construct_linearization(c, match)
                    except ValueError:
                        assert want is None, (c.serialize(), match)
                        outcomes["rejected"] += 1
                        continue
                    if want is not None:
                        assert got == want, (c.serialize(), match)
                        outcomes["witness"] += 1
                    else:
                        assert is_legal(got) and is_linearization_of(got, c), (c.serialize(), match)
                        outcomes["harmless"] += 1
    assert outcomes["witness"] and outcomes["rejected"] and outcomes["harmless"]


# the aspect each ordering clause of a match is, read through the match
CLAUSE_KINDS = {"no-future-take": "vfresh", "fifo": "vord"}


def test_match_checks_read_the_detectors_exhaustively():
    """The ordering clauses and the NULL-dequeue condition are VFresh,
    VOrd and VWit read through the match: on every canonical history up
    to 5 events, unmerged and under three value mergings, the detectors
    decide as their pair-scanning references, the aspect a match breaks
    is the one its first failed clause names, or VWit exactly when only
    the bad-set condition fails, and the checker agrees with the oracle
    on the merged histories."""
    histories = 0
    for ne, nd in itertools.product(range(4), repeat=2):
        if ne + nd > 5:
            continue
        for base in canonical_histories(ne, nd):
            for mapping in MERGINGS:
                c = with_values_merged(base, mapping)
                histories += 1
                assert detect_vord(c) == reference_detect_vord(c)
                assert detect_vwit(c) == reference_detect_vwit(c)
                for match in candidate_matches(c.events):
                    if check_safe(c, match) is not None:
                        continue
                    v = next(_match_violations(c, match), None)
                    clause = reference_check_ordered(c, match)
                    if clause is not None:
                        assert v.kind == CLAUSE_KINDS[clause]
                    else:
                        bad_free = all(
                            not (compute_bad(c, match, d) & before_set(c, d))
                            for d, t in match.items() if t is None
                        )
                        assert (v is None) == bad_free
                        assert v is None or v.kind == "vwit"
                if mapping:
                    verdict = check_linearizable(c, build_witness=False)
                    assert (verdict.status == LINEARIZABLE) == brute_force_linearizable(c)
    assert histories == 99_964


def generated_histories(count, seed, enq_share=0.6):
    """Atomic-queue histories of 50-600 actions, spread geometrically,
    every fourth with a long NULL window (at most 250 actions, where the
    reference VWit scan is cubic) and the others enqueueing with
    probability enq_share."""
    rng = random.Random(seed)
    for i in range(count):
        size = int(50 * 12 ** rng.random())
        if i % 4 == 0:
            yield atomic_queue_history(rng, min(size, 250), null_window=True)
        else:
            yield atomic_queue_history(rng, size, enq_share=enq_share)


def test_sweeps_match_reference_on_generated_histories():
    rng = random.Random(11)
    fired = 0
    for c in generated_histories(100, seed=7):
        assert reference_detect_first(c) is None
        match = derive_match(c)
        assert _total_enq_order(c, match) == reference_total_enq_order(c, match)
        assert_witness_matches_reference(c, match)
        assert detect_vwit(c) == reference_detect_vwit(c)
        # one dequeue's result turned into NULL, usually a VWit
        d = rng.choice([e.uid for e in c.events if e.is_deq and e.value is not NULL])
        mutated = History(
            deq_res(a.uid, NULL) if a.kind == "res" and a.uid == d else a
            for a in c.actions
        )
        v = detect_vwit(mutated)
        assert v == reference_detect_vwit(mutated)
        fired += v is not None
    assert fired >= 50


def test_sweeps_match_reference_on_null_heavy_histories():
    """Generated histories whose plain runs enqueue half the time, so the
    queue is often empty and NULL dequeues are many: ranks, witnesses,
    VWit evidence and every NULL dequeue's bad set equal their
    references."""
    nulls = 0
    for c in generated_histories(40, seed=13, enq_share=0.5):
        match = derive_match(c)
        assert _total_enq_order(c, match) == reference_total_enq_order(c, match)
        assert_witness_matches_reference(c, match)
        assert detect_vwit(c) == reference_detect_vwit(c)
        for d, t in match.items():
            if t is None:
                nulls += 1
                assert compute_bad(c, match, d) == reference_compute_bad(c, match, d)
    assert nulls >= 150


def test_vord_evidence_matches_reference_on_planted_swaps():
    """Plain generated histories with one dequeue's result exchanged with
    another dequeue's, or replaced by a value no dequeue returns: the
    suffix-minimum VOrd evidence equals the pair scan's, with e1 consumed
    (d1 given) and with e1 unconsumed."""
    rng = random.Random(5)
    fired = Counter()
    for c in generated_histories(100, seed=9):
        deqs = {e.uid: e.value for e in c.events if e.is_deq and e.value is not NULL}
        d = rng.choice(sorted(deqs))
        left = sorted(set(c.enq_values()) - set(deqs.values()))
        value = rng.choice(left + [v for u, v in deqs.items() if u != d])
        swapped = {d: value}
        swapped.update((u, deqs[d]) for u, v in deqs.items() if v == value)
        mutated = History(
            deq_res(a.uid, swapped[a.uid]) if a.kind == "res" and a.uid in swapped else a
            for a in c.actions
        )
        v = detect_vord(mutated)
        assert v == reference_detect_vord(mutated), mutated.serialize()
        if v is not None:
            fired["unconsumed e1" if v.d1 is None else "consumed e1"] += 1
    assert fired["consumed e1"] >= 10 and fired["unconsumed e1"] >= 10, fired


def test_ten_thousand_action_witnesses():
    """Scale canary, with no timer: a plain and a NULL-heavy history of
    10,000 actions each get a legal witness with one event per
    operation."""
    for enq_share in (0.6, 0.5):
        c = atomic_queue_history(random.Random(1), 10_000, enq_share=enq_share)
        v = check_linearizable(c, build_witness=True)
        assert v.status == LINEARIZABLE
        assert is_legal(v.witness)
        assert len(v.witness) == len(c.events) == 5_000


def test_witness_does_not_depend_on_uid_order():
    """The canonical 2+2 and 3+2 instances, unmerged and with value 2
    merged into 1, with their enqueue uids reversed against invocation
    order: an enqueue whose dequeue precedes another enqueue is ranked
    before it whatever their uids, so every linearizable verdict carries
    a witness, and the verdicts are those of the instances themselves."""
    witnessed = 0
    for ne, nd in ((2, 2), (3, 2)):
        for base in canonical_histories(ne, nd):
            for mapping in ({}, {2: 1}):
                c = with_values_merged(base, mapping)
                flipped = History(Action(a.kind, ne - 1 - a.uid if a.uid < ne else a.uid,
                                         a.method, a.payload) for a in c.actions)
                v = check_linearizable(flipped)
                assert v.status == check_linearizable(c).status
                if v.status == LINEARIZABLE:
                    assert is_linearization_of(v.witness, flipped), flipped.serialize()
                    witnessed += 1
    assert witnessed


def test_long_differentiated_history_gets_a_witness():
    # the checker decides every complete history through the
    # candidate-match search, here 1,100 dequeues deep
    c = History(a for i in range(1100) for a in (
        enq_inv(2 * i, i), enq_res(2 * i), deq_inv(2 * i + 1), deq_res(2 * i + 1, i)))
    v = check_linearizable(c, build_witness=True)
    assert v.status == LINEARIZABLE
    assert [e.uid for e in v.witness] == list(range(2200))


def test_witness_and_vwit_build_no_history(monkeypatch):
    c = atomic_queue_history(random.Random(5), 600, null_window=True)
    assert len(c) >= 600
    match = derive_match(c)
    built = []
    index = History._index  # every History, checked or derived, is built here

    def counting_index(self, *args):
        built.append(1)
        index(self, *args)

    monkeypatch.setattr(History, "_index", counting_index)
    c.restrict(uids(c))  # the counter sees a derived history
    assert built == [1]
    built.clear()
    construct_linearization(c, match)
    assert detect_vwit(c) is None
    assert not built


# ---- exhaustive small-scale agreement with the oracle ----


@pytest.mark.parametrize("ne,nd", PWIT_SIZES + [(0, 2), (2, 0)])
def test_checker_matches_oracle_exhaustively(ne, nd, instance_sets):
    for c in instance_sets(ne, nd):
        verdict = check_linearizable(c)
        expected = brute_force_linearizable(c)
        assert (verdict.status == LINEARIZABLE) == expected, c.serialize()
        if verdict.status == LINEARIZABLE:
            assert verdict.witness is not None
            assert is_linearization_of(verdict.witness, c)
            assert brute_respects_order(c, list(verdict.witness))
            assert brute_alt_witness(c, list(verdict.witness))
        else:
            assert verdict.violation is not None
            assert verdict.violation.kind in ("vfresh", "vrepet", "vord", "vwit")


EVIDENCE_SIZES = [(ne, nd) for ne in range(4) for nd in range(4)
                  if 0 < ne + nd <= 5 and max(ne, nd) <= 3]


def test_verdict_evidence_is_the_first_detector_finding(instance_sets):
    """A differentiated history's one candidate match is judged by the
    aspects read through it; on every canonical history up to 3+2 and
    2+3 the evidence equals that of the four value-keyed detectors run
    in turn, and every aspect occurs."""
    histories = 0
    kinds = Counter()
    for ne, nd in EVIDENCE_SIZES:
        for c in instance_sets(ne, nd):
            histories += 1
            violation = check_linearizable(c, build_witness=False).violation
            assert violation == reference_detect_first(c), c.serialize()
            kinds[violation and violation.kind] += 1
    assert histories == 24_990
    assert set(kinds) == {None, "vfresh", "vrepet", "vord", "vwit"}


def test_linearizable_verdicts_can_skip_witness():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1")
    v = check_linearizable(c, build_witness=False)
    assert v.status == LINEARIZABLE and v.witness is None


def test_empty_history_is_linearizable():
    v = check_linearizable(History(()))
    assert v.status == LINEARIZABLE
    assert len(v.witness) == 0


# ---- incomplete histories ----


def test_pending_enqueue_can_be_dropped():
    # deq null while enq(1) pending: drop the enqueue
    c = h("inv 0 enq 1\ninv 1 deq\nres 1 deq null")
    assert check_linearizable(c).status == LINEARIZABLE
    assert brute_force_linearizable(c)


def test_pending_dequeue_can_be_completed():
    # enq(1) done, deq pending: complete it with 1 or drop it
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq")
    v = check_linearizable(c)
    assert v.status == LINEARIZABLE


def test_incomplete_violation_reports_drop_all_evidence():
    c = h(
        "inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq null\ninv 2 enq 2"
    )
    v = check_linearizable(c)
    assert v.status == VIOLATION
    assert v.violation == VWit(d=1, alive=(0,))


def truncations(c):
    """Every history made from c by dropping a nonempty set of responses."""
    us = uids(c)
    for r in range(1, len(us) + 1):
        for drop in itertools.combinations(us, r):
            yield History(a for a in c.actions if not (a.kind == "res" and a.uid in drop))


def small_truncations():
    """Every distinct truncation of the canonical 2+1, 2+2, 3+1 and 1+3
    instances, unmerged and with value 2 merged into 1."""
    seen = set()
    for ne, nd in ((2, 1), (2, 2), (3, 1), (1, 3)):
        for base in canonical_histories(ne, nd):
            for mapping in ({}, {2: 1}):
                for sub in truncations(with_values_merged(base, mapping)):
                    if sub not in seen:
                        seen.add(sub)
                        yield sub


def test_incomplete_agreement_with_oracle_small():
    """On every small truncation the verdict agrees with the oracle, and
    its summary, evidence included, with the check of every completion."""
    n = 0
    for n, sub in enumerate(small_truncations(), start=1):
        v = check_linearizable(sub)
        assert v.status != INDETERMINATE
        assert (v.status == LINEARIZABLE) == brute_force_linearizable(sub), sub.serialize()
        assert v.summary() == reference_check_linearizable(sub).summary(), sub.serialize()
    assert n == 5201


def test_completions_short_of_a_fifo_predecessor_are_refuted():
    """Rule 7: of all completions of the small truncations, each that
    returns u but returns an earlier-enqueued v fewer times than it is
    enqueued is refuted by the oracle."""
    refuted = 0
    for sub in small_truncations():
        for comp in sub.completions():
            if fifo_shortfall(comp) is not None:
                assert not brute_force_linearizable(comp), comp.serialize()
                refuted += 1
    assert refuted == 1113


def test_permuting_a_block_of_pending_dequeues_keeps_the_oracle_verdict():
    """Rule 6: in every completion of the small truncations, each
    permutation of the results of the kept dequeues of a block gives a
    completion with the same oracle verdict."""
    permuted = 0
    for sub in small_truncations():
        blocks = [b for b in interchangeable_blocks(sub) if len(b) > 1]
        if not blocks:
            continue
        pending = [e for e in sub.events if e.pending]
        for comp in sub.completions():
            result = {e.uid: e.value for e in comp.events if e.is_deq}
            present = {e.uid for e in comp.events}
            verdict = brute_force_linearizable(comp)
            for block in blocks:
                kept = [d for d in block if d in result]
                for values in set(itertools.permutations([result[d] for d in kept])):
                    swap = {**result, **dict(zip(kept, values))}
                    other = sub.completion(
                        [e.uid for e in pending if e.uid not in present],
                        [deq_res(e.uid, swap[e.uid]) if e.is_deq else enq_res(e.uid)
                         for e in pending if e.uid in present])
                    assert brute_force_linearizable(other) == verdict, other.serialize()
                    permuted += 1
    assert permuted == 4798  # the identity included


# enq(1) twice; deq -> 1; a pending deq; then deq -> null.  The NULL
# needs both 1s gone, so the pending dequeue must return the second 1
SECOND_ONE = (
    "inv 0 enq 1\nres 0 enq\ninv 1 enq 1\nres 1 enq\n"
    "inv 2 deq\nres 2 deq 1\ninv 3 deq\ninv 4 deq\nres 4 deq null"
)


def test_pending_dequeue_may_return_a_value_a_completed_dequeue_returned():
    c = h(SECOND_ONE)
    assert brute_force_linearizable(c)
    assert reference_check_linearizable(c).status == LINEARIZABLE
    assert check_linearizable(c).status == LINEARIZABLE


def test_a_block_of_pending_dequeues_may_take_one_value_twice():
    # two pending dequeues invoked back to back beside a deq -> null after
    # two enqueues of 1: the NULL needs both 1s gone
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 enq 1\nres 1 enq\n"
          "inv 2 deq\ninv 3 deq\ninv 4 deq\nres 4 deq null")
    assert brute_force_linearizable(c)
    assert check_linearizable(c).status == LINEARIZABLE


def test_a_block_of_pending_dequeues_takes_values_in_real_time_order():
    # enq(2) completes before enq(1) starts, so the block must return 2
    # first: listed by value, its one order of {1, 2} would break rule 4
    c = h("inv 0 enq 2\nres 0 enq\ninv 1 enq 1\nres 1 enq\n"
          "inv 2 deq\ninv 3 deq\ninv 4 deq\nres 4 deq null")
    assert brute_force_linearizable(c)
    v = check_linearizable(c)
    assert v.status == LINEARIZABLE
    assert [(e.uid, e.value) for e in v.witness.events if e.is_deq] == [(2, 2), (3, 1), (4, NULL)]


def test_rule_7_on_completed_dequeues_does_not_end_the_search():
    # deq -> 2 completes after two enqueues of 1 that precede enq(2), so
    # both 1s must leave first, through both pending dequeues: every
    # completion keeping one of them is refuted, and keeping two is not
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 enq 1\nres 1 enq\ninv 2 enq 2\nres 2 enq\n"
          "inv 3 deq\ninv 4 deq\ninv 5 deq\nres 5 deq 2")
    assert brute_force_linearizable(c)
    assert check_linearizable(c).status == LINEARIZABLE


def test_pending_dequeues_may_take_values_against_enqueue_invocation_order():
    # enq(1) is invoked first but enq(2) completes first; the NULLs force
    # the first pending dequeue to take 2 and the second to take 1.  Rule 4
    # skips only what real-time precedence between enqueues forbids
    c = h(
        "inv 0 enq 1\ninv 1 enq 2\nres 1 enq\ninv 2 deq\n"
        "inv 3 deq\nres 3 deq null\ninv 4 deq\nres 0 enq\ninv 5 deq\nres 5 deq null"
    )
    assert brute_force_linearizable(c)
    assert check_linearizable(c).status == LINEARIZABLE


@pytest.mark.parametrize("p", [5, 6, 7])
def test_pinned_family_without_enough_dequeues_is_a_vwit(p):
    c = pinned_history(p)
    v = check_linearizable(c)
    assert v.status == VIOLATION and v.violation.kind == "vwit"
    assert v.violation == reference_detect_first(c.remove_pending())


def test_pinned_family_with_eight_dequeues_is_linearizable():
    c = pinned_history(8)
    v = check_linearizable(c)
    assert v.status == LINEARIZABLE
    # every value enqueued in turn, taken in turn, then the NULL
    assert [(e.uid, e.value) for e in v.witness.events] == (
        [(u, u + 1) for u in range(8)] + [(8 + u, u + 1) for u in range(8)] + [(16, NULL)])


@pytest.mark.parametrize("p", range(9))
def test_pinned_family_completion_count(p):
    # the enqueues of 1..8 run one after another, so rule 7 lets the kept
    # dequeues return only a prefix 1..k of the values, and rule 6 takes
    # that set once: one completion per k <= p, the drop-all one for k = 0
    count = sum(1 for _ in _undominated_completions(pinned_history(p)))
    assert count == p + 1


@pytest.mark.parametrize("n", [8, 12])
def test_overlapping_family_completion_count(n):
    # no enqueue precedes another, so rules 4 and 7 keep every set of
    # values, and the n - 1 pending dequeues form one block, so rule 6
    # takes each set of at most n - 1 values once
    c = overlapping_history(n, n - 1)
    count = sum(1 for _ in _undominated_completions(c))
    assert count == sum(math.comb(n, k) for k in range(n)) == {8: 255, 12: 4095}[n]
    v = check_linearizable(c, build_witness=False)
    assert v.status == VIOLATION and v.violation.kind == "vwit"


@pytest.mark.parametrize("n", range(1, 6))
def test_overlapping_family_agrees_with_oracle(n):
    c = overlapping_history(n, n - 1)
    assert check_linearizable(c).status == VIOLATION
    assert not brute_force_linearizable(c)


def test_completion_bound(monkeypatch):
    c = overlapping_history(8, 7)  # 255 completions, none linearizable
    monkeypatch.setattr(checker, "DEFAULT_COMPLETION_BOUND", 255)
    assert check_linearizable(c).status == VIOLATION
    monkeypatch.setattr(checker, "DEFAULT_COMPLETION_BOUND", 254)
    v = check_linearizable(c)
    assert v.status == INDETERMINATE
    assert v.reason == ("checked 254 completions (DEFAULT_COMPLETION_BOUND), none linearizable, "
                        "and more remain: 7 pending dequeues, 8 distinct enqueued values")
    # the second completion is the first linearizable one
    assert check_linearizable(h(SECOND_ONE)).status == LINEARIZABLE
    monkeypatch.setattr(checker, "DEFAULT_COMPLETION_BOUND", 1)
    assert check_linearizable(h(SECOND_ONE)).status == INDETERMINATE


def test_seeded_truncations_agree_with_oracle():
    """200 generated 3+3 histories, each with a seeded set of responses
    dropped, enqueue responses among them, so pending enqueues are
    covered too."""
    pending_enqs = 0
    for seed in range(200):
        c = generate_history(seed, 3, 3)
        rng = random.Random(seed)
        drop = {u for u in uids(c) if rng.random() < 0.4}
        sub = History(a for a in c.actions if not (a.kind == "res" and a.uid in drop))
        pending_enqs += sum(e.is_enq and e.pending for e in sub.events)
        v = check_linearizable(sub)
        assert v.status != INDETERMINATE
        assert (v.status == LINEARIZABLE) == brute_force_linearizable(sub), (seed, sub.serialize())
    assert pending_enqs


# ---- duplicate enqueue values ----


def test_duplicates_linearizable_via_crossed_match():
    c = h(
        "inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 5\ninv 3 deq\nres 3 deq 5"
    )
    assert check_linearizable(c).status == LINEARIZABLE
    assert brute_force_linearizable(c)


def test_duplicates_generalized_vfresh():
    c = h("inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\ninv 2 deq\nres 2 deq 7")
    v = check_linearizable(c)
    assert v.status == VIOLATION and v.violation == VFresh(d=2)


def test_duplicates_generalized_vrepet():
    c = h(
        "inv 0 enq 5\nres 0 enq\n"
        "inv 1 deq\nres 1 deq 5\ninv 2 deq\nres 2 deq 5"
    )
    v = check_linearizable(c)
    assert v.status == VIOLATION and v.violation == VRepet(d=1, d2=2)
    # with a repeated enqueue value: two enq(5), three deq -> 5
    c = h(
        "inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\n"
        "inv 2 deq\nres 2 deq 5\ninv 3 deq\nres 3 deq 5\ninv 4 deq\nres 4 deq 5"
    )
    assert not c.is_differentiated
    v = check_linearizable(c)
    assert v.summary() == "VIOLATION vrepet d=2 d2=3"


def test_duplicates_violation_without_pattern_evidence():
    # two finished enqueues of 5 and a null dequeue after both; no
    # candidate match is a witness, and the evidence is read through the
    # first one
    c = h(
        "inv 0 enq 5\nres 0 enq\ninv 1 enq 5\nres 1 enq\n"
        "inv 2 deq\nres 2 deq null"
    )
    v = check_linearizable(c)
    assert v.summary() == "VIOLATION vwit d=2 alive=0"
    assert not brute_force_linearizable(c)


def test_duplicates_indeterminate_on_tiny_bound(monkeypatch):
    c = h(
        "inv 0 deq\nres 0 deq 5\n"
        "inv 1 enq 5\nres 1 enq\ninv 2 enq 5\nres 2 enq"
    )
    # with the default bound the same history is decided
    assert check_linearizable(c).status == VIOLATION
    monkeypatch.setattr(checker, "DEFAULT_MATCH_BOUND", 1)
    v = check_linearizable(c)
    assert v.status == INDETERMINATE
    assert "candidate matches" in v.reason


def all_equal_values():
    """The 2+1 interleaving space with every value renamed to 7."""
    return [with_values_merged(c, {1: 7, 2: 7}) for c in canonical_histories(2, 1)]


def test_duplicates_agree_with_oracle_exhaustively():
    for same in all_equal_values():
        v = check_linearizable(same)
        assert v.status != INDETERMINATE
        assert (v.status == LINEARIZABLE) == brute_force_linearizable(same)


def random_pending_history(seed):
    """A seeded history of 2-8 calls with values drawn from 1-3, each
    call left pending with probability 0.2."""
    rng = random.Random(seed)
    calls = rng.randint(2, 8)
    n_enq = rng.randint(1, calls - 1)
    c = generate_history(seed, n_enq, calls - n_enq)
    c = with_values_merged(c, {v: rng.randint(1, 3) for v in range(1, n_enq + 1)})
    drop = {u for u in uids(c) if rng.random() < 0.2}
    return History(a for a in c.actions if not (a.kind == "res" and a.uid in drop))


def test_every_violation_names_its_evidence():
    """Every VIOLATION carries the violation of the first candidate match
    of its drop-all-pending completion, or, when that completion has no
    candidate, the VFresh or VRepet that explains why; detect_all lists
    it first."""
    repeated = 0
    pool = all_equal_values() + [random_pending_history(seed) for seed in range(10_000)]
    for c in pool:
        v = check_linearizable(c, build_witness=False)
        if v.status != VIOLATION:
            continue
        assert v.violation is not None, c.serialize()
        repeated += not c.is_differentiated
        d = c.remove_pending()
        first = next(candidate_matches(d.events), None)
        expected = (detect_vfresh(d) or detect_vrepet(d) if first is None
                    else next(_match_violations(d, first), None))
        assert v.violation == expected, c.serialize()
        assert detect_all(c)[0] == expected, c.serialize()
    assert repeated > 1_000


# ---- the oracle itself ----


def test_oracle_bound():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1")
    with pytest.raises(OracleBoundExceeded):
        brute_force_linearizable(c, max_actions=3)
    assert brute_force_linearizable(c, max_actions=4)


def test_is_linearization_of():
    c = h("inv 0 enq 1\nres 0 enq\ninv 1 deq\nres 1 deq 1")
    good = construct_linearization(c, derive_match(c))
    assert is_linearization_of(good, c)
    from qlin.queuespec import Behavior

    # reversing a strictly ordered pair breaks precedence
    wrong_order = Behavior([c.event(1), c.event(0)])
    assert not is_linearization_of(wrong_order, c)
    # a permutation of different events is not a linearization either
    other = h("inv 0 enq 2\nres 0 enq\ninv 1 deq\nres 1 deq 2")
    assert not is_linearization_of(good, other)


# ---- verdicts are isomorphism-invariant ----


def apply_bijection(c, vmap, umap):
    acts = []
    for a in c.actions:
        uid = umap[a.uid]
        if a.kind == "inv":
            acts.append(enq_inv(uid, vmap[a.payload]) if a.method == "enq" else deq_inv(uid))
        elif a.method == "enq":
            acts.append(enq_res(uid))
        else:
            val = a.payload if a.payload is NULL else vmap[a.payload]
            acts.append(deq_res(uid, val))
    return History(acts)


@settings(deadline=None)
@given(st.data())
def test_verdict_is_isomorphism_invariant(data):
    pool = canonical_histories(2, 2)
    c = data.draw(st.sampled_from(pool))
    values = sorted(set(c.enq_values()))
    vperm = data.draw(st.permutations(values))
    voffsets = data.draw(st.lists(st.integers(0, 50), min_size=len(values), max_size=len(values)))
    vmap = {v: 10 * p + o for v, (p, o) in zip(values, zip(vperm, voffsets))}
    if len(set(vmap.values())) != len(vmap):
        vmap = {v: 100 + i for i, v in enumerate(values)}
    us = list(uids(c))
    uperm = data.draw(st.permutations(us))
    umap = dict(zip(us, uperm))
    mapped = apply_bijection(c, vmap, umap)
    assert isomorphic(c, mapped)
    v1 = check_linearizable(c, build_witness=False)
    v2 = check_linearizable(mapped, build_witness=False)
    assert v1.status == v2.status
    if v1.violation is not None:
        assert v1.violation.kind == v2.violation.kind
