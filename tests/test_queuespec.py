"""Queue LTS legality, sequential witnesses, canonical behaviors.

The exhaustive cross-check against the list-queue reference here stops at
length 4; the acceptance suite pushes the same comparison to length 6.
"""

import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qlin.checker import LINEARIZABLE, check_linearizable
from qlin.history import NULL, Event, HistoryError, deq_inv, enq_inv
from qlin import queuespec
from qlin.queuespec import (
    REJECT,
    Behavior,
    SearchBoundExceeded,
    candidate_matches,
    is_legal,
    replay,
)

from lemmas import (
    behavior_of,
    canonicalize,
    check_sequential_witness,
    deq_values,
    enq_values,
    find_sequential_witness,
    is_canonical,
    lts_step,
    obs_equiv,
    to_history,
)
from support import atomic_queue_history, behavior_seqs, seq_history, simple_legal, traced_lines


def beh(*seq):
    """Behavior from (method, value) pairs."""
    return behavior_of(seq_history(seq))


E = lambda v: ("enq", v)  # noqa: E731
D = lambda v: ("deq", v)  # noqa: E731


# ---- Behavior construction ----


def test_behavior_rejects_pending_event():
    with pytest.raises(HistoryError, match="pending"):
        Behavior([Event(0, "enq", 1, True)])


def test_behavior_rejects_duplicate_uid():
    e = Event(0, "enq", 1, False)
    with pytest.raises(HistoryError, match="duplicate"):
        Behavior([e, e])


def test_behavior_rejects_null_enqueue():
    with pytest.raises(HistoryError, match="int"):
        Behavior([Event(0, "enq", NULL, False)])


def test_behavior_round_trips_through_history():
    b = beh(E(1), D(1), D(NULL))
    assert behavior_of(to_history(b)) == b
    assert enq_values(b) == (1,)
    assert deq_values(b) == (1, NULL)
    assert repr(b) == "Behavior[enq^0(1) deq^1(1) deq^2(NULL)]"


def test_behavior_of_requires_complete_sequential():
    from qlin.history import History, deq_res, enq_res

    with pytest.raises(HistoryError, match="pending"):
        behavior_of(History([enq_inv(0, 1)]))
    overlapping = History([enq_inv(0, 1), deq_inv(1), enq_res(0), deq_res(1, 1)])
    with pytest.raises(HistoryError, match="not sequential"):
        behavior_of(overlapping)


def test_reject_is_a_singleton():
    assert pickle.loads(pickle.dumps(REJECT)) is REJECT
    assert repr(REJECT) == "REJECT"


# ---- the LTS ----


def test_lts_step_semantics():
    enq2 = Event(0, "enq", 2, False)
    deq2 = Event(1, "deq", 2, False)
    deq_null = Event(2, "deq", NULL, False)
    assert lts_step((), enq2) == (2,)
    assert lts_step((2, 3), deq2) == (3,)
    assert lts_step((3, 2), deq2) is REJECT
    assert lts_step((), deq2) is REJECT
    assert lts_step((), deq_null) == ()
    assert lts_step((5,), deq_null) is REJECT


def test_replay_runs_from_initial_state():
    b = beh(D(7), E(1))
    assert replay(b) is REJECT
    assert replay(b, initial=(7,)) == (1,)


def lts_fold(b: Behavior, initial=()):
    """replay the long way: lts_step once per event."""
    q = initial
    for e in b.events:
        q = lts_step(q, e)
        if q is REJECT:
            return REJECT
    return q


def test_replay_is_the_lts_step_fold():
    """replay agrees with folding the one-step reference, REJECT
    included, on every behavior over three values up to length 6 and on
    the witnesses of two 10,000-action histories."""
    verdicts = {True: 0, False: 0}
    for seq in behavior_seqs(6):
        b = Behavior(Event(uid, method, value, False) for uid, (method, value) in enumerate(seq))
        got = replay(b)
        assert got == lts_fold(b), seq
        assert (got is not REJECT) == simple_legal(seq), seq
        verdicts[got is not REJECT] += 1
    assert verdicts[True] and verdicts[False]
    assert sum(verdicts.values()) == sum(7**n for n in range(1, 7))
    for enq_share in (0.6, 0.5):
        c = atomic_queue_history(random.Random(1), 10_000, enq_share=enq_share)
        v = check_linearizable(c, build_witness=True)
        assert v.status == LINEARIZABLE
        assert replay(v.witness) == lts_fold(v.witness)
        assert replay(v.witness, initial=(7, 8)) == lts_fold(v.witness, initial=(7, 8))


def test_is_legal_examples():
    assert is_legal(beh())
    assert is_legal(beh(E(1), E(2), D(1), D(2)))
    assert is_legal(beh(D(NULL), E(1), D(1), D(NULL)))
    assert not is_legal(beh(E(1), E(2), D(2)))
    assert not is_legal(beh(E(1), D(NULL)))
    assert not is_legal(beh(D(1), E(1)))


# ---- legality == witness existence, exhaustively to length 4 ----


def test_legality_three_ways_to_length_4():
    checked = 0
    for seq in behavior_seqs(4):
        b = behavior_of(seq_history(seq))
        expected = simple_legal(seq)
        assert is_legal(b) == expected, seq
        mu = find_sequential_witness(b)
        assert (mu is not None) == expected, seq
        if mu is not None:
            assert check_sequential_witness(b, mu) is None
        checked += 1
    assert checked == 7 + 7**2 + 7**3 + 7**4


# ---- the six witness clauses, one forced failure each ----


def test_clause_i_value_mismatch():
    b = beh(E(1), E(2), D(1))
    assert check_sequential_witness(b, {2: 1}) == "i"


def test_clause_ii_null_shape():
    assert check_sequential_witness(beh(E(1), D(NULL)), {1: 0}) == "ii"
    assert check_sequential_witness(beh(E(1), D(1)), {1: None}) == "ii"


def test_clause_iii_shared_target():
    b = beh(E(1), D(1), D(1))
    assert check_sequential_witness(b, {1: 0, 2: 0}) == "iii"


def test_clause_iv_consumed_before_enqueued():
    b = beh(D(1), E(1))
    assert check_sequential_witness(b, {0: 1}) == "iv"


def test_clause_v_out_of_order_consumption():
    b = beh(E(1), E(2), D(2))
    assert check_sequential_witness(b, {2: 1}) == "v"


def test_clause_vi_null_with_pending_enqueues():
    b = beh(E(1), D(NULL))
    assert check_sequential_witness(b, {1: None}) == "vi"


def test_witness_must_be_total():
    b = beh(E(1), D(1))
    with pytest.raises(ValueError, match="not total"):
        check_sequential_witness(b, {})


def test_witness_must_target_enqueues():
    b = beh(E(1), D(1), D(NULL))
    with pytest.raises(ValueError, match="non-enqueue"):
        check_sequential_witness(b, {1: 2, 2: None})


def test_search_bound_exceeded():
    # illegal, so the search must grind through all 3! = 6 injections
    b = beh(D(5), E(5), E(5), E(5), D(5), D(5))
    with pytest.raises(SearchBoundExceeded):
        find_sequential_witness(b, max_candidates=5)
    assert find_sequential_witness(b, max_candidates=6) is None


def test_duplicate_values_need_the_right_injection():
    b = beh(E(5), E(5), D(5), D(5))
    mu = find_sequential_witness(b)
    # clause v forces FIFO pairing of the two copies
    assert mu == {2: 0, 3: 1}


# ---- the cost of the candidate-match search ----


def search_steps(run, budget=100_000):
    """(result of run(), the lines run executed in qlin.queuespec), the
    count of search steps; fails once the count passes budget, so a
    search that blows up fails fast instead of hanging."""
    return traced_lines(queuespec.__file__, run, budget)


def test_no_candidate_family_is_refuted_by_counting():
    # k sequential enq(2), one enq(1), k deq -> 2 and two deq -> 1: value
    # 1 is dequeued more often than enqueued, so no candidate exists.
    # Searching would try all k! matches of the 2s before each dead end;
    # the count check yields nothing in steps linear in the history
    k = 40
    c = seq_history([E(2)] * k + [E(1)] + [D(2)] * k + [D(1)] * 2)
    verdict, steps = search_steps(lambda: check_linearizable(c))
    assert verdict.summary() == "VIOLATION vrepet d=81 d2=82"
    assert steps < 20 * len(c.events)


def test_search_stops_after_the_only_match():
    # distinct values leave one match; resuming the search after it costs
    # the same few steps at 200 dequeues as at 10, where backtracking
    # through every dequeue would cost steps in proportion to them
    def resume_after_the_only_match(n):
        gen = candidate_matches(seq_history([E(v) for v in range(n)]
                                            + [D(v) for v in range(n)]).events)
        assert next(gen) == {n + v: v for v in range(n)}
        rest, steps = search_steps(lambda: list(gen))
        assert rest == []
        return steps

    assert resume_after_the_only_match(200) == resume_after_the_only_match(10)


def test_first_match_lists_no_map_ahead_of_its_turn():
    # 20 values, each enqueued 8 times, then each dequeued 8 times: every
    # value has 8! maps, and listing them all before the first match
    # would hold about 100 MB
    c = seq_history([E(v) for v in range(20) for _ in range(8)]
                    + [D(v) for v in range(20) for _ in range(8)])
    tracemalloc.start()
    try:
        first = next(candidate_matches(c.events))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == {160 + i: i for i in range(160)}
    assert peak < 4_000_000


# ---- canonical behaviors ----


@pytest.mark.parametrize(
    "seq",
    [
        (),
        (E(1), D(1)),
        (D(NULL), E(1), D(1), D(NULL), E(2), D(2)),
        (E(1), D(1), D(NULL), D(NULL), E(2), E(3)),
        (E(1),),
        (D(NULL),),
    ],
)
def test_is_canonical_accepts(seq):
    assert is_canonical(beh(*seq))


@pytest.mark.parametrize(
    "seq",
    [
        (E(1), E(2), D(1), D(2)),
        (E(1), D(2)),
        (D(1),),
        (E(1), D(NULL), E(2), D(2)),
        (E(1), E(2), D(1)),
    ],
)
def test_is_canonical_rejects(seq):
    assert not is_canonical(beh(*seq))


def test_canonicalize_requires_valid_witness():
    b = beh(E(1), D(NULL))
    with pytest.raises(ValueError, match="clause vi"):
        canonicalize(b, {1: None})


def check_canonicalize_postconditions(b, mu):
    cb = canonicalize(b, mu)
    assert is_canonical(cb)
    assert is_legal(cb)
    assert obs_equiv(b, cb)
    assert sorted(e.uid for e in cb) == sorted(e.uid for e in b)
    # every NULL dequeue keeps its absolute position
    for pos, e in enumerate(b.events):
        if e.is_deq and e.value is NULL:
            assert cb.events[pos] == e
    return cb


def test_canonicalize_interleaves_pairs():
    b = beh(E(1), E(2), E(3), D(1), D(2))
    cb = check_canonicalize_postconditions(b, find_sequential_witness(b))
    assert [(e.method, e.value) for e in cb] == [
        ("enq", 1), ("deq", 1), ("enq", 2), ("deq", 2), ("enq", 3),
    ]


def test_canonicalize_exhaustive_to_length_4():
    for seq in behavior_seqs(4):
        b = behavior_of(seq_history(seq))
        mu = find_sequential_witness(b)
        if mu is not None:
            check_canonicalize_postconditions(b, mu)


def test_obs_equiv():
    assert obs_equiv(beh(E(1), D(1)), beh(D(1), E(1)))
    assert not obs_equiv(beh(E(1), D(1)), beh(E(1), D(NULL)))
    assert not obs_equiv(beh(E(1)), beh(E(2)))


# ---- property: longer random behaviors ----

SYMBOLS = [E(1), E(2), D(1), D(2), D(NULL)]


@given(st.lists(st.sampled_from(SYMBOLS), max_size=9))
def test_witness_equivalence_property(seq):
    b = behavior_of(seq_history(seq))
    expected = simple_legal(seq)
    assert is_legal(b) == expected
    mu = find_sequential_witness(b)
    assert (mu is not None) == expected
    if mu is not None:
        check_canonicalize_postconditions(b, mu)
