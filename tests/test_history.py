"""Action/History construction, parsing, precedence, completions."""

import pickle

import pytest
from hypothesis import given, strategies as st

from qlin.history import (
    NULL,
    Action,
    History,
    HistoryError,
    HistoryParseError,
    deq_inv,
    deq_res,
    enq_inv,
    enq_res,
    parse_history,
)

from qlin.checker import _predecessor_masks, _undominated_completions

from lemmas import after_set, before_set, deq_events, enq_events, is_sequential, uids
from support import canonical_histories, raw_histories


# ---- NULL sentinel ----


def test_null_is_a_singleton():
    assert type(NULL)() is NULL
    assert pickle.loads(pickle.dumps(NULL)) is NULL


def test_null_equality_and_repr():
    assert NULL == type(NULL)()
    assert NULL != 0
    assert NULL != None  # noqa: E711  - deliberate: NULL is not None
    assert repr(NULL) == "NULL"
    assert hash(NULL) == hash(type(NULL)())


# ---- Action validation ----


def test_action_payload_rules():
    # the happy paths
    enq_inv(0, 5)
    enq_res(0)
    deq_inv(1)
    deq_res(1, 5)
    deq_res(1, NULL)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="call", uid=0, method="enq", payload=1),
        dict(kind="inv", uid=0, method="push", payload=1),
        dict(kind="inv", uid=-1, method="enq", payload=1),
        dict(kind="inv", uid=0, method="enq", payload=None),
        dict(kind="inv", uid=0, method="enq", payload=-3),
        dict(kind="inv", uid=0, method="enq", payload=NULL),
        dict(kind="res", uid=0, method="deq", payload=None),
        dict(kind="res", uid=0, method="deq", payload=-1),
        dict(kind="res", uid=0, method="enq", payload=7),
        dict(kind="inv", uid=0, method="deq", payload=7),
    ],
)
def test_action_rejects_bad_shapes(kwargs):
    with pytest.raises(HistoryError):
        Action(**kwargs)


@pytest.mark.parametrize("make", [
    lambda: enq_inv(True, 1),
    lambda: enq_res(True),
    lambda: deq_inv(False),
    lambda: enq_inv(0, False),
    lambda: deq_res(1, True),
], ids=["enq-inv-uid", "enq-res-uid", "deq-inv-uid", "enq-payload", "deq-payload"])
def test_action_rejects_bool_uids_and_payloads(make):
    # bool is an int subclass: a True uid serializes as "inv True enq 1",
    # which parse_history rejects, and a False payload equals the value 0
    with pytest.raises(HistoryError):
        make()


# ---- History well-formedness ----


def test_history_rejects_double_invocation():
    with pytest.raises(HistoryError, match="invoked twice"):
        History([enq_inv(0, 1), enq_inv(0, 2)])


def test_history_rejects_response_without_invocation():
    with pytest.raises(HistoryError, match="responds before invocation"):
        History([enq_res(0)])


def test_history_rejects_double_response():
    with pytest.raises(HistoryError, match="responds twice"):
        History([enq_inv(0, 1), enq_res(0), enq_res(0)])


def test_history_rejects_method_mismatch():
    with pytest.raises(HistoryError, match="method mismatch"):
        History([enq_inv(0, 1), deq_res(0, 1)])


def test_history_is_immutable():
    c = History([enq_inv(0, 1)])
    with pytest.raises(AttributeError):
        c.actions = ()


def test_unknown_uid_lookups_raise():
    c = History([enq_inv(0, 1)])
    with pytest.raises(HistoryError):
        c.event(3)
    with pytest.raises(HistoryError):
        c.inv_index(3)
    with pytest.raises(HistoryError):
        c.res_index(3)


# ---- basic structure ----


def test_events_are_in_invocation_order():
    c = History([deq_inv(5), enq_inv(2, 9), deq_res(5, NULL), enq_res(2)])
    assert [e.uid for e in c.events] == [5, 2]
    assert uids(c) == (5, 2)
    assert c.event(5).is_deq and c.event(5).value is NULL
    assert c.event(2).is_enq and c.event(2).value == 9


def test_pending_event_values():
    c = History([enq_inv(0, 4), deq_inv(1)])
    assert not c.is_complete
    assert c.event(0).pending and c.event(0).value == 4
    assert c.event(1).pending and c.event(1).value is None
    assert c.res_index(0) is None


def test_differentiated_flag():
    assert History([enq_inv(0, 1), enq_inv(1, 2)]).is_differentiated
    assert not History([enq_inv(0, 1), enq_inv(1, 1)]).is_differentiated
    assert History(()).is_differentiated


def test_enq_deq_event_partition():
    c = History([enq_inv(0, 1), deq_inv(1), enq_res(0), deq_res(1, 1)])
    assert [e.uid for e in enq_events(c)] == [0]
    assert [e.uid for e in deq_events(c)] == [1]
    assert c.enq_values() == (1,)


# ---- precedence ----


def seq_pair():
    # enq(1) fully before deq -> 1
    return History([enq_inv(0, 1), enq_res(0), deq_inv(1), deq_res(1, 1)])


def overlap_pair():
    return History([enq_inv(0, 1), deq_inv(1), enq_res(0), deq_res(1, 1)])


def test_precedes_on_disjoint_intervals():
    c = seq_pair()
    assert c.precedes(0, 1)
    assert not c.precedes(1, 0)
    assert before_set(c, 1) == {0}
    assert after_set(c, 0) == {1}


def test_overlapping_events_unordered():
    c = overlap_pair()
    assert not c.precedes(0, 1)
    assert not c.precedes(1, 0)
    assert before_set(c, 0) == before_set(c, 1) == frozenset()


def test_precedes_rejects_unknown_uids():
    c = seq_pair()
    for a, b in [(0, 7), (7, 1), (7, 8)]:
        with pytest.raises(HistoryError):
            c.precedes(a, b)


def test_pending_event_precedes_nothing():
    c = History([enq_inv(0, 1), deq_inv(1), deq_res(1, NULL)])
    assert not c.precedes(0, 1)
    assert after_set(c, 0) == frozenset()


def test_precedes_is_irreflexive_and_transitive():
    for c in raw_histories(2, 1):
        us = uids(c)
        for a in us:
            assert not c.precedes(a, a)
            for b in us:
                for d in us:
                    if c.precedes(a, b) and c.precedes(b, d):
                        assert c.precedes(a, d)


def test_interval_order_no_crossing():
    # precedence from interval containment: a<b and c<d implies a<d or c<b
    for c in raw_histories(2, 1):
        us = uids(c)
        for a in us:
            for b in us:
                if not c.precedes(a, b):
                    continue
                for x in us:
                    for y in us:
                        if c.precedes(x, y):
                            assert c.precedes(a, y) or c.precedes(x, b)


# ---- restriction and completions ----


def test_restrict_keeps_order_and_drops_uids():
    c = History([enq_inv(0, 1), deq_inv(1), enq_res(0), deq_res(1, 1)])
    r = c.restrict([0])
    assert r.actions == (enq_inv(0, 1), enq_res(0))
    assert c.restrict([]).actions == ()


def test_remove_pending():
    c = History([enq_inv(0, 1), enq_res(0), deq_inv(1)])
    r = c.remove_pending()
    assert r.is_complete
    assert uids(r) == (0,)


def test_completions_first_is_drop_all():
    c = History([enq_inv(0, 1), deq_inv(1)])
    comps = list(c.completions())
    assert comps[0].actions == ()
    # pending enq: drop or complete (2); pending deq: drop, 1, NULL (3)
    assert len(comps) == 6
    assert all(h.is_complete for h in comps)


def test_completions_value_candidates_default():
    c = History([enq_inv(0, 3), enq_res(0), deq_inv(1)])
    results = {
        h.event(1).value for h in c.completions() if 1 in uids(h)
    }
    assert results == {3, NULL}


def test_completions_of_complete_history_is_itself():
    c = seq_pair()
    assert list(c.completions()) == [c]


def test_completion_count_formula():
    # 2 pending enqs, 1 pending deq, 2 distinct values: 2*2*(1+2+1)
    c = History([enq_inv(0, 1), enq_inv(1, 2), deq_inv(2)])
    assert len(list(c.completions())) == 2 * 2 * 4


def test_completion_checks_its_arguments():
    c = History([enq_inv(0, 1), enq_res(0), deq_inv(1), enq_inv(2, 2)])
    assert c.completion([1, 2], []) == c.remove_pending()
    assert c.completion([2], [deq_res(1, 1)]).actions == c.actions[:3] + (deq_res(1, 1),)
    with pytest.raises(HistoryError, match="uid 0 is not pending"):
        c.completion([0, 1, 2], [])
    with pytest.raises(HistoryError, match="uid 5 is not pending"):
        c.completion([1, 2, 5], [])
    with pytest.raises(HistoryError, match="does not complete a pending event"):
        c.completion([1, 2], [enq_res(0)])
    with pytest.raises(HistoryError, match="does not complete a pending event"):
        c.completion([1], [enq_res(2), enq_res(2)])
    with pytest.raises(HistoryError, match="does not complete a pending event"):
        c.completion([1, 2], [enq_res(2)])
    with pytest.raises(HistoryError, match="does not complete a pending event"):
        c.completion([1, 2], [deq_inv(3)])
    with pytest.raises(HistoryError, match="method mismatch"):
        c.completion([2], [enq_res(1)])
    with pytest.raises(HistoryError, match="drops or completes every pending event"):
        c.completion([2], [])


# ---- derived histories equal checked ones ----


@pytest.fixture(scope="module")
def small_histories():
    """The canonical histories up to 3 enqueues and 2 dequeues, the raw
    ones up to 3 operations, and every prefix of each, so that pending
    events of both methods occur."""
    complete = [c for ne in range(4) for nd in range(3) if ne + nd
                for c in canonical_histories(ne, nd)]
    complete += [c for ne, nd in [(1, 1), (2, 1), (1, 2)] for c in raw_histories(ne, nd)]
    prefixes = {c.actions[:k] for c in complete for k in range(len(c.actions) + 1)}
    return [History(acts) for acts in prefixes]


def _assert_same_history(derived):
    checked = History(derived.actions)
    assert derived.actions == checked.actions
    assert derived.events == checked.events
    # is_enq and is_deq take no part in Event equality
    assert ([(e.is_enq, e.is_deq) for e in derived.events]
            == [(e.is_enq, e.is_deq) for e in checked.events])
    for e in checked.events:
        assert derived.event(e.uid) == e
        assert derived.inv_index(e.uid) == checked.inv_index(e.uid)
        assert derived.res_index(e.uid) == checked.res_index(e.uid)
    assert derived == checked and hash(derived) == hash(checked)
    assert derived.is_complete == checked.is_complete


def test_derived_histories_equal_checked_ones(small_histories):
    """Every history the history layer derives, and every undominated
    completion the checker derives through it, equals the one built from
    its actions.  Only the history layer's share is counted: how many
    completions the checker keeps is its pruning's business."""
    n = 0
    for c in small_histories:
        us = uids(c)
        derived = [c.remove_pending(), c.restrict(us[::2]), c.restrict(us[1:]),
                   *c.completions()]
        n += len(derived)
        for d in derived + list(_undominated_completions(c)):
            _assert_same_history(d)
            # the reused events are the same objects; completed ones are new
            for e in d.events:
                if not c.event(e.uid).pending or e.pending:
                    assert e is c.event(e.uid)
    assert n == 143_459


def test_one_pass_predecessor_masks_match_pairwise_precedence(small_histories):
    for c in small_histories:
        ev = c.events
        pairwise = [sum(1 << j for j, b in enumerate(ev) if c.precedes(b.uid, a.uid))
                    for a in ev]
        assert _predecessor_masks(c) == pairwise, c.serialize()


# ---- sequential shape ----


def test_is_sequential():
    assert is_sequential(History(()))
    assert is_sequential(seq_pair())
    assert not is_sequential(overlap_pair())
    # trailing lone invocation is allowed
    assert is_sequential(History([enq_inv(0, 1), enq_res(0), deq_inv(1)]))
    assert not is_sequential(History([deq_inv(1), enq_inv(0, 1), enq_res(0)]))


# ---- text format ----


ROUND_TRIP = """\
# a comment line
inv 0 enq 5

inv 1 deq
res 0 enq
res 1 deq null
inv 2 deq
res 2 deq 5
"""


def test_parse_basic():
    c = parse_history(ROUND_TRIP)
    assert len(c) == 6
    assert c.event(1).value is NULL
    assert c.event(2).value == 5


def test_serialize_parse_round_trip():
    c = parse_history(ROUND_TRIP)
    assert parse_history(c.serialize()) == c


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("inv 0", "at least 3 tokens"),
        ("call 0 enq 1", "unknown action kind"),
        ("inv 0 push 1", "unknown method"),
        ("inv x enq 1", "not an integer"),
        ("inv -1 enq 1", "negative"),
        ("inv 0 enq", "takes exactly one value"),
        ("inv 0 enq 1 2", "takes exactly one value"),
        ("inv 0 enq null", "cannot enqueue null"),
        ("inv 0 enq x", "not an integer or null"),
        ("inv 0 enq -2", "negative"),
        ("inv 0 deq 3", "takes no value"),
        ("res 0 enq", "responds before invocation"),
    ],
)
def test_parse_rejects_bad_lines(line, fragment):
    with pytest.raises(HistoryParseError, match=fragment):
        parse_history(line)


def test_parse_error_carries_line_number():
    text = "inv 0 enq 1\nres 0 enq\nres 0 enq\n"
    with pytest.raises(HistoryParseError) as exc:
        parse_history(text)
    assert exc.value.lineno == 3
    assert "responds twice" in exc.value.reason


@pytest.mark.parametrize(
    "text, lineno, reason",
    [
        pytest.param("inv 0 enq 1\n\n# again\ninv 0 deq\n", 4, "uid 0 invoked twice",
                     id="invoked-twice"),
        pytest.param("inv 0 enq 1\nres 0 enq\nres 1 deq 5\n", 3,
                     "uid 1 responds before invocation", id="responds-before-invocation"),
        pytest.param("inv 0 deq\nres 0 deq null\nres 0 deq 1\n", 3, "uid 0 responds twice",
                     id="responds-twice"),
        pytest.param("inv 0 enq 1\ninv 1 deq\nres 1 enq\n", 3,
                     "uid 1 method mismatch: invoked as deq, responds as enq",
                     id="method-mismatch"),
    ],
)
def test_structural_parse_errors_carry_their_line(text, lineno, reason):
    with pytest.raises(HistoryParseError) as exc:
        parse_history(text)
    assert (exc.value.lineno, exc.value.reason) == (lineno, reason)


def test_parse_method_mismatch_across_lines():
    with pytest.raises(HistoryParseError, match="invoked as enq"):
        parse_history("inv 0 enq 1\nres 0 deq 1\n")


# ---- property: serialization round-trips any well-formed history ----


@st.composite
def histories(draw):
    n_enq = draw(st.integers(0, 3))
    n_deq = draw(st.integers(0, 3))
    values = draw(st.lists(st.integers(0, 9), min_size=n_enq, max_size=n_enq))
    pending: list[Action] = []
    for uid in range(n_enq):
        pending.append(enq_inv(uid, values[uid]))
    for uid in range(n_enq, n_enq + n_deq):
        pending.append(deq_inv(uid))
    order = draw(st.permutations(pending))
    actions: list[Action] = []
    open_uids: list[int] = []
    for a in order:
        actions.append(a)
        open_uids.append(a.uid)
        # maybe close some currently open events
        while open_uids and draw(st.booleans()):
            uid = open_uids.pop(draw(st.integers(0, len(open_uids) - 1)))
            if uid < n_enq:
                actions.append(enq_res(uid))
            else:
                result = draw(st.sampled_from(values + [NULL])) if values else NULL
                actions.append(deq_res(uid, result))
    return History(actions)


@given(histories())
def test_round_trip_property(c):
    assert parse_history(c.serialize()) == c


@given(histories())
def test_completions_are_complete_and_prefix_preserving(c):
    n = len(c.actions)
    for comp in c.completions():
        assert comp.is_complete
        # completing never reorders what already happened
        kept = [a for a in c.actions if a.uid in set(uids(comp))]
        assert list(comp.actions[: len(kept)]) == kept
        # completed events keep their original invocation positions relative
        # to each other, so precedence between old events is unchanged
        for a in uids(comp):
            for b in uids(comp):
                if c.res_index(a) is not None and c.precedes(a, b):
                    assert comp.precedes(a, b)


@given(histories())
def test_restrict_preserves_precedence(c):
    us = uids(c)
    if len(us) < 2:
        return
    keep = us[: len(us) // 2 + 1]
    r = c.restrict(keep)
    for a in uids(r):
        for b in uids(r):
            assert r.precedes(a, b) == c.precedes(a, b)
