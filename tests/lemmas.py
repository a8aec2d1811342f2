"""The source paper's reformulation lemmas, as checkers.

Henzinger, Sezgin and Vafeiadis reduce queue linearizability to four
aspects through a chain of reformulations.  The product decides with the
four detectors and witness construction in ``qlin.checker``; the
functions here check the reformulations themselves, and the acceptance
suite and unit tests use them to show that each one agrees with the
definition it replaces:

- the queue LTS one step at a time, the reference that
  ``qlin.queuespec.replay`` folds in one pass;
- sequential witnesses: a behavior is legal exactly when some total
  mapping of its dequeues to enqueues meets six clauses;
- canonical behaviors: a behavior with a witness can be rewritten into
  one that interleaves each enqueue with its dequeue, observably the
  same;
- the set-pair form of the NULL-dequeue condition, over the bad sets
  of ``compute_bad``;
- the transitive enqueue order a match induces, the closure of the
  direct pairs of ``_enq_pairs``;
- coverings: chains of alive enqueues spanning a NULL dequeue's window,
  the form VWit is derived from;
- linearizations: a behavior is a linearization of a history when it
  permutes some completion and respects precedence.

The views of histories and behaviors that only these checkers and the
tests read (uids, per-method events, precedence sets, positions, the
sequential form) come first, as plain functions.
"""

from __future__ import annotations

import itertools
import math

from qlin.checker import EnqOrderCycle, _bad_bounds, _drain_keys
from qlin.history import INV, NULL, RES, Event, History, HistoryError, deq_inv, deq_res, enq_inv, enq_res
from qlin.queuespec import REJECT, Behavior, Match, QueueState, _Reject, candidate_matches


# ---- views of histories and behaviors ----


def uids(c: History) -> tuple[int, ...]:
    """Uids in invocation order."""
    return tuple(e.uid for e in c.events)


def enq_events(h: History | Behavior) -> tuple[Event, ...]:
    return tuple(e for e in h.events if e.is_enq)


def deq_events(h: History | Behavior) -> tuple[Event, ...]:
    return tuple(e for e in h.events if e.is_deq)


def enq_values(b: Behavior) -> tuple:
    return tuple(e.value for e in b.events if e.is_enq)


def deq_values(h: History | Behavior) -> tuple:
    return tuple(e.value for e in h.events if e.is_deq)


def before_set(c: History, a: int) -> frozenset[int]:
    """Uids of events that precede a."""
    ia = c.inv_index(a)
    return frozenset(e.uid for e in c.events
                     if (r := c.res_index(e.uid)) is not None and r < ia)


def after_set(c: History, a: int) -> frozenset[int]:
    """Uids of events that a precedes."""
    ra = c.res_index(a)
    if ra is None:
        return frozenset()
    return frozenset(e.uid for e in c.events if c.inv_index(e.uid) > ra)


def is_sequential(c: History) -> bool:
    """Every invocation is immediately followed by its response; at most
    the final action may be a lone invocation."""
    acts = c.actions
    i = 0
    n = len(acts)
    while i < n:
        if acts[i].kind != INV:
            return False
        if i + 1 == n:
            return True
        nxt = acts[i + 1]
        if nxt.kind != RES or nxt.uid != acts[i].uid:
            return False
        i += 2
    return True


def positions(b: Behavior) -> dict[int, int]:
    """uid -> position in b."""
    return {e.uid: pos for pos, e in enumerate(b.events)}


def to_history(b: Behavior) -> History:
    """The sequential history that performs b's events in order."""
    acts = []
    for e in b.events:
        if e.is_enq:
            acts += [enq_inv(e.uid, e.value), enq_res(e.uid)]
        else:
            acts += [deq_inv(e.uid), deq_res(e.uid, e.value)]
    return History(acts)


# ---- the queue LTS, one step at a time ----


def lts_step(q: QueueState, event: Event) -> QueueState | _Reject:
    """One transition of the queue LTS; REJECT when the event is not enabled.

    enq(x) appends x; deq(x) requires x at the head and removes it;
    deq(NULL) requires the empty queue and leaves it empty.
    """
    if event.is_enq:
        return q + (event.value,)
    if event.value is NULL:
        return q if q == () else REJECT
    if q and q[0] == event.value:
        return q[1:]
    return REJECT


# ---- sequential witnesses ----


def behavior_of(c: History) -> Behavior:
    """View a complete sequential history as a behavior."""
    if not c.is_complete:
        raise HistoryError("history has pending events")
    if not is_sequential(c):
        raise HistoryError("history is not sequential")
    return Behavior(c.events)


def check_sequential_witness(b: Behavior, mu: Match) -> str | None:
    """Check the six witness clauses; None when all hold, else the first
    failed clause name among i..vi.

    i   matched pairs agree on the value
    ii  a dequeue maps to bottom exactly when it returns NULL
    iii no two dequeues map to the same enqueue
    iv  an enqueue occurs before the dequeue that consumes it
    v   enqueues are consumed in order: anything enqueued before a consumed
        enqueue has itself been consumed by an earlier dequeue
    vi  a NULL dequeue sees as many enqueues before it as non-NULL dequeues
    """
    deqs = deq_events(b)
    enqs = enq_events(b)
    pos = positions(b)
    by_uid = {e.uid: e for e in b.events}
    for d in deqs:
        if d.uid not in mu:
            raise ValueError(f"witness is not total: dequeue {d.uid} unmapped")
    # i, ii, iv
    for d in deqs:
        target = mu[d.uid]
        if target is None:
            if d.value is not NULL:
                return "ii"
            continue
        if d.value is NULL:
            return "ii"
        e = by_uid.get(target)
        if e is None or not e.is_enq:
            raise ValueError(f"witness maps dequeue {d.uid} to non-enqueue {target}")
        if e.value != d.value:
            return "i"
        if not pos[e.uid] < pos[d.uid]:
            return "iv"
    # iii
    targets = [t for t in (mu[d.uid] for d in deqs) if t is not None]
    if len(targets) != len(set(targets)):
        return "iii"
    inverse = {t: d.uid for d in deqs if (t := mu[d.uid]) is not None}
    # v
    for d in deqs:
        target = mu[d.uid]
        if target is None:
            continue
        tpos = pos[target]
        for e in enqs:
            if pos[e.uid] < tpos:
                pre = inverse.get(e.uid)
                if pre is None or not pos[pre] < pos[d.uid]:
                    return "v"
    # vi
    for d in deqs:
        if mu[d.uid] is not None:
            continue
        dpos = pos[d.uid]
        n_enq = sum(1 for e in enqs if pos[e.uid] < dpos)
        n_deq = sum(1 for d2 in deqs if pos[d2.uid] < dpos and mu[d2.uid] is not None)
        if n_enq != n_deq:
            return "vi"
    return None


def find_sequential_witness(b: Behavior, max_candidates: int = 10_000) -> Match | None:
    """Search for a valid sequential witness; None when none exists.

    When every value is enqueued at most once the single value-respecting
    candidate is forced.  With duplicate values all value-respecting
    injections are tried, capped at ``max_candidates`` full mappings
    (SearchBoundExceeded beyond that).
    """
    for mu in candidate_matches(b.events, max_candidates):
        if check_sequential_witness(b, mu) is None:
            return mu
    return None


# ---- canonical behaviors ----


def is_canonical(b: Behavior) -> bool:
    """Membership in: ((deq NULL)* enq(x) deq(x))* (deq NULL)* (enq(x))*."""
    evs = b.events
    n = len(evs)
    i = 0
    while True:
        j = i
        while j < n and evs[j].is_deq and evs[j].value is NULL:
            j += 1
        if (
            j + 1 < n
            and evs[j].is_enq
            and evs[j + 1].is_deq
            and evs[j + 1].value == evs[j].value
        ):
            i = j + 2
            continue
        break
    while i < n and evs[i].is_deq and evs[i].value is NULL:
        i += 1
    while i < n and evs[i].is_enq:
        i += 1
    return i == n


def obs_equiv(b1: Behavior, b2: Behavior) -> bool:
    """Equal enqueue-value and dequeue-value projections."""
    return enq_values(b1) == enq_values(b2) and deq_values(b1) == deq_values(b2)


def canonicalize(b: Behavior, mu: Match) -> Behavior:
    """Rewrite a behavior with a valid witness into canonical form.

    Walks the dequeues in order: a NULL dequeue is emitted where it stands,
    a value dequeue is emitted immediately after its matched enqueue (which
    the witness clauses force to be the earliest remaining enqueue).  The
    result is canonical, observation-equivalent, legal, and keeps every
    deq(NULL) at its original position.
    """
    failed = check_sequential_witness(b, mu)
    if failed is not None:
        raise ValueError(f"witness violates clause {failed}")
    remaining = list(b.events)
    out: list[Event] = []
    while remaining:
        d = next((e for e in remaining if e.is_deq), None)
        if d is None:
            out.extend(remaining)
            break
        if d.value is NULL:
            out.append(d)
            remaining.remove(d)
            continue
        target = mu[d.uid]
        first_enq = next(e for e in remaining if e.is_enq)
        if first_enq.uid != target:
            raise AssertionError("witness does not map the first dequeue to the first enqueue")
        out.append(first_enq)
        out.append(d)
        remaining.remove(first_enq)
        remaining.remove(d)
    return Behavior(out)


# ---- the set-pair NULL-dequeue condition ----


def compute_bad(c: History, match: Match, d_bot: int) -> frozenset[int]:
    """The bad set of a NULL dequeue in a complete history: the least set
    of enqueues that holds every enqueue that cannot be drained before
    d_bot returns (it starts after d_bot, or its dequeue is missing or
    starts after d_bot) and every enqueue forced behind a bad one,
    directly or through the dequeue that consumes it.

    These are the unconsumed enqueues and the consumed ones whose drain
    key exceeds the bound the checker's sweep finds for d_bot.
    """
    drain = _drain_keys(c, {e: d for d, e in match.items() if e is not None})
    bound = _bad_bounds(c, drain, [d_bot])[d_bot]
    return frozenset(e.uid for e in c.events
                     if e.is_enq and drain.get(e.uid, math.inf) > bound)


def alt_witness_check(c: History, match: Match, d_bot: int) -> bool:
    """Decide the set-pair reformulation of the NULL-dequeue condition.

    Builds the candidate pair constructively: the enqueues that are neither
    after d_bot nor bad, plus the dequeues consuming them and the NULL
    dequeues preceding any of those.  Returns whether the pair meets the
    three requirements (disjoint from After(d_bot), closed under precedence,
    and squeezing Before(d_bot)'s enqueues into matched territory).
    """
    after = after_set(c, d_bot)
    bad = compute_bad(c, match, d_bot)
    enq_uids = {e.uid for e in c.events if e.is_enq}
    e_hat = {e for e in enq_uids if e not in after and e not in bad}
    d_prime = {d for d, t in match.items() if t is not None and t in e_hat}
    d_hat = set(d_prime)
    for d, t in match.items():
        if t is None and any(c.precedes(d, a) for a in e_hat | d_prime):
            d_hat.add(d)
    union = d_hat | e_hat
    if union & after:
        return False
    for a in union:
        if not before_set(c, a) <= union:
            return False
    before_enqs = before_set(c, d_bot) & enq_uids
    if not before_enqs <= e_hat:
        return False
    matched = {match[d] for d in d_hat if match[d] is not None}
    if not e_hat <= matched:
        return False
    return True


# ---- the transitive enqueue order ----


def _enq_pairs(c: History, match: Match) -> tuple[list[int], set[tuple[int, int]]]:
    """The enqueue uids and the direct ordering pairs the match induces.

    Two enqueues are ordered when one precedes the other; overlapping
    enqueues are ordered by their dequeues (consumed before unconsumed;
    earlier dequeue first, or a dequeue before the other enqueue) or by a
    NULL dequeue that separates them into drainable and undrainable.
    """
    enqs = [e.uid for e in c.events if e.is_enq]
    inverse = {e: d for d, e in match.items() if e is not None}
    null_bads = [
        compute_bad(c, match, d) for d, t in match.items() if t is None
    ]
    pairs: set[tuple[int, int]] = set()
    for e1, e2 in itertools.permutations(enqs, 2):
        if c.precedes(e1, e2):
            pairs.add((e1, e2))
            continue
        if c.precedes(e2, e1):
            continue
        d1 = inverse.get(e1)
        d2 = inverse.get(e2)
        if d1 is not None and d2 is None:
            pairs.add((e1, e2))
        elif d1 is not None and d2 is not None:
            if c.precedes(d1, d2) or c.precedes(d1, e2):
                pairs.add((e1, e2))
            elif any(e1 not in bad and e2 in bad for bad in null_bads):
                pairs.add((e1, e2))
    return enqs, pairs


def enq_order(c: History, match: Match) -> frozenset[tuple[int, int]]:
    """The transitive enqueue-ordering relation induced by the match: the
    closure of the ordering pairs of ``_enq_pairs``.  Raises EnqOrderCycle
    if the closure is not a strict partial order.
    """
    enqs, pairs = _enq_pairs(c, match)
    succ: dict[int, set[int]] = {e: set() for e in enqs}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in enqs:
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    for a in enqs:
        if a in succ[a]:
            raise EnqOrderCycle(f"enqueue {a} ordered before itself")
    return frozenset((a, b) for a in enqs for b in succ[a])


# ---- coverings ----


def detect_pwit_covering(c: History, d_bot: int) -> tuple[int, ...] | None:
    """A covering chain for a NULL dequeue, or None when none exists.

    A covering is a sequence of enqueues whose alive intervals span the
    dequeue's whole pending window and end in an enqueue that is never
    dequeued, certifying that the queue was never drainable to empty while
    the dequeue ran.  Events that start only after the dequeue returns
    cannot affect emptiness during it and are ignored.
    """
    if not c.is_complete:
        raise ValueError("history must be complete")
    dev = c.event(d_bot)
    if not dev.is_deq or dev.value is not NULL:
        raise ValueError("d_bot must be a NULL dequeue")
    scope = c.restrict(u for u in uids(c) if not c.precedes(d_bot, u))
    lo = scope.inv_index(d_bot) + 1
    hi = scope.res_index(d_bot)
    # alive interval per completed enqueue: [first prefix with its response,
    # first prefix with its matching dequeue's invocation)
    intervals: list[tuple[int, float, int]] = []
    inf = float("inf")
    for e in scope.events:
        if not e.is_enq:
            continue
        r = scope.res_index(e.uid)
        if r is None:
            continue
        stop: float = inf
        for d in scope.events:
            if d.is_deq and d.value == e.value:
                stop = min(stop, scope.inv_index(d.uid) + 1)
        intervals.append((r + 1, stop, e.uid))
    def alive_at(k: int) -> list[tuple[int, float, int]]:
        return [iv for iv in intervals if iv[0] <= k < iv[1]]
    for k in range(lo, hi + 1):
        if not alive_at(k):
            return None
    # greedy chain: start at the window head, always extend with the
    # longest-lasting enqueue alive at the previous link's last alive point
    start, stop, uid = max(alive_at(lo), key=lambda iv: iv[1])
    chain = [uid]
    while stop is not inf:
        k = int(stop) - 1
        nxt = max(alive_at(k), key=lambda iv: iv[1])
        if nxt[1] <= stop:
            raise AssertionError("covering chain failed to make progress")
        start, stop, uid = nxt
        chain.append(uid)
    return tuple(chain)


def verify_covering(c: History, d_bot: int, chain: tuple[int, ...]) -> bool:
    """Check the four covering requirements directly against the history."""
    if not chain:
        return False
    scope = c.restrict(u for u in uids(c) if not c.precedes(d_bot, u))
    deq_of: dict[int, int] = {}
    for e in scope.events:
        if e.is_enq:
            for d in scope.events:
                if d.is_deq and d.value == e.value:
                    deq_of[e.uid] = d.uid
    def alive_after(e: int, prefix_len: int) -> bool:
        r = scope.res_index(e)
        if r is None or r >= prefix_len:
            return False
        d = deq_of.get(e)
        return d is None or scope.inv_index(d) >= prefix_len
    if not alive_after(chain[0], scope.inv_index(d_bot)):
        return False
    res_bot = scope.res_index(d_bot)
    for i in range(1, len(chain)):
        if not scope.inv_index(chain[i]) < res_bot:
            return False
        prev_d = deq_of.get(chain[i - 1])
        if prev_d is None or not scope.precedes(chain[i], prev_d):
            return False
    return chain[-1] not in deq_of


# ---- linearizations ----


def is_linearization_of(s: Behavior, c: History) -> bool:
    """True when s is a precedence-respecting permutation of some completion
    of c (uids and values both agree)."""
    want = {e.uid: (e.method, e.value) for e in s.events}
    pos = positions(s)
    for comp in c.completions():
        have = {e.uid: (e.method, e.value) for e in comp.events}
        if have != want:
            continue
        ok = True
        for a in comp.events:
            for b in comp.events:
                if a.uid != b.uid and comp.precedes(a.uid, b.uid):
                    if not pos[a.uid] < pos[b.uid]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return True
    return False
