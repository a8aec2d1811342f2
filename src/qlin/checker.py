"""Linearizability checking for queue histories.

The checker decides whether a concurrent queue history is linearizable
without enumerating permutations.  For a complete history whose enqueue
arguments are pairwise distinct (a *differentiated* history) it scans for
four violation patterns:

* VFresh  - a value is dequeued that was never enqueued, or only later;
* VRepet  - the same non-NULL value is dequeued twice;
* VOrd    - two ordered enqueues whose dequeues are missing or inverted;
* VWit    - a NULL dequeue ran while the queue was never observably empty.

A complete differentiated history is linearizable exactly when none of the
four patterns occurs.  Every history is decided on one loop over the
candidate matches between dequeues and enqueues of its completions, a
complete history being its own only completion.  Each match is scanned
for the patterns read through it, which gives every enqueue a consumer
from the match instead of from its value.  The first match that breaks
none is the one a witness linearization is built from; otherwise the
evidence is the first pattern seen, on the first match of the
drop-all-pending completion, or VFresh or VRepet when that completion
has no match at all.  ``detect_all`` lists every pattern that same
match breaks, or that VFresh and VRepet when there is no match, so its
first entry is the evidence.
No verdict and no list reads a pattern by value: ``detect_vord`` and
``detect_vwit``, which do, decide nothing; the benchmark's detector
probe times them.

A history is linearizable when some completion is, and only the
completions that no other completion dominates are checked.  Seven
rules, proved in ``check_linearizable``, leave the others out: a pending
dequeue never returns NULL; no value is returned more often than it is
enqueued; the pending dequeues kept are the earliest-invoked ones; their
values are never inverted against the real-time order of their
enqueues; a pending enqueue is completed exactly when some dequeue
returns its value; pending dequeues with no response between their
invocations are interchangeable, so such a block takes a multiset of
values; and, by VOrd, a completion that returns u returns every v whose
enqueues all precede those of u as often as v is enqueued.  The block's
multiset is listed in the real-time order of the enqueues, not by value,
or rule 4 would reject the one order tried.  ``History.completions``,
which keeps every completion, serves the oracle alone.

Each aspect is checked once per witness.  ``construct_linearization``
trusts the checks its caller has just made and guards only its output:
what it returns is a legal, precedence-respecting linearization, and a
match that is not a witness ends in ``ValueError``.

No step of the witness path looks at pairs of enqueues.  Every ordering
it needs compares one action position with another, so it reads as a
dominance query over sorted positions (Emmi and Enea, POPL 2018): the
VOrd scan is a bisection and a suffix minimum, the bounds of all bad
sets come from one sort and one sweep, and the enqueue order that ranks
the witness is Kahn's algorithm with monotone pointers standing in for
the pairs.  Each of the three takes O(E log E) time for E enqueues.

``brute_force_linearizable`` is the independent oracle: it searches for a
precedence-respecting permutation of some completion that the queue LTS
accepts, and shares nothing with the pattern scan above.

The source paper's reformulations behind the four patterns (sequential
witnesses, coverings, the set-pair NULL-dequeue condition with its bad
sets, the transitive enqueue order and its direct pairs) are proof
devices, not decision steps; their checkers live with the tests, in
``tests/lemmas.py``.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .history import ENQ, INV, NULL, RES, Event, History, Value, deq_res, enq_res
from .queuespec import (
    DEFAULT_MATCH_BOUND,
    Behavior,
    Match,
    SearchBoundExceeded,
    candidate_matches,
    is_legal,
)

DEFAULT_COMPLETION_BOUND = 10_000

LINEARIZABLE = "LINEARIZABLE"
VIOLATION = "VIOLATION"
INDETERMINATE = "INDETERMINATE"


class EnqOrderCycle(ValueError):
    """The derived enqueue order contains a cycle; the supplied match is not
    a linearization witness (or there is an internal inconsistency)."""


# ---- violation evidence ----


@dataclass(frozen=True)
class VFresh:
    d: int

    kind = "vfresh"

    def summary(self) -> str:
        return f"vfresh d={self.d}"


@dataclass(frozen=True)
class VRepet:
    d: int
    d2: int

    kind = "vrepet"

    def summary(self) -> str:
        return f"vrepet d={self.d} d2={self.d2}"


@dataclass(frozen=True)
class VOrd:
    e1: int
    e2: int
    d2: int
    d1: int | None = None

    kind = "vord"

    def summary(self) -> str:
        s = f"vord e1={self.e1} e2={self.e2} d2={self.d2}"
        if self.d1 is not None:
            s += f" d1={self.d1}"
        return s


@dataclass(frozen=True)
class VWit:
    d: int
    alive: tuple[int, ...]  # one alive enqueue per split of the pending window

    kind = "vwit"

    def summary(self) -> str:
        return f"vwit d={self.d} alive={','.join(map(str, self.alive))}"


Violation = VFresh | VRepet | VOrd | VWit


@dataclass(frozen=True)
class Verdict:
    """A LINEARIZABLE verdict may carry a witness, a VIOLATION carries
    the violation that explains it, and an INDETERMINATE one carries the
    reason the search stopped; ``reason`` is set on no other status."""

    status: str
    witness: Behavior | None = None
    violation: Violation | None = None
    reason: str | None = None

    def summary(self) -> str:
        if self.status == LINEARIZABLE:
            return LINEARIZABLE
        if self.status == VIOLATION:
            return f"VIOLATION {self.violation.summary()}"
        return f"INDETERMINATE {self.reason}"


# ---- match mappings ----


def derive_match(c: History) -> Match | None:
    """The unique value-derived match of a complete differentiated history,
    or None when none exists: some dequeued value was never enqueued, or a
    value is dequeued twice, which leaves no injective match."""
    if not c.is_differentiated:
        raise ValueError("history has duplicate enqueue values; use candidate_matches")
    return next(candidate_matches(c.events), None)


def _drain_keys(c: History, consumer: dict[int, int]) -> dict[int, int]:
    """Consumed enqueue uid -> its drain key, max(inv(e), inv(d_e)), d_e
    being its consumer: e is forced behind every event that responds
    before its drain key, directly or through d_e."""
    return {e.uid: max(c.inv_index(e.uid), c.inv_index(consumer[e.uid]))
            for e in c.events if e.is_enq and e.uid in consumer}


def _bad_bounds(c: History, drain: dict[int, int], nulls: list[int]) -> dict[int, int]:
    """NULL dequeue uid -> the bound of its bad set in the complete
    history c, whose consumed enqueues have the drain keys ``drain``.

    The bad set of d_bot is the least set of enqueues that holds every
    enqueue that cannot be drained before d_bot returns (it starts after
    d_bot, or its dequeue is missing or starts after d_bot) and every
    enqueue forced behind a bad one, directly or through the dequeue that
    consumes it.  It holds every unconsumed enqueue, and a consumed one
    joins exactly when the least response among res(d_bot) and the set so
    far comes before its drain key.  Its bound is that least response at
    the fixpoint, so the consumed members are those whose drain key
    exceeds the bound.

    Taken by drain key, highest first, the consumed members are a prefix,
    and one sweep finds it.  A NULL dequeue that starts from a lower
    response takes a longer prefix and passes the same joins first, so
    the NULL dequeues, taken by falling starting response, share one
    pointer into one sort.
    """
    floor = min((c.res_index(e.uid) for e in c.events if e.is_enq and e.uid not in drain),
                default=math.inf)
    by_key = sorted(((k, c.res_index(e)) for e, k in drain.items()), reverse=True)
    bounds: dict[int, int] = {}
    joined = 0
    least = math.inf  # the least response among by_key[:joined]
    for start, d in sorted(((min(c.res_index(d), floor), d) for d in nulls), reverse=True):
        bound = min(start, least)
        while joined < len(by_key) and by_key[joined][0] > bound:
            least = min(least, by_key[joined][1])
            bound = min(bound, least)
            joined += 1
        bounds[d] = bound
    return bounds


def _total_enq_order(c: History, match: Match) -> dict[int, int]:
    """Extend the enqueue order to a total order, lowest uid first among
    unconstrained enqueues.  Returns uid -> rank.

    c is complete and the match is a candidate match that breaks neither
    VFresh nor VOrd read through it (``_match_violations``);
    construct_linearization gives it only witness matches.  On such a
    match the direct ordering pairs that ``enq_order`` in
    ``tests/lemmas.py`` closes put b after exactly these enqueues a:

    * every a with res(a) < inv(b);
    * if b is unconsumed, every consumed a with inv(a) < res(b);
    * if b is consumed, every consumed a with res(d_a) < max(inv(d_b),
      inv(b)), d_a being a's consumer;
    * every a outside a NULL bad set that holds b.

    The pairs ask in the last three that neither of a and b precede the
    other.  That never matters: an a that precedes b is in the first set
    anyway, and an a that b precedes is in none of the last three, since
    VOrd keeps d_a from preceding d_b, VFresh keeps d_a from preceding b,
    and a bad set that holds b holds what b precedes.

    Kahn's algorithm ranks the enqueues, the available ones in a min-heap
    on uid.  Since every enqueue ranked so far had all its predecessors
    ranked before it, an enqueue has an unranked predecessor under the
    pairs exactly when it has one under their closure, so the ranks are
    those of the closure.  Each of b's predecessor sets is ranked once a
    least value over the unranked enqueues exceeds a threshold of b: the
    least response (over inv(b)), the least consumed invocation (over
    res(b)), the least consumer response (over max(inv(d_b), inv(b))) and
    the least drain key of ``_bad_bounds`` (over the highest bound of a
    bad set holding b, since the consumed members of a bad set are those
    whose drain key exceeds its bound).  The least values only rise, so
    each is a pointer into one sort, and so is the release of the
    enqueues waiting on it.  Raises EnqOrderCycle when some enqueue is
    never released, as on a match that is not ordered.
    """
    enqs = [e.uid for e in c.events if e.is_enq]
    consumer = {e: d for d, e in match.items() if e is not None}
    drain = _drain_keys(c, consumer)
    consumed = list(drain)
    nulls = [d for d, t in match.items() if t is None]
    bounds = sorted(_bad_bounds(c, drain, nulls).values())
    inv = {e: c.inv_index(e) for e in enqs}
    res = {e: c.res_index(e) for e in enqs}

    def held(b: int) -> int:
        """The highest bound of a bad set holding b, or -1."""
        i = bisect_left(bounds, drain[b]) if b in drain else len(bounds)
        return bounds[i - 1] if i else -1

    gates = [
        _Gate(res, enqs, inv),
        _Gate(inv, consumed, {b: res[b] for b in enqs if b not in drain}),
        _Gate({a: c.res_index(consumer[a]) for a in consumed}, consumed, drain),
        _Gate(drain, consumed, {b: held(b) for b in enqs}),
    ]
    waits = dict.fromkeys(enqs, 3)  # every enqueue waits on three gates
    avail: list[int] = []
    rank: dict[int, int] = {}
    while True:
        for gate in gates:
            for b in gate.release(rank):
                waits[b] -= 1
                if not waits[b]:
                    heapq.heappush(avail, b)
        if not avail:
            break
        pick = heapq.heappop(avail)
        rank[pick] = len(rank)
    if len(rank) < len(enqs):
        stuck = min(e for e in enqs if e not in rank)
        raise EnqOrderCycle(f"enqueue {stuck} lies on or behind an ordering cycle")
    return rank


class _Gate:
    """Enqueues waiting for the least ``value`` over the unranked enqueues
    of ``over`` to exceed their ``threshold``; that least value only rises
    as enqueues are ranked."""

    def __init__(self, value: dict[int, int], over: list[int], threshold: dict[int, int]):
        self.value = value
        self.order = sorted(over, key=value.get)
        self.threshold = threshold
        self.waiting = sorted(threshold, key=threshold.get)
        self.least_at = self.released = 0

    def release(self, rank: dict[int, int]) -> list[int]:
        """The waiting enqueues released since the last call."""
        while self.least_at < len(self.order) and self.order[self.least_at] in rank:
            self.least_at += 1
        least = (self.value[self.order[self.least_at]] if self.least_at < len(self.order)
                 else math.inf)
        start = self.released
        while (self.released < len(self.waiting)
               and self.threshold[self.waiting[self.released]] < least):
            self.released += 1
        return self.waiting[start:self.released]


def construct_linearization(c: History, match: Match) -> Behavior:
    """Build a legal linearization of a complete history from a witness
    match: a candidate match that breaks no aspect read through it
    (``_match_violations``).

    The caller makes that check; it is not repeated here.  Only the
    output is checked: the peel picks only precedence-maximal events and
    the result must be legal, so anything returned is a legal,
    precedence-respecting linearization of c.  A match that is not a
    witness raises ValueError (the peel finds no maximal event to pick,
    the enqueue order has a cycle, or the result is not legal), or
    harmlessly yields a linearization of c.  An incomplete c raises
    ValueError too.

    The enqueue order is extended once to a total order; events are then
    peeled off the end.  At each stage a precedence-maximal event is chosen
    that the queue could perform last: a NULL dequeue whose remaining bad
    set is empty, else the top-ranked remaining enqueue provided it is not
    consumed by a remaining dequeue, else the dequeue consuming the
    top-ranked still-matched enqueue.  Ties break to the lowest uid.

    Three facts keep each stage free of sub-histories and bad-set
    fixpoints.  An event is precedence-maximal among the remaining ones
    exactly when its response comes after the last remaining invocation;
    removals only lower that invocation, so once maximal an event stays
    maximal.  A maximal NULL dequeue precedes nothing that remains, so
    stage 0 of its bad set in the remaining sub-history is the set of
    remaining enqueues no remaining dequeue consumes, and a fixpoint that
    starts empty stays empty: it is eligible exactly when no remaining
    enqueue is unconsumed.  And the enqueue and dequeue candidates are
    single events, the top-ranked remaining enqueue and the consumer of
    the top-ranked consumed enqueue (unique, since the match is
    injective).

    Two orderings here are load-bearing.  The rank must come from the full
    history: dropping a dequeue forgets how it ordered the overlapping
    enqueues around it, so ranks recomputed on sub-histories can flip.  And
    an eligible unconsumed enqueue must be peeled before any dequeue: it
    sits behind every value still to be consumed, so a dequeue peeled past
    it would strand a NULL dequeue deeper in (a NULL dequeue is never
    eligible while an unconsumed enqueue remains beside it, which also
    means the first two pick classes cannot both be nonempty).
    """
    if not c.is_complete:
        raise ValueError("history must be complete")
    events = c.events  # in invocation order
    by_uid = {e.uid: e for e in events}
    inv_at = [pos for pos, a in enumerate(c.actions) if a.kind == INV]
    # (position, uid) of every response, last response first
    responses = [(pos, a.uid) for pos, a in enumerate(c.actions) if a.kind == RES][::-1]
    rank = _total_enq_order(c, match)
    by_rank = sorted(rank, key=rank.get)
    consumer = {e: d for d, e in match.items() if e is not None}
    consumed = set(consumer)  # enqueues whose consumer remains
    unconsumed = len(rank) - len(consumed)  # remaining enqueues not consumed
    removed: set[int] = set()
    maximal: set[int] = set()
    null_heap: list[int] = []  # maximal remaining NULL dequeues
    last_inv = len(events) - 1  # index of the last remaining invocation
    next_res = 0  # responses[:next_res] are the events known to be maximal
    top_enq = top_consumed = len(by_rank) - 1  # lazy rank pointers
    out_rev: list[Event] = []
    while len(out_rev) < len(events):
        while events[last_inv].uid in removed:
            last_inv -= 1
        while next_res < len(responses) and responses[next_res][0] > inv_at[last_inv]:
            uid = responses[next_res][1]
            maximal.add(uid)
            if by_uid[uid].is_deq and match[uid] is None:
                heapq.heappush(null_heap, uid)
            next_res += 1
        while top_enq >= 0 and by_rank[top_enq] in removed:
            top_enq -= 1
        while top_consumed >= 0 and by_rank[top_consumed] not in consumed:
            top_consumed -= 1
        e_star = by_rank[top_enq] if top_enq >= 0 else None
        d_star = consumer[by_rank[top_consumed]] if top_consumed >= 0 else None
        if not unconsumed and null_heap:
            chosen = heapq.heappop(null_heap)
        elif e_star in maximal and e_star not in consumed:
            chosen = e_star
            unconsumed -= 1
        elif d_star in maximal:
            chosen = d_star
            consumed.remove(by_rank[top_consumed])
            unconsumed += 1
        else:
            raise ValueError("no maximal event; match is not a witness")
        out_rev.append(by_uid[chosen])
        removed.add(chosen)
    witness = Behavior(reversed(out_rev))
    if not is_legal(witness):
        raise ValueError("constructed linearization is not legal; match is not a witness")
    return witness


# ---- the four violation detectors (complete histories) ----


def detect_vfresh(c: History) -> VFresh | None:
    """A dequeued value that no enqueue supplies: never enqueued at all, or
    every enqueue of it starts after the dequeue returns."""
    enq_by_value: dict[Value, list[int]] = {}
    for e in c.events:
        if e.is_enq:
            enq_by_value.setdefault(e.value, []).append(e.uid)
    for d in c.events:
        if d.is_deq and d.value is not NULL:
            sources = enq_by_value.get(d.value)
            if not sources or all(c.precedes(d.uid, e) for e in sources):
                return VFresh(d.uid)
    return None


def detect_vrepet(c: History) -> VRepet | None:
    """A non-NULL value dequeued more often than it is enqueued, and at
    least twice; the evidence is its first two dequeues."""
    deqs: dict[Value, list[int]] = {}
    enqueued: Counter | None = None  # counted once some value repeats
    for d in c.events:
        if d.is_deq and d.value is not NULL:
            ds = deqs.setdefault(d.value, [])
            ds.append(d.uid)
            if len(ds) < 2:
                continue
            if enqueued is None:
                enqueued = Counter(e.value for e in c.events if e.is_enq)
            if len(ds) > enqueued[d.value]:
                return VRepet(ds[0], ds[1])
    return None


def detect_vord(c: History) -> VOrd | None:
    """An enqueue ordered before another whose value is dequeued, while the
    earlier value is never dequeued or only by a strictly later dequeue.
    An enqueue's consumer is the last dequeue of its value."""
    last = {d.value: d.uid for d in c.events if d.is_deq}
    return _first_vord(c, {e.uid: last[e.value] for e in c.events
                           if e.is_enq and e.value in last})


def _first_vord(c: History, consumer: dict[int, int]) -> VOrd | None:
    """The first VOrd when each enqueue uid is consumed by the dequeue uid
    ``consumer`` maps it to, and unconsumed when it maps to none.

    The evidence is the first e1, then the first e2, in invocation order,
    such that e1 precedes e2, e2 is consumed, and e1 is unconsumed or d2
    precedes d1.  The e2 that e1 precedes are the enqueues invoked after
    res(e1), a suffix of the invocation order that a bisection finds.  The
    other two conditions together read res(d2) < inv(d1), where a missing
    d2 or d1 counts as the end of the history: an unconsumed e2 then never
    qualifies, and any consumed e2 does for an unconsumed e1.  So e1 has
    an e2 exactly when the suffix minimum of res(d2) is below inv(d1), and
    only the e1 that has one is scanned for its first e2.
    """
    end = len(c.actions)
    enqs = [e.uid for e in c.events if e.is_enq]
    invs = [c.inv_index(e) for e in enqs]
    key = [c.res_index(consumer[e]) if e in consumer else end for e in enqs]
    suffix_min = list(accumulate(reversed(key), min, initial=end))[::-1]
    for e1 in enqs:
        d1 = consumer.get(e1)
        bar = end if d1 is None else c.inv_index(d1)
        start = bisect_right(invs, c.res_index(e1))
        if suffix_min[start] < bar:
            j = next(j for j in range(start, len(enqs)) if key[j] < bar)
            return VOrd(e1, enqs[j], consumer[enqs[j]], d1)
    return None


def detect_vwit(c: History) -> VWit | None:
    """A NULL dequeue whose whole pending window sees a non-empty queue: at
    every prefix while it is pending, some completed enqueue has not had its
    dequeue invoked.  An enqueue's consumer is the first dequeue of its
    value, events being in invocation order."""
    first = {d.value: d.uid for d in reversed(c.events) if d.is_deq}
    return _first_vwit(c, {e.uid: first[e.value] for e in c.events
                           if e.is_enq and e.value in first})


def _first_vwit(c: History, consumer: dict[int, int]) -> VWit | None:
    """The first VWit when each enqueue uid is consumed by the dequeue uid
    ``consumer`` maps it to, and unconsumed when it maps to none.

    A completed enqueue is alive over the prefix lengths from res(e)+1 up
    to, not including, inv(consumer)+1, and to the end when unconsumed;
    these are the intervals of ``detect_pwit_covering`` in
    ``tests/lemmas.py``.  One sweep over the prefixes keeps the alive
    enqueues in a min-heap on uid, dropping dead ones lazily, and records
    the lowest alive uid at every prefix; that uid is the evidence for the
    prefix, and a NULL dequeue fires when every prefix of its window has
    one.
    """
    nulls = [d for d in c.events if d.is_deq and d.value is NULL]
    if not nulls:
        return None
    n = len(c.actions)
    ends = {e: c.inv_index(d) + 1 for e, d in consumer.items()}
    alive: list[tuple[int, int]] = []  # (uid, end of its interval)
    lowest: list[int | None] = [None] * (n + 1)  # prefix length -> evidence
    for k, a in enumerate(c.actions, start=1):
        if a.kind == RES and a.method == ENQ:
            heapq.heappush(alive, (a.uid, ends.get(a.uid, n + 1)))
        while alive and alive[0][1] <= k:
            heapq.heappop(alive)
        if alive:
            lowest[k] = alive[0][0]
    for d in nulls:
        window = lowest[c.inv_index(d.uid) + 1:c.res_index(d.uid) + 1]
        if None not in window:
            return VWit(d.uid, tuple(window))
    return None


# ---- top-level decision ----


def _match_violations(c: History, match: Match) -> Iterator[Violation]:
    """The aspects a candidate match breaks, read through the match: the
    first VFresh, the first VOrd and the first VWit, in that order, and
    nothing when the match is a witness.  Lazy, so a caller that wants
    only the first aspect computes no other.

    Each enqueue is consumed by the dequeue the match gives it, and
    unconsumed when the match gives it none.  VRepet cannot occur, since
    a candidate match is injective.  VFresh is the no-future-take clause:
    the first dequeue, in invocation order, that strictly precedes the
    enqueue it takes from.

    On a differentiated history the match is the value-derived one, so
    each aspect gives the evidence of its detector.  On any other
    history, relabel every enqueue with its uid as value and every
    dequeue with the uid it is matched to.  That gives a differentiated
    history with the same precedes whose one match is this one, and it
    is linearizable exactly when this function yields nothing.
    """
    for d in c.events:
        if d.is_deq and (e := match[d.uid]) is not None and c.precedes(d.uid, e):
            yield VFresh(d.uid)
            break
    consumer = {e: d for d, e in match.items() if e is not None}
    if (v := _first_vord(c, consumer)) is not None:
        yield v
    if (v := _first_vwit(c, consumer)) is not None:
        yield v


def detect_all(c: History) -> list[Violation]:
    """Every aspect behind a verdict's evidence: the aspects that the
    first candidate match of the drop-all-pending completion breaks, or,
    when that completion has no candidate match, its VFresh and VRepet.
    On a VIOLATION verdict the first entry is the verdict's violation."""
    d = c.remove_pending()
    match = next(candidate_matches(d.events), None)
    if match is None:
        return [v for v in (detect_vfresh(d), detect_vrepet(d)) if v is not None]
    return list(_match_violations(d, match))


def _undominated_completions(c: History) -> Iterator[History]:
    """The completions of a history that the seven rules of
    check_linearizable keep, the drop-all-pending completion first; a
    complete history is its own only completion.

    After that one, the completions come by the number k of pending
    dequeues kept, k = 0, 1, ...; for each k, the values of the kept
    dequeues run in lexicographic order over the enqueued values sorted
    by last_res, the last response of a value's enqueues, a pending one
    counting as the end of the history.  Only values with pending
    enqueues share a last_res, and no rule orders those, so a stable
    sort settles them.  Rules 2, 4 and 6, and rule 7 for the assigned
    values, hold for a prefix of an assignment whenever they hold for
    the whole, so a depth-first walk that extends only admissible
    prefixes reaches every admissible assignment, and the enumeration
    stops at the first k that admits none.

    Rule 7 is prefix-closed through rule 4.  Say v is open (returned
    fewer times than enqueued) when u is assigned, and every enqueue of
    v precedes every enqueue of u.  Only assigning v after u could close
    v, and rule 4 forbids that.  So u is admissible when its first
    invocation comes before the least last_res over the open values; a
    stack beside rule 4's keeps that bound, and a rescan updates it only
    when a budget reaches 0.  The values that completed dequeues return
    are checked at the leaf, against the values still open there.  That
    filter drops a full assignment, but k still counts as admitting it:
    a completion refuted at k may be completed at k + 1.

    Rule 6 gives a block of interchangeable dequeues its values in
    non-decreasing last_res order.  Sorting by value instead would be a
    trap: rule 4 would reject the one order tried of a multiset whose
    values run against the enqueues' real-time order.
    """
    if c.is_complete:
        yield c
        return
    pending = [e for e in c.events if e.pending]
    yield c.remove_pending()
    end = len(c.actions)
    completed_deqs = Counter(e.value for e in c.events if e.is_deq and not e.pending)
    budget = Counter(e.value for e in c.events if e.is_enq)
    budget.subtract(completed_deqs)
    deqs: list[int] = []
    joins: list[bool] = []  # joins[i]: deqs[i] is in the block of deqs[i - 1]
    # rule 4: every enqueue of v precedes every enqueue of u exactly when
    # last_res[v] < first_inv[u]; a pending enqueue responds after all
    first_inv: dict[Value, int] = {}
    last_res: dict[Value, int] = {}
    responded = -1
    for i, e in enumerate(c.events):
        if e.is_enq:
            first_inv.setdefault(e.value, c.inv_index(e.uid))
            res = c.res_index(e.uid)
            res = end if res is None else res
            last_res[e.value] = max(res, last_res.get(e.value, res))
        elif e.pending:
            # the events before e in invocation order are i invocations, so
            # the other actions before inv(e) are responses
            before = c.inv_index(e.uid) - i
            joins.append(before == responded)
            responded = before
            deqs.append(e.uid)
    # a stable sort: values that share last_res, the end of the history,
    # keep the order of their first enqueues
    order = sorted([v for v, n in budget.items() if n > 0], key=last_res.__getitem__)
    # rule 7 for the values completed dequeues return
    done_bar = max((first_inv[v] for v in completed_deqs if v in first_inv), default=-1)

    def least_open() -> int:
        """The least last_res of a value returned fewer times than enqueued."""
        return next((last_res[v] for v in order if budget[v] > 0), end)

    def completion(assigned: list[Value]) -> History:
        returned = set(completed_deqs).union(assigned)
        keep = {e.uid for e in pending if e.is_enq and e.value in returned}
        result = dict(zip(deqs, assigned))
        keep.update(result)
        return c.completion([e.uid for e in pending if e.uid not in keep],
                            [enq_res(e.uid) if e.is_enq else deq_res(e.uid, result[e.uid])
                             for e in pending if e.uid in keep])

    low = least_open()
    if done_bar < low and any(e.is_enq and e.value in completed_deqs for e in pending):
        yield completion([])  # k = 0 differs from drop-all by rule 5
    for k in range(1, len(deqs) + 1):
        found = False
        chosen: list[Value] = []
        bars = [-1]  # bars[i]: the latest first_inv among chosen[:i]
        lows = [low]  # lows[i]: least_open() once chosen[:i] is assigned
        stack = [iter(order)]
        while stack:
            for v in stack[-1]:
                if budget[v] > 0 and last_res[v] > bars[-1] and first_inv[v] < lows[-1]:
                    break
            else:
                stack.pop()
                if chosen:
                    budget[chosen.pop()] += 1
                    bars.pop()
                    lows.pop()
                continue
            chosen.append(v)
            budget[v] -= 1
            bars.append(max(bars[-1], first_inv[v]))
            lows.append(least_open() if not budget[v] and last_res[v] == lows[-1] else lows[-1])
            if len(chosen) < k:
                # rule 6: a dequeue in the block of the last one takes no
                # value ranked below the last one's
                stack.append(iter(order[order.index(v) if joins[len(chosen)] else 0:]))
                continue
            found = True
            if done_bar < lows[-1]:
                yield completion(chosen)
            stack.append(iter(()))  # a full assignment extends no further
        if not found:
            return


def check_linearizable(c: History, *, build_witness: bool = True) -> Verdict:
    """Decide linearizability of a history.

    A history is linearizable when some completion is, and a complete
    history is its own only completion.  One loop takes every candidate
    match of every undominated completion through ``_match_violations``.
    The first match that breaks no aspect is a witness, and the verdict
    carries the linearization built from it (unless build_witness is
    off).  Otherwise the verdict carries the first violation seen, which
    is that of the drop-all-pending completion: the violation of its
    first candidate match, or, when it has none, the VFresh or VRepet
    that explains why.

    Only the completions that no other completion dominates are checked;
    C dominates C' when C is linearizable whenever C' is.  Every appended
    response follows every invocation, so a completed pending event
    precedes nothing.  Seven rules leave out completions that are
    dominated, never linearizable, or isomorphic to one that is kept.
    Below, last_res[v] is the last response of an enqueue of v, a pending
    one counting as the end of the history, and first_inv[v] the first
    invocation of one; every enqueue of v precedes every enqueue of u
    exactly when last_res[v] < first_inv[u].

    1. A pending dequeue never returns NULL: removing a deq(NULL) from a
       legal sequence leaves it legal, so dropping the dequeue dominates.
    2. A value is returned at most as often as it is enqueued, counting
       completed dequeues, pending enqueues and the pending dequeues
       assigned so far: a completion past that count is never legal.
    3. The pending dequeues kept are the k earliest-invoked ones, for
       k = 0..P: an earlier invocation has a subset of the predecessors,
       so it can take the place and value of a later one in a
       linearization.
    4. Kept dequeues d_1..d_k, in invocation order, with values v_1..v_k
       are skipped when, for some i < j, every enqueue of v_j precedes
       every enqueue of v_i: swapping the values of two kept dequeues a
       linearization orders against their invocations (rule 3's swap)
       puts them in invocation order, where FIFO puts enq(v_i) first.
    5. A pending enqueue is completed exactly when some dequeue returns
       its value: an enqueue of a value nothing returns is never
       consumed, so removing it keeps a linearization legal, and a
       completed enqueue can always go last, so keeping it dominates.
    6. Kept pending dequeues with no response between their invocations
       form a block, and a block takes its values in non-decreasing
       last_res order, ties in one fixed order.  The dequeues of a
       block have the same predecessors and precede nothing, so
       permuting their values gives an isomorphic completion; a block
       takes a multiset.  The order breaks no rule 4 pair inside the
       block, since last_res[v_j] >= last_res[v_i] > first_inv[v_i], and
       a permutation inside blocks keeps the pairs across them.
       Ordering by value instead is a trap: rule 4 rejects the one
       permutation of a multiset tried whenever the values run against
       the enqueues' real-time order.
    7. When every enqueue of v precedes every enqueue of u, a completion
       that returns u returns v as often as v is enqueued: the enqueue
       that u is taken from follows every enqueue of v in a
       linearization, so under FIFO every v leaves first.  A completion
       that breaks this is never linearizable.  Under rule 4 the rule is
       decided as values are assigned: a v still short when u is
       assigned can only be assigned later, which rule 4 forbids.

    INDETERMINATE means one of two things.  Either no completion was
    linearizable and the candidate-match search of some completion with
    duplicate enqueue values passed DEFAULT_MATCH_BOUND; the reason is
    then ``more than N candidate matches``.  Or more than
    DEFAULT_COMPLETION_BOUND completions were left to check and none
    checked so far was linearizable; the reason then gives the number
    checked and the numbers of pending dequeues and distinct enqueued
    values behind them.
    """
    violation: Violation | None = None  # the first one seen
    bound: str | None = None  # why some completion's match search stopped
    for n, comp in enumerate(_undominated_completions(c)):
        if n == DEFAULT_COMPLETION_BOUND:
            deqs = sum(e.is_deq and e.pending for e in c.events)
            values = len(set(c.enq_values()))
            return Verdict(INDETERMINATE, reason=(
                f"checked {n} completions (DEFAULT_COMPLETION_BOUND), none linearizable, "
                f"and more remain: {deqs} pending dequeues, {values} distinct enqueued values"))
        try:
            for match in candidate_matches(comp.events, DEFAULT_MATCH_BOUND):
                found = next(_match_violations(comp, match), None)
                if found is None:
                    # the witness's only precondition, which
                    # construct_linearization does not check again
                    witness = construct_linearization(comp, match) if build_witness else None
                    return Verdict(LINEARIZABLE, witness=witness)
                violation = violation or found
        except SearchBoundExceeded as exc:
            bound = str(exc)
            continue
        if violation is None:
            # no completion so far had a candidate match.  Without one,
            # some value is dequeued more often than it is enqueued: never,
            # and VFresh fires, or at least twice, and VRepet fires
            violation = detect_vfresh(comp) or detect_vrepet(comp)
    if bound is not None:
        return Verdict(INDETERMINATE, reason=bound)
    return Verdict(VIOLATION, violation=violation)


# ---- independent brute-force oracle ----


class OracleBoundExceeded(RuntimeError):
    pass


def _predecessor_masks(comp: History) -> list[int]:
    """Bit j of mask i is set when event j precedes event i, numbered as
    in ``comp.events``.  Events are numbered in invocation order, so one
    pass over the actions finds them: the mask of an event is the set of
    events that have responded when it is invoked."""
    preds = []
    bit: dict[int, int] = {}
    responded = 0
    for a in comp.actions:
        if a.kind == INV:
            bit[a.uid] = 1 << len(preds)
            preds.append(responded)
        else:
            responded |= bit[a.uid]
    return preds


def _legal_linearization_exists(comp: History) -> bool:
    events = comp.events
    n = len(events)
    if n == 0:
        return True
    preds = _predecessor_masks(comp)
    # (remaining, queue) states known to reach no legal linearization
    failed: set[tuple[int, tuple[int, ...]]] = set()
    # depth-first search; a frame is [remaining, queue, untried candidates]
    stack = [[(1 << n) - 1, (), (1 << n) - 1]]
    while stack:
        frame = stack[-1]
        remaining, q, m = frame
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            if preds[i] & remaining:
                continue
            e = events[i]
            if e.is_enq:
                q2 = q + (e.value,)
            elif e.value is NULL:
                if q:
                    continue
                q2 = q
            elif q and q[0] == e.value:
                q2 = q[1:]
            else:
                continue
            rest = remaining ^ low
            if not rest:
                return True
            if (rest, q2) not in failed:
                frame[2] = m
                stack.append([rest, q2, rest])
                break
        else:
            failed.add((remaining, q))
            stack.pop()
    return False


def brute_force_linearizable(c: History, max_actions: int | None = None) -> bool:
    """Linearizability by exhaustive search, as an oracle.

    True when some completion of c has a precedence-respecting permutation
    that the queue LTS accepts.  Raises OracleBoundExceeded when the history
    is longer than max_actions.
    """
    if max_actions is not None and len(c.actions) > max_actions:
        raise OracleBoundExceeded(
            f"history has {len(c.actions)} actions; oracle bound is {max_actions}"
        )
    return any(_legal_linearization_exists(comp) for comp in c.completions())
