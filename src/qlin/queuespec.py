"""The atomic FIFO queue specification.

A *behavior* is a complete sequential history viewed as a plain sequence of
events: enq(x), deq(x), deq(NULL).  The queue itself is a labelled transition
system whose states are value sequences; a behavior is *legal* when the LTS
can replay it from the empty queue.

Legality of a behavior is equivalently captured by a *sequential witness*: a
total mapping from dequeue events to the enqueue events they take their value
from (bottom for NULL dequeues), subject to six clauses checked by
``check_sequential_witness``.  Canonical behaviors interleave each enqueue
immediately with its dequeue; ``canonicalize`` rewrites any behavior with a
valid witness into an observation-equivalent canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .history import DEQ, ENQ, NULL, Event, History, HistoryError, Value, deq_inv, deq_res, enq_inv, enq_res


class _Reject:
    _instance: "_Reject | None" = None

    def __new__(cls) -> "_Reject":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "REJECT"

    def __reduce__(self):
        return (_Reject, ())


#: Returned by lts_step when the event is not enabled.  A value, not an error.
REJECT = _Reject()

QueueState = tuple[int, ...]


class SearchBoundExceeded(RuntimeError):
    """A candidate-mapping search passed its configured bound."""


class Behavior:
    """A finite sequence of completed events with pairwise-distinct uids."""

    __slots__ = ("events", "_index")

    def __init__(self, events: Iterable[Event] = ()):
        evs = tuple(events)
        index: dict[int, int] = {}
        for pos, e in enumerate(evs):
            if e.pending:
                raise HistoryError(f"uid {e.uid} is pending; behaviors are complete")
            if e.uid in index:
                raise HistoryError(f"duplicate uid {e.uid} in behavior")
            if e.is_enq and not isinstance(e.value, int):
                raise HistoryError(f"enqueue {e.uid} must carry an int")
            index[e.uid] = pos
        object.__setattr__(self, "events", evs)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Behavior is immutable")

    def index(self, uid: int) -> int:
        return self._index[uid]

    def enq_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.is_enq)

    def deq_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.is_deq)

    def enq_values(self) -> tuple[Value, ...]:
        return tuple(e.value for e in self.events if e.is_enq)

    def deq_values(self) -> tuple[Value, ...]:
        return tuple(e.value for e in self.events if e.is_deq)

    def to_history(self) -> History:
        acts = []
        for e in self.events:
            if e.is_enq:
                acts += [enq_inv(e.uid, e.value), enq_res(e.uid)]
            else:
                acts += [deq_inv(e.uid), deq_res(e.uid, e.value)]
        return History(acts)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Behavior) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        parts = []
        for e in self.events:
            parts.append(f"{e.method}^{e.uid}({e.value})")
        return "Behavior[" + " ".join(parts) + "]"


def behavior_of(c: History) -> Behavior:
    """View a complete sequential history as a behavior."""
    if not c.is_complete:
        raise HistoryError("history has pending events")
    if not c.is_sequential:
        raise HistoryError("history is not sequential")
    return Behavior(c.events)


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


def replay(b: Behavior, initial: QueueState = ()) -> QueueState | _Reject:
    q: QueueState | _Reject = initial
    for e in b.events:
        q = lts_step(q, e)
        if q is REJECT:
            return REJECT
    return q


def is_legal(b: Behavior) -> bool:
    """True when the LTS accepts the behavior from the empty queue."""
    return replay(b) is not REJECT


# ---- sequential witnesses ----

# A witness maps each dequeue uid to the uid of the enqueue it consumes,
# or to None for a NULL dequeue.
Witness = dict[int, int | None]

_CLAUSES = ("i", "ii", "iii", "iv", "v", "vi")


def check_sequential_witness(b: Behavior, mu: Witness) -> str | None:
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
    deqs = b.deq_events()
    enqs = b.enq_events()
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
        if not b.index(e.uid) < b.index(d.uid):
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
        tpos = b.index(target)
        for e in enqs:
            if b.index(e.uid) < tpos:
                pre = inverse.get(e.uid)
                if pre is None or not b.index(pre) < b.index(d.uid):
                    return "v"
    # vi
    for d in deqs:
        if mu[d.uid] is not None:
            continue
        dpos = b.index(d.uid)
        n_enq = sum(1 for e in enqs if b.index(e.uid) < dpos)
        n_deq = sum(1 for d2 in deqs if b.index(d2.uid) < dpos and mu[d2.uid] is not None)
        if n_enq != n_deq:
            return "vi"
    return None


def candidate_matches(events: Iterable[Event], bound: int = 10_000) -> Iterator[Witness]:
    """Every value-respecting injective match of the dequeues among
    ``events`` to its enqueues, NULL dequeues to bottom.

    When every value is enqueued at most once this yields at most the
    single value-derived match.  Raises SearchBoundExceeded after
    ``bound`` full candidates.
    """
    events = tuple(events)
    deqs = [d for d in events if d.is_deq and d.value is not NULL]
    acc: Witness = {d.uid: None for d in events if d.is_deq and d.value is NULL}
    by_value: dict[Value, list[int]] = {}
    for e in events:
        if e.is_enq:
            by_value.setdefault(e.value, []).append(e.uid)
    used: set[int] = set()
    count = 0
    # one iterator per assigned dequeue, over the enqueues it may take
    stack: list[Iterator[int]] = []
    while True:
        if len(stack) == len(deqs):
            count += 1
            if count > bound:
                raise SearchBoundExceeded(f"more than {bound} candidate matches")
            yield dict(acc)
        else:
            stack.append(iter(by_value.get(deqs[len(stack)].value, ())))
        # move the deepest dequeue to its next free enqueue, backtracking
        # past the dequeues that have none left
        while stack:
            d = deqs[len(stack) - 1].uid
            if d in acc:
                used.remove(acc.pop(d))
            euid = next((e for e in stack[-1] if e not in used), None)
            if euid is not None:
                acc[d] = euid
                used.add(euid)
                break
            stack.pop()
        else:
            return


def find_sequential_witness(b: Behavior, max_candidates: int = 10_000) -> Witness | None:
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
    return b1.enq_values() == b2.enq_values() and b1.deq_values() == b2.deq_values()


def canonicalize(b: Behavior, mu: Witness) -> Behavior:
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
