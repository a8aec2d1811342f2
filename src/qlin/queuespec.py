"""The atomic FIFO queue specification.

A *behavior* is a complete sequential history viewed as a plain sequence of
events: enq(x), deq(x), deq(NULL).  The queue itself is a labelled transition
system whose states are value sequences; a behavior is *legal* when the LTS
can replay it from the empty queue.

A *match* maps each dequeue to the enqueue it takes its value from
(bottom for NULL dequeues); ``candidate_matches`` enumerates the
value-respecting ones, which the checker tests one by one.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from .history import NULL, Event, HistoryError, Value


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


#: Returned by replay when an event is not enabled.  A value, not an error.
REJECT = _Reject()

QueueState = tuple[int, ...]


class SearchBoundExceeded(RuntimeError):
    """A candidate-mapping search passed its configured bound."""


class Behavior:
    """A finite sequence of completed events with pairwise-distinct uids."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event] = ()):
        evs = tuple(events)
        seen: set[int] = set()
        for e in evs:
            if e.pending:
                raise HistoryError(f"uid {e.uid} is pending; behaviors are complete")
            if e.uid in seen:
                raise HistoryError(f"duplicate uid {e.uid} in behavior")
            if e.is_enq and not isinstance(e.value, int):
                raise HistoryError(f"enqueue {e.uid} must carry an int")
            seen.add(e.uid)
        object.__setattr__(self, "events", evs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Behavior is immutable")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Behavior) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __str__(self) -> str:
        return " ".join(f"{e.method}^{e.uid}({e.value})" for e in self.events)

    def __repr__(self) -> str:
        return f"Behavior[{self}]"


def replay(b: Behavior, initial: QueueState = ()) -> QueueState | _Reject:
    """The queue after running b from initial, or REJECT at the first
    event the LTS does not allow.

    enq(x) appends x; deq(x) requires x at the head and removes it;
    deq(NULL) requires the empty queue and leaves it empty.  One pass
    over a list with a head index, so no step copies the queue.
    """
    items = list(initial)
    head = 0
    for e in b.events:
        if e.is_enq:
            items.append(e.value)
        elif e.value is NULL:
            if head < len(items):
                return REJECT
        elif head < len(items) and items[head] == e.value:
            head += 1
        else:
            return REJECT
    return tuple(items[head:])


def is_legal(b: Behavior) -> bool:
    """True when the LTS accepts the behavior from the empty queue."""
    return replay(b) is not REJECT


# ---- matches ----

# A match maps each dequeue uid to the uid of the enqueue it takes its
# value from, or to None for a NULL dequeue.
Match = dict[int, int | None]

# how many candidate matches a search may try before it gives up
DEFAULT_MATCH_BOUND = 10_000


def candidate_matches(events: Iterable[Event],
                      bound: int = DEFAULT_MATCH_BOUND) -> Iterator[Match]:
    """Every value-respecting injective match of the dequeues among
    ``events`` to its enqueues, NULL dequeues to bottom.

    When some value is dequeued more often than it is enqueued there is
    none, and the search is skipped.  When no value is enqueued twice
    there is at most the single value-derived match, and the search stops
    once it is yielded.  Raises SearchBoundExceeded after ``bound`` full
    candidates.

    The bound caps the work, not only the output.  Once the counts pass,
    the dequeues and the enqueues of each value form a complete bipartite
    graph with no more dequeues than enqueues, so every partial match
    extends to a full one and no branch of the search dead-ends.  Between
    two candidates the search moves each of the D dequeues at most twice,
    once back and once forward, so it takes about 2·D moves per candidate
    it yields.
    """
    events = tuple(events)
    deqs = [d for d in events if d.is_deq and d.value is not NULL]
    acc: Match = {d.uid: None for d in events if d.is_deq and d.value is NULL}
    by_value: dict[Value, list[int]] = {}
    for e in events:
        if e.is_enq:
            by_value.setdefault(e.value, []).append(e.uid)
    if any(n > len(by_value.get(v, ())) for v, n in Counter(d.value for d in deqs).items()):
        return
    unique = all(len(es) == 1 for es in by_value.values())
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
            if unique:
                return
        else:
            stack.append(iter(by_value[deqs[len(stack)].value]))
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
