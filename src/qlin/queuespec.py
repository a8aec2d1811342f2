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

from itertools import count
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

    A dequeue takes an enqueue of its own value, so a match is one
    injective map per value, each chosen apart from the others.  A
    value's map is read off one digit per dequeue, in invocation order:
    the digit picks among the enqueues of the value, in invocation order,
    that its earlier dequeues left.  So a digit's radix is the number
    left, and it does not depend on the other digits.  When some value is
    dequeued more often than it is enqueued, some radix is 0 and there is
    no match.  NULL dequeues and the digits of radix 1 (the values
    enqueued once among them) are fixed; the others turn like an
    odometer, the last dequeue's fastest.  So the first match gives each
    value's dequeues, in invocation order, its first enqueues.  Raises
    SearchBoundExceeded after ``bound`` full candidates.

    The bound caps the work, not only the output: every turn gives a
    match, and holds no more than the digits and the enqueues.
    """
    nulls: Match = {}
    deqs: list[Event] = []  # every other dequeue, in invocation order
    enqs: dict[Value, list[int]] = {}
    for e in events:
        if e.is_enq:
            enqs.setdefault(e.value, []).append(e.uid)
        elif e.value is NULL:
            nulls[e.uid] = None
        else:
            deqs.append(e)
    radix: list[int] = []
    left = {v: len(es) for v, es in enqs.items()}
    for d in deqs:
        radix.append(left.get(d.value, 0))
        left[d.value] = radix[-1] - 1
    if 0 in radix:
        return
    digits = [0] * len(deqs)
    turning = [i for i, r in enumerate(radix) if r > 1]
    for n in count(1):
        if n > bound:
            raise SearchBoundExceeded(f"more than {bound} candidate matches")
        free = {v: list(es) for v, es in enqs.items()}
        yield {**nulls, **{d.uid: free[d.value].pop(k) for d, k in zip(deqs, digits)}}
        for i in reversed(turning):
            digits[i] += 1
            if digits[i] < radix[i]:
                break
            digits[i] = 0  # run out: start over, and turn the next slower digit
        else:
            return
