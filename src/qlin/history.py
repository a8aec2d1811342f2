"""Concurrent queue histories: actions, events, precedence, completions.

A history is a finite sequence of invocation/response actions over enqueue
and dequeue operations.  Each operation instance (an *event*) is identified
by an integer uid that ties its invocation to its response.  An event with
no response yet is *pending*.  Event ``a`` precedes event ``b`` when the
response of ``a`` occurs before the invocation of ``b``; events that are
not ordered either way overlap.

The text format, one action per line:

    inv <uid> enq <int>
    res <uid> enq
    inv <uid> deq
    res <uid> deq <int|null>

``#`` starts a comment, blank lines are ignored.

Each well-formedness rule is stated once: ``Action`` checks one action
alone (kind, method, a non-negative uid, the payload), ``History`` how
the actions fit together (one invocation and at most one response per
uid, in that order, on one method), and ``parse_history`` only what
needs the text, reporting the other two layers' errors at the line of
the action they reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


class _Null:
    """The distinguished empty-slot / empty-queue marker.

    Distinct from every integer and from ``None`` (which this package uses
    for "no payload at all").  A process-wide singleton, also under pickling.
    """

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Null)

    def __hash__(self) -> int:
        return 0x4E554C4C

    def __reduce__(self):
        return (_Null, ())


NULL = _Null()

# A queue value: a non-negative int, or NULL for "nothing".
Value = int | _Null

INV = "inv"
RES = "res"
ENQ = "enq"
DEQ = "deq"


class HistoryError(ValueError):
    """Raised for malformed histories (construction or parsing);
    ``position`` is the index of the action History rejected, if any."""

    def __init__(self, reason: str, position: int | None = None):
        super().__init__(reason)
        self.position = position


class HistoryParseError(HistoryError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


@dataclass(frozen=True)
class Action:
    """One invocation or response.

    Payload rules: enq invocations carry the enqueued int; deq responses
    carry an int or NULL; the other two kinds carry no payload (None).
    """

    kind: str
    uid: int
    method: str
    payload: Value | None = None

    def __post_init__(self) -> None:
        if self.kind not in (INV, RES):
            raise HistoryError(f"bad action kind {self.kind!r}")
        if self.method not in (ENQ, DEQ):
            raise HistoryError(f"bad method {self.method!r}")
        # type(x) is int: a bool is an int subclass and is refused
        if type(self.uid) is not int or self.uid < 0:
            raise HistoryError(f"uid must be a non-negative int, got {self.uid!r}")
        if self.kind == INV and self.method == ENQ:
            if type(self.payload) is not int or self.payload < 0:
                raise HistoryError("enq invocation needs a non-negative int payload, "
                                   f"got {self.payload!r}")
        elif self.kind == RES and self.method == DEQ:
            ok = self.payload is NULL or (type(self.payload) is int and self.payload >= 0)
            if not ok:
                raise HistoryError("deq response needs a non-negative int or NULL payload, "
                                   f"got {self.payload!r}")
        elif self.payload is not None:
            raise HistoryError(f"{self.kind} {self.method} carries no payload")

    def serialize(self) -> str:
        if self.kind == INV and self.method == ENQ:
            return f"inv {self.uid} enq {self.payload}"
        if self.kind == RES and self.method == DEQ:
            val = "null" if self.payload is NULL else str(self.payload)
            return f"res {self.uid} deq {val}"
        return f"{self.kind} {self.uid} {self.method}"


def enq_inv(uid: int, value: int) -> Action:
    return Action(INV, uid, ENQ, value)


def enq_res(uid: int) -> Action:
    return Action(RES, uid, ENQ)


def deq_inv(uid: int) -> Action:
    return Action(INV, uid, DEQ)


def deq_res(uid: int, value: Value) -> Action:
    return Action(RES, uid, DEQ, value)


@dataclass(frozen=True)
class Event:
    """One operation instance, derived from its invocation/response pair.

    ``value`` is the enqueue argument or the dequeue result; it is None for
    a pending dequeue, whose result does not exist yet.
    """

    uid: int
    method: str
    value: Value | None
    pending: bool

    @property
    def is_enq(self) -> bool:
        return self.method == ENQ

    @property
    def is_deq(self) -> bool:
        return self.method == DEQ


class History:
    """An immutable, well-formed action sequence.

    Well-formedness: every uid appears in at most one invocation and at most
    one response, a response follows its invocation, and both actions of a
    uid agree on the method.
    """

    __slots__ = ("actions", "_inv_pos", "_res_pos", "_events", "_uid_event")

    def __init__(self, actions: Iterable[Action] = ()):
        acts = tuple(actions)
        inv_pos: dict[int, int] = {}
        res_pos: dict[int, int] = {}
        for pos, a in enumerate(acts):
            if a.kind == INV:
                if a.uid in inv_pos:
                    raise HistoryError(f"uid {a.uid} invoked twice", pos)
                inv_pos[a.uid] = pos
            else:
                if a.uid not in inv_pos:
                    raise HistoryError(f"uid {a.uid} responds before invocation", pos)
                if a.uid in res_pos:
                    raise HistoryError(f"uid {a.uid} responds twice", pos)
                invoked = acts[inv_pos[a.uid]].method
                if invoked != a.method:
                    raise HistoryError(f"uid {a.uid} method mismatch: invoked as "
                                       f"{invoked}, responds as {a.method}", pos)
                res_pos[a.uid] = pos
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "_inv_pos", inv_pos)
        object.__setattr__(self, "_res_pos", res_pos)
        events = []
        uid_event: dict[int, Event] = {}
        for uid, pos in inv_pos.items():  # filled in invocation order
            inv = acts[pos]
            pending = uid not in res_pos
            if inv.method == ENQ:
                value: Value | None = inv.payload
            else:
                value = None if pending else acts[res_pos[uid]].payload
            ev = Event(uid, inv.method, value, pending)
            events.append(ev)
            uid_event[uid] = ev
        object.__setattr__(self, "_events", tuple(events))
        object.__setattr__(self, "_uid_event", uid_event)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("History is immutable")

    # ---- basic structure ----

    @property
    def events(self) -> tuple[Event, ...]:
        """Events in invocation order."""
        return self._events

    def event(self, uid: int) -> Event:
        try:
            return self._uid_event[uid]
        except KeyError:
            raise HistoryError(f"uid {uid} not invoked in this history") from None

    def inv_index(self, uid: int) -> int:
        pos = self._inv_pos.get(uid)
        if pos is None:
            self.event(uid)  # raises: uid is not in this history
        return pos

    def res_index(self, uid: int) -> int | None:
        pos = self._res_pos.get(uid)
        if pos is None:
            self.event(uid)  # raises when uid is not in this history
        return pos

    @property
    def is_complete(self) -> bool:
        return len(self._res_pos) == len(self._inv_pos)

    @property
    def is_differentiated(self) -> bool:
        """True when enqueue arguments are pairwise distinct."""
        vals = [e.value for e in self._events if e.is_enq]
        return len(vals) == len(set(vals))

    def enq_values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self._events if e.is_enq)

    # ---- precedence ----

    def precedes(self, a: int, b: int) -> bool:
        """True when event a's response occurs before event b's invocation.
        Raises HistoryError when either uid is not in this history."""
        ra = self._res_pos.get(a)
        ib = self._inv_pos.get(b)
        if ra is not None and ib is not None:
            return ra < ib
        self.event(a)
        self.event(b)
        return False

    # ---- sub-histories and completions ----

    def restrict(self, uids: Iterable[int]) -> "History":
        """The sub-history of all actions belonging to the given uids."""
        keep = set(uids)
        return History(a for a in self.actions if a.uid in keep)

    def remove_pending(self) -> "History":
        return self.restrict(self._res_pos)

    def completions(self) -> Iterator["History"]:
        """All completions of this history.

        Each pending event is either dropped or completed by a response
        appended after the existing actions.  A pending dequeue's response
        value ranges over every value some enqueue was invoked with, plus
        NULL.  Other values could only make the completion report a
        never-enqueued result, which is never more linearizable, so this
        loses nothing.

        The first completion yielded is always the drop-everything one.
        """
        cands = tuple(sorted(set(self.enq_values()))) + (NULL,)
        pending = [e for e in self._events if e.pending]
        options: list[list[Action | None]] = []
        for e in pending:
            if e.is_enq:
                options.append([None, enq_res(e.uid)])
            else:
                options.append([None] + [deq_res(e.uid, v) for v in cands])
        for choice in itertools.product(*options):
            dropped = {e.uid for e, a in zip(pending, choice) if a is None}
            kept = [a for a in self.actions if a.uid not in dropped]
            yield History(kept + [a for a in choice if a is not None])

    # ---- plumbing ----

    def serialize(self) -> str:
        return "\n".join(a.serialize() for a in self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self.actions == other.actions

    def __hash__(self) -> int:
        return hash(self.actions)

    def __repr__(self) -> str:
        return f"History({len(self.actions)} actions, {len(self._events)} events)"


def parse_history(text: str) -> History:
    """Parse the line format into a History.

    Raises HistoryParseError carrying the 1-based line number and a
    reason.  The parser rejects what only the text shows (a wrong token
    count, an unknown kind or method, a uid or value that is not an
    integer, ``null`` as an enqueue value) at the first such line.  A
    negative uid or value is Action's error and an action out of place
    is History's, each reported at the line of the action it rejects.
    """
    actions: list[Action] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise HistoryParseError(lineno, f"expected at least 3 tokens, got {len(tokens)}")
        kind, uid_tok, method = tokens[0], tokens[1], tokens[2]
        if kind not in (INV, RES):
            raise HistoryParseError(lineno, f"unknown action kind {kind!r}")
        if method not in (ENQ, DEQ):
            raise HistoryParseError(lineno, f"unknown method {method!r}")
        try:
            uid = int(uid_tok)
        except ValueError:
            raise HistoryParseError(lineno, f"uid {uid_tok!r} is not an integer") from None
        payload: Value | None = None
        has_payload = kind == INV and method == ENQ or kind == RES and method == DEQ
        if has_payload:
            if len(tokens) != 4:
                raise HistoryParseError(lineno, f"{kind} {method} takes exactly one value")
            val_tok = tokens[3]
            if val_tok == "null":
                if method == ENQ:
                    raise HistoryParseError(lineno, "cannot enqueue null")
                payload = NULL
            else:
                try:
                    payload = int(val_tok)
                except ValueError:
                    raise HistoryParseError(lineno, f"value {val_tok!r} is not an integer or null") from None
        elif len(tokens) != 3:
            raise HistoryParseError(lineno, f"{kind} {method} takes no value")
        try:
            actions.append(Action(kind, uid, method, payload))
        except HistoryError as exc:
            raise HistoryParseError(lineno, str(exc)) from None
        linenos.append(lineno)
    try:
        return History(actions)
    except HistoryError as exc:
        raise HistoryParseError(linenos[exc.position], str(exc)) from None


def serialize_history(c: History) -> str:
    return c.serialize()
