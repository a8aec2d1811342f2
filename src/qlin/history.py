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

Only the public ``History`` constructor checks how the actions fit
together.  A history derived from one already built is well formed by
construction, so ``restrict``, ``remove_pending``, ``completion`` and
``completions`` build their result through a private index builder that
does not check again, and reuse the events whose actions they keep
unchanged.  A restriction keeps every action of a kept uid, in order, so
each uid keeps its invocation, its response if any, and its method.  A
completion drops pending uids whole and appends one response, on the
invoked method, to each pending uid it keeps.  ``completion`` checks
exactly that of its arguments, in time linear in the number of pending
events; ``completions`` and the checker's undominated completions are
built through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class Action:
    """One invocation or response.

    Payload rules: enq invocations carry the enqueued int; deq responses
    carry an int or NULL; the other two kinds carry no payload (None).
    """

    kind: str
    uid: int
    method: str
    payload: Value | None = None

    def __init__(self, kind: str, uid: int, method: str, payload: Value | None = None):
        # checked in this order: kind, method, uid, payload
        if kind != INV and kind != RES:
            raise HistoryError(f"bad action kind {kind!r}")
        if method != ENQ and method != DEQ:
            raise HistoryError(f"bad method {method!r}")
        # type(x) is int: a bool is an int subclass and is refused
        if type(uid) is not int or uid < 0:
            raise HistoryError(f"uid must be a non-negative int, got {uid!r}")
        if kind == INV and method == ENQ:
            if type(payload) is not int or payload < 0:
                raise HistoryError("enq invocation needs a non-negative int payload, "
                                   f"got {payload!r}")
        elif kind == RES and method == DEQ:
            if payload is not NULL and (type(payload) is not int or payload < 0):
                raise HistoryError("deq response needs a non-negative int or NULL payload, "
                                   f"got {payload!r}")
        elif payload is not None:
            raise HistoryError(f"{kind} {method} carries no payload")
        # the slot descriptors store past the frozen __setattr__
        _set_kind(self, kind)
        _set_uid(self, uid)
        _set_method(self, method)
        _set_payload(self, payload)

    def serialize(self) -> str:
        if self.kind == INV and self.method == ENQ:
            return f"inv {self.uid} enq {self.payload}"
        if self.kind == RES and self.method == DEQ:
            val = "null" if self.payload is NULL else str(self.payload)
            return f"res {self.uid} deq {val}"
        return f"{self.kind} {self.uid} {self.method}"


_set_kind = Action.kind.__set__
_set_uid = Action.uid.__set__
_set_method = Action.method.__set__
_set_payload = Action.payload.__set__


def enq_inv(uid: int, value: int) -> Action:
    return Action(INV, uid, ENQ, value)


def enq_res(uid: int) -> Action:
    return Action(RES, uid, ENQ)


def deq_inv(uid: int) -> Action:
    return Action(INV, uid, DEQ)


def deq_res(uid: int, value: Value) -> Action:
    return Action(RES, uid, DEQ, value)


@dataclass(frozen=True, slots=True)
class Event:
    """One operation instance, derived from its invocation/response pair.

    ``value`` is the enqueue argument or the dequeue result; it is None for
    a pending dequeue, whose result does not exist yet.  ``is_enq`` and
    ``is_deq`` follow from ``method``; they are stored, not computed,
    since the checker reads them in its inner loops, and they take no
    part in equality, hashing or the repr.
    """

    uid: int
    method: str
    value: Value | None
    pending: bool
    is_enq: bool = field(init=False, repr=False, compare=False)
    is_deq: bool = field(init=False, repr=False, compare=False)

    def __init__(self, uid: int, method: str, value: Value | None, pending: bool):
        _set_event_uid(self, uid)
        _set_event_method(self, method)
        _set_event_value(self, value)
        _set_event_pending(self, pending)
        _set_event_is_enq(self, method == ENQ)
        _set_event_is_deq(self, method == DEQ)


_set_event_uid = Event.uid.__set__
_set_event_method = Event.method.__set__
_set_event_value = Event.value.__set__
_set_event_pending = Event.pending.__set__
_set_event_is_enq = Event.is_enq.__set__
_set_event_is_deq = Event.is_deq.__set__


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
        open_method: dict[int, str] = {}  # invoked, not yet responded
        for pos, a in enumerate(acts):
            uid = a.uid
            if a.kind == INV:
                if inv_pos.setdefault(uid, pos) != pos:
                    raise HistoryError(f"uid {uid} invoked twice", pos)
                open_method[uid] = a.method
                continue
            invoked = open_method.pop(uid, None)
            if invoked is None:
                if uid in res_pos:
                    raise HistoryError(f"uid {uid} responds twice", pos)
                raise HistoryError(f"uid {uid} responds before invocation", pos)
            if invoked != a.method:
                raise HistoryError(f"uid {uid} method mismatch: invoked as "
                                   f"{invoked}, responds as {a.method}", pos)
            res_pos[uid] = pos
        self._index(acts, inv_pos, res_pos, {})

    @classmethod
    def _derived(cls, acts: tuple[Action, ...], events: dict[int, Event]) -> "History":
        """The history of acts, which must be well formed; nothing is
        checked.  An event of ``events`` is reused when its uid keeps its
        pending status in acts, so acts must carry that uid's actions
        unchanged."""
        inv_pos: dict[int, int] = {}
        res_pos: dict[int, int] = {}
        for pos, a in enumerate(acts):
            if a.kind == INV:
                inv_pos[a.uid] = pos
            else:
                res_pos[a.uid] = pos
        h = object.__new__(cls)
        h._index(acts, inv_pos, res_pos, events)
        return h

    def _index(self, acts: tuple[Action, ...], inv_pos: dict[int, int],
               res_pos: dict[int, int], reuse: dict[int, Event]) -> None:
        """Store the actions and their index tables, and make the events;
        every History, checked or derived, is built here."""
        events = []
        res_get = res_pos.get
        reuse_get = reuse.get
        for uid, pos in inv_pos.items():  # filled in invocation order
            rpos = res_get(uid)
            ev = reuse_get(uid)
            if ev is None or ev.pending != (rpos is None):
                inv = acts[pos]
                if inv.method == ENQ:
                    ev = Event(uid, ENQ, inv.payload, rpos is None)
                else:
                    ev = Event(uid, DEQ, None if rpos is None else acts[rpos].payload,
                               rpos is None)
            events.append(ev)
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "_inv_pos", inv_pos)
        object.__setattr__(self, "_res_pos", res_pos)
        object.__setattr__(self, "_events", tuple(events))
        object.__setattr__(self, "_uid_event", dict(zip(inv_pos, events)))

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
        return History._derived(tuple([a for a in self.actions if a.uid in keep]),
                                self._uid_event)

    def remove_pending(self) -> "History":
        return self.restrict(self._res_pos)

    def completion(self, dropped: Iterable[int], responses: Iterable[Action]) -> "History":
        """The completion that drops the pending events in ``dropped`` and
        appends ``responses``, in order, after the existing actions.

        Raises HistoryError unless every pending event is either dropped
        or answered by exactly one of the responses, on its own method,
        and nothing else is.
        """
        drop = set(dropped)
        resps = tuple(responses)
        answered: set[int] = set()
        for uid in drop:
            ev = self._uid_event.get(uid)
            if ev is None or not ev.pending:
                raise HistoryError(f"uid {uid} is not pending, so it cannot be dropped")
        for a in resps:
            ev = self._uid_event.get(a.uid)
            if (a.kind != RES or ev is None or not ev.pending
                    or a.uid in drop or a.uid in answered):
                raise HistoryError(f"{a.serialize()!r} does not complete a pending event")
            if a.method != ev.method:
                raise HistoryError(f"uid {a.uid} method mismatch: invoked as "
                                   f"{ev.method}, responds as {a.method}")
            answered.add(a.uid)
        if len(drop) + len(answered) != len(self._inv_pos) - len(self._res_pos):
            raise HistoryError("a completion drops or completes every pending event")
        kept = [a for a in self.actions if a.uid not in drop]
        return History._derived(tuple(kept) + resps, self._uid_event)

    def completions(self) -> Iterator["History"]:
        """All completions of this history; a complete history is its own.

        Each pending event is either dropped or completed by a response
        appended after the existing actions.  A pending dequeue's response
        value ranges over every value some enqueue was invoked with, plus
        NULL.  Other values could only make the completion report a
        never-enqueued result, which is never more linearizable, so this
        loses nothing.

        The first completion yielded is always the drop-everything one.
        """
        if self.is_complete:
            yield self
            return
        cands = tuple(sorted(set(self.enq_values()))) + (NULL,)
        pending = [e for e in self._events if e.pending]
        options: list[list[Action | None]] = []
        for e in pending:
            if e.is_enq:
                options.append([None, enq_res(e.uid)])
            else:
                options.append([None] + [deq_res(e.uid, v) for v in cands])
        for choice in itertools.product(*options):
            yield self.completion([e.uid for e, a in zip(pending, choice) if a is None],
                                  [a for a in choice if a is not None])

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
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < 3:
            raise HistoryParseError(lineno, f"expected at least 3 tokens, got {len(tokens)}")
        kind, uid_tok, method = tokens[0], tokens[1], tokens[2]
        if kind != INV and kind != RES:
            raise HistoryParseError(lineno, f"unknown action kind {kind!r}")
        if method != ENQ and method != DEQ:
            raise HistoryParseError(lineno, f"unknown method {method!r}")
        try:
            uid = int(uid_tok)
        except ValueError:
            raise HistoryParseError(lineno, f"uid {uid_tok!r} is not an integer") from None
        payload: Value | None = None
        if kind == INV and method == ENQ or kind == RES and method == DEQ:
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
