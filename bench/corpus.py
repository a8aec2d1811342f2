"""Seeded history corpora whose expected verdicts hold by construction.

Histories are recorded from a simulated atomic FIFO queue: every call is
invoked, takes effect at one instant (its linearization point) and later
responds, so each recorded history is linearizable and the order of the
linearization points is a witness.  Two injectors then plant a defect
whose violation follows from the definition:

- ``swap``: exchange the results of two completed dequeues d1 -> d2 whose
  enqueues are ordered e_a -> e_b, with e_b invoked before d1 responds.
  Every linearization orders e_a before e_b and deq(b) before deq(a),
  which FIFO forbids (a VOrd violation; VFresh is ruled out by the
  invocation condition).
- ``null``: turn the last non-NULL dequeue of the linearization, of v,
  into a NULL result, where enq(v) completed before that dequeue was
  invoked.  v is then never dequeued and sits in the queue for the whole
  window of the NULL dequeue (a VWit violation).

Nothing here imports qlin: the corpus is only text, and the expectations
come from the construction, not from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LINEARIZABLE = "LINEARIZABLE"
VIOLATION = "VIOLATION"

THREADS = 4
# share of enqueues among the calls of a plain run: leaning to enqueues
# keeps NULL dequeues few, whose number otherwise swings a run's checking
# cost by a third between runs of one size
PLAIN_P_ENQ = 0.6
# check-long: action counts spread geometrically over these ranges.  The
# caps keep one pass over the corpus near 4 s, so a 25 s run times every
# history about five times; the long-NULL-window runs stop lower, since
# detect_vwit grows as about n^3.9 on them.
LONG_SIZES = (50, 400)
NULL_WINDOW_SIZES = (50, 260)
LONG_COUNT = 100
# check-pending: runs of about 24 operations cut with p dequeues pending
PENDING_COUNT = 96
PENDING_P = (1, 1, 1, 1, 2, 2, 2, 3, 3, 4)  # pending dequeues, cycled
# p -> (enqueued values, completed calls) at the cut
PENDING_SHAPE = {1: (10, 20), 2: (10, 20), 3: (7, 18), 4: (4, 16)}
PINNED_P = (1, 2, 3, 4)


@dataclass(frozen=True)
class Item:
    """One history of a corpus with the verdict its construction implies."""

    name: str
    text: str
    status: str
    kind: str | None  # violation kind of the drop-all-pending completion
    pending_deqs: int = 0


# An action is (kind, uid, method, payload); payload is the enqueued
# value, the dequeue result (None for NULL), or absent (None).


def simulate(rng: random.Random, n_ops: int, *, null_window: bool = False):
    """Record a run of n_ops calls by THREADS callers on an atomic queue.

    Returns (actions, lin): the actions in real-time order and the uids in
    linearization order.  With null_window, thread 0 invokes one dequeue
    once the queue holds ten values; the other threads lean to enqueues,
    and only enqueue while fewer than ten values are queued, until 75% of
    the calls are invoked, then invoke only dequeues until the queue is
    empty.  With at most three calls of the others in flight, some value
    whose enqueue completed and whose dequeue was not invoked stays in the
    queue until the drain, so the NULL dequeue's whole window up to there
    sees a non-empty queue.  The long dequeue takes effect there, returning
    NULL, and responds after every other call.
    """
    actions: list[tuple] = []
    lin: list[int] = []
    queue: list[int] = []
    head = 0
    busy: dict[int, list] = {}  # tid -> [uid, method, value, linearized]
    uid = value = invoked = 0
    null_uid = None
    null_done = not null_window
    callers = list(range(1, THREADS)) if null_window else list(range(THREADS))
    while True:
        if not null_done and null_uid is None and (head + 10 <= len(queue)
                                                   or invoked >= n_ops // 2):
            null_uid = uid
            busy[0] = [uid, "deq", None, False]
            actions.append(("inv", uid, "deq", None))
            uid += 1
        draining = not null_done and null_uid is not None and invoked >= 0.75 * n_ops
        if draining and head == len(queue):
            busy[0][3] = True
            lin.append(null_uid)
            null_done = True
            draining = False
        may_invoke = invoked < n_ops or draining
        choices = [t for t in callers if t in busy or may_invoke]
        if not choices:
            break
        t = rng.choice(choices)
        op = busy.get(t)
        if op is None:
            if draining:
                p = 0.0
            elif null_window:
                p = 1.0 if len(queue) - head < 10 else 0.65
            else:
                p = PLAIN_P_ENQ
            if rng.random() < p:
                value += 1
                op = [uid, "enq", value, False]
            else:
                op = [uid, "deq", None, False]
            actions.append(("inv", uid, op[1], op[2]))
            busy[t] = op
            uid += 1
            invoked += 1
        elif not op[3]:
            if op[1] == "enq":
                queue.append(op[2])
            elif head < len(queue):
                op[2] = queue[head]
                head += 1
            op[3] = True
            lin.append(op[0])
        else:
            actions.append(("res", op[0], op[1], op[2]))
            del busy[t]
    if null_window:
        actions.append(("res", null_uid, "deq", None))
    return actions, lin


def to_text(actions) -> str:
    lines = []
    for kind, uid, method, payload in actions:
        if kind == "inv":
            lines.append(f"inv {uid} enq {payload}" if method == "enq" else f"inv {uid} deq")
        elif method == "enq":
            lines.append(f"res {uid} enq")
        else:
            lines.append(f"res {uid} deq {'null' if payload is None else payload}")
    return "\n".join(lines)


def _positions(actions):
    inv, res = {}, {}
    for i, (kind, uid, _, _) in enumerate(actions):
        (inv if kind == "inv" else res)[uid] = i
    return inv, res


def _results(actions):
    """uid -> (method, value) for completed dequeues and invoked enqueues."""
    out = {}
    for kind, uid, method, payload in actions:
        if (kind == "inv") == (method == "enq"):
            out[uid] = (method, payload)
    return out


def inject_swap(rng: random.Random, actions):
    """Swap the results of two completed dequeues (see module docstring);
    None when the run offers no such pair."""
    inv, res = _positions(actions)
    ops = _results(actions)
    enq_of = {v: u for u, (m, v) in ops.items() if m == "enq"}
    deqs = [u for u, (m, v) in ops.items() if m == "deq" and v is not None]
    pairs = []
    for d1 in deqs:
        for d2 in deqs:
            if res[d1] >= inv[d2]:
                continue
            ea, eb = enq_of[ops[d1][1]], enq_of[ops[d2][1]]
            if ea in res and eb in res and res[ea] < inv[eb] and inv[eb] < res[d1]:
                pairs.append((d1, d2))
    if not pairs:
        return None
    d1, d2 = rng.choice(pairs)
    va, vb = ops[d1][1], ops[d2][1]
    swapped = {d1: vb, d2: va}
    return [
        (k, u, m, swapped[u]) if k == "res" and u in swapped else (k, u, m, p)
        for k, u, m, p in actions
    ]


def inject_null(actions, lin):
    """Make the last value-returning dequeue of the linearization return
    NULL (see module docstring); None when its enqueue had not completed
    before it was invoked."""
    inv, res = _positions(actions)
    ops = _results(actions)
    last = next((u for u in reversed(lin)
                 if ops.get(u, ("", None))[0] == "deq" and ops[u][1] is not None), None)
    if last is None:
        return None
    v = ops[last][1]
    e = next(u for u, (m, x) in ops.items() if m == "enq" and x == v)
    if not res[e] < inv[last]:
        return None
    return [(k, u, m, None) if k == "res" and u == last else (k, u, m, p)
            for k, u, m, p in actions]


def long_corpus(seed: int, count: int = LONG_COUNT, sizes: tuple[int, int] = LONG_SIZES,
                null_sizes: tuple[int, int] = NULL_WINDOW_SIZES) -> list[Item]:
    """Complete histories with action counts spread geometrically.

    Index i mod 4 fixes the shape: 0 a long-NULL-window run (sized within
    null_sizes), 1 a run with an injected defect (swap and null
    alternating), 2 and 3 plain runs (sized within sizes), so every seed
    gets the same mix of shapes and sizes.
    """
    rng = random.Random(f"check-long:{seed}")
    items = []
    for i in range(count):
        shape = i % 4
        lo, hi = null_sizes if shape == 0 else sizes
        target = round(lo * (hi / lo) ** (i / max(count - 1, 1)))
        while True:
            actions, lin = simulate(rng, max(target // 2, 2), null_window=shape == 0)
            if shape != 1:
                items.append(Item(f"long-{i}-{'nullwin' if shape == 0 else 'plain'}",
                                  to_text(actions), LINEARIZABLE, None))
                break
            defect = "swap" if i % 8 == 1 else "null"
            bad = inject_swap(rng, actions) if defect == "swap" else inject_null(actions, lin)
            if bad is not None:
                items.append(Item(f"long-{i}-{defect}", to_text(bad), VIOLATION,
                                  "vord" if defect == "swap" else "vwit"))
                break
    rng.shuffle(items)
    return items


def pending_run(rng: random.Random, p: int, n_values: int, n_done: int):
    """A THREADS-caller atomic-queue run cut at a point where exactly p
    dequeues are pending, no enqueue is, n_values enqueues were invoked
    and at least n_done calls completed.

    The run goes on at random until n_done - 4 calls completed (when every
    caller is to end pending: until n_done completed and every value was
    enqueued).  Then p callers each invoke one last dequeue, which may take effect but
    never responds, while the others carry on until n_done calls completed
    and every value was enqueued, and finish what they have in flight.
    """
    queue: list[int] = []
    head = 0
    actions: list[tuple] = []
    busy: dict[int, list] = {}  # tid -> [uid, method, value, linearized, last]
    uid = value = done = 0
    closers = None
    while True:
        if closers is None and (done >= n_done - 4 if p < THREADS
                                else done >= n_done and value == n_values):
            closers = set(rng.sample(range(THREADS), p))
        more = done < n_done or value < n_values
        if closers is not None and not more and all(
                (t in busy and busy[t][4]) if t in closers else t not in busy
                for t in range(THREADS)):
            return actions
        t = rng.randrange(THREADS)
        op = busy.get(t)
        if op is None:
            if closers is not None and t in closers:
                op = [uid, "deq", None, False, True]
            elif closers is not None and not more:
                continue
            elif value < n_values and rng.random() < 0.5:
                value += 1
                op = [uid, "enq", value, False, False]
            else:
                op = [uid, "deq", None, False, False]
            actions.append(("inv", uid, op[1], op[2]))
            busy[t] = op
            uid += 1
        elif not op[3]:
            if op[4] and rng.random() < 0.5:
                continue  # a last dequeue need not take effect
            if op[1] == "enq":
                queue.append(op[2])
            elif head < len(queue):
                op[2] = queue[head]
                head += 1
            op[3] = True
        elif not op[4]:
            actions.append(("res", op[0], op[1], op[2]))
            del busy[t]
            done += 1


def pending_corpus(seed: int, count: int = PENDING_COUNT,
                   shape: dict[int, tuple[int, int]] = PENDING_SHAPE,
                   pinned: bool = True) -> list[Item]:
    """Cut atomic-queue runs with 1-4 pending dequeues.

    The pending-dequeue count p cycles through PENDING_P, and shape[p]
    fixes the enqueued values and completed calls, so every seed gets the
    same completion-space sizes.  Odd indices carry the swap defect
    between two dequeues that completed before the cut, so every
    completion is refuted.  With pinned, the family of 8 completed
    enqueues, p pending dequeues and one NULL dequeue follows for p in
    PINNED_P.
    """
    rng = random.Random(f"check-pending:{seed}")
    items = []
    for i in range(count):
        p = PENDING_P[i % len(PENDING_P)]
        defective = i % 2 == 1
        while True:
            actions = pending_run(rng, p, *shape[p])
            if defective:
                actions = inject_swap(rng, actions)
            if actions is not None:
                break
        # no kind: the drop-all completion may lose an enqueue whose value
        # a completed dequeue returned, which makes its first violation VFresh
        items.append(Item(f"pending-{i}-p{p}{'-swap' if defective else ''}", to_text(actions),
                          VIOLATION if defective else LINEARIZABLE, None, p))
    if pinned:
        items.extend(pinned_item(p) for p in PINNED_P)
    return items


def pinned_item(p: int) -> Item:
    """8 completed enqueues, then p pending dequeues overlapping one NULL
    dequeue.  At most p < 8 values can leave, so the NULL is impossible."""
    lines = []
    for u in range(8):
        lines += [f"inv {u} enq {u + 1}", f"res {u} enq"]
    lines += [f"inv {8 + j} deq" for j in range(p)]
    lines += [f"inv {8 + p} deq", f"res {8 + p} deq null"]
    return Item(f"pinned-p{p}", "\n".join(lines), VIOLATION, "vwit", p)


def fifo_witness_ok(text: str, witness) -> bool:
    """Independent check of a witness: a sequence of (uid, method, value)
    triples, value None for NULL.

    It must hold every call of the complete history in text exactly once
    with its recorded arguments and results, replay on a FIFO queue, and
    respect real-time order: every call that responded before another was
    invoked comes first.
    """
    calls = {}
    for line in text.splitlines():
        kind, uid, method, *rest = line.split()
        uid = int(uid)
        if (kind == "inv") == (method == "enq"):
            value = None if not rest or rest[0] == "null" else int(rest[0])
            calls[uid] = (method, value)
    pos = {}
    for i, (uid, method, value) in enumerate(witness):
        if uid in pos or calls.get(uid) != (method, value):
            return False
        pos[uid] = i
    if len(pos) != len(calls):
        return False
    queue: list[int] = []
    head = 0
    for uid, method, value in witness:
        if method == "enq":
            queue.append(value)
        elif value is None:
            if head != len(queue):
                return False
        elif head == len(queue) or queue[head] != value:
            return False
        else:
            head += 1
    latest_done = -1  # highest witness position among calls responded so far
    for line in text.splitlines():
        kind, uid = line.split()[:2]
        if kind == "inv":
            if pos[int(uid)] < latest_done:
                return False
        else:
            latest_done = max(latest_done, pos[int(uid)])
    return True
