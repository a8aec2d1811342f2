"""Independent reference implementations backing the test suite.

Everything here is written directly from the definitions and kept
deliberately separate from the package internals, so that tests compare
two implementations that can actually disagree: a dead-simple list
queue for legality, brute-force searches for witnesses and coverings,
and exhaustive enumerators for small history and behavior spaces.

The checker's witness construction, VWit detector and bad sets are
kept here in their rescanning and stage-by-stage forms, the reference
for the product's sweeps, next to a seeded atomic-queue generator of
long histories to compare them on.
The fifo clause and VOrd are kept in their separate pair-scanning
forms, the reference for the one scan the checker reads both through,
next to ``check_safe``, the safety clauses that candidate matches meet
by construction, and ``reference_detect_first``, the four detectors run
in turn.  ``reference_check_linearizable`` decides a history
with pending operations through every one of its completions, the
reference for the checker's dominance pruning, which ``pinned_history``
stresses.

The last sections are the reference exploration of queue-machine
configurations on the readable model in ``qlin.hwmodel``: trace
enumeration, exact schedule counts, per-configuration reports, the
solo-run purity check and sweep, and the divergence harnesses as a
breadth-first walk over every dataclass state.  The packed kernel in
``qlin.sweep`` is the product's engine; these walk the dataclass states
instead and are what the kernel's trace counts, history sets,
violations, purity verdicts and harness reports are compared against.
``canonicalize_tokens`` maps a token sequence to its representative
under the history quotient.  ``reference_collect_histories`` walks
history collection node by node; without ``quotient`` it is the exact
collection of every distinct complete history, which only the tests
run and which the quotient collection is checked against.

The checkers of the source paper's reformulation lemmas are not
references for product code; they live in ``lemmas.py``, and
``enq_order`` from there is what the reference total order ranks by.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from itertools import permutations

from qlin.checker import (
    INDETERMINATE,
    LINEARIZABLE,
    Match,
    Verdict,
    Violation,
    VOrd,
    VWit,
    brute_force_linearizable,
    check_linearizable,
    detect_vfresh,
    detect_vord,
    detect_vrepet,
    detect_vwit,
)
from qlin.explorer import (
    VORD_V1,
    VORD_V2,
    VREPET_V,
    Counterexample,
    DivergenceReport,
    ExecutionTrace,
    induce_history,
    replay_schedule,
    vord_config,
    vrepet_config,
)
from qlin.history import (
    NULL,
    Action,
    Event,
    History,
    deq_inv,
    deq_res,
    enq_inv,
    enq_res,
    parse_history,
)
from qlin.hwmodel import (
    MUTANT_NONE,
    Config,
    DeqOp,
    EnqOp,
    HWState,
    Succ,
    _with_frame,
    classify_endpoint,
    hw_init,
    successors,
)
from qlin.queuespec import Behavior, is_legal
from qlin.sweep import _is_inv, _Kernel

from lemmas import after_set, before_set, compute_bad, enq_order, uids

ENQ, DEQ = "enq", "deq"


# ---- sequential queue, the simple way ----------------------------------------

def simple_legal(seq) -> bool:
    """Legality of a sequence of (method, value) pairs by running a list."""
    items: list[int] = []
    for method, value in seq:
        if method == ENQ:
            items.append(value)
        elif value is NULL:
            if items:
                return False
        else:
            if not items or items[0] != value:
                return False
            items.pop(0)
    return True


def behavior_seqs(max_len: int, values=(1, 2, 3)):
    """Every sequence over enq(v), deq(v), deq(NULL) up to max_len."""
    alphabet = [(ENQ, v) for v in values]
    alphabet += [(DEQ, v) for v in values]
    alphabet += [(DEQ, NULL)]
    frontier: list[tuple] = [()]
    for _ in range(max_len):
        new = [seq + (sym,) for seq in frontier for sym in alphabet]
        yield from new
        frontier = new


def seq_history(seq) -> History:
    """A sequential complete history from (method, value) pairs."""
    actions: list[Action] = []
    for uid, (method, value) in enumerate(seq):
        if method == ENQ:
            actions.append(enq_inv(uid, value))
            actions.append(enq_res(uid))
        else:
            actions.append(deq_inv(uid))
            actions.append(deq_res(uid, value))
    return History(tuple(actions))


# ---- exhaustive history enumeration ------------------------------------------

def canonical_histories(n_enq: int, n_deq: int, *, null_results: bool = True):
    """All complete differentiated histories with n_enq enqueues and n_deq
    dequeues, one representative per isomorphism class.

    Canonical form: enqueues numbered 0.. by invocation order carrying
    value rank+1, dequeues numbered n_enq.. by invocation order, results
    drawn from the enqueue values (plus NULL), and each maximal run of
    same-kind actions (invocations, responses) in ascending (method, uid)
    order.  Isomorphisms, permuting operation identity and renaming
    values bijectively while preserving real-time order, relabel exactly
    these choices, so one sequence per class survives.
    """
    results: list[History] = []
    deq_choices = [v + 1 for v in range(n_enq)] + ([NULL] if null_results else [])

    def step(actions, next_enq, next_deq, pending, last_key):
        if len(actions) == 2 * (n_enq + n_deq):
            results.append(History(tuple(actions)))
            return
        # invocations: key (0, method-rank, uid); responses: (1, ...)
        if next_enq < n_enq:
            key = (0, 0, next_enq)
            if last_key is None or last_key[0] != 0 or key > last_key:
                actions.append(enq_inv(next_enq, next_enq + 1))
                step(actions, next_enq + 1, next_deq, pending | {next_enq}, key)
                actions.pop()
        if next_deq < n_deq:
            uid = n_enq + next_deq
            key = (0, 1, uid)
            if last_key is None or last_key[0] != 0 or key > last_key:
                actions.append(deq_inv(uid))
                step(actions, next_enq, next_deq + 1, pending | {uid}, key)
                actions.pop()
        for uid in sorted(pending):
            enq = uid < n_enq
            key = (1, 0 if enq else 1, uid)
            if last_key is not None and last_key[0] == 1 and key <= last_key:
                continue
            rest = pending - {uid}
            if enq:
                actions.append(enq_res(uid))
                step(actions, next_enq, next_deq, rest, key)
                actions.pop()
            else:
                for value in deq_choices:
                    actions.append(deq_res(uid, value))
                    step(actions, next_enq, next_deq, rest, key)
                    actions.pop()

    step([], 0, 0, frozenset(), None)
    return results


def raw_histories(n_enq: int, n_deq: int):
    """Every complete differentiated history with the given operation
    counts: all interleavings, all result assignments.  Explodes fast;
    for validating the canonical enumerator at tiny sizes only."""
    results = []
    deq_choices = [v + 1 for v in range(n_enq)] + [NULL]

    def step(actions, to_invoke, pending):
        if not to_invoke and not pending:
            results.append(History(tuple(actions)))
            return
        for uid in sorted(to_invoke):
            if uid < n_enq:
                actions.append(enq_inv(uid, uid + 1))
            else:
                actions.append(deq_inv(uid))
            step(actions, to_invoke - {uid}, pending | {uid})
            actions.pop()
        for uid in sorted(pending):
            if uid < n_enq:
                actions.append(enq_res(uid))
                step(actions, to_invoke, pending - {uid})
                actions.pop()
            else:
                for value in deq_choices:
                    actions.append(deq_res(uid, value))
                    step(actions, to_invoke, pending - {uid})
                    actions.pop()

    step([], frozenset(range(n_enq + n_deq)), frozenset())
    return results


def canonical_form(c: History) -> History:
    """Map a complete differentiated history onto the quotient's normal
    form: relabel operations per method by invocation order, rename
    enqueue values by rank, sort each maximal same-kind run.  The form
    is finer than isomorphism, since the renaming reads the order inside
    a run that the sort then forgets; ``isomorphic`` groups classes.

    Raises ValueError when enqueue values repeat: equal values then
    share one rank, which is not how the quotient treats them, and the
    exact and quotient history sets of one configuration can map to
    different sets of forms."""
    if not c.is_differentiated:
        raise ValueError("canonical_form needs a differentiated history")
    enq_order = [e.uid for e in c.events if e.is_enq]
    deq_order = [e.uid for e in c.events if e.is_deq]
    relabel = {uid: i for i, uid in enumerate(enq_order)}
    relabel.update({uid: len(enq_order) + i for i, uid in enumerate(deq_order)})
    vmap = {c.event(uid).value: relabel[uid] + 1 for uid in enq_order}

    def rebuild(a: Action) -> Action:
        uid = relabel[a.uid]
        if a.kind == "inv":
            return enq_inv(uid, vmap[a.payload]) if a.method == ENQ else deq_inv(uid)
        if a.method == ENQ:
            return enq_res(uid)
        value = a.payload if a.payload is NULL else vmap[a.payload]
        return deq_res(uid, value)

    def key(a: Action):
        return (0 if a.method == ENQ else 1, a.uid)

    actions = []
    run: list[Action] = []
    for a in (rebuild(a) for a in c.actions):
        if run and run[0].kind != a.kind:
            actions.extend(sorted(run, key=key))
            run = []
        run.append(a)
    actions.extend(sorted(run, key=key))
    return History(tuple(actions))


def isomorphic(h1: History, h2: History) -> bool:
    """Brute force: some value bijection and uid bijection preserving
    methods, values, completeness and the precedes relation."""
    e1, e2 = list(h1.events), list(h2.events)
    if len(e1) != len(e2):
        return False
    v1 = sorted({e.value for e in e1 if e.is_enq})
    v2 = sorted({e.value for e in e2 if e.is_enq})
    if len(v1) != len(v2):
        return False
    for vperm in permutations(v2):
        vmap = dict(zip(v1, vperm))
        for uperm in permutations(e2):
            ok = True
            for a, b in zip(e1, uperm):
                if a.method != b.method or a.pending != b.pending:
                    ok = False
                    break
                av = a.value
                if av is not None and av is not NULL:
                    av = vmap.get(av, av)
                if av != b.value:
                    ok = False
                    break
            if not ok:
                continue
            umap = {a.uid: b.uid for a, b in zip(e1, uperm)}
            for a in e1:
                for b in e1:
                    if h1.precedes(a.uid, b.uid) != h2.precedes(umap[a.uid], umap[b.uid]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


# ---- brute-force witness and covering searches --------------------------------

def brute_alt_witness(c: History, events_in_order) -> bool:
    """The alternative witness condition, checked literally: the given
    order is legal and every prefix of it is closed downward under the
    precedes relation of c."""
    order = [e.uid for e in events_in_order]
    if sorted(order) != sorted(uids(c)):
        return False
    if not simple_legal([(e.method, e.value) for e in events_in_order]):
        return False
    placed: set[int] = set()
    for e in events_in_order:
        for other in uids(c):
            if c.precedes(other, e.uid) and other not in placed:
                return False
        placed.add(e.uid)
    return True


def brute_respects_order(c: History, events_in_order) -> bool:
    """Permutation legality plus pairwise real-time order preservation."""
    order = [e.uid for e in events_in_order]
    if sorted(order) != sorted(uids(c)):
        return False
    if not simple_legal([(e.method, e.value) for e in events_in_order]):
        return False
    pos = {uid: i for i, uid in enumerate(order)}
    return all(
        pos[a] < pos[b]
        for a in uids(c)
        for b in uids(c)
        if c.precedes(a, b)
    )


def brute_covering_exists(c: History, d_bot: int) -> bool:
    """Search all enqueue chains for one meeting the covering clauses:
    head alive just before the dequeue starts, every later link invoked
    before the dequeue returns and ordered before the previous link's
    dequeue, tail never dequeued.  Events after the dequeue are out of
    scope."""
    scope = c.restrict(u for u in uids(c) if not c.precedes(d_bot, u))
    enqs = [e.uid for e in scope.events if e.is_enq]
    deq_of = {}
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

    res_bot = scope.res_index(d_bot)

    def extend(chain):
        if chain[-1] not in deq_of:
            return True
        for e in enqs:
            if e in chain:
                continue
            if scope.inv_index(e) >= res_bot:
                continue
            if not scope.precedes(e, deq_of[chain[-1]]):
                continue
            if extend(chain + [e]):
                return True
        return False

    for head in enqs:
        if alive_after(head, scope.inv_index(d_bot)) and extend([head]):
            return True
    return False


def pwit_prime(c: History, d_bot: int) -> bool:
    """Alternative phrasing of the NULL-return justification: some prefix
    inside the dequeue's pending window has no alive completed enqueue."""
    scope = c.restrict(u for u in uids(c) if not c.precedes(d_bot, u))
    lo = scope.inv_index(d_bot) + 1
    hi = scope.res_index(d_bot)
    for k in range(lo, hi + 1):
        alive = False
        for e in scope.events:
            if not e.is_enq:
                continue
            r = scope.res_index(e.uid)
            if r is None or r >= k:
                continue
            taken = any(
                d.is_deq and d.value == e.value and scope.inv_index(d.uid) < k
                for d in scope.events
            )
            if not taken:
                alive = True
                break
        if not alive:
            return True
    return False


# ---- witness construction and VWit, the rescanning way ------------------------
#
# The checker's bad sets, peel loop, closure-based total order and VWit
# detector in their direct form: a bad set grows stage by stage to its
# fixpoint, every peel step restricts the history and recomputes
# maximality and bad sets, and VWit rescans every prefix of a NULL
# dequeue's window.  The product's sweeps must agree with these on every
# bad set, witness and piece of evidence.


def reference_compute_bad(c: History, match: Match, d_bot: int) -> frozenset[int]:
    """The bad set of a NULL dequeue, built in cumulative stages.

    Stage 0 holds every enqueue that cannot be drained before d_bot returns:
    it starts after d_bot, or its dequeue is missing or starts after d_bot.
    Each later stage adds enqueues forced behind a bad one, directly or
    through the dequeue that consumes them.  The fixpoint is reached within
    one stage per enqueue.
    """
    inverse = {e: d for d, e in match.items() if e is not None}
    enqs = [e.uid for e in c.events if e.is_enq]
    level: set[int] = set()
    for e in enqs:
        d = inverse.get(e)
        if c.precedes(d_bot, e) or d is None or c.precedes(d_bot, d):
            level.add(e)
    while True:
        new = set(level)
        for e in enqs:
            if e in level:
                continue
            d = inverse.get(e)
            for ei in level:
                if c.precedes(ei, e) or (d is not None and c.precedes(ei, d)):
                    new.add(e)
                    break
        if new == level:
            return frozenset(level)
        level = new


def reference_total_enq_order(c: History, match: Match) -> dict[int, int]:
    """Extend the enqueue order to a total order, lowest uid first among
    unconstrained enqueues.  Returns uid -> rank."""
    enqs = sorted(e.uid for e in c.events if e.is_enq)
    order = enq_order(c, match)
    preds: dict[int, set[int]] = {e: set() for e in enqs}
    for a, b in order:
        preds[b].add(a)
    rank: dict[int, int] = {}
    remaining = set(enqs)
    while remaining:
        avail = [e for e in sorted(remaining) if not preds[e] & remaining]
        pick = avail[0]
        rank[pick] = len(rank)
        remaining.remove(pick)
    return rank


def reference_construct_linearization(c: History, match: Match) -> Behavior:
    """Build a legal linearization of a complete history from a match that
    passed the safety, ordering and NULL-dequeue checks.

    The enqueue order is extended once to a total order; events are then
    peeled off the end.  At each stage a precedence-maximal event is chosen
    that the queue could perform last: a NULL dequeue whose remaining bad
    set is empty, else the top-ranked remaining enqueue provided it is not
    consumed by a remaining dequeue, else the dequeue consuming the
    top-ranked still-matched enqueue.  Ties break to the lowest uid.

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
    if (clause := check_safe(c, match)) is not None:
        raise ValueError(f"match is not safe: {clause}")
    if (clause := reference_check_ordered(c, match)) is not None:
        raise ValueError(f"match is not ordered: {clause}")
    if any(compute_bad(c, match, d) & before_set(c, d) for d, t in match.items() if t is None):
        raise ValueError("match fails the NULL-dequeue condition")
    by_uid = {e.uid: e for e in c.events}
    rank = reference_total_enq_order(c, match)
    remaining = set(by_uid)
    out_rev: list[Event] = []
    while remaining:
        sub = c.restrict(remaining)
        m = {d: e for d, e in match.items() if d in remaining}
        matched_targets = {e for e in m.values() if e is not None}
        live_ranks = [rank[u] for u in remaining if u in rank]
        e_star_rank = max(live_ranks, default=None)
        top_matched = max((rank[e] for e in matched_targets), default=None)
        null_picks: list[int] = []
        deq_picks: list[int] = []
        enq_picks: list[int] = []
        for uid in remaining:
            if after_set(sub, uid):
                continue
            ev = by_uid[uid]
            if ev.is_enq:
                if rank[uid] == e_star_rank and uid not in matched_targets:
                    enq_picks.append(uid)
            elif m[uid] is None:
                if not compute_bad(sub, m, uid):
                    null_picks.append(uid)
            elif rank[m[uid]] == top_matched:
                deq_picks.append(uid)
        for picks in (null_picks, enq_picks, deq_picks):
            if picks:
                chosen = min(picks)
                break
        else:
            raise AssertionError("no maximal event; match was not a witness")
        out_rev.append(by_uid[chosen])
        remaining.remove(chosen)
    witness = Behavior(reversed(out_rev))
    if not is_legal(witness):
        raise AssertionError("constructed linearization is not legal")
    return witness


def _alive_enq_at(c: History, prefix_len: int) -> int | None:
    """An enqueue completed within the first prefix_len actions whose
    value-matching dequeue is not invoked there; lowest uid wins."""
    best: int | None = None
    for e in c.events:
        if not e.is_enq:
            continue
        r = c.res_index(e.uid)
        if r is None or r >= prefix_len:
            continue
        taken = False
        for d in c.events:
            if d.is_deq and d.value == e.value and c.inv_index(d.uid) < prefix_len:
                taken = True
                break
        if not taken and (best is None or e.uid < best):
            best = e.uid
    return best


def reference_detect_vwit(c: History) -> VWit | None:
    """A NULL dequeue whose whole pending window sees a non-empty queue: at
    every prefix while it is pending, some completed enqueue has not had its
    dequeue invoked."""
    for d in c.events:
        if not (d.is_deq and d.value is NULL):
            continue
        lo = c.inv_index(d.uid) + 1
        hi = c.res_index(d.uid)
        alive: list[int] = []
        for k in range(lo, hi + 1):
            e = _alive_enq_at(c, k)
            if e is None:
                break
            alive.append(e)
        else:
            return VWit(d.uid, tuple(alive))
    return None


# ---- the match clauses, the pair-scanning way --------------------------------
#
# ``check_safe`` states the three safety clauses that every candidate
# match meets by construction, so the product never checks them.
# ``reference_check_ordered`` and ``reference_detect_vord`` are two
# separate scans, the fifo clause over the match and VOrd over the
# dequeued values.  The product runs one VOrd scan for both, reading the
# consumer of each enqueue from the match or from the values.
# ``reference_detect_first`` runs the four value-keyed detectors in
# turn, the evidence the product reads through a differentiated
# history's one match.


def check_safe(c: History, match: Match) -> str | None:
    """The three safety clauses; None when all hold, else the first failed
    one of: value-agreement, null-iff-bottom, injective."""
    by_uid = {e.uid: e for e in c.events}
    for d in c.events:
        if not d.is_deq:
            continue
        target = match[d.uid]
        if target is not None and by_uid[target].value != d.value:
            return "value-agreement"
    for d in c.events:
        if not d.is_deq:
            continue
        if (match[d.uid] is None) != (d.value is NULL):
            return "null-iff-bottom"
    targets = [t for t in match.values() if t is not None]
    if len(targets) != len(set(targets)):
        return "injective"
    return None


def reference_check_ordered(c: History, match: Match) -> str | None:
    """The two ordering clauses; None when both hold.

    no-future-take: a dequeue must not strictly precede the enqueue it takes
    its value from.  fifo: when an enqueue precedes the enqueue consumed by
    d2, that earlier enqueue is itself consumed, by a dequeue that d2 does
    not strictly precede.
    """
    for d, target in match.items():
        if target is not None and c.precedes(d, target):
            return "no-future-take"
    inverse = {e: d for d, e in match.items() if e is not None}
    enq_uids = [e.uid for e in c.events if e.is_enq]
    for d2, target in match.items():
        if target is None:
            continue
        for e in enq_uids:
            if c.precedes(e, target):
                d = inverse.get(e)
                if d is None or c.precedes(d2, d):
                    return "fifo"
    return None


def reference_detect_vord(c: History) -> VOrd | None:
    """An enqueue ordered before another whose value is dequeued, while the
    earlier value is never dequeued or only by a strictly later dequeue."""
    deq_by_value = {d.value: d.uid for d in c.events if d.is_deq and d.value is not NULL}
    enqs = [e for e in c.events if e.is_enq]
    for e1 in enqs:
        for e2 in enqs:
            if e1.uid == e2.uid or not c.precedes(e1.uid, e2.uid):
                continue
            d2 = deq_by_value.get(e2.value)
            if d2 is None:
                continue
            d1 = deq_by_value.get(e1.value)
            if d1 is None:
                return VOrd(e1.uid, e2.uid, d2)
            if c.precedes(d2, d1):
                return VOrd(e1.uid, e2.uid, d2, d1)
    return None


def reference_detect_first(c: History) -> Violation | None:
    """The first violation the four detectors find, tried in the order
    VFresh, VRepet, VOrd, VWit."""
    for detect in (detect_vfresh, detect_vrepet, detect_vord, detect_vwit):
        if (v := detect(c)) is not None:
            return v
    return None


# ``check_linearizable`` without dominance pruning: every completion
# ``History.completions`` yields is checked, in its order, with no
# completion bound.  The product's verdict summaries must equal these.


def reference_check_linearizable(c: History, *, build_witness: bool = True) -> Verdict:
    """Linearizability of c through every one of its completions, each
    checked on its own: the verdict of the first linearizable completion,
    else of the first whose match search stopped, else the first
    violation (that of the drop-all-pending completion)."""
    first: Verdict | None = None
    for comp in c.completions():
        v = check_linearizable(comp, build_witness=build_witness)
        if v.status == LINEARIZABLE:
            return v
        if first is None or (v.status == INDETERMINATE and first.status != INDETERMINATE):
            first = v
    return first


def pinned_history(p: int) -> History:
    """8 completed enqueues of 1..8, then p pending dequeues overlapping
    one NULL dequeue.  Linearizable exactly when p >= 8: the NULL needs
    every value gone, and only the pending dequeues can take them."""
    lines = []
    for u in range(8):
        lines += [f"inv {u} enq {u + 1}", f"res {u} enq"]
    lines += [f"inv {8 + j} deq" for j in range(p)]
    lines += [f"inv {8 + p} deq", f"res {8 + p} deq null"]
    return parse_history("\n".join(lines))


def overlapping_history(n: int, p: int) -> History:
    """F(n, p): n enqueues of 1..n, all invoked before any responds, then
    p pending dequeues invoked back to back, then a completed NULL
    dequeue.  A violation whenever p < n: the NULL needs every value
    gone, and only the pending dequeues can take them."""
    lines = [f"inv {u} enq {u + 1}" for u in range(n)] + [f"res {u} enq" for u in range(n)]
    lines += [f"inv {n + j} deq" for j in range(p)]
    lines += [f"inv {n + p} deq", f"res {n + p} deq null"]
    return parse_history("\n".join(lines))


# ---- seeded atomic-queue histories -------------------------------------------

def atomic_queue_history(rng, n_actions: int, *, null_window: bool = False,
                         enq_share: float = 0.6) -> History:
    """A complete linearizable history of at least n_actions actions by
    four callers on an atomic FIFO queue.

    Each call is invoked, takes effect at one instant and responds later,
    so the order of the effects is a linearization.  Enqueued values are
    1, 2, ... in invocation order.  With null_window, caller 0 makes one
    dequeue, invoked once six values are queued (or half the calls are
    made); the other callers enqueue whenever fewer than six values are
    queued, and once the call budget is spent they drain the queue, after
    which the long dequeue takes effect on the empty queue, returning
    NULL, and responds last.  Without it, each call is an enqueue with
    probability enq_share; at 0.5 the queue is often empty, so NULL
    dequeues are many.
    """
    budget = n_actions // 2
    actions: list[Action] = []
    queue: deque[int] = deque()
    busy: dict[int, list] = {}  # caller -> [uid, method, result, took effect]
    uid = value = invoked = 0
    null_uid: int | None = None
    callers = [1, 2, 3] if null_window else [0, 1, 2, 3]
    while True:
        if null_window and null_uid is None and (len(queue) >= 6 or 2 * invoked >= budget):
            null_uid = uid
            actions.append(deq_inv(uid))
            uid += 1
            invoked += 1
        draining = null_window and invoked >= budget
        idle_may_call = invoked < budget or draining and bool(queue)
        choices = [t for t in callers if t in busy or idle_may_call]
        if not choices:
            break
        t = rng.choice(choices)
        op = busy.get(t)
        if op is None:
            if draining:
                p_enq = 0.0
            elif null_window:
                p_enq = 1.0 if len(queue) < 6 else 0.5
            else:
                p_enq = enq_share
            if rng.random() < p_enq:
                value += 1
                op = [uid, ENQ, value, False]
                actions.append(enq_inv(uid, value))
            else:
                op = [uid, DEQ, NULL, False]
                actions.append(deq_inv(uid))
            busy[t] = op
            uid += 1
            invoked += 1
        elif not op[3]:
            if op[1] == ENQ:
                queue.append(op[2])
            elif queue:
                op[2] = queue.popleft()
            op[3] = True
        else:
            actions.append(enq_res(op[0]) if op[1] == ENQ else deq_res(op[0], op[2]))
            del busy[t]
    if null_uid is not None:
        actions.append(deq_res(null_uid, NULL))
    return History(actions)


# ---- reference exploration on the readable model ------------------------------

STATUS_COMPLETE = "COMPLETE"
STATUS_OVERFLOW = "OVERFLOW"
STATUS_BOUND_HIT = "BOUND_HIT"
STATUS_STUCK = "STUCK"


def plain_config(n_enq, n_deq, *, mutant="none", loop_bound=3, capacity=None):
    """Enqueuers of 1..n_enq and n_deq plain dequeuers, one slot per
    enqueuer unless capacity says otherwise."""
    threads = tuple(EnqOp(i + 1) for i in range(n_enq)) + tuple(DeqOp() for _ in range(n_deq))
    cap = capacity if capacity is not None else max(1, n_enq)
    return Config(threads, capacity=cap, loop_bound=loop_bound, mutant=mutant)


def _expand(config: Config, state: HWState) -> list:
    out = []
    for tid in range(len(config.threads)):
        out.extend(successors(config, state, tid))
    return out


def hw_step(config: Config, state: HWState, label: str) -> Succ:
    """Apply one labelled transition; labels come from successors."""
    tid_s, _, _ = label.partition(":")
    tid = int(tid_s)
    for succ in successors(config, state, tid):
        if succ.label == label:
            return succ
    raise ValueError(f"label {label!r} is not enabled")


def enabled_threads(config: Config, state: HWState) -> list[int]:
    return [tid for tid in range(len(config.threads)) if successors(config, state, tid)]


def enumerate_traces(config: Config, *, start: ExecutionTrace | None = None, dedup: bool = False):
    """Depth-first stream of every maximal trace of the configuration.

    With dedup on, schedules that reach an already-seen (state, emitted
    actions) pair are pruned; this drops duplicate schedules but preserves
    the set of distinct (final state, status, history) outcomes, because
    the future of a run depends only on the machine state.  Off by
    default: the raw walk visits every schedule.
    """
    if start is None:
        root = (hw_init(config), (), ())
    else:
        root = (start.final, start.schedule, start.actions)
    seen: set | None = set() if dedup else None
    stack = [root]
    while stack:
        state, schedule, actions = stack.pop()
        if seen is not None:
            key = (state, actions)
            if key in seen:
                continue
            seen.add(key)
        succs = _expand(config, state)
        if not succs:
            yield ExecutionTrace(schedule, state, classify_endpoint(config, state), actions)
            continue
        # push in reverse so lower thread ids are explored first
        for succ in reversed(succs):
            acts = actions if succ.action is None else actions + (succ.action,)
            stack.append((succ.state, schedule + (succ.label,), acts))


def count_traces(config: Config) -> Counter:
    """Exact number of maximal schedules, split by endpoint status.

    Counts paths without enumerating them: the number of maximal runs from
    a state depends only on that state, so one memoized sum per reachable
    state suffices.
    """
    memo: dict[HWState, Counter] = {}

    def walk(state: HWState) -> Counter:
        got = memo.get(state)
        if got is not None:
            return got
        succs = _expand(config, state)
        if not succs:
            result = Counter({classify_endpoint(config, state): 1})
        else:
            result = Counter()
            for succ in succs:
                result.update(walk(succ.state))
        memo[state] = result
        return result

    return walk(hw_init(config))


@dataclass(frozen=True)
class ViolationRecord:
    history: History
    verdict: Verdict
    schedule: tuple[str, ...]

    def to_lines(self) -> list[str]:
        lines = ["schedule:"]
        lines.extend(f"  {label}" for label in self.schedule)
        lines.append("history:")
        lines.extend(f"  {line}" for line in self.history.serialize().splitlines())
        lines.append(self.verdict.summary())
        return lines


@dataclass(frozen=True)
class ConfigReport:
    config: Config
    trace_counts: Counter
    distinct_complete: int
    endpoint_counts: Counter
    violations: tuple[ViolationRecord, ...]
    nodes: int
    oracle_checked: int
    oracle_disagreements: int

    @property
    def total_traces(self) -> int:
        return sum(self.trace_counts.values())

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "clean" if self.clean else f"violations={len(self.violations)}"
        parts = [
            f"EXPLORE {status}",
            f"traces={self.total_traces}",
            f"complete-histories={self.distinct_complete}",
        ]
        for name in (STATUS_COMPLETE, STATUS_OVERFLOW, STATUS_BOUND_HIT, STATUS_STUCK):
            if self.trace_counts.get(name):
                parts.append(f"{name.lower().replace('_', '-')}-traces={self.trace_counts[name]}")
        if self.oracle_checked:
            parts.append(f"oracle-checked={self.oracle_checked}")
            parts.append(f"oracle-disagreements={self.oracle_disagreements}")
        return " ".join(parts)


def check_configuration(config: Config, *, oracle: bool = False) -> ConfigReport:
    """Sweep one configuration and check every distinct complete history.

    Exploration walks (state, emitted actions) pairs breadth-first with a
    visited set; that quotient preserves the set of complete histories, and
    parent pointers recover one replayable schedule per outcome.  Raw
    schedule counts come from count_traces.  With oracle on, each distinct
    complete history is also fed to the brute-force linearization search
    and disagreements with the detector verdict are counted.
    """
    init = hw_init(config)
    root = (init, ())
    parents: dict = {root: None}
    endpoint_counts: Counter = Counter()
    complete: dict[tuple[Action, ...], tuple] = {}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        state, actions = node
        succs = _expand(config, state)
        if not succs:
            status = classify_endpoint(config, state)
            endpoint_counts[status] += 1
            if status == STATUS_COMPLETE and actions not in complete:
                complete[actions] = node
            continue
        for succ in succs:
            acts = actions if succ.action is None else actions + (succ.action,)
            child = (succ.state, acts)
            if child not in parents:
                parents[child] = (node, succ.label)
                queue.append(child)

    def schedule_of(node) -> tuple[str, ...]:
        labels: list[str] = []
        while parents[node] is not None:
            node, label = parents[node]
            labels.append(label)
        return tuple(reversed(labels))

    violations: list[ViolationRecord] = []
    oracle_checked = 0
    oracle_disagreements = 0
    for actions, node in complete.items():
        c = History(actions)
        verdict = check_linearizable(c, build_witness=False)
        if oracle:
            oracle_checked += 1
            if brute_force_linearizable(c) != (verdict.status == LINEARIZABLE):
                oracle_disagreements += 1
        if verdict.status != LINEARIZABLE:
            violations.append(ViolationRecord(c, verdict, schedule_of(node)))

    return ConfigReport(
        config=config,
        trace_counts=count_traces(config),
        distinct_complete=len(complete),
        endpoint_counts=endpoint_counts,
        violations=tuple(violations),
        nodes=len(parents),
        oracle_checked=oracle_checked,
        oracle_disagreements=oracle_disagreements,
    )


# ---- the quotient's representative token sequence ----


def canonicalize_tokens(kernel: _Kernel, tokens) -> tuple:
    """Representative of a token sequence under the quotient's moves:
    group members renamed by invocation rank, dequeued value indices
    remapped through the enqueuer renaming, then each maximal run of
    same-kind tokens sorted.  The quotient tests check that the
    quotient collection is exactly the image of the exact one under
    this map."""
    groups = kernel.emit_groups()
    rename: dict[int, int] = {}
    pools = {tids: list(tids) for tids in groups}
    for token in tokens:
        if _is_inv(token):
            tid = token[1]
            for tids, pool in pools.items():
                if tid in tids:
                    rename[tid] = pool.pop(0)
                    break
    # renaming an enqueuer renames the value it contributes
    vmap = {0: 0}
    for t in range(kernel.n):
        if kernel.is_enq[t]:
            vmap[kernel.progs[t][0]] = kernel.progs[rename.get(t, t)][0]
    renamed = [(k, rename.get(t, t), vmap[v]) for k, t, v in tokens]
    out: list = []
    run: list = []
    for token in renamed:
        if run and _is_inv(run[0]) != _is_inv(token):
            out.extend(sorted(run))
            run = []
        run.append(token)
    out.extend(sorted(run))
    return tuple(out)


# ---- reference history collection, node by node ----


def reference_collect_histories(kernel: _Kernel, *, quotient: bool, expanded=None):
    """collect_histories as a plain breadth-first walk that expands every
    (state, closed runs, open run) node on its own, so a state reached
    with several prefixes has its successors computed once per prefix.

    With quotient it walks as collect_histories does.  Without it, it is
    the exact collection the quotient is checked against: only
    identical threads are gated, every token closes its run, and every
    distinct complete history comes out in emission order.

    Given a set as expanded, it also records the (depth, state) pair of
    every node it expands: the level walk calls successors once per
    such pair.
    """
    gate_groups = kernel.emit_groups() if quotient else kernel.sym_groups

    # closed run chains: id -> (parent id, run)
    seq_next: dict = {}
    seq_parent: list = [(None, None)]
    open_ids: dict[tuple, int] = {(): 0}
    open_seqs: list[tuple] = [()]

    def intern_open(run: tuple) -> int:
        got = open_ids.get(run)
        if got is None:
            got = open_ids[run] = len(open_seqs)
            open_seqs.append(run)
        return got

    def close(cid: int, run: tuple) -> int:
        got = seq_next.get((cid, run))
        if got is None:
            got = seq_next[(cid, run)] = len(seq_parent)
            seq_parent.append((cid, run))
        return got

    init = kernel.init_state()
    state_bits = kernel.frames_sh + kernel.f_bits * kernel.n
    complete: set[tuple] = set()
    successors = kernel.successors
    seen = {init}  # key = ((cid << 14 | oid) << state_bits) | state
    queue = deque([(init, 0, 0, 0)])
    while queue:
        state, cid, oid, depth = queue.popleft()
        if expanded is not None:
            expanded.add((depth, state))
        succs = successors(state, gate_groups)
        orun = open_seqs[oid]
        if not succs:
            if kernel.classify(state) == "COMPLETE":
                runs = [orun]
                while cid:
                    cid, run = seq_parent[cid]
                    runs.append(run)
                complete.add(tuple(t for run in reversed(runs) for t in run))
            continue
        for _, _, token, ns in succs:
            if token is None:
                ncid, noid = cid, oid
            elif quotient and orun and _is_inv(orun[0]) == _is_inv(token):
                ncid, noid = cid, intern_open(tuple(sorted(orun + (token,))))
            else:
                ncid = close(cid, orun) if orun else cid
                noid = intern_open((token,))
            key = ((ncid << 14 | noid) << state_bits) | ns
            if key not in seen:
                seen.add(key)
                queue.append((ns, ncid, noid, depth + 1))
    if len(open_seqs) >= 1 << 14:
        raise AssertionError("open-run table overflowed its key field")
    return complete, len(seen)


# ---- reference purity sweep ----


def purely_blocking_check(config: Config, state: HWState, tid: int) -> str:
    """Run one thread in isolation with a fresh loop budget.

    TERMINATES when every solo run finishes the operation.  PURE when some
    run blocks but no blocked run has changed the shared state (back, items,
    scratch).  VIOLATION when a blocked run left a visible change.
    """
    start = _with_frame(state, tid, replace(state.frames[tid], iters=0))
    base = (start.back, start.items, start.scratch)
    blocked_pure = False
    seen: set[HWState] = set()
    stack = [start]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        succs = successors(config, s, tid)
        if s.frames[tid].done:
            continue
        if not succs:
            if (s.back, s.items, s.scratch) != base:
                return "VIOLATION"
            blocked_pure = True
            continue
        stack.extend(succ.state for succ in succs)
    return "PURE" if blocked_pure else "TERMINATES"



@dataclass(frozen=True)
class PurityReport:
    config: Config
    states: int
    checks: int
    outcomes: Counter
    violations: tuple[tuple[HWState, int], ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        parts = [
            "PURITY " + ("clean" if self.clean else f"violations={len(self.violations)}"),
            f"states={self.states}",
            f"checks={self.checks}",
        ]
        parts.extend(f"{k.lower()}={v}" for k, v in sorted(self.outcomes.items()))
        return " ".join(parts)


def purity_sweep(config: Config) -> PurityReport:
    """Run every invoked-but-unfinished dequeue solo from every reachable
    state and classify it.

    The solo run only depends on the shared state and that thread's frame,
    so results are memoized on exactly that projection.
    """
    init = hw_init(config)
    seen: set[HWState] = {init}
    queue = deque([init])
    memo: dict = {}
    outcomes: Counter = Counter()
    checks = 0
    violations: list[tuple[HWState, int]] = []
    while queue:
        state = queue.popleft()
        for tid, f in enumerate(state.frames):
            if not isinstance(f.op, DeqOp) or f.uid is None or f.done:
                continue
            key = (state.back, state.items, state.scratch, tid, f)
            got = memo.get(key)
            if got is None:
                got = purely_blocking_check(config, state, tid)
                memo[key] = got
            checks += 1
            outcomes[got] += 1
            if got == "VIOLATION":
                violations.append((state, tid))
        for succ in _expand(config, state):
            if succ.state not in seen:
                seen.add(succ.state)
                queue.append(succ.state)
    return PurityReport(
        config=config,
        states=len(seen),
        checks=checks,
        outcomes=outcomes,
        violations=tuple(violations),
    )


# ---- reference divergence harnesses ----


def _sweep_states(config: Config, predicates) -> tuple[dict, bool, dict]:
    """State-only breadth-first sweep.

    predicates maps a name to a state predicate that must hold everywhere;
    the first failing state per name is recorded.  State-only dedup is
    sound because each predicate reads only the machine state.  Returns
    (parents, any bound-hit endpoint, first failures).
    """
    init = hw_init(config)
    parents: dict[HWState, tuple | None] = {init: None}
    failures: dict[str, HWState] = {}
    bound_hit = False
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for name, pred in predicates.items():
            if name not in failures and not pred(state):
                failures[name] = state
        succs = _expand(config, state)
        if not succs and classify_endpoint(config, state) == "BOUND_HIT":
            bound_hit = True
        for succ in succs:
            if succ.state not in parents:
                parents[succ.state] = (state, succ.label)
                queue.append(succ.state)
    return parents, bound_hit, failures


def _state_schedule(parents: dict, state: HWState) -> tuple[str, ...]:
    labels: list[str] = []
    while parents[state] is not None:
        state, label = parents[state]
        labels.append(label)
    return tuple(reversed(labels))


def _counterexample(config: Config, parents: dict, state: HWState, note: str) -> Counterexample:
    schedule = _state_schedule(parents, state)
    trace = replay_schedule(config, schedule)
    return Counterexample(schedule, induce_history(trace), note)


def reference_divergence_vrepet(m: int = 2, k: int = 0, *,
                                loop_bound: int = 3,
                                mutant: str = MUTANT_NONE) -> DivergenceReport:
    """divergence_check_vrepet over every dataclass state of hwmodel."""
    v = VREPET_V
    config = vrepet_config(m, k, loop_bound=loop_bound, mutant=mutant)

    def terminated(state: HWState) -> int:
        return sum(
            1
            for f in state.frames
            if f.done
            and isinstance(f.op, DeqOp)
            and f.op.prophecy == v
            and f.result is not None
            and f.result is not NULL
        )

    parents, bound_hit, failures = _sweep_states(
        config, {"at-most-one": lambda s: terminated(s) <= 1}
    )
    ce = None
    if "at-most-one" in failures:
        ce = _counterexample(
            config, parents, failures["at-most-one"],
            f"two deq({v}) threads finished on one enq({v})",
        )
    return DivergenceReport(
        name="vrepet",
        params=(("v", v), ("m", m), ("k", k), ("loop_bound", loop_bound), ("mutant", mutant)),
        passed=ce is None,
        states=len(parents),
        bound_caveat=bound_hit,
        counterexample=ce,
    )


def reference_divergence_vord(k: int = 0, *,
                              loop_bound: int = 3,
                              mutant: str = MUTANT_NONE) -> DivergenceReport:
    """divergence_check_vord over every dataclass state of hwmodel."""
    v1, v2 = VORD_V1, VORD_V2
    config = vord_config(k, loop_bound=loop_bound, mutant=mutant)

    predicates = {"main-deq-blocked": lambda s: not s.frames[0].done}
    check_invariant = mutant == MUTANT_NONE

    def slot_invariant(state: HWState) -> bool:
        if not state.frames[1].done:
            return True
        for i, held in enumerate(state.items[: state.back]):
            if held == v2:
                return False
            if held == v1:
                return True
        return False

    if check_invariant:
        predicates["slot-invariant"] = slot_invariant

    parents, bound_hit, failures = _sweep_states(config, predicates)
    ce = None
    if "main-deq-blocked" in failures:
        ce = _counterexample(
            config, parents, failures["main-deq-blocked"],
            f"deq({v2}) finished although enq({v1}) came first and was never dequeued",
        )
    inv_example = None
    if "slot-invariant" in failures:
        inv_example = _counterexample(
            config, parents, failures["slot-invariant"],
            f"no slot holds {v1} below back without an earlier {v2}",
        )
    return DivergenceReport(
        name="vord",
        params=(("k", k), ("v1", v1), ("v2", v2), ("loop_bound", loop_bound), ("mutant", mutant)),
        passed=ce is None,
        states=len(parents),
        bound_caveat=bound_hit,
        counterexample=ce,
        invariant_ok=None if not check_invariant else "slot-invariant" not in failures,
        invariant_example=inv_example,
    )
