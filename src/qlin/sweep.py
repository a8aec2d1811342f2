"""Exhaustive exploration of queue-machine configurations.

``qlin explore`` and ``qlin divergence`` run on this module.  The
interpreter in hwmodel is the readable specification and builds a
dataclass per transition, which caps exploration well below the sizes
the acceptance scales need.  This module implements the same transition
semantics on states packed into a single integer, in the manner of the
state compression of Holzmann's SPIN model checker, and is
cross-validated against the interpreter by the test suite (identical
history sets, trace counts, endpoint classifications, purity verdicts
and divergence reports on overlapping scales).

Scope: every configuration, under every mutant, at any capacity and
loop bound, with repeated enqueue values allowed; each packed field is
sized from the configuration.  In a plain configuration (fixed enqueue
and plain dequeue threads) thread identity is erased eagerly: operation
identifiers are reconstructed from invocation order when a history is
materialized, which is sound because no transition reads them.  Choice
threads and prophecy-instrumented dequeues, which only the divergence
harnesses in explorer use, add a per-frame uid (invocation rank) and
menu entry, since the harnesses count states that tell uids apart;
``sweep_config`` refuses them (SweepScopeError).

Every walk runs over canonical states: the frames of threads with the
same declared operation (other than the flag thread that gates choice
menus) sorted, after Ip and Dill's symmetry reduction.  Permuting such
threads maps runs to runs and keeps endpoint status, so schedule counts
come out exact, and ``_Kernel.orbit_size`` gives the number of raw
states each canonical state stands for.  A step rewrites the frame of
the thread that moves and no other, so the canonical walks put a
successor of a canonical state in canonical form by moving that one
frame to its place in its group (``_Kernel.canon_step``); ``canon``
sorts every group and serves raw states, and ``canon_map`` also returns
the thread permutation it applied.  ``first_schedule`` walks raw
states breadth-first in hwmodel's order, up to the first state that
satisfies a condition, when a replayable schedule to some state is
needed, and returns the tokens that schedule emits too: the divergence
harnesses read their counterexample histories off them, where their
own walk cannot give the schedule.

Two walks visit the canonical states.  ``count_schedules`` counts
schedules; ``sweep_config`` runs it on the stamped kernel of the
configuration with its enqueue values erased (every enqueuer enqueues
one value, and writes its invocation rank among the enqueuers in its
place), which counts the same schedules over far fewer states: the
queue moves values but never compares them (Wolper's data
independence), so no plain transition and no endpoint status reads
which value a slot or result holds, only whether it holds one, and all
enqueuers then form one symmetry group.  The ranks still tell which
enqueuer's value sits where, so the purity check reads every pending
dequeue off the same states.  ``reachable_states`` walks the
canonical states breadth-first in hwmodel's order and keeps, for each,
only the canonical state that first reached it, and whether some run
stops at the loop bound, which is all the divergence harnesses in
explorer read; they compare values, so they walk the real ones.  With
no symmetry group the walk is ``first_schedule``'s, run to the end, so
``walked_schedule`` reads first_schedule's schedule to any state off
the parents.

The sweep produces
  - exact counts of maximal schedules by endpoint status, computed by
    dynamic programming in one iterative post-order walk over the
    canonical states of the stamped, value-erased configuration; a
    state's counts are packed into one integer like the state itself,
    one field per status, each as wide as the bit length of a bound on
    the number of maximal schedules (the largest out-degree raised to
    the longest schedule's length), so summing successors adds every
    status at once;
  - a purity verdict for every reachable (shared state, pending dequeue
    frame) pair, from solo runs of the dequeue with a fresh loop budget,
    memoized on exactly that projection with the loop counter cleared,
    in one pass (``purity_scan``) over the count walk's states; each
    verdict is recorded for every real pair its stamped pair stands
    for, one per injective map of its stamps to the enqueuers, and an
    impure pair's evidence is the first raw state holding it in a
    breadth-first walk;
  - representative complete histories, at least one per isomorphism
    class, found by a breadth-first walk over (state, history prefix)
    nodes that goes one level at a time and expands each state once per
    level for all the prefixes that reached it; each prefix is an
    integer id in one table that also names the chain of runs it
    closes, and extending it by a token is one memo lookup.  The walk
    stops at tail states, where every thread has invoked and only
    responses remain, which all land in the history's last, sorted run:
    a post-order walk over tail states alone memoizes per canonical
    state the response runs that complete it, and each prefix reaching
    a state is extended by each of its runs.  A step that enables a ret
    takes the ret along, and a dequeuer's re-scan while back is final
    is a state's only step (ample sets of one, after Peled); a state's
    runs are its canonical twin's with thread ids mapped back.

History collection sorts each maximal run of same-kind actions
(adjacent invocations, adjacent responses) and renames enqueue values
by invocation rank.  Permuting adjacent same-kind actions and renaming
operations or values are isomorphisms of histories: they preserve
methods, matching values and the precedes relation, hence every checker
and oracle verdict.  The representatives therefore cover the full
history set, at least one per isomorphism class: sorting runs is finer
than isomorphism, and value renaming is skipped when two enqueuers
share a value, so a class can keep several representatives.  The test
suite checks this exhaustively at small scales against an exact
collection that keeps every distinct history.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, replace
from itertools import permutations

from .history import Action, History, deq_inv, deq_res, enq_inv, enq_res
from .hwmodel import (
    ChoiceOp,
    Config,
    DeqOp,
    EnqOp,
    MUTANT_DIRTY_SPIN,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_SKIP_SLOT_ZERO,
)

# frame program counters, same meaning as in hwmodel
_IDLE, _E1B, _E2, _D1, _D2, _RET, _DONE = range(7)

_STATUS_ORDER = ("COMPLETE", "OVERFLOW", "BOUND_HIT", "STUCK")

# token kinds: enqueue/dequeue invocation and response
_T_EINV, _T_ERES, _T_DINV, _T_DRES = range(4)


def _is_inv(token) -> bool:
    return token[0] in (_T_EINV, _T_DINV)


class SweepScopeError(ValueError):
    """The configuration needs features the packed kernel does not model."""


@dataclass(frozen=True)
class SweepViolation:
    history: History
    verdict: object
    schedule: tuple[str, ...]


@dataclass(frozen=True)
class SweepImpurity:
    """A pending dequeue whose solo run blocks after changing shared
    state, and a schedule that parks thread tid there."""

    tid: int
    schedule: tuple[str, ...]


@dataclass
class SweepReport:
    """What sweep_config found.  nodes counts history collection's work:
    its level walk's (state, prefix) nodes plus the canonical tail
    states and the tail roots it memoized (see collect_histories)."""

    trace_counts: Counter
    canonical_states: int
    nodes: int
    distinct_complete: int
    violations: tuple[SweepViolation, ...]
    oracle_checked: int
    oracle_disagreements: int
    purity_outcomes: Counter
    impure: tuple[SweepImpurity, ...]

    @property
    def purity_violations(self) -> int:
        return len(self.impure)

    @property
    def total_traces(self) -> int:
        return sum(self.trace_counts.values())

    @property
    def clean(self) -> bool:
        return not self.violations and not self.purity_violations

    def summary(self) -> str:
        status = "clean" if self.clean else f"violations={len(self.violations)}"
        parts = [
            f"SWEEP {status}",
            f"traces={self.total_traces}",
            f"complete-histories={self.distinct_complete}",
            "history-mode=quotient",
        ]
        for name in _STATUS_ORDER:
            if self.trace_counts.get(name):
                parts.append(f"{name.lower().replace('_', '-')}-traces={self.trace_counts[name]}")
        if self.oracle_checked:
            parts.append(f"oracle-checked={self.oracle_checked}")
            parts.append(f"oracle-disagreements={self.oracle_disagreements}")
        if self.purity_outcomes:
            parts.append(f"purity-violations={self.purity_violations}")
        return " ".join(parts)


class _Kernel:
    """Packed-state transition relation for one configuration.

    A state is one integer: back, then the slot array, then the
    dirty_spin scratch counter, then one frame per thread.  A frame
    holds pc, slot, rng + 1, iters, result, uid and op, in that order
    from the low bits.  Every field is as wide as the largest value the
    configuration lets it hold; slots and results store 1-based indices
    into the distinct enqueued values, with 0 for NULL.  uid is the
    invocation rank and op is 0 while a choice thread is uncommitted,
    else its 1-based menu entry; both are zero-width unless the
    configuration has choice threads or prophecy dequeues, so plain
    configurations keep thread identity out of the state.

    A stamped kernel, of a plain configuration with its enqueue values
    erased, holds stamps instead of value indices: at E1 an enqueuer
    stores 1 + the number of enqueuers already invoked, its invocation
    rank among them, in its result field, which no enqueue otherwise
    uses, and at E2 writes that stamp to its slot.  A stamped state
    then tells which enqueuer's value sits where while every enqueuer
    keeps one program, so they stay one symmetry group.
    """

    def __init__(self, config: Config, *, stamped: bool = False):
        threads = config.threads
        self.config = config
        self.n = len(threads)
        self.cap = config.capacity
        self.lb = config.loop_bound
        self.nonatomic = config.mutant == MUTANT_NONATOMIC_ENQ
        self.keep_on_swap = config.mutant == MUTANT_NO_SWAP_CLEAR
        self.dirty = config.mutant == MUTANT_DIRTY_SPIN
        self.scan_start = 1 if config.mutant == MUTANT_SKIP_SLOT_ZERO else 0

        def ops_of(op):
            return [entry for entry, _ in op.menu] if isinstance(op, ChoiceOp) else [op]

        self.values = list(dict.fromkeys(
            op.value for t in threads for op in ops_of(t) if isinstance(op, EnqOp)
        ))
        vidx = {v: i + 1 for i, v in enumerate(self.values)}

        def program(op):
            # (enqueued value index or 0 for a dequeue, predicted value
            # index or None for a plain dequeue, -1 when it never matches)
            if isinstance(op, EnqOp):
                return (vidx[op.value], None)
            return (0, None if op.prophecy is None else vidx.get(op.prophecy, -1))

        # fixed threads run one program; a choice thread's comes from its menu
        self.progs = [None if isinstance(op, ChoiceOp) else program(op) for op in threads]
        self.menus = [
            tuple((program(op), gate is not None, f"choose[{op.label()}]")
                  for op, gate in t.menu) if isinstance(t, ChoiceOp) else None
            for t in threads
        ]
        self.is_enq = [p is not None and p[0] > 0 for p in self.progs]
        self.ranked = any(p is None or p[1] is not None for p in self.progs)
        self.stamped = stamped

        # field widths: back and rng + 1 hold 0..cap, slot 0..cap-1,
        # iters 0..lb, slots and results 0..number of distinct values,
        # or of enqueuers when stamped
        back_w = self.cap.bit_length()
        slot_w = max(self.cap - 1, 0).bit_length()
        it_w = self.lb.bit_length()
        value_w = (sum(self.is_enq) if stamped else len(self.values)).bit_length()
        uid_w = max(self.n - 1, 0).bit_length() if self.ranked else 0
        op_w = max((len(m) for m in self.menus if m), default=0).bit_length()
        # the scratch counter bounds the dequeuers' NULL swaps, at most cap
        # per scan round, plus one fresh loop budget for a purity solo run
        n_deq = sum(1 for t in threads if any(isinstance(op, DeqOp) for op in ops_of(t)))
        scratch_w = ((n_deq + 1) * self.lb * self.cap).bit_length() if self.dirty else 0
        self.back_mask = (1 << back_w) - 1
        self.items_sh, self.item_w, self.item_mask = back_w, value_w, (1 << value_w) - 1
        self.scratch_sh = back_w + value_w * self.cap
        self.scratch_mask = (1 << scratch_w) - 1
        self.frames_sh = self.scratch_sh + scratch_w
        slot_sh = 3
        rng_sh = slot_sh + slot_w
        self.it_sh = rng_sh + back_w
        self.it_mask = (1 << it_w) - 1
        self.res_sh = self.it_sh + it_w
        self.uid_sh = self.res_sh + value_w
        self.op_sh = self.uid_sh + uid_w
        self.op_mask = (1 << op_w) - 1
        self.f_bits = self.op_sh + op_w
        self.f_mask = (1 << self.f_bits) - 1
        # the fields the transitions rewrite; uid and op stay put
        self.low_mask = (1 << self.uid_sh) - 1
        # what a dequeue's solo run reads: the shared fields, and its
        # frame but for the loop counter
        self.shared_mask = (1 << self.frames_sh) - 1
        self.fresh_mask = ~(self.it_mask << self.it_sh)
        self.shifts = tuple(self.frames_sh + self.f_bits * t for t in range(self.n))
        self.deq_shifts = tuple((t, sh) for t, sh in enumerate(self.shifts) if not self.is_enq[t])
        # what successors reads, unpacked in one step per call, and per
        # thread the frame shift and program, None for a choice thread's
        self.layout = (
            self.low_mask, slot_sh, (1 << slot_w) - 1, rng_sh, self.it_sh, self.it_mask,
            self.res_sh, self.items_sh, self.item_w, self.item_mask,
            self.cap, self.lb, self.scan_start,
        )
        self.plan = tuple((tid, sh, *(prog or (None, None)))
                          for tid, (sh, prog) in enumerate(zip(self.shifts, self.progs)))

        # count_schedules packs one count per endpoint status into an int,
        # count_w bits each.  A field holds every count it can reach: no
        # more maximal schedules than the largest out-degree raised to the
        # longest schedule's length.  A thread has one step at a time, or
        # one per menu entry while uncommitted.  Each enqueuer claims one
        # slot, so a dequeuer's scan round probes at most n_enq slots
        # below back, whatever the capacity; it makes lb rounds and a ret.
        n_enq = sum(1 for t in threads if any(isinstance(op, EnqOp) for op in ops_of(t)))

        def steps(op):
            if isinstance(op, EnqOp):
                return 4 if self.nonatomic else 3
            return self.lb * (1 + n_enq) + 1

        degree = sum(len(t.menu) if isinstance(t, ChoiceOp) else 1 for t in threads)
        longest = sum(1 + max(map(steps, ops_of(t))) if isinstance(t, ChoiceOp) else steps(t)
                      for t in threads)
        self.count_w = (degree ** longest).bit_length()

        # threads with identical programs are interchangeable; the flag
        # thread is not, since gates read its pc
        by_op: dict = {}
        for tid, op in enumerate(threads):
            if tid != config.flag_tid:
                by_op.setdefault(op, []).append(tid)
        self.sym_groups = tuple(
            tuple(tids) for tids in by_op.values() if len(tids) > 1
        )
        # per thread, for canon_step: its group's frame shifts and its
        # index in the group, or None for a thread in no group
        group_at: list = [None] * self.n
        for tids in self.sym_groups:
            group_shifts = tuple(self.shifts[t] for t in tids)
            for i, t in enumerate(tids):
                group_at[t] = (group_shifts, i)
        self.group_at = tuple(group_at)
        # enqueuers listed by ascending value index, for value renaming
        # in history collection; sound while no transition compares a
        # stored value with anything, so not with prophecy dequeues
        self.enq_tids = tuple(sorted(
            (t for t in range(self.n) if self.is_enq[t]),
            key=lambda t: self.progs[t][0],
        ))

    def emit_groups(self) -> tuple[tuple[int, ...], ...]:
        """Thread groups gated to invoke in member order during history
        collection: identical threads, and all enqueuers, whose values
        collection treats as interchangeable."""
        groups = list(self.sym_groups)
        if len(self.enq_tids) > 1:
            if not any(set(g) & set(self.enq_tids) for g in groups):
                groups.append(self.enq_tids)
        return tuple(groups)

    def pending_dequeues(self, state: int) -> list:
        """(pair, tid) for each dequeue pending in state, where pair is
        what a solo run of tid with a fresh loop budget reads: the
        shared fields (back, slots, scratch) and tid's frame with its
        loop counter cleared."""
        shared = state & self.shared_mask
        f_mask, fresh_mask = self.f_mask, self.fresh_mask
        return [((shared, f & fresh_mask), tid) for tid, sh in self.deq_shifts
                if (f := (state >> sh) & f_mask) & 0x7 not in (_IDLE, _DONE)]

    def real_pairs(self, pair, real: _Kernel):
        """The pending-dequeue pairs of real, the kernel of the
        configuration this stamped kernel erased, that a pair of this
        kernel stands for, packed as real.pending_dequeues packs them.

        One per injective map from the stamps the pair holds (in the
        slots below back, the only ones an enqueue writes, and in the
        frame's result) to real's enqueuers, with each such cell given
        the value of its enqueuer: the enqueuers differ in nothing but
        their values and no transition reads those, so every map is the
        rank order of some run.
        """
        shared, fresh = pair
        w, mask = self.item_w, self.item_mask
        cells = [(shared >> (self.items_sh + w * i)) & mask
                 for i in range(shared & self.back_mask)]
        res = (fresh >> self.res_sh) & mask
        stamps = sorted({*cells, res} - {0})
        scratch = (shared >> self.scratch_sh) & self.scratch_mask
        base = (shared & self.back_mask) | (scratch << real.scratch_sh)
        frame = fresh & ((1 << self.res_sh) - 1)
        values = [real.progs[t][0] for t in real.enq_tids]
        for picked in permutations(values, len(stamps)):
            value_of = {0: 0, **dict(zip(stamps, picked))}
            shared = base
            for i, held in enumerate(cells):
                shared |= value_of[held] << (real.items_sh + real.item_w * i)
            yield shared, frame | (value_of[res] << real.res_sh)

    # -- field helpers ----------------------------------------------------

    def init_state(self) -> int:
        return 0

    def canon(self, state: int) -> int:
        return self.canon_map(state)[0]

    def canon_map(self, state: int) -> tuple:
        """canon(state), and the map back to state: per thread of the
        canonical state, the thread of state whose frame it holds, or
        None when state is canonical already."""
        # sort frames within each interchangeable group
        shifts, f_mask = self.shifts, self.f_mask
        perm = None
        for tids in self.sym_groups:
            fields = sorted([((state >> shifts[t]) & f_mask, t) for t in tids])
            for t, (fbits, u) in zip(tids, fields):
                if u != t:
                    perm = perm or list(range(self.n))
                    perm[t] = u
                    sh = shifts[t]
                    state = (state & ~(f_mask << sh)) | (fbits << sh)
        return state, perm and tuple(perm)

    def canon_step(self, state: int, tid: int) -> int:
        """canon of a successor of a canonical state by a step of tid.

        A step rewrites tid's frame and shared fields, which canon does
        not move, so the other frames of tid's group are still sorted:
        the new frame moves left or right past the neighbours it no
        longer fits between, one insertion-sort step.
        """
        at = self.group_at[tid]
        if at is None:
            return state
        shifts, i = at
        f_mask = self.f_mask
        j = i
        f = (state >> shifts[i]) & f_mask
        while j and (g := (state >> shifts[j - 1]) & f_mask) > f:
            sh = shifts[j]
            state = (state & ~(f_mask << sh)) | (g << sh)
            j -= 1
        if j == i:
            last = len(shifts) - 1
            while j < last and (g := (state >> shifts[j + 1]) & f_mask) < f:
                sh = shifts[j]
                state = (state & ~(f_mask << sh)) | (g << sh)
                j += 1
        if j != i:
            sh = shifts[j]
            state = (state & ~(f_mask << sh)) | (f << sh)
        return state

    def orbit_size(self, state: int) -> int:
        """Number of states that permuting interchangeable threads makes
        of this one: per group, the multinomial of its equal frames.

        The state must be canonical: its groups' frames are then sorted,
        so equal frames sit next to each other and are counted as runs.
        Only the groups' frames are read, so the state may as well be a
        canonical state's projection onto them, its other bits cleared:
        states with the same projection have the same orbit size.
        """
        shifts, f_mask = self.shifts, self.f_mask
        size = 1
        for tids in self.sym_groups:
            prev = run = -1
            for i, t in enumerate(tids, 1):
                f = (state >> shifts[t]) & f_mask
                run = run + 1 if f == prev else 1
                prev = f
                size = size * i // run
        return size

    def _entry(self, state: int, tid: int) -> int:
        # a choice thread's menu entry, 1-based; 0 while uncommitted
        return (state >> (self.shifts[tid] + self.op_sh)) & self.op_mask

    def done(self, state: int, tid: int) -> bool:
        return (state >> self.shifts[tid]) & 0x7 == _DONE

    # -- transitions -------------------------------------------------------

    def successors(self, state: int, gate_groups=()):
        """List of (tid, instr, token, next_state), in hwmodel's order:
        by thread, then menu entry.

        instr is the instruction mnemonic used in schedule labels; token
        is None for internal steps, otherwise (kind, tid, value index)
        with the index of the value the action carries, 0 for none.

        gate_groups restricts invocations: within each listed group only
        the lowest idle member may take its first step.  Runs then
        relate one-to-one to operation-identifier histories, because
        group-internal identity is fixed by invocation order.
        """
        out = []
        (low_mask, slot_sh, slot_mask, rng_sh, it_sh, it_mask, res_sh,
         items_sh, item_w, item_mask, cap, lb, scan_start) = self.layout
        back = state & self.back_mask
        gate = self._gate(state, gate_groups) if gate_groups else None
        # invocation ranks, read off state once, when an idle thread first moves
        rank = stamp = None
        for tid, sh, vbits, pidx in self.plan:
            f = (state >> sh) & low_mask
            pc = f & 0x7
            if pc == _DONE:
                continue
            if pc == _IDLE and gate and gate.get(tid, tid) != tid:
                continue
            if vbits is None:
                # choice thread: its menu entry, or one commit per open entry
                menu = self.menus[tid]
                entry = self._entry(state, tid)
                if not entry:
                    flag = self.config.flag_tid
                    for entry, (_, gated, label) in enumerate(menu, 1):
                        if not gated or self.done(state, flag):
                            ns = state | (entry << (sh + self.op_sh))
                            out.append((tid, label, None, ns))
                    continue
                vbits, pidx = menu[entry - 1][0]
            # base is the state with the frame's moving fields cleared,
            # computed once the thread is known to move
            if vbits:
                if pc == _E2:
                    base = state ^ (f << sh)
                    ish = items_sh + item_w * ((f >> slot_sh) & slot_mask)
                    # an unstamped enqueuer's result field holds 0
                    ns = (base & ~(item_mask << ish)) | ((f >> res_sh or vbits) << ish)
                    out.append((tid, "E2", None, ns | (_RET << sh)))
                elif pc == _RET:
                    out.append(self.ret(state, tid, True))
                elif pc == _IDLE:
                    if back >= cap:
                        continue  # slot array exhausted
                    base = state ^ (f << sh)
                    if self.nonatomic:
                        ns = base | ((_E1B | (back << slot_sh)) << sh)
                    else:
                        ns = (base | ((_E2 | (back << slot_sh)) << sh)) + 1  # back += 1
                    if self.ranked:
                        if rank is None:
                            rank = self._rank(state)
                        ns |= rank << (sh + self.uid_sh)
                    if self.stamped:
                        if stamp is None:
                            stamp = self._stamp(state)
                        ns |= stamp << (sh + res_sh)
                    out.append((tid, "E1", (_T_EINV, tid, vbits), ns))
                else:  # _E1B
                    base = state ^ (f << sh)
                    # the claimed slot, and the stamp when stamped
                    nf = _E2 | (f & ((slot_mask << slot_sh) | (item_mask << res_sh)))
                    out.append((tid, "E1b", None, (base | (nf << sh)) + 1))
            elif pc == _D2:
                slot = (f >> slot_sh) & slot_mask
                ish = items_sh + item_w * slot
                held = (state >> ish) & item_mask
                if held == 0:
                    # an empty slot: move on (a prophecy dequeue's skip branch)
                    base = state ^ (f << sh)
                    if slot + 1 >= (f >> rng_sh) & self.back_mask:
                        nf = _D1 | (f & (it_mask << it_sh))
                    else:  # the next slot, which lies below back: no carry
                        nf = f + (1 << slot_sh)
                    ns = base | (nf << sh)
                    if self.dirty:
                        if (state >> self.scratch_sh) & self.scratch_mask == self.scratch_mask:
                            raise AssertionError("scratch counter overflowed its field")
                        ns += 1 << self.scratch_sh
                    out.append((tid, "D2" if pidx is None else "D2B", None, ns))
                elif pidx is None or held == pidx:
                    # take the value (a prophecy dequeue's commit branch)
                    base = state ^ (f << sh)
                    ns = base if self.keep_on_swap else base & ~(item_mask << ish)
                    ns |= (_RET | (held << res_sh)) << sh
                    out.append((tid, "D2" if pidx is None else "D2A", None, ns))
                # a prophecy dequeue facing another value blocks here
            elif pc == _RET:
                out.append(self.ret(state, tid, False))
            else:  # _IDLE or _D1
                iters = (f >> it_sh) & it_mask
                if iters >= lb:
                    continue  # loop budget exhausted
                base = state ^ (f << sh)
                nf = (iters + 1) << it_sh
                if scan_start < back:
                    nf |= _D2 | (scan_start << slot_sh) | (back << rng_sh)
                else:
                    nf |= _D1
                ns = base | (nf << sh)
                if pc == _D1:
                    out.append((tid, "D1", None, ns))
                    continue
                # an idle dequeuer's first round is its invocation
                if self.ranked:
                    if rank is None:
                        rank = self._rank(state)
                    ns |= rank << (sh + self.uid_sh)
                out.append((tid, "D1", (_T_DINV, tid, 0), ns))
        return out

    def ret(self, state: int, tid: int, enq: bool) -> tuple:
        """The response of thread tid, which sits at RET in state, as
        successors lists it: (tid, "ret", token, next state).  A frame at
        RET holds its pc and, for a dequeue, the value it took, 0 for an
        enqueue; the response moves pc on to DONE, which is RET + 1."""
        sh = self.shifts[tid]
        res = (state >> (sh + self.res_sh)) & self.item_mask
        return tid, "ret", (_T_ERES if enq else _T_DRES, tid, res), state + (1 << sh)

    def _gate(self, state: int, gate_groups) -> dict:
        # each member of a listed group -> the group's lowest idle member
        gate = {}
        for tids in gate_groups:
            for t in tids:
                if (state >> self.shifts[t]) & 0x7 == _IDLE:
                    gate.update((u, t) for u in tids)
                    break
        return gate

    def _rank(self, state: int) -> int:
        # invocation rank of the next operation: the threads already invoked
        return sum(1 for sh in self.shifts if (state >> sh) & 0x7 != _IDLE)

    def _stamp(self, state: int) -> int:
        # 1 + invocation rank of the next enqueue among the enqueuers
        return 1 + sum(1 for t in self.enq_tids if (state >> self.shifts[t]) & 0x7 != _IDLE)

    def classify(self, state: int) -> str:
        all_done = True
        overflow = bound = False
        back = state & self.back_mask
        for tid, sh in enumerate(self.shifts):
            f = (state >> sh) & self.f_mask
            pc = f & 0x7
            if pc == _DONE:
                continue
            all_done = False
            prog = self.progs[tid]
            if prog is None and (entry := self._entry(state, tid)):
                prog = self.menus[tid][entry - 1][0]
            if prog is None:
                continue  # an uncommitted choice thread
            if prog[0]:
                if pc == _IDLE and back >= self.cap:
                    overflow = True
            elif pc in (_IDLE, _D1) and ((f >> self.it_sh) & self.it_mask) >= self.lb:
                bound = True
        if all_done:
            return "COMPLETE"
        if overflow:
            return "OVERFLOW"
        if bound:
            return "BOUND_HIT"
        return "STUCK"

    # -- history materialization --------------------------------------------

    def tokens_to_history(self, tokens) -> History:
        uid_of: dict[int, int] = {}
        actions: list[Action] = []
        for kind, tid, val in tokens:
            if kind == _T_EINV:
                uid_of[tid] = len(uid_of)
                actions.append(enq_inv(uid_of[tid], self.values[val - 1]))
            elif kind == _T_ERES:
                actions.append(enq_res(uid_of[tid]))
            elif kind == _T_DINV:
                uid_of[tid] = len(uid_of)
                actions.append(deq_inv(uid_of[tid]))
            else:
                actions.append(deq_res(uid_of[tid], self.values[val - 1]))
        return History(tuple(actions))

    def find_schedule(self, tokens) -> tuple[tuple[str, ...], tuple]:
        """One schedule whose emission matches the token sequence up to
        permutations within maximal same-kind runs: (schedule, the
        tokens it emits, in emission order).

        Depth-first over raw successors, consuming tokens out of the
        current run's multiset; memoized on (state, run index, remaining
        run) so failures are not re-explored.  The literal emission
        order is tried first (each run a singleton), so sequences that
        were emitted verbatim replay verbatim; run-permuted sequences
        from the quotient fall back to multiset matching, which may emit
        a run in another order.  RuntimeError when neither finds one.
        """
        found = self._find_schedule([(t,) for t in tokens])
        if found is None:
            runs: list[tuple] = []
            for token in tokens:
                if runs and _is_inv(runs[-1][0]) == _is_inv(token):
                    runs[-1] = runs[-1] + (token,)
                else:
                    runs.append((token,))
            found = self._find_schedule(runs)
        if found is None:
            raise RuntimeError("token sequence is not realizable")
        return found

    def _find_schedule(self, runs: list) -> tuple[tuple[str, ...], tuple] | None:
        dead: set = set()
        path: list = []  # (key, untried successors) per node on the path
        steps: list = []  # (label, token) taken out of each node on the path
        node = (self.init_state(), 0, ())
        while True:
            state, idx, remaining = node
            while not remaining and idx < len(runs):
                idx, remaining = idx + 1, runs[idx]
            key = (state, idx, remaining)
            if key not in dead:
                succs = self.successors(state)
                if succs:
                    path.append((key, iter(succs)))
                elif not remaining and idx >= len(runs) and self.classify(state) == "COMPLETE":
                    return (tuple(label for label, _ in steps),
                            tuple(token for _, token in steps if token is not None))
                else:
                    dead.add(key)
            # descend along the next untried successor of the deepest node
            node = None
            while path and node is None:
                key, untried = path[-1]
                _, idx, remaining = key
                for tid, instr, token, ns in untried:
                    if token is None:
                        node = (ns, idx, remaining)
                    elif token in remaining:
                        rest = list(remaining)
                        rest.remove(token)
                        node = (ns, idx, tuple(rest))
                    else:
                        continue
                    steps[len(path) - 1:] = [(f"{tid}:{instr}", token)]
                    break
                else:
                    dead.add(key)
                    path.pop()
            if node is None:
                return None


def _breadth_first(kernel: _Kernel, stop) -> tuple[dict, int | None]:
    """Raw states breadth-first until one satisfies stop: (the step
    that first reached each state discovered, as (parent, tid, instr,
    token), that state or None).

    Threads and branches are expanded in hwmodel's order and each state
    keeps the step that first reached it, so this is the order of a
    breadth-first walk over hwmodel's states; stop sees every state in
    that order, the initial one first.
    """
    init = kernel.init_state()
    parents: dict[int, tuple | None] = {init: None}
    if stop(init):
        return parents, init
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for tid, instr, token, ns in kernel.successors(state):
            if ns not in parents:
                parents[ns] = (state, tid, instr, token)
                if stop(ns):
                    return parents, ns
                queue.append(ns)
    return parents, None


def _schedule_to(parents: dict, state: int) -> tuple[tuple[str, ...], tuple]:
    """The schedule _breadth_first found to state, and its tokens; the
    labels are formatted for this path's steps only."""
    labels: list[str] = []
    tokens: list[tuple] = []
    while parents[state] is not None:
        state, tid, instr, token = parents[state]
        labels.append(f"{tid}:{instr}")
        if token is not None:
            tokens.append(token)
    return tuple(reversed(labels)), tuple(reversed(tokens))


def first_schedule(kernel: _Kernel, stop):
    """The first raw state, in breadth-first order, that satisfies stop,
    with the schedule that reaches it and the tokens that schedule
    emits: (schedule, tokens, state), or None when no reachable state
    does.

    This is the schedule a breadth-first walk over hwmodel's states
    finds.  The walk stops at that state, so it holds only the states
    discovered before it.
    """
    parents, found = _breadth_first(kernel, stop)
    if found is None:
        return None
    return *_schedule_to(parents, found), found


def count_schedules(kernel: _Kernel):
    """Exact maximal-schedule counts by endpoint status, and the
    canonical states visited.

    Memoized on the sorted-frames quotient: permuting interchangeable
    threads bijects schedules and preserves endpoint status.  The loop
    bound makes the state graph acyclic, so a post-order walk with an
    explicit stack sums each state's counts from its successors'.

    A state's counts are one int, with one kernel.count_w-bit field per
    status in _STATUS_ORDER from the low bits: a dead end is 1 in its
    status's field, and any other state the plain sum of its
    successors' ints, which adds field by field with no carry, since no
    count exceeds the largest out-degree raised to the longest
    schedule's length, and count_w is that bound's bit length.

    sweep_config passes the stamped kernel of its configuration with
    its enqueue values erased.  The counts are the same, since a plain
    transition or endpoint status tests a slot or result against NULL
    and nothing else, and the walk is shorter: the enqueuers form one
    group, so states that differ only in which enqueuer took which
    invocation rank fold into one.
    """
    successors, canon_step = kernel.successors, kernel.canon_step
    width = kernel.count_w
    leaf = {name: 1 << (width * i) for i, name in enumerate(_STATUS_ORDER)}
    memo: dict[int, int] = {}
    count_of = memo.__getitem__
    init = kernel.canon(kernel.init_state())
    stack: list = [(init, None)]
    while stack:
        state, kids = stack[-1]
        if state in memo:
            stack.pop()
        elif kids is None:
            kids = [canon_step(ns, tid) for tid, _, _, ns in successors(state)]
            stack[-1] = (state, kids)
            stack.extend((k, None) for k in kids if k not in memo)
        else:
            stack.pop()
            memo[state] = sum(map(count_of, kids)) if kids else leaf[kernel.classify(state)]
    total, field = memo[init], (1 << width) - 1
    counts = Counter({name: n for i, name in enumerate(_STATUS_ORDER)
                      if (n := (total >> (width * i)) & field)})
    return counts, memo.keys()


def reachable_states(kernel: _Kernel):
    """The reachable canonical states, breadth-first, and whether some
    maximal run stops at the loop bound: (parents, bound_hit).

    parents maps each state, in the order the walk discovers it, to the
    canonical state that first reached it, as an int, and the initial
    state to -1.  Threads and branches are expanded in hwmodel's order,
    as in first_schedule, and no schedule is counted or step kept; dead
    ends are classified for the loop-bound flag only.  With no symmetry
    group every state is canonical, and this is first_schedule's walk
    run to the end: the same states in the same order, each with the
    same parent (see walked_schedule).
    """
    successors, canon_step, classify = kernel.successors, kernel.canon_step, kernel.classify
    init = kernel.canon(kernel.init_state())
    parents = {init: -1}
    queue = deque([init])
    pop, push = queue.popleft, queue.append
    bound_hit = False
    while queue:
        state = pop()
        succs = successors(state)
        if not succs:
            bound_hit = bound_hit or classify(state) == "BOUND_HIT"
        for tid, _, _, ns in succs:
            ns = canon_step(ns, tid)
            if ns not in parents:
                parents[ns] = state
                push(ns)
    return parents, bound_hit


def walked_schedule(kernel: _Kernel, parents: dict, state: int) -> tuple[tuple[str, ...], tuple]:
    """The schedule reachable_states found to state on a kernel with no
    symmetry group, and the tokens it emits.

    Each hop is the first of its parent's successors that reaches it,
    the step first_schedule's walk keeps, so this is first_schedule's
    schedule to the same state; one successors call per hop.
    """
    path = []
    while state != -1:
        path.append(state)
        state = parents[state]
    path.reverse()
    labels: list[str] = []
    tokens: list[tuple] = []
    for parent, child in zip(path, path[1:]):
        tid, instr, token, _ = next(step for step in kernel.successors(parent)
                                    if step[3] == child)
        labels.append(f"{tid}:{instr}")
        if token is not None:
            tokens.append(token)
    return tuple(labels), tuple(tokens)


def purity_scan(kernel: _Kernel, real: _Kernel, states):
    """Purity-check every pending dequeue that real reaches, over
    states: the canonical states count_schedules visited on kernel, the
    stamped kernel of real's configuration with its values erased.

    A check runs the dequeue alone from its pair: the shared fields, its
    frame with a fresh loop budget (its iteration counter cleared), and
    every other thread DONE, so that no other thread moves.  The verdict
    is TERMINATES when every solo run finishes the operation, PURE when
    some run blocks but none blocks after changing the shared state
    (back, slots, scratch), VIOLATION when one does.

    The (shared state, dequeue frame) pair, with the counter cleared,
    fully determines the verdict, which is memoized on the stamped pair
    (kernel.pending_dequeues) and recorded for every pair of real it
    stands for (kernel.real_pairs): a solo run only tests a slot
    against NULL, so whether it blocks, and whether it changes the
    shared state, does not depend on the values the stamps stand for.
    Every reachable state of the stamped kernel is a canonical one with
    its threads permuted, which keeps its pairs, so this covers every
    pair real reaches.

    Returns the count of real pairs per verdict, and one SweepImpurity
    per VIOLATION pair: the first raw state of real, breadth-first in
    hwmodel's order, that holds the pair, and the dequeuer whose frame
    it is, listed in the order the walk finds them.
    """
    successors, shifts, f_mask = kernel.successors, kernel.shifts, kernel.f_mask
    shared_mask = kernel.shared_mask
    # a solo run starts from the pair alone, every other thread DONE, so
    # that successors yields the dequeuer's steps only
    dones = sum(_DONE << sh for sh in shifts)
    # what pending_dequeues reads: the shared fields and every dequeuer
    # frame; states that differ only in enqueuer frames hold the same pairs
    view_mask = shared_mask
    for _, sh in kernel.deq_shifts:
        view_mask |= f_mask << sh
    views: set = set()
    memo: set = set()
    verdicts: dict = {}  # real pair -> verdict
    for state in states:
        view = state & view_mask
        if view in views:
            continue
        views.add(view)
        for pair, tid in kernel.pending_dequeues(state):
            if pair in memo:
                continue
            memo.add(pair)
            shared, fresh = pair
            sh = shifts[tid]
            start = shared | (dones & ~(f_mask << sh)) | (fresh << sh)
            verdict = "TERMINATES"
            seen = {start}
            stack = [start]
            while stack:
                s = stack.pop()
                if ((s >> sh) & 0x7) == _DONE:
                    continue
                succs = [ns for _, _, _, ns in successors(s)]
                if not succs:
                    if (s & shared_mask) != shared:
                        verdict = "VIOLATION"
                        break
                    verdict = "PURE"
                for ns in succs:
                    if ns not in seen:
                        seen.add(ns)
                        stack.append(ns)
            for real_pair in kernel.real_pairs(pair, real):
                verdicts.setdefault(real_pair, verdict)
    outcomes = Counter(verdicts.values())
    left = {pair for pair, verdict in verdicts.items() if verdict == "VIOLATION"}
    found: list = []

    def all_found(state: int) -> bool:
        for pair, tid in real.pending_dequeues(state):
            if pair in left:
                left.remove(pair)
                found.append((state, tid))
        return not left

    impure: tuple = ()
    if left:
        parents, _ = _breadth_first(real, all_found)
        impure = tuple(SweepImpurity(tid, _schedule_to(parents, state)[0])
                       for state, tid in found)
    return outcomes, impure


def _members(bits: int):
    """The indices of the set bits of bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _ample(succs: list) -> list:
    """The steps of a tail state that collection expands: a dequeuer's
    re-scan D1 alone while no enqueuer sits at E1B, else every step.  No
    ret is among them: collection takes each ret with the step that
    enables it, so no tail state it expands has a thread at RET (see
    collect_histories)."""
    rescan = None
    for step in succs:
        instr = step[1]
        if instr == "E1b":
            return succs
        if instr == "D1" and rescan is None:
            rescan = step
    return [rescan] if rescan else succs


def collect_histories(kernel: _Kernel):
    """Representative complete token sequences, at least one per
    isomorphism class, and the number of nodes the walk visited.

    A node is a state and a history prefix.  A prefix is a chain of
    closed runs and an open run, where a run is a maximal stretch of
    invocations or of responses.  Open runs are interned, and each
    distinct prefix gets an integer id when first formed.  The chain a
    token closes is the whole prefix it extends, so a prefix is stored
    as (id of the prefix its closed chain was, open run id) and one
    table names prefixes and chains alike.  Each run is sorted, so
    sequences that differ only in the order within runs share a prefix,
    and the enqueuers are gated to invoke in value order, which renames
    values by invocation rank.

    The walk is breadth-first one level at a time.  A level maps each
    state to the ids of the prefixes that reached it, so a state's
    successors are computed once per level and every prefix is pushed
    through them; extending a prefix by a token is one memo lookup.  A
    node's key in the visited set is its prefix id shifted past the
    state's bits, so the set holds single integers.

    The walk stops at tail states, where no thread is idle.  The step
    into one is the last invocation, so every token after it is a
    response and lands in the history's last run, which is sorted: what
    a tail state appends to the prefix that reached it is a set of
    response tokens, and which sets it can append depends on the state
    alone.  A post-order walk over tail states alone memoizes, for
    each, the sorted response runs that reach COMPLETE, and each prefix
    that reaches the state is extended by each of them.  Token tuples
    are built once per prefix, at the end.

    Inside the tail a ret reads and writes only its own frame, and a
    dequeuer's re-scan D1 while no enqueuer sits at E1B reads only its
    own frame and back, which in the tail only E1b writes.  No other
    step reads what such a step writes and none disables it, so every
    complete run from a state where it is enabled takes it, and moving
    it to the front keeps the final state and the set of responses: it
    is an ample set of one.  A ret is taken as soon as it is enabled:
    a step that leaves its thread at RET (an E2, or a D2 that takes a
    value) applies the thread's ret at once and carries both tokens on
    one edge, and a tail root's threads at RET respond before the root
    is walked, so no memoized tail state has a thread at RET.  A re-scan
    is taken alone when a state has one.  E2 and D2 race for slots and
    are expanded in full.

    Tail states are memoized by their canonical form (kernel.canon_map,
    the frames of identical threads sorted).  Identical threads run one
    program and no transition reads a thread's id, so swapping two of
    them maps the complete runs from a state one-to-one onto those from
    the swapped state, each token's thread swapped too: a state's
    runs are its canonical twin's with each token's thread mapped back
    through the permutation that canonicalized it, re-sorted, and no
    run is lost.  A successor's permutation comes from where canon_step
    moved the stepping thread's frame, a root's from canon_map; the
    relabelled runs are memoized per (run set, permutation), as added
    tokens are per (run set, token).  With no symmetry group every state
    is canonical, and neither canon_step nor canon_map is called.  Both
    the ample sets and the key are argued for COMPLETE endpoints only: a
    run stopped at the loop bound need not take a step taken alone, so a
    walk that keeps such endpoints must argue both again before it
    reuses the memo.

    The nodes counted are the level walk's (state, prefix) nodes, at
    tail states too, plus the tail states memoized: the canonical ones
    the tail walk expands and the roots as the level walk reached them,
    a root counted once when it is canonical with no thread at RET.  No
    state of the level walk is kept past its level.
    """
    gate_groups = kernel.emit_groups()

    open_ids: dict[tuple, int] = {(): 0}
    open_seqs: list[tuple] = [()]
    # prefixes: id -> (closed chain's prefix id, open run id); 0 is empty
    prefix_ids: dict[tuple, int] = {(0, 0): 0}
    prefixes: list[tuple] = [(0, 0)]
    # token -> {prefix id: id of the prefix extended by token}
    moves: dict[tuple, dict[int, int]] = {}

    def intern_open(run: tuple) -> int:
        got = open_ids.get(run)
        if got is None:
            got = open_ids[run] = len(open_seqs)
            open_seqs.append(run)
        return got

    def extend(memo: dict, pid: int, token: tuple) -> int:
        cid, oid = prefixes[pid]
        orun = open_seqs[oid]
        if orun and _is_inv(orun[0]) == _is_inv(token):
            key = (cid, intern_open(tuple(sorted(orun + (token,)))))
        else:
            # the token closes pid's open run, so pid names that chain
            key = (pid, intern_open((token,)))
        got = prefix_ids.get(key)
        if got is None:
            got = prefix_ids[key] = len(prefixes)
            prefixes.append(key)
        memo[pid] = got
        return got

    def tokens_of(pid: int) -> tuple:
        runs = []
        while pid:
            pid, oid = prefixes[pid]
            runs.append(open_seqs[oid])
        return tuple(t for run in reversed(runs) for t in run)

    successors, classify, ret = kernel.successors, kernel.classify, kernel.ret
    canon_step, canon_map = kernel.canon_step, kernel.canon_map
    shifts, is_enq, f_mask = kernel.shifts, kernel.is_enq, kernel.f_mask
    members = {t: (tids, i) for tids in kernel.sym_groups for i, t in enumerate(tids)}
    landed: dict = {}
    # the sorted response runs that end histories, by id, and for each
    # canonical tail state the set of runs that complete it, as an int
    # with bit i set for run i: bit 0, the empty run, marks a COMPLETE
    # dead end
    run_seqs: list[tuple] = [()]
    run_ids: dict[tuple, int] = {(): 0}
    tail_runs: dict[int, int] = {}
    run_sets: dict[int, int] = {}
    with_token: dict[tuple, int] = {}  # (runs, token) -> token added to each
    relabelled: dict[tuple, int] = {}  # (runs, map) -> tids mapped through it

    def intern_run(run: tuple) -> int:
        got = run_ids.get(run)
        if got is None:
            got = run_ids[run] = len(run_seqs)
            run_seqs.append(run)
        return got

    def plus(runs: int, token: tuple) -> int:
        got = with_token.get((runs, token))
        if got is None:
            got = 0
            for rid in _members(runs):
                got |= 1 << intern_run(tuple(sorted(run_seqs[rid] + (token,))))
            with_token[(runs, token)] = got
        return got

    def relabel(runs: int, perm: tuple) -> int:
        got = relabelled.get((runs, perm))
        if got is None:
            got = 0
            for rid in _members(runs):
                run = sorted((kind, perm[tid], val) for kind, tid, val in run_seqs[rid])
                got |= 1 << intern_run(tuple(run))
            relabelled[(runs, perm)] = got
        return got

    def step(ns: int, tid: int) -> tuple:
        # a step into ns by tid, with tid's ret taken along when the step
        # enabled it: (canonical state, map back to ns or None, tokens)
        tokens = ()
        if (ns >> shifts[tid]) & 0x7 == _RET:
            _, _, token, ns = ret(ns, tid, is_enq[tid])
            tokens = (token,)
        if not members:
            return ns, None, tokens
        canonical = canon_step(ns, tid)
        if canonical == ns:
            return canonical, None, tokens
        # tid's frame moved to the first place in its group holding it,
        # and the frames it passed moved one place back
        tids, i = members[tid]
        f = (ns >> shifts[tid]) & f_mask
        j = next(j for j, t in enumerate(tids) if (canonical >> shifts[t]) & f_mask == f)
        perm = landed.get((tid, j))
        if perm is None:
            order = list(tids)
            order.insert(j, order.pop(i))
            moved = dict(zip(tids, order))
            perm = landed[tid, j] = tuple(moved.get(t, t) for t in range(kernel.n))
        return canonical, perm, tokens

    def settle(root: int) -> tuple:
        # a tail root's threads at RET respond at once, as in step
        tokens = []
        for tid, sh in enumerate(shifts):
            if (root >> sh) & 0x7 == _RET:
                _, _, token, root = ret(root, tid, is_enq[tid])
                tokens.append(token)
        if not members:
            return root, None, tokens
        return (*canon_map(root), tokens)

    def walk_tail(roots) -> None:
        # post-order over tail states alone, with an explicit stack: a
        # dequeuer's spin rounds make tail paths longer than the
        # recursion limit at large loop bounds.  A root with a thread at
        # RET, or not canonical, has one kid: its settled canonical form
        stack: list = []
        for root in roots:
            kid = settle(root)
            stack += [(root, None)] if kid[0] == root else [(root, [kid]), (kid[0], None)]
        while stack:
            state, kids = stack.pop()
            if kids is None:
                if state not in tail_runs:
                    kids = [step(ns, tid) for tid, _, _, ns in _ample(successors(state))]
                    stack.append((state, kids))
                    stack.extend([(kid[0], None) for kid in kids])
            elif kids:
                runs = 0
                for kid, perm, tokens in kids:
                    got = tail_runs[kid]
                    if perm:
                        got = relabel(got, perm)
                    for token in tokens:
                        got = plus(got, token)
                    runs |= got
                # one object per distinct set
                tail_runs[state] = run_sets.setdefault(runs, runs)
            else:
                tail_runs[state] = 1 if classify(state) == "COMPLETE" else 0

    init = kernel.init_state()
    state_bits = kernel.frames_sh + kernel.f_bits * kernel.n
    seen = {init}  # key = prefix id << state_bits | state
    pcs = sum(1 << sh for sh in kernel.shifts)  # the low bit of each frame's pc
    endings: dict[int, int] = {}  # prefix id -> the runs that complete it
    level: dict[int, list[int]] = {init: [0]}
    while level:
        # the tail states of this level end their prefixes' walk: no
        # frame's pc, its low 3 bits, is 0 (idle)
        tails = [state for state in level if (state | state >> 1 | state >> 2) & pcs == pcs]
        if tails:
            walk_tail([state for state in tails if state not in tail_runs])
        for state in tails:
            pids = level.pop(state)
            if runs := tail_runs[state]:
                for pid in pids:
                    endings[pid] = endings.get(pid, 0) | runs
        following: defaultdict[int, list[int]] = defaultdict(list)
        # a state with an idle thread is not COMPLETE, so a dead end among
        # them ends no history
        for state, pids in level.items():
            for _, _, token, ns in successors(state, gate_groups):
                memo = None if token is None else moves.setdefault(token, {})
                for pid in pids:
                    # a stored id is never 0, the empty prefix's
                    npid = pid if memo is None else memo.get(pid) or extend(memo, pid, token)
                    key = npid << state_bits | ns
                    if key not in seen:
                        seen.add(key)
                        following[ns].append(npid)
        level = following
    nodes = len(seen) + len(tail_runs)
    # the step into a tail state is an invocation, so a prefix that
    # reached one ends with invocations and its response run follows it
    complete: set[tuple] = set()
    for pid, runs in endings.items():
        head = tokens_of(pid)
        complete.update(head + run_seqs[rid] for rid in _members(runs))
    return complete, nodes


def sweep_config(config: Config, *, oracle: bool = False,
                 check_purity: bool = False,
                 quotient: bool = True) -> SweepReport:
    """Full exhaustive sweep of one plain configuration.

    Counts every maximal schedule on the stamped kernel of the
    configuration with its enqueue values erased, so
    ``canonical_states`` counts that walk's states; optionally
    purity-checks every reachable pending dequeue over those states;
    and checks the representative complete histories (at least one per
    isomorphism class, which cover the rest; see module docstring) with
    the aspect detectors and optionally the brute-force oracle.  History
    collection runs only when some schedule is complete; otherwise
    ``nodes`` is 0.  Violations and impure dequeues carry a replayable
    schedule.  ``quotient`` accepts only True; the exact collection of
    every distinct history is the test suite's reference walk.

    Choice threads and prophecy dequeues raise SweepScopeError: history
    collection renames values, which is unsound once a transition
    compares a slot against a prophecy value, and reads every value off
    a fixed enqueuer.
    """
    from .checker import LINEARIZABLE, brute_force_linearizable, check_linearizable

    # kept only because the benchmark worker passes quotient=True
    if quotient is not True:
        raise ValueError("sweep_config collects quotient histories only; every distinct "
                         "history comes from reference_collect_histories in tests/support.py")
    kernel = _Kernel(config)
    if kernel.ranked:
        raise SweepScopeError("sweep_config handles plain enq/deq threads only")
    erased = replace(config, threads=tuple(
        EnqOp(1) if isinstance(op, EnqOp) else op for op in config.threads))
    stamped = _Kernel(erased, stamped=True)
    counts, counted = count_schedules(stamped)
    canonical_states = len(counted)
    purity_outcomes: Counter = Counter()
    impure: tuple[SweepImpurity, ...] = ()
    if check_purity:
        purity_outcomes, impure = purity_scan(stamped, kernel, counted)
    del counted  # collection's peak memory comes on top otherwise

    complete: set = set()
    nodes = 0
    if counts["COMPLETE"]:
        complete, nodes = collect_histories(kernel)

    violations = []
    oracle_checked = 0
    oracle_disagreements = 0
    for tokens in sorted(complete):
        c = kernel.tokens_to_history(tokens)
        verdict = check_linearizable(c, build_witness=False)
        if oracle:
            oracle_checked += 1
            if brute_force_linearizable(c) != (verdict.status == LINEARIZABLE):
                oracle_disagreements += 1
        if verdict.status != LINEARIZABLE:
            schedule, emitted = kernel.find_schedule(tokens)
            if emitted != tokens:
                # no schedule emits this run order (repeated values);
                # report the isomorphic history the schedule replays to
                c = kernel.tokens_to_history(emitted)
                verdict = check_linearizable(c, build_witness=False)
            violations.append(SweepViolation(c, verdict, schedule))

    return SweepReport(
        trace_counts=counts,
        canonical_states=canonical_states,
        nodes=nodes,
        distinct_complete=len(complete),
        violations=tuple(violations),
        oracle_checked=oracle_checked,
        oracle_disagreements=oracle_disagreements,
        purity_outcomes=purity_outcomes,
        impure=impure,
    )
