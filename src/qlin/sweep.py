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
sorts every group and serves raw states.  ``first_schedule`` walks raw
states breadth-first in hwmodel's order when a replayable schedule to
some state is needed, and returns the tokens that schedule emits too:
the divergence harnesses read their counterexample histories off them.

Two walks visit the canonical states.  ``count_schedules`` counts
schedules and serves ``sweep_config``.  ``reachable_states`` keeps
only a visited set and whether some run stops at the loop bound, which
is all the divergence harnesses in explorer read.

The sweep produces
  - exact counts of maximal schedules by endpoint status, computed by
    dynamic programming in one iterative post-order walk over the
    canonical states;
  - a purity verdict for every reachable (shared state, pending dequeue
    frame) pair, from solo runs of the dequeue with a fresh loop budget,
    memoized on exactly that projection with the loop counter cleared,
    in one pass (``purity_scan``) over the states the count walk
    visited;
  - the distinct complete histories, found by a breadth-first walk over
    (state, history prefix) nodes that goes one level at a time and
    expands each state once per level for all the prefixes that reached
    it; each prefix is an integer id in one table that also names the
    chain of runs it closes, and extending it by a token is one memo
    lookup.

One collection loop serves two modes.  The exact mode keeps emission
order (every action closes its run) and returns every distinct history.
The quotient mode sorts each maximal run of same-kind actions (adjacent
invocations, adjacent responses) and renames enqueue values by
invocation rank.  Permuting adjacent same-kind actions and
renaming operations or values are isomorphisms of histories: they
preserve methods, matching values and the precedes relation, hence
every checker and oracle verdict.  The quotient therefore covers the
full history set with representative histories, at least one per
isomorphism class: sorting runs is finer than isomorphism, and value
renaming is skipped when two enqueuers share a value, so a class can
keep several representatives.  The test suite verifies that expansion
exhaustively at small scales.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from .history import NULL, Action, History, deq_inv, deq_res, enq_inv, enq_res
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
    quotient: bool
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
        ]
        if self.quotient:
            parts.append("history-mode=quotient")
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
    """

    def __init__(self, config: Config):
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

        # field widths: back and rng + 1 hold 0..cap, slot 0..cap-1,
        # iters 0..lb, slots and results 0..number of distinct values
        back_w = self.cap.bit_length()
        slot_w = max(self.cap - 1, 0).bit_length()
        it_w = self.lb.bit_length()
        value_w = len(self.values).bit_length()
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
        self.shifts = tuple(self.frames_sh + self.f_bits * t for t in range(self.n))
        # what successors reads, unpacked in one step per call
        self.layout = (
            self.shifts, self.low_mask, slot_sh, (1 << slot_w) - 1, rng_sh,
            self.back_mask, self.it_sh, self.it_mask, self.res_sh,
            self.items_sh, self.item_w, self.item_mask,
            self.cap, self.lb, self.scan_start, self.progs, self.ranked,
        )

        # threads with identical programs are interchangeable; the flag
        # thread is not, since gates read its pc
        by_op: dict = {}
        for tid, op in enumerate(threads):
            if tid != config.flag_tid:
                by_op.setdefault(op, []).append(tid)
        self.sym_groups = tuple(
            tuple(tids) for tids in by_op.values() if len(tids) > 1
        )
        # enqueuers listed by ascending value index, for value renaming
        # in history collection; sound while no transition compares a
        # stored value with anything, so not with prophecy dequeues
        self.enq_tids = tuple(sorted(
            (t for t in range(self.n) if self.is_enq[t]),
            key=lambda t: self.progs[t][0],
        ))

    def emit_groups(self, value_sym: bool) -> tuple[tuple[int, ...], ...]:
        """Thread groups gated to invoke in member order during history
        collection.  Identical threads always; all enqueuers too when
        values are treated as interchangeable."""
        groups = list(self.sym_groups)
        if value_sym and len(self.enq_tids) > 1:
            if not any(set(g) & set(self.enq_tids) for g in groups):
                groups.append(self.enq_tids)
        return tuple(groups)

    # -- field helpers ----------------------------------------------------

    def frame(self, state: int, tid: int) -> int:
        return (state >> self.shifts[tid]) & self.f_mask

    def init_state(self) -> int:
        return 0

    def canon(self, state: int) -> int:
        # sort frames within each interchangeable group
        shifts, f_mask = self.shifts, self.f_mask
        for tids in self.sym_groups:
            fields = sorted((state >> shifts[t]) & f_mask for t in tids)
            for t, fbits in zip(tids, fields):
                sh = shifts[t]
                state = (state & ~(f_mask << sh)) | (fbits << sh)
        return state

    def canon_step(self, state: int, tid: int) -> int:
        """canon of a successor of a canonical state by a step of tid.

        A step rewrites tid's frame and shared fields, which canon does
        not move, so the other frames of tid's group are still sorted:
        the new frame moves left or right past the neighbours it no
        longer fits between, one insertion-sort step.
        """
        for tids in self.sym_groups:
            if tid in tids:
                break
        else:
            return state
        shifts, f_mask = self.shifts, self.f_mask
        i = j = tids.index(tid)
        f = (state >> shifts[tid]) & f_mask
        while j and (g := (state >> shifts[tids[j - 1]]) & f_mask) > f:
            sh = shifts[tids[j]]
            state = (state & ~(f_mask << sh)) | (g << sh)
            j -= 1
        if j == i:
            last = len(tids) - 1
            while j < last and (g := (state >> shifts[tids[j + 1]]) & f_mask) < f:
                sh = shifts[tids[j]]
                state = (state & ~(f_mask << sh)) | (g << sh)
                j += 1
        if j != i:
            sh = shifts[tids[j]]
            state = (state & ~(f_mask << sh)) | (f << sh)
        return state

    def orbit_size(self, state: int) -> int:
        """Number of states that permuting interchangeable threads makes
        of this one: per group, the multinomial of its equal frames.

        The state must be canonical: its groups' frames are then sorted,
        so equal frames sit next to each other and are counted as runs.
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

    def items(self, state: int) -> tuple:
        """The slots below back, as values with NULL for empty."""
        out = []
        for i in range(state & self.back_mask):
            held = (state >> (self.items_sh + self.item_w * i)) & self.item_mask
            out.append(self.values[held - 1] if held else NULL)
        return tuple(out)

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
        (shifts, low_mask, slot_sh, slot_mask, rng_sh, rng_mask, it_sh, it_mask,
         res_sh, items_sh, item_w, item_mask, cap, lb, scan_start, progs, ranked) = self.layout
        back = state & self.back_mask
        gate: dict[int, int] = {}
        for tids in gate_groups:
            for t in tids:
                if (state >> shifts[t]) & 0x7 == _IDLE:
                    gate.update((u, t) for u in tids)
                    break
        for tid, sh in enumerate(shifts):
            f = (state >> sh) & low_mask
            pc = f & 0x7
            if pc == _DONE:
                continue
            if pc == _IDLE and gate.get(tid, tid) != tid:
                continue
            base = state & ~(low_mask << sh)
            prog = progs[tid]
            if prog is None:
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
                prog = menu[entry - 1][0]
            vbits, pidx = prog
            if vbits:
                if pc == _IDLE:
                    if back >= cap:
                        continue  # slot array exhausted
                    if self.nonatomic:
                        nf = _E1B | (back << slot_sh)
                        ns = base | (nf << sh)
                    else:
                        nf = _E2 | (back << slot_sh)
                        ns = (base | (nf << sh)) + 1  # back += 1
                    if ranked:
                        ns |= self._rank(state) << (sh + self.uid_sh)
                    out.append((tid, "E1", (_T_EINV, tid, vbits), ns))
                elif pc == _E1B:
                    nf = _E2 | (f & (slot_mask << slot_sh))
                    ns = (base | (nf << sh)) + 1
                    out.append((tid, "E1b", None, ns))
                elif pc == _E2:
                    slot = (f >> slot_sh) & slot_mask
                    ish = items_sh + item_w * slot
                    ns = (base & ~(item_mask << ish)) | (vbits << ish)
                    ns |= _RET << sh
                    out.append((tid, "E2", None, ns))
                else:  # _RET
                    ns = base | (_DONE << sh)
                    out.append((tid, "ret", (_T_ERES, tid, 0), ns))
                continue
            # dequeue thread
            if pc == _IDLE or pc == _D1:
                iters = (f >> it_sh) & it_mask
                if iters >= lb:
                    continue  # loop budget exhausted
                rng = back - 1
                if scan_start <= rng:
                    nf = _D2 | (scan_start << slot_sh) | ((rng + 1) << rng_sh)
                else:
                    nf = _D1
                nf |= (iters + 1) << it_sh
                ns = base | (nf << sh)
                token = None
                if pc == _IDLE:
                    token = (_T_DINV, tid, 0)
                    if ranked:
                        ns |= self._rank(state) << (sh + self.uid_sh)
                out.append((tid, "D1", token, ns))
            elif pc == _D2:
                slot = (f >> slot_sh) & slot_mask
                rng = ((f >> rng_sh) & rng_mask) - 1
                ish = items_sh + item_w * slot
                held = (state >> ish) & item_mask
                if held == 0:
                    # an empty slot: move on (a prophecy dequeue's skip branch)
                    nxt = slot + 1
                    if nxt > rng:
                        nf = _D1 | (f & (it_mask << it_sh))
                    else:
                        nf = (f & ~(slot_mask << slot_sh)) | (nxt << slot_sh)
                    ns = base | (nf << sh)
                    if self.dirty:
                        if (state >> self.scratch_sh) & self.scratch_mask == self.scratch_mask:
                            raise AssertionError("scratch counter overflowed its field")
                        ns += 1 << self.scratch_sh
                    out.append((tid, "D2" if pidx is None else "D2B", None, ns))
                elif pidx is None or held == pidx:
                    # take the value (a prophecy dequeue's commit branch)
                    ns = base if self.keep_on_swap else base & ~(item_mask << ish)
                    nf = _RET | (held << res_sh)
                    ns |= nf << sh
                    out.append((tid, "D2" if pidx is None else "D2A", None, ns))
                # a prophecy dequeue facing another value blocks here
            else:  # _RET
                res = f >> res_sh
                nf = _DONE | (res << res_sh)
                ns = base | (nf << sh)
                out.append((tid, "ret", (_T_DRES, tid, res), ns))
        return out

    def _rank(self, state: int) -> int:
        # invocation rank of the next operation: the threads already invoked
        return sum(1 for sh in self.shifts if (state >> sh) & 0x7 != _IDLE)

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


def first_schedule(kernel: _Kernel, stop):
    """The first raw state, in breadth-first order, that satisfies stop,
    with the schedule that reaches it and the tokens that schedule
    emits: (schedule, tokens, state), or None when no reachable state
    does.

    Threads and branches are expanded in hwmodel's order and each state
    keeps the step that first reached it, so this is the schedule a
    breadth-first walk over hwmodel's states finds.  The walk stops at
    that state, so it holds only the states discovered before it.
    """
    init = kernel.init_state()
    parents: dict[int, tuple | None] = {init: None}
    queue = deque([init])
    found = init if stop(init) else None
    while found is None and queue:
        state = queue.popleft()
        for tid, instr, token, ns in kernel.successors(state):
            if ns not in parents:
                parents[ns] = (state, f"{tid}:{instr}", token)
                if stop(ns):
                    found = ns
                    break
                queue.append(ns)
    if found is None:
        return None
    labels: list[str] = []
    tokens: list[tuple] = []
    state = found
    while parents[state] is not None:
        state, label, token = parents[state]
        labels.append(label)
        if token is not None:
            tokens.append(token)
    return tuple(reversed(labels)), tuple(reversed(tokens)), found


def count_schedules(kernel: _Kernel):
    """Exact maximal-schedule counts by endpoint status, and the
    canonical states visited.

    Memoized on the sorted-frames quotient: permuting interchangeable
    threads bijects schedules and preserves endpoint status.  The loop
    bound makes the state graph acyclic, so a post-order walk with an
    explicit stack sums each state's counts from its successors'.
    """
    successors, canon_step = kernel.successors, kernel.canon_step
    memo: dict[int, tuple] = {}
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
            if kids:
                memo[state] = tuple(map(sum, zip(*(memo[k] for k in kids))))
            else:
                status = kernel.classify(state)
                memo[state] = tuple(int(name == status) for name in _STATUS_ORDER)
    totals = memo[init]
    counts = Counter({name: n for name, n in zip(_STATUS_ORDER, totals) if n})
    return counts, memo.keys()


def reachable_states(kernel: _Kernel):
    """The reachable canonical states, and whether some maximal run
    stops at the loop bound.

    The same states as count_schedules visits, with no counts: a
    depth-first walk with a visited set that classifies dead ends only,
    for callers that need neither schedule counts nor visiting order.
    """
    successors, canon_step, classify = kernel.successors, kernel.canon_step, kernel.classify
    init = kernel.canon(kernel.init_state())
    seen = {init}
    stack = [init]
    bound_hit = False
    while stack:
        state = stack.pop()
        succs = successors(state)
        if not succs:
            bound_hit = bound_hit or classify(state) == "BOUND_HIT"
        for tid, _, _, ns in succs:
            ns = canon_step(ns, tid)
            if ns not in seen:
                seen.add(ns)
                stack.append(ns)
    return seen, bound_hit


def purity_scan(kernel: _Kernel, states):
    """Purity-check every pending dequeue in the given canonical states.

    A check runs the dequeue alone from its state with a fresh loop
    budget (its iteration counter cleared).  The verdict is TERMINATES
    when every solo run finishes the operation, PURE when some run
    blocks but none blocks after changing the shared state (back,
    slots, scratch), VIOLATION when one does.

    Over the states count_schedules visited, this covers every reachable
    (shared state, dequeue frame) pair up to permuting interchangeable
    threads; the pair, with the counter cleared, fully determines the
    verdict, which is memoized on it.
    """
    successors, shifts, f_mask = kernel.successors, kernel.shifts, kernel.f_mask
    memo: dict = {}
    outcomes: Counter = Counter()
    bad: list = []
    shared_mask = (1 << kernel.frames_sh) - 1
    fresh_mask = ~(kernel.it_mask << kernel.it_sh)
    deq_tids = [t for t in range(kernel.n) if not kernel.is_enq[t]]
    for state in states:
        shared = state & shared_mask
        for tid in deq_tids:
            sh = shifts[tid]
            f = (state >> sh) & f_mask
            fresh = f & fresh_mask
            if (f & 0x7) in (_IDLE, _DONE) or (shared, fresh) in memo:
                continue
            start = (state & ~(f_mask << sh)) | (fresh << sh)
            verdict = "TERMINATES"
            seen = {start}
            stack = [start]
            while stack:
                s = stack.pop()
                if ((s >> sh) & 0x7) == _DONE:
                    continue
                succs = [ns for t, _, _, ns in successors(s) if t == tid]
                if not succs:
                    if (s & shared_mask) != shared:
                        verdict = "VIOLATION"
                        break
                    verdict = "PURE"
                for ns in succs:
                    if ns not in seen:
                        seen.add(ns)
                        stack.append(ns)
            memo[shared, fresh] = verdict
            outcomes[verdict] += 1
            if verdict == "VIOLATION":
                bad.append((state, tid))
    return outcomes, bad


def collect_histories(kernel: _Kernel, *, quotient: bool):
    """All distinct complete token sequences, and the number of nodes
    the walk visited.

    A node is a state and a history prefix.  A prefix is a chain of
    closed runs and an open run, where a run is a maximal stretch of
    invocations or of responses.  Open runs are interned, and each
    distinct prefix gets an integer id when first formed.  The chain a
    token closes is the whole prefix it extends, so a prefix is stored
    as (id of the prefix its closed chain was, open run id) and one
    table names prefixes and chains alike.  In quotient mode each run
    is sorted, so sequences that differ only in the order within runs
    share a prefix, and the enqueuers are gated to invoke in value
    order, which renames values by invocation rank.  In exact mode
    every token closes its run, so a prefix keeps the emission order.

    The walk is breadth-first one level at a time.  A level maps each
    state to the ids of the prefixes that reached it, so a state's
    successors are computed once per level and every prefix is pushed
    through them; extending a prefix by a token is one memo lookup.  A
    node's key in the visited set is its prefix id shifted past the
    state's bits, so the set holds single integers.
    """
    gate_groups = kernel.emit_groups(quotient)

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
        if quotient and orun and _is_inv(orun[0]) == _is_inv(token):
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

    init = kernel.init_state()
    state_bits = kernel.frames_sh + kernel.f_bits * kernel.n
    complete: set[tuple] = set()
    successors, classify = kernel.successors, kernel.classify
    seen = {init}  # key = prefix id << state_bits | state
    level: dict[int, list[int]] = {init: [0]}
    while level:
        following: defaultdict[int, list[int]] = defaultdict(list)
        for state, pids in level.items():
            succs = successors(state, gate_groups)
            if not succs:
                if classify(state) == "COMPLETE":
                    complete.update(map(tokens_of, pids))
                continue
            for _, _, token, ns in succs:
                memo = None if token is None else moves.setdefault(token, {})
                for pid in pids:
                    # a stored id is never 0, the empty prefix's
                    npid = pid if memo is None else memo.get(pid) or extend(memo, pid, token)
                    key = npid << state_bits | ns
                    if key not in seen:
                        seen.add(key)
                        following[ns].append(npid)
        level = following
    return complete, len(seen)


def sweep_config(config: Config, *, oracle: bool = False,
                 check_purity: bool = False,
                 quotient: bool = False) -> SweepReport:
    """Full exhaustive sweep of one plain configuration.

    Counts every maximal schedule, checks every distinct complete
    history with the aspect detectors (and optionally the brute-force
    oracle), and optionally purity-checks every reachable pending
    dequeue.  Violations and impure dequeues carry a replayable
    schedule.  With quotient representative histories (at least one
    per isomorphism class) are materialized and checked; they cover the
    rest (see module docstring).  Without it every distinct history is
    checked, which is the quotient's reference.

    Choice threads and prophecy dequeues raise SweepScopeError: history
    collection renames values, which is unsound once a transition
    compares a slot against a prophecy value, and reads every value off
    a fixed enqueuer.
    """
    from .checker import LINEARIZABLE, brute_force_linearizable, check_linearizable

    kernel = _Kernel(config)
    if kernel.ranked:
        raise SweepScopeError("sweep_config handles plain enq/deq threads only")
    counts, states = count_schedules(kernel)
    canonical_states = len(states)
    purity_outcomes: Counter = Counter()
    purity_bad: list = []
    if check_purity:
        purity_outcomes, purity_bad = purity_scan(kernel, states)
    del states  # collection's peak memory comes on top otherwise
    impure = tuple(_impurity(kernel, state, tid) for state, tid in purity_bad)

    complete, nodes = collect_histories(kernel, quotient=quotient)

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
        quotient=quotient,
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


def _impurity(kernel: _Kernel, state: int, tid: int) -> SweepImpurity:
    """Evidence for an impure dequeue found in canonical state: the
    first raw state of that orbit and the thread holding its frame."""
    schedule, _, raw = first_schedule(kernel, lambda s: kernel.canon(s) == state)
    frame = kernel.frame(state, tid)
    group = next((g for g in kernel.sym_groups if tid in g), (tid,))
    return SweepImpurity(next(t for t in group if kernel.frame(raw, t) == frame), schedule)
