"""Operational model of an array-based concurrent queue.

The queue keeps an append cursor ``back`` and a slot array ``items``.  An
enqueue atomically claims a slot (read-and-increment of back), then writes
its value there in a second step, then returns.  A dequeue snapshots
``back - 1`` as its scan range and walks the slots, atomically swapping each
with NULL; a non-NULL swap result is its return value, and an exhausted scan
restarts the outer loop.  A dequeue on an empty queue therefore spins; the
model caps outer iterations per thread with ``loop_bound``.

Every instruction is one atomic transition.  Transitions are produced by
``successors`` as labelled deltas so that schedules can be replayed
deterministically.  The invocation action of an operation is emitted at its
first instruction and its response at a dedicated exit step, so an operation
stays pending while its effect is already (or not yet) visible.

No command runs this interpreter: they all explore the packed transition
relation in sweep, on the configuration types defined here.  The
interpreter (``hw_init``, ``successors``, ``classify_endpoint``) is the
readable specification that the tests and the benchmark's replay gate
run, through ``explorer.replay_schedule``, to check the kernel against.

Besides the faithful queue the module implements intentionally broken
variants (``MUTANTS``) and a prophecy-instrumented dequeue whose scan step
is split into a commit branch (the probed slot holds the predicted value;
take it) and a skip branch (the probed slot is empty; write NULL back and
move on).  A prediction of NULL makes the commit branch unsatisfiable, so
such a dequeue can only spin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .history import Action, NULL, Value, deq_inv, deq_res, enq_inv, enq_res

MUTANT_NONE = "none"
MUTANT_NO_SWAP_CLEAR = "no_swap_clear"
MUTANT_SKIP_SLOT_ZERO = "skip_slot_zero"
MUTANT_NONATOMIC_ENQ = "nonatomic_enq"
MUTANT_DIRTY_SPIN = "dirty_spin"

MUTANTS = (
    MUTANT_NONE,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_SKIP_SLOT_ZERO,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_DIRTY_SPIN,
)

# gate tag usable on choice-menu entries
GATE_FLAG_DONE = "flag_done"


@dataclass(frozen=True)
class EnqOp:
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 0:
            raise ValueError("enqueue value must be a non-negative int")

    def label(self) -> str:
        return f"enq({self.value})"


@dataclass(frozen=True)
class DeqOp:
    # None: plain dequeue.  An int or NULL: instrumented with that prediction.
    prophecy: Value | None = None

    def __post_init__(self) -> None:
        if self.prophecy is None or self.prophecy is NULL:
            return
        if not isinstance(self.prophecy, int) or isinstance(self.prophecy, bool) or self.prophecy < 0:
            raise ValueError("dequeue prophecy must be a non-negative int or NULL")

    @property
    def instrumented(self) -> bool:
        return self.prophecy is not None

    def label(self) -> str:
        if self.prophecy is None:
            return "deq"
        if self.prophecy is NULL:
            return "deq(null)"
        return f"deq({self.prophecy})"


@dataclass(frozen=True)
class ChoiceOp:
    """A thread that first commits to one operation from a menu.

    Each entry is (op, gate); a gate of GATE_FLAG_DONE keeps the entry
    disabled until the config's flag thread has finished.
    """

    menu: tuple[tuple[EnqOp | DeqOp, str | None], ...]

    def __post_init__(self) -> None:
        for op, gate in self.menu:
            if not isinstance(op, (EnqOp, DeqOp)):
                raise ValueError("choice menu entries must be EnqOp or DeqOp")
            if gate not in (None, GATE_FLAG_DONE):
                raise ValueError(f"unknown gate {gate!r}")


Op = EnqOp | DeqOp | ChoiceOp


@dataclass(frozen=True)
class Config:
    threads: tuple[Op, ...]
    capacity: int
    loop_bound: int = 3
    mutant: str = MUTANT_NONE
    flag_tid: int | None = None

    def __post_init__(self) -> None:
        if self.mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {self.mutant!r}")
        if self.loop_bound < 1:
            raise ValueError("loop_bound must be at least 1")
        # fixed enqueue threads must all fit; enqueues picked by choice
        # threads may still overrun the array, which shows up at run time
        # as an OVERFLOW endpoint rather than a construction error
        fixed = sum(1 for op in self.threads if isinstance(op, EnqOp))
        if self.capacity < fixed:
            raise ValueError(
                f"capacity {self.capacity} below fixed enqueue count {fixed}"
            )
        needs_flag = any(
            isinstance(op, ChoiceOp) and any(g == GATE_FLAG_DONE for _, g in op.menu)
            for op in self.threads
        )
        if needs_flag and (
            self.flag_tid is None or not 0 <= self.flag_tid < len(self.threads)
        ):
            raise ValueError("gated choice menus need a valid flag_tid")


# program counters
PC_IDLE = "idle"      # not yet started (choice threads: possibly uncommitted)
PC_E1B = "e1b"        # nonatomic enqueue: slot claimed, back not yet bumped
PC_E2 = "e2"          # slot claimed, value not yet written
PC_D1 = "d1"          # dequeue between outer iterations
PC_D2 = "d2"          # dequeue mid-scan
PC_RET = "ret"        # result ready, response not yet emitted
PC_DONE = "done"


@dataclass(frozen=True)
class ThreadFrame:
    op: EnqOp | DeqOp | None  # None until a choice thread commits
    pc: str = PC_IDLE
    uid: int | None = None
    slot: int = 0             # enqueue slot / dequeue scan index
    rng: int = -1             # dequeue range snapshot
    iters: int = 0            # outer loop iterations consumed
    result: Value | None = None

    @property
    def done(self) -> bool:
        return self.pc == PC_DONE


@dataclass(frozen=True)
class HWState:
    back: int
    items: tuple[Value, ...]
    frames: tuple[ThreadFrame, ...]
    scratch: int = 0  # spill counter used by the dirty_spin mutant

    @property
    def all_done(self) -> bool:
        return all(f.done for f in self.frames)

    def invoked_count(self) -> int:
        return sum(1 for f in self.frames if f.uid is not None)


@dataclass(frozen=True)
class Succ:
    label: str
    state: HWState
    action: Action | None = None


def hw_init(config: Config) -> HWState:
    frames = tuple(
        ThreadFrame(op=None if isinstance(op, ChoiceOp) else op)
        for op in config.threads
    )
    return HWState(back=0, items=(NULL,) * config.capacity, frames=frames)


def _gate_open(config: Config, state: HWState, gate: str | None) -> bool:
    if gate is None:
        return True
    return state.frames[config.flag_tid].done


def _with_frame(state: HWState, tid: int, frame: ThreadFrame, **state_changes) -> HWState:
    frames = state.frames[:tid] + (frame,) + state.frames[tid + 1 :]
    return replace(state, frames=frames, **state_changes)


def _scan_start(config: Config) -> int:
    return 1 if config.mutant == MUTANT_SKIP_SLOT_ZERO else 0


def _advance_scan(frame: ThreadFrame) -> ThreadFrame:
    nxt = frame.slot + 1
    if nxt > frame.rng:
        # scan exhausted; the cursor fields are dead until the next
        # snapshot, so normalize them and keep the state space tight
        return replace(frame, pc=PC_D1, slot=0, rng=-1)
    return replace(frame, pc=PC_D2, slot=nxt)


def successors(config: Config, state: HWState, tid: int) -> list[Succ]:
    """All transitions thread tid can take from state, with labels and any
    emitted history action.  Empty when the thread cannot move."""
    f = state.frames[tid]
    declared = config.threads[tid]
    out: list[Succ] = []

    if f.pc == PC_DONE:
        return out

    if f.op is None:
        # uncommitted choice thread: one commit transition per open entry
        assert isinstance(declared, ChoiceOp)
        for op, gate in declared.menu:
            if _gate_open(config, state, gate):
                ns = _with_frame(state, tid, replace(f, op=op))
                out.append(Succ(f"{tid}:choose[{op.label()}]", ns))
        return out

    if isinstance(f.op, EnqOp):
        if f.pc == PC_IDLE:
            if state.back >= config.capacity:
                return out  # slot array exhausted
            uid = state.invoked_count()
            if config.mutant == MUTANT_NONATOMIC_ENQ:
                # split read-and-increment: claim the slot now, bump later
                nf = replace(f, pc=PC_E1B, uid=uid, slot=state.back)
                out.append(
                    Succ(f"{tid}:E1", _with_frame(state, tid, nf), enq_inv(uid, f.op.value))
                )
            else:
                nf = replace(f, pc=PC_E2, uid=uid, slot=state.back)
                ns = _with_frame(state, tid, nf, back=state.back + 1)
                out.append(Succ(f"{tid}:E1", ns, enq_inv(uid, f.op.value)))
        elif f.pc == PC_E1B:
            ns = _with_frame(state, tid, replace(f, pc=PC_E2), back=state.back + 1)
            out.append(Succ(f"{tid}:E1b", ns))
        elif f.pc == PC_E2:
            assert f.slot < state.back <= config.capacity
            items = state.items[: f.slot] + (f.op.value,) + state.items[f.slot + 1 :]
            ns = _with_frame(state, tid, replace(f, pc=PC_RET, slot=0), items=items)
            out.append(Succ(f"{tid}:E2", ns))
        elif f.pc == PC_RET:
            ns = _with_frame(state, tid, replace(f, pc=PC_DONE))
            out.append(Succ(f"{tid}:ret", ns, enq_res(f.uid)))
        return out

    assert isinstance(f.op, DeqOp)
    if f.pc in (PC_IDLE, PC_D1):
        if f.iters >= config.loop_bound:
            return out  # outer loop budget exhausted
        uid = f.uid
        action = None
        if f.pc == PC_IDLE:
            uid = state.invoked_count()
            action = deq_inv(uid)
        rng = state.back - 1
        start = _scan_start(config)
        if start <= rng:
            nf = replace(f, pc=PC_D2, uid=uid, slot=start, rng=rng, iters=f.iters + 1)
        else:
            # nothing to scan; stay between iterations with dead fields zeroed
            nf = replace(f, pc=PC_D1, uid=uid, slot=0, rng=-1, iters=f.iters + 1)
        out.append(Succ(f"{tid}:D1", _with_frame(state, tid, nf), action))
    elif f.pc == PC_D2:
        held = state.items[f.slot]
        plain = not f.op.instrumented
        if held is NULL:
            # an empty slot: move on (a prophecy dequeue's skip branch)
            scratch = state.scratch + (1 if config.mutant == MUTANT_DIRTY_SPIN else 0)
            ns = _with_frame(state, tid, _advance_scan(f), scratch=scratch)
            out.append(Succ(f"{tid}:D2" if plain else f"{tid}:D2B", ns))
        elif plain or held == f.op.prophecy:
            # take the value (a prophecy dequeue's commit branch)
            if config.mutant == MUTANT_NO_SWAP_CLEAR:
                items = state.items
            else:
                items = state.items[: f.slot] + (NULL,) + state.items[f.slot + 1 :]
            nf = replace(f, pc=PC_RET, slot=0, rng=-1, iters=0, result=held)
            label = f"{tid}:D2" if plain else f"{tid}:D2A"
            out.append(Succ(label, _with_frame(state, tid, nf, items=items)))
        # a prophecy dequeue facing another value blocks here
    elif f.pc == PC_RET:
        ns = _with_frame(state, tid, replace(f, pc=PC_DONE))
        out.append(Succ(f"{tid}:ret", ns, deq_res(f.uid, f.result)))
    return out


def classify_endpoint(config: Config, state: HWState) -> str:
    """Why a maximal trace stopped: COMPLETE, OVERFLOW, BOUND_HIT or STUCK."""
    if state.all_done:
        return "COMPLETE"
    overflow = bound = False
    for tid, f in enumerate(state.frames):
        if f.done:
            continue
        if isinstance(f.op, EnqOp) and f.pc == PC_IDLE and state.back >= config.capacity:
            overflow = True
        elif (
            isinstance(f.op, DeqOp)
            and f.pc in (PC_IDLE, PC_D1)
            and f.iters >= config.loop_bound
        ):
            bound = True
    if overflow:
        return "OVERFLOW"
    if bound:
        return "BOUND_HIT"
    return "STUCK"
