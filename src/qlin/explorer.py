"""Schedule replay and the divergence harnesses.

``replay_schedule`` re-runs a schedule through hwmodel and
``induce_history`` reads off its history.  No command calls them: the
tests and the benchmark replay the schedules that sweep and the
harnesses report through them, to check those against the readable
model.  ``divergence_check_vrepet`` and ``divergence_check_vord``
build the two theorem-shaped programs around the prophecy-instrumented
dequeue and hand them, with the predicates that state their termination
properties and a note for each, to one runner, ``_run``.  It reaches
the states only through the packed kernel in sweep, by one
breadth-first walk, ``sweep.reachable_states``, which counts no
schedules, up to permuting threads with the same declared operation:
the reported state count is the sum of the orbit sizes of the
canonical states, each predicate is invariant under those permutations
and must hold at every one of them, and a failing predicate's
counterexample is the breadth-first schedule to its first failing
state, with the history read off the tokens that schedule emits.  With
no such permutation the walk's own parents give that schedule
(``sweep.walked_schedule``); otherwise a raw breadth-first walk finds
it (``sweep.first_schedule``).

Schedules are tuples of ``tid:instruction`` labels and are always
replayable: feeding one back through ``replay_schedule`` reproduces the
same final state and the same induced history byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse

from .history import Action, History
from .hwmodel import (
    ChoiceOp,
    Config,
    DeqOp,
    EnqOp,
    GATE_FLAG_DONE,
    HWState,
    MUTANT_NONE,
    classify_endpoint,
    hw_init,
    successors,
)
from . import sweep
from .sweep import _DONE, _Kernel


@dataclass(frozen=True)
class ExecutionTrace:
    """A maximal (or replayed) run: schedule, final state, stop reason,
    and the actions emitted along the way."""

    schedule: tuple[str, ...]
    final: HWState
    status: str
    actions: tuple[Action, ...]


def induce_history(trace: ExecutionTrace) -> History:
    """The history of a trace: invocation and response actions in schedule
    order, internal steps dropped."""
    return History(trace.actions)


def replay_schedule(config: Config, schedule: tuple[str, ...] | list[str]) -> ExecutionTrace:
    """Re-run a schedule from the initial state.

    Raises ValueError if any label is not enabled where it appears.
    """
    state = hw_init(config)
    actions: list[Action] = []
    for label in schedule:
        tid = int(label.partition(":")[0])
        succ = next((s for s in successors(config, state, tid) if s.label == label), None)
        if succ is None:
            raise ValueError(f"label {label!r} is not enabled")
        state = succ.state
        if succ.action is not None:
            actions.append(succ.action)
    return ExecutionTrace(tuple(schedule), state, classify_endpoint(config, state), tuple(actions))


# ---------------------------------------------------------------------------
# divergence harnesses


@dataclass(frozen=True)
class Counterexample:
    schedule: tuple[str, ...]
    history: History
    note: str

    def to_lines(self) -> list[str]:
        lines = [f"counterexample: {self.note}", "schedule:"]
        lines.extend(f"  {label}" for label in self.schedule)
        lines.append("history:")
        lines.extend(f"  {line}" for line in self.history.serialize().splitlines())
        return lines


@dataclass(frozen=True)
class DivergenceReport:
    name: str
    params: tuple[tuple[str, object], ...]
    passed: bool
    states: int
    bound_caveat: bool
    counterexample: Counterexample | None = None
    invariant_ok: bool | None = None
    invariant_example: Counterexample | None = None

    def summary(self) -> str:
        parts = [f"DIVERGENCE {self.name}"]
        parts.extend(f"{k}={v}" for k, v in self.params)
        parts.append("status=" + ("pass" if self.passed else "fail"))
        parts.append(f"states={self.states}")
        if self.bound_caveat:
            parts.append("caveat=loop-bound-hit")
        if self.invariant_ok is not None:
            parts.append(f"slot-invariant={'ok' if self.invariant_ok else 'broken'}")
        return " ".join(parts)


def _run(name: str, params: tuple, kernel: _Kernel, check, invariant=None) -> DivergenceReport:
    """Walk the harness configuration and report on its predicates.

    check and invariant are (predicate, note) pairs.  A predicate is a
    function of a packed state of kernel that must hold at every
    reachable state.  Each is invariant under permuting threads with the
    same declared operation, so it is evaluated on the canonical states
    only, in the breadth-first order of sweep.reachable_states, up to
    its first failing state.  The state count is the sum of the
    canonical states' orbits; an orbit's size reads only the frames of
    the symmetry groups, so it is computed once per distinct projection
    onto them.  A failing predicate's counterexample is the breadth-first
    schedule to its first failing state, with the history its tokens
    spell: with no symmetry group the canonical states are the raw ones
    and the walk's parents give it (sweep.walked_schedule), otherwise
    sweep.first_schedule walks the raw states again for it.
    """
    parents, bound_hit = sweep.reachable_states(kernel)
    if kernel.sym_groups:
        group_mask = 0
        for tids in kernel.sym_groups:
            for t in tids:
                group_mask |= kernel.f_mask << kernel.shifts[t]
        frames = Counter(state & group_mask for state in parents)
        states = sum(kernel.orbit_size(f) * n for f, n in frames.items())
    else:
        states = len(parents)

    def example(pair) -> Counterexample | None:
        if pair is None:
            return None
        holds, note = pair
        bad = next(filterfalse(holds, parents), None)
        if bad is None:
            return None
        if kernel.sym_groups:
            schedule, tokens, _ = sweep.first_schedule(kernel, lambda s: not holds(s))
        else:
            schedule, tokens = sweep.walked_schedule(kernel, parents, bad)
        return Counterexample(schedule, kernel.tokens_to_history(tokens), note)

    ce, inv_example = example(check), example(invariant)
    return DivergenceReport(
        name=name,
        params=params,
        passed=ce is None,
        states=states,
        bound_caveat=bound_hit,
        counterexample=ce,
        invariant_ok=None if invariant is None else inv_example is None,
        invariant_example=inv_example,
    )


# the harness values: the duplicated value of vrepet, and the older and
# the newer value of vord; the choice menus use 8 and 9 for "any other"
VREPET_V = 7
VORD_V1, VORD_V2 = 1, 2


def vrepet_config(m: int = 2, k: int = 0, *,
                  loop_bound: int = 3, mutant: str = MUTANT_NONE) -> Config:
    """One enq(7), m prophecy-instrumented deq(7), and k choice threads
    whose menus enqueue or dequeue 8 or 9, values other than 7."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if k < 0:
        raise ValueError("k must be non-negative")
    menu = (
        (EnqOp(8), None),
        (EnqOp(9), None),
        (DeqOp(prophecy=8), None),
        (DeqOp(prophecy=9), None),
    )
    threads = (EnqOp(VREPET_V),) + (DeqOp(prophecy=VREPET_V),) * m + (ChoiceOp(menu),) * k
    return Config(threads=threads, capacity=1 + k, loop_bound=loop_bound, mutant=mutant)


def divergence_check_vrepet(m: int = 2, k: int = 0, *,
                            loop_bound: int = 3,
                            mutant: str = MUTANT_NONE) -> DivergenceReport:
    """Explore the duplicate-return program and require that at most one
    of the deq(7) threads ever finishes with a value.

    The single enq(7) can feed one dequeue; a second finisher means the
    same element came out twice.  Checked at every reachable state; a
    finished thread stays finished, so this subsumes the per-endpoint
    phrasing.
    """
    v = VREPET_V
    config = vrepet_config(m, k, loop_bound=loop_bound, mutant=mutant)
    kernel = _Kernel(config)
    # a kernel dequeue finishes only by taking a value, and the choice
    # menus dequeue only 8 or 9, so a finished deq(7) thread took a value.
    # watched holds the lowest pc bit of each deq(7) frame; of the pcs
    # 0 to 6, DONE, 6, is the only one with both higher bits set, so
    # state >> 1 & state >> 2 & watched has a bit per finished deq(7)
    watched = sum(1 << kernel.shifts[t] for t, op in enumerate(config.threads)
                  if op == DeqOp(prophecy=v))

    def at_most_one(state: int) -> bool:
        done = state >> 1 & state >> 2 & watched
        return not done & (done - 1)

    return _run(
        "vrepet",
        (("v", v), ("m", m), ("k", k), ("loop_bound", loop_bound), ("mutant", mutant)),
        kernel,
        (at_most_one, f"two deq({v}) threads finished on one enq({v})"),
    )


def vord_config(k: int = 0, *,
                loop_bound: int = 3, mutant: str = MUTANT_NONE) -> Config:
    """deq(2) against enq(1) plus k choice threads.

    The choice menu may enqueue 2 only after the enq(1) thread is done,
    may enqueue 1, 8 or 9 freely, and may dequeue 2, 8 or 9 but not 1.
    Keeping 1 out of the dequeue menu is what forces 1 to stay in the
    queue ahead of any 2.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    v1, v2 = VORD_V1, VORD_V2
    menu = (
        (EnqOp(v2), GATE_FLAG_DONE),
        (EnqOp(v1), None),
        (EnqOp(8), None),
        (EnqOp(9), None),
        (DeqOp(prophecy=v2), None),
        (DeqOp(prophecy=8), None),
        (DeqOp(prophecy=9), None),
    )
    threads = (DeqOp(prophecy=v2), EnqOp(v1)) + (ChoiceOp(menu),) * k
    return Config(
        threads=threads, capacity=1 + k, loop_bound=loop_bound,
        mutant=mutant, flag_tid=1,
    )


def divergence_check_vord(k: int = 0, *,
                          loop_bound: int = 3,
                          mutant: str = MUTANT_NONE) -> DivergenceReport:
    """Explore the ordering program and require that the deq(2) thread
    never finishes.

    Every enqueue of 2 is forced to start after enq(1) completed, and
    nothing may dequeue 1, so a finishing deq(2) would have overtaken an
    older element.  Under the unmutated queue this also checks the slot
    invariant: once the enq(1) thread is done, some slot below back holds
    1 with no 2 in any earlier slot.
    """
    v1, v2 = VORD_V1, VORD_V2
    kernel = _Kernel(vord_config(k, loop_bound=loop_bound, mutant=mutant))
    deq_sh, enq_sh = kernel.shifts[0], kernel.shifts[1]
    # slots hold 1-based value indices, 0 for NULL; v2 is enqueued only
    # by a choice thread's menu, so with none it has no index
    index = {v: i for i, v in enumerate(kernel.values, 1)}
    i1, i2 = index[v1], index.get(v2, -1)
    back_mask, item_mask = kernel.back_mask, kernel.item_mask
    cells = [kernel.items_sh + kernel.item_w * i for i in range(kernel.cap)]

    def main_deq_blocked(state: int) -> bool:
        return (state >> deq_sh) & 0x7 != _DONE

    def slot_invariant(state: int) -> bool:
        if (state >> enq_sh) & 0x7 != _DONE:
            return True
        for sh in cells[:state & back_mask]:
            held = (state >> sh) & item_mask
            if held == i2:
                return False
            if held == i1:
                return True
        return False

    invariant = None
    if mutant == MUTANT_NONE:
        invariant = (slot_invariant, f"no slot holds {v1} below back without an earlier {v2}")
    return _run(
        "vord",
        (("k", k), ("v1", v1), ("v2", v2), ("loop_bound", loop_bound), ("mutant", mutant)),
        kernel,
        (main_deq_blocked,
         f"deq({v2}) finished although enq({v1}) came first and was never dequeued"),
        invariant,
    )
