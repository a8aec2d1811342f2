"""Schedule replay and the divergence harnesses on the readable model.

``replay_schedule`` re-runs a schedule through hwmodel and
``induce_history`` reads off its history; every schedule that sweep
reports is checked this way.  ``divergence_check_vrepet`` and
``divergence_check_vord`` build the two theorem-shaped programs around
the prophecy-instrumented dequeue and assert their termination
properties at every reachable state.  They walk the dataclass states of
hwmodel because they need the choice threads and prophecy dequeues that
the packed kernel in sweep does not model.

Schedules are tuples of ``tid:instruction`` labels and are always
replayable: feeding one back through ``replay_schedule`` reproduces the
same final state and the same induced history byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .history import Action, History, NULL
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
    hw_step,
    successors,
)


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
        succ = hw_step(config, state, label)
        state = succ.state
        if succ.action is not None:
            actions.append(succ.action)
    return ExecutionTrace(tuple(schedule), state, classify_endpoint(config, state), tuple(actions))


def _expand(config: Config, state: HWState) -> list:
    out = []
    for tid in range(len(config.threads)):
        out.extend(successors(config, state, tid))
    return out


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


def _other_values(*taken: int) -> tuple[int, int]:
    # small fixed palette for the "any other value" choices
    pool = [x for x in (8, 9, 7, 6) if x not in taken]
    return pool[0], pool[1]


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


def vrepet_config(v: int = 7, m: int = 2, k: int = 0, *,
                  loop_bound: int = 3, mutant: str = MUTANT_NONE) -> Config:
    """One enq(v), m prophecy-instrumented deq(v), k choice threads whose
    menus enqueue or dequeue values other than v."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if k < 0:
        raise ValueError("k must be non-negative")
    a, b = _other_values(v)
    menu = (
        (EnqOp(a), None),
        (EnqOp(b), None),
        (DeqOp(prophecy=a), None),
        (DeqOp(prophecy=b), None),
    )
    threads = (EnqOp(v),) + (DeqOp(prophecy=v),) * m + (ChoiceOp(menu),) * k
    return Config(threads=threads, capacity=1 + k, loop_bound=loop_bound, mutant=mutant)


def divergence_check_vrepet(v: int = 7, m: int = 2, k: int = 0, *,
                            loop_bound: int = 3,
                            mutant: str = MUTANT_NONE) -> DivergenceReport:
    """Explore the duplicate-return program and require that at most one
    of the deq(v) threads ever finishes with a value.

    The single enq(v) can feed one dequeue; a second finisher means the
    same element came out twice.  Checked at every reachable state; a
    finished thread stays finished, so this subsumes the per-endpoint
    phrasing.
    """
    config = vrepet_config(v, m, k, loop_bound=loop_bound, mutant=mutant)

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


def vord_config(k: int = 0, *, v1: int = 1, v2: int = 2,
                loop_bound: int = 3, mutant: str = MUTANT_NONE) -> Config:
    """deq(v2) against enq(v1) plus k choice threads.

    The choice menu may enqueue v2 only after the enq(v1) thread is done,
    may enqueue anything else freely, and may dequeue anything except v1.
    Keeping v1 out of the dequeue menu is what forces v1 to stay in the
    queue ahead of any v2.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if v1 == v2:
        raise ValueError("v1 and v2 must differ")
    a, b = _other_values(v1, v2)
    menu = (
        (EnqOp(v2), GATE_FLAG_DONE),
        (EnqOp(v1), None),
        (EnqOp(a), None),
        (EnqOp(b), None),
        (DeqOp(prophecy=v2), None),
        (DeqOp(prophecy=a), None),
        (DeqOp(prophecy=b), None),
    )
    threads = (DeqOp(prophecy=v2), EnqOp(v1)) + (ChoiceOp(menu),) * k
    return Config(
        threads=threads, capacity=1 + k, loop_bound=loop_bound,
        mutant=mutant, flag_tid=1,
    )


def divergence_check_vord(k: int = 0, *, v1: int = 1, v2: int = 2,
                          loop_bound: int = 3,
                          mutant: str = MUTANT_NONE) -> DivergenceReport:
    """Explore the ordering program and require that the deq(v2) thread
    never finishes.

    Every enqueue of v2 is forced to start after enq(v1) completed, and
    nothing may dequeue v1, so a finishing deq(v2) would have overtaken an
    older element.  Under the unmutated queue this also checks the slot
    invariant: once the enq(v1) thread is done, some slot below back holds
    v1 with no v2 in any earlier slot.
    """
    config = vord_config(k, v1=v1, v2=v2, loop_bound=loop_bound, mutant=mutant)

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
