"""Schedule replay and the divergence harnesses.

``replay_schedule`` re-runs a schedule through hwmodel and
``induce_history`` reads off its history.  No command calls them: the
tests and the benchmark replay the schedules that sweep and the
harnesses report through them, to check those against the readable
model.  ``divergence_check_vrepet`` and ``divergence_check_vord``
build the two theorem-shaped programs around the prophecy-instrumented
dequeue and hand them, with the predicates that state their termination
properties and a note for each, to one runner, ``_run``.  It reaches
the states only through the packed kernel in sweep, by
``sweep.reachable_states``, which counts no schedules, up to permuting
threads with the same declared operation: the reported state count is
the sum of the orbit sizes of the canonical states, each predicate is
invariant under those permutations and must hold at every one of them,
and a failing predicate's counterexample is the breadth-first schedule
to its first failing state, with the history read off the tokens that
walk emits (``sweep.first_schedule``).

Schedules are tuples of ``tid:instruction`` labels and are always
replayable: feeding one back through ``replay_schedule`` reproduces the
same final state and the same induced history byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .sweep import _Kernel


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


def _run(name: str, params: tuple, config: Config, check, invariant=None) -> DivergenceReport:
    """Walk the harness configuration and report on its predicates.

    check and invariant are (predicate, note) pairs.  A predicate is a
    function of (kernel, packed state) that must hold at every reachable
    state.  Each is invariant under permuting threads with the same
    declared operation, so it is evaluated on the canonical states only,
    and no more once it has failed; the state count is the sum of their
    orbits.  The states come from sweep.reachable_states, which counts
    no schedules: the harnesses need none.  A failing predicate's
    counterexample is sweep.first_schedule's breadth-first schedule to
    its first failing state, with the history its tokens spell.
    """
    kernel = _Kernel(config)
    canonical, bound_hit = sweep.reachable_states(kernel)
    pairs = [pair for pair in (check, invariant) if pair is not None]
    failing: list = []
    states = 0
    for state in canonical:
        states += kernel.orbit_size(state)
        for pair in pairs:
            if pair not in failing and not pair[0](kernel, state):
                failing.append(pair)

    def example(pair) -> Counterexample | None:
        if pair not in failing:
            return None
        holds, note = pair
        schedule, tokens, _ = sweep.first_schedule(kernel, lambda s: not holds(kernel, s))
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
    # a kernel dequeue finishes only by taking a value, and the choice
    # menus dequeue only 8 or 9, so a finished deq(7) thread took a value
    watched = [t for t, op in enumerate(config.threads) if op == DeqOp(prophecy=v)]

    def at_most_one(kernel: _Kernel, state: int) -> bool:
        return sum(kernel.done(state, t) for t in watched) <= 1

    return _run(
        "vrepet",
        (("v", v), ("m", m), ("k", k), ("loop_bound", loop_bound), ("mutant", mutant)),
        config,
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
    config = vord_config(k, loop_bound=loop_bound, mutant=mutant)

    def main_deq_blocked(kernel: _Kernel, state: int) -> bool:
        return not kernel.done(state, 0)

    def slot_invariant(kernel: _Kernel, state: int) -> bool:
        if not kernel.done(state, 1):
            return True
        for held in kernel.items(state):
            if held == v2:
                return False
            if held == v1:
                return True
        return False

    invariant = None
    if mutant == MUTANT_NONE:
        invariant = (slot_invariant, f"no slot holds {v1} below back without an earlier {v2}")
    return _run(
        "vord",
        (("k", k), ("v1", v1), ("v2", v2), ("loop_bound", loop_bound), ("mutant", mutant)),
        config,
        (main_deq_blocked,
         f"deq({v2}) finished although enq({v1}) came first and was never dequeued"),
        invariant,
    )
