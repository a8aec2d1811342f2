"""Linearizability of concurrent FIFO-queue histories.

Three layers:

- histories and the sequential queue specification (`history`,
  `queuespec`): parse/serialize operation histories, enumerate
  completions, decide legality of sequential behaviors, enumerate the
  candidate matches of dequeues to enqueues;
- the aspect checker (`checker`): one decision path that reads the four
  violation aspects through each candidate match of a complete history,
  the list of every aspect behind a verdict's evidence (`detect_all`,
  read through the same match), a witness constructor, and a
  brute-force oracle;
- an operational queue model: `hwmodel` is the readable specification
  of a slot-array queue with seeded bug variants; `sweep` explores
  every interleaving of a configuration on packed integer states, up to
  permuting identical threads, and checks every history it can produce;
  `explorer` runs the divergence harnesses, whose states, schedules and
  counterexample histories all come from `sweep`.  No command runs the
  readable model: it and `explorer.replay_schedule` are the reference
  the tests and the benchmark check the packed kernel against.

`cli.main` wires these into the `qlin` command.  The checkers of the
source paper's reformulation lemmas (sequential witnesses, canonical
behaviors, coverings) are proof devices and live in `tests/lemmas.py`.
"""

from .history import (
    NULL,
    Action,
    Event,
    History,
    HistoryError,
    HistoryParseError,
    deq_inv,
    deq_res,
    enq_inv,
    enq_res,
    parse_history,
)
from .queuespec import (
    REJECT,
    Behavior,
    QueueState,
    is_legal,
    replay,
)
from .checker import (
    INDETERMINATE,
    LINEARIZABLE,
    VIOLATION,
    OracleBoundExceeded,
    Verdict,
    VFresh,
    VOrd,
    VRepet,
    VWit,
    brute_force_linearizable,
    check_linearizable,
    construct_linearization,
    detect_all,
)
from .hwmodel import (
    GATE_FLAG_DONE,
    MUTANT_DIRTY_SPIN,
    MUTANT_NO_SWAP_CLEAR,
    MUTANT_NONATOMIC_ENQ,
    MUTANT_NONE,
    MUTANT_SKIP_SLOT_ZERO,
    MUTANTS,
    ChoiceOp,
    Config,
    DeqOp,
    EnqOp,
)
from .explorer import (
    Counterexample,
    DivergenceReport,
    divergence_check_vord,
    divergence_check_vrepet,
    vord_config,
    vrepet_config,
)
from .sweep import (
    SweepImpurity,
    SweepReport,
    SweepScopeError,
    SweepViolation,
    sweep_config,
)

__all__ = [name for name in dir() if not name.startswith("_")]
