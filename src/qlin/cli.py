"""Command-line front door for the queue linearizability toolkit.

Subcommands: check a history file with the aspect detectors, decide it
with the brute-force oracle, exhaustively explore a queue-machine
configuration, run the bounded divergence harnesses, and generate
random histories for differential fuzzing.

Exit codes: 0 no violation, 1 violation, impure dequeue or counterexample
found, 2 usage, parse, bound, or IO error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .history import (
    NULL,
    History,
    HistoryError,
    deq_inv,
    deq_res,
    enq_inv,
    enq_res,
    parse_history,
    serialize_history,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _read_history(path: str) -> History:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        name = "<stdin>" if path == "-" else path
        raise HistoryError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_history(text)


def _behavior_text(witness) -> str:
    return " ".join(f"{e.method}^{e.uid}({e.value})" for e in witness.events)


# ---- check ----------------------------------------------------------------

def cmd_check(args) -> int:
    from .checker import LINEARIZABLE, VIOLATION, check_linearizable, detect_all

    try:
        c = _read_history(args.path)
    except (HistoryError, OSError) as exc:
        return _fail(str(exc))
    verdict = check_linearizable(c, build_witness=args.witness)
    lines = []
    if args.format == "lines":
        lines.append(verdict.summary())
        if args.witness and verdict.witness is not None:
            lines.append(f"WITNESS {_behavior_text(verdict.witness)}")
    else:
        if verdict.status == LINEARIZABLE:
            lines.append("linearizable")
            if args.witness and verdict.witness is not None:
                lines.append(f"witness: {_behavior_text(verdict.witness)}")
        elif verdict.status == VIOLATION:
            if verdict.violation is not None:
                lines.append(f"violation: {verdict.violation.summary()}")
            else:
                lines.append(f"violation: {verdict.reason}")
        else:
            lines.append(f"indeterminate: {verdict.reason}")
    if args.all and verdict.status == VIOLATION:
        # list every violation of the completion that drops pending events
        whole = c.remove_pending()
        if whole.is_differentiated:
            for v in detect_all(whole):
                lines.append(v.summary() if args.format == "lines"
                             else f"  also: {v.summary()}")
    print("\n".join(lines))
    if verdict.status == LINEARIZABLE:
        return EXIT_OK
    if verdict.status == VIOLATION:
        return EXIT_VIOLATION
    return EXIT_ERROR


# ---- oracle ---------------------------------------------------------------

def cmd_oracle(args) -> int:
    from .checker import OracleBoundExceeded, brute_force_linearizable

    try:
        c = _read_history(args.path)
    except (HistoryError, OSError) as exc:
        return _fail(str(exc))
    try:
        ok = brute_force_linearizable(c, max_actions=args.max_actions)
    except OracleBoundExceeded:
        return _fail(
            f"history has {len(c.actions)} actions, above --max-actions {args.max_actions}"
        )
    if args.format == "lines":
        print("LINEARIZABLE" if ok else "NOT-LINEARIZABLE")
    else:
        print("linearizable" if ok else "not linearizable")
    return EXIT_OK if ok else EXIT_VIOLATION


# ---- explore ---------------------------------------------------------------

def _build_config(args):
    from .hwmodel import Config, DeqOp, EnqOp

    if args.enq < 0 or args.deq < 0:
        raise ValueError("need --enq >= 0 and --deq >= 0")
    if args.values is not None:
        values = []
        for tok in filter(str.strip, args.values.split(",")):
            try:
                values.append(int(tok))
            except ValueError:
                raise ValueError(f"--values entry {tok.strip()!r} is not an integer") from None
        if len(values) != args.enq:
            raise ValueError(f"--values needs exactly {args.enq} entries")
    else:
        values = list(range(1, args.enq + 1))
    threads = tuple(EnqOp(v) for v in values) + tuple(DeqOp() for _ in range(args.deq))
    if not threads:
        raise ValueError("configuration needs at least one thread")
    capacity = args.capacity if args.capacity is not None else max(1, args.enq)
    return Config(
        threads=threads,
        capacity=capacity,
        loop_bound=args.loop_bound,
        mutant=args.mutant,
    )


def cmd_explore(args) -> int:
    from .sweep import sweep_config

    try:
        config = _build_config(args)
    except ValueError as exc:
        return _fail(str(exc))
    report = sweep_config(config, oracle=args.oracle, check_purity=args.purity)
    if args.format == "lines":
        print(report.summary())
        for v in report.violations:
            print(v.verdict.summary())
            for line in serialize_history(v.history).splitlines():
                print(f"  {line}")
            print(f"  schedule {' '.join(v.schedule)}")
        for imp in report.impure:
            print(f"IMPURE tid={imp.tid}")
            print(f"  schedule {' '.join(imp.schedule)}")
    else:
        problems = []
        if report.violations:
            problems.append(f"{len(report.violations)} violation(s)")
        if report.purity_violations:
            problems.append(f"{report.purity_violations} purity violation(s)")
        print(f"explored {report.total_traces} schedules, "
              f"{report.distinct_complete} representative histories "
              f"(at least one per isomorphism class): "
              f"{', '.join(problems) or 'clean'}")
        for v in report.violations:
            print(f"- {v.verdict.summary()}")
            print(f"  history: {'; '.join(serialize_history(v.history).splitlines())}")
            print(f"  schedule: {' '.join(v.schedule)}")
        for imp in report.impure:
            print(f"- impure dequeue: thread {imp.tid} run alone blocks after "
                  f"changing shared state")
            print(f"  schedule: {' '.join(imp.schedule)}")
    return EXIT_OK if report.clean else EXIT_VIOLATION


# ---- divergence -------------------------------------------------------------

def cmd_divergence(args) -> int:
    from .explorer import divergence_check_vord, divergence_check_vrepet

    try:
        if args.harness == "vrepet":
            report = divergence_check_vrepet(
                m=args.m, k=args.k, loop_bound=args.loop_bound, mutant=args.mutant
            )
        else:
            report = divergence_check_vord(
                k=args.k, loop_bound=args.loop_bound, mutant=args.mutant
            )
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "lines":
        print(report.summary())
    else:
        outcome = "pass" if report.passed else "FAIL"
        print(f"{report.name} {report.params}: {outcome} "
              f"({report.states} states explored)")
    if report.counterexample is not None:
        for line in report.counterexample.to_lines():
            print(f"  {line}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


# ---- gen --------------------------------------------------------------------

def generate_history(seed: int, n_enq: int, n_deq: int) -> History:
    """Deterministic pseudo-random complete differentiated history.

    Enqueues carry values 1..n_enq; every dequeue picks its result from
    the enqueued values plus NULL, so ill-formed queue behaviors (stale,
    repeated, reordered, vanished values) all stay reachable.
    """
    rng = random.Random(seed)
    total = n_enq + n_deq
    values = list(range(1, n_enq + 1))
    actions = []
    invoked: set[int] = set()
    responded: set[int] = set()
    while len(responded) < total:
        pool = [("inv", u) for u in range(total) if u not in invoked]
        pool += [("res", u) for u in sorted(invoked - responded)]
        kind, u = rng.choice(pool)
        if kind == "inv":
            invoked.add(u)
            actions.append(enq_inv(u, values[u]) if u < n_enq else deq_inv(u))
        else:
            responded.add(u)
            if u < n_enq:
                actions.append(enq_res(u))
            else:
                actions.append(deq_res(u, rng.choice(values + [NULL])))
    return History(tuple(actions))


def cmd_gen(args) -> int:
    if args.enq < 0 or args.deq < 0 or args.enq + args.deq == 0:
        return _fail("need --enq >= 0, --deq >= 0, at least one operation")
    print(serialize_history(generate_history(args.seed, args.enq, args.deq)))
    return EXIT_OK


# ---- argument wiring ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse swallows a failed write; a help text that cannot reach
        # stdout must fail like any other lost output, buffered or not
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    from .hwmodel import MUTANTS

    parser = _Parser(
        prog="qlin",
        description="FIFO-queue linearizability: aspect detectors, brute-force "
                    "oracle, and exhaustive queue-machine exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "lines"), default="human",
                       help="lines = one machine-readable record per line")

    p = sub.add_parser("check", help="run the aspect detectors on a history file")
    p.add_argument("path", help="history file, or - for stdin")
    p.add_argument("--all", action="store_true",
                   help="list every violation of the pending-dropped completion")
    p.add_argument("--witness", action="store_true",
                   help="print a linearization witness when linearizable")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="decide a history file by brute force")
    p.add_argument("path", help="history file, or - for stdin")
    p.add_argument("--max-actions", type=int, default=12,
                   help="refuse histories with more actions than this (default 12)")
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("explore", help="exhaustively explore a queue configuration")
    p.add_argument("--enq", type=int, default=2, help="number of enqueuer threads")
    p.add_argument("--deq", type=int, default=2, help="number of dequeuer threads")
    p.add_argument("--mutant", choices=MUTANTS, default="none")
    p.add_argument("--capacity", type=int, default=None,
                   help="slot array size (default: one per enqueuer)")
    p.add_argument("--loop-bound", type=int, default=3,
                   help="max dequeue scan rounds (default 3)")
    p.add_argument("--values", default=None,
                   help="comma-separated enqueue values (default 1..N)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every complete history by brute force")
    p.add_argument("--purity", action="store_true",
                   help="purity-check every reachable pending dequeue")
    add_format(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("divergence", help="run a bounded divergence harness")
    p.add_argument("harness", choices=("vrepet", "vord"))
    p.add_argument("--m", type=int, default=2,
                   help="vrepet: number of instrumented dequeuers (default 2)")
    p.add_argument("--k", type=int, default=0,
                   help="number of adversary choice threads (default 0)")
    p.add_argument("--loop-bound", type=int, default=3)
    p.add_argument("--mutant", choices=MUTANTS, default="none")
    add_format(p)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("gen", help="emit a deterministic random history")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enq", type=int, default=3)
    p.add_argument("--deq", type=int, default=3)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()
    except OSError as exc:
        # every file a command reads is read under its own handler, so what
        # reaches here is a failed write to stdout: the reader closed it, or
        # the device is full.  Point stdout at devnull so the interpreter's
        # final flush cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = "broken pipe" if isinstance(exc, BrokenPipeError) else exc.strerror or exc
        return _fail(f"cannot write to stdout: {reason}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
