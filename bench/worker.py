"""One workload in one fresh process: set-up, timed rounds, result gate.

Started by run.py, never imported by it.  Prints ``READY <unix time>``
once set-up is done (interpreter start, ``import qlin`` from the
checkout's ``src``, making the seeded inputs), then ``UNIT <seconds>``,
the median time of calibration units run right after, then one JSON
line with what the timed part measured and how many operations missed
their frozen expectation.  Exits 2 when the program's source is not
there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import calibration
import corpus
import expect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_UNITS = 15


class Workload:
    """Inputs of one workload and the operations run on them.

    ``ops`` lists (name, call) pairs; ``check(name, result)`` returns the
    ways a result misses its expectation and runs outside the timed part.
    ``round()`` is the order of calls in one timed round, where an
    operation may come more than once.  ``tracer`` is set only for the
    traced round.
    """

    tracer = None

    def __init__(self, qlin):
        self.q = qlin

    def round(self):
        return self.ops

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()


class CheckWorkload(Workload):
    """parse_history followed by check_linearizable, as ``qlin check``."""

    witness = False

    def __init__(self, qlin, seed):
        super().__init__(qlin)
        self.items = self.make_corpus(seed)
        self.ops = [(item.name, self._op(item.text)) for item in self.items]
        self.by_name = {item.name: item for item in self.items}
        self.parsed: list = []  # histories of the traced round, for the probe

    def _op(self, text):
        history, checker = self.q.history, self.q.checker
        witness = self.witness

        def call():
            h = history.parse_history(text)
            if self.tracer is not None:
                self.parsed.append(h)
            return checker.check_linearizable(h, build_witness=witness)
        return call

    def check(self, name, verdict) -> list[str]:
        item = self.by_name[name]
        if verdict.status != item.status:
            return [f"{verdict.status}, expected {item.status}"]
        if item.kind is not None and verdict.violation.kind != item.kind:
            return [f"violation {verdict.violation.kind}, expected {item.kind}"]
        if item.status == corpus.LINEARIZABLE and self.witness:
            if verdict.witness is None:
                return ["no witness"]
            null = self.q.history.NULL
            steps = [(e.uid, e.method, None if e.value is null else e.value)
                     for e in verdict.witness.events]
            if not corpus.fifo_witness_ok(item.text, steps):
                return ["witness fails the FIFO replay or real-time order"]
        return []

    def probe(self) -> None:
        """Call each detector, derive_match and construct_linearization
        directly on the drop-all-pending completion of every history the
        traced round parsed; check_linearizable reaches them through a
        table bound at import, which no wrapper can intercept."""
        ch = self.q.checker
        for h in self.parsed:
            c = h if h.is_complete else h.remove_pending()
            found = False
            for det in (ch.detect_vfresh, ch.detect_vrepet, ch.detect_vord, ch.detect_vwit):
                with self.span(f"checker.{det.__name__}"):
                    found = det(c) is not None or found
            with self.span("checker.derive_match"):
                match = ch.derive_match(c)
            if not found and match is not None:
                with self.span("checker.construct_linearization"):
                    ch.construct_linearization(c, match)


class CheckLong(CheckWorkload):
    witness = True
    make_corpus = staticmethod(corpus.long_corpus)


class CheckPending(CheckWorkload):
    make_corpus = staticmethod(corpus.pending_corpus)


def interleave(ops, small):
    """The round of a workload with a few long operations: the short ones
    run three times over first and again after each long one, so their
    calls are spread over the whole round instead of landing in one
    stretch of it."""
    out = small * 3
    for op in ops:
        if op not in small:
            out += [op] + small * 3
    return out


def _config(hw, n_enq, n_deq, mutant="none"):
    threads = tuple(hw.EnqOp(i + 1) for i in range(n_enq)) + tuple(
        hw.DeqOp() for _ in range(n_deq))
    return hw.Config(threads, capacity=4, loop_bound=4, mutant=mutant)


class SweepGrid(Workload):
    """sweep_config with the oracle, as ``qlin explore --engine packed
    --oracle [--purity]``, over the grid and the three mutant cells."""

    def __init__(self, qlin, seed):
        super().__init__(qlin)
        hw = qlin.hwmodel
        # pinned inputs: the seed changes nothing, and the order stays fixed
        # because it moves the peak RSS
        self.configs = {}
        for ne, nd in expect.GRID_EXPECT:
            self.configs[f"grid-{ne}+{nd}"] = (_config(hw, ne, nd), True)
        for ne, nd, mutant in expect.MUTANT_EXPECT:
            self.configs[f"mutant-{ne}+{nd}-{mutant}"] = (_config(hw, ne, nd, mutant), False)
        self.ops = [(name, self._op(name)) for name in self.configs]
        self.small = [op for op in self.ops if len(self.configs[op[0]][0].threads) <= 3]

    def round(self):
        return interleave(self.ops, self.small)

    def _op(self, name):
        sweep = self.q.sweep
        config, purity = self.configs[name]

        def call():
            with self.span("sweep.sweep_config"):
                return sweep.sweep_config(config, quotient=True, oracle=True,
                                          check_purity=purity)
        return call

    def check(self, name, r) -> list[str]:
        config, _ = self.configs[name]
        ne = sum(isinstance(t, self.q.hwmodel.EnqOp) for t in config.threads)
        nd = len(config.threads) - ne
        errs = []
        if r.oracle_disagreements != 0 or r.oracle_checked != r.distinct_complete:
            errs.append(f"oracle checked {r.oracle_checked} of {r.distinct_complete} "
                        f"classes, {r.oracle_disagreements} disagreements")
        if config.mutant == "none":
            complete, bound_hit, classes = expect.GRID_EXPECT[(ne, nd)]
            got = (r.trace_counts.get("COMPLETE", 0), r.trace_counts.get("BOUND_HIT", 0),
                   r.distinct_complete)
            if got != (complete, bound_hit, classes):
                errs.append(f"(complete, bound-hit, classes) {got}, expected "
                            f"{(complete, bound_hit, classes)}")
            if set(r.trace_counts) - {"COMPLETE", "BOUND_HIT"} or not r.clean:
                errs.append(f"unexpected traces {dict(r.trace_counts)} or violations")
            purity = expect.PURITY_EXPECT[ne] if nd else {}
            if dict(r.purity_outcomes) != purity or r.purity_violations:
                errs.append(f"purity {dict(r.purity_outcomes)}, expected {purity}")
            return errs
        classes, nviol, kind = expect.MUTANT_EXPECT[(ne, nd, config.mutant)]
        kinds = {v.verdict.violation.kind for v in r.violations}
        if (r.distinct_complete, len(r.violations), kinds) != (classes, nviol, {kind}):
            errs.append(f"(classes, violations, kinds) "
                        f"{(r.distinct_complete, len(r.violations), kinds)}, "
                        f"expected {(classes, nviol, {kind})}")
        ex = self.q.explorer
        for v in r.violations:
            again = ex.replay_schedule(config, v.schedule)
            if again.status != "COMPLETE" or \
                    ex.induce_history(again).serialize() != v.history.serialize():
                errs.append(f"violation schedule {v.schedule} does not replay")
                break
        return errs


def harnesses() -> dict:
    """name -> (harness, keyword arguments) of every divergence run."""
    out = {}
    for (m, k) in expect.VREPET_EXPECT:
        out[f"vrepet_m{m}_k{k}"] = ("vrepet", dict(m=m, k=k))
    for k in expect.VORD_EXPECT:
        out[f"vord_k{k}"] = ("vord", dict(k=k))
    for (kind, k, mutant) in expect.MUTANT_HARNESS_EXPECT:
        if kind == "vrepet":
            out[f"vrepet_m2_k{k}_{mutant}"] = (kind, dict(m=2, k=k, mutant=mutant))
        else:
            out[f"{kind}_k{k}_{mutant}"] = (kind, dict(k=k, mutant=mutant))
    return out


class Divergence(Workload):
    """divergence_check_vrepet / _vord, as ``qlin divergence``."""

    def __init__(self, qlin, seed):
        super().__init__(qlin)
        # pinned inputs, as in SweepGrid
        self.harnesses = harnesses()
        self.ops = [(name, self._op(name)) for name in self.harnesses]
        ex = qlin.explorer
        self.small = []
        for op in self.ops:
            kind, params = self.harnesses[op[0]]
            config = (ex.vrepet_config if kind == "vrepet" else ex.vord_config)(**params)
            if len(config.threads) <= 3:
                self.small.append(op)

    def round(self):
        return interleave(self.ops, self.small)

    def _op(self, name):
        ex = self.q.explorer
        kind, params = self.harnesses[name]
        fn = ex.divergence_check_vrepet if kind == "vrepet" else ex.divergence_check_vord

        def call():
            with self.span(f"explorer.{name}"):
                return fn(**params)
        return call

    def check(self, name, r) -> list[str]:
        kind, params = self.harnesses[name]
        mutant = params.get("mutant", "none")
        if mutant == "none":
            want = (expect.VREPET_EXPECT[(params["m"], params["k"])] if kind == "vrepet"
                    else expect.VORD_EXPECT[params["k"]])
            errs = [] if r.passed and r.counterexample is None and r.states == want else [
                f"passed={r.passed} states={r.states}, expected a pass with {want} states"]
            if kind == "vord" and not (r.invariant_ok is True and r.invariant_example is None):
                errs.append("slot invariant broken")
            return errs
        states, note = expect.MUTANT_HARNESS_EXPECT[(kind, params["k"], mutant)]
        got_note = r.counterexample.note if r.counterexample else None
        if r.passed or r.states != states or got_note != note:
            return [f"passed={r.passed} states={r.states} note={got_note!r}, expected a "
                    f"failure with {states} states and note {note!r}"]
        return []


CLASSES = {"check-long": CheckLong, "check-pending": CheckPending,
           "sweep-grid": SweepGrid, "divergence": Divergence}


def install_wrappers(tracer, q) -> None:
    """Wrap the layer entry points each workload reaches by module lookup."""
    tracer.wrap(q.history, "parse_history", "history.parse_history")
    tracer.wrap_generator(q.history.History, "completions", "history.completions")
    # sweep_config imports both at call time, from the module
    tracer.wrap(q.checker, "check_linearizable", "checker.check_linearizable")
    tracer.wrap(q.checker, "brute_force_linearizable", "checker.brute_force_linearizable")
    # sweep_config looks its phases up as module globals
    for phase in ("count_schedules", "purity_scan", "collect_histories"):
        tracer.wrap(q.sweep, phase, f"sweep.{phase}")
    # the harnesses reach the transition function and counterexample
    # replay through the names bound in qlin.explorer
    tracer.wrap_fine(q.explorer, "successors", "hwmodel.successors")
    tracer.wrap(q.explorer, "replay_schedule", "explorer.replay_schedule")


def run_ops(work: Workload, order, seconds: float) -> dict:
    """Rounds over the (name, call) pairs of order, each followed by the
    result gate outside the timed part.

    A new round starts only while it is expected to end within `seconds`
    (the median round so far), so a run lasts at most `seconds` or one
    round.  While ``work.tracer`` is set its wrappers come off after the
    round, before the gate.

    One calibration unit is timed before every call and one after the
    last, and a round's calls are scaled to the reference speed by the
    median of its units (see calibration.py).  An operation's latency is
    the median of its scaled calls, and wall_s, the time to verdict, is
    the sum of those.  round_s is the median over rounds of the scaled
    calls' sum.  Only the last round's results are kept, so memory does
    not grow with the rounds.
    """
    walls = []  # unscaled, for the deadline
    sums = []
    units_all: list[float] = []
    latencies: dict[str, list[float]] = {name: [] for name, _ in work.ops}
    attempted = failed = 0
    errors: list[str] = []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        results = []
        calls = []
        units = []
        t_round = perf_counter()
        with work.span("bench.round"):
            for name, call in order:
                units.append(calibration.time_unit())
                gc.collect()  # no operation pays for garbage left by the one before
                t = perf_counter()
                try:
                    got = call()
                except Exception:
                    traceback.print_exc()
                    got = None
                calls.append((name, perf_counter() - t))
                results.append((name, got))
            units.append(calibration.time_unit())
        walls.append(perf_counter() - t_round)
        if work.tracer is not None:
            work.tracer.restore()
        k = calibration.scale(units)
        units_all += units
        sums.append(k * sum(dt for _, dt in calls))
        for name, dt in calls:
            latencies[name].append(k * dt)
        for name, got in results:
            attempted += 1
            try:
                errs = ["raised"] if got is None else work.check(name, got)
            except Exception as exc:
                errs = [f"checking the result raised {exc!r}"]
            if errs:
                failed += 1
                errors.append(f"{name}: {'; '.join(errs)}")
    medians = [statistics.median(v) for v in latencies.values()]
    return {"rounds": len(walls), "round_s": statistics.median(sums),
            "wall_s": sum(medians), "latencies_s": medians,
            "unit_s": statistics.median(units_all),
            "attempted": attempted, "failed": failed,
            "errors": errors[:20], "results": results}


def layer_metrics(work: Workload, tracer, out: dict, selfs: dict) -> dict:
    """Per-layer metrics of one traced round; zero where a workload
    bypasses the layer.  selfs are the layers' self times, taken before
    the detector probe added its spans."""
    t = tracer.total
    m = {}
    m["history.parse_s"] = t("history.parse_history")[1]
    enumerations = t("history.completions")[0]
    yielded = tracer.items("history.completions")
    m["history.completions_n"] = yielded / enumerations if enumerations else 0
    for name in ("check_linearizable", "detect_vfresh", "detect_vrepet", "detect_vord",
                 "detect_vwit", "derive_match", "construct_linearization"):
        m[f"checker.{name}_s"] = t(f"checker.{name}")[1]
    pending = sum(item.pending_deqs > 0 for item in getattr(work, "items", ()))
    m["checker.completions_per_verdict"] = pending / yielded if pending and yielded else 0
    m["checker.oracle_s"] = t("checker.brute_force_linearizable")[1]
    reports = [r for _, r in out["results"] if r is not None]
    for phase, key in (("count_schedules", "count"), ("purity_scan", "purity"),
                       ("collect_histories", "collect")):
        m[f"sweep.{key}_s"] = t(f"sweep.{phase}")[1]
    sweeps = isinstance(work, SweepGrid)
    m["sweep.rest_s"] = max(0.0, t("sweep.sweep_config")[1] - m["sweep.count_s"]
                            - m["sweep.purity_s"] - m["sweep.collect_s"]
                            - m["checker.check_linearizable_s"] - m["checker.oracle_s"]
                            ) if sweeps else 0
    m["sweep.canonical_states"] = sum(r.canonical_states for r in reports) if sweeps else 0
    m["sweep.collect_nodes"] = sum(r.nodes for r in reports) if sweeps else 0
    m["sweep.classes"] = sum(r.distinct_complete for r in reports) if sweeps else 0
    m["sweep.count_us_per_state"] = (m["sweep.count_s"] / m["sweep.canonical_states"] * 1e6
                                     if m["sweep.canonical_states"] else 0)
    m["sweep.collect_us_per_node"] = (m["sweep.collect_s"] / m["sweep.collect_nodes"] * 1e6
                                      if m["sweep.collect_nodes"] else 0)
    calls, seconds = t("hwmodel.successors")
    m["hwmodel.successors_s"], m["hwmodel.successors_calls"] = seconds, calls
    harness_s = 0.0
    for name in harnesses():
        m[f"explorer.{name}_s"] = t(f"explorer.{name}")[1]
        harness_s += m[f"explorer.{name}_s"]
    states = sum(r.states for r in reports) if isinstance(work, Divergence) else 0
    m["explorer.states"] = states
    m["explorer.us_per_state"] = harness_s / states * 1e6 if states else 0
    m["explorer.replay_s"] = t("explorer.replay_schedule")[1]
    for layer in ("bench", "history", "checker", "sweep", "explorer", "hwmodel"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=CLASSES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "qlin" / "__init__.py").is_file():
        print(f"no qlin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qlin
    import qlin.checker, qlin.explorer, qlin.history, qlin.hwmodel, qlin.sweep  # noqa: E401
    if Path(qlin.__file__).resolve().parent != SRC / "qlin":
        print(f"imported qlin from {qlin.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = CLASSES[args.workload](qlin, args.seed)
    print(f"READY {time.time()!r}", flush=True)
    # the machine's speed just after set-up, to scale the set-up time by
    units = [calibration.time_unit() for _ in range(SETUP_UNITS)]
    print(f"UNIT {statistics.median(units)!r}", flush=True)
    if args.setup_only:
        return 0

    # the inputs live for the whole run; keep collections from walking them
    gc.freeze()
    if not args.trace:
        out = run_ops(work, work.round(), args.seconds)
    else:
        # untraced rounds in the traced round's order, to set the overhead against
        plain = run_ops(work, work.ops, args.seconds)
        from tracing import Tracer
        work.tracer = tracer = Tracer()
        install_wrappers(tracer, qlin)
        out = run_ops(work, work.ops, 0)
        selfs = tracer.self_times()
        if isinstance(work, CheckWorkload):
            work.probe()
        layers = layer_metrics(work, tracer, out, selfs)
        layers["trace.overhead_s"] = out["round_s"] - plain["round_s"]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", selfs)
        out["layers"] = layers
        out["untraced_rounds"] = plain["rounds"]
        for key in ("attempted", "failed"):
            out[key] += plain[key]
        out["errors"] = (plain["errors"] + out["errors"])[:20]
    result = {k: v for k, v in out.items() if k != "results"}
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
