"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``synth``     exact synthesis of a named benchmark or an explicit
              permutation; prints the minimal network(s) and can export
              the cheapest one as RevLib ``.real``.  ``--portfolio``
              races every engine in worker processes and keeps the
              first finisher; ``--workers N`` pipelines depth queries
              for the pipelined engines (see ``docs/parallelism.md``).
``suite``     run a batch of (benchmark, engine) tasks over a
              crash-isolated process pool, appending one run record per
              task to a JSONL trace.
``bench``     benchmark suite tools: ``list`` (the default) prints the
              suite with tiers and provenance; ``diff`` compares two
              ``BENCH_*.json`` snapshots key by key and exits nonzero
              on wall-clock regressions beyond a threshold.
``watch``     live-render a growing JSONL trace or ``--events`` file;
              ``synth``/``suite --progress`` renders the same stream
              inline without a second terminal.
``show``      print a benchmark's (possibly incomplete) truth table.
``qdimacs``   export the QBF synthesis instance for an external solver.
``check``     equivalence-check two ``.real`` circuit files.
``heuristic`` transformation-based (MMD) synthesis, for comparison;
              ``--simplify`` applies the peephole optimizer to its output.
``opsynth``   exact synthesis with output permutation (the follow-up
              extension): the synthesizer may relabel output lines.
``decompose`` map a ``.real`` circuit to elementary NCV quantum gates.
``trace-summary``  aggregate a JSONL run-record trace file (see
              ``docs/observability.md``) into a table.
``cache``     inspect and maintain the persistent synthesis store
              (``stats``/``ls``/``gc``/``clear`` — see ``docs/store.md``).
``serve``     run the synthesis daemon: store-first answering, request
              coalescing over orbit-equivalent specs, warm engine
              sessions, admission control and streamed progress over a
              TCP or unix socket (see ``docs/serving.md``).
``request``   submit one synthesis request to a running daemon (or ask
              it for ``--stats`` / ``--shutdown``).

``synth`` and ``suite`` accept ``--store DIR`` (default: the
``REPRO_STORE`` environment variable) to serve repeat configurations
from the persistent store and bank new results into it; ``--no-store``
opts a single run out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import repro.obs as obs
from repro.core.library import GateLibrary
from repro.core.realfmt import parse_real, write_real
from repro.core.spec import Specification
from repro.functions import SUITE, get_spec
from repro.synth import INCREMENTAL_ENGINES, synthesize
from repro.synth.qbf_engine import QbfSolverEngine
from repro.synth.transformation import transformation_synthesize
from repro.verify import circuits_equivalent, counterexample

__all__ = ["main"]


def _load_spec(args) -> Specification:
    if args.perm:
        perm = [int(v) for v in args.perm.split(",")]
        return Specification.from_permutation(perm, name="cli")
    return get_spec(args.benchmark)


#: Per-engine metric columns surfaced by ``synth --profile``.
_PROFILE_COLUMNS = {
    "bdd": ("bdd.nodes", "bdd.eq_size", "bdd.ite_calls",
            "bdd.ite_cache_hits", "bdd.quant_calls", "bdd.solutions"),
    "sat": ("sat.vars", "sat.clauses", "sat.conflicts", "sat.decisions",
            "sat.propagations", "sat.restarts"),
    "qbf": ("qbf.clauses", "qbf.expanded_clauses", "qbf.decisions",
            "qbf.propagations", "qbf.conflicts"),
    "sword": ("sword.nodes_visited", "sword.lb_prunes",
              "sword.budget_exhausted", "sword.tt_prunes",
              "sword.transpositions"),
}


class _EventOutputs:
    """Subscribers behind ``--progress`` / ``--events FILE``.

    Construct *before* the run (an unwritable events file raises
    ``OSError`` immediately) and :meth:`close` after it, ending the
    transient status line and detaching both subscribers.
    """

    def __init__(self, args):
        self.renderer = None
        self._unsubscribe = []
        if getattr(args, "progress", False):
            self.renderer = obs.ProgressRenderer(
                mode="plain" if getattr(args, "plain", False) else "auto")
            self._unsubscribe.append(obs.subscribe(self.renderer))
        path = getattr(args, "events", None)
        if path:
            open(path, "a").close()
            self._unsubscribe.append(obs.subscribe(
                lambda event: obs.append_jsonl_line(path, event)))

    def close(self) -> None:
        for unsubscribe in self._unsubscribe:
            unsubscribe()
        if self.renderer is not None:
            self.renderer.close()


def _print_profile(result) -> None:
    """The per-depth metrics table behind ``synth --profile``."""
    keys = _PROFILE_COLUMNS.get(result.engine)
    if keys is None:
        seen = sorted({k for step in result.per_depth for k in step.metrics})
        keys = tuple(seen[:6])
    titles = [k.split(".", 1)[-1] for k in keys]
    header = (f"{'depth':>5s} {'decision':>8s} {'time':>9s} "
              + " ".join(f"{t:>12s}" for t in titles))
    print("\nper-depth metrics:")
    print(header)
    print("-" * len(header))
    for step in result.per_depth:
        cells = []
        for key in keys:
            value = step.metrics.get(key)
            cells.append("-" if value is None else str(int(value)))
        flag = "*" if step.timed_out else ""
        print(f"{step.depth:5d} {step.decision + flag:>8s} "
              f"{step.runtime:8.3f}s " + " ".join(f"{c:>12s}" for c in cells))
    if any(step.timed_out for step in result.per_depth):
        print("(* = depth hit the time budget)")
    tracer = obs.get_tracer()
    if tracer.enabled and tracer.spans:
        print("\nspan tree:")
        print(tracer.format_tree())
        print("top spans by self time:")
        for name, aggregate in tracer.top_self(10):
            print(f"  {name:24s} {aggregate['count']:>6d}x "
                  f"self {aggregate['self']:8.3f}s  "
                  f"total {aggregate['total']:8.3f}s")


def _resolve_store(args) -> Optional[str]:
    """The store directory a command should use, or None.

    ``--no-store`` wins over everything; an explicit ``--store`` wins
    over the ``REPRO_STORE`` environment default.
    """
    if getattr(args, "no_store", False):
        return None
    explicit = getattr(args, "store", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_STORE") or None


def _add_progress_arguments(parser) -> None:
    parser.add_argument("--progress", action="store_true",
                        help="render live progress events (depth "
                             "refutations, solutions, store hits, worker "
                             "lifecycle) while the run executes")
    parser.add_argument("--plain", action="store_true",
                        help="with --progress: force line-per-event output "
                             "even on a TTY")
    parser.add_argument("--events", metavar="FILE",
                        help="append every progress event to FILE as JSONL")


def _add_store_arguments(parser) -> None:
    parser.add_argument("--store", metavar="DIR",
                        help="persistent synthesis store directory "
                             "(default: $REPRO_STORE when set)")
    parser.add_argument("--no-store", action="store_true",
                        help="ignore $REPRO_STORE and run without the "
                             "persistent store")
    parser.add_argument("--no-orbit", action="store_true",
                        help="address the store by the literal spec digest "
                             "instead of canonicalizing over line "
                             "relabelings, negation conjugations and the "
                             "functional inverse")


def _incremental_options(engine: str, no_incremental: bool) -> dict:
    """Engine options implementing ``--no-incremental``.

    Only the engines that understand the ``incremental`` constructor
    option receive it — ``sword`` searches from scratch per depth
    either way and accepts no such keyword.  For a portfolio race the
    flag becomes per-engine option dicts so only those racers see it.
    """
    if not no_incremental:
        return {}
    if engine == "portfolio":
        return {name: {"incremental": False} for name in INCREMENTAL_ENGINES}
    if engine in INCREMENTAL_ENGINES:
        return {"incremental": False}
    return {}


def _cmd_synth(args) -> int:
    spec = _load_spec(args)
    kinds = tuple(args.kinds.split("+"))
    if args.trace:
        # Fail on an unwritable trace target now, not after the run.
        try:
            open(args.trace, "a").close()
        except OSError as exc:
            print(f"error: cannot write trace file {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
    if args.profile or args.profile_json:
        obs.set_tracing(True)
    engine = "portfolio" if args.portfolio else args.engine
    engine_options = _incremental_options(engine, args.no_incremental)
    try:
        outputs = _EventOutputs(args)
    except OSError as exc:
        print(f"error: cannot write events file {args.events}: {exc}",
              file=sys.stderr)
        return 1
    try:
        result = synthesize(spec, kinds=kinds, engine=engine,
                            time_limit=args.time_limit, trace=args.trace,
                            workers=args.workers, store=_resolve_store(args),
                            orbit=not args.no_orbit, **engine_options)
    finally:
        outputs.close()
    if args.profile_json:
        payload = json.dumps(obs.get_tracer().to_dict(), indent=2,
                             sort_keys=True)
        if args.profile_json == "-":
            print(payload)
        else:
            with open(args.profile_json, "w") as handle:
                handle.write(payload + "\n")
            if not args.json:
                print(f"wrote span profile to {args.profile_json}")
    if result.store_hit and not args.json:
        print("(served from the persistent store)")
    elif result.store_resumed_from is not None and not args.json:
        print(f"(resumed iterative deepening after proven bound "
              f"{result.store_resumed_from})")
    if args.portfolio and not args.json:
        losers = getattr(result, "loser_results", {})
        cancelled = sorted(name for name, loser in losers.items()
                           if loser.status == "cancelled")
        print(f"portfolio winner: {result.winner_engine}"
              + (f" (cancelled: {', '.join(cancelled)})" if cancelled else ""))
    if args.json:
        record = obs.build_run_record(
            result, GateLibrary.from_kinds(spec.n_lines, kinds))
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0 if result.realized else 1
    print(result.summary())
    if args.profile:
        _print_profile(result)
    if not result.realized:
        return 1
    for step in result.per_depth:
        print(f"  depth {step.depth}: {step.decision} ({step.runtime:.3f}s)")
    best = result.circuit
    print(f"\ncheapest network (quantum cost {best.quantum_cost()}):")
    print(best.to_string())
    if args.all and len(result.circuits) > 1:
        print(f"\nall {len(result.circuits)} minimal networks:")
        for index, circuit in enumerate(result.circuits):
            print(f"-- #{index} (QC {circuit.quantum_cost()})")
            print(circuit.to_string())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(write_real(best, name=spec.name))
        print(f"\nwrote {args.output}")
    if args.trace:
        print(f"appended run record to {args.trace}")
    return 0


def _cmd_suite(args) -> int:
    from repro.parallel import SynthesisTask, default_workers, run_suite

    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        unknown = [n for n in names if n not in SUITE]
        if unknown:
            print(f"error: unknown benchmarks: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    else:
        names = [n for n in sorted(SUITE) if SUITE[n].tier == args.tier
                 or args.tier == "full"]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    kinds = tuple(args.kinds.split("+"))
    tasks = [SynthesisTask(spec=get_spec(name), engine=engine, kinds=kinds,
                           time_limit=args.time_limit,
                           orbit=not args.no_orbit,
                           engine_options=_incremental_options(
                               engine, args.no_incremental))
             for name in names for engine in engines]
    workers = args.workers if args.workers else default_workers()

    def progress(report):
        retried = " [retried]" if report.retried else ""
        print(f"  w{report.worker_id} {report.label}: "
              f"{report.status} ({report.runtime:.2f}s){retried}")

    try:
        outputs = _EventOutputs(args)
    except OSError as exc:
        print(f"error: cannot write events file {args.events}: {exc}",
              file=sys.stderr)
        return 1
    # --progress renders live events (including task_finished), so the
    # old per-report line would print everything twice.
    on_report = None if (args.quiet or args.progress) else progress
    try:
        run = run_suite(tasks, workers=workers, trace=args.trace,
                        store=_resolve_store(args), on_report=on_report)
    finally:
        outputs.close()
    print(run.summary())
    if args.trace:
        print(f"run records appended to {args.trace}")
    failed = [r for r in run.reports if not r.ok]
    for report in failed:
        print(f"  FAILED {report.label}: {report.error or report.status}",
              file=sys.stderr)
    return 1 if failed or run.interrupted else 0


def _fleet_tasks(args):
    """Build the task list a ``fleet submit`` shares with ``suite``."""
    from repro.parallel import SynthesisTask

    if args.benchmarks:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        unknown = [n for n in names if n not in SUITE]
        if unknown:
            raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")
    else:
        names = [n for n in sorted(SUITE) if SUITE[n].tier == args.tier
                 or args.tier == "full"]
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    kinds = tuple(args.kinds.split("+"))
    return [SynthesisTask(spec=get_spec(name), engine=engine, kinds=kinds,
                          time_limit=args.time_limit,
                          orbit=not args.no_orbit,
                          engine_options=_incremental_options(
                              engine, args.no_incremental))
            for name in names for engine in engines]


def _cmd_fleet_submit(args) -> int:
    from repro.fleet import FleetQueue

    try:
        tasks = _fleet_tasks(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    queue = FleetQueue(args.queue)
    for task in tasks:
        task_id = queue.submit(task, max_attempts=args.max_attempts)
        if not args.quiet:
            print(f"queued {task_id}")
    print(f"{len(tasks)} tasks queued under {queue.root}")
    return 0


def _cmd_fleet_work(args) -> int:
    from repro.fleet import work_queue

    try:
        outputs = _EventOutputs(args)
    except OSError as exc:
        print(f"error: cannot write events file {args.events}: {exc}",
              file=sys.stderr)
        return 1

    def progress(report):
        retried = " [retried]" if report.retried else ""
        print(f"  {report.label}: {report.status} "
              f"({report.runtime:.2f}s){retried}")

    try:
        summary = work_queue(
            args.queue, host=args.host, workers=args.workers or None,
            lease_timeout=args.lease_timeout, poll=args.poll,
            max_tasks=args.max_tasks, store_root=args.store or None,
            on_report=None if (args.quiet or args.progress) else progress)
    finally:
        outputs.close()
    print(f"fleet worker {summary['host']}: {summary['completed']} ok, "
          f"{summary['errors']} errors, {summary['claims']} claims, "
          f"{summary['commit_races']} commit races, "
          f"{summary['runtime']:.2f}s")
    return 0 if not summary["errors"] else 1


def _cmd_fleet_collect(args) -> int:
    from repro.fleet import collect_results

    outcome = collect_results(args.queue, trace=args.trace)
    print(f"collected {len(outcome['results'])} results"
          + (f" -> {args.trace}" if args.trace else ""))
    for task_id in outcome["failed"]:
        print(f"  FAILED {task_id} (attempts exhausted)", file=sys.stderr)
    for task_id in outcome["missing"]:
        print(f"  MISSING {task_id} (still open)", file=sys.stderr)
    return 1 if outcome["failed"] or outcome["missing"] else 0


def _cmd_fleet_merge(args) -> int:
    from repro.fleet import FleetQueue
    from repro.store import MergeConflict, merge_stores

    queue = FleetQueue(args.queue)
    sources = queue.host_store_roots()
    if not sources:
        print("error: no per-host stores under the queue", file=sys.stderr)
        return 1
    try:
        counters = merge_stores(args.into, sources,
                                check_identity=not args.no_check)
    except MergeConflict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"merged {counters['sources']} host stores into {args.into}: "
          f"{counters['objects']} objects, {counters['duplicates']} "
          f"duplicates verified, {counters['bounds']} bounds folded")
    return 0


def _cmd_fleet_status(args) -> int:
    from repro.fleet import FleetQueue

    status = FleetQueue(args.queue,
                        lease_timeout=args.lease_timeout).status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"queue {status['root']}: {status['done']}/{status['tasks']} done, "
          f"{status['open']} open ({status['claimed']} claimed, "
          f"{status['expired_leases']} expired), "
          f"{status['reclaims']} reclaims, "
          f"{len(status['failed'])} failed")
    for task_id in status["failed"]:
        print(f"  FAILED {task_id}")
    if status["hosts"]:
        print(f"  host stores: {', '.join(status['hosts'])}")
    return 0


def _cmd_bench_list(args) -> int:
    print(f"{'name':14s} {'lines':>5s} {'tier':>8s} {'paperD':>6s} "
          f"{'provenance':16s} note")
    for name in sorted(SUITE):
        entry = SUITE[name]
        spec = entry.spec()
        depth = entry.paper_depth_mct if entry.paper_depth_mct is not None else "-"
        print(f"{name:14s} {spec.n_lines:5d} {entry.tier:>8s} {depth:>6} "
              f"{entry.provenance:16s} {entry.note}")
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.obs.benchdiff import (diff_snapshots, format_report,
                                     load_snapshot)
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(args.current))
    try:
        baseline = load_snapshot(baseline_path)
        current = load_snapshot(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = diff_snapshots(baseline, current, threshold=args.threshold,
                            min_wall=args.min_wall,
                            calibrated=not args.no_calibrate)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"baseline: {baseline_path}")
        print(f"current:  {args.current}")
        print(format_report(report, show_all=args.show_all))
    return 1 if report["regressions"] else 0


def _cmd_watch(args) -> int:
    if not os.path.exists(args.trace):
        print(f"error: no such file: {args.trace}", file=sys.stderr)
        return 1
    renderer = obs.ProgressRenderer(
        mode="plain" if args.plain else "auto")
    count = 0
    try:
        for obj in obs.tail_jsonl(args.trace, follow=not args.no_follow,
                                  idle_exit=args.idle_exit):
            count += 1
            if obj.get("format") == obs.RUN_RECORD_FORMAT:
                renderer.println(obs.render_record(obj))
            elif "event" in obj:
                renderer(obj)
            else:
                renderer.println(json.dumps(obj, sort_keys=True))
    except KeyboardInterrupt:
        pass
    finally:
        renderer.close()
    if count == 0 and args.no_follow:
        print(f"warning: no records in {args.trace}", file=sys.stderr)
    return 0


def _cmd_show(args) -> int:
    spec = _load_spec(args)
    print(repr(spec))
    for i, row in enumerate(spec.rows):
        rendered = "".join("-" if v is None else str(v) for v in reversed(row))
        print(f"  {i:0{spec.n_lines}b} -> {rendered}")
    return 0


def _cmd_qdimacs(args) -> int:
    spec = _load_spec(args)
    kinds = tuple(args.kinds.split("+"))
    library = GateLibrary.from_kinds(spec.n_lines, kinds)
    engine = QbfSolverEngine(spec, library)
    text = engine.export_qdimacs(args.depth)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    with open(args.first) as handle:
        first, _ = parse_real(handle.read())
    with open(args.second) as handle:
        second, _ = parse_real(handle.read())
    if circuits_equivalent(first, second):
        print("EQUIVALENT")
        return 0
    witness = counterexample(first, second)
    assert witness is not None
    packed, out_a, out_b = witness
    n = first.n_lines
    print(f"NOT EQUIVALENT: input {packed:0{n}b} -> "
          f"{out_a:0{n}b} vs {out_b:0{n}b}")
    return 1


def _cmd_heuristic(args) -> int:
    spec = _load_spec(args)
    circuit = transformation_synthesize(spec)
    print(f"{spec.name}: MMD heuristic uses {len(circuit)} gates "
          f"(quantum cost {circuit.quantum_cost()})")
    if args.simplify:
        from repro.synth.optimize import simplify
        optimized = simplify(circuit)
        print(f"after peephole optimization: {len(optimized)} gates "
              f"(quantum cost {optimized.quantum_cost()})")
        circuit = optimized
    print(circuit.to_string())
    return 0


def _cmd_opsynth(args) -> int:
    from repro.synth.output_permutation import (
        synthesize_with_output_permutation,
    )
    spec = _load_spec(args)
    kinds = tuple(args.kinds.split("+"))
    result = synthesize_with_output_permutation(
        spec, kinds=kinds, time_limit=args.time_limit)
    if not result.realized:
        print(f"{spec.name}: {result.status}")
        return 1
    print(f"{spec.name}: D={result.depth} with output permutation "
          f"({result.num_solutions} networks over "
          f"{len(result.realizations)} permutations, "
          f"QCmin={result.quantum_cost_min}, {result.runtime:.2f}s)")
    if result.fixed_depth is not None:
        print(f"fixed-output minimal depth: {result.fixed_depth}")
    best_pi = result.best_permutation
    best = min(result.realizations[best_pi],
               key=lambda c: c.quantum_cost())
    print(f"\nbest permutation {best_pi} "
          f"(line l carries output pi[l]):")
    print(best.to_string())
    return 0


def _cmd_stats(args) -> int:
    from repro.core.export import to_json, to_latex
    from repro.core.statistics import analyze
    with open(args.circuit) as handle:
        circuit, _ = parse_real(handle.read())
    statistics = analyze(circuit)
    print(statistics.format())
    if args.latex:
        print()
        print(to_latex(circuit))
    if args.json:
        payload = {"circuit": json.loads(to_json(circuit, name=args.circuit)),
                   "statistics": statistics.to_dict()}
        print()
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_trace_summary(args) -> int:
    try:
        records, torn = obs.read_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace file {args.trace}: {exc}",
              file=sys.stderr)
        return 1
    if not records:
        print(f"error: no records in {args.trace}"
              + (f" ({torn} torn lines skipped)" if torn else ""),
              file=sys.stderr)
        return 1
    if torn:
        print(f"warning: skipped {torn} torn line{'s' if torn != 1 else ''} "
              f"(crash-interrupted append)", file=sys.stderr)
    print(obs.summarize_records(records))
    if args.validate:
        invalid = sum(1 for r in records if obs.validate_run_record(r))
        return 1 if invalid else 0
    return 0


def _cmd_cache(args) -> int:
    from repro.store import open_store

    root = args.store or os.environ.get("REPRO_STORE")
    if not root:
        print("error: no store directory — pass --store DIR or set "
              "REPRO_STORE", file=sys.stderr)
        return 2
    store = open_store(root)
    if args.action == "stats":
        payload = store.stats_payload() if args.json else store.stats()
        if args.json:
            # Same "bdd" section as the serve stats RPC: node-store
            # pressure figures published by synthesis runs in *this*
            # process (an embedding that opened the store in-process;
            # a fresh CLI shows zeros).
            import repro.obs as obs
            payload["bdd"] = {
                name: value
                for name, value in obs.default_registry().snapshot().items()
                if name.startswith("bdd.")}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.action == "ls":
        print(f"{'KEY':16s} {'SPEC':14s} {'ENGINE':7s} {'STATUS':10s} "
              f"{'D':>3s} {'BYTES':>9s}")
        count = 0
        for line in store.entries():
            depth = line.get("depth")
            print(f"{line.get('key', '?')[:16]:16s} "
                  f"{str(line.get('spec', '?')):14s} "
                  f"{str(line.get('engine', '?')):7s} "
                  f"{str(line.get('status', '?')):10s} "
                  f"{depth if depth is not None else '-':>3} "
                  f"{line.get('bytes', 0):>9d}")
            count += 1
        print(f"{count} stored results, "
              f"{store.stats()['bound_keys']} ledger keys")
        return 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("error: gc requires --max-bytes", file=sys.stderr)
            return 2
        outcome = store.gc(args.max_bytes)
        print(json.dumps(outcome, indent=2, sort_keys=True))
        return 0
    if args.action == "clear":
        store.clear()
        print(f"cleared store at {store.root}")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ServeConfig, SynthesisServer

    config = ServeConfig(
        host=args.host,
        port=None if args.socket else args.port,
        socket_path=args.socket,
        store=_resolve_store(args),
        max_concurrency=max(1, args.max_concurrency),
        queue_limit=max(0, args.queue_limit),
        pool_size=max(0, args.pool_size),
        drain_grace=max(0.0, args.drain_grace),
        orbit=not getattr(args, "no_orbit", False),
    )
    server = SynthesisServer(config)

    def announce(ready_server) -> None:
        store_line = (config.store if config.store
                      else "(ephemeral, discarded on exit)")
        print(f"repro serve listening on {ready_server.describe_address()}",
              flush=True)
        print(f"  store: {store_line}", flush=True)
        print(f"  max_concurrency={config.max_concurrency} "
              f"queue_limit={config.queue_limit} "
              f"pool_size={config.pool_size}", flush=True)

    try:
        asyncio.run(server.run(ready=announce))
    except KeyboardInterrupt:
        pass  # signal handler already drained; a second ^C lands here
    print("repro serve: drained, exiting", flush=True)
    return 0


def _cmd_request(args) -> int:
    from repro.serve import ServeClient

    try:
        client = ServeClient(args.connect, timeout=args.timeout)
    except (ConnectionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with client:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            ok = client.shutdown()
            print("daemon draining" if ok else "shutdown refused")
            return 0 if ok else 1
        request = {"engine": args.engine, "kinds": args.kinds,
                   "stream": bool(args.stream),
                   "orbit": not args.no_orbit}
        if args.benchmark:
            request["benchmark"] = args.benchmark
        else:
            request["perm"] = [int(v) for v in args.perm.split(",")]
            if args.name:
                request["name"] = args.name
        for key, value in (("max_gates", args.max_gates),
                           ("time_limit", args.time_limit),
                           ("deadline", args.deadline)):
            if value is not None:
                request[key] = value
        if args.use_bounds:
            request["use_bounds"] = True
        final = None
        try:
            for frame in client.synth(**request):
                if frame.get("type") == "event":
                    payload = frame["payload"]
                    print(f"  [{payload.get('event', '?')}] "
                          + " ".join(f"{k}={v}" for k, v in payload.items()
                                     if k not in ("event", "ts", "seq", "v")),
                          flush=True)
                else:
                    final = frame
        except ConnectionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if final is None or final.get("type") == "error":
        code = final.get("code", "?") if final else "connection-lost"
        message = final.get("message", "") if final else ""
        print(f"error [{code}]: {message}", file=sys.stderr)
        return 1
    record = final["record"]
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0 if final.get("status") == "realized" else 1
    print(f"{record.get('spec', '?')}: {final.get('status')} "
          f"(depth {final.get('depth')}, served: {final.get('served')}"
          f"{', coalesced' if final.get('coalesced') else ''})")
    for text in final.get("circuits", []):
        print()
        print(text.rstrip("\n"))
    return 0 if final.get("status") == "realized" else 1


def _cmd_decompose(args) -> int:
    from repro.quantum import decompose_circuit
    with open(args.circuit) as handle:
        circuit, _ = parse_real(handle.read())
    sequence = decompose_circuit(circuit)
    print(f"{args.circuit}: {len(circuit)} reversible gates -> "
          f"{len(sequence)} elementary quantum gates "
          f"(quantum cost model: {circuit.quantum_cost()})")
    for gate in sequence:
        if gate.control is not None:
            print(f"  {gate.label():6s} control=x{gate.control} "
                  f"target=x{gate.target}")
        else:
            print(f"  {gate.label():6s} target=x{gate.target}")
    return 0


def _add_spec_arguments(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--benchmark", "-b", choices=sorted(SUITE),
                       help="benchmark name from the suite")
    group.add_argument("--perm", "-p",
                       help="explicit permutation, e.g. 7,1,4,3,0,2,6,5")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Quantified synthesis of reversible logic")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="exact synthesis")
    _add_spec_arguments(synth)
    synth.add_argument("--kinds", default="mct",
                       help="gate library, e.g. mct, mct+mcf, mct+peres")
    synth.add_argument("--engine", default="bdd",
                       choices=("bdd", "qbf", "sat", "sword"))
    synth.add_argument("--portfolio", action="store_true",
                       help="race every engine in worker processes; "
                            "first complete result wins")
    synth.add_argument("--workers", type=int, default=1,
                       help="worker processes: caps the portfolio race, or "
                            "pipelines depth queries for sat/qbf/sword")
    synth.add_argument("--time-limit", type=float, default=None)
    synth.add_argument("--no-incremental", action="store_true",
                       help="decide every depth from scratch instead of "
                            "reusing engine state (warm SAT/QBF solver, "
                            "incremental BDD cascade) across the loop")
    synth.add_argument("--all", action="store_true",
                       help="print every minimal network (BDD engine)")
    synth.add_argument("--output", "-o", help="write cheapest network as .real")
    synth.add_argument("--trace", metavar="FILE",
                       help="append a JSONL run record to FILE")
    synth.add_argument("--profile", action="store_true",
                       help="enable span tracing and print per-depth metrics")
    synth.add_argument("--profile-json", metavar="FILE",
                       help="write the span tree + per-name self-time "
                            "totals as JSON ('-' for stdout); implies "
                            "span tracing")
    synth.add_argument("--json", action="store_true",
                       help="print the run record as JSON instead of text")
    _add_progress_arguments(synth)
    _add_store_arguments(synth)
    synth.set_defaults(func=_cmd_synth)

    suite = sub.add_parser(
        "suite", help="run a benchmark batch over a parallel process pool")
    suite.add_argument("--benchmarks", "-b",
                       help="comma-separated benchmark names "
                            "(default: the selected tier)")
    suite.add_argument("--tier", choices=("default", "full"),
                       default="default",
                       help="benchmark tier when --benchmarks is not given")
    suite.add_argument("--engines", default="bdd",
                       help="comma-separated engines, e.g. bdd,sat,sword")
    suite.add_argument("--kinds", default="mct",
                       help="gate library, e.g. mct, mct+mcf, mct+peres")
    suite.add_argument("--workers", type=int, default=0,
                       help="pool size (default: REPRO_WORKERS or "
                            "min(4, CPUs))")
    suite.add_argument("--time-limit", type=float, default=None,
                       help="per-task engine time budget in seconds")
    suite.add_argument("--no-incremental", action="store_true",
                       help="decide every depth from scratch in every task")
    suite.add_argument("--trace", metavar="FILE",
                       help="append one JSONL run record per task to FILE")
    suite.add_argument("--quiet", action="store_true",
                       help="suppress per-task progress lines")
    _add_progress_arguments(suite)
    _add_store_arguments(suite)
    suite.set_defaults(func=_cmd_suite)

    fleet = sub.add_parser(
        "fleet", help="multi-host suite sharding over a shared queue "
                      "directory (submit/work/collect/merge/status)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_submit = fleet_sub.add_parser(
        "submit", help="queue benchmark tasks for fleet workers")
    fleet_submit.add_argument("--queue", required=True, metavar="DIR",
                              help="shared queue directory (created)")
    fleet_submit.add_argument("--benchmarks", "-b",
                              help="comma-separated benchmark names "
                                   "(default: the selected tier)")
    fleet_submit.add_argument("--tier", choices=("default", "full"),
                              default="default",
                              help="benchmark tier when --benchmarks is "
                                   "not given")
    fleet_submit.add_argument("--engines", default="bdd",
                              help="comma-separated engines, e.g. "
                                   "bdd,sat,sword")
    fleet_submit.add_argument("--kinds", default="mct",
                              help="gate library, e.g. mct, mct+mcf")
    fleet_submit.add_argument("--time-limit", type=float, default=None,
                              help="per-task engine time budget in seconds")
    fleet_submit.add_argument("--no-incremental", action="store_true",
                              help="decide every depth from scratch in "
                                   "every task")
    fleet_submit.add_argument("--no-orbit", action="store_true",
                              help="literal store addressing in workers")
    fleet_submit.add_argument("--max-attempts", type=int, default=2,
                              help="claim attempts per task before it is "
                                   "marked failed (default 2)")
    fleet_submit.add_argument("--quiet", action="store_true",
                              help="suppress per-task queued lines")
    fleet_submit.set_defaults(func=_cmd_fleet_submit)

    fleet_work = fleet_sub.add_parser(
        "work", help="drain a queue from this host until it is empty")
    fleet_work.add_argument("--queue", required=True, metavar="DIR")
    fleet_work.add_argument("--host", default=None,
                            help="worker identity (default: hostname-pid)")
    fleet_work.add_argument("--workers", type=int, default=0,
                            help="local pool size (default: REPRO_WORKERS "
                                 "or min(4, CPUs))")
    fleet_work.add_argument("--lease-timeout", type=float, default=60.0,
                            help="seconds without a heartbeat before "
                                 "another host may reclaim a lease")
    fleet_work.add_argument("--poll", type=float, default=0.5,
                            help="nap between queue scans while other "
                                 "hosts hold the remaining leases")
    fleet_work.add_argument("--max-tasks", type=int, default=None,
                            help="stop after this many committed results")
    fleet_work.add_argument("--store", metavar="DIR",
                            help="host store directory (default: "
                                 "QUEUE/hosts/HOST/store)")
    fleet_work.add_argument("--quiet", action="store_true",
                            help="suppress per-task progress lines")
    _add_progress_arguments(fleet_work)
    fleet_work.set_defaults(func=_cmd_fleet_work)

    fleet_collect = fleet_sub.add_parser(
        "collect", help="gather results in submission order")
    fleet_collect.add_argument("--queue", required=True, metavar="DIR")
    fleet_collect.add_argument("--trace", metavar="FILE",
                               help="append one run record per result to "
                                    "FILE (task order)")
    fleet_collect.set_defaults(func=_cmd_fleet_collect)

    fleet_merge = fleet_sub.add_parser(
        "merge", help="fold every per-host store into one")
    fleet_merge.add_argument("--queue", required=True, metavar="DIR")
    fleet_merge.add_argument("--into", required=True, metavar="DIR",
                             help="destination store directory")
    fleet_merge.add_argument("--no-check", action="store_true",
                             help="skip canonical-record identity "
                                  "verification on duplicate keys")
    fleet_merge.set_defaults(func=_cmd_fleet_merge)

    fleet_status = fleet_sub.add_parser(
        "status", help="one-line queue snapshot")
    fleet_status.add_argument("--queue", required=True, metavar="DIR")
    fleet_status.add_argument("--lease-timeout", type=float, default=60.0,
                              help="staleness horizon for the expired-"
                                   "lease count")
    fleet_status.add_argument("--json", action="store_true")
    fleet_status.set_defaults(func=_cmd_fleet_status)

    bench = sub.add_parser(
        "bench", help="benchmark suite tools (list, diff)")
    bench.set_defaults(func=_cmd_bench_list)
    bench_sub = bench.add_subparsers(dest="bench_command")
    bench_list = bench_sub.add_parser("list",
                                      help="list the benchmark suite")
    bench_list.set_defaults(func=_cmd_bench_list)
    bench_diff = bench_sub.add_parser(
        "diff", help="compare two BENCH_*.json snapshots")
    bench_diff.add_argument("current", help="path to the newer snapshot")
    bench_diff.add_argument("baseline", nargs="?", default=None,
                            help="baseline snapshot (default: the file of "
                                 "the same name under --baseline-dir)")
    bench_diff.add_argument("--baseline-dir", default="benchmarks/baselines",
                            help="committed baseline snapshots directory")
    bench_diff.add_argument("--threshold", type=float, default=0.25,
                            help="relative wall-clock slowdown that counts "
                                 "as a regression (default 0.25 = 25%%)")
    bench_diff.add_argument("--min-wall", type=float, default=0.01,
                            help="wall-clock keys with a smaller baseline "
                                 "never gate (noise floor, seconds)")
    bench_diff.add_argument("--no-calibrate", action="store_true",
                            help="compare raw seconds, skipping machine-"
                                 "speed normalization via calibration_s")
    bench_diff.add_argument("--show-all", action="store_true",
                            help="list every compared key, not just "
                                 "wall-clock and changed ones")
    bench_diff.add_argument("--json", action="store_true",
                            help="print the full diff report as JSON")
    bench_diff.set_defaults(func=_cmd_bench_diff)

    watch = sub.add_parser(
        "watch", help="live-render a growing trace or events file")
    watch.add_argument("trace", help="JSONL file: run records, --events "
                                     "output, or a mix")
    watch.add_argument("--no-follow", action="store_true",
                       help="render existing content and exit")
    watch.add_argument("--idle-exit", type=float, default=None,
                       metavar="SECONDS",
                       help="stop following after this long without new data")
    watch.add_argument("--plain", action="store_true",
                       help="force plain line-per-event output even on a TTY")
    watch.set_defaults(func=_cmd_watch)

    show = sub.add_parser("show", help="print a specification's truth table")
    _add_spec_arguments(show)
    show.set_defaults(func=_cmd_show)

    qdimacs = sub.add_parser("qdimacs", help="export a QBF instance")
    _add_spec_arguments(qdimacs)
    qdimacs.add_argument("--depth", type=int, required=True)
    qdimacs.add_argument("--kinds", default="mct")
    qdimacs.add_argument("--output", "-o")
    qdimacs.set_defaults(func=_cmd_qdimacs)

    check = sub.add_parser("check", help="equivalence-check two .real files")
    check.add_argument("first")
    check.add_argument("second")
    check.set_defaults(func=_cmd_check)

    heuristic = sub.add_parser("heuristic",
                               help="transformation-based (MMD) synthesis")
    _add_spec_arguments(heuristic)
    heuristic.add_argument("--simplify", action="store_true",
                           help="apply the peephole optimizer afterwards")
    heuristic.set_defaults(func=_cmd_heuristic)

    opsynth = sub.add_parser("opsynth",
                             help="exact synthesis with output permutation")
    _add_spec_arguments(opsynth)
    opsynth.add_argument("--kinds", default="mct")
    opsynth.add_argument("--time-limit", type=float, default=None)
    opsynth.set_defaults(func=_cmd_opsynth)

    decompose = sub.add_parser("decompose",
                               help="map a .real circuit to NCV gates")
    decompose.add_argument("circuit", help="path to a .real file")
    decompose.set_defaults(func=_cmd_decompose)

    stats = sub.add_parser("stats", help="metrics of a .real circuit")
    stats.add_argument("circuit", help="path to a .real file")
    stats.add_argument("--latex", action="store_true",
                       help="also print a qcircuit LaTeX rendering")
    stats.add_argument("--json", action="store_true",
                       help="also print the JSON serialization "
                            "(circuit + statistics)")
    stats.set_defaults(func=_cmd_stats)

    trace_summary = sub.add_parser(
        "trace-summary", help="aggregate a JSONL run-record trace file")
    trace_summary.add_argument("trace", help="path to a .jsonl trace file")
    trace_summary.add_argument("--validate", action="store_true",
                               help="exit nonzero if any record is invalid")
    trace_summary.set_defaults(func=_cmd_trace_summary)

    cache = sub.add_parser(
        "cache", help="inspect/maintain the persistent synthesis store")
    cache.add_argument("action", choices=("stats", "ls", "gc", "clear"),
                       help="stats: totals+counters as JSON; ls: list "
                            "stored results; gc: shrink under --max-bytes; "
                            "clear: drop everything")
    cache.add_argument("--store", metavar="DIR",
                       help="store directory (default: $REPRO_STORE)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="size budget for gc")
    cache.add_argument("--json", action="store_true",
                       help="with stats: print the versioned "
                            "repro-cache-stats-v1 payload (the same "
                            "document the serve daemon's stats RPC "
                            "embeds as its store section)")
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the synthesis daemon (see docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7077,
                       help="TCP port; 0 picks a free one (default 7077)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="serve on a unix socket instead of TCP")
    serve.add_argument("--max-concurrency", type=int, default=2,
                       help="synthesis jobs running at once (default 2; "
                            "the engines are GIL-bound — the win is "
                            "coalescing and warm state, not CPU fan-out)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="jobs allowed to wait before requests are "
                            "rejected with queue_full (default 32)")
    serve.add_argument("--pool-size", type=int, default=8,
                       help="warm engine sessions kept across requests "
                            "(default 8; 0 disables the pool)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       help="seconds in-flight runs get to finish on "
                            "SIGTERM before cooperative cancellation "
                            "(default 5)")
    _add_store_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    request = sub.add_parser(
        "request", help="submit one request to a running serve daemon")
    request.add_argument("--connect", metavar="ADDR", required=True,
                         help="daemon address: host:port or a unix "
                              "socket path")
    group = request.add_mutually_exclusive_group(required=True)
    group.add_argument("--benchmark", "-b", choices=sorted(SUITE),
                       help="benchmark name from the suite")
    group.add_argument("--perm", "-p",
                       help="explicit permutation, e.g. 7,1,4,3,0,2,6,5")
    group.add_argument("--stats", action="store_true",
                       help="print the daemon's stats payload and exit")
    group.add_argument("--shutdown", action="store_true",
                       help="ask the daemon to drain and exit")
    request.add_argument("--name", default=None,
                         help="spec name for --perm requests")
    request.add_argument("--kinds", default="mct",
                         help="gate library, e.g. mct, mct+mcf")
    request.add_argument("--engine", default="bdd",
                         choices=("bdd", "qbf", "sat", "sword"))
    request.add_argument("--max-gates", type=int, default=None)
    request.add_argument("--time-limit", type=float, default=None,
                         help="engine time budget in seconds")
    request.add_argument("--deadline", type=float, default=None,
                         help="per-request deadline in seconds; the "
                              "daemon replies deadline_exceeded when "
                              "the answer is not ready in time")
    request.add_argument("--use-bounds", action="store_true",
                         help="start deepening from the proven lower "
                              "bound")
    request.add_argument("--no-orbit", action="store_true",
                         help="address the daemon's store by the "
                              "literal digest (disables coalescing "
                              "with orbit-equivalent requests)")
    request.add_argument("--stream", action="store_true",
                         help="print live progress events while the "
                              "daemon works")
    request.add_argument("--json", action="store_true",
                         help="print the full run record as JSON")
    request.add_argument("--timeout", type=float, default=300.0,
                         help="client socket timeout in seconds")
    request.set_defaults(func=_cmd_request)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
