"""The repository's benchmark: the paper's tables and the serve daemon.

Usage, from the repository root::

    python3 perfbench/run.py --workload table-bdd --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

``table-bdd``
    The BDD engine over the pinned Table 1/3 cells, serially in one
    process with no store.
``table-solvers``
    The SAT, QBF and SWORD engines over the default tier, through
    ``repro.parallel.run_suite`` on 2 workers, longest first.
``serve-orbit``
    A ``python -m repro serve`` daemon on a unix socket with a fresh
    store, driven closed-loop over 2 connections by orbit variants of
    seeded representatives (see ``serve_load.py``).

A run is a fixed number of *passes*, ``seconds // PASS_SECONDS`` (at
least one).  Each pass is a fresh program process: a table worker
(``pass_worker.py``) or a daemon, so set-up is sampled once per pass.
Every answer is checked after its pass; a wrong answer, a timeout or an
error reply counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics: the
traced pass wraps each layer's public entry point from outside
(``layers.py``), and for ``serve-orbit`` both passes host the daemon
in this process (``repro.serve.ServerThread``) so the wrappers see its
calls.  The last line of standard output is the result JSON.

The benchmark exits non-zero without a result when the program's
source (``src/repro``) is not next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

WORKLOADS = ("table-bdd", "table-solvers", "serve-orbit")

#: Nominal length of one pass (set-up and checks included) on a 2-core
#: host; a run makes ``seconds // PASS_SECONDS`` passes, at least one.
PASS_SECONDS = {"table-bdd": 14, "table-solvers": 14, "serve-orbit": 9}

#: Set-ups sampled per run besides the passes' own.
SETUP_PROBES = 2

#: A run is cut at this many seconds, whatever its passes.
RUN_DEADLINE = 170.0

#: Work files (sockets, stores, logs) live under the benchmark's own
#: ignored directory, relative to the repository root (short unix socket
#: paths), one subdirectory per run.
WORK = os.path.join("perfbench", ".work", str(os.getpid()))


def program_env() -> Dict[str, str]:
    """Environment for program processes: ``src`` importable and a fixed
    hash seed (``main`` drops every ``REPRO_*`` setting)."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` (killing it after ``timeout``); its peak RSS in MB,
    including the children it reaped."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = math.inf
        time.sleep(0.005)


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- table workloads ------------------------------------------------------------

def table_pass(workload: str, seed: int, mode: str, deadline: float) -> Dict:
    """One fresh worker process; set-up timed from outside."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "pass_worker.py"), workload,
         str(seed), mode],
        cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                            proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - began
        lines = proc.stdout.read().splitlines()
    finally:
        timer.cancel()
        proc.stdout.close()
        rss = reap(proc, 10.0)
    if ready.strip() != "ready" or proc.returncode != 0:
        return {"crashed": True}
    if mode == "setup":
        return {"crashed": False, "setup_s": setup}
    out = json.loads(lines[-1])
    out.update(setup_s=setup, rss_mb=rss, crashed=False)
    return out


def table_failures(sample: Dict, n_cells: int) -> int:
    if sample["crashed"] or not sample["kernel"]:
        return n_cells  # no answers, or the pure-Python fallback ran
    return sum(1 for item in sample["cells"] if item["problems"])


def run_tables(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    import cells

    n_cells = len(cells.workload_cells(workload))
    deadline = time.perf_counter() + RUN_DEADLINE
    plan = (["untraced", "traced"] if trace
            else ["untraced"] * passes_for(workload, seconds))
    samples = [table_pass(workload, seed, mode, deadline) for mode in plan]
    failed = sum(table_failures(sample, n_cells) for sample in samples)
    for sample in samples:
        for item in sample.get("cells", ()):
            for problem in item["problems"]:
                print(f"FAIL {item['id']}: {problem}", file=sys.stderr)
    attempted = n_cells * len(samples)
    if any(sample["crashed"] for sample in samples):
        return result(False, attempted, failed, {})
    if trace:
        untraced, traced = samples
        metrics = layer_metrics(
            traced["counts"], traced["layers"], kernel=traced["kernel"],
            untraced_wall=untraced["wall_s"], traced_wall=traced["wall_s"],
            suite=(traced if workload == "table-solvers" else None))
        return result(failed == 0, attempted, failed, metrics)
    probes = [table_pass(workload, seed, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    setups = [sample["setup_s"] for sample in samples + probes
              if not sample["crashed"]]
    per_cell: Dict[str, List[float]] = {}
    for sample in samples:
        for item in sample["cells"]:
            per_cell.setdefault(item["id"], []).append(item["s"])
    cell_s = [statistics.median(times) for times in per_cell.values()]
    walls = [sample["wall_s"] for sample in samples]
    # A serial pass is the sum of its cells, so each cell enters at its
    # median; a pool pass's wall is its schedule, taken whole.
    wall = (sum(cell_s) if workload == "table-bdd"
            else statistics.median(walls))
    job_ms = geomean([value * 1000 for value in cell_s])
    print(f"{workload}: {len(samples)} passes of {n_cells} cells, "
          f"pass walls {[round(w, 3) for w in walls]}, "
          f"set-ups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return result(failed == 0, attempted, failed, end_to_end(
        setup=setups, wall=wall, rate=n_cells / wall,
        replay_ms=[value * 1000 for value in walls],
        job_ms=job_ms, synth_ms=job_ms,
        rss=statistics.median(sample["rss_mb"] for sample in samples)))


# -- serve-orbit --------------------------------------------------------------------

def serve_pass(stream: Optional[Dict], index: int, deadline: float) -> Dict:
    """One fresh daemon process and store; set-up timed from outside.
    Without a ``stream`` the daemon stops right after set-up."""
    import serve_load
    from repro.serve import ServeClient

    socket_path = os.path.join(WORK, f"d{index}.sock")
    store = os.path.join(WORK, f"store{index}")
    log = open(os.path.join(WORK, f"daemon{index}.log"), "w")
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--store", store, "--max-concurrency", str(serve_load.CONNECTIONS)],
        cwd=ROOT, env=program_env(), stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                            proc.kill)
    timer.start()
    try:
        serve_load.warm_up(socket_path)
        setup = time.perf_counter() - began
        driven = stream and serve_load.drive(socket_path, stream)
        with ServeClient(socket_path) as client:
            client.shutdown()
    except (ConnectionError, OSError, RuntimeError) as exc:
        print(f"serve pass {index}: {exc!r}", file=sys.stderr)
        proc.kill()
        driven, setup = None, None
    finally:
        timer.cancel()
        rss = reap(proc, 30.0)
        log.close()
        shutil.rmtree(store, ignore_errors=True)
    return {"driven": driven, "setup_s": setup, "rss_mb": rss}


def hosted_pass(stream: Dict, index: int, recorder=None) -> Dict:
    """One pass against a daemon hosted in this process."""
    import serve_load
    import repro.obs as obs
    from repro.serve import ServeClient, ServeConfig, ServerThread

    socket_path = os.path.join(WORK, f"h{index}.sock")
    store = os.path.join(WORK, f"hstore{index}")
    host = ServerThread(ServeConfig(
        port=None, socket_path=socket_path, store=store,
        max_concurrency=serve_load.CONNECTIONS))
    host.start()
    try:
        serve_load.warm_up(socket_path)
        obs.default_registry().reset()
        if recorder is not None:
            import layers
            layers.install(recorder)
        driven = serve_load.drive(socket_path, stream)
        with ServeClient(socket_path) as client:
            stats = client.stats()
        registry = obs.default_registry().snapshot()
    finally:
        host.shutdown()
        shutil.rmtree(store, ignore_errors=True)
    return {"driven": driven, "stats": stats, "registry": registry}


def run_serve(seed: int, seconds: int, trace: bool) -> Dict:
    import serve_load

    stream = serve_load.make_stream(seed)
    per_pass = sum(len(requests) for requests in stream["connections"])
    deadline = time.perf_counter() + RUN_DEADLINE
    if trace:
        import layers
        from repro.bdd.tables import kernel_available

        recorder = layers.Recorder()
        untraced = hosted_pass(stream, 0)
        traced = hosted_pass(stream, 1, recorder)
        failed = serve_load.check(stream, untraced["driven"])[1]
        samples, bad = serve_load.check(stream, traced["driven"])
        failed += bad
        latency = sum(sample["s"] for sample in samples)
        spans = recorder.snapshot()
        registry, stats = traced["registry"], traced["stats"]
        session = stats["store"]["session"]
        counts = {name: registry.get(name, 0)
                  for name in ("driver.depths_tried", "bdd.ite_calls",
                               "bdd.ite_cache_hits", "bdd.quant_calls",
                               "bdd.quant_cache_hits", "bdd.peak_nodes",
                               "bdd.bytes")}
        in_daemon = spans["total_s"].get("serve.synthesize", 0.0)
        metrics = layer_metrics(
            counts, spans, kernel=kernel_available(),
            untraced_wall=untraced["driven"]["wall_s"],
            traced_wall=traced["driven"]["wall_s"],
            serve={"overhead_ms": (latency - in_daemon) / per_pass * 1000,
                   "syntheses": stats["serve"].get("serve.syntheses", 0),
                   "store_hits": stats["serve"].get("serve.store_hits", 0),
                   "orbit_hits": session.get("orbit_hits", 0),
                   "misses": session.get("misses", 0)})
        return result(failed == 0, 2 * per_pass, failed, metrics)

    runs = [serve_pass(stream, index, deadline)
            for index in range(passes_for("serve-orbit", seconds))]
    probes = [serve_pass(None, len(runs) + index, deadline)
              for index in range(SETUP_PROBES)]
    failed, replays, synths, every, walls = 0, [], [], [], []
    for run in runs:
        if run["driven"] is None:
            failed += per_pass
            continue
        samples, bad = serve_load.check(stream, run["driven"])
        failed += bad
        for error in run["driven"]["errors"]:
            print(f"connection failed: {error}", file=sys.stderr)
        walls.append(run["driven"]["wall_s"])
        for sample in samples:
            every.append(sample["s"] * 1000)
            (synths if sample["kind"] == "synth" else replays).append(
                sample["s"] * 1000)
    attempted = per_pass * len(runs)
    if not walls:
        return result(False, attempted, failed, {})
    setups = [run["setup_s"] for run in runs + probes
              if run["setup_s"] is not None]
    wall = statistics.median(walls)
    print(f"serve-orbit: {len(walls)} passes of {per_pass} requests "
          f"({len(replays)} replays, {len(synths)} syntheses in all), "
          f"pass walls {[round(w, 3) for w in walls]}, "
          f"set-ups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return result(failed == 0, attempted, failed, end_to_end(
        setup=setups, wall=wall, rate=per_pass / wall,
        replay_ms=replays, job_ms=geomean(every), synth_ms=geomean(synths),
        rss=statistics.median(run["rss_mb"] for run in runs)))


# -- metrics ----------------------------------------------------------------------

def passes_for(workload: str, seconds: int) -> int:
    return max(1, seconds // PASS_SECONDS[workload])


def end_to_end(setup, wall, rate, replay_ms, job_ms, synth_ms, rss) -> Dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "job_geomean_ms": job_ms,
        "req_per_s": rate,
        "replay_p50_ms": quantile(replay_ms, 50),
        "replay_p95_ms": quantile(replay_ms, 95),
        "synth_geomean_ms": synth_ms,
        "peak_rss_mb": rss,
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(counts: Dict, spans: Dict, kernel: bool,
                  untraced_wall: float, traced_wall: float,
                  suite: Optional[Dict] = None,
                  serve: Optional[Dict] = None) -> Dict:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    self_s = spans.get("self_s", {})
    calls = spans.get("calls", {})
    count = counts.get
    reused = count("sat.incremental.clauses_reused", 0)
    seen = reused + count("sat.incremental.clauses_added", 0)
    metrics = {
        "driver.depths_tried": count("driver.depths_tried", 0),
        "bdd.quantify_s": self_s.get("bdd.quantify", 0.0),
        "bdd.cascade_s": self_s.get("bdd.cascade", 0.0),
        "bdd.extract_s": self_s.get("bdd.extract", 0.0),
        "bdd.ite_calls": count("bdd.ite_calls", 0),
        "bdd.quant_calls": count("bdd.quant_calls", 0),
        "bdd.ite_hit_rate": ratio(count("bdd.ite_cache_hits", 0),
                                  count("bdd.ite_calls", 0)),
        "bdd.quant_hit_rate": ratio(count("bdd.quant_cache_hits", 0),
                                    count("bdd.quant_calls", 0)),
        "bdd.peak_nodes": count("bdd.peak_nodes", 0),
        "bdd.bytes": count("bdd.bytes", 0),
        "bdd.kernel": 1 if kernel else 0,
        "sat.encode_s": self_s.get("sat.encode", 0.0),
        "sat.solve_s": self_s.get("sat.solve", 0.0),
        "sat.canonicalize_s": self_s.get("sat.canonicalize", 0.0),
        "sat.conflicts": count("sat.conflicts", 0),
        "sat.propagations": count("sat.propagations", 0),
        "sat.clauses_reused_share": ratio(reused, seen),
        "sat.clauses_seen": seen,
        "qbf.expand_s": self_s.get("qbf.expand", 0.0),
        "qbf.solve_s": self_s.get("qbf.solve", 0.0),
        "qbf.expanded_clauses": count("qbf.expanded_clauses", 0),
        "sword.search_s": self_s.get("sword.search", 0.0),
        "sword.nodes_visited": count("sword.nodes_visited", 0),
        "sword.tt_prune_rate": ratio(count("sword.tt_prunes", 0),
                                     count("sword.nodes_visited", 0)),
        "store.key_s": self_s.get("store.key", 0.0),
        "store.lookup_s": self_s.get("store.lookup", 0.0),
        "store.commit_s": self_s.get("store.commit", 0.0),
        "verify.realizes_s": self_s.get("verify.realizes", 0.0),
        "verify.circuits_checked": calls.get("verify.realizes", 0),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
    }
    pool_s = task_s = overhead_ms = 0.0
    if suite is not None:
        pool_s = suite["workers"] * suite["wall_s"]
        task_s = sum(item["s"] for item in suite["cells"])
        overhead_ms = (pool_s - task_s) / len(suite["cells"]) * 1000
    metrics.update({
        "parallel.busy_share": ratio(task_s, pool_s),
        "parallel.task_s": task_s,
        "parallel.pool_s": pool_s,
        "parallel.task_overhead_ms": overhead_ms,
    })
    serve = serve or {}
    metrics.update({
        "store.orbit_hits": serve.get("orbit_hits", 0),
        "store.misses": serve.get("misses", 0),
        "serve.overhead_ms": serve.get("overhead_ms", 0.0),
        "serve.syntheses": serve.get("syntheses", 0),
        "serve.store_hits": serve.get("store_hits", 0),
    })
    return metrics


def result(correct: bool, attempted: int, failed: int,
           metrics: Dict) -> Dict:
    """The result line; units come from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    units = {entry["name"]: entry["unit"]
             for entry in declared["end_to_end"] + declared["per_layer"]}
    return {"correct": bool(correct) and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


# -- entry point ----------------------------------------------------------------

def build_kernel() -> bool:
    """Compile (or load) the native BDD kernel before anything is timed;
    whether it is available."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.bdd.tables import kernel_available; "
         "sys.exit(0 if kernel_available() else 3)"],
        cwd=ROOT, env=program_env(), timeout=600)
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # e.g. REPRO_STORE, REPRO_BDD_KERNEL
    os.chdir(ROOT)
    kernel = build_kernel()
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.workload == "serve-orbit":
            out = run_serve(args.seed, args.seconds, bool(args.trace))
        else:
            out = run_tables(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not kernel:
        # The pure-Python fallback is a different program: every
        # operation of the run counts as failed.
        print("native BDD kernel unavailable", file=sys.stderr)
        out.update(correct=False, failed=out["attempted"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
