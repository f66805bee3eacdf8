"""Per-layer attribution for the traced run.

The traced run wraps the public entry point of each layer from outside
the program: the benchmark replaces a module or class attribute with a
wrapper that times the call and hands the original its arguments
unchanged.  Where a layer's boundary is only a private method, the
wrapper sits on ``repro.obs.span`` instead and times the program's own
span of that name (tracing is switched on for the traced run only).

Every wrapper pushes a frame on a per-thread stack, so the serve
daemon's worker threads attribute their own calls.  A frame's *self*
time is its duration minus the time of the wrapped calls nested inside
it; its *total* time includes them.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Dict

#: Span names read from ``repro.obs.span`` (private-method boundaries).
SPAN_LAYERS = frozenset({"bdd.extract", "sat.encode", "sat.canonicalize",
                         "qbf.expand", "qbf.solve", "sword.search"})


class Recorder:
    """Accumulates call counts, self time and total time per layer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def frame(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        entry = [0.0]  # time of nested frames
        stack.append(entry)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.self_s[name] = (self.self_s.get(name, 0.0)
                                     + duration - entry[0])
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.calls[name] = self.calls.get(name, 0) + 1

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "calls": dict(self.calls)}

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a timed pass-through."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.frame(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, timed)


def diff(after: Dict[str, Dict[str, float]],
         before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """``after - before`` for two :meth:`Recorder.snapshot` values."""
    return {section: {name: value - before[section].get(name, 0)
                      for name, value in values.items()}
            for section, values in after.items()}


def merge(total: Dict[str, Dict[str, float]],
          part: Dict[str, Dict[str, float]]) -> None:
    """Add ``part`` into ``total`` in place."""
    for section, values in part.items():
        into = total.setdefault(section, {})
        for name, value in values.items():
            into[name] = into.get(name, 0) + value


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer table names.

    Functions imported by name into another module are wrapped at each
    import site the program calls them through.
    """
    import repro.obs as obs
    import repro.serve.server as server
    import repro.store.orbit as orbit
    import repro.store.payload as payload
    import repro.synth.bdd_engine as bdd_engine
    import repro.verify as verify
    from repro.bdd.manager import BddManager
    from repro.parallel.tasks import SynthesisTask
    from repro.sat.cdcl import CdclSolver

    recorder.wrap(BddManager, "match_forall", "bdd.quantify")
    recorder.wrap(bdd_engine, "universal_gate_stage", "bdd.cascade")
    recorder.wrap(CdclSolver, "solve", "sat.solve")
    for module in (orbit, server):
        recorder.wrap(module, "derive_store_key", "store.key")
    for module in (payload, server):
        recorder.wrap(module, "store_lookup", "store.lookup")
    recorder.wrap(payload, "store_commit", "store.commit")
    recorder.wrap(verify, "circuit_realizes", "verify.realizes")
    recorder.wrap(server, "synthesize", "serve.synthesize")

    original_span = obs.span

    @contextmanager
    def timed_span(name, **attrs):
        if name not in SPAN_LAYERS:
            with original_span(name, **attrs) as span:
                yield span
            return
        with recorder.frame(name), original_span(name, **attrs) as span:
            yield span

    obs.span = timed_span

    # Suite tasks run in forked pool workers, which inherit these
    # wrappers but keep their own recorder state: each task ships the
    # layer times it caused back on its result.
    original_run = SynthesisTask.run

    @functools.wraps(original_run)
    def run_and_report(task, *args, **kwargs):
        before = recorder.snapshot()
        result = original_run(task, *args, **kwargs)
        result.perfbench_layers = diff(recorder.snapshot(), before)
        return result

    SynthesisTask.run = run_and_report
    obs.set_tracing(True)
