"""repro.parallel — process-level parallel synthesis execution.

Every forked worker belongs to one :class:`~repro.parallel.pool.WorkerPool`
(pure-stdlib ``multiprocessing``; see ``docs/parallelism.md`` for its
message protocol).  Three callers put their own policy on top of it:

* **portfolio racing** (:mod:`repro.parallel.portfolio`) — run several
  engines on the same specification, return the first complete result,
  cancel the losers cooperatively.  Surfaced as
  ``synthesize(..., engine="portfolio")``.
* **speculative depth pipelining** (:mod:`repro.parallel.speculative`)
  — for the stateless engines (``sat``, ``qbf``, ``sword``) decide
  depths ``d .. d+k`` concurrently and commit the lowest satisfiable
  one; wasted speculation is accounted in the run metrics.  Surfaced as
  ``synthesize(..., engine="sat", workers=4)``.
* **suite scheduling** (:mod:`repro.parallel.scheduler`) — fan a batch
  of (spec, library, engine) tasks over a bounded pool with per-task
  deadlines, one crash retry on a fresh worker and per-worker
  run-record merging.  Surfaced as ``python -m repro suite`` and used
  by the ``benchmarks/bench_table*.py`` sweeps.

Cancellation flows through :mod:`repro.core.cancel`: every engine polls
a :class:`~repro.core.cancel.CancelToken` on the pool's shared event in
its hot loop, so a loser or an interrupted worker stops within
milliseconds and still reports the partial per-depth trajectory it
gathered.
"""

from repro.parallel.portfolio import PORTFOLIO_ENGINES, portfolio_synthesize
from repro.parallel.scheduler import SuiteRun, TaskReport, run_suite
from repro.parallel.speculative import speculative_synthesize
from repro.parallel.tasks import SynthesisTask, default_workers

__all__ = [
    "PORTFOLIO_ENGINES",
    "SuiteRun",
    "SynthesisTask",
    "TaskReport",
    "default_workers",
    "portfolio_synthesize",
    "run_suite",
    "speculative_synthesize",
]
