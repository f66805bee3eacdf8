"""The ``repro serve`` daemon: asyncio front-end over the warm core.

One process, one event loop, a small thread pool of synthesis workers.
The layering per ``synth`` request (``docs/serving.md``):

1. **store-first** — the request's orbit-canonical key is probed
   against the persistent store on an executor thread; a hit replays
   (and re-verifies) the stored circuits into the request's frame and
   replies without ever touching the admission queue or an engine;
2. **coalescing** — misses lease a job keyed by the orbit digest
   (:mod:`repro.serve.coalescer`); concurrent equivalent requests
   attach as followers to the one in-flight run;
3. **admission control** — at most ``max_concurrency`` jobs run (the
   engines are GIL-bound pure Python: the win is coalescing plus warm
   state, not CPU parallelism), at most ``queue_limit`` wait; beyond
   that requests are rejected with an explicit ``queue_full`` error;
4. **warm sessions** — a job checks the session pool
   (:mod:`repro.serve.pool`) for a hot engine left by an earlier
   interrupted run of the same configuration and resumes it via
   ``synthesize(warm_instance=..., keep_session=True)``;
5. **streaming** — each run executes under an event scope
   (:func:`repro.obs.event_scope`); a single bus subscriber routes the
   scope's ``repro-event-v1`` events to every attached waiter that
   asked for ``stream``, so clients watch depth refutations (proven
   lower bounds) live;
6. **deadlines & drain** — per-request deadlines detach waiters and
   cooperatively cancel orphaned jobs through their ``CancelToken``;
   SIGTERM/SIGINT stops accepting, gives in-flight jobs a grace
   window, cancels the rest (their partial deepening still lands in
   the bounds ledger — that is the flush), answers every waiter and
   exits cleanly, mirroring the suite scheduler's Ctrl-C drain.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as obs
from repro.core.cancel import CancelToken
from repro.core.library import GateLibrary
from repro.core.realfmt import write_real
from repro.serve.coalescer import Job, JobTable, Waiter
from repro.serve.pool import SessionPool
from repro.serve.protocol import (ProtocolError, SynthRequest, decode_frame,
                                  encode_frame, error_frame, event_frame,
                                  hello_frame, ok_frame, parse_synth_request,
                                  pong_frame, result_frame, stats_frame)
from repro.store import SynthesisStore, derive_store_key, store_key
from repro.store.payload import hit_trace_record, store_lookup
from repro.synth.driver import plan_depth_range, synthesize

__all__ = ["SERVE_STATS_FORMAT", "ServeConfig", "ServerThread",
           "SynthesisServer"]

SERVE_STATS_FORMAT = "repro-serve-stats-v1"

#: Statuses after which a configuration is answered from the store on
#: repeat, so its warm session holds nothing worth keeping.
_DEFINITIVE = ("realized", "gate_limit")


@dataclass
class ServeConfig:
    """Capacity knobs and bind address for one daemon instance."""

    host: str = "127.0.0.1"
    port: Optional[int] = 7077
    socket_path: Optional[str] = None   # unix socket instead of / next to TCP
    store: Optional[str] = None         # None -> ephemeral per-daemon store
    max_concurrency: int = 2
    queue_limit: int = 32
    pool_size: int = 8
    drain_grace: float = 5.0            # seconds in-flight runs get on SIGTERM
    orbit: bool = True                  # server-side default; requests override


class _Connection:
    """One client connection: reader state plus an outbound frame queue.

    Frames are sent by any loop-side code via :meth:`send`; a writer
    task drains the queue so slow clients never block job completion.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.queue: "asyncio.Queue[Optional[Dict]]" = asyncio.Queue()
        self.waiters: List[Waiter] = []
        self.closed = False
        self.conn_id = next(self._ids)

    def send(self, frame: Dict) -> None:
        if not self.closed:
            self.queue.put_nowait(frame)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.queue.put_nowait(None)

    async def drain_writer(self) -> None:
        while True:
            frame = await self.queue.get()
            if frame is None:
                break
            try:
                self.writer.write(encode_frame(frame))
                await self.writer.drain()
            except (ConnectionError, OSError):
                break
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # loop teardown mid-close: socket is gone either way


class SynthesisServer:
    """The daemon.  Construct with a :class:`ServeConfig`, ``await run()``."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._store: Optional[SynthesisStore] = None
        self._ephemeral_store_root: Optional[str] = None
        self._pool = SessionPool(capacity=config.pool_size)
        self._table = JobTable()
        self._queue: List[Job] = []
        self._running: Set[Job] = set()
        self._job_tasks: Set[asyncio.Task] = set()
        self._routes: Dict[str, List[Waiter]] = {}
        self._connections: Set[_Connection] = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._unsubscribe = None
        self._started_at = time.monotonic()
        self._request_seq = 0
        self._signals_installed: List[int] = []
        self.addresses: List[str] = []

    # -- lifecycle ------------------------------------------------------------

    async def run(self, ready=None) -> None:
        """Serve until shutdown completes.  ``ready(self)`` fires once
        the listeners are bound (addresses resolved)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency + 2,
            thread_name_prefix="repro-serve")
        if self.config.store is not None:
            self._store = SynthesisStore(self.config.store)
        else:
            self._ephemeral_store_root = tempfile.mkdtemp(
                prefix="repro-serve-store-")
            self._store = SynthesisStore(self._ephemeral_store_root)
        self._unsubscribe = obs.subscribe(self._route_event)
        if self.config.socket_path:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path)
            self._servers.append(server)
            self.addresses.append(self.config.socket_path)
        if self.config.port is not None and not self.config.socket_path:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port)
            self._servers.append(server)
            for sock in server.sockets:
                host, port = sock.getsockname()[:2]
                self.addresses.append(f"{host}:{port}")
        self._install_signal_handlers()
        self._started_at = time.monotonic()
        if ready is not None:
            ready(self)
        try:
            await self._stopped.wait()
        finally:
            self._remove_signal_handlers()
            if self._unsubscribe is not None:
                self._unsubscribe()
                self._unsubscribe = None
            self._executor.shutdown(wait=True)
            if self._ephemeral_store_root is not None:
                shutil.rmtree(self._ephemeral_store_root, ignore_errors=True)

    def describe_address(self) -> str:
        return ", ".join(self.addresses) or "(not bound)"

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # embedded in a thread (tests/bench): no signal wiring
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.begin_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                continue
            self._signals_installed.append(signum)

    def _remove_signal_handlers(self) -> None:
        for signum in self._signals_installed:
            try:
                self._loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._signals_installed = []

    def begin_shutdown(self) -> None:
        """Start the graceful drain (signal handler / ``shutdown`` op)."""
        if self._draining:
            return
        self._draining = True
        self._loop.create_task(self._drain())

    def request_shutdown(self) -> None:
        """Thread-safe :meth:`begin_shutdown` (embedding API)."""
        self._loop.call_soon_threadsafe(self.begin_shutdown)

    async def _drain(self) -> None:
        # 1. Stop accepting: close listeners; new requests on live
        #    connections get an explicit shutting_down error.
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # 2. Grace window: let in-flight and queued jobs finish whole.
        deadline = self._loop.time() + max(0.0, self.config.drain_grace)
        while ((self._running or self._queue or self._job_tasks)
               and self._loop.time() < deadline):
            await asyncio.sleep(0.02)
        # 3. Cooperative cancel for whatever remains — the engines stop
        #    within milliseconds, each run's contiguous UNSAT prefix is
        #    banked in the bounds ledger by the driver's store commit
        #    (that is the flush), and every waiter still gets a reply
        #    with status "cancelled".
        for job in list(self._queue) + list(self._running):
            job.cancel_event.set()
        hard_deadline = self._loop.time() + 30.0
        while ((self._running or self._queue or self._job_tasks)
               and self._loop.time() < hard_deadline):
            await asyncio.sleep(0.02)
        self._pool.clear()
        obs.default_registry().gauge("serve.pool_sessions", 0)
        for connection in list(self._connections):
            self._detach_connection(connection)
            connection.close()
        self._stopped.set()

    # -- event routing --------------------------------------------------------

    def _route_event(self, event: Dict) -> None:
        """Bus subscriber: forward scoped events to streaming waiters.

        Runs on whichever thread emitted (synthesis workers, executor
        lookups); hands off to the loop thread, which owns the routing
        table.
        """
        scope = event.get("scope")
        if scope is None or scope not in self._routes:
            return
        try:
            self._loop.call_soon_threadsafe(self._fan_event, scope, event)
        except RuntimeError:
            pass  # loop already closed mid-shutdown

    def _fan_event(self, scope: str, event: Dict) -> None:
        payload = {k: v for k, v in event.items() if k != "scope"}
        for waiter in self._routes.get(scope, ()):
            if not waiter.answered:
                waiter.connection.send(
                    event_frame(waiter.request.request_id, payload))

    def _add_route(self, scope: str, waiter: Waiter) -> None:
        if waiter.request.stream:
            self._routes.setdefault(scope, []).append(waiter)

    def _drop_route(self, scope: str, waiter: Waiter) -> None:
        waiters = self._routes.get(scope)
        if waiters is None:
            return
        try:
            waiters.remove(waiter)
        except ValueError:
            pass
        if not waiters:
            self._routes.pop(scope, None)

    # -- connections ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        writer_task = asyncio.ensure_future(connection.drain_writer())
        connection.send(hello_frame(
            max_concurrency=self.config.max_concurrency,
            queue_limit=self.config.queue_limit))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break
                except asyncio.CancelledError:
                    break  # loop teardown while idle: exit quietly
                if not line:
                    break
                if line.strip() == b"":
                    continue
                await self._dispatch_frame(connection, line)
        finally:
            self._detach_connection(connection)
            self._connections.discard(connection)
            connection.close()
            await writer_task

    def _detach_connection(self, connection: _Connection) -> None:
        """Forget a gone client: its waiters detach, orphans cancel."""
        for waiter in list(connection.waiters):
            if not waiter.answered:
                self._retire_waiter(waiter, notify=None)

    async def _dispatch_frame(self, connection: _Connection,
                              line: bytes) -> None:
        try:
            frame = decode_frame(line)
        except ProtocolError as exc:
            connection.send(error_frame(None, exc.code, str(exc)))
            return
        op = frame.get("op")
        request_id = frame.get("id")
        if op == "ping":
            connection.send(pong_frame(request_id))
        elif op == "stats":
            connection.send(stats_frame(request_id, self.stats_payload()))
        elif op == "shutdown":
            connection.send(ok_frame(request_id))
            self.begin_shutdown()
        elif op == "synth":
            await self._handle_synth(connection, frame)
        else:
            connection.send(error_frame(
                request_id, "bad_request", f"unknown op {op!r}"))

    # -- the synth path -------------------------------------------------------

    async def _handle_synth(self, connection: _Connection,
                            frame: Dict) -> None:
        registry = obs.default_registry()
        request_id = frame.get("id")
        if self._draining:
            connection.send(error_frame(
                request_id, "shutting_down", "daemon is draining"))
            return
        try:
            request = parse_synth_request(frame)
        except ProtocolError as exc:
            connection.send(error_frame(request_id, exc.code, str(exc)))
            return
        registry.inc("serve.requests")
        self._request_seq += 1
        waiter = Waiter(request=request, connection=connection)
        waiter.started_ts = time.perf_counter()
        waiter.scope = f"req-{connection.conn_id}-{self._request_seq}"
        connection.waiters.append(waiter)
        self._add_route(waiter.scope, waiter)
        try:
            prepared = await self._loop.run_in_executor(
                self._executor, self._prepare, request, waiter.scope)
        except ProtocolError as exc:
            self._drop_route(waiter.scope, waiter)
            self._finish_waiter(waiter, error_frame(request_id, exc.code,
                                                    str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 — reply, don't crash
            self._drop_route(waiter.scope, waiter)
            self._finish_waiter(waiter, error_frame(
                request_id, "internal", f"{type(exc).__name__}: {exc}"))
            return
        orbit_key, literal_key, library, hit, entry = prepared
        waiter.key = orbit_key
        self._drop_route(waiter.scope, waiter)
        if hit is not None:
            # Store-first: answered without touching the job queue.
            registry.inc("serve.store_hits")
            record = hit_trace_record(entry, hit)
            self._finish_waiter(waiter, result_frame(
                request_id, record,
                [write_real(circuit) for circuit in hit.circuits],
                served="store", coalesced=False))
            return
        job, created = self._table.lease(orbit_key.key, orbit_key, request)
        if created:
            job.literal_key = literal_key
            job.library = library
        self._table.attach(job, waiter)
        self._add_route(job.scope, waiter)
        if request.deadline is not None:
            waiter.deadline_handle = self._loop.call_later(
                request.deadline, self._on_deadline, job, waiter)
        if not created:
            registry.inc("serve.coalesced_followers")
            return
        if len(self._running) < self.config.max_concurrency:
            self._start_job(job)
        elif len(self._queue) >= self.config.queue_limit:
            registry.inc("serve.rejected")
            self._table.finish(job)
            self._drop_route(job.scope, waiter)
            self._finish_waiter(waiter, error_frame(
                request_id, "queue_full",
                f"{len(self._running)} running, {len(self._queue)} queued "
                f"(queue_limit={self.config.queue_limit})"))
        else:
            self._queue.append(job)
            registry.gauge_max("serve.queue_depth", len(self._queue))

    def _prepare(self, request: SynthRequest,
                 scope: str) -> Tuple[object, str, GateLibrary,
                                      Optional[object], Optional[Dict]]:
        """Executor-side request prep: keys, library, store-first probe.

        The probe only pays the full orbit lookup (witness replay plus
        gate-for-gate verification) when an entry exists under the
        canonical digest; its events run under the request's scope so a
        streaming client sees the ``store_hit``/``orbit_hit`` line.
        """
        started = time.perf_counter()
        try:
            library = GateLibrary.from_kinds(request.spec.n_lines,
                                             request.kinds)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"bad gate kinds {request.kinds!r}: {exc}"
                                ) from None
        orbit_key = derive_store_key(
            request.spec, library, request.engine,
            max_gates=request.max_gates, use_bounds=request.use_bounds,
            engine_options=request.engine_options,
            orbit=request.orbit and self.config.orbit)
        literal_key = store_key(
            request.spec, library, request.engine,
            max_gates=request.max_gates, use_bounds=request.use_bounds,
            engine_options=request.engine_options)
        hit = entry = None
        if self._store.get(orbit_key.key) is not None:
            start_depth, _ = plan_depth_range(
                request.spec, library, request.max_gates, request.use_bounds)
            with obs.event_scope(scope):
                hit, entry, _ = store_lookup(
                    self._store, orbit_key, request.spec, request.engine,
                    start_depth)
            if hit is not None:
                hit.runtime = time.perf_counter() - started
        return orbit_key, literal_key, library, hit, entry

    def _start_job(self, job: Job) -> None:
        registry = obs.default_registry()
        job.started = True
        self._running.add(job)
        registry.gauge_max("serve.active_jobs", len(self._running))
        warm = self._pool.take(job.literal_key)
        if warm is not None:
            registry.inc("serve.warm_pool_hits")
        registry.gauge("serve.pool_sessions", len(self._pool))
        task = self._loop.create_task(self._job_wrapper(job, warm))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)

    def _run_job(self, job: Job, warm: Optional[object]):
        """Worker-thread body: one driver run under the job's scope."""
        request = job.leader
        with obs.event_scope(job.scope):
            return synthesize(
                request.spec, kinds=request.kinds, engine=request.engine,
                max_gates=request.max_gates, time_limit=request.time_limit,
                use_bounds=request.use_bounds, store=self._store,
                orbit=request.orbit and self.config.orbit,
                warm_instance=warm, keep_session=True,
                cancel_token=CancelToken(job.cancel_event),
                **request.engine_options)

    async def _job_wrapper(self, job: Job, warm: Optional[object]) -> None:
        registry = obs.default_registry()
        failure = result = None
        try:
            result = await self._loop.run_in_executor(
                self._executor, self._run_job, job, warm)
        except Exception as exc:  # noqa: BLE001 — reply, don't crash
            failure = exc
        self._running.discard(job)
        # Session pooling: only interrupted runs keep a warm session —
        # definitive answers are store-served on repeat.
        instance = warm
        if result is not None and result.engine_instance is not None:
            instance = result.engine_instance
        if (result is not None and instance is not None
                and not result.store_hit
                and result.status in ("timeout", "cancelled")):
            self._pool.put(job.literal_key, instance)
        elif instance is not None:
            SessionPool._release(instance)
        registry.gauge("serve.pool_sessions", len(self._pool))
        if result is not None and not result.store_hit:
            registry.inc("serve.syntheses")
        waiters = self._table.finish(job)
        await self._answer_waiters(job, waiters, result, failure)
        self._routes.pop(job.scope, None)
        self._maybe_start_queued()

    async def _answer_waiters(self, job: Job, waiters: List[Waiter],
                              result, failure) -> None:
        registry = obs.default_registry()
        if failure is not None:
            message = f"{type(failure).__name__}: {failure}"
            for waiter in waiters:
                self._finish_waiter(waiter, error_frame(
                    waiter.request.request_id, "internal", message))
            return
        leader_record = None
        if result.store_hit:
            # A racer committed this configuration between our probe
            # and the run: the driver served it from the store.
            entry = self._store.get(job.key.key)
            leader_record = (hit_trace_record(entry, result)
                             if entry is not None else None)
        if leader_record is None:
            leader_record = obs.build_run_record(result, job.library)
        leader_circuits = [write_real(c) for c in result.circuits]
        for waiter in waiters:
            if waiter.answered:
                continue
            if waiter.request is job.leader:
                served = "store" if result.store_hit else "synthesis"
                self._finish_waiter(waiter, result_frame(
                    waiter.request.request_id, leader_record,
                    leader_circuits, served=served, coalesced=False))
                continue
            registry.inc("serve.followers_answered")
            if result.status in _DEFINITIVE:
                answered = await self._answer_follower(waiter)
                if not answered:
                    # Replay could not serve this frame (bucket
                    # collision / witness budget): fall back to a run
                    # of the follower's own literal spec.
                    await self._readmit(waiter)
                continue
            # Timeout/cancelled: nothing committed.  The deepening
            # trajectory is frame-invariant across the orbit, so the
            # follower gets the leader's record under its own spec name.
            record = dict(leader_record)
            record["spec"] = waiter.request.spec.name or "anonymous"
            self._finish_waiter(waiter, result_frame(
                waiter.request.request_id, record, [],
                served="follower", coalesced=True))

    async def _answer_follower(self, waiter: Waiter) -> bool:
        """Reply to a coalesced follower from the just-committed entry.

        The store lookup under the follower's *own* orbit key performs
        the PR 7 witness replay — conjugating the stored circuits into
        the follower's frame and re-verifying them against its spec —
        so the reply is exactly what a serial CLI run against the warm
        store would produce.
        """
        self._add_route(waiter.scope, waiter)
        try:
            hit, entry = await self._loop.run_in_executor(
                self._executor, self._follower_lookup, waiter)
        except Exception:  # noqa: BLE001 — degrade to re-admission
            hit = entry = None
        finally:
            self._drop_route(waiter.scope, waiter)
        if hit is None:
            return False
        record = hit_trace_record(entry, hit)
        self._finish_waiter(waiter, result_frame(
            waiter.request.request_id, record,
            [write_real(circuit) for circuit in hit.circuits],
            served="follower", coalesced=True))
        return True

    def _follower_lookup(self, waiter: Waiter):
        request = waiter.request
        started = time.perf_counter()
        library = GateLibrary.from_kinds(request.spec.n_lines, request.kinds)
        start_depth, _ = plan_depth_range(
            request.spec, library, request.max_gates, request.use_bounds)
        with obs.event_scope(waiter.scope):
            hit, entry, _ = store_lookup(
                self._store, waiter.key, request.spec, request.engine,
                start_depth)
        if hit is not None:
            hit.runtime = time.perf_counter() - started
        return hit, entry

    async def _readmit(self, waiter: Waiter) -> None:
        """Run a follower whose replay failed as its own (new) job."""
        job, created = self._table.lease(waiter.key.key, waiter.key,
                                         waiter.request)
        if created:
            request = waiter.request
            library = GateLibrary.from_kinds(request.spec.n_lines,
                                             request.kinds)
            job.literal_key = store_key(
                request.spec, library, request.engine,
                max_gates=request.max_gates, use_bounds=request.use_bounds,
                engine_options=request.engine_options)
            job.library = library
        self._table.attach(job, waiter)
        self._add_route(job.scope, waiter)
        if created:
            if len(self._running) < self.config.max_concurrency:
                self._start_job(job)
            else:
                self._queue.append(job)
                obs.default_registry().gauge_max("serve.queue_depth",
                                                 len(self._queue))

    def _maybe_start_queued(self) -> None:
        while self._queue and len(self._running) < self.config.max_concurrency:
            job = self._queue.pop(0)
            self._start_job(job)
        obs.default_registry().gauge("serve.queue_depth", len(self._queue))

    # -- waiter retirement ----------------------------------------------------

    def _finish_waiter(self, waiter: Waiter, frame: Dict) -> None:
        if waiter.answered:
            return
        waiter.answered = True
        waiter.cancel_deadline()
        started = getattr(waiter, "started_ts", None)
        if started is not None:
            obs.default_registry().inc("serve.latency_s",
                                       time.perf_counter() - started)
        try:
            waiter.connection.waiters.remove(waiter)
        except ValueError:
            pass
        waiter.connection.send(frame)

    def _retire_waiter(self, waiter: Waiter,
                       notify: Optional[Dict]) -> None:
        """Detach an expired/disconnected waiter; cancel orphaned jobs."""
        if notify is not None:
            self._finish_waiter(waiter, notify)
        else:
            waiter.answered = True
            waiter.cancel_deadline()
        job = None
        for candidate in list(self._queue) + list(self._running) \
                + self._table.jobs():
            if waiter in candidate.waiters:
                job = candidate
                break
        if job is None:
            return
        self._drop_route(job.scope, waiter)
        orphaned = self._table.detach(job, waiter)
        if not orphaned:
            return
        if job in self._queue:
            self._queue.remove(job)
            self._table.finish(job)
            obs.default_registry().gauge("serve.queue_depth",
                                         len(self._queue))
        else:
            # Running with nobody left to answer: cancel cooperatively.
            # The run still commits its partial deepening to the ledger.
            job.cancel_event.set()

    def _on_deadline(self, job: Job, waiter: Waiter) -> None:
        if waiter.answered:
            return
        obs.default_registry().inc("serve.deadline_expired")
        self._retire_waiter(waiter, error_frame(
            waiter.request.request_id, "deadline_exceeded",
            f"deadline of {waiter.request.deadline}s expired"))

    # -- stats ----------------------------------------------------------------

    def stats_payload(self) -> Dict:
        """The ``stats`` RPC body: serve traffic + pool + store stats.

        The ``store`` section is byte-compatible with
        ``repro cache stats --json`` (both are
        :meth:`repro.store.SynthesisStore.stats_payload`).
        """
        snapshot = obs.default_registry().snapshot()
        serve_metrics = {name: value for name, value in snapshot.items()
                         if name.startswith("serve.")}
        # Node-store pressure across every synthesis this daemon ran:
        # bdd.bytes / bdd.peak_nodes are gauges (process max), the
        # gc figures accumulate — operators watch these to see
        # whether jobs are running against the memory ceiling.
        bdd_metrics = {name: value for name, value in snapshot.items()
                       if name.startswith("bdd.")}
        return {
            "format": SERVE_STATS_FORMAT,
            "v": 1,
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self._draining,
            "active_jobs": len(self._running),
            "queued_jobs": len(self._queue),
            "serve": serve_metrics,
            "bdd": bdd_metrics,
            "pool": self._pool.stats(),
            "store": self._store.stats_payload(),
        }


class ServerThread:
    """Run a :class:`SynthesisServer` on a daemon thread (tests, bench,
    embedding).  ``start()`` blocks until the listeners are bound."""

    def __init__(self, config: ServeConfig):
        self.server = SynthesisServer(config)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True)

    def _main(self) -> None:
        asyncio.run(self.server.run(ready=lambda _s: self._ready.set()))

    def start(self) -> SynthesisServer:
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to come up")
        return self.server

    def shutdown(self, timeout: float = 60.0) -> None:
        if self._thread.is_alive():
            self.server.request_shutdown()
            self._thread.join(timeout=timeout)

    def __enter__(self) -> SynthesisServer:
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown()
