"""The fork-worker pool under every process-parallel caller.

Suite scheduling, portfolio racing and depth speculation all run on a
:class:`WorkerPool` and keep only their policy on top of it.

A worker is a forked process serving one request/reply loop over its
own duplex pipe.  It ignores SIGINT (the parent drives shutdown),
resets the event bus inherited over the fork and, when the parent had
subscribers at spawn time, forwards its own events over the same pipe.
It enters the caller's ``session(token)`` context once — ``token`` is
a :class:`~repro.core.cancel.CancelToken` on the pool's shared cancel
event — and answers each request with the handler the context yields;
``None`` ends the loop.  Worker to parent, the pipe carries
``("event", payload)``, ``("ok", value, elapsed)`` or ``("error",
repr(exc), elapsed)``, ``elapsed`` being the handler's wall time.

The pool is hand-rolled rather than a
:class:`concurrent.futures.ProcessPoolExecutor` because the executor
declares the *whole pool* broken when any worker dies; here a dead
worker is one ``died`` message, returned only after the worker's pipe
is drained (a reply sent just before dying always comes first), and
each caller decides what the death costs.  Workers are forked: dispatch
stays at milliseconds, and a session may close over unpicklable state
because only requests and replies are pickled.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import time
from multiprocessing.connection import wait as connection_wait
from typing import (Callable, ContextManager, Dict, List, NamedTuple,
                    Tuple)

import repro.obs as obs
from repro.core.cancel import CancelToken

__all__ = ["Message", "WorkerPool"]

#: ``session(token)`` is entered once per worker and yields the handler
#: that answers each request.
Session = Callable[[CancelToken], ContextManager[Callable[[object], object]]]


class Message(NamedTuple):
    """One reply or death, as returned by :meth:`WorkerPool.wait`."""

    worker: int
    kind: str        # "ok", "error" or "died"
    value: object    # the handler's return value, repr(exception), exit code
    elapsed: float   # handler wall time in the worker; 0.0 for a death


def _serve(worker_id: int, conn, cancel_event, forward_events: bool,
           session: Session) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent drives shutdown
    # The fork copied the parent's event bus *with its subscribers*
    # (renderers, file appenders) — drop them so worker events reach
    # the parent exactly once, through the pipe forwarder below.
    obs.reset_event_bus()
    if forward_events:
        def forward(event):
            payload = dict(event)
            payload.setdefault("worker", worker_id)
            conn.send(("event", payload))

        obs.subscribe(forward)
    with session(CancelToken(cancel_event)) as handle:
        while True:
            request = conn.recv()
            if request is None:
                return
            started = time.perf_counter()
            try:
                reply: Tuple = ("ok", handle(request))
            except Exception as exc:  # noqa: BLE001 — ship it to the parent
                reply = ("error", repr(exc))
            elapsed = time.perf_counter() - started
            try:
                conn.send(reply + (elapsed,))
            except OSError:
                return  # the parent is gone
            except Exception as exc:  # noqa: BLE001 — the reply would not pickle
                conn.send(("error", repr(exc), elapsed))


class _Worker(NamedTuple):
    id: int
    conn: object
    proc: object
    fields: Dict[str, object]  # extra worker_spawned/worker_crashed fields


class WorkerPool:
    """Forked workers on per-worker duplex pipes, one shared cancel event.

    ``role`` is the ``role`` field of the ``worker_spawned`` and
    ``worker_crashed`` events; ``session`` is entered once in every
    worker (see the module docstring).  Worker ids count up from 0 in
    spawn order and are never reused.  Use as a context manager, or
    call :meth:`close`.
    """

    def __init__(self, role: str, session: Session):
        self.role = role
        self._session = session
        self._ctx = mp.get_context("fork")
        self._cancel_event = self._ctx.Event()
        self._workers: Dict[int, _Worker] = {}
        self._next_id = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spawn(self, **fields) -> int:
        """Start one worker; ``fields`` ride on its lifecycle events."""
        worker_id = self._next_id
        self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_serve,
            args=(worker_id, child_conn, self._cancel_event,
                  obs.events_enabled(), self._session),
            daemon=True)
        proc.start()
        child_conn.close()
        self._workers[worker_id] = _Worker(worker_id, parent_conn, proc,
                                           fields)
        obs.emit("worker_spawned", worker=worker_id, role=self.role, **fields)
        return worker_id

    def send(self, worker_id: int, request: object) -> None:
        """Hand ``request`` to a worker; its reply comes from :meth:`wait`.

        A worker that already died makes this a no-op: the next
        :meth:`wait` reports the death.
        """
        try:
            self._workers[worker_id].conn.send(request)
        except OSError:
            pass

    def cancel(self) -> None:
        """Set the shared cancel event every worker's token polls."""
        self._cancel_event.set()

    def wait(self, timeout: float) -> List[Message]:
        """Replies and deaths that arrived within ``timeout`` seconds.

        Forwarded events are re-emitted on the way.  A dead worker is
        forgotten once its death is returned.
        """
        handles = [handle for worker in self._workers.values()
                   for handle in (worker.conn, worker.proc.sentinel)]
        ready = connection_wait(handles, timeout)
        messages: List[Message] = []
        for worker in list(self._workers.values()):
            if worker.conn not in ready and worker.proc.sentinel not in ready:
                continue
            # Liveness is sampled before the drain: a worker found dead
            # here has nothing left to write, so the drain is complete.
            alive = worker.proc.is_alive()
            if self._drain(worker, messages) or not alive:
                del self._workers[worker.id]
                worker.proc.join()
                worker.conn.close()
                exitcode = worker.proc.exitcode
                obs.emit("worker_crashed", worker=worker.id, role=self.role,
                         exitcode=exitcode, **worker.fields)
                messages.append(Message(worker.id, "died", exitcode, 0.0))
        return messages

    def terminate(self, worker_id: int) -> None:
        """Kill a stuck or unwanted worker; no death is reported for it.

        Events it already forwarded are re-emitted first; a reply
        still in its pipe is discarded with it.
        """
        worker = self._workers.pop(worker_id)
        self._drain(worker, [])
        worker.proc.terminate()
        worker.proc.join()
        worker.conn.close()

    def close(self) -> None:
        """Cancel, ask every worker to exit, terminate those still
        running after 2 s."""
        self.cancel()
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join()
            worker.conn.close()

    def _drain(self, worker: _Worker, messages: List[Message]) -> bool:
        """Read everything buffered in a worker's pipe; True on EOF."""
        while worker.conn.poll():
            try:
                kind, *rest = worker.conn.recv()
            except (EOFError, OSError):
                return True
            if kind == "event":
                obs.emit_forwarded(rest[0])
            else:
                messages.append(Message(worker.id, kind, *rest))
        return False
