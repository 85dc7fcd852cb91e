"""Admission control and asynchronous query submission.

:class:`QueryScheduler` turns the engine from call-and-wait into a serving
layer: clients ``submit`` SQL and get a :class:`QueryTicket` back
immediately; the query runs on the shared :class:`~repro.scheduler.pool.WorkerPool`
when admission allows.  Two knobs bound the system:

* ``max_concurrent`` -- how many queries may be *running* at once.  The
  scheduler is itself a :class:`~repro.scheduler.pool.TaskSource`: starting
  an admitted query is just another task the pool round-robins against the
  morsel work of already-running queries, so admissions never need a
  dedicated dispatcher thread.
* ``max_pending`` -- how many queries may be *queued* awaiting admission.
  When the queue is full, ``submit`` either blocks for space (the default,
  optionally with a timeout) or rejects immediately with
  :class:`~repro.errors.AdmissionError` (``block=False``) -- backpressure
  instead of unbounded memory growth.

Queue wait is measured per ticket and reported as ``timings.queue`` on the
result, so benchmarks can split end-to-end latency into wait vs. run time.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..errors import AdmissionError, QueryCancelledError, SchedulerError
from ..options import ExecOptions
from .pool import TaskSource, WorkerPool


class TicketState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class QueryTicket:
    """Handle to one submitted query; resolves to a ``QueryResult``."""

    def __init__(self, scheduler: "QueryScheduler", sql: str,
                 options: ExecOptions, params=None, session=None,
                 bindings=None):
        self._scheduler = scheduler
        self.sql = sql
        #: The resolved execution options of this submission.
        self.options = options
        #: Bind-parameter values (sequence / mapping / None).
        self.params = params
        #: Batch bindings of an ``execute_many`` submission (``None`` for a
        #: single execution).  A batch ticket resolves to the ordered
        #: ``list[QueryResult]``.
        self.bindings = bindings
        self.session = session
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._state = TicketState.PENDING
        self._event = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None
        self._callback_lock = threading.Lock()
        self._callbacks: list[Callable[["QueryTicket"], None]] = []

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> TicketState:
        return self._state

    def done(self) -> bool:
        """True once the query finished, failed, or was cancelled."""
        return self._event.is_set()

    @property
    def queue_seconds(self) -> Optional[float]:
        """Seconds spent waiting for admission (None while still queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def result(self, timeout: Optional[float] = None):
        """Block until the query completes and return its ``QueryResult``.

        Re-raises the query's error if it failed, raises
        :class:`~repro.errors.QueryCancelledError` if the ticket was
        cancelled, and :class:`TimeoutError` if ``timeout`` elapses first
        (the query keeps running; call ``result`` again to re-wait).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query did not complete within {timeout} seconds")
        if self._state is TicketState.CANCELLED:
            raise QueryCancelledError(
                f"query was cancelled before it ran: {self.sql!r}")
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self) -> bool:
        """Cancel the query if it has not started running yet.

        Returns True when the ticket was still pending and is now
        cancelled; False when the query is already running or finished
        (a running query is never preempted).
        """
        return self._scheduler._cancel(self)

    def add_done_callback(self, callback: Callable[["QueryTicket"], None]
                          ) -> None:
        """Invoke ``callback(ticket)`` once the ticket completes.

        The bridge for event-driven callers (the asyncio network server):
        instead of blocking a thread in :meth:`result`, register a callback
        and resolve a future from it.  Callbacks run on the scheduler's
        worker thread (or the canceller's thread), immediately after the
        completion event fires -- or synchronously here when the ticket is
        already done.  They must be cheap and must not raise; exceptions
        are swallowed so ticket resolution can never be derailed.
        """
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        self._invoke_callback(callback)

    def _invoke_callback(self, callback) -> None:
        try:
            callback(self)
        except Exception:  # pragma: no cover - defensive
            pass

    def _run_callbacks(self) -> None:
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._invoke_callback(callback)

    # ------------------------------------------------------------------ #
    # scheduler-side transitions
    # ------------------------------------------------------------------ #
    def _mark_running(self) -> None:
        self.started_at = time.perf_counter()
        self._state = TicketState.RUNNING

    def _resolve(self, result) -> None:
        self.finished_at = time.perf_counter()
        self._result = result
        self._state = TicketState.DONE
        self._event.set()
        self._run_callbacks()

    def _fail(self, error: BaseException) -> None:
        self.finished_at = time.perf_counter()
        self._error = error
        self._state = TicketState.FAILED
        self._event.set()
        self._run_callbacks()

    def _mark_cancelled(self) -> None:
        self.finished_at = time.perf_counter()
        self._state = TicketState.CANCELLED
        self._event.set()
        self._run_callbacks()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QueryTicket {self._state.value} "
                f"mode={self.options.mode!r} "
                f"sql={self.sql[:40]!r}>")


@dataclass
class SchedulerStats:
    """Lifetime counters of one scheduler (thread-safe snapshot)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Submissions rejected by the bounded admission queue.
    rejected: int = 0
    #: High-water mark of simultaneously running queries.
    peak_running: int = 0
    #: High-water mark of the admission queue length.
    peak_pending: int = 0


class QueryScheduler(TaskSource):
    """Bounded admission queue in front of the shared worker pool."""

    def __init__(self, database, pool: WorkerPool,
                 max_concurrent: Optional[int] = None,
                 max_pending: int = 256):
        self._database = database
        self._pool = pool
        self.max_concurrent = max(int(max_concurrent or pool.size), 1)
        self.max_pending = max(int(max_pending), 1)
        self._pending: deque[QueryTicket] = deque()
        self._running = 0
        self._stats = SchedulerStats()
        self._closed = False
        self._attached = False
        #: Latency instruments from the database's metrics registry
        #: (observed per ticket unless its telemetry level is "off"; the
        #: lifetime counters in ``SchedulerStats`` are surfaced through
        #: snapshot-time registry callbacks instead -- zero added cost).
        metrics = getattr(database, "metrics", None)
        self._queue_seconds = (metrics.histogram(
            "scheduler.queue_seconds", "Seconds queued awaiting admission")
            if metrics is not None else None)
        self._ticket_seconds = (metrics.histogram(
            "scheduler.ticket_seconds",
            "End-to-end seconds from submit to completion")
            if metrics is not None else None)

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> SchedulerStats:
        with self._pool.condition:
            return replace(self._stats)

    @property
    def pending_count(self) -> int:
        with self._pool.condition:
            return len(self._pending)

    @property
    def running_count(self) -> int:
        with self._pool.condition:
            return self._running

    # ------------------------------------------------------------------ #
    def submit(self, sql: str, session=None, block: bool = True,
               timeout: Optional[float] = None,
               options: Optional[ExecOptions] = None,
               params=None, bindings=None) -> QueryTicket:
        """Queue ``sql`` for execution and return its ticket immediately.

        ``options`` carries the execution options; ``params`` supplies
        bind-parameter values.  ``bindings`` submits a whole
        ``execute_many`` batch as one unit: the batch occupies a single
        admission slot and the ticket resolves to the ordered result list
        instead of a single result.
        Invalid modes are rejected here (synchronously) rather than when
        the query eventually runs.  A full admission queue blocks the
        caller until space frees up (``timeout`` bounds the wait), or
        rejects at once with :class:`AdmissionError` when ``block=False``.
        """
        opts = ExecOptions.of(options)
        self._database._validate_options(opts)
        ticket = QueryTicket(self, sql, opts, params, session,
                             bindings=bindings)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._pool.condition:
            while True:
                if self._closed:
                    raise SchedulerError("scheduler is closed")
                if len(self._pending) < self.max_pending:
                    break
                if not block:
                    self._stats.rejected += 1
                    raise AdmissionError(
                        f"admission queue is full "
                        f"({self.max_pending} pending queries)")
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    self._stats.rejected += 1
                    raise AdmissionError(
                        f"admission queue still full after {timeout} seconds")
                self._pool.condition.wait(remaining)
            self._pending.append(ticket)
            self._stats.submitted += 1
            self._stats.peak_pending = max(self._stats.peak_pending,
                                           len(self._pending))
            self._pool.condition.notify_all()
        if session is not None:
            session._record_submitted()
        if not self._attached:
            self._pool.attach(self)
            self._attached = True
        return ticket

    # ------------------------------------------------------------------ #
    # TaskSource interface (called with the pool condition held)
    # ------------------------------------------------------------------ #
    def claim(self) -> Optional[Callable[[], None]]:
        if self._running >= self.max_concurrent:
            return None
        while self._pending:
            ticket = self._pending.popleft()
            # The pop freed an admission-queue slot: wake submitters blocked
            # on a full queue now, not when the query eventually finishes.
            self._pool.condition.notify_all()
            if ticket.state is TicketState.CANCELLED:
                continue
            self._running += 1
            self._stats.peak_running = max(self._stats.peak_running,
                                           self._running)
            return lambda: self._run(ticket)
        return None

    @property
    def exhausted(self) -> bool:
        return self._closed and not self._pending

    @property
    def finished(self) -> bool:
        return self.exhausted and self._running == 0

    # ------------------------------------------------------------------ #
    def _run(self, ticket: QueryTicket) -> None:
        # A single submission is a one-element batch from here on; only the
        # ticket's resolved value differs (the result vs. the result list).
        batched = ticket.bindings is not None
        results: list = []
        error: Optional[BaseException] = None
        observe = (self._queue_seconds is not None
                   and ticket.options.telemetry != "off")
        try:
            ticket._mark_running()
            if observe:
                self._queue_seconds.observe(
                    ticket.started_at - ticket.submitted_at)
            if batched:
                results = self._database.execute_many(
                    ticket.sql, ticket.bindings, options=ticket.options)
            else:
                results = [self._database.execute(
                    ticket.sql, options=ticket.options,
                    params=ticket.params)]
            # A batch waited together; stamp the shared queue time on each
            # result so latency accounting stays visible.
            for result in results:
                result.timings.queue = ticket.started_at - ticket.submitted_at
        except BaseException as exc:
            error = exc
        # All bookkeeping happens *before* the ticket event fires, so a
        # caller returning from ``ticket.result()`` observes up-to-date
        # scheduler and session statistics.
        with self._pool.condition:
            self._running -= 1
            if error is None:
                self._stats.completed += 1
            else:
                self._stats.failed += 1
            self._pool.condition.notify_all()
        session = ticket.session
        if session is not None:
            if error is not None:
                session._record_failure()
            else:
                for result in results:
                    session._record_result(result)
        if error is None:
            ticket._resolve(results if batched else results[0])
        else:
            ticket._fail(error)
        if observe and ticket.finished_at is not None:
            self._ticket_seconds.observe(
                ticket.finished_at - ticket.submitted_at)

    def _cancel(self, ticket: QueryTicket) -> bool:
        with self._pool.condition:
            if ticket.state is not TicketState.PENDING:
                return False
            try:
                self._pending.remove(ticket)
            except ValueError:
                # Claimed between the state check and now -- extremely
                # unlikely under the single condition, but stay safe.
                return False
            ticket._mark_cancelled()
            self._stats.cancelled += 1
            self._pool.condition.notify_all()
        if ticket.session is not None:
            ticket.session._record_cancelled()
        return True

    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop admitting queries; cancel queued ones; wait for running.

        ``timeout`` bounds the wait for in-flight queries (``None`` waits
        indefinitely).  Queries still running when the deadline passes are
        left to finish on the pool -- they complete their tickets normally,
        the scheduler just stops waiting for them.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + max(timeout, 0.0))
        with self._pool.condition:
            if not self._closed:
                self._closed = True
                cancelled = list(self._pending)
                self._pending.clear()
                for ticket in cancelled:
                    ticket._mark_cancelled()
                    self._stats.cancelled += 1
                self._pool.condition.notify_all()
            else:
                cancelled = []
            if wait:
                while self._running > 0:
                    if deadline is None:
                        self._pool.condition.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._pool.condition.wait(remaining)
        for ticket in cancelled:
            if ticket.session is not None:
                ticket.session._record_cancelled()
        self._pool.detach(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QueryScheduler running={self.running_count} "
                f"pending={self.pending_count} "
                f"max_concurrent={self.max_concurrent}>")
