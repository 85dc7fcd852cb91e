"""Sessions: per-client execution defaults and statistics.

A :class:`Session` models one client of the database: it carries the
client's default execution parameters (mode, thread budget, tracing, cache
usage) so call sites submit plain SQL, and it accumulates statistics over
everything the client ran -- queries, rows, failures, and the queue-wait
versus run-time split the scheduler measures.  Sessions are cheap; create
one per logical client (``Database.session()``) and close it when done.
All methods are thread-safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import SchedulerError
from ..options import ExecOptions


@dataclass
class SessionStats:
    """Counters accumulated over one session's lifetime."""

    #: Queries handed to the database (both ``execute`` and ``submit``).
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Total result rows over all completed queries.
    rows: int = 0
    #: Seconds queries spent waiting for admission/dispatch (``submit`` only).
    queue_seconds: float = 0.0
    #: Seconds spent actually running (sum of ``PhaseTimings.total``).
    run_seconds: float = 0.0


class Session:
    """One client's view of a :class:`repro.Database`."""

    def __init__(self, database, name: str = "",
                 options: Optional[ExecOptions] = None):
        self.database = database
        #: The session's default execution options; per-call overrides are
        #: merged on top of this value.
        self.options = ExecOptions.of(options)
        self.name = name or f"session-{id(self):x}"
        self._lock = threading.Lock()
        self._stats = SessionStats()
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> SessionStats:
        """A point-in-time copy of the session counters."""
        with self._lock:
            return replace(self._stats)

    def _resolve(self, overrides: dict) -> ExecOptions:
        try:
            return self.options.merged(**overrides)
        except Exception as exc:
            raise SchedulerError(
                f"invalid session override(s) {sorted(overrides)}: "
                f"{exc}") from exc

    def _check_open(self) -> None:
        if self._closed:
            raise SchedulerError(f"session {self.name!r} is closed")

    # ------------------------------------------------------------------ #
    def execute(self, sql: str, params=None, **overrides):
        """Synchronously execute ``sql`` with the session's defaults.

        ``params`` supplies bind-parameter values; the remaining keyword
        overrides (``mode=``, ``threads=``, ...) apply on top of the
        session's default :class:`ExecOptions` for this call only.
        """
        self._check_open()
        options = self._resolve(overrides)
        with self._lock:
            self._stats.submitted += 1
        try:
            result = self.database.execute(sql, options=options,
                                           params=params)
        except BaseException:
            self._record_failure()
            raise
        self._record_result(result)
        return result

    def execute_many(self, sql: str, bindings, **overrides):
        """Synchronously execute one statement for every binding.

        The session counts each binding as one submitted/completed query
        (they are logically N queries served in one batch); returns the
        ordered ``list[QueryResult]``.
        """
        self._check_open()
        options = self._resolve(overrides)
        bindings = list(bindings)
        with self._lock:
            self._stats.submitted += len(bindings)
        try:
            results = self.database.execute_many(sql, bindings,
                                                 options=options)
        except BaseException:
            self._record_failure()
            raise
        for result in results:
            self._record_result(result)
        return results

    def submit_many(self, sql: str, bindings, **overrides):
        """Submit an ``execute_many`` batch; returns its ``QueryTicket``.

        The batch occupies one admission slot; the ticket resolves to the
        ordered result list, and per-binding completion is recorded on
        this session when the batch finishes.
        """
        self._check_open()
        options = self._resolve(overrides)
        bindings = list(bindings)
        ticket = self.database.scheduler.submit(
            sql, session=self, options=options, bindings=bindings)
        # The scheduler counted one submission on enqueue; the remaining
        # bindings of the batch are counted here so submitted == bindings.
        if len(bindings) > 1:
            with self._lock:
                self._stats.submitted += len(bindings) - 1
        return ticket

    def submit(self, sql: str, params=None, **overrides):
        """Submit ``sql`` to the scheduler; returns a ``QueryTicket``.

        The ticket reports completion back to this session, so the stats
        update when the query finishes, not when it is submitted.  A
        submission rejected before it is enqueued (bad override, invalid
        mode, full admission queue) is *not* counted as submitted.  The
        ``submitted`` counter itself is recorded by the scheduler on
        enqueue, so ``db.submit(sql, session=s)`` counts identically.
        """
        self._check_open()
        options = self._resolve(overrides)
        return self.database.scheduler.submit(sql, session=self,
                                              options=options, params=params)

    # ------------------------------------------------------------------ #
    # accounting callbacks (used by execute above and by the scheduler)
    # ------------------------------------------------------------------ #
    def _record_submitted(self) -> None:
        with self._lock:
            self._stats.submitted += 1

    def _record_result(self, result) -> None:
        with self._lock:
            self._stats.completed += 1
            self._stats.rows += len(result.rows)
            self._stats.queue_seconds += result.timings.queue
            self._stats.run_seconds += result.timings.total

    def _record_failure(self) -> None:
        with self._lock:
            self._stats.failed += 1

    def _record_cancelled(self) -> None:
        with self._lock:
            self._stats.cancelled += 1

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Reject further queries from this session (stats stay readable)."""
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats
        return (f"<Session {self.name} mode={self.options.mode!r} "
                f"submitted={stats.submitted} completed={stats.completed}>")
