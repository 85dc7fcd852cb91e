"""Tests for the concurrent query scheduler subsystem.

Covers the shared worker pool (round-robin fairness, bounded threads,
error propagation), the compile executor, sessions, query tickets
(result / done / cancel / queue timings), admission control, and the
database close lifecycle.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database, ExecOptions, SQLType, TicketState
from repro.errors import (
    AdmissionError,
    BindError,
    DivisionByZeroError,
    ExecutionError,
    QueryCancelledError,
    SchedulerError,
)
from repro.scheduler import CompileExecutor, TaskSource, WorkerPool


def _sum_db(rows: int = 5000, **kwargs) -> Database:
    db = Database(morsel_size=256, **kwargs)
    db.create_table("t", [("a", SQLType.INT64)])
    db.insert("t", [(i,) for i in range(rows)])
    return db


SUM_SQL = "select sum(a) as s from t"


class _ListSource(TaskSource):
    """A scripted task source: N instant tasks appending a label to a log."""

    def __init__(self, pool: WorkerPool, label: str, count: int, log: list):
        self._pool = pool
        self._label = label
        self._remaining = count
        self._in_flight = 0
        self._log = log

    def claim(self):
        if self._remaining == 0:
            return None
        self._remaining -= 1
        self._in_flight += 1

        def task():
            self._log.append(self._label)
            with self._pool.condition:
                self._in_flight -= 1
                self._pool.condition.notify_all()

        return task

    @property
    def exhausted(self):
        return self._remaining == 0

    @property
    def finished(self):
        return self.exhausted and self._in_flight == 0


class _Blocker(TaskSource):
    """Occupies ``count`` pool workers until ``release`` is set."""

    def __init__(self, count: int):
        self._remaining = count
        self.release = threading.Event()
        self.started = threading.Semaphore(0)

    def claim(self):
        if self._remaining == 0:
            return None
        self._remaining -= 1

        def task():
            self.started.release()
            self.release.wait()

        return task

    @property
    def exhausted(self):
        return self._remaining == 0


class TestWorkerPool:
    def test_round_robin_across_sources(self):
        # Claim directly (single-threaded) so the interleaving is exact:
        # the cursor must alternate between the two attached sources.
        pool = WorkerPool(1)
        log: list[str] = []
        a = _ListSource(pool, "a", 3, log)
        b = _ListSource(pool, "b", 3, log)
        with pool.condition:
            pool._sources.extend([a, b])
            tasks = []
            task = pool._claim_locked()
            while task is not None:
                tasks.append(task)
                task = pool._claim_locked()
        for task in tasks:
            task()
        assert log == ["a", "b", "a", "b", "a", "b"]
        pool.close()

    def test_parallel_execution_draws_from_shared_pool(self):
        db = _sum_db(rows=20_000, workers=3)
        before = threading.active_count()
        expected = [(sum(range(20_000)),)]
        for _ in range(3):
            assert db.execute(SUM_SQL,
                              options=ExecOptions(mode="bytecode",
                                                  threads=3)).rows == \
                expected
            assert db.execute(SUM_SQL,
                              options=ExecOptions(mode="adaptive",
                                                  threads=2)).rows == \
                expected
        # Repeated parallel executions reuse the pool: at most the pool
        # workers plus the shared compile thread ever get added.
        assert threading.active_count() <= before + 3 + 1
        db.close()

    def test_worker_error_propagates_to_caller(self):
        db = _sum_db(rows=4000)
        with pytest.raises(DivisionByZeroError):
            db.execute("select sum(a / (a - a)) as s from t",
                       options=ExecOptions(mode="bytecode", threads=4))
        # The pool survives a failed query and serves the next one.
        assert db.execute(SUM_SQL,
                          options=ExecOptions(mode="bytecode",
                                              threads=4)).rows == \
            [(sum(range(4000)),)]
        db.close()

    def test_pool_close_is_idempotent_and_joins_workers(self):
        db = _sum_db()
        db.execute(SUM_SQL, options=ExecOptions(mode="bytecode", threads=2))
        pool = db.worker_pool
        assert pool.alive_workers() > 0
        pool.close()
        pool.close()
        assert pool.alive_workers() == 0


class TestCompileExecutor:
    def test_jobs_run_and_close_drains(self):
        executor = CompileExecutor()
        seen = []
        futures = [executor.submit(lambda i=i: seen.append(i))
                   for i in range(5)]
        executor.close(wait=True)
        assert all(f.done() for f in futures)
        assert sorted(seen) == list(range(5))

    def test_submit_after_close_runs_inline(self):
        executor = CompileExecutor()
        executor.close(wait=True)
        seen = []
        future = executor.submit(lambda: seen.append("x"))
        assert future.done() and seen == ["x"]

    def test_job_exception_is_captured(self):
        executor = CompileExecutor()

        def boom():
            raise ValueError("nope")

        future = executor.submit(boom)
        assert future.wait(5)
        assert isinstance(future.exception(), ValueError)
        executor.close()


class TestTickets:
    def test_ticket_lifecycle_matches_execute(self):
        db = _sum_db()
        reference = db.execute(SUM_SQL).rows
        ticket = db.submit(SUM_SQL)
        result = ticket.result(timeout=30)
        assert result.rows == reference
        assert ticket.done()
        assert ticket.state is TicketState.DONE
        assert result.timings.queue >= 0
        assert ticket.queue_seconds is not None
        assert result.timings.latency >= result.timings.total
        db.close()

    def test_error_reraised_from_result(self):
        db = _sum_db()
        ticket = db.submit("select nope from missing_table")
        with pytest.raises(BindError):
            ticket.result(timeout=30)
        assert ticket.state is TicketState.FAILED
        assert db.scheduler.stats.failed == 1
        db.close()

    def test_invalid_mode_rejected_at_submit_time(self):
        db = _sum_db()
        with pytest.raises(ExecutionError):
            db.submit(SUM_SQL, options=ExecOptions(mode="warp-speed"))
        with pytest.raises(ExecutionError):
            db.submit(SUM_SQL, options=ExecOptions(mode="volcano", threads=2))
        db.close()

    def test_cancel_pending_ticket(self):
        db = _sum_db(workers=1)
        blocker = _Blocker(1)
        db.worker_pool.attach(blocker)
        assert blocker.started.acquire(timeout=5)
        try:
            first = db.submit(SUM_SQL)
            second = db.submit(SUM_SQL)
            assert second.cancel()
            assert second.state is TicketState.CANCELLED
            with pytest.raises(QueryCancelledError):
                second.result(timeout=5)
        finally:
            blocker.release.set()
        assert first.result(timeout=30).rows == [(sum(range(5000)),)]
        # A finished ticket can no longer be cancelled.
        assert not first.cancel()
        assert db.scheduler.stats.cancelled == 1
        db.worker_pool.detach(blocker)
        db.close()

    def test_queue_time_measured_under_saturation(self):
        db = _sum_db(workers=1, max_concurrent=1)
        blocker = _Blocker(1)
        db.worker_pool.attach(blocker)
        assert blocker.started.acquire(timeout=5)
        ticket = db.submit(SUM_SQL)
        time.sleep(0.2)
        blocker.release.set()
        result = ticket.result(timeout=30)
        assert result.timings.queue >= 0.1
        db.worker_pool.detach(blocker)
        db.close()


class TestAdmissionControl:
    def test_bounded_queue_rejects_and_times_out(self):
        db = _sum_db(workers=1, max_concurrent=1, max_pending=1)
        blocker = _Blocker(1)
        db.worker_pool.attach(blocker)
        assert blocker.started.acquire(timeout=5)
        try:
            first = db.submit(SUM_SQL)
            with pytest.raises(AdmissionError):
                db.submit(SUM_SQL, block=False)
            with pytest.raises(AdmissionError):
                db.submit(SUM_SQL, timeout=0.05)
            assert db.scheduler.stats.rejected == 2
        finally:
            blocker.release.set()
        assert len(first.result(timeout=30).rows) == 1
        db.worker_pool.detach(blocker)
        db.close()

    def test_max_concurrent_bounds_running_queries(self):
        db = _sum_db(rows=20_000, workers=4, max_concurrent=2)
        tickets = [db.submit(
            SUM_SQL, options=ExecOptions(mode="bytecode")) for _ in range(10)]
        for ticket in tickets:
            assert ticket.result(timeout=60).rows == [(sum(range(20_000)),)]
        stats = db.scheduler.stats
        assert stats.completed == 10
        assert stats.peak_running <= 2
        assert stats.peak_pending >= 1
        db.close()

    def test_thread_count_bounded_with_many_in_flight(self):
        db = _sum_db(rows=30_000, workers=3)
        before = threading.active_count()
        tickets = [db.submit(SUM_SQL,
                             options=ExecOptions(mode="bytecode",
                                                 use_cache=False))
                   for _ in range(16)]
        peak = 0
        while not all(t.done() for t in tickets):
            peak = max(peak, threading.active_count())
            time.sleep(0.005)
        for ticket in tickets:
            assert ticket.result(timeout=60).rows == [(sum(range(30_000)),)]
        # 16 queries in flight never put more than the pool (3 workers)
        # plus the shared compile thread on the machine.
        assert peak <= before + 3 + 1
        db.close()

    def test_scheduler_close_cancels_pending(self):
        db = _sum_db(workers=1)
        blocker = _Blocker(1)
        db.worker_pool.attach(blocker)
        assert blocker.started.acquire(timeout=5)
        pending = [db.submit(SUM_SQL) for _ in range(3)]
        db.scheduler.close(wait=True)
        assert all(t.state is TicketState.CANCELLED for t in pending)
        blocker.release.set()
        db.worker_pool.detach(blocker)
        db.close()


class TestSessions:
    def test_defaults_and_overrides(self):
        db = _sum_db()
        session = db.session(options=ExecOptions(mode="bytecode"),
                             name="client-1")
        result = session.execute(SUM_SQL)
        assert result.mode == "bytecode"
        assert session.execute(SUM_SQL, mode="optimized").mode == "optimized"
        with pytest.raises(SchedulerError):
            session.execute(SUM_SQL, morsel_size=12)  # unknown override
        db.close()

    def test_stats_accumulate_across_execute_and_submit(self):
        db = _sum_db()
        session = db.session(options=ExecOptions(mode="optimized"))
        session.execute(SUM_SQL)
        session.submit(SUM_SQL).result(timeout=30)
        # db.submit with an explicit session= must count identically.
        db.submit(SUM_SQL, session=session).result(timeout=30)
        with pytest.raises(BindError):
            session.execute("select x from missing")
        stats = session.stats
        assert stats.submitted == 4
        assert stats.completed == 3
        assert stats.failed == 1
        assert stats.rows == 3
        assert stats.run_seconds > 0
        db.close()

    def test_closed_session_rejects_queries(self):
        db = _sum_db()
        with db.session() as session:
            session.execute(SUM_SQL)
        with pytest.raises(SchedulerError):
            session.execute(SUM_SQL)
        with pytest.raises(SchedulerError):
            session.submit(SUM_SQL)
        assert session.stats.completed == 1
        db.close()


class TestDatabaseLifecycle:
    def test_context_manager_closes_runtime(self):
        with Database(morsel_size=256) as db:
            db.create_table("t", [("a", SQLType.INT64)])
            db.insert("t", [(i,) for i in range(1000)])
            assert db.submit(SUM_SQL).result(timeout=30).rows == \
                [(sum(range(1000)),)]
            pool = db.worker_pool
        assert pool.closed and pool.alive_workers() == 0
        with pytest.raises(SchedulerError):
            db.submit(SUM_SQL)
        with pytest.raises(SchedulerError):
            db.session()
        # Synchronous execution still works after close.
        assert db.execute(SUM_SQL).rows == [(sum(range(1000)),)]

    def test_close_is_idempotent(self):
        db = _sum_db()
        db.submit(SUM_SQL).result(timeout=30)
        db.close()
        db.close()


class TestSatelliteFixes:
    def test_vm_instruction_counter_is_exact_under_concurrency(self):
        # One VirtualMachine instance is shared by all workers; the counter
        # must not lose updates when many queries finish morsels at once.
        def fresh_db():
            return _sum_db(rows=4096)

        single = fresh_db()
        single.execute(SUM_SQL, options=ExecOptions(mode="bytecode"))
        per_run = single.vm_instructions
        assert per_run > 0

        db = fresh_db()
        runs_per_thread = 5
        errors = []

        def client():
            try:
                for _ in range(runs_per_thread):
                    # use_result_cache=False: every run must reach the VM
                    # for the instruction count to be exact.
                    db.execute(SUM_SQL,
                               options=ExecOptions(mode="bytecode",
                                                   use_result_cache=False))
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert db.vm_instructions == 6 * runs_per_thread * per_run
        db.close()

    def test_insert_rows_is_row_atomic_on_encode_error(self):
        db = Database()
        db.create_table("p", [("id", SQLType.INT64),
                              ("price", SQLType.FLOAT64)])
        db.insert("p", [(0, 0.5)])
        # Prime the plan cache so stale-plan invalidation is observable.
        count_sql = "select count(*) as c from p"
        assert db.execute(count_sql).rows == [(1,)]
        version_before = db.catalog.table_version("p")
        with pytest.raises(Exception):
            # The second row fails to encode on its *second* column; the
            # first column of that row must not be left behind.
            db.insert("p", [(1, 1.5), (2, None), (3, 2.5)])
        table = db.catalog.table("p")
        assert table.num_rows == 2
        assert {name: len(data) for name, data in table.columns.items()} == \
            {"id": 2, "price": 2}
        # The partial batch still bumped the table version: cached plans and
        # statistics for 'p' cannot survive the half-applied insert.
        assert db.catalog.table_version("p") > version_before
        # The table stays queryable and consistent.
        assert db.execute(count_sql).rows == [(2,)]
