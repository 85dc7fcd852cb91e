"""The shared worker pool: one set of long-lived threads for all queries.

Before this subsystem existed every parallel execution spawned its own
short-lived worker threads, so *k* concurrent queries with *t* threads each
put ``k * t`` threads on the machine.  :class:`WorkerPool` inverts that: a
database owns one pool of ``size`` long-lived workers, and every unit of
work -- a morsel of some query pipeline, or the admission of a whole queued
query -- is drawn from an attached :class:`TaskSource`.

Fairness is round-robin *across sources*: the pool keeps a cursor over the
attached sources and each claim starts at the source after the previously
served one.  Because every active query pipeline contributes its own source
(see :class:`MorselSource`), morsels of concurrent queries interleave
instead of one query monopolising the pool, and the scheduler's admission
source (which starts queued queries) competes on equal terms.

Locking discipline: the pool's :attr:`condition` is the single lock for all
pool *and* source bookkeeping -- ``claim`` is always called with it held,
and sources take it to record task completion.  Task bodies run without the
lock.  Workers sleep on the condition when no source has a claimable task;
every state change that could create one (attach, task completion freeing a
worker slot, query submission) notifies it.

:class:`CompileExecutor` is the pool's sibling for background tier
compilation: a single long-lived compile thread shared by all adaptive
executions, replacing the one-thread-per-compilation the executor used to
spawn.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

from ..errors import SchedulerError


class TaskSource:
    """A stream of tasks the pool round-robins over.

    ``claim`` is called with the pool condition held and returns either a
    no-argument callable (one task, executed outside the lock) or ``None``
    when the source has nothing claimable *right now*.  ``exhausted`` means
    no future ``claim`` will ever return a task; ``finished`` additionally
    requires all previously claimed tasks to have completed.
    """

    def claim(self) -> Optional[Callable[[], None]]:  # pragma: no cover
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:  # pragma: no cover - interface default
        return False

    @property
    def finished(self) -> bool:  # pragma: no cover - interface default
        return self.exhausted


class WorkerPool:
    """A fixed-size pool of daemon worker threads shared by all queries."""

    def __init__(self, size: int, name: str = "repro-worker", metrics=None):
        self.size = max(int(size), 1)
        self.name = name
        #: The one lock/condition guarding pool *and* source state.
        self.condition = threading.Condition()
        self._sources: list[TaskSource] = []
        self._cursor = 0
        self._threads: list[threading.Thread] = []
        self._closed = False
        #: Optional pool instruments from the owning database's metrics
        #: registry (sharded; updates never take a shared lock).
        self._tasks_counter = (metrics.counter(
            "pool.tasks_completed",
            "Tasks run by the worker pool (morsels, merges, admissions)")
            if metrics is not None else None)
        self._busy_gauge = (metrics.gauge(
            "pool.busy_workers", "Workers currently running a task")
            if metrics is not None else None)

    def _run_task(self, task: Callable[[], None]) -> None:
        """Run one claimed task with busy/throughput accounting."""
        busy = self._busy_gauge
        if busy is not None:
            busy.inc()
        try:
            task()
        finally:
            if busy is not None:
                busy.dec()
            if self._tasks_counter is not None:
                self._tasks_counter.inc()

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def alive_workers(self) -> int:
        """Number of currently live pool threads (for tests/monitoring)."""
        return sum(1 for thread in self._threads if thread.is_alive())

    # ------------------------------------------------------------------ #
    def attach(self, source: TaskSource) -> None:
        """Register a task source and make sure workers are running."""
        with self.condition:
            if self._closed:
                raise SchedulerError("worker pool is closed")
            if source not in self._sources:
                self._sources.append(source)
            self._ensure_workers_locked()
            self.condition.notify_all()

    def detach(self, source: TaskSource) -> None:
        with self.condition:
            try:
                index = self._sources.index(source)
            except ValueError:
                return
            self._sources.pop(index)
            if index < self._cursor:
                self._cursor -= 1
            if self._sources:
                self._cursor %= len(self._sources)
            else:
                self._cursor = 0
            self.condition.notify_all()

    def _ensure_workers_locked(self) -> None:
        self._threads = [t for t in self._threads if t.is_alive()]
        while len(self._threads) < self.size:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-{len(self._threads)}", daemon=True)
            self._threads.append(thread)
            thread.start()

    # ------------------------------------------------------------------ #
    def _claim_locked(self) -> Optional[Callable[[], None]]:
        """Round-robin claim across the attached sources (condition held)."""
        count = len(self._sources)
        for step in range(count):
            index = (self._cursor + step) % count
            task = self._sources[index].claim()
            if task is not None:
                self._cursor = (index + 1) % count
                return task
        return None

    def _worker_loop(self) -> None:
        while True:
            with self.condition:
                task = self._claim_locked()
                while task is None:
                    if self._closed:
                        return
                    self.condition.wait()
                    task = self._claim_locked()
            # Task bodies handle their own errors (see MorselSource); a
            # worker thread must never die to an exception.
            try:
                self._run_task(task)
            except BaseException:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------ #
    def drive(self, source: TaskSource) -> None:
        """Run ``source`` to completion, with the calling thread helping.

        The source is attached so pool workers pick its tasks up, while the
        caller claims and runs tasks from *this source only* in the same
        loop -- so progress is guaranteed even when every pool worker is
        busy driving other queries (the caller never just blocks on the
        pool).  Returns once the source is finished; the caller is expected
        to re-raise any recorded task failure afterwards.
        """
        self.attach(source)
        try:
            while True:
                with self.condition:
                    task = source.claim()
                    if task is None:
                        if source.exhausted:
                            break
                        self.condition.wait()
                        continue
                self._run_task(task)
            with self.condition:
                while not source.finished:
                    self.condition.wait()
        finally:
            self.detach(source)

    def run_morsels(self, dispatcher, run_morsel, max_workers: int) -> None:
        """Run one pipeline's morsels on the pool and re-raise failures.

        Convenience wrapper used by the executors: builds the
        :class:`MorselSource`, drives it (calling thread participates,
        bounded at ``max_workers``) and re-raises the first morsel failure.
        """
        source = MorselSource(self, dispatcher, run_morsel, max_workers)
        self.drive(source)
        source.raise_failure()

    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True,
              timeout: Optional[float] = None) -> None:
        """Shut the pool down; idempotent.

        ``timeout`` bounds the join over all workers (``None`` waits
        indefinitely).  A worker still inside a long task when the deadline
        passes is left to drain on its own -- the threads are daemonic, so
        they can never hang interpreter exit.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + max(timeout, 0.0))
        with self.condition:
            self._closed = True
            self.condition.notify_all()
            threads = list(self._threads)
        if wait:
            for thread in threads:
                if deadline is None:
                    thread.join()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                thread.join(remaining)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{self.alive_workers()} alive"
        return f"<WorkerPool size={self.size} {state}>"


class MorselSource(TaskSource):
    """Feeds one pipeline's morsels from a dispatcher into the pool.

    ``run_morsel(slot, morsel)`` executes one morsel; ``slot`` is a dense
    worker-slot id in ``[0, max_workers)`` handed out per claim, so
    per-thread accounting (progress rates, trace lanes) stays stable no
    matter which pool thread actually runs the task.  At most
    ``max_workers`` tasks are in flight at once -- that is how a query's
    ``threads=N`` bounds its share of the pool.  The first task failure is
    recorded, further claims stop (the query aborts), and
    :meth:`raise_failure` re-raises it on the driving thread.
    """

    def __init__(self, pool: WorkerPool, dispatcher, run_morsel,
                 max_workers: int):
        self._pool = pool
        self._dispatcher = dispatcher
        self._run_morsel = run_morsel
        self.max_workers = max(int(max_workers), 1)
        self._free_slots = list(range(self.max_workers - 1, -1, -1))
        self._in_flight = 0
        self._no_more_tasks = False
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    def claim(self) -> Optional[Callable[[], None]]:
        if self._no_more_tasks or not self._free_slots:
            return None
        morsel = self._dispatcher.next_morsel()
        if morsel is None:
            self._no_more_tasks = True
            return None
        slot = self._free_slots.pop()
        self._in_flight += 1

        def task() -> None:
            failure = None
            try:
                self._run_morsel(slot, morsel)
            except BaseException as exc:
                failure = exc
            self._complete(slot, failure)

        return task

    def _complete(self, slot: int, failure: Optional[BaseException]) -> None:
        with self._pool.condition:
            self._free_slots.append(slot)
            self._in_flight -= 1
            if failure is not None:
                if self._failure is None:
                    self._failure = failure
                self._no_more_tasks = True
            self._pool.condition.notify_all()

    # ------------------------------------------------------------------ #
    @property
    def exhausted(self) -> bool:
        return self._no_more_tasks

    @property
    def finished(self) -> bool:
        return self._no_more_tasks and self._in_flight == 0

    def raise_failure(self) -> None:
        if self._failure is not None:
            raise self._failure


class CompileFuture:
    """Completion handle of one background compilation job."""

    __slots__ = ("_event", "_exception")

    def __init__(self):
        self._event = threading.Event()
        self._exception: Optional[BaseException] = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def done(self) -> bool:
        return self._event.is_set()

    def exception(self) -> Optional[BaseException]:
        """The job's exception, if any (after completion)."""
        return self._exception


class CompileExecutor:
    """One shared background thread running tier-compilation jobs.

    Adaptive executions used to spawn a fresh thread per compilation; with
    many concurrent queries that both defeats the bounded-thread guarantee
    and over-subscribes the machine.  All background compilations of one
    database now funnel through this single compile thread (started lazily,
    daemonic).  After :meth:`close`, ``submit`` degrades gracefully by
    running the job synchronously on the caller.

    The single thread serializes compile jobs, so under many concurrent
    cold adaptive queries a pipeline's end-of-run ``future.wait()`` can sit
    behind other queries' jobs (head-of-line blocking).  That is a
    deliberate trade-off for the bounded thread count: jobs are
    millisecond-scale, and the wait exists so ``timings.compile`` accounts
    background work exactly like the synchronous path (the PR 1 fix).
    Daemon threads (unlike ``concurrent.futures``) also guarantee that a
    database dropped without ``close()`` can never hang interpreter exit.
    """

    def __init__(self, name: str = "repro-compile", metrics=None):
        self.name = name
        self._condition = threading.Condition()
        self._queue: deque[tuple[Callable[[], None], CompileFuture]] = deque()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._jobs_counter = (metrics.counter(
            "compile.jobs", "Background tier-compilation jobs run")
            if metrics is not None else None)
        self._seconds_histogram = (metrics.histogram(
            "compile.seconds", "Wall-clock seconds per compile job")
            if metrics is not None else None)

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        with self._condition:
            return len(self._queue)

    # ------------------------------------------------------------------ #
    def submit(self, job: Callable[[], None]) -> CompileFuture:
        future = CompileFuture()
        with self._condition:
            if not self._closed:
                self._queue.append((job, future))
                if self._thread is None or not self._thread.is_alive():
                    self._thread = threading.Thread(
                        target=self._loop, name=self.name, daemon=True)
                    self._thread.start()
                self._condition.notify_all()
                return future
        # Closed: run synchronously so callers never lose a compilation.
        self._run_job(job, future)
        return future

    def _run_job(self, job: Callable[[], None],
                 future: CompileFuture) -> None:
        start = time.perf_counter()
        try:
            job()
        except BaseException as exc:
            future._exception = exc
        finally:
            future._event.set()
            if self._jobs_counter is not None:
                self._jobs_counter.inc()
                self._seconds_histogram.observe(time.perf_counter() - start)

    def _loop(self) -> None:
        while True:
            with self._condition:
                while not self._queue:
                    if self._closed:
                        return
                    self._condition.wait()
                job, future = self._queue.popleft()
            self._run_job(job, future)

    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop accepting jobs; the thread drains the queue, then exits.

        ``timeout`` bounds the join (``None`` waits indefinitely); the
        compile thread is daemonic, so an expired deadline just stops
        waiting for the drain.
        """
        with self._condition:
            self._closed = True
            self._condition.notify_all()
            thread = self._thread
        if wait and thread is not None:
            thread.join(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompileExecutor pending={self.pending()}>"
