"""The pipeline executor: every engine mode through one per-pipeline loop.

:class:`PipelineExecutor` implements the paper's execution loop.  Before
the first morsel it resolves one :class:`~repro.adaptive.FunctionHandle`
per pipeline.  A static mode's handle starts in that mode's tier, so every
worker function is compiled up front, single-threaded -- while this runs,
all worker threads are idle (the paper's point in Section II-A).  The
adaptive mode's handle starts in the bytecode interpreter.  Then each
pipeline runs morsel by morsel on all workers, every morsel dispatching
through its handle.

Only in adaptive mode is progress tracked per morsel and the Fig. 7 policy
consulted on when to compile the pipeline's worker function.  With more
than one worker the compilation runs on the database's shared compile
thread while the workers keep interpreting; with a single thread it happens
synchronously (matching the w=1 case of the extrapolation formula).  A
static mode runs the same loop with the policy off.

The executor spawns no threads of its own: parallel runs feed their morsels
through a :class:`repro.scheduler.MorselSource` into the database's shared
:class:`repro.scheduler.WorkerPool` (the calling thread participates,
capped at ``threads`` concurrent workers per pipeline), so any number of
concurrent queries share one bounded set of threads and their morsels
interleave fairly; background compilations funnel through the database's
shared :class:`repro.scheduler.CompileExecutor`.

Note on parallelism: CPython's GIL prevents real speedups for the
pure-Python interpreters, so wall-clock numbers from this executor do not
scale with the thread count.  It is functionally faithful (work stealing,
seamless mode switches, no lost work) and is used by the tests and
examples; the paper's multi-threaded *timing* experiments use the
virtual-time simulator in :mod:`repro.adaptive.simulation` instead (see
DESIGN.md).
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from typing import Optional

from ..backend.cost_model import CostModel, default_cost_model
from ..codegen import GeneratedPipeline, GeneratedQuery
from ..codegen.runtime import BreakerRun
from ..engine import PhaseTimings, PipelineExecution, QueryResult
from ..optimizer import PlanningResult
from ..options import ExecOptions
from ..plan.sargs import plan_pipeline_scan
from ..telemetry.trace import QueryTrace, TraceEvent
from .modes import ExecutionMode, FunctionHandle
from .morsel import MorselDispatcher
from .policy import AdaptivePolicy
from .progress import PipelineProgress

#: Initial morsel size for adaptive execution (grows towards the maximum),
#: giving the policy early sample points as described in the paper.
INITIAL_MORSEL_SIZE = 1024


def _merge_task_runner(database, num_threads: int):
    """How a pipeline's per-partition merge tasks run.

    Single-threaded executions merge on the calling thread; parallel
    executions feed the tasks through the shared worker pool as one-index
    morsels, bounded by the query's thread cap like any other work.
    """
    if num_threads <= 1:
        return None

    def run_tasks(tasks):
        if len(tasks) <= 1:
            for task in tasks:
                task()
            return
        dispatcher = MorselDispatcher.for_tasks(len(tasks))
        database.worker_pool.run_morsels(
            dispatcher, lambda slot, morsel: tasks[morsel.begin](),
            max_workers=min(num_threads, len(tasks)))
    return run_tasks


def _report_compile_failure(future, pipeline_name: str) -> None:
    """Surface a failed background compilation on stderr.

    Execution is unaffected (the pipeline keeps running in its current
    tier), matching the pre-pool behaviour where the dedicated compile
    thread died and ``threading``'s excepthook printed the traceback.
    """
    exc = future.exception()
    if exc is not None:
        print(f"repro: background compilation of pipeline "
              f"{pipeline_name!r} failed:", file=sys.stderr)
        traceback.print_exception(type(exc), exc, exc.__traceback__,
                                  file=sys.stderr)


class PipelineExecutor:
    """Executes a generated query in any engine mode, pipeline by pipeline.

    ``handles`` is the caller's ``(pipeline index, mode) -> FunctionHandle``
    map.  A prepared query passes its own dict, so bytecode translations and
    compiled tiers survive across executions: the compile work is paid
    once, and a later adaptive run starts in the best tier already reached.
    ``cost_model`` / ``policy`` are the inputs of the adaptive mode's
    Fig. 7 policy.
    """

    def __init__(self, database, opts: ExecOptions, handles: dict,
                 cost_model: Optional[CostModel] = None,
                 policy: Optional[AdaptivePolicy] = None):
        self.database = database
        self.opts = opts
        self.num_threads = max(opts.threads, 1)
        self.handles = handles
        #: The tier-switch policy; ``None`` (every static mode) means no
        #: progress tracking and no switch.
        self.policy: Optional[AdaptivePolicy] = None
        if opts.mode == "adaptive":
            self.policy = policy or AdaptivePolicy(
                cost_model or default_cost_model())
            self.start_mode = ExecutionMode.BYTECODE
        else:
            self.start_mode = ExecutionMode.of(opts.mode)

    # ------------------------------------------------------------------ #
    def execute(self, generated: GeneratedQuery, planning: PlanningResult,
                timings: PhaseTimings) -> QueryResult:
        # Every morsel, compile and tier-switch event lands in this trace;
        # ``mode_history`` is derived from it.
        mode = self.opts.mode
        trace = QueryTrace(label=mode, mode=mode)
        query_start = time.perf_counter()
        handles = [self._handle(index, pipeline, timings)
                   for index, pipeline in enumerate(generated.pipelines)]
        pipeline_stats = [
            self._run_pipeline(pipeline, handle, generated, trace,
                               query_start, timings)
            for pipeline, handle in zip(generated.pipelines, handles)]
        return self.database._assemble_result(
            generated, planning, timings, mode, pipeline_stats,
            query_trace=trace)

    def _handle(self, index: int, pipeline: GeneratedPipeline,
                timings: PhaseTimings) -> FunctionHandle:
        """The pipeline's handle, built in the start tier on first use.

        Only a new handle charges its build time: a cached one was paid
        for by an earlier execution.
        """
        key = (index, self.opts.mode)
        handle = self.handles.get(key)
        if handle is None:
            handle = FunctionHandle(pipeline.function, self.start_mode,
                                    vm=self.database._vm)
            timings.compile += handle.build_seconds
            self.handles[key] = handle
        return handle

    # ------------------------------------------------------------------ #
    def _run_pipeline(self, pipeline: GeneratedPipeline,
                      handle: FunctionHandle, generated: GeneratedQuery,
                      trace: QueryTrace, query_start: float,
                      timings: PhaseTimings) -> PipelineExecution:
        state = generated.state
        total_rows = state.source_row_count(pipeline.pipeline)
        scan = plan_pipeline_scan(pipeline.pipeline, total_rows,
                                  state.params,
                                  use_pruning=self.opts.use_pruning)
        timings.chunks_pruned += scan.chunks_pruned
        timings.chunks_scanned += scan.chunks_scanned
        rows = scan.rows_to_scan
        policy = self.policy
        dispatcher = MorselDispatcher(
            morsel_size=self.database.morsel_size,
            initial_size=None if policy is None else INITIAL_MORSEL_SIZE,
            ranges=scan.ranges)
        progress = PipelineProgress(rows, self.num_threads)
        synchronous = self.num_threads == 1
        # ``threads=N`` is a cap on this query's pool share, not a spawn
        # count: no more than pool size + 1 (the driving thread) workers can
        # actually run morsels, and the Fig. 7 extrapolation must not assume
        # parallelism beyond that.
        effective_workers = 1 if synchronous else min(
            self.num_threads, self.database.worker_pool.size + 1)
        decision_lock = threading.Lock()
        compile_futures: list = []
        #: Wall-clock seconds of finished tier compilations.  Appended from
        #: the shared compile thread (list.append is atomic under the GIL)
        #: and summed into ``timings.compile`` after the futures are
        #: awaited, so a background compilation is accounted exactly like a
        #: synchronous one.
        compile_seconds: list[float] = []
        pipeline_start = time.perf_counter()

        def maybe_switch(now: float) -> None:
            """Evaluate the policy (single evaluator at a time, paper III-C)."""
            if not decision_lock.acquire(blocking=False):
                return
            try:
                if handle.compiling is not None:
                    return
                current = handle.mode
                if current is ExecutionMode.OPTIMIZED:
                    return
                evaluation = policy.evaluate(
                    progress, current, handle.instruction_count,
                    active_workers=effective_workers,
                    elapsed_seconds=now - pipeline_start)
                target = evaluation.decision.target_mode
                if target is None or handle.is_compiled(target):
                    return
                # Why the policy chose to switch, attached to the trace event
                # below (the paper's Fig. 7 extrapolation inputs verbatim).
                trigger = {
                    "decision": evaluation.decision.value,
                    "keep_seconds": evaluation.keep_seconds,
                    "unoptimized_seconds": evaluation.unoptimized_seconds,
                    "optimized_seconds": evaluation.optimized_seconds,
                    "rate": evaluation.rate,
                    "processed_tuples": progress.processed_tuples,
                    "remaining_tuples": progress.remaining_tuples,
                    "workers": effective_workers,
                    "elapsed_seconds": now - pipeline_start,
                }

                def compile_job():
                    compile_start = time.perf_counter()
                    handle.compile(target)
                    compile_end = time.perf_counter()
                    # A single worker compiles on its own thread (0);
                    # otherwise the shared compile thread is drawn as
                    # thread ``num_threads``.
                    trace.add(TraceEvent(0 if synchronous
                                         else self.num_threads,
                                         compile_start - query_start,
                                         compile_end - query_start,
                                         "compile", pipeline.name,
                                         target.tier_name))
                    trace.record_tier_switch(
                        pipeline.name, current.tier_name, target.tier_name,
                        at=compile_end - query_start,
                        synchronous=synchronous, trigger=trigger)
                    compile_seconds.append(compile_end - compile_start)
                    progress.reset_rates()

                if synchronous:
                    # Single worker: compile synchronously (w=1 in Fig. 7).
                    compile_job()
                    return
                # Mark the handle as compiling *before* releasing the decision
                # lock: ``handle.compile`` only sets the marker once the
                # compile thread picks the job up, so without this a second
                # evaluation in that window would queue a duplicate compile
                # job for the same target.
                handle.compiling = target
                compile_futures.append(
                    self.database.compile_executor.submit(compile_job))
            finally:
                decision_lock.release()

        # Per-worker-slot breaker partials: the context rides into the
        # generated code as the worker function's ``state`` argument, so a
        # mid-pipeline tier switch keeps filling the same slot partials.
        breaker = BreakerRun(state, pipeline.pipeline,
                             max_slots=self.num_threads)

        def run_morsel(slot: int, morsel) -> None:
            executable, mode = handle.executable()
            start = time.perf_counter()
            executable(breaker.context(slot), morsel.begin, morsel.end)
            end = time.perf_counter()
            if policy is not None:
                progress.record_morsel(slot, morsel.size, end - start)
            trace.add(TraceEvent(slot, start - query_start,
                                 end - query_start, "morsel",
                                 pipeline.name, mode.tier_name,
                                 morsel.size))
            if state.limit_satisfied():
                state.early_terminated = True
                dispatcher.cancel()
            if policy is not None:
                maybe_switch(end)

        if rows > 0:
            if self.num_threads == 1:
                morsel = dispatcher.next_morsel()
                while morsel is not None:
                    run_morsel(0, morsel)
                    morsel = dispatcher.next_morsel()
            else:
                # Shared-pool execution: the pool workers and this thread
                # pull morsels together, at most ``num_threads`` at a time.
                self.database.worker_pool.run_morsels(
                    dispatcher, run_morsel, max_workers=self.num_threads)
        for future in compile_futures:
            future.wait()
            _report_compile_failure(future, pipeline.name)
        timings.compile += sum(compile_seconds)

        merge_stats = breaker.merge(
            _merge_task_runner(self.database, self.num_threads))
        if pipeline.finish is not None:
            pipeline.finish()
        elapsed = time.perf_counter() - pipeline_start
        timings.execution += elapsed
        timings.breaker_partitions = max(timings.breaker_partitions,
                                         merge_stats.partitions)
        timings.breaker_partials += merge_stats.partial_entries
        timings.breaker_merge += merge_stats.merge_seconds

        mode_history: list[str] = []
        for event in trace.events:
            if event.pipeline == pipeline.name and event.kind == "morsel":
                if not mode_history or mode_history[-1] != event.mode:
                    mode_history.append(event.mode)
        return PipelineExecution(
            name=pipeline.name, rows=rows,
            morsels=dispatcher.dispatched, seconds=elapsed,
            # A pipeline that ran no morsel (empty or fully pruned input)
            # reports the tier it would have run in.
            mode_history=mode_history or [handle.mode.tier_name],
            ir_instructions=pipeline.function.instruction_count(),
            breaker_partitions=merge_stats.partitions,
            breaker_partial_entries=merge_stats.partial_entries,
            merge_seconds=merge_stats.merge_seconds)
