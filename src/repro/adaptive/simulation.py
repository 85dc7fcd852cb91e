"""Virtual-time simulation of multi-threaded morsel-driven execution.

CPython's global interpreter lock prevents the pure-Python execution tiers
from showing real multi-core speedups, so the paper's multi-threaded timing
experiments (Fig. 13, Fig. 14, the 8-thread columns of Table II) are
reproduced with a discrete-event simulator:

1. :func:`profile_query` measures, on the real engine and single-threaded,
   every pipeline's per-tuple processing rate in each execution mode, its
   compile/translation times and its size -- all real measurements of this
   implementation.
2. :func:`simulate_static` and :func:`simulate_adaptive` then replay
   morsel-driven execution on ``w`` virtual worker threads: morsels are
   dispatched from a shared queue to the earliest-free worker, static modes
   pay their full compilation up front on a single thread, and the adaptive
   mode starts in bytecode, evaluates the Fig. 7 policy at morsel
   completions, runs compilations on one worker thread and switches rates
   once compilation finishes.

Every algorithmic component (morsel scheduling, progress tracking, the
policy, pipeline ordering) is the same code path a real multi-core run would
take; only the clock is virtual.  DESIGN.md documents this substitution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..backend.cost_model import CostModel, TierEstimate, default_cost_model
from ..errors import AdaptiveError
from ..options import ExecOptions
from .modes import ExecutionMode
from .policy import AdaptivePolicy, Decision
from ..telemetry.trace import ExecutionTrace, TraceEvent

#: Execution tiers, in the order used throughout the simulator.
TIER_NAMES = ("bytecode", "unoptimized", "optimized")


@dataclass
class PipelineProfile:
    """Measured characteristics of one pipeline (real, single-threaded)."""

    name: str
    rows: int
    ir_instructions: int
    #: tuples/second per worker, per tier
    rates: dict[str, float]
    #: seconds to prepare each tier (bytecode translation or compilation)
    compile_seconds: dict[str, float]


@dataclass
class QueryProfile:
    """Measured characteristics of a whole query."""

    label: str
    planning_seconds: float
    codegen_seconds: float
    pipelines: list[PipelineProfile]

    @property
    def total_rows(self) -> int:
        return sum(p.rows for p in self.pipelines)


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    mode: str
    threads: int
    total_seconds: float
    execution_seconds: float
    compile_seconds: float
    trace: ExecutionTrace
    pipeline_modes: dict[str, list[str]] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# profiling (real measurements feeding the simulator)
# --------------------------------------------------------------------------- #
def profile_query(database, sql: str, label: str = "",
                  min_rate_rows: int = 1) -> QueryProfile:
    """Measure per-pipeline rates and compile times for every tier.

    Runs the query once per tier on the real engine (single-threaded) and
    derives tuples/second per pipeline.  Rates for empty pipelines fall back
    to the query-wide average so the simulator never divides by zero.
    """
    runs = {}
    planning_seconds = 0.0
    codegen_seconds = 0.0
    for tier in TIER_NAMES:
        # use_cache=False: a plan-cache hit reports 0 for the planning,
        # codegen and compile phases, which are exactly the quantities the
        # simulator needs measured cold.
        result = database.execute(sql, options=ExecOptions(
            mode=tier, threads=1, use_cache=False))
        runs[tier] = result
        planning_seconds = result.timings.planning
        codegen_seconds = result.timings.codegen

    reference = runs["bytecode"]
    pipelines: list[PipelineProfile] = []
    for index, pipeline in enumerate(reference.pipelines):
        rates: dict[str, float] = {}
        compile_seconds: dict[str, float] = {}
        for tier in TIER_NAMES:
            stats = runs[tier].pipelines[index]
            rows = max(stats.rows, min_rate_rows)
            seconds = max(stats.seconds, 1e-7)
            rates[tier] = rows / seconds
            compile_seconds[tier] = _per_pipeline_compile_seconds(
                runs[tier], index, tier)
        pipelines.append(PipelineProfile(
            name=pipeline.name,
            rows=pipeline.rows,
            ir_instructions=pipeline.ir_instructions,
            rates=rates,
            compile_seconds=compile_seconds))
    return QueryProfile(label=label or sql[:40],
                        planning_seconds=planning_seconds,
                        codegen_seconds=codegen_seconds,
                        pipelines=pipelines)


def _per_pipeline_compile_seconds(result, index: int, tier: str) -> float:
    """Attribute the run's total compile time to pipelines by IR size."""
    total_instructions = sum(p.ir_instructions for p in result.pipelines)
    if total_instructions == 0:
        return 0.0
    share = result.pipelines[index].ir_instructions / total_instructions
    return result.timings.compile * share


def cost_model_from_profiles(profiles: list[QueryProfile]) -> CostModel:
    """Fit the adaptive policy's cost model from measured profiles.

    This is the reproduction of the paper's "determined empirically in our
    system": compile time is fitted linearly against the IR instruction
    count (Fig. 6) and speedups are the average measured rate ratios.
    """
    model = CostModel()
    samples: dict[str, list[tuple[int, float]]] = {t: [] for t in TIER_NAMES}
    speedups: dict[str, list[float]] = {t: [] for t in TIER_NAMES}
    for profile in profiles:
        for pipeline in profile.pipelines:
            base_rate = pipeline.rates.get("bytecode", 0.0)
            for tier in TIER_NAMES:
                samples[tier].append((pipeline.ir_instructions,
                                      pipeline.compile_seconds[tier]))
                if base_rate > 0 and pipeline.rates.get(tier, 0.0) > 0:
                    speedups[tier].append(pipeline.rates[tier] / base_rate)
    for tier in TIER_NAMES:
        speedup = (sum(speedups[tier]) / len(speedups[tier])
                   if speedups[tier] else None)
        model.fit(tier, samples[tier], speedup=speedup)
    return model


# --------------------------------------------------------------------------- #
# the simulator core
# --------------------------------------------------------------------------- #
class _SimulatedProgress:
    """Progress adapter with the interface :class:`AdaptivePolicy` expects."""

    def __init__(self, total_tuples: int):
        self.total_tuples = total_tuples
        self.processed_tuples = 0
        self._rate: Optional[float] = None

    def record(self, tuples: int, rate: float) -> None:
        self.processed_tuples += tuples
        self._rate = rate

    def reset_rates(self) -> None:
        self._rate = None

    @property
    def remaining_tuples(self) -> int:
        return max(self.total_tuples - self.processed_tuples, 0)

    def average_rate(self) -> Optional[float]:
        return self._rate


def simulate_static(profile: QueryProfile, mode: str, threads: int,
                    morsel_size: int = 10_000,
                    include_planning: bool = True) -> SimulationResult:
    """Simulate a statically chosen tier on ``threads`` virtual workers."""
    if mode not in TIER_NAMES:
        raise AdaptiveError(f"unknown tier {mode!r}")
    trace = ExecutionTrace(label=f"{mode} ({threads} threads)")
    clock = (profile.planning_seconds + profile.codegen_seconds
             if include_planning else 0.0)

    # Up-front single-threaded preparation of every pipeline.
    compile_total = sum(p.compile_seconds[mode] for p in profile.pipelines)
    if compile_total > 0:
        trace.add(TraceEvent(0, clock, clock + compile_total, "compile",
                             "query plan", mode))
    clock += compile_total

    execution_seconds = 0.0
    pipeline_modes: dict[str, list[str]] = {}
    for pipeline in profile.pipelines:
        finish = _simulate_pipeline_morsels(
            trace, pipeline, start_time=clock, threads=threads,
            morsel_size=morsel_size, rate_of={t: pipeline.rates[mode]
                                              for t in (mode,)},
            initial_mode=mode, policy=None, cost_model=None,
            compile_seconds=pipeline.compile_seconds)
        execution_seconds += finish - clock
        clock = finish
        pipeline_modes[pipeline.name] = [mode]

    return SimulationResult(mode=mode, threads=threads, total_seconds=clock,
                            execution_seconds=execution_seconds,
                            compile_seconds=compile_total, trace=trace,
                            pipeline_modes=pipeline_modes)


def simulate_adaptive(profile: QueryProfile, threads: int,
                      cost_model: Optional[CostModel] = None,
                      morsel_size: int = 10_000,
                      initial_morsel_size: int = 1024,
                      include_planning: bool = True) -> SimulationResult:
    """Simulate adaptive execution on ``threads`` virtual workers."""
    cost_model = cost_model or default_cost_model()
    policy = AdaptivePolicy(cost_model)
    trace = ExecutionTrace(label=f"adaptive ({threads} threads)")
    clock = (profile.planning_seconds + profile.codegen_seconds
             if include_planning else 0.0)

    execution_seconds = 0.0
    compile_seconds_total = 0.0
    pipeline_modes: dict[str, list[str]] = {}
    for pipeline in profile.pipelines:
        # Bytecode translation happens before the pipeline starts.
        translation = pipeline.compile_seconds["bytecode"]
        clock += translation
        compile_seconds_total += translation
        finish, modes, compiled_time = _simulate_pipeline_morsels(
            trace, pipeline, start_time=clock, threads=threads,
            morsel_size=morsel_size, rate_of=pipeline.rates,
            initial_mode="bytecode", policy=policy, cost_model=cost_model,
            compile_seconds=pipeline.compile_seconds,
            initial_morsel_size=initial_morsel_size, return_details=True)
        execution_seconds += finish - clock
        compile_seconds_total += compiled_time
        clock = finish
        pipeline_modes[pipeline.name] = modes

    return SimulationResult(mode="adaptive", threads=threads,
                            total_seconds=clock,
                            execution_seconds=execution_seconds,
                            compile_seconds=compile_seconds_total,
                            trace=trace, pipeline_modes=pipeline_modes)


def _simulate_pipeline_morsels(trace: ExecutionTrace,
                               pipeline: PipelineProfile, start_time: float,
                               threads: int, morsel_size: int, rate_of: dict,
                               initial_mode: str, policy, cost_model,
                               compile_seconds: dict,
                               initial_morsel_size: Optional[int] = None,
                               return_details: bool = False):
    """Replay one pipeline's morsel execution in virtual time.

    Workers pull morsels from a shared queue; the earliest-free worker gets
    the next morsel.  In adaptive mode the policy is evaluated when a morsel
    completes; a switch dedicates the completing worker to the compilation,
    after which every later morsel runs at the faster rate.
    """
    rows = pipeline.rows
    current_mode = initial_mode
    mode_history = [initial_mode]
    progress = _SimulatedProgress(rows)
    compile_busy_until = 0.0
    compile_pending_mode: Optional[str] = None
    compile_time_spent = 0.0

    if rows <= 0:
        finish = start_time
        if return_details:
            return finish, mode_history, compile_time_spent
        return finish

    # Worker availability times.
    workers = [(start_time, i) for i in range(threads)]
    heapq.heapify(workers)

    next_row = 0
    size = initial_morsel_size or morsel_size
    finish = start_time

    while next_row < rows:
        available_at, worker_id = heapq.heappop(workers)

        # Did a pending compilation finish before this worker became free?
        if compile_pending_mode is not None and \
                available_at >= compile_busy_until:
            current_mode = compile_pending_mode
            compile_pending_mode = None
            if current_mode not in mode_history:
                mode_history.append(current_mode)
            progress.reset_rates()

        begin = next_row
        end = min(begin + size, rows)
        next_row = end
        size = min(size * 2, morsel_size)

        rate = rate_of.get(current_mode) or next(iter(rate_of.values()))
        duration = (end - begin) / max(rate, 1e-9)
        morsel_end = available_at + duration
        trace.add(TraceEvent(worker_id, available_at, morsel_end, "morsel",
                             pipeline.name, current_mode, end - begin))
        progress.record(end - begin, rate)
        finish = max(finish, morsel_end)

        # Policy evaluation at morsel completion (adaptive only).
        if policy is not None and compile_pending_mode is None and \
                current_mode != "optimized":
            evaluation = policy.evaluate(
                progress, ExecutionMode.of(current_mode),
                pipeline.ir_instructions, active_workers=threads,
                elapsed_seconds=morsel_end - start_time)
            target = evaluation.decision.target_mode
            if target is not None and target.tier_name != current_mode:
                compile_cost = compile_seconds[target.tier_name]
                compile_time_spent += compile_cost
                if threads == 1:
                    # Single worker compiles synchronously.
                    trace.add(TraceEvent(worker_id, morsel_end,
                                         morsel_end + compile_cost,
                                         "compile", pipeline.name,
                                         target.tier_name))
                    morsel_end += compile_cost
                    current_mode = target.tier_name
                    mode_history.append(current_mode)
                    progress.reset_rates()
                else:
                    # This worker becomes the compile thread.
                    trace.add(TraceEvent(worker_id, morsel_end,
                                         morsel_end + compile_cost,
                                         "compile", pipeline.name,
                                         target.tier_name))
                    compile_busy_until = morsel_end + compile_cost
                    compile_pending_mode = target.tier_name
                    finish = max(finish, compile_busy_until)
                    heapq.heappush(workers, (compile_busy_until, worker_id))
                    continue

        heapq.heappush(workers, (morsel_end, worker_id))

    if return_details:
        return finish, mode_history, compile_time_spent
    return finish
