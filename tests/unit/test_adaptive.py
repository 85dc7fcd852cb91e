"""Unit tests for the adaptive execution framework."""

import time
from collections import Counter

import pytest

from repro import Database, ExecOptions, SQLType
from repro.adaptive import (
    AdaptivePolicy,
    Decision,
    ExecutionMode,
    ExecutionTrace,
    FunctionHandle,
    MorselDispatcher,
    PipelineProgress,
    TraceEvent,
    render_trace,
)
from repro.adaptive.simulation import (
    PipelineProfile,
    QueryProfile,
    cost_model_from_profiles,
    simulate_adaptive,
    simulate_static,
)
from repro.backend.cost_model import CostModel, TierEstimate
from repro.ir import ExternFunction, Function, IRBuilder
from repro.ir.types import i64, ptr, void


class TestMorselDispatcher:
    def test_covers_range_exactly_once(self):
        dispatcher = MorselDispatcher(1000, morsel_size=64, initial_size=8)
        covered = []
        while True:
            morsel = dispatcher.next_morsel()
            if morsel is None:
                break
            covered.append((morsel.begin, morsel.end))
        assert covered[0][0] == 0
        assert covered[-1][1] == 1000
        for (b1, e1), (b2, e2) in zip(covered, covered[1:]):
            assert e1 == b2  # contiguous, no overlap, no gap

    def test_growing_morsel_size(self):
        dispatcher = MorselDispatcher(10_000, morsel_size=4096, initial_size=64)
        sizes = []
        while True:
            morsel = dispatcher.next_morsel()
            if morsel is None:
                break
            sizes.append(morsel.size)
        assert sizes[0] == 64
        assert max(sizes) == 4096
        # non-decreasing, apart from the final (possibly partial) morsel
        body = sizes[:-1]
        assert body == sorted(body)

    def test_empty_input(self):
        dispatcher = MorselDispatcher(0, morsel_size=10)
        assert dispatcher.next_morsel() is None
        assert dispatcher.exhausted

    def test_invalid_morsel_size(self):
        with pytest.raises(ValueError):
            MorselDispatcher(10, morsel_size=0)


class TestProgress:
    def test_rates_and_remaining(self):
        progress = PipelineProgress(total_tuples=1000, num_threads=2)
        progress.record_morsel(0, 100, 0.01)
        progress.record_morsel(1, 300, 0.01)
        assert progress.remaining_tuples == 600
        assert progress.average_rate() == pytest.approx((10_000 + 30_000) / 2)

    def test_reset_rates(self):
        progress = PipelineProgress(1000, 1)
        progress.record_morsel(0, 100, 0.01)
        progress.reset_rates()
        assert progress.average_rate() is None
        assert progress.remaining_tuples == 900  # progress itself is kept


def _policy_model():
    """A cost model with easy-to-reason-about numbers."""
    return CostModel(estimates={
        "bytecode": TierEstimate(0.0, 0.0, 1.0),
        "unoptimized": TierEstimate(0.010, 0.0, 4.0),
        "optimized": TierEstimate(0.100, 0.0, 8.0),
    })


class TestPolicy:
    def make_progress(self, total, processed, rate):
        progress = PipelineProgress(total, 1)
        progress.record_morsel(0, processed, processed / rate)
        return progress

    def test_small_remaining_work_stays_interpreted(self):
        policy = AdaptivePolicy(_policy_model())
        progress = self.make_progress(total=2_000, processed=1_000,
                                      rate=100_000)
        evaluation = policy.evaluate(progress, ExecutionMode.BYTECODE,
                                     instruction_count=100, active_workers=1,
                                     elapsed_seconds=0.01)
        assert evaluation.decision is Decision.DO_NOTHING

    def test_large_remaining_work_compiles_optimized(self):
        policy = AdaptivePolicy(_policy_model())
        progress = self.make_progress(total=50_000_000, processed=10_000,
                                      rate=100_000)
        evaluation = policy.evaluate(progress, ExecutionMode.BYTECODE,
                                     instruction_count=100, active_workers=4,
                                     elapsed_seconds=0.05)
        assert evaluation.decision is Decision.OPTIMIZED

    def test_medium_work_prefers_unoptimized(self):
        policy = AdaptivePolicy(_policy_model())
        progress = self.make_progress(total=60_000, processed=20_000,
                                      rate=100_000)
        evaluation = policy.evaluate(progress, ExecutionMode.BYTECODE,
                                     instruction_count=100, active_workers=1,
                                     elapsed_seconds=0.05)
        assert evaluation.decision is Decision.UNOPTIMIZED

    def test_no_decision_before_first_delay(self):
        policy = AdaptivePolicy(_policy_model())
        progress = self.make_progress(total=50_000_000, processed=10_000,
                                      rate=100_000)
        evaluation = policy.evaluate(progress, ExecutionMode.BYTECODE, 100, 4,
                                     elapsed_seconds=0.0001)
        assert evaluation.decision is Decision.DO_NOTHING

    def test_never_downgrades(self):
        policy = AdaptivePolicy(_policy_model())
        progress = self.make_progress(total=1_000_000, processed=10_000,
                                      rate=100_000)
        evaluation = policy.evaluate(progress, ExecutionMode.OPTIMIZED, 100, 1,
                                     elapsed_seconds=0.05)
        assert evaluation.decision is Decision.DO_NOTHING

    def test_extrapolation_accounts_for_other_threads(self):
        # With many workers the compile time is hidden, so switching pays off
        # earlier than with a single worker.
        policy = AdaptivePolicy(_policy_model())
        progress_single = self.make_progress(2_000_000, 10_000, 100_000)
        single = policy.evaluate(progress_single, ExecutionMode.BYTECODE, 100,
                                 active_workers=1, elapsed_seconds=0.05)
        progress_many = self.make_progress(2_000_000, 10_000, 100_000)
        many = policy.evaluate(progress_many, ExecutionMode.BYTECODE, 100,
                               active_workers=8, elapsed_seconds=0.05)
        assert many.optimized_seconds < single.optimized_seconds


class TestFunctionHandle:
    def _worker(self):
        out = []
        sink = ExternFunction("sink", [i64], void, out.append)
        function = Function("worker", [ptr, i64, i64],
                            ["state", "begin", "end"])
        builder = IRBuilder(function)
        index, _, _, close = builder.count_loop(function.args[1],
                                                function.args[2])
        builder.call(sink, [builder.mul(index, index)])
        close()
        builder.ret()
        return function, out

    def test_starts_in_bytecode(self):
        function, _ = self._worker()
        handle = FunctionHandle(function)
        _, mode = handle.executable()
        assert mode is ExecutionMode.BYTECODE

    def test_compile_switches_mode(self):
        function, out = self._worker()
        handle = FunctionHandle(function)
        executable, _ = handle.executable()
        executable(None, 0, 5)
        baseline = list(out)

        handle.compile(ExecutionMode.UNOPTIMIZED)
        executable, mode = handle.executable()
        assert mode is ExecutionMode.UNOPTIMIZED
        out.clear()
        executable(None, 0, 5)
        assert out == baseline

        handle.compile(ExecutionMode.OPTIMIZED)
        executable, mode = handle.executable()
        assert mode is ExecutionMode.OPTIMIZED
        out.clear()
        executable(None, 0, 5)
        assert out == baseline

    def test_compile_is_idempotent(self):
        function, _ = self._worker()
        handle = FunctionHandle(function)
        first = handle.compile(ExecutionMode.UNOPTIMIZED)
        second = handle.compile(ExecutionMode.UNOPTIMIZED)
        assert second == first  # cached, not recompiled

    def test_mode_switch_mid_pipeline_loses_no_work(self):
        function, out = self._worker()
        handle = FunctionHandle(function)
        executable, _ = handle.executable()
        executable(None, 0, 10)
        handle.compile(ExecutionMode.OPTIMIZED)
        executable, _ = handle.executable()
        executable(None, 10, 20)
        assert out == [i * i for i in range(20)]


class TestTrace:
    def test_mode_switches_and_render(self):
        trace = ExecutionTrace(label="demo")
        trace.add(TraceEvent(0, 0.0, 0.5, "morsel", "scan t", "bytecode", 10))
        trace.add(TraceEvent(1, 0.1, 0.4, "compile", "scan t", "unoptimized"))
        trace.add(TraceEvent(0, 0.5, 0.8, "morsel", "scan t", "unoptimized", 10))
        assert trace.duration == pytest.approx(0.8)
        assert trace.mode_switches() == [("scan t", "bytecode->unoptimized")]
        rendered = render_trace(trace, width=40)
        assert "thread 0" in rendered and "C" in rendered


class TestSimulation:
    def _profile(self):
        pipeline = PipelineProfile(
            name="scan big", rows=1_000_000, ir_instructions=500,
            rates={"bytecode": 200_000.0, "unoptimized": 700_000.0,
                   "optimized": 1_200_000.0},
            compile_seconds={"bytecode": 0.001, "unoptimized": 0.02,
                             "optimized": 0.12})
        small = PipelineProfile(
            name="scan small", rows=2_000, ir_instructions=120,
            rates={"bytecode": 200_000.0, "unoptimized": 700_000.0,
                   "optimized": 1_200_000.0},
            compile_seconds={"bytecode": 0.0005, "unoptimized": 0.01,
                             "optimized": 0.05})
        return QueryProfile(label="synthetic", planning_seconds=0.001,
                            codegen_seconds=0.001,
                            pipelines=[small, pipeline])

    def test_static_bytecode_has_no_compile_cost(self):
        result = simulate_static(self._profile(), "bytecode", threads=4)
        assert result.compile_seconds < 0.01

    def test_static_optimized_pays_compilation_up_front(self):
        result = simulate_static(self._profile(), "optimized", threads=4)
        assert result.compile_seconds == pytest.approx(0.17)

    def test_adaptive_beats_worst_static_choice(self):
        profile = self._profile()
        adaptive = simulate_adaptive(profile, threads=4)
        bytecode = simulate_static(profile, "bytecode", threads=4)
        optimized = simulate_static(profile, "optimized", threads=4)
        assert adaptive.total_seconds <= max(bytecode.total_seconds,
                                             optimized.total_seconds)

    def test_adaptive_compiles_only_the_large_pipeline(self):
        result = simulate_adaptive(self._profile(), threads=4)
        assert result.pipeline_modes["scan small"] == ["bytecode"]
        assert len(result.pipeline_modes["scan big"]) >= 2

    def test_more_threads_do_not_slow_down(self):
        profile = self._profile()
        few = simulate_adaptive(profile, threads=2)
        many = simulate_adaptive(profile, threads=8)
        assert many.total_seconds <= few.total_seconds * 1.05

    def test_cost_model_from_profiles(self):
        model = cost_model_from_profiles([self._profile()])
        assert model.speedup("optimized") > model.speedup("unoptimized") > 1.0


class _AlwaysOptimize:
    """A policy stub that requests the optimized tier on every evaluation."""

    def evaluate(self, progress, current, instruction_count, active_workers,
                 elapsed_seconds):
        from repro.adaptive.policy import PolicyEvaluation

        return PolicyEvaluation(Decision.OPTIMIZED, 1.0, None, 0.0, 1.0)


def _sum_query_db(rows=20_000, morsel_size=64):
    db = Database(morsel_size=morsel_size)
    db.create_table("t", [("a", SQLType.INT64)])
    db.insert("t", [(i,) for i in range(rows)])
    return db


class TestAdaptiveCompileAccounting:
    """Regression tests for the background-compile timing/race fixes."""

    def _run(self, monkeypatch, num_threads, sleep_seconds=0.03):
        from repro.adaptive import modes as modes_module
        from repro.adaptive.executor import PipelineExecutor

        real_compile = modes_module.compile_function
        calls = []

        def slow_compile(function, tier, **kwargs):
            calls.append((function.name, tier))
            time.sleep(sleep_seconds)
            return real_compile(function, tier, **kwargs)

        monkeypatch.setattr(modes_module, "compile_function", slow_compile)

        db = _sum_query_db()
        generated, planning, timings = db.generate("select sum(a) as s from t")
        executor = PipelineExecutor(
            db, ExecOptions(mode="adaptive", threads=num_threads), {},
            policy=_AlwaysOptimize())
        result = executor.execute(generated, planning, timings)
        return result, calls

    def test_multithreaded_compile_time_is_accounted(self, monkeypatch):
        # The background compile thread's time must show up in the phase
        # breakdown exactly like the synchronous w=1 path's does.
        result, calls = self._run(monkeypatch, num_threads=3)
        assert calls, "policy stub should have triggered a compilation"
        assert result.timings.compile >= 0.03

    def test_single_threaded_compile_time_is_accounted(self, monkeypatch):
        result, calls = self._run(monkeypatch, num_threads=1)
        assert calls
        assert result.timings.compile >= 0.03

    def test_exactly_one_compile_per_pipeline_and_tier(self, monkeypatch):
        # Many workers all asking for the same switch must not spawn
        # duplicate compile threads for one (pipeline, tier) target.
        result, calls = self._run(monkeypatch, num_threads=8,
                                  sleep_seconds=0.02)
        counts = Counter(calls)
        assert counts, "expected at least one compilation"
        duplicates = {key: n for key, n in counts.items() if n > 1}
        assert not duplicates, f"duplicate compilations: {duplicates}"

    def test_results_correct_while_switching(self, monkeypatch):
        result, _ = self._run(monkeypatch, num_threads=4)
        assert result.rows == [(sum(range(20_000)),)]


class TestExecutors:
    def test_adaptive_mode_equals_static_results(self):
        db = Database(morsel_size=256)
        db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.FLOAT64)])
        db.insert("t", [(i % 13, float(i)) for i in range(5000)])
        sql = "select a, sum(b) as s, count(*) as c from t group by a order by a"
        static = db.execute(sql, options=ExecOptions(mode="optimized"))
        adaptive = db.execute(sql, options=ExecOptions(mode="adaptive"))
        assert adaptive.rows == static.rows
        assert adaptive.mode == "adaptive"
        assert adaptive.query_trace is not None
        assert adaptive.query_trace.events

    def test_adaptive_multithreaded(self):
        db = Database(morsel_size=128)
        db.create_table("t", [("a", SQLType.INT64)])
        db.insert("t", [(i,) for i in range(3000)])
        sql = "select sum(a) as s from t"
        result = db.execute(sql,
                            options=ExecOptions(mode="adaptive", threads=3))
        assert result.rows == [(sum(range(3000)),)]

    def test_static_parallel_executor(self):
        db = Database(morsel_size=128)
        db.create_table("t", [("a", SQLType.INT64)])
        db.insert("t", [(i,) for i in range(2000)])
        result = db.execute("select count(*) as c from t",
                            options=ExecOptions(mode="bytecode", threads=4))
        assert result.rows == [(2000,)]
