"""Per-database query-lifecycle recorder.

One :class:`QueryTelemetry` instance lives on every ``Database``.  It
pre-resolves all per-query instruments once (so the per-query hot path is
a handful of sharded-counter increments, no registry lookups, no string
formatting) and stamps every result with a stable query id and a
:class:`~repro.telemetry.QueryTrace`.

Telemetry levels (``ExecOptions.telemetry``):

* ``"off"``   -- nothing is recorded; the recorder is never called.
* ``"basic"`` -- the default: counters/histograms above plus a
  :class:`QueryTrace` with lifecycle phase spans; an engine-mode
  execution's trace also carries the tier-switch and per-morsel events
  its executor recorded (``mode_history`` is derived from them).
* ``"trace"`` -- the same, but the execution bypasses the result cache,
  so the trace always shows a real run.
"""

from __future__ import annotations

import itertools

from .metrics import MetricsRegistry
from .trace import QueryTrace

#: Valid values of ``ExecOptions.telemetry``.
TELEMETRY_LEVELS = ("off", "basic", "trace")


class QueryTelemetry:
    """Records one database's query lifecycle into its metrics registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        #: Monotone query-id source; ``itertools.count`` is GIL-atomic.
        self._ids = itertools.count(1)
        counter = registry.counter
        histogram = registry.histogram
        self.queries = counter(
            "query.count", "Queries executed (all modes)")
        self.failed = counter("query.failed", "Queries that raised")
        self.cached = counter(
            "query.cached",
            "Executions that reused a cache (plan or result)")
        self.result_cached = counter(
            "query.result_cached",
            "Executions served from the result cache (no execution)")
        self.rows = counter("query.rows", "Result rows returned")
        self.early_terminated = counter(
            "query.early_terminated", "LIMIT quota cancelled the scan")
        self.seconds = histogram(
            "query.seconds", "Per-query total seconds (work, not queue)")
        self.execution_seconds = histogram(
            "query.execution_seconds", "Per-query execution-phase seconds")
        self.compile_seconds = histogram(
            "query.compile_seconds",
            "Per-query bytecode-translation + tier-compilation seconds")
        self.chunks_scanned = counter(
            "storage.chunks_scanned", "Storage chunks scanned")
        self.chunks_pruned = counter(
            "storage.chunks_pruned", "Storage chunks skipped by zone maps")
        self.breaker_partials = counter(
            "breaker.partial_entries",
            "Per-worker partial entries merged by pipeline breakers")
        self.breaker_merge_seconds = histogram(
            "breaker.merge_seconds", "Per-query breaker merge seconds")
        self.tier_switches = counter(
            "adaptive.tier_switches", "Adaptive tier-switch decisions")
        self._mode_counters: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    def next_query_id(self) -> str:
        return f"q{next(self._ids):08d}"

    def _mode_counter(self, mode: str):
        counter = self._mode_counters.get(mode)
        if counter is None:
            counter = self.registry.counter(
                f"query.by_mode.{mode}", f"Queries executed in mode {mode}")
            self._mode_counters[mode] = counter
        return counter

    # ------------------------------------------------------------------ #
    def record_failure(self, mode: str = "") -> None:
        self.failed.inc()

    def record_result(self, sql: str, result) -> None:
        """Record one finished execution and attach its query trace.

        ``result`` is a :class:`~repro.engine.QueryResult`.  If an
        executor already built a :class:`QueryTrace` (adaptive / static
        parallel runs), it is reused and completed; otherwise a fresh one
        with lifecycle spans only is attached.
        """
        timings = result.timings
        self.queries.inc()
        self._mode_counter(result.mode).inc()
        self.rows.inc(len(result.rows))
        if result.cached:
            self.cached.inc()
            if getattr(result, "cache_source", None) == "result":
                self.result_cached.inc()
        if result.early_terminated:
            self.early_terminated.inc()
        self.seconds.observe(timings.total)
        self.execution_seconds.observe(timings.execution)
        if timings.compile > 0.0:
            self.compile_seconds.observe(timings.compile)
        if timings.chunks_scanned:
            self.chunks_scanned.inc(timings.chunks_scanned)
        if timings.chunks_pruned:
            self.chunks_pruned.inc(timings.chunks_pruned)
        if timings.breaker_partials:
            self.breaker_partials.inc(timings.breaker_partials)
        if timings.breaker_merge > 0.0:
            self.breaker_merge_seconds.observe(timings.breaker_merge)

        trace = result.query_trace
        if trace is None:
            trace = QueryTrace(label=result.mode)
            result.query_trace = trace
        trace.query_id = self.next_query_id()
        trace.sql = sql
        trace.mode = result.mode
        if not trace.spans:
            trace.add_phase_spans(timings)
            trace.add_pipeline_spans(result.pipelines)
        if trace.tier_switches:
            self.tier_switches.inc(len(trace.tier_switches))
