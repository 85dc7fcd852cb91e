"""Unit tests for the telemetry subsystem.

Covers the sharded instruments (exactness under concurrency -- the
registry's whole design premise), the registry snapshot/export surfaces,
the unified trace model, EXPLAIN statement recognition, and the
end-to-end concurrency-correctness property: after N concurrent
submissions with interleaved cache invalidations, the registry snapshot
agrees with independently maintained ground truth.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import Database, ExecOptions, MetricsRegistry, SQLType
from repro.errors import ExecutionError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    QueryTrace,
    bucket_index,
    bucket_upper_bound,
    split_explain,
)
from repro.telemetry.export import prometheus_name


# --------------------------------------------------------------------------- #
# sharded instruments
# --------------------------------------------------------------------------- #
class TestInstruments:
    def test_counter_single_thread(self):
        counter = Counter("c")
        for _ in range(100):
            counter.inc()
        counter.inc(5)
        assert counter.value == 105

    def test_counter_exact_under_threads(self):
        counter = Counter("c")
        threads = 8
        increments = 5_000

        def worker():
            for _ in range(increments):
                counter.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # Sharded cells make this exact, not approximate: every thread has
        # its own cell, merged on read.
        assert counter.value == threads * increments

    def test_gauge_inc_dec(self):
        gauge = Gauge("g")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2

    def test_histogram_buckets(self):
        assert bucket_index(0.0) == 0
        # Bucket upper bounds are powers of two over the 1 us base.
        for index in range(1, 10):
            upper = bucket_upper_bound(index)
            assert bucket_index(upper * 0.99) == index
            assert bucket_index(upper * 1.01) == index + 1

    def test_histogram_observe_and_quantiles(self):
        histogram = Histogram("h")
        for value in (0.001, 0.001, 0.001, 0.1):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(0.103)
        # p50 lands in the bucket covering 1 ms; the quantile reports the
        # covering bucket's upper bound (a guaranteed overestimate).
        assert 0.001 <= snapshot["p50"] <= 0.002
        assert snapshot["p99"] >= 0.1 * 0.5

    def test_histogram_exact_count_under_threads(self):
        histogram = Histogram("h")
        threads = 6
        observations = 2_000

        def worker(seed):
            for i in range(observations):
                histogram.observe((seed + i) * 1e-6)

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert histogram.snapshot()["count"] == threads * observations


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        assert registry.counter("a.b") is counter
        with pytest.raises(TypeError):
            registry.gauge("a.b")

    def test_nested_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("query.count").inc(3)
        registry.gauge("pool.busy").inc()
        snapshot = registry.snapshot()
        assert snapshot["query"]["count"] == 3
        assert snapshot["pool"]["busy"] == 1

    def test_callbacks_are_snapshot_time_only(self):
        registry = MetricsRegistry()
        calls = []
        registry.register_callback("derived.value", lambda: calls.append(1) or 42)
        assert not calls
        assert registry.flat_snapshot()["derived.value"] == 42
        assert len(calls) == 1

    def test_failing_callback_reports_none(self):
        registry = MetricsRegistry()
        registry.register_callback("bad", lambda: 1 / 0)
        assert registry.flat_snapshot()["bad"] is None

    def test_json_lines_export(self):
        registry = MetricsRegistry()
        registry.counter("q.count").inc(2)
        registry.histogram("q.seconds").observe(0.5)
        lines = registry.to_json_lines().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        names = {entry["name"] for entry in parsed}
        assert {"q.count", "q.seconds"} <= names

    def test_prometheus_export(self):
        registry = MetricsRegistry()
        registry.counter("query.count", "Total queries").inc(7)
        registry.histogram("query.seconds").observe(0.01)
        text = registry.to_prometheus()
        assert "repro_query_count 7" in text
        assert "# TYPE repro_query_count counter" in text
        assert 'repro_query_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_query_seconds_count 1" in text

    def test_prometheus_name_sanitization(self):
        assert prometheus_name("a.b-c") == "repro_a_b_c"


# --------------------------------------------------------------------------- #
# trace model + EXPLAIN lexing
# --------------------------------------------------------------------------- #
class TestTraceModel:
    def test_spans_and_switches_roundtrip(self):
        trace = QueryTrace(query_id="q1", sql="select 1", mode="adaptive")
        trace.add_span("parse", 0.0, 0.001)
        trace.record_tier_switch("P1", "bytecode", "optimized", at=0.01,
                                 synchronous=False,
                                 trigger={"decision": "optimized"})
        data = trace.to_dict()
        assert data["query_id"] == "q1"
        assert data["spans"][0]["name"] == "parse"
        assert data["tier_switches"][0]["trigger"]["decision"] == "optimized"
        json.loads(trace.to_json())

    def test_split_explain(self):
        assert split_explain("select 1") == (None, "select 1")
        kind, inner = split_explain("EXPLAIN select 1")
        assert (kind, inner) == ("plan", "select 1")
        kind, inner = split_explain("  explain  analyze\n select 1")
        assert kind == "analyze"
        assert inner.strip() == "select 1"

    def test_split_explain_skips_comments(self):
        assert split_explain("-- note\nEXPLAIN select 1") == \
            ("plan", "select 1")
        assert split_explain("/* c */ explain /* d */ analyze\nselect 1") \
            == ("analyze", "select 1")
        assert split_explain("explainer select 1") == \
            (None, "explainer select 1")
        # Text the lexer rejects is no EXPLAIN: the parser reports it.
        assert split_explain("/* open explain") == (None, "/* open explain")

    def test_explain_after_a_comment_executes(self):
        db = _sample_db()
        try:
            plan = db.execute("-- note\nEXPLAIN select a from t")
            assert plan.column_names == ["plan"]
            assert plan.explain.result is None
            analyzed = db.execute(
                "/* c */ explain analyze select count(*) as c from t")
            assert analyzed.explain.result.rows == [(500,)]
        finally:
            db.close()


# --------------------------------------------------------------------------- #
# database wiring
# --------------------------------------------------------------------------- #
def _sample_db() -> Database:
    db = Database(workers=2)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.INT64)])
    db.insert("t", [(i, i * 2) for i in range(500)])
    return db


class TestDatabaseTelemetry:
    def test_levels_validated(self):
        db = _sample_db()
        try:
            with pytest.raises(ExecutionError):
                db.execute("select a from t",
                           options=ExecOptions(telemetry="verbose"))
        finally:
            db.close()

    def test_off_records_nothing(self):
        db = _sample_db()
        try:
            result = db.execute("select sum(b) as s from t",
                                options=ExecOptions(telemetry="off"))
            assert result.rows == [(sum(i * 2 for i in range(500)),)]
            assert db.metrics.get("query.count").value == 0
            assert result.query_trace is None
        finally:
            db.close()

    def test_basic_records_counters_and_trace(self):
        db = _sample_db()
        try:
            result = db.execute("select sum(b) as s from t")
            assert db.metrics.get("query.count").value == 1
            assert db.metrics.get("query.by_mode.adaptive").value == 1
            assert db.metrics.get("query.rows").value == 1
            trace = result.query_trace
            assert trace is not None
            assert trace.query_id
            assert trace.mode == "adaptive"
            assert any(span.kind == "pipeline" for span in trace.spans)
        finally:
            db.close()

    def test_trace_level_implies_morsel_events(self):
        db = _sample_db()
        try:
            # Level "trace" bypasses the result cache: a repeated statement
            # still executes, so every trace carries its morsel events.
            for _ in range(2):
                result = db.execute("select sum(b) as s from t",
                                    options=ExecOptions(telemetry="trace"))
                assert result.cache_source != "result"
                assert any(event.kind == "morsel"
                           for event in result.query_trace.events)
            # Baselines have no morsel timeline; the level degrades to the
            # lifecycle spans without erroring.
            baseline = db.execute("select sum(b) as s from t",
                                  options=ExecOptions(mode="volcano",
                                                      telemetry="trace"))
            assert baseline.query_trace is not None
            assert not baseline.query_trace.events
        finally:
            db.close()

    def test_vm_instruction_accounting(self):
        db = _sample_db()
        try:
            db.execute("select sum(b) as s from t",
                       options=ExecOptions(mode="bytecode"))
            assert db.vm_instructions > 0
            assert db.metrics.flat_snapshot()["vm.instructions"] == \
                db.vm_instructions
        finally:
            db.close()

    def test_query_ids_are_unique(self):
        db = _sample_db()
        try:
            ids = {db.execute("select a from t where a < 3").query_id
                   for _ in range(5)}
            assert len(ids) == 5
        finally:
            db.close()


class TestConcurrencyCorrectness:
    def test_snapshot_matches_ground_truth_under_concurrency(self):
        """N concurrent submits + interleaved invalidations: exact counters.

        Ground truth is maintained independently (count of successful
        results per mode); the registry must agree exactly once all tickets
        resolve -- sharded cells lose nothing under thread interleaving.
        """
        db = Database(workers=4)
        db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.INT64)])
        db.insert("t", [(i, i) for i in range(200)])
        try:
            modes = ["adaptive", "bytecode", "optimized", "volcano"]
            submissions = 48
            tickets = []
            for index in range(submissions):
                tickets.append(db.submit(
                    "select sum(b) as s from t where a >= 1",
                    options=ExecOptions(mode=modes[index % len(modes)])))
                if index % 8 == 3:
                    # Interleaved invalidation traffic: inserts bump table
                    # versions, invalidating cached plans mid-stream.
                    db.insert("t", [(1000 + index, index)])
            results = [ticket.result(timeout=120) for ticket in tickets]

            expected_rows = sum(len(r.rows) for r in results)
            flat = db.metrics.flat_snapshot()
            assert flat["query.count"] == submissions
            assert flat["query.failed"] == 0
            assert flat["query.rows"] == expected_rows
            for mode in modes:
                expected = sum(1 for i in range(submissions)
                               if modes[i % len(modes)] == mode)
                assert flat[f"query.by_mode.{mode}"] == expected
            # Derived callbacks agree with their synchronized sources.
            stats = db.scheduler.stats
            assert flat["scheduler.submitted"] == stats.submitted
            assert flat["scheduler.completed"] == stats.completed
            assert flat["plan_cache.invalidations"] == \
                db.plan_cache.stats.invalidations
            assert flat["scheduler.queue_seconds"]["count"] == submissions
        finally:
            db.close()

    def test_ticket_and_session_carry_their_options(self):
        opts = ExecOptions(telemetry="off")
        db = _sample_db()
        try:
            ticket = db.submit("select count(*) from t", options=opts)
            assert ticket.options is opts
            assert ticket.result(timeout=30).query_trace is None
            assert db.session(options=opts).options.telemetry == "off"
        finally:
            db.close()
