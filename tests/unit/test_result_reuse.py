"""Semantic result cache + execute_many batch bindings.

Covers the key structure (type qualification, ``LIMIT ?`` participation),
catalog-version invalidation, admission bounds, the ``use_result_cache``
escape hatch, fused batch execution with intra-batch deduplication, the
scheduler/session batch paths, and the telemetry surface.
"""

from __future__ import annotations

import pytest

from repro import (Database, ExecOptions, ResultCache, SQLType,
                   result_cache_key)
from repro.errors import ExecutionError
from repro.result_cache import CachedResult


def _db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.FLOAT64)])
    db.insert("t", [(i, float(i) * 1.5) for i in range(50)])
    return db


# --------------------------------------------------------------------------- #
# the key constructor
# --------------------------------------------------------------------------- #
class TestResultCacheKey:
    def test_type_qualification_separates_equal_hashing_values(self):
        plan = "select * from t where a = ?"
        assert result_cache_key(plan, "adaptive", (2,)) \
            != result_cache_key(plan, "adaptive", (2.0,))
        assert result_cache_key(plan, "adaptive", (1,)) \
            != result_cache_key(plan, "adaptive", (True,))

    def test_mode_and_plan_key_participate(self):
        assert result_cache_key("k", "adaptive", (1,)) \
            != result_cache_key("k", "volcano", (1,))
        assert result_cache_key("k1", "adaptive", (1,)) \
            != result_cache_key("k2", "adaptive", (1,))


# --------------------------------------------------------------------------- #
# the cache data structure
# --------------------------------------------------------------------------- #
def _entry(rows, versions) -> CachedResult:
    nbytes = 56 * len(rows) + 32 * sum(len(r) for r in rows)
    return CachedResult(column_names=["x"], column_types=[SQLType.INT64],
                        rows=rows, mode="adaptive",
                        table_versions=versions, nbytes=nbytes)


class TestResultCacheStructure:
    def test_lru_eviction_at_capacity(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            key = result_cache_key("q", "adaptive", (i,))
            cache.put(key, {"t": 1}, _entry([(i,)], {"t": 1}).to_result())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        oldest = result_cache_key("q", "adaptive", (0,))
        assert cache.get(oldest, lambda name: 1) is None

    def test_row_admission_bound_rejects(self):
        cache = ResultCache(capacity=8, max_entry_rows=2)
        key = result_cache_key("q", "adaptive", ())
        big = _entry([(i,) for i in range(5)], {"t": 1}).to_result()
        assert cache.put(key, {"t": 1}, big) is False
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_version_mismatch_invalidates(self):
        cache = ResultCache(capacity=8)
        key = result_cache_key("q", "adaptive", ())
        cache.put(key, {"t": 3}, _entry([(1,)], {"t": 3}).to_result())
        assert cache.get(key, lambda name: 3) is not None
        assert cache.get(key, lambda name: 4) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        assert not cache.enabled
        key = result_cache_key("q", "adaptive", ())
        assert cache.put(key, {}, _entry([(1,)], {}).to_result()) is False


# --------------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------------- #
class TestResultReuse:
    def test_repeat_read_served_from_result_cache(self):
        db = _db()
        sql = "select sum(b) as s from t where a >= ?"
        first = db.execute(sql, params=(10,))
        second = db.execute(sql, params=(10,))
        assert second.rows == first.rows
        assert second.cache_source == "result"
        assert second.timings.execution == 0.0
        assert db.result_cache.stats.hits == 1

    def test_keys_are_built_on_encoded_bindings(self):
        db = _db()
        sql = "select count(*) as n from t where a = ?"
        as_int = db.execute(sql, params=(2,))
        as_float = db.execute(sql, params=(2.0,))
        # Binding 2.0 to an INT64 slot encodes losslessly to 2, so the two
        # calls are the *same* execution and sharing the result is sound.
        # (The unsound collision -- literal 2 vs 2.0, where the plans
        # really differ -- is covered by the test below.)
        assert as_float.cache_source == "result"
        assert as_int.rows == as_float.rows == [(1,)]

    def test_literal_int_and_float_do_not_collide(self):
        db = _db()
        with_int = db.execute("select count(*) as n from t where a >= 2")
        with_float = db.execute("select count(*) as n from t where a >= 2.0")
        assert with_float.cache_source != "result"
        assert with_int.rows == with_float.rows

    def test_limit_parameter_participates_in_key(self):
        db = _db()
        sql = "select a from t order by a limit ?"
        five = db.execute(sql, params=(5,))
        seven = db.execute(sql, params=(7,))
        assert len(five.rows) == 5
        assert len(seven.rows) == 7
        assert seven.cache_source != "result"
        again = db.execute(sql, params=(5,))
        assert again.cache_source == "result"
        assert again.rows == five.rows

    def test_insert_invalidates(self):
        db = _db()
        sql = "select count(*) as n from t"
        assert db.execute(sql).rows == [(50,)]
        db.insert("t", [(100, 1.0)])
        fresh = db.execute(sql)
        assert fresh.rows == [(51,)]
        assert fresh.cache_source != "result"
        assert db.result_cache.stats.invalidations == 1

    def test_drop_and_recreate_does_not_serve_stale(self):
        db = _db()
        sql = "select count(*) as n from t where a >= ?"
        assert db.execute(sql, params=(0,)).rows == [(50,)]
        db.drop_table("t")
        db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.FLOAT64)])
        db.insert("t", [(1, 1.0)])
        assert db.execute(sql, params=(0,)).rows == [(1,)]

    def test_use_result_cache_false_escape_hatch(self):
        db = _db()
        sql = "select sum(b) as s from t"
        db.execute(sql)
        repeat = db.execute(sql, options=ExecOptions(use_result_cache=False))
        assert repeat.cache_source != "result"
        assert db.result_cache.stats.hits == 0

    def test_result_cache_size_zero_disables(self):
        db = _db(result_cache_size=0)
        sql = "select sum(b) as s from t"
        db.execute(sql)
        assert db.execute(sql).cache_source != "result"

    def test_cached_rows_are_isolated_copies(self):
        db = _db()
        sql = "select a from t where a < ?"
        first = db.execute(sql, params=(3,))
        first.rows.append(("corrupted",))
        second = db.execute(sql, params=(3,))
        assert second.cache_source == "result"
        assert second.rows == [(0,), (1,), (2,)]

    def test_baseline_modes_also_reuse(self):
        for mode in ("volcano", "vectorized"):
            db = _db()
            sql = "select count(*) as n from t where a < 10"
            db.execute(sql, options=ExecOptions(mode=mode))
            repeat = db.execute(sql, options=ExecOptions(mode=mode))
            assert repeat.cache_source == "result", mode
            assert repeat.rows == [(10,)]

    def test_explain_analyze_always_executes(self):
        db = _db()
        sql = "select sum(b) as s from t where a >= 5"
        db.execute(sql)
        analyzed = db.execute(f"explain analyze {sql}")
        inner = analyzed.explain.result
        assert inner.cache_source != "result"
        assert any(p.rows_in is not None for p in analyzed.explain.pipelines)

    def test_cached_result_probe(self):
        db = _db()
        sql = "select sum(b) as s from t where a >= ?"
        assert db.cached_result(sql, params=(10,)) is None
        executed = db.execute(sql, params=(10,))
        probed = db.cached_result(sql, params=(10,))
        assert probed is not None
        assert probed.rows == executed.rows
        assert probed.cache_source == "result"
        assert db.cached_result(sql, params=(11,)) is None


# --------------------------------------------------------------------------- #
# execute_many
# --------------------------------------------------------------------------- #
class TestExecuteMany:
    BINDINGS = [(1,), (2,), (1,), (3,), (2,)]

    def test_matches_per_binding_execute(self, simple_db):
        sql = "select sum(price) as s from items where category = ?"
        expected = [simple_db.execute(
            sql, params=b, options=ExecOptions(use_result_cache=False)).rows
                    for b in self.BINDINGS]
        simple_db.result_cache.clear()
        results = simple_db.execute_many(sql, self.BINDINGS)
        assert [r.rows for r in results] == expected

    def test_duplicate_bindings_fuse_within_batch(self):
        db = _db()
        sql = "select b from t where a = ?"
        results = db.execute_many(sql, self.BINDINGS)
        sources = [r.cache_source for r in results]
        # (1,) and (2,) execute once each; their repeats share the result.
        assert sources[2] == "result"
        assert sources[4] == "result"
        assert sources[0] is None

    def test_second_batch_is_fully_cached(self):
        db = _db()
        sql = "select b from t where a = ?"
        db.execute_many(sql, self.BINDINGS)
        repeat = db.execute_many(sql, self.BINDINGS)
        assert all(r.cache_source == "result" for r in repeat)

    def test_escape_hatch_disables_batch_dedup(self):
        db = _db()
        sql = "select b from t where a = ?"
        results = db.execute_many(sql, self.BINDINGS,
                                  options=ExecOptions(
                                      use_result_cache=False))
        assert all(r.cache_source != "result" for r in results)

    def test_all_modes_agree(self, simple_db):
        from repro.engine import BASELINE_MODES, ENGINE_MODES
        sql = "select count(*) as n from items where category = ?"
        bindings = [(0,), (1,), (0,)]
        reference = None
        for mode in ENGINE_MODES + BASELINE_MODES:
            simple_db.result_cache.clear()
            rows = [r.rows for r in simple_db.execute_many(
                sql, bindings, options=ExecOptions(mode=mode))]
            if reference is None:
                reference = rows
            assert rows == reference, mode

    def test_empty_bindings(self):
        db = _db()
        assert db.execute_many("select a from t", []) == []

    def test_explain_is_rejected(self):
        db = _db()
        with pytest.raises(ExecutionError):
            db.execute_many("explain select a from t", [()])

    def test_bad_binding_fails_before_any_execution(self):
        db = _db()
        sql = "select b from t where a = ?"
        with pytest.raises(Exception):
            db.execute_many(sql, [(1,), ("not", "arity")])
        # Nothing from the failed batch may have been admitted.
        assert db.cached_result(sql, params=(1,)) is None

    def test_prepared_query_execute_many(self):
        db = _db()
        prepared = db.prepare_query("select b from t where a = ?")
        results = prepared.execute_many([(4,), (5,), (4,)])
        assert [r.rows for r in results] == [[(6.0,)], [(7.5,)], [(6.0,)]]
        assert results[2].cache_source == "result"


# --------------------------------------------------------------------------- #
# scheduler / session batch paths
# --------------------------------------------------------------------------- #
class TestSingleIsAOneBindingBatch:
    """``execute(sql, params=p)`` is ``execute_many(sql, [p])[0]``: same
    rows, same ``cached`` / ``cache_source``, and the same number of
    plan-cache and result-cache probes, from the same state."""

    MODES = ("ir-interp", "bytecode", "unoptimized", "optimized",
             "adaptive", "volcano", "vectorized")
    STATEMENTS = [("select count(*) as n, sum(b) as s from t where a < ?",
                   (17,)),
                  ("select a from t where a < 4 order by a desc", None)]

    @staticmethod
    def _observe(db, call):
        def counters():
            plan, result = db.plan_cache.stats, db.result_cache.stats
            return (plan.hits, plan.misses, result.hits, result.misses)

        before = counters()
        result = call()
        probes = tuple(b - a for a, b in zip(before, counters()))
        return result.rows, result.cached, result.cache_source, probes

    def _both(self, step, sql, params, options):
        """Run ``step(db, call)`` against two identical fresh databases,
        once through ``execute`` and once through ``execute_many``."""
        single_db, batch_db = _db(), _db()
        try:
            single = step(single_db, lambda: single_db.execute(
                sql, params=params, options=options))
            batch = step(batch_db, lambda: batch_db.execute_many(
                sql, [params], options=options)[0])
        finally:
            single_db.close()
            batch_db.close()
        assert single == batch, (options.mode, sql)
        return single

    @pytest.mark.parametrize("mode", MODES)
    def test_cold_then_hot(self, mode):
        def step(db, call):
            return [self._observe(db, call) for _ in range(3)]

        for sql, params in self.STATEMENTS:
            cold, hot, hotter = self._both(step, sql, params,
                                           ExecOptions(mode=mode))
            assert not cold[1] and cold[2] is None
            assert hot[1] and hot[2] == "result" and hot == hotter
            assert hot[0] == cold[0]
            plan_hit = self._both(step, sql, params, ExecOptions(
                mode=mode, use_result_cache=False))
            assert [o[3][2:] for o in plan_hit] == [(0, 0)] * 3
            if mode not in ("volcano", "vectorized"):
                assert [o[2] for o in plan_hit] == [None, "plan", "plan"]
            bypass = self._both(step, sql, params, ExecOptions(
                mode=mode, use_cache=False))
            assert [o[1:] for o in bypass] == [(False, None, (0,) * 4)] * 3

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("use_result_cache", [True, False])
    def test_busy_entry(self, mode, use_result_cache):
        """With the cached entry held by another thread, both entry points
        serve a hot read from the result cache, and otherwise pay the same
        independent cold build."""
        import threading

        options = ExecOptions(mode=mode, use_result_cache=use_result_cache)

        def step(db, call):
            warm = self._observe(db, call)
            entries = [db.plan_cache.peek(key)
                       for key in db.plan_cache.keys()]
            entered, release = threading.Event(), threading.Event()

            def hold():
                for prepared in entries:
                    prepared._lock.acquire()
                entered.set()
                release.wait(timeout=30)
                for prepared in entries:
                    prepared._lock.release()

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert entered.wait(timeout=30)
                busy = self._observe(db, call)
            finally:
                release.set()
                holder.join(timeout=30)
            assert not holder.is_alive()
            return warm, busy

        for sql, params in self.STATEMENTS:
            warm, busy = self._both(step, sql, params, options)
            assert busy[0] == warm[0]
            if use_result_cache:
                assert busy[2] == "result"
            elif mode not in ("volcano", "vectorized"):
                assert not busy[1]        # an independent cold build


class TestScheduledBatches:
    def test_submit_many_resolves_to_ordered_list(self):
        db = _db()
        ticket = db.submit_many("select b from t where a = ?",
                                [(1,), (2,), (1,)])
        results = ticket.result(timeout=30)
        assert [r.rows for r in results] == [[(1.5,)], [(3.0,)], [(1.5,)]]
        db.close()

    def test_session_execute_many_counts_per_binding(self):
        db = _db()
        with db.session(name="batcher") as session:
            results = session.execute_many("select b from t where a = ?",
                                           [(1,), (2,), (3,)])
            assert len(results) == 3
            stats = session.stats
            assert stats.submitted == 3
            assert stats.completed == 3
        db.close()

    def test_session_submit_many(self):
        db = _db()
        with db.session(name="batcher") as session:
            ticket = session.submit_many("select b from t where a = ?",
                                         [(1,), (2,)])
            results = ticket.result(timeout=30)
            assert len(results) == 2
            assert session.stats.submitted == 2
        db.close()


# --------------------------------------------------------------------------- #
# telemetry surface
# --------------------------------------------------------------------------- #
class TestResultCacheTelemetry:
    def test_metrics_registry_exports_result_cache(self):
        db = _db()
        sql = "select sum(b) as s from t"
        db.execute(sql)
        db.execute(sql)
        text = db.metrics.to_prometheus()
        assert "result_cache" in text
        flat = db.metrics.flat_snapshot()
        assert flat["result_cache.hits"] == 1
        assert flat["result_cache.misses"] == 1
        assert flat["result_cache.entries"] == 1
        assert flat["result_cache.bytes"] > 0
        assert flat["result_cache.hit_rate"] == 0.5

    def test_fused_bindings_histogram(self):
        db = _db()
        db.execute_many("select b from t where a = ?", [(1,), (2,), (3,)])
        histogram = db.metrics.get("execute_many.fused_bindings")
        assert histogram is not None
        assert histogram.count == 1
        assert histogram.sum == 3

    def test_query_result_cached_counter(self):
        db = _db()
        sql = "select sum(b) as s from t"
        db.execute(sql)
        db.execute(sql)
        counter = db.metrics.get("query.result_cached")
        assert counter is not None and counter.value == 1

    def test_explain_analyze_header_distinguishes_caches(self):
        db = _db()
        sql = "select sum(b) as s from t where a >= 5"
        db.execute(sql)
        analyzed = db.execute(f"explain analyze {sql}")
        header = analyzed.explain.render().splitlines()[0]
        # EXPLAIN ANALYZE re-executes (never served from the result cache),
        # but the reused plan must be visible in the header.
        assert "cached=plan-cache" in header
