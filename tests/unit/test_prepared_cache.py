"""Tests for the prepared-query subsystem and the plan/artifact cache."""

import threading

import pytest

from repro import Database, ExecOptions, PlanCache, SQLType, normalize_sql
from repro.adaptive import Decision
from repro.adaptive.policy import PolicyEvaluation
from repro.backend.cost_model import CostModel, TierEstimate
from repro.errors import ExecutionError

ENGINE_MODES = ["ir-interp", "bytecode", "unoptimized", "optimized",
                "adaptive"]


@pytest.fixture()
def db():
    db = Database(morsel_size=256)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.FLOAT64)])
    db.create_table("u", [("x", SQLType.INT64)])
    db.insert("t", [(i % 13, float(i)) for i in range(5000)])
    db.insert("u", [(i,) for i in range(100)])
    return db


SQL = "select a, sum(b) as s, count(*) as c from t group by a order by a"


class TestNormalizeSQL:
    def test_whitespace_and_case_insensitive(self):
        assert normalize_sql("SELECT  a\n FROM   t") == \
            normalize_sql("select a from t")

    def test_string_literals_preserved(self):
        normalized = normalize_sql("SELECT a FROM t WHERE s = 'Ab  C'")
        assert normalized == "select a from t where s = 'Ab  C'"

    def test_escaped_quote_in_literal(self):
        normalized = normalize_sql("select 'it''s  A' from T")
        assert normalized == "select 'it''s  A' from t"

    def test_different_literals_do_not_collide(self):
        assert normalize_sql("select 'A' from t") != \
            normalize_sql("select 'a' from t")

    def test_comments_stripped_like_the_lexer(self):
        assert normalize_sql("select a from t -- trailing") == \
            normalize_sql("select a from t")
        assert normalize_sql("select a /* block */ from t") == \
            normalize_sql("select a from t")

    def test_line_comment_does_not_swallow_next_line(self):
        # Collapsing the newline before stripping comments would make these
        # two semantically different queries collide on one cache key.
        multiline = normalize_sql("SELECT a\n-- note\nFROM t")
        single_line = normalize_sql("SELECT a -- note FROM t")
        assert multiline == "select a from t"
        assert single_line == "select a"
        assert multiline != single_line

    def test_unterminated_block_comment_never_hits_cache(self, db):
        db.execute("select a from t", options=ExecOptions(mode="bytecode"))
        # Lexically invalid: must raise even with the valid form cached.
        with pytest.raises(Exception):
            db.execute("select a from t /* unterminated",
                       options=ExecOptions(mode="bytecode"))

    def test_comment_collision_does_not_serve_wrong_plan(self, db):
        db.execute("select a\n-- note\nfrom t",
                   options=ExecOptions(mode="bytecode"))
        # Same text on one line is a *different* query (the comment swallows
        # FROM); it must not be served from the cache but fail on its own.
        with pytest.raises(Exception):
            db.execute("select a -- note from t",
                       options=ExecOptions(mode="bytecode"))


class TestPlanCache:
    class _Entry:
        def __init__(self, valid=True):
            self.valid = valid

        def is_valid(self):
            return self.valid

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        a, b, c = self._Entry(), self._Entry(), self._Entry()
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refreshes "a"
        cache.put("c", c)           # evicts "b", the LRU tail
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c
        assert cache.stats.evictions == 1

    def test_invalid_entries_dropped_on_lookup(self):
        cache = PlanCache(capacity=4)
        entry = self._Entry()
        cache.put("k", entry)
        entry.valid = False
        assert cache.get("k") is None
        assert "k" not in cache
        assert cache.stats.invalidations == 1

    def test_zero_capacity_disables(self):
        cache = PlanCache(capacity=0)
        cache.put("k", self._Entry())
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)


class TestTransparentCache:
    def test_hit_skips_frontend_phases(self, db):
        # use_result_cache=False: this test measures the *plan* cache (the
        # repeat must re-execute, just without the front-end phases).
        first = db.execute(SQL,
                           options=ExecOptions(mode="optimized",
                                               use_result_cache=False))
        second = db.execute(SQL,
                            options=ExecOptions(mode="optimized",
                                                use_result_cache=False))
        assert not first.cached and second.cached
        assert first.timings.parse > 0 and first.timings.compile > 0
        assert second.timings.parse == 0
        assert second.timings.bind == 0
        assert second.timings.plan == 0
        assert second.timings.codegen == 0
        assert second.timings.compile == 0  # tier reused as well
        assert second.timings.execution > 0
        assert second.rows == first.rows

    def test_cache_shared_across_modes(self, db):
        db.execute(SQL, options=ExecOptions(mode="optimized"))
        result = db.execute(SQL, options=ExecOptions(mode="bytecode"))
        assert result.cached  # same plan entry, different tier
        assert result.timings.compile > 0  # bytecode tier not built yet
        again = db.execute(SQL, options=ExecOptions(mode="bytecode"))
        assert again.timings.compile == 0

    def test_normalized_key_matches_reformatted_sql(self, db):
        db.execute(SQL, options=ExecOptions(mode="bytecode"))
        reformatted = ("SELECT  a, SUM(b) AS s, COUNT(*) AS c\n"
                       "FROM t GROUP BY a ORDER BY a")
        assert db.execute(reformatted,
                          options=ExecOptions(mode="bytecode")).cached

    def test_insert_into_referenced_table_invalidates(self, db):
        # ``SQL`` has no predicate or join, so planning never computed
        # statistics for ``t``: measured from the empty table, it has grown
        # by more than a tenth, so this insert refreshes its statistics and
        # bumps its plan version.
        first = db.execute(SQL, options=ExecOptions(mode="optimized"))
        db.insert("t", [(1, 1000.0)])
        rebuilt = db.execute(SQL, options=ExecOptions(mode="optimized"))
        assert not rebuilt.cached
        assert rebuilt.timings.parse > 0
        assert rebuilt.rows != first.rows  # sees the new row
        assert db.plan_cache.stats.invalidations == 1

    def test_small_insert_into_referenced_table_keeps_entry(self, db):
        # The twin below the threshold: with statistics computed at 5000
        # rows, one more row is far less than a tenth, so the plan and its
        # compiled tier survive and read the new row.
        first = db.execute(SQL, options=ExecOptions(mode="optimized"))
        db.catalog.statistics("t")
        db.insert("t", [(1, 1000.0)])
        kept = db.execute(SQL, options=ExecOptions(mode="optimized"))
        assert kept.cached
        assert kept.timings.parse == 0 and kept.timings.compile == 0
        assert kept.rows != first.rows  # sees the new row
        assert db.plan_cache.stats.invalidations == 0

    def test_unrelated_insert_keeps_entry(self, db):
        db.execute(SQL, options=ExecOptions(mode="optimized"))
        db.insert("u", [(999,)])
        assert db.execute(SQL, options=ExecOptions(mode="optimized")).cached

    def test_use_cache_false_bypasses(self, db):
        db.execute(SQL, options=ExecOptions(mode="optimized"))
        cold = db.execute(SQL,
                          options=ExecOptions(mode="optimized",
                                              use_cache=False))
        assert not cold.cached
        assert cold.timings.parse > 0 and cold.timings.compile > 0

    def test_disabled_cache(self):
        db = Database(plan_cache_size=0, result_cache_size=0)
        db.create_table("t", [("a", SQLType.INT64)])
        db.insert("t", [(i,) for i in range(10)])
        sql = "select sum(a) as s from t"
        assert not db.execute(sql).cached
        assert not db.execute(sql).cached

    def test_stats_counters(self, db):
        db.execute(SQL, options=ExecOptions(mode="optimized"))   # miss
        db.execute(SQL, options=ExecOptions(mode="adaptive"))    # hit
        db.execute(SQL, options=ExecOptions(mode="bytecode"))    # hit
        stats = db.plan_cache.stats
        assert stats.misses == 1 and stats.hits == 2
        assert stats.hit_rate == pytest.approx(2 / 3)


class TestCachedMatchesUncached:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_identical_results(self, db, mode):
        uncached = db.execute(SQL,
                              options=ExecOptions(mode=mode, use_cache=False))
        build = db.execute(SQL, options=ExecOptions(mode=mode))
        hit = db.execute(SQL, options=ExecOptions(mode=mode))
        assert build.rows == uncached.rows
        assert hit.rows == uncached.rows
        assert hit.column_names == uncached.column_names
        assert hit.column_types == uncached.column_types

    def test_threaded_cached_execution(self, db):
        """The second ``threads=4`` run re-executes the cached plan, not a
        cached result, so its breakers fill per-slot partials over several
        partitions and merge them."""
        reference = db.execute(SQL,
                               options=ExecOptions(mode="optimized",
                                                   use_cache=False)).rows
        for mode in ("bytecode", "optimized", "adaptive"):
            options = ExecOptions(mode=mode, threads=4,
                                  use_result_cache=False)
            assert db.execute(SQL, options=options).rows == reference
            again = db.execute(SQL, options=options)
            assert again.cache_source == "plan"
            assert again.rows == reference
            assert again.pipelines[0].breaker_partitions == 4

    def test_cached_results_do_not_alias_state(self, db):
        # A result without DISTINCT/ORDER BY/LIMIT must not alias the
        # output-row list that the next execution resets in place.
        sql = "select a, b from t where a = 3"
        first = db.execute(sql, options=ExecOptions(mode="bytecode"))
        snapshot = list(first.rows)
        db.execute(sql, options=ExecOptions(mode="bytecode"))
        assert first.rows == snapshot


class TestPreparedQuery:
    def test_prepare_then_execute(self, db):
        prepared = db.prepare_query(SQL)
        assert prepared.referenced_tables == {"t"}
        first = prepared.execute(options=ExecOptions(mode="optimized"))
        second = prepared.execute(options=ExecOptions(mode="optimized"))
        assert not first.cached and second.cached
        assert second.timings.parse == 0 and second.timings.compile == 0
        assert first.rows == second.rows
        assert prepared.executions == 2

    def test_prepare_query_returns_cached_entry(self, db):
        assert db.prepare_query(SQL) is db.prepare_query(SQL)

    def test_rejects_baseline_modes(self, db):
        prepared = db.prepare_query(SQL)
        with pytest.raises(ExecutionError):
            prepared.execute(options=ExecOptions(mode="volcano"))

    def test_held_reference_reprepares_after_insert(self, db):
        prepared = db.prepare_query(SQL)
        before = prepared.execute(options=ExecOptions(mode="bytecode"))
        db.insert("t", [(1, 1000.0)])
        assert not prepared.is_valid()
        after = prepared.execute(options=ExecOptions(mode="bytecode"))
        assert not after.cached       # transparently re-prepared
        assert after.rows != before.rows
        assert prepared.is_valid()

    def test_adaptive_reuses_compiled_tier(self, db):
        # A cost model with free compilation and large speedups makes the
        # Fig. 7 policy switch deterministically on the first run.
        model = CostModel(estimates={
            "bytecode": TierEstimate(0.0, 0.0, 1.0),
            "unoptimized": TierEstimate(0.0, 0.0, 4.0),
            "optimized": TierEstimate(0.0, 0.0, 8.0),
        })
        prepared = db.prepare_query(SQL)
        first = prepared.execute(options=ExecOptions(mode="adaptive"),
                                 cost_model=model)
        switched = [p for p in first.pipelines if len(p.mode_history) > 1]
        assert switched, "expected at least one pipeline to switch tiers"
        second = prepared.execute(cost_model=model,
                                  options=ExecOptions(
                                      mode="adaptive",
                                      use_result_cache=False))
        assert second.timings.compile == 0.0  # tiers and bytecode reused
        reused = [p for p in second.pipelines
                  if p.mode_history[0] != "bytecode"]
        assert reused, "expected a pipeline to start in a compiled tier"
        assert second.rows == first.rows

    def test_nonblocking_execute_does_not_block_on_busy_entry(self, db):
        prepared = db.prepare_query(SQL)
        prepared.execute(options=ExecOptions(mode="bytecode"))
        entered = threading.Event()
        release = threading.Event()

        def hold_lock():
            with prepared._lock:
                entered.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        try:
            assert entered.wait(timeout=5)
            assert prepared.execute(options=ExecOptions(mode="bytecode"),
                                    block=False) is None
            assert prepared.execute_many(
                [None, None], options=ExecOptions(mode="bytecode"),
                block=False) is None
            # Database.execute must fall back to a cold build, not block
            # (use_result_cache=False: with the cache on, a busy entry is
            # instead served from the cached result -- tested separately).
            result = db.execute(SQL,
                                options=ExecOptions(mode="bytecode",
                                                    use_result_cache=False))
            assert not result.cached
        finally:
            release.set()
            holder.join()
        # With the entry free again, the non-blocking entry succeeds.
        assert prepared.execute(options=ExecOptions(mode="bytecode"),
                                block=False) is not None

    def test_profile_query_measures_cold_phases(self, db):
        from repro.adaptive.simulation import profile_query

        db.execute(
            SQL, options=ExecOptions(mode="optimized"))  # warm the plan cache
        profile = profile_query(db, SQL)
        assert profile.planning_seconds > 0
        assert profile.codegen_seconds > 0
        assert all(p.compile_seconds["optimized"] > 0
                   for p in profile.pipelines)

    def test_concurrent_executions_are_safe(self, db):
        prepared = db.prepare_query(SQL)
        reference = prepared.execute(
            options=ExecOptions(mode="optimized")).rows
        results = []
        errors = []

        def run():
            try:
                for _ in range(3):
                    results.append(prepared.execute(
                        options=ExecOptions(mode="optimized")).rows)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=run) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert len(results) == 12
        assert all(rows == reference for rows in results)


def _eager_switch_model():
    """Free compilation and large speedups: the Fig. 7 policy switches
    deterministically on the first run."""
    return CostModel(estimates={
        "bytecode": TierEstimate(0.0, 0.0, 1.0),
        "unoptimized": TierEstimate(0.0, 0.0, 4.0),
        "optimized": TierEstimate(0.0, 0.0, 8.0),
    })


class _NeverSwitch:
    """A policy stub that always decides to keep the current tier."""

    def evaluate(self, progress, current, instruction_count, active_workers,
                 elapsed_seconds):
        return PolicyEvaluation(Decision.DO_NOTHING, 0.0, None, None, 0.0)


class TestHandlesPerMode:
    """One prepared entry keeps one function handle per (pipeline, mode)."""

    def test_each_mode_builds_its_own_start_tier(self, db):
        prepared = db.prepare_query(SQL)
        fresh = ExecOptions(mode="optimized", use_result_cache=False)
        optimized = prepared.execute(options=fresh)
        assert optimized.timings.compile > 0
        adaptive = prepared.execute(
            options=ExecOptions(mode="adaptive", use_result_cache=False),
            policy=_NeverSwitch())
        # The optimized tier belongs to the static mode's handles: the
        # adaptive run still starts in (and translates) bytecode.
        assert adaptive.timings.compile > 0
        assert all(p.mode_history == ["bytecode"]
                   for p in adaptive.pipelines)
        bytecode_opts = ExecOptions(mode="bytecode", use_result_cache=False)
        bytecode = prepared.execute(options=bytecode_opts)
        assert bytecode.timings.compile > 0  # not the adaptive translation
        again = prepared.execute(options=bytecode_opts)
        assert again.timings.compile == 0
        assert optimized.rows == adaptive.rows == bytecode.rows == again.rows

    def test_pipeline_without_morsels_reports_its_handle_tier(self):
        # 16 sealed 64-row chunks: a binding above every chunk's maximum
        # prunes the whole scan, so its pipeline runs no morsel.
        db = Database(morsel_size=64)
        db.catalog.create_table("w", [("a", SQLType.INT64),
                                      ("b", SQLType.FLOAT64)],
                                chunk_rows=64)
        db.insert("w", [(i, float(i)) for i in range(1024)])
        prepared = db.prepare_query("select sum(b) as s from w where a >= ?")
        opts = ExecOptions(mode="adaptive")
        model = _eager_switch_model()
        first = prepared.execute(options=opts, params=(10,),
                                 cost_model=model)
        scan = first.pipelines[0]
        assert scan.name == "scan w" and len(scan.mode_history) > 1
        compiled = scan.mode_history[-1]
        pruned = prepared.execute(options=opts, params=(5000,),
                                  cost_model=model)
        assert pruned.timings.chunks_scanned == 0
        assert pruned.pipelines[0].morsels == 0
        assert pruned.pipelines[0].mode_history == [compiled]


class TestAppendsKeepPlans:
    """An append below the statistics drift threshold keeps the plan, its
    IR, bytecode and compiled tiers; the data version still moves, so no
    cached result survives it."""

    SQL = ("select g, count(*) as c, sum(b) as s from w where a >= ? "
           "group by g order by g")
    COLUMNS = [("a", SQLType.INT64), ("g", SQLType.INT64),
               ("b", SQLType.FLOAT64)]
    #: 3 % of the table, in a group of its own.
    APPENDED = [(2000 + i, 7, 1.0) for i in range(30)]

    def _db(self):
        db = Database(morsel_size=64)
        # 64-row chunks: 1000 rows leave a 40-row tail, so the 30-row
        # append seals a chunk and opens a new one.
        db.catalog.create_table("w", self.COLUMNS, chunk_rows=64)
        db.insert("w", [(i, i % 5, float(i)) for i in range(1000)])
        return db

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_append_below_threshold_keeps_every_tier(self, mode):
        db = self._db()
        prepared = db.prepare_query(self.SQL)
        model = _eager_switch_model() if mode == "adaptive" else None
        first = prepared.execute(options=ExecOptions(mode=mode),
                                 params=(10,), cost_model=model)
        if mode == "adaptive":
            assert any(len(p.mode_history) > 1 for p in first.pipelines)
        table = db.catalog.table("w")
        chunks = table.num_chunks
        db.insert("w", self.APPENDED)
        assert table.num_chunks == chunks + 1
        assert prepared.is_valid()
        after = prepared.execute(options=ExecOptions(mode=mode),
                                 params=(10,), cost_model=model)
        assert after.cached and after.cache_source == "plan"
        assert after.timings.compile == 0  # bytecode and tiers reused
        if mode == "adaptive":
            assert any(p.mode_history[0] != "bytecode"
                       for p in after.pipelines)
        assert (7, 30, 30.0) in after.rows
        uncached = db.execute(self.SQL, params=(10,),
                              options=ExecOptions(mode=mode,
                                                  use_cache=False))
        assert after.rows == uncached.rows
        assert db.plan_cache.stats.invalidations == 0

    def test_same_binding_after_append_is_never_a_result_hit(self):
        db = self._db()
        opts = ExecOptions(mode="bytecode")
        before = db.execute(self.SQL, options=opts, params=(10,))
        again = db.execute(self.SQL, options=opts, params=(10,))
        assert again.cache_source == "result"  # the result cache is on
        db.insert("w", self.APPENDED)
        assert db.cached_result(self.SQL, params=(10,), options=opts) is None
        after = db.execute(self.SQL, options=opts, params=(10,))
        assert after.cache_source == "plan"
        assert (7, 30, 30.0) in after.rows and after.rows != before.rows
        assert db.result_cache.stats.invalidations == 1

    def test_append_past_threshold_refreshes_statistics_and_replans(self):
        db = self._db()
        opts = ExecOptions(mode="bytecode")
        db.execute(self.SQL, options=opts, params=(10,))
        assert db.catalog.statistics("w").num_rows == 1000
        db.insert("w", self.APPENDED)
        db.insert("w", [(2100 + i, 8, 1.0) for i in range(70)])
        # Exactly a tenth more rows than the statistics saw: still kept.
        assert db.execute(self.SQL, options=opts, params=(10,)).cached
        assert db.catalog.statistics("w").num_rows == 1000
        invalidations = db.plan_cache.stats.invalidations
        db.insert("w", [(2200, 9, 1.0)])
        rebuilt = db.execute(self.SQL, options=opts, params=(10,))
        assert not rebuilt.cached and rebuilt.timings.parse > 0
        assert (9, 1, 1.0) in rebuilt.rows
        assert db.plan_cache.stats.invalidations == invalidations + 1
        assert db.catalog.statistics("w").num_rows == 1101

    def test_drop_and_recreate_invalidates(self):
        db = self._db()
        opts = ExecOptions(mode="optimized")
        prepared = db.prepare_query(self.SQL)
        prepared.execute(options=opts, params=(10,))
        db.drop_table("w")
        db.catalog.create_table("w", self.COLUMNS, chunk_rows=64)
        db.insert("w", self.APPENDED)
        assert not prepared.is_valid()
        result = db.execute(self.SQL, options=opts, params=(10,))
        assert not result.cached
        assert result.rows == [(7, 30, 30.0)]
        assert db.plan_cache.stats.invalidations == 1


class TestCatalogVersions:
    def test_insert_bumps_referenced_version(self, db):
        before = db.catalog.table_version("t")
        db.insert("t", [(1, 1.0)])
        assert db.catalog.table_version("t") > before

    def test_create_and_drop_bump(self, db):
        version = db.catalog.version
        db.create_table("v", [("a", SQLType.INT64)])
        assert db.catalog.version > version
        created = db.catalog.table_version("v")
        db.catalog.drop_table("v")
        assert db.catalog.table_version("v") > created

    def test_unknown_table_version_is_zero(self, db):
        assert db.catalog.table_version("nope") == 0


class TestBaselineArgumentValidation:
    @pytest.mark.parametrize("mode", ["volcano", "vectorized"])
    def test_threads_rejected(self, db, mode):
        with pytest.raises(ExecutionError):
            db.execute(SQL, options=ExecOptions(mode=mode, threads=2))

    @pytest.mark.parametrize("mode", ["volcano", "vectorized"])
    def test_collect_trace_rejected(self, db, mode):
        with pytest.raises(ExecutionError):
            db.execute(SQL, options=ExecOptions(mode=mode, collect_trace=True))

    @pytest.mark.parametrize("mode", ["volcano", "vectorized"])
    def test_default_arguments_still_work(self, db, mode):
        reference = db.execute(SQL,
                               options=ExecOptions(mode="optimized",
                                                   use_cache=False))
        result = db.execute(SQL, options=ExecOptions(mode=mode))
        assert [tuple(round(v, 4) if isinstance(v, float) else v
                      for v in row) for row in result.rows] == \
            [tuple(round(v, 4) if isinstance(v, float) else v
                   for v in row) for row in reference.rows]
