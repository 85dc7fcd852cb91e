"""Chunked columnar storage, zone maps and scan pruning."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database, SQLType
from repro.catalog import Catalog, ColumnView, Table, TableSchema
from repro.catalog.statistics import compute_table_statistics
from repro.errors import CatalogError
from repro.adaptive import MorselDispatcher
from repro.options import ExecOptions
from repro.plan.sargs import (
    SargConjunct,
    SargOperand,
    chunk_survives,
    extract_scan_predicates,
    plan_table_scan,
)

ALL_MODES = ("ir-interp", "bytecode", "unoptimized", "optimized",
             "adaptive", "volcano", "vectorized")


def make_table(chunk_rows=8, columns=(("a", SQLType.INT64),)):
    return Table(TableSchema.of("t", list(columns)), chunk_rows=chunk_rows)


# --------------------------------------------------------------------------- #
# chunk lifecycle
# --------------------------------------------------------------------------- #
class TestChunkLifecycle:
    def test_chunk_rows_must_be_power_of_two(self):
        with pytest.raises(CatalogError):
            make_table(chunk_rows=100)
        with pytest.raises(CatalogError):
            make_table(chunk_rows=0)

    def test_appends_seal_full_chunks(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(20)])
        assert table.num_rows == 20
        assert table.num_chunks == 3
        assert table.num_sealed_chunks == 2
        chunks = table.column_chunks("a")
        assert [len(chunk) for chunk in chunks] == [8, 8, 4]

    def test_bulk_append_crosses_chunk_boundaries(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(5)])
        table.append_columns({"a": list(range(5, 25))})
        assert table.num_rows == 25
        assert table.column_data("a") == list(range(25))
        assert [len(chunk) for chunk in table.column_chunks("a")] == \
            [8, 8, 8, 1]

    def test_column_view_semantics(self):
        table = make_table(chunk_rows=4)
        table.insert_rows([(i,) for i in range(10)])
        view = table.column_data("a")
        assert isinstance(view, ColumnView)
        assert len(view) == 10
        assert view[0] == 0 and view[9] == 9 and view[-1] == 9
        assert list(view) == list(range(10))
        assert view[2:7] == [2, 3, 4, 5, 6]
        assert view[::3] == [0, 3, 6, 9]
        assert view == list(range(10))
        assert not (view == list(range(9)))

    def test_view_identity_is_stable_across_inserts(self):
        table = make_table(chunk_rows=4)
        view = table.column_data("a")
        table.insert_rows([(i,) for i in range(10)])
        assert table.column_data("a") is view
        assert view[9] == 9  # new rows visible through the old view

    def test_row_and_rows(self):
        table = make_table(chunk_rows=4, columns=(("a", SQLType.INT64),
                                                  ("b", SQLType.STRING)))
        table.insert_rows([(i, f"s{i}") for i in range(6)])
        assert table.row(5) == (5, "s5")
        assert list(table.rows())[0] == (0, "s0")


# --------------------------------------------------------------------------- #
# zone maps
# --------------------------------------------------------------------------- #
class TestZoneMaps:
    def test_zone_maps_exact_per_sealed_chunk(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(20)])
        assert table.zone_map("a", 0) == (0, 7)
        assert table.zone_map("a", 1) == (8, 15)
        # The open tail chunk has no zone map: it can still change.
        assert table.zone_map("a", 2) is None

    def test_zone_map_not_affected_by_later_inserts(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(8)])
        assert table.zone_map("a", 0) == (0, 7)
        table.insert_rows([(100,)])
        assert table.zone_map("a", 0) == (0, 7)

    def test_unordered_data(self):
        table = make_table(chunk_rows=4)
        table.insert_rows([(3,), (-5,), (7,), (0,), (99,)])
        assert table.zone_map("a", 0) == (-5, 7)

    def test_nan_chunk_has_no_zone_map(self):
        # NaN poisons min()/max() (every comparison is False), which would
        # prune a chunk whose non-NaN rows qualify.  Such chunks get no
        # zone map and are always scanned.
        table = make_table(chunk_rows=4, columns=(("f", SQLType.FLOAT64),))
        table.insert_rows([(float("nan"),), (5.0,), (6.0,), (7.0,), (1.0,)])
        assert table.zone_map("f", 0) is None
        # Cached: the NaN scan runs once, later calls still answer None.
        assert table.zone_map("f", 0) is None

    def test_nan_pruned_scan_matches_unpruned(self):
        db = Database()
        db.catalog.create_table("t", [("f", SQLType.FLOAT64)], chunk_rows=4)
        db.insert("t", [(float("nan"),), (5.0,), (6.0,), (7.0,)]
                  + [(float(i),) for i in range(4, 20)])
        sql = "select count(*) as c from t where f > 1.0"
        for mode in ALL_MODES:
            pruned = db.execute(sql, options=ExecOptions(mode=mode))
            unpruned = db.execute(sql,
                                  options=ExecOptions(mode=mode,
                                                      use_pruning=False))
            assert pruned.rows == unpruned.rows == [(19,)], mode


# --------------------------------------------------------------------------- #
# per-chunk numpy caching + the ragged-array race fix
# --------------------------------------------------------------------------- #
class TestNumpyChunks:
    def test_sealed_chunk_arrays_survive_inserts(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(16)])
        chunk0 = table.numpy_chunk("a", 0)
        full = table.numpy_column("a")
        table.insert_rows([(99,)])
        # The sealed chunk's cached array is reused, not rebuilt.
        assert table.numpy_chunk("a", 0) is chunk0
        refreshed = table.numpy_column("a")
        assert refreshed is not full
        assert refreshed.tolist() == list(range(16)) + [99]

    def test_numpy_column_caches_by_row_count(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(10)])
        first = table.numpy_column("a")
        assert table.numpy_column("a") is first

    def test_numpy_snapshot_is_cross_column_consistent(self):
        table = make_table(chunk_rows=64, columns=(("a", SQLType.INT64),
                                                   ("b", SQLType.FLOAT64)))
        table.insert_rows([(i, float(i)) for i in range(100)])
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                table.insert_rows([(1, 1.0)] * 7)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                arrays, rows = table.numpy_snapshot(["a", "b"])
                assert len(arrays["a"]) == len(arrays["b"]) == rows
                single = table.numpy_column("a")
                assert len(single) <= table.num_rows
        finally:
            stop.set()
            thread.join()


# --------------------------------------------------------------------------- #
# catalog invalidation (append_columns bugfix)
# --------------------------------------------------------------------------- #
class TestMutationInvalidation:
    def test_insert_rows_bumps_table_version(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("a", SQLType.INT64)])
        before = catalog.table_version("t")
        table.insert_rows([(1,)])
        assert catalog.table_version("t") > before

    def test_append_columns_bumps_table_version(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("a", SQLType.INT64)])
        before = catalog.table_version("t")
        table.append_columns({"a": [1, 2, 3]})
        assert catalog.table_version("t") > before

    def test_append_columns_invalidates_statistics(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("a", SQLType.INT64)])
        table.insert_rows([(1,), (2,)])
        stats = catalog.statistics("t")
        assert stats.num_rows == 2
        table.append_columns({"a": [10, 20, 30]})
        assert catalog.statistics("t").num_rows == 5

    def test_append_columns_invalidates_cached_plans(self):
        """Regression: a cached plan must not serve stale results after a
        bulk column append that bypasses ``Database.insert``."""
        db = Database()
        db.create_table("t", [("a", SQLType.INT64)])
        db.insert("t", [(1,), (2,)])
        first = db.execute("select count(*) from t")
        assert first.rows == [(2,)]
        db.catalog.table("t").append_columns({"a": [3, 4, 5]})
        second = db.execute("select count(*) from t")
        assert second.rows == [(5,)]

    def test_empty_append_does_not_bump_version(self):
        catalog = Catalog()
        table = catalog.create_table("t", [("a", SQLType.INT64)])
        before = catalog.table_version("t")
        table.append_columns({"a": []})
        assert catalog.table_version("t") == before


# --------------------------------------------------------------------------- #
# statistics exactness (sampled stats must never drive pruning)
# --------------------------------------------------------------------------- #
class TestStatisticsExactness:
    def test_unsampled_statistics_are_exact(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(100)])
        stats = compute_table_statistics(table, sample_limit=1000)
        assert stats.column("a").exact is True
        assert stats.column("a").min_value == 0
        assert stats.column("a").max_value == 99

    def test_sampled_statistics_are_marked_inexact(self):
        table = make_table(chunk_rows=8)
        # Put the extremes between sample points: strided sampling misses
        # them, which is exactly why pruning must not use these values.
        values = [50] * 1000
        values[501] = -7
        values[503] = 999
        table.insert_rows([(v,) for v in values])
        stats = compute_table_statistics(table, sample_limit=10)
        column = stats.column("a")
        assert column.exact is False
        assert column.min_value > -7 or column.max_value < 999

    def test_pruning_consults_zone_maps_not_statistics(self):
        """Even with wildly stale statistics, pruning stays correct because
        it reads only the exact per-chunk zone maps."""
        db = Database()
        db.catalog.create_table("t", [("a", SQLType.INT64)], chunk_rows=8)
        db.insert("t", [(i,) for i in range(64)])
        db.catalog.statistics("t")  # populate (exact here, but cached)
        result = db.execute("select a from t where a = 63")
        assert result.rows == [(63,)]
        assert result.stats["chunks_pruned"] > 0


# --------------------------------------------------------------------------- #
# sargable extraction
# --------------------------------------------------------------------------- #
class TestSargExtraction:
    def _scan_predicates(self, db, sql):
        _, planning, _ = db.prepare(sql)
        for pipeline in planning.physical.pipelines:
            if pipeline.scan_predicates:
                return pipeline.scan_predicates
        return []

    @pytest.fixture()
    def db(self):
        db = Database()
        db.create_table("t", [("a", SQLType.INT64), ("f", SQLType.FLOAT64),
                              ("d", SQLType.DATE), ("s", SQLType.STRING),
                              ("p", SQLType.DECIMAL)])
        db.insert("t", [(1, 1.0, "2020-01-01", "x", 1.5)])
        return db

    def test_comparison_shapes(self, db):
        sargs = self._scan_predicates(db, "select a from t where a > 5")
        assert len(sargs) == 1
        assert sargs[0].kind == "cmp" and sargs[0].operator == ">"
        # Mirrored: constant on the left flips the operator.
        sargs = self._scan_predicates(db, "select a from t where 5 > a")
        assert sargs[0].operator == "<"

    def test_between_and_in(self, db):
        sargs = self._scan_predicates(
            db, "select a from t where a between 2 and 7")
        assert sargs[0].kind == "between"
        sargs = self._scan_predicates(
            db, "select a from t where a in (1, 2, 3)")
        assert sargs[0].kind == "in" and len(sargs[0].operands) == 3

    def test_parameter_slots_are_kept(self, db):
        sargs = self._scan_predicates(db, "select a from t where a > ?")
        assert sargs[0].operands[0].param_index == 0
        assert sargs[0].operands[0].value is None

    def test_conjunction_extracts_each_conjunct(self, db):
        sargs = self._scan_predicates(
            db, "select a from t where a > 1 and s = 'x' and f < 2.5")
        assert len(sargs) == 3

    def test_decimal_storage_flagged(self, db):
        sargs = self._scan_predicates(db, "select a from t where p > 1.0")
        assert sargs[0].decimal_storage is True

    def test_date_literal_encoded(self, db):
        sargs = self._scan_predicates(
            db, "select a from t where d >= date '2020-06-01'")
        assert sargs[0].kind == "cmp"
        assert isinstance(sargs[0].operands[0].value, int)

    def test_non_sargable_shapes_ignored(self, db):
        assert self._scan_predicates(
            db, "select a from t where a + 1 > 5") == []
        assert self._scan_predicates(
            db, "select a from t where a > 1 or a < 0") == []
        assert self._scan_predicates(
            db, "select a from t where s like 'x%'") == []


# --------------------------------------------------------------------------- #
# chunk_survives semantics
# --------------------------------------------------------------------------- #
class TestChunkSurvives:
    def _one(self, kind, zone, params=(), **kwargs):
        conjunct = SargConjunct(column="a", kind=kind, **kwargs)
        return chunk_survives([conjunct], lambda _: zone, params)

    def test_comparisons(self):
        zone = (10, 20)
        lit = lambda v: (SargOperand(value=v),)
        assert self._one("cmp", zone, operator="=", operands=lit(15))
        assert not self._one("cmp", zone, operator="=", operands=lit(25))
        assert self._one("cmp", zone, operator="<", operands=lit(11))
        assert not self._one("cmp", zone, operator="<", operands=lit(10))
        assert self._one("cmp", zone, operator=">", operands=lit(19))
        assert not self._one("cmp", zone, operator=">", operands=lit(20))
        assert self._one("cmp", zone, operator="<=", operands=lit(10))
        assert self._one("cmp", zone, operator=">=", operands=lit(20))
        assert self._one("cmp", zone, operator="<>", operands=lit(15))
        assert not self._one("cmp", (7, 7), operator="<>", operands=lit(7))

    def test_between(self):
        zone = (10, 20)
        ops = (SargOperand(value=21), SargOperand(value=30))
        assert not self._one("between", zone, operands=ops)
        ops = (SargOperand(value=20), SargOperand(value=30))
        assert self._one("between", zone, operands=ops)
        # NOT BETWEEN prunes only chunks entirely inside the range.
        ops = (SargOperand(value=0), SargOperand(value=30))
        assert not self._one("between", zone, operands=ops, negated=True)
        ops = (SargOperand(value=15), SargOperand(value=30))
        assert self._one("between", zone, operands=ops, negated=True)

    def test_in_list(self):
        zone = (10, 20)
        ops = (SargOperand(value=1), SargOperand(value=15))
        assert self._one("in", zone, operands=ops)
        ops = (SargOperand(value=1), SargOperand(value=30))
        assert not self._one("in", zone, operands=ops)
        # NOT IN prunes only a constant chunk whose value is excluded.
        assert not self._one("in", (7, 7), operands=(SargOperand(value=7),),
                             negated=True)
        assert self._one("in", (7, 8), operands=(SargOperand(value=7),),
                         negated=True)

    def test_parameters_resolved_per_call(self):
        conjunct = SargConjunct(column="a", kind="cmp", operator="=",
                                operands=(SargOperand(param_index=0),))
        assert chunk_survives([conjunct], lambda _: (10, 20), [15])
        assert not chunk_survives([conjunct], lambda _: (10, 20), [25])

    def test_missing_zone_map_keeps_chunk(self):
        conjunct = SargConjunct(column="a", kind="cmp", operator="=",
                                operands=(SargOperand(value=5),))
        assert chunk_survives([conjunct], lambda _: None, ())

    def test_incomparable_types_keep_chunk(self):
        conjunct = SargConjunct(column="a", kind="cmp", operator="<",
                                operands=(SargOperand(value="zzz"),))
        assert chunk_survives([conjunct], lambda _: (1, 2), ())

    def test_nan_operand_never_prunes(self):
        # NOT BETWEEN NaN AND NaN matches every row at execution time
        # (NOT(f >= NaN AND f <= NaN) is true), but every zone comparison
        # against NaN is False — a NaN operand must disable pruning.
        nan = float("nan")
        conjunct = SargConjunct(column="f", kind="between",
                                operands=(SargOperand(param_index=0),
                                          SargOperand(param_index=1)),
                                negated=True)
        assert chunk_survives([conjunct], lambda _: (1.0, 2.0), [nan, nan])
        cmp = SargConjunct(column="f", kind="cmp", operator="=",
                           operands=(SargOperand(value=nan),))
        assert chunk_survives([cmp], lambda _: (1.0, 2.0), ())

    def test_nan_binding_end_to_end(self):
        db = Database()
        db.catalog.create_table("t", [("f", SQLType.FLOAT64)], chunk_rows=4)
        db.insert("t", [(float(i),) for i in range(16)])
        sql = "select count(*) as c from t where f not between ? and ?"
        nan = float("nan")
        for mode in ALL_MODES:
            pruned = db.execute(sql, options=ExecOptions(mode=mode),
                                params=[nan, nan])
            unpruned = db.execute(sql, params=[nan, nan],
                                  options=ExecOptions(mode=mode,
                                                      use_pruning=False))
            assert pruned.rows == unpruned.rows, mode

    def test_decimal_zone_bounds_are_decoded(self):
        # Stored scaled by 100: raw (100, 200) is logical (1.0, 2.0).
        conjunct = SargConjunct(column="a", kind="cmp", operator=">",
                                operands=(SargOperand(value=2.5),),
                                decimal_storage=True)
        assert not chunk_survives([conjunct], lambda _: (100, 200), ())
        conjunct = SargConjunct(column="a", kind="cmp", operator=">",
                                operands=(SargOperand(value=1.5),),
                                decimal_storage=True)
        assert chunk_survives([conjunct], lambda _: (100, 200), ())


# --------------------------------------------------------------------------- #
# scan planning + dispatcher alignment
# --------------------------------------------------------------------------- #
class TestScanPlanning:
    def test_plan_table_scan_prunes_sealed_chunks(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(30)])  # 3 sealed + tail of 6
        sargs = [SargConjunct(column="a", kind="cmp", operator="=",
                              operands=(SargOperand(value=9),))]
        plan = plan_table_scan(table, sargs, table.num_rows, ())
        # Chunk 1 ([8, 16)) survives; the unsealed tail always survives.
        assert plan.ranges == ((8, 16), (24, 30))
        assert plan.chunks_total == 4
        assert plan.chunks_pruned == 2
        assert plan.chunks_scanned == 2
        assert plan.rows_to_scan == 14

    def test_use_pruning_false_scans_everything(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(30)])
        sargs = [SargConjunct(column="a", kind="cmp", operator="=",
                              operands=(SargOperand(value=9),))]
        plan = plan_table_scan(table, sargs, table.num_rows, (),
                               use_pruning=False)
        assert plan.chunks_pruned == 0
        assert plan.rows_to_scan == 30

    def test_dispatcher_honours_ranges_and_chunk_alignment(self):
        dispatcher = MorselDispatcher(morsel_size=8,
                                      ranges=[(8, 16), (32, 40), (56, 60)])
        seen = []
        while True:
            morsel = dispatcher.next_morsel()
            if morsel is None:
                break
            seen.append((morsel.begin, morsel.end))
        assert seen == [(8, 16), (32, 40), (56, 60)]
        assert dispatcher.total_rows == 20
        assert dispatcher.exhausted

    def test_dispatcher_small_morsels_stay_within_ranges(self):
        dispatcher = MorselDispatcher(morsel_size=3, ranges=[(0, 8), (16, 24)])
        covered = []
        while True:
            morsel = dispatcher.next_morsel()
            if morsel is None:
                break
            assert (morsel.begin < 8) == (morsel.end <= 8)
            covered.extend(range(morsel.begin, morsel.end))
        assert covered == list(range(0, 8)) + list(range(16, 24))

    def test_dispatcher_backwards_compatible_span(self):
        dispatcher = MorselDispatcher(100, morsel_size=64)
        first = dispatcher.next_morsel()
        second = dispatcher.next_morsel()
        assert (first.begin, first.end) == (0, 64)
        assert (second.begin, second.end) == (64, 100)
        assert dispatcher.next_morsel() is None


# --------------------------------------------------------------------------- #
# end-to-end pruning across every mode
# --------------------------------------------------------------------------- #
class TestPruningEndToEnd:
    @pytest.fixture()
    def clustered_db(self):
        db = Database()
        db.catalog.create_table("events", [("ts", SQLType.INT64),
                                           ("payload", SQLType.FLOAT64)],
                                chunk_rows=256)
        db.insert("events", [(i, float(i % 97)) for i in range(20_000)])
        return db

    def test_selective_scan_prunes_most_chunks_in_every_mode(self,
                                                             clustered_db):
        sql = "select ts, payload from events where ts between 512 and 767"
        expected = None
        for mode in ALL_MODES:
            pruned = clustered_db.execute(sql, options=ExecOptions(mode=mode))
            unpruned = clustered_db.execute(
                sql, options=ExecOptions(mode=mode, use_pruning=False))
            assert sorted(pruned.rows) == sorted(unpruned.rows)
            if expected is None:
                expected = sorted(pruned.rows)
                assert len(expected) == 256
            assert sorted(pruned.rows) == expected
            stats = pruned.stats
            total = stats["chunks_pruned"] + stats["chunks_scanned"]
            assert stats["chunks_pruned"] / total > 0.8, mode
            assert unpruned.stats["chunks_pruned"] == 0

    def test_parallel_execution_prunes(self, clustered_db):
        sql = "select count(*) from events where ts < 300"
        result = clustered_db.execute(sql,
                                      options=ExecOptions(mode="optimized",
                                                          threads=4))
        assert result.rows == [(300,)]
        assert result.stats["chunks_pruned"] > 0

    def test_cached_plan_reprunes_per_binding(self, clustered_db):
        prepared = clustered_db.prepare_query(
            "select count(*) from events where ts between ? and ?")
        low = prepared.execute(options=ExecOptions(mode="bytecode"),
                               params=[0, 255])
        high = prepared.execute(options=ExecOptions(mode="bytecode"),
                                params=[19_000, 19_999])
        assert low.rows == [(256,)]
        assert high.rows == [(1000,)]
        assert low.timings.chunks_pruned > 0
        assert high.timings.chunks_pruned > 0
        # Different bindings keep different chunks: the pruning decision is
        # per execution, not baked into the cached plan.
        assert low.timings.chunks_scanned < 5
        assert high.timings.chunks_scanned < 6

    def test_pruning_never_drops_tail_rows(self, clustered_db):
        clustered_db.insert("events", [(50, 1.0)])  # lands in the open tail
        result = clustered_db.execute(
            "select count(*) from events where ts = 50")
        assert result.rows == [(2,)]

    def test_aggregation_pipeline_prunes(self, clustered_db):
        result = clustered_db.execute(
            "select sum(payload) from events where ts >= 19744")
        assert result.stats["chunks_pruned"] > 70
        unpruned = clustered_db.execute(
            "select sum(payload) from events where ts >= 19744",
            options=ExecOptions(use_pruning=False))
        assert result.rows == unpruned.rows


class TestDecimalBoundaryPruning:
    def test_decimal_equality_at_chunk_extremes_is_never_mispruned(self):
        """The zone check must decode DECIMAL bounds exactly as the tiers
        decode values (raw * 0.01); raw / 100 differs in the last ulp for
        many raw values and would prune a chunk whose extreme matches."""
        db = Database()
        db.catalog.create_table("t", [("p", SQLType.DECIMAL)], chunk_rows=8)
        # raw = 35 is one of the values where 35 * 0.01 != 35 / 100.
        db.insert("t", [(0.35,)] + [(i + 100.0,) for i in range(15)])
        predicate = 35 * 0.01  # what the execution tiers compute
        result = db.execute("select count(*) from t where p = ?",
                            params=[predicate])
        unpruned = db.execute(
            "select count(*) from t where p = ?",
            options=ExecOptions(use_pruning=False), params=[predicate])
        assert result.rows == unpruned.rows == [(1,)]


class TestSealPublicationRace:
    def test_zone_map_reads_race_chunk_sealing(self):
        """Regression: sealing must append the zone-map/numpy bookkeeping
        slots *before* the row count says the chunk is sealed, or lock-free
        readers hit IndexError in the seal window.  A tiny GIL switch
        interval makes the few-bytecode window practically certain to be
        observed."""
        import sys

        table = make_table(chunk_rows=8)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    sealed = table.num_sealed_chunks
                    if sealed:
                        assert table.zone_map("a", sealed - 1) is not None
                        assert len(table.numpy_chunk("a", sealed - 1)) == 8
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for i in range(30_000):
                table.insert_rows([(i,)])
                if errors:
                    break
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]

    def test_coalesced_ranges_cover_adjacent_survivors(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(32)])  # 4 sealed chunks
        sargs = [SargConjunct(column="a", kind="cmp", operator=">=",
                              operands=(SargOperand(value=8),))]
        plan = plan_table_scan(table, sargs, table.num_rows, ())
        # Chunks 1..3 survive and are coalesced into one range.
        assert plan.ranges == ((8, 32),)
        assert plan.chunks_pruned == 1
        assert plan.chunks_scanned == 3

    def test_numpy_ranges_spanning_chunks(self):
        table = make_table(chunk_rows=8)
        table.insert_rows([(i,) for i in range(30)])
        assert table.numpy_ranges("a", [(4, 20), (24, 30)]).tolist() == \
            list(range(4, 20)) + list(range(24, 30))
        assert table.numpy_ranges("a", []).tolist() == []
