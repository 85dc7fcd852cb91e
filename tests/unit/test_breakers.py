"""Unit tests for the partition-parallel breaker runtime.

Covers the pieces the integration/property tests exercise only end-to-end:
the partial/merge lifecycle helpers, worker-context creation, the sealed
containers' identity guarantees across configure/reset (what keeps cached
plans executable), option plumbing and the breaker metrics.
"""

from __future__ import annotations

import pytest

from repro import Database, SQLType
from repro.codegen.runtime import (
    BreakerRun,
    QueryState,
    WorkerContext,
    combine_cells,
    initial_cells,
    merge_agg_partition,
    merge_join_partition,
    round_up_pow2,
)
from repro.options import ExecOptions
from repro.plan.physical import AggregateSpec


def make_spec(function, result_type=SQLType.INT64, argument=None):
    return AggregateSpec(function=function, argument=argument,
                         result_type=result_type)


class TestMergeHelpers:
    def test_round_up_pow2(self):
        assert [round_up_pow2(v) for v in (0, 1, 2, 3, 4, 5, 8, 9)] == \
            [1, 1, 2, 4, 4, 8, 8, 16]

    def test_merge_join_partition_extends_in_contributor_order(self):
        target: dict = {}
        merge_join_partition(target, [{1: [("a",)], 2: [("b",)]},
                                      {1: [("c",)]}])
        assert target == {1: [("a",), ("c",)], 2: [("b",)]}

    def test_merge_join_partition_adopts_first_bucket(self):
        bucket = [("a",)]
        target: dict = {}
        merge_join_partition(target, [{1: bucket}])
        assert target[1] is bucket

    def test_combine_and_merge_agg_cells(self):
        specs = [make_spec("count"), make_spec("sum"),
                 make_spec("avg", SQLType.FLOAT64),
                 make_spec("min"), make_spec("max")]
        left = initial_cells(specs)
        right = initial_cells(specs)
        # fold two "rows" into left, one into right, by hand
        left[0], left[1], left[2], left[3], left[4] = 2, 30, [30.0, 2], 10, 20
        right[0], right[1], right[2], right[3], right[4] = 1, 5, [5.0, 1], 5, 5
        combine_cells(specs, left, right)
        assert left == [3, 35, [35.0, 3], 5, 20]
        # None (never-seen) min/max cells lose against any value.
        empty = initial_cells(specs)
        combine_cells(specs, empty, [1, 7, [7.0, 1], 7, 7])
        assert empty[3] == 7 and empty[4] == 7

    def test_merge_agg_partition_combines_matching_keys(self):
        specs = [make_spec("count"), make_spec("sum")]
        target: dict = {}
        merge_agg_partition(specs, target,
                            [{"k": [1, 10]}, {"k": [2, 5], "j": [1, 1]}])
        assert target == {"k": [3, 15], "j": [1, 1]}


def _grouped(workers: int = 4) -> Database:
    db = Database(morsel_size=64, workers=workers)
    db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
    db.insert("t", [(i % 9, i) for i in range(3000)])
    return db


@pytest.fixture()
def grouped_db():
    db = _grouped()
    yield db
    db.close()


GROUP_SQL = "select k, count(*), sum(v) from t group by k"


class TestQueryStateBreakers:
    def _state(self, db) -> QueryState:
        generated, _, _ = db.generate(GROUP_SQL)
        return generated.state

    def test_agg_locks_is_gone(self, grouped_db):
        state = self._state(grouped_db)
        assert not hasattr(state, "agg_locks")

    def test_configure_preserves_partition_list_identity(self, grouped_db):
        state = self._state(grouped_db)
        lists = {agg_id: parts
                 for agg_id, parts in state.agg_partitions.items()}
        state.configure_breakers(partitions=8)
        assert state.partition_count == 8
        for agg_id, parts in state.agg_partitions.items():
            assert parts is lists[agg_id]
            assert len(parts) == 8
        state.configure_breakers(partitions=3)   # rounded up
        assert state.partition_count == 4
        state.configure_breakers()
        assert state.partition_count == 1
        for agg_id, parts in state.agg_partitions.items():
            assert parts is lists[agg_id]

    def test_reset_clears_contents_keeps_dicts(self, grouped_db):
        state = self._state(grouped_db)
        state.configure_breakers(partitions=2)
        parts = next(iter(state.agg_partitions.values()))
        dicts = list(parts)
        parts[0]["key"] = [1]
        state.reset()
        assert parts[0] == {} and [d is o for d, o in zip(parts, dicts)]

    def test_new_context_sizes_partials_to_current_layout(self, grouped_db):
        generated, _, _ = grouped_db.generate(GROUP_SQL)
        state = generated.state
        state.configure_breakers(partitions=4)
        pipeline = generated.pipelines[0].pipeline
        context = state.new_context(pipeline)
        assert isinstance(context, WorkerContext)
        (parts,) = context.aggs.values()
        assert len(parts) == 4 and context.joins == {}

    def test_breaker_run_contexts_are_slot_stable(self, grouped_db):
        generated, _, _ = grouped_db.generate(GROUP_SQL)
        state = generated.state
        run = BreakerRun(state, generated.pipelines[0].pipeline, max_slots=3)
        first = run.context(1)
        assert run.context(1) is first
        assert run.context(2) is not first
        assert isinstance(run.context(0), WorkerContext)


class TestOptionWiring:
    def test_options_defaults_and_merge(self):
        options = ExecOptions()
        merged = options.merged(threads=6)
        assert merged.threads == 6
        assert options.threads == 1   # frozen: a new value

    def test_database_resolves_default_partition_count(self):
        for workers, partitions in ((1, 1), (3, 4), (5, 8), (16, 16)):
            db = Database(workers=workers)
            try:
                assert db.breaker_partitions == partitions
            finally:
                db.close()

    def test_partition_count_flows_into_stats(self):
        db = _grouped(workers=16)
        try:
            result = db.execute(GROUP_SQL,
                                options=ExecOptions(mode="bytecode"))
        finally:
            db.close()
        stats = result.stats
        assert stats["breaker_partitions"] == 16
        assert stats["breaker_partial_entries"] >= 9
        assert stats["breaker_merge_seconds"] >= 0.0
        pipeline = result.pipelines[0]
        assert pipeline.breaker_partitions == 16
        assert pipeline.breaker_partial_entries >= 9

    def test_one_partition_equals_a_dict_group_by(self):
        # One worker gives the degenerate one-partition layout (what the
        # removed single-table path used to be); the reference is a plain
        # dict.
        groups: dict = {}
        for i in range(3000):
            count, total = groups.get(i % 9, (0, 0))
            groups[i % 9] = (count + 1, total + i)
        expected = [(k, *groups[k]) for k in sorted(groups)]
        db = _grouped(workers=1)
        try:
            for threads in (1, 4):
                result = db.execute(
                    GROUP_SQL, options=ExecOptions(
                        mode="bytecode", threads=threads,
                        use_result_cache=False))
                assert result.rows == expected
                assert result.stats["breaker_partitions"] == 1
        finally:
            db.close()

    def test_scan_only_pipelines_report_no_partitions(self, grouped_db):
        result = grouped_db.execute(
            "select v from t where v < 10",
            options=ExecOptions(mode="bytecode", threads=2))
        # The output pipeline's partials are plain row buffers, not hash
        # partitions.
        assert result.stats["breaker_partitions"] == 0

    def test_session_and_prepared_accept_breaker_options(self, grouped_db):
        expected = grouped_db.execute(
            GROUP_SQL, options=ExecOptions(mode="optimized")).rows
        db = _grouped(workers=2)
        try:
            session = db.session(options=ExecOptions(mode="bytecode"))
            result = session.execute(GROUP_SQL)
            assert result.rows == expected
            assert result.stats["breaker_partitions"] == 2
            prepared = db.prepare_query(GROUP_SQL)
            hot = prepared.execute(
                options=ExecOptions(mode="adaptive", threads=2,
                                    use_result_cache=False))
            assert hot.rows == expected
            assert hot.stats["breaker_partitions"] == 2
        finally:
            db.close()
