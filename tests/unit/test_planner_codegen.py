"""Unit tests for the optimizer/planner and the code generator."""

import pytest

from repro import Database, SQLType
from repro.codegen import CodeGenerator, QueryState
from repro.ir import verify_module
from repro.optimizer import Planner
from repro.plan.logical import (
    LogicalAggregate,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    explain,
)
from repro.plan.physical import (
    AggregateSink,
    HashBuildSink,
    OutputSink,
    PhysFilter,
    PhysHashProbe,
    TableSource,
)
from repro.semantics import Binder
from repro.sqlparser import parse


@pytest.fixture()
def db():
    database = Database()
    database.create_table("facts", [("f_id", SQLType.INT64),
                                    ("f_dim", SQLType.INT64),
                                    ("f_other", SQLType.INT64),
                                    ("f_value", SQLType.FLOAT64)])
    database.create_table("dim", [("d_id", SQLType.INT64),
                                  ("d_name", SQLType.STRING)])
    database.create_table("other", [("x_id", SQLType.INT64),
                                    ("x_flag", SQLType.INT64)])
    database.insert("dim", [(i, f"dim{i}") for i in range(10)])
    database.insert("other", [(i, i % 2) for i in range(20)])
    database.insert("facts", [(i, i % 10, i % 20, float(i)) for i in range(500)])
    return database


def plan(db, sql):
    bound = Binder(db.catalog).bind(parse(sql))
    return Planner(db.catalog).plan(bound)


class TestPlanner:
    def test_scan_only_query_single_pipeline(self, db):
        result = plan(db, "select f_id from facts where f_id < 10")
        assert len(result.physical.pipelines) == 1
        pipeline = result.physical.pipelines[0]
        assert isinstance(pipeline.source, TableSource)
        assert isinstance(pipeline.sink, OutputSink)
        assert any(isinstance(op, PhysFilter) for op in pipeline.operators)

    def test_join_creates_build_and_probe_pipelines(self, db):
        result = plan(db, "select d_name, f_value from facts, dim "
                          "where f_dim = d_id")
        kinds = [type(p.sink).__name__ for p in result.physical.pipelines]
        assert kinds == ["HashBuildSink", "OutputSink"]
        probe_pipeline = result.physical.pipelines[-1]
        assert any(isinstance(op, PhysHashProbe)
                   for op in probe_pipeline.operators)

    def test_driver_is_largest_table(self, db):
        result = plan(db, "select d_name, f_value from facts, dim "
                          "where f_dim = d_id")
        probe_pipeline = result.physical.pipelines[-1]
        assert probe_pipeline.source.table.name == "facts"

    def test_aggregation_adds_hash_table_scan_pipeline(self, db):
        result = plan(db, "select f_dim, sum(f_value) from facts group by f_dim")
        labels = [p.label for p in result.physical.pipelines]
        assert labels[-1] == "hash table scan"
        assert isinstance(result.physical.pipelines[0].sink, AggregateSink)

    def test_three_way_join_pipeline_count(self, db):
        result = plan(db, "select count(*) from facts, dim, other "
                          "where f_dim = d_id and f_other = x_id")
        # two builds + one aggregating probe + one output scan
        assert len(result.physical.pipelines) == 4

    def test_filter_pushdown_into_build_side(self, db):
        result = plan(db, "select d_name, f_value from facts, dim "
                          "where f_dim = d_id and d_name = 'dim3'")
        build = result.physical.pipelines[0]
        assert isinstance(build.sink, HashBuildSink)
        assert any(isinstance(op, PhysFilter) for op in build.operators)

    def test_payload_contains_needed_columns_only(self, db):
        result = plan(db, "select d_name, f_value from facts, dim "
                          "where f_dim = d_id")
        build = result.physical.pipelines[0].sink
        payload_names = [c.column for c in build.payload_columns]
        assert "d_name" in payload_names

    def test_logical_plan_shape(self, db):
        result = plan(db, "select f_dim, sum(f_value) as s from facts, dim "
                          "where f_dim = d_id group by f_dim "
                          "order by s desc limit 5")
        node = result.logical
        assert isinstance(node, LogicalLimit)
        assert isinstance(node.child, LogicalSort)
        text = explain(result.logical)
        assert "HashJoin" in text and "Aggregate" in text and "Scan" in text

    def test_residual_or_predicate_kept(self, db):
        result = plan(db, "select count(*) from facts, dim where f_dim = d_id "
                          "and (d_name = 'dim1' or f_value > 100.0)")
        probe_pipeline = result.physical.pipelines[1]
        filters = [op for op in probe_pipeline.operators
                   if isinstance(op, PhysFilter)]
        assert filters  # the OR predicate is applied after the probe

    def test_estimates_positive(self, db):
        result = plan(db, "select f_id from facts where f_id < 10")
        assert result.physical.pipelines[0].estimated_rows >= 1


def probe_order(result, driver_table):
    """Build bindings in the order the driver's pipeline probes them."""
    (pipeline,) = [p for p in result.physical.pipelines
                   if isinstance(p.source, TableSource)
                   and p.source.table.name == driver_table]
    return [op.build_binding for op in pipeline.operators
            if isinstance(op, PhysHashProbe)]


class TestJoinOrder:
    @pytest.fixture()
    def q5_shape(self):
        """Q5's shape: the smallest build (``near``, 60 rows) joins the
        driver on a key with 3 distinct values, so each probe finds ~20
        matches; the larger ``uniq`` (400 rows) joins on a unique key."""
        database = Database()
        database.create_table("drive", [("d_uniq", SQLType.INT64),
                                        ("d_near", SQLType.INT64)])
        database.create_table("uniq", [("u_id", SQLType.INT64),
                                       ("u_val", SQLType.INT64)])
        database.create_table("near", [("n_group", SQLType.INT64),
                                       ("n_val", SQLType.INT64)])
        database.insert("drive", [(i % 400, i % 3) for i in range(3000)])
        database.insert("uniq", [(i, i % 7) for i in range(400)])
        database.insert("near", [(i % 3, i) for i in range(60)])
        yield database
        database.close()

    SQL = ("select sum(u_val), sum(n_val) from drive, uniq, near "
           "where d_uniq = u_id and d_near = n_group")

    def test_unique_key_join_goes_before_the_smaller_fan_out_join(
            self, q5_shape):
        assert probe_order(plan(q5_shape, self.SQL), "drive") == \
            ["uniq", "near"]

    def test_ties_go_to_the_smaller_build(self, db):
        # dim (10 rows) and other (20 rows) both join on unique keys.
        result = plan(db, "select count(*) from facts, dim, other "
                          "where f_dim = d_id and f_other = x_id")
        assert probe_order(result, "facts") == ["dim", "other"]

    def test_join_estimates_use_every_key(self, q5_shape):
        one_key = plan(q5_shape, "select count(*) from drive, near "
                                 "where d_near = n_group")
        two_keys = plan(q5_shape, "select count(*) from drive, near "
                                  "where d_near = n_group "
                                  "and d_uniq = n_val")
        join = one_key.logical.child.child
        assert isinstance(join, LogicalJoin)
        assert join.cardinality == pytest.approx(3000 * 60 / 3)
        # n_val is unique: 3 x 60 key combinations capped at 60 rows.
        assert two_keys.logical.child.child.cardinality == \
            pytest.approx(3000.0)

    def test_cross_join_estimate_is_the_product(self, db):
        result = plan(db, "select count(*) from facts, dim")
        assert result.logical.child.child.cardinality == \
            pytest.approx(500 * 10)

    def test_constant_predicate_filters_the_driver(self, db):
        result = plan(db, "select count(*) from facts where false")
        pipeline = result.physical.pipelines[0]
        assert [type(op) for op in pipeline.operators] == [PhysFilter]
        assert db.execute("select count(*) from facts where false").rows \
            == [(0,)]

    def test_tpch_q5_probes_orders_before_customer(self):
        from repro.workloads import TPCH_QUERIES, populate_tpch
        database = populate_tpch(Database(), scale_factor=0.05)
        try:
            _, planning, _ = database.prepare(TPCH_QUERIES[5])
            order = probe_order(planning, "lineitem")
            assert order.index("orders") < order.index("customer")
        finally:
            database.close()


class TestCodeGenerator:
    def generate(self, db, sql):
        bound = Binder(db.catalog).bind(parse(sql))
        planning = Planner(db.catalog).plan(bound)
        state = QueryState(planning.physical)
        return CodeGenerator(planning.physical, state).generate()

    def test_one_worker_per_pipeline(self, db):
        generated = self.generate(db, "select f_dim, sum(f_value) from facts "
                                      "group by f_dim")
        assert len(generated.module.functions) == len(generated.pipelines)
        for name in generated.module.functions:
            assert name.startswith("worker")

    def test_module_verifies(self, db):
        generated = self.generate(
            db, "select d_name, sum(f_value) from facts, dim "
                "where f_dim = d_id and f_value > 10.0 "
                "group by d_name order by d_name")
        verify_module(generated.module)

    def test_worker_signature(self, db):
        generated = self.generate(db, "select f_id from facts")
        worker = generated.pipelines[0].function
        assert [arg.name for arg in worker.args] == ["state", "morsel_begin",
                                                     "morsel_end"]

    def test_instruction_count_scales_with_aggregates(self, db):
        small = self.generate(db, "select sum(f_value) from facts")
        large = self.generate(
            db, "select " + ", ".join(f"sum(f_value * {i})"
                                      for i in range(1, 21)) + " from facts")
        assert large.instruction_count > small.instruction_count

    def test_finish_step_only_for_aggregates(self, db):
        generated = self.generate(db, "select f_dim, count(*) from facts "
                                      "group by f_dim")
        finishes = [p.finish is not None for p in generated.pipelines]
        assert finishes == [True, False]

    def test_codegen_seconds_recorded(self, db):
        generated = self.generate(db, "select f_id from facts")
        assert generated.codegen_seconds > 0
