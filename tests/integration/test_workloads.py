"""Integration tests over the benchmark workloads (TPC-H, TPC-DS, metadata,
machine-generated wide queries)."""

import gc

import pytest

from repro import ExecOptions
from repro.workloads import (
    METADATA_QUERIES,
    TPCDS_QUERIES,
    TPCH_QUERIES,
    populate_metadata,
    populate_tpcds,
    populate_wide_table,
    wide_aggregate_query,
)
from repro.workloads.tpch.datagen import table_sizes


def normalized(rows, digits=3):
    out = []
    for row in rows:
        out.append(tuple(round(v, digits) if isinstance(v, float) else v
                         for v in row))
    return out


class TestTPCHDatagen:
    def test_row_counts_scale(self, tpch_db):
        assert tpch_db.catalog.table("region").num_rows == 5
        assert tpch_db.catalog.table("nation").num_rows == 25
        assert tpch_db.catalog.table("lineitem").num_rows > \
            tpch_db.catalog.table("orders").num_rows

    def test_table_sizes_ratios(self):
        sizes = table_sizes(1.0)
        assert sizes["lineitem"] == 4 * sizes["orders"]
        assert sizes["partsupp"] == 4 * sizes["part"]

    def test_deterministic(self):
        from repro.workloads import populate_tpch

        a = populate_tpch(scale_factor=0.01, seed=5)
        b = populate_tpch(scale_factor=0.01, seed=5)
        assert a.catalog.table("lineitem").column_data("l_quantity") == \
            b.catalog.table("lineitem").column_data("l_quantity")

    def test_foreign_keys_resolve(self, tpch_db):
        customers = set(tpch_db.catalog.table("customer").column_data("c_custkey"))
        order_custkeys = set(tpch_db.catalog.table("orders").column_data("o_custkey"))
        assert order_custkeys <= customers


@pytest.mark.parametrize("query_number", sorted(TPCH_QUERIES))
def test_tpch_query_modes_agree(tpch_db_tiny, query_number):
    """Each TPC-H-derived query returns identical results in the compiled
    engine (bytecode and optimized tiers), the adaptive mode and the Volcano
    baseline."""
    sql = TPCH_QUERIES[query_number]
    reference = None
    for mode in ("optimized", "bytecode", "adaptive", "volcano"):
        rows = normalized(tpch_db_tiny.execute(
            sql, options=ExecOptions(mode=mode)).rows)
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"mode {mode} differs on Q{query_number}"


@pytest.mark.parametrize("query_number", [1, 3, 5, 6, 10, 12, 14, 19, 22])
def test_tpch_vectorized_agrees(tpch_db_tiny, query_number):
    sql = TPCH_QUERIES[query_number]
    compiled = normalized(tpch_db_tiny.execute(
        sql, options=ExecOptions(mode="optimized")).rows)
    vectorized = normalized(tpch_db_tiny.execute(
        sql, options=ExecOptions(mode="vectorized")).rows)
    assert vectorized == compiled


def test_tpch_q1_produces_expected_groups(tpch_db):
    result = tpch_db.execute(TPCH_QUERIES[1],
                             options=ExecOptions(mode="optimized"))
    flags = {row[0] for row in result.rows}
    assert flags <= {"A", "N", "R"}
    assert len(result.column_names) == 10
    # count per group is positive and sums to the filtered row count
    assert all(row[-1] > 0 for row in result.rows)


def test_tpch_q6_is_single_pipeline_scalar_aggregate(tpch_db):
    result = tpch_db.execute(TPCH_QUERIES[6],
                             options=ExecOptions(mode="optimized"))
    assert len(result.rows) == 1
    # scan + hash-table-scan pipelines
    assert len(result.pipelines) == 2


class TestTPCDS:
    @pytest.fixture(scope="class")
    def tpcds_db(self):
        return populate_tpcds(fact_rows=1500)

    @pytest.mark.parametrize("query_id", sorted(TPCDS_QUERIES))
    def test_queries_run_and_agree(self, tpcds_db, query_id):
        sql = TPCDS_QUERIES[query_id]
        compiled = normalized(tpcds_db.execute(
            sql, options=ExecOptions(mode="optimized")).rows)
        interpreted = normalized(tpcds_db.execute(
            sql, options=ExecOptions(mode="bytecode")).rows)
        assert compiled == interpreted

    def test_query_sizes_span_a_range(self, tpcds_db):
        sizes = []
        for sql in TPCDS_QUERIES.values():
            generated, _, _ = tpcds_db.generate(sql)
            sizes.append(generated.instruction_count)
        assert max(sizes) > 4 * min(sizes)


class TestMetadataWorkload:
    @pytest.fixture(scope="class")
    def meta_db(self):
        return populate_metadata(num_tables=120)

    @pytest.mark.parametrize("index", range(len(METADATA_QUERIES)))
    def test_metadata_queries_agree(self, meta_db, index):
        sql = METADATA_QUERIES[index]
        compiled = normalized(meta_db.execute(
            sql, options=ExecOptions(mode="optimized")).rows)
        interpreted = normalized(meta_db.execute(
            sql, options=ExecOptions(mode="bytecode")).rows)
        adaptive = normalized(meta_db.execute(
            sql, options=ExecOptions(mode="adaptive")).rows)
        assert compiled == interpreted == adaptive

    def test_adaptive_never_compiles_tiny_queries(self, meta_db):
        """The paper's headline scenario: metadata queries stay interpreted."""
        for sql in METADATA_QUERIES:
            result = meta_db.execute(sql, options=ExecOptions(mode="adaptive"))
            for pipeline in result.pipelines:
                assert pipeline.mode_history == ["bytecode"]


class TestWideQueries:
    def test_query_text_scales(self):
        small = wide_aggregate_query(5)
        large = wide_aggregate_query(200)
        assert len(large) > 10 * len(small)

    def test_ir_size_scales_linearly(self):
        db = populate_wide_table(num_rows=50)
        sizes = {}
        for count in (10, 40, 160):
            generated, _, _ = db.generate(wide_aggregate_query(count))
            sizes[count] = generated.instruction_count
        assert sizes[40] > 2 * sizes[10]
        assert sizes[160] > 2 * sizes[40]

    def test_results_consistent_across_modes(self):
        db = populate_wide_table(num_rows=300)
        sql = wide_aggregate_query(25)
        compiled = normalized(db.execute(
            sql, options=ExecOptions(mode="optimized")).rows)
        interpreted = normalized(db.execute(
            sql, options=ExecOptions(mode="bytecode")).rows)
        assert compiled == interpreted

    def test_bytecode_translation_faster_than_optimized_compile(self):
        """Section V-E: translation must stay cheap for very large queries."""
        db = populate_wide_table(num_rows=10)
        sql = wide_aggregate_query(150)
        # A full collection of the earlier tests' garbage (~50 ms) must not
        # land inside the ~12 ms translation being timed.
        gc.collect()
        bytecode = db.execute(
            sql, options=ExecOptions(mode="bytecode")).timings.compile
        optimized = db.execute(
            sql, options=ExecOptions(mode="optimized")).timings.compile
        assert bytecode < optimized
