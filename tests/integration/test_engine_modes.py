"""Integration tests: cross-mode and cross-engine result equality."""

import datetime as dt

import pytest

from repro import Database, ExecOptions, SQLType

sys_path_conftest = None  # conftest handles sys.path

ALL_MODES = ["ir-interp", "bytecode", "unoptimized", "optimized", "adaptive",
             "volcano", "vectorized"]


def normalized(rows, digits=4):
    out = []
    for row in rows:
        out.append(tuple(round(v, digits) if isinstance(v, float) else v
                         for v in row))
    return out


@pytest.fixture(scope="module")
def sales_db():
    db = Database(morsel_size=512)
    db.create_table("sales", [("s_id", SQLType.INT64),
                              ("s_product", SQLType.INT64),
                              ("s_store", SQLType.INT64),
                              ("s_amount", SQLType.DECIMAL),
                              ("s_quantity", SQLType.INT64),
                              ("s_date", SQLType.DATE),
                              ("s_channel", SQLType.STRING)])
    db.create_table("products", [("p_id", SQLType.INT64),
                                 ("p_name", SQLType.STRING),
                                 ("p_category", SQLType.STRING),
                                 ("p_price", SQLType.DECIMAL)])
    db.create_table("stores", [("st_id", SQLType.INT64),
                               ("st_region", SQLType.STRING)])
    import random
    rng = random.Random(99)
    db.insert("products", [(i, f"product-{i}",
                            ["toys", "food", "tools"][i % 3],
                            round(rng.uniform(1, 50), 2)) for i in range(30)])
    db.insert("stores", [(i, ["north", "south", "east", "west"][i % 4])
                         for i in range(8)])
    db.insert("sales", [
        (i, rng.randrange(30), rng.randrange(8),
         round(rng.uniform(1, 500), 2), rng.randint(1, 20),
         dt.date(1996, 1, 1) + dt.timedelta(days=rng.randrange(700)),
         rng.choice(["web", "store"]))
        for i in range(4000)])
    return db


QUERIES = {
    "filter-project": """
        select s_id, s_amount * 2 as doubled from sales
        where s_quantity > 15 and s_channel = 'web' order by s_id limit 50
    """,
    "scalar-aggregate": """
        select sum(s_amount) as total, count(*) as cnt, avg(s_quantity) as aq,
               min(s_quantity) as mn, max(s_quantity) as mx
        from sales where s_date >= date '1996-06-01'
    """,
    "group-by": """
        select s_store, count(*) as cnt, sum(s_amount) as total
        from sales group by s_store order by s_store
    """,
    "join-group": """
        select p_category, st_region, sum(s_amount) as revenue, count(*) as n
        from sales, products, stores
        where s_product = p_id and s_store = st_id and p_price > 10.0
        group by p_category, st_region
        order by revenue desc limit 10
    """,
    "having": """
        select s_product, sum(s_quantity) as q from sales
        group by s_product having sum(s_quantity) > 100 order by q desc
    """,
    "case-in-between": """
        select s_store,
               sum(case when s_channel = 'web' then s_amount else 0.0 end) as web_amount,
               sum(case when s_channel = 'store' then s_amount else 0.0 end) as store_amount
        from sales
        where s_quantity between 2 and 18 and s_store in (1, 2, 3, 4, 5)
        group by s_store order by s_store
    """,
    "like-distinct": """
        select distinct p_category from products where p_name like 'product-1%'
        order by p_category
    """,
    "date-extract": """
        select year(s_date) as y, count(*) as cnt from sales
        group by year(s_date) order by y
    """,
    "empty-result": """
        select s_id from sales where s_quantity > 1000
    """,
    "cross-small": """
        select count(*) as n from products, stores where p_id = 1
    """,
}


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_all_modes_agree(sales_db, query_name):
    """Every execution mode and baseline engine returns identical results."""
    sql = QUERIES[query_name]
    reference = None
    for mode in ALL_MODES:
        result = sales_db.execute(sql, options=ExecOptions(mode=mode))
        rows = normalized(result.rows)
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"{mode} differs on {query_name}"


@pytest.mark.parametrize("mode", ["bytecode", "optimized", "adaptive"])
def test_threaded_execution_agrees(sales_db, mode):
    sql = QUERIES["join-group"]
    single = normalized(sales_db.execute(sql,
                                         options=ExecOptions(mode=mode,
                                                             threads=1)).rows)
    multi = normalized(sales_db.execute(sql,
                                        options=ExecOptions(mode=mode,
                                                            threads=4)).rows)
    assert single == multi


def test_phase_timings_populated(sales_db):
    # use_cache=False: this test measures the cold path; a plan-cache hit
    # legitimately reports 0 for the parse/bind/plan/codegen/compile phases.
    result = sales_db.execute(QUERIES["group-by"],
                              options=ExecOptions(mode="optimized",
                                                  use_cache=False))
    timings = result.timings
    assert timings.parse > 0
    assert timings.bind > 0
    assert timings.plan > 0
    assert timings.codegen > 0
    assert timings.compile > 0
    assert timings.execution > 0
    assert timings.total == pytest.approx(
        timings.parse + timings.bind + timings.plan + timings.codegen
        + timings.compile + timings.execution)


def test_compile_time_ordering(sales_db):
    """Bytecode translation is cheaper than unoptimized, which is cheaper
    than optimized compilation (paper Fig. 3)."""
    sql = QUERIES["join-group"]

    def compile_seconds(mode):
        # use_cache=False: compile is 0 on a plan-cache hit (tiers are
        # reused).  Best of three: one ~1 ms sample is at the mercy of a
        # garbage collection landing inside it.
        return min(sales_db.execute(
            sql, options=ExecOptions(mode=mode, use_cache=False)
        ).timings.compile for _ in range(3))

    assert compile_seconds("bytecode") < compile_seconds("unoptimized") \
        < compile_seconds("optimized")


def test_execution_time_ordering(sales_db):
    """Interpretation is slower than compiled execution on a large enough
    input (paper Fig. 2 / Table II)."""
    sql = "select sum(s_amount * (1 - 0.05) + s_quantity) as v from sales"
    bytecode = sales_db.execute(
        sql, options=ExecOptions(mode="bytecode")).timings.execution
    optimized = sales_db.execute(
        sql, options=ExecOptions(mode="optimized")).timings.execution
    assert optimized < bytecode


def test_pipeline_stats_reported(sales_db):
    # use_result_cache=False: pipeline stats only exist on a real
    # execution, and the shared fixture may have run this query already.
    result = sales_db.execute(QUERIES["join-group"],
                              options=ExecOptions(mode="optimized",
                                                  use_result_cache=False))
    assert len(result.pipelines) >= 3
    assert all(p.ir_instructions > 0 for p in result.pipelines)


def test_decoded_rows_returns_dates(sales_db):
    result = sales_db.execute(
        "select s_date from sales order by s_date limit 1",
        options=ExecOptions(mode="bytecode"))
    decoded = result.decoded_rows()
    assert isinstance(decoded[0][0], dt.date)


def test_unknown_mode_rejected(sales_db):
    with pytest.raises(Exception):
        sales_db.execute("select 1 from sales",
                         options=ExecOptions(mode="quantum"))


def test_overflow_detected_in_all_engine_modes():
    db = Database()
    db.create_table("big", [("v", SQLType.INT64)])
    db.insert("big", [(2 ** 62,), (2 ** 62,)])
    for mode in ("bytecode", "unoptimized", "optimized"):
        with pytest.raises(Exception):
            db.execute("select v * 4 as w from big",
                       options=ExecOptions(mode=mode))
