"""Parameterized-query amortisation: one plan for a whole query shape.

Before bind parameters, the plan cache (PR 1) only hit on byte-identical
normalized SQL: ``where a = 1`` vs ``where a = 2`` was a full cold
parse / bind / plan / codegen / compile.  This benchmark demonstrates what
first-class parameters plus auto-parameterization buy for the paper's
"heavy repeated traffic" scenario, where clients repeat query *shapes*
with different constants:

* ``cold (literals)``  -- 100 distinct constants with the cache bypassed:
  every execution pays the whole front end and tier compilation.
* ``hot (auto-param)`` -- the same 100 literal statements through the
  default path: the literals are auto-parameterized, so all 100 collide on
  ONE cache entry -- one build, >= 99 hits.
* ``hot (explicit ?)`` -- the same shape as an explicitly prepared
  statement, rebound 100 times.

Acceptance (asserted below): >= 99% plan-cache hit rate over 100 distinct
constants of one shape, and hot execution >= 5x faster than cold.

Run as a script (CI smoke, tiny scale): ``python benchmarks/bench_parameterized_queries.py``
Run under pytest for the benchmark fixture: ``pytest benchmarks/bench_parameterized_queries.py``
Environment: ``REPRO_BENCH_TINY=1`` shrinks the table, ``REPRO_BENCH_FULL=1`` grows it.
"""

from __future__ import annotations

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(os.path.dirname(_HERE), "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import Database, ExecOptions, SQLType  # noqa: E402

TINY = os.environ.get("REPRO_BENCH_TINY", "") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Short-query regime (paper Table I / Fig. 1): compilation dominates, so
#: the table stays small and the query joins + aggregates (several
#: pipelines to generate and compile).  FULL grows the *sweep* (more
#: distinct constants to amortise over), not the data -- this benchmark
#: measures preparation amortisation, not scan throughput.
ROWS = 400 if TINY else 600
DISTINCT_CONSTANTS = 300 if FULL else 100

#: One query shape, 100 different constants.  Deliberately compile-heavy
#: (two joins -> three build/probe pipelines, CASE + several aggregates):
#: the short-query regime where preparation dominates execution.
SHAPE = ("select c_name, s_region, "
         "sum(case when quantity > 4 then price * 1.1 else price end) "
         "as total, avg(price + quantity * 0.25) as ap, count(*) as n "
         "from orders, categories, stores "
         "where category = c_id and store = s_id and o_id >= {0} "
         "and quantity < 7 and price > 1.5 "
         "group by c_name, s_region order by total desc limit 10")
PARAM_SHAPE = SHAPE.replace("{0}", "?")


def build_database(**kwargs) -> Database:
    db = Database(morsel_size=4096, **kwargs)
    db.create_table("orders", [("o_id", SQLType.INT64),
                               ("category", SQLType.INT64),
                               ("store", SQLType.INT64),
                               ("price", SQLType.FLOAT64),
                               ("quantity", SQLType.INT64)])
    db.insert("orders", [(i, i % 11, i % 5, (i * 37 % 1000) / 10.0, i % 9)
                         for i in range(ROWS)])
    db.create_table("categories", [("c_id", SQLType.INT64),
                                   ("c_name", SQLType.STRING)])
    db.insert("categories", [(i, f"cat-{i}") for i in range(11)])
    db.create_table("stores", [("s_id", SQLType.INT64),
                               ("s_region", SQLType.STRING)])
    db.insert("stores", [(i, ["north", "south", "east", "west", "mid"][i])
                         for i in range(5)])
    return db


def _constants():
    return [k * (ROWS // (2 * DISTINCT_CONSTANTS) or 1)
            for k in range(DISTINCT_CONSTANTS)]


def measure_cold(db) -> float:
    start = time.perf_counter()
    for constant in _constants():
        db.execute(SHAPE.format(constant),
                   options=ExecOptions(mode="optimized", use_cache=False))
    return time.perf_counter() - start


def measure_hot_auto(db) -> tuple[float, int, int]:
    db.plan_cache.clear()
    hits_before = db.plan_cache.stats.hits
    misses_before = db.plan_cache.stats.misses
    start = time.perf_counter()
    for constant in _constants():
        db.execute(SHAPE.format(constant),
                   options=ExecOptions(mode="optimized"))
    elapsed = time.perf_counter() - start
    return (elapsed, db.plan_cache.stats.hits - hits_before,
            db.plan_cache.stats.misses - misses_before)


def measure_hot_explicit(db) -> float:
    prepared = db.prepare_query(PARAM_SHAPE)
    prepared.execute(options=ExecOptions(mode="optimized"),
                     params=(0,))  # pay the build once
    start = time.perf_counter()
    for constant in _constants():
        prepared.execute(options=ExecOptions(mode="optimized"),
                         params=(constant,))
    return time.perf_counter() - start


def run_benchmark(report=print) -> dict:
    from conftest import fmt_ms, print_table

    db = build_database()
    try:
        cold = measure_cold(db)
        hot_auto, hits, misses = measure_hot_auto(db)
        hot_explicit = measure_hot_explicit(db)

        # Result sanity: the auto-parameterized path returns what the cold
        # literal path returns.
        probe = SHAPE.format(_constants()[len(_constants()) // 2])
        assert (db.execute(probe).rows
                == db.execute(probe,
                              options=ExecOptions(use_cache=False)).rows)

        n = DISTINCT_CONSTANTS
        hit_rate = hits / max(hits + misses, 1)
        print_table(
            f"One query shape, {n} distinct constants "
            f"({ROWS} rows, optimized tier)",
            ["configuration", "wall ms", "ms/query", "vs cold"],
            [["cold (literals, no cache)", fmt_ms(cold),
              fmt_ms(cold / n), "1.00x"],
             ["hot (auto-parameterized)", fmt_ms(hot_auto),
              fmt_ms(hot_auto / n), f"{cold / hot_auto:.2f}x"],
             ["hot (explicit ?, prepared)", fmt_ms(hot_explicit),
              fmt_ms(hot_explicit / n), f"{cold / hot_explicit:.2f}x"]])
        report(f"plan cache over the auto-parameterized sweep: "
               f"{hits} hits / {misses} miss(es) "
               f"({hit_rate:.1%} hit rate)")
        # Headline speedup: cold build-per-query vs the explicitly prepared
        # hot path (the auto-parameterized path additionally re-lexes the
        # literal SQL per call; its ratio is reported in the table above).
        return {"cold": cold, "hot_auto": hot_auto,
                "hot_explicit": hot_explicit,
                "hits": hits, "misses": misses, "hit_rate": hit_rate,
                "auto_speedup": cold / hot_auto,
                "speedup": cold / hot_explicit}
    finally:
        db.close()


def _acceptance(metrics) -> bool:
    return (metrics["hit_rate"] >= 0.99
            and metrics["hits"] >= DISTINCT_CONSTANTS - 1
            and metrics["speedup"] >= 5.0)


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
def test_parameterized_hit_rate_and_speedup():
    metrics = run_benchmark()
    # Acceptance: one build for the whole shape (>= 99% hit rate over 100
    # distinct constants) and >= 5x hot-vs-cold speedup.
    assert metrics["hit_rate"] >= 0.99, metrics
    assert metrics["hits"] >= DISTINCT_CONSTANTS - 1, metrics
    assert metrics["misses"] <= 1, metrics
    assert metrics["speedup"] >= 5.0, metrics


def test_rebind_latency(benchmark):
    db = build_database()
    try:
        prepared = db.prepare_query(PARAM_SHAPE)
        prepared.execute(options=ExecOptions(mode="optimized"),
                         params=(0,))  # warm
        constants = iter(_constants() * 1000)

        def rebind():
            return prepared.execute(options=ExecOptions(mode="optimized"),
                                    params=(next(constants),))

        result = benchmark(rebind)
        assert result.cached
    finally:
        db.close()


if __name__ == "__main__":
    metrics = run_benchmark()
    ok = _acceptance(metrics)
    print(f"\nhit rate {metrics['hit_rate']:.1%} (>= 99% required), "
          f"speedup {metrics['speedup']:.2f}x (>= 5x required) -- "
          f"{'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
