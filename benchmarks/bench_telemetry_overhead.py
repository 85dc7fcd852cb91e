"""Telemetry overhead on the hot repeated-query path.

The telemetry subsystem (metrics registry + query recorder) must be cheap
enough to leave on by default: level ``basic`` records one query's worth of
sharded counter increments and histogram observations plus a small
:class:`repro.QueryTrace`, and everything derived (cache hit rates, pool
liveness, scheduler counters) is computed at *snapshot* time, never on the
query path.  This benchmark measures exactly the scenario that discipline
protects -- a hot, plan-cached query executed back to back -- with
telemetry ``off`` vs ``basic`` and asserts the overhead stays below 3%.

Methodology: the two configurations run in alternating trials (so drift in
machine load hits both sides equally) and the *minimum* trial time per
configuration is compared -- the minimum is the least noisy location
estimate for a quantity with one-sided noise.

Run as a script (CI smoke): ``python benchmarks/bench_telemetry_overhead.py``
Run under pytest for the benchmark fixture: ``pytest benchmarks/bench_telemetry_overhead.py``
Environment: ``REPRO_BENCH_TINY=1`` shrinks the workload, ``REPRO_BENCH_FULL=1`` grows it.
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

ROWS = 1_500 if TINY else (12_000 if FULL else 4_000)
ITERATIONS = 15 if TINY else (60 if FULL else 40)
TRIALS = 5 if TINY else 7
MAX_OVERHEAD = 0.03

HOT_QUERY = ("select category, sum(price) as total, count(*) as n "
             "from orders where quantity < 7 "
             "group by category order by category")


def build_database() -> Database:
    # result_cache_size=0: the overhead comparison repeats one hot
    # query; result-cache hits would skip the instrumented execution
    # entirely and measure cache latency instead.
    db = Database(morsel_size=4096, workers=2, result_cache_size=0)
    db.create_table("orders", [("o_id", SQLType.INT64),
                               ("category", SQLType.INT64),
                               ("price", SQLType.FLOAT64),
                               ("quantity", SQLType.INT64)])
    db.insert("orders", [(i, i % 13, (i * 37 % 1000) / 10.0, i % 9)
                         for i in range(ROWS)])
    return db


def measure_trial(db: Database, telemetry: str) -> float:
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        db.execute(HOT_QUERY,
                   options=ExecOptions(mode="optimized", telemetry=telemetry))
    return time.perf_counter() - start


def run_benchmark(report=print) -> dict:
    from conftest import fmt_ms, print_table

    db = build_database()
    try:
        # Warm the plan cache and both code paths before measuring.
        db.execute(HOT_QUERY,
                   options=ExecOptions(mode="optimized", telemetry="off"))
        db.execute(HOT_QUERY,
                   options=ExecOptions(mode="optimized", telemetry="basic"))

        off_times, basic_times = [], []
        for _ in range(TRIALS):
            off_times.append(measure_trial(db, "off"))
            basic_times.append(measure_trial(db, "basic"))

        best_off = min(off_times)
        best_basic = min(basic_times)
        overhead = best_basic / best_off - 1.0
        per_query_us = (best_basic - best_off) / ITERATIONS * 1e6

        print_table(
            f"Telemetry overhead, hot cached query "
            f"({ROWS} rows, {ITERATIONS} executions/trial, {TRIALS} trials)",
            ["telemetry", "best trial ms", "per query ms"],
            [["off", fmt_ms(best_off), fmt_ms(best_off / ITERATIONS)],
             ["basic", fmt_ms(best_basic), fmt_ms(best_basic / ITERATIONS)]])
        report(f"overhead {overhead * 100:+.2f}% "
               f"({per_query_us:+.1f} us/query, limit {MAX_OVERHEAD * 100:.0f}%)")

        recorded = db.metrics.get("query.count").value
        return {"overhead": overhead, "recorded": recorded,
                "best_off": best_off, "best_basic": best_basic}
    finally:
        db.close()


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
def test_telemetry_basic_overhead_under_limit():
    metrics = run_benchmark()
    assert metrics["overhead"] < MAX_OVERHEAD, metrics
    # The "basic" trials were actually recorded (one count per execution,
    # plus the single warm-up call).
    assert metrics["recorded"] == TRIALS * ITERATIONS + 1, metrics


def test_hot_query_with_telemetry(benchmark):
    db = build_database()
    try:
        db.execute(HOT_QUERY, options=ExecOptions(mode="optimized"))  # warm

        result = benchmark(lambda: db.execute(
            HOT_QUERY,
            options=ExecOptions(mode="optimized", telemetry="basic")))
        assert result.cached
    finally:
        db.close()


if __name__ == "__main__":
    metrics = run_benchmark()
    ok = metrics["overhead"] < MAX_OVERHEAD
    print(f"\ntelemetry overhead {metrics['overhead'] * 100:+.2f}% "
          f"(< {MAX_OVERHEAD * 100:.0f}% required) -- "
          f"{'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
