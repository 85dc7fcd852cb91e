"""Concurrent serving throughput: the scheduler + plan cache vs. naive calls.

The paper motivates adaptive compilation with interactive, many-client
workloads.  This benchmark measures what the serving layer (PR 2) plus the
plan/artifact cache (PR 1) deliver for such traffic on one shared database:

* ``serial (cold)``    -- one client, one query at a time, no cache: every
  call pays parse / bind / plan / codegen / tier compilation.  This is the
  engine's behaviour before the caching + scheduling layers existed.
* ``serial (cached)``  -- one client, one query at a time, warm plan cache.
* ``concurrent``       -- 8 client sessions submit the same stream of hot
  queries through ``Database.submit`` onto a 4-worker shared pool.

The headline number asserted below is ``concurrent vs. serial (cold)``
queries/sec (>= 2x).  Honesty note: CPython's GIL serialises the CPU-bound
morsel work, so ``concurrent`` cannot beat ``serial (cached)`` on wall
clock -- the reported win comes from the serving layer amortising
compilation across clients, which is exactly the paper's point about
compile latency dominating short queries.  The benchmark also verifies the
bounded-thread property: with 16 queries in flight, only the pool workers
(+ the shared compile thread) exist -- no per-query thread spawning.

Run as a script (CI smoke, tiny scale): ``python benchmarks/bench_concurrent_throughput.py``
Run under pytest for the benchmark fixture: ``pytest benchmarks/bench_concurrent_throughput.py``
Environment: ``REPRO_BENCH_TINY=1`` shrinks the workload, ``REPRO_BENCH_FULL=1`` grows it.
"""

from __future__ import annotations

import os
import sys
import threading
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(os.path.dirname(_HERE), "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import Database, ExecOptions, SQLType  # noqa: E402

TINY = os.environ.get("REPRO_BENCH_TINY", "") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Interactive traffic means *short* queries -- the paper's Table I / Fig. 1
#: regime where compilation dominates execution.  That is the workload a
#: serving layer exists for, so the tables are small and the queries
#: compile-heavy (joins have several pipelines).
ROWS = 1_200 if TINY else (8_000 if FULL else 2_500)
CLIENTS = 8
QUERIES_PER_CLIENT = 2 if TINY else 6
WORKERS = 4
IN_FLIGHT_TARGET = 16

#: The hot query set every client draws from (round-robin).
HOT_QUERIES = [
    "select category, sum(price) as total, count(*) as n "
    "from orders group by category order by category",
    "select c_name, sum(price) as total, count(*) as n "
    "from orders, categories where category = c_id "
    "group by c_name order by total desc",
    "select count(*) as n from orders where price > 50.0 and quantity < 5",
    "select c_name, avg(price) as ap, max(quantity) as mq "
    "from orders, categories where category = c_id and price > 10.0 "
    "group by c_name order by c_name",
]


def build_database(**kwargs) -> Database:
    db = Database(morsel_size=4096, workers=WORKERS, **kwargs)
    db.create_table("orders", [("o_id", SQLType.INT64),
                               ("category", SQLType.INT64),
                               ("price", SQLType.FLOAT64),
                               ("quantity", SQLType.INT64)])
    db.insert("orders", [(i, i % 11, (i * 37 % 1000) / 10.0, i % 9)
                         for i in range(ROWS)])
    db.create_table("categories", [("c_id", SQLType.INT64),
                                   ("c_name", SQLType.STRING)])
    db.insert("categories", [(i, f"cat-{i}") for i in range(11)])
    return db


def query_stream() -> list[str]:
    stream = []
    for client in range(CLIENTS):
        for run in range(QUERIES_PER_CLIENT):
            stream.append(HOT_QUERIES[(client + run) % len(HOT_QUERIES)])
    return stream


# --------------------------------------------------------------------------- #
# measurements
# --------------------------------------------------------------------------- #
def measure_serial(db: Database, use_cache: bool) -> float:
    """Wall seconds for one client running the whole stream back to back."""
    start = time.perf_counter()
    for sql in query_stream():
        db.execute(sql,
                   options=ExecOptions(mode="optimized", use_cache=use_cache))
    return time.perf_counter() - start


def measure_concurrent(db: Database) -> tuple[float, float, float]:
    """8 sessions submit the stream; returns (wall, mean queue, mean run)."""
    sessions = [db.session(options=ExecOptions(mode="optimized"),
                           name=f"client-{i}")
                for i in range(CLIENTS)]
    start = time.perf_counter()
    tickets = []
    for run in range(QUERIES_PER_CLIENT):
        for client, session in enumerate(sessions):
            sql = HOT_QUERIES[(client + run) % len(HOT_QUERIES)]
            tickets.append(session.submit(sql))
    results = [ticket.result(timeout=300) for ticket in tickets]
    wall = time.perf_counter() - start
    queue = sum(r.timings.queue for r in results) / len(results)
    run_time = sum(r.timings.total for r in results) / len(results)
    return wall, queue, run_time


def measure_thread_bound(db: Database) -> int:
    """Peak live threads while IN_FLIGHT_TARGET queries are in flight."""
    tickets = [db.submit(HOT_QUERIES[i % len(HOT_QUERIES)],
                         options=ExecOptions(mode="optimized",
                                             use_cache=False))
               for i in range(IN_FLIGHT_TARGET)]
    peak = threading.active_count()
    while not all(t.done() for t in tickets):
        peak = max(peak, threading.active_count())
        time.sleep(0.001)
    for ticket in tickets:
        ticket.result(timeout=300)
    return peak


def run_benchmark(report=print) -> dict:
    from conftest import fmt_ms, print_table

    # Baseline *before* the database lazily creates its pool: the bound
    # below then covers every thread this benchmark causes to exist.
    before = threading.active_count()
    db = build_database()
    try:
        total = CLIENTS * QUERIES_PER_CLIENT
        serial_cold = measure_serial(db, use_cache=False)
        db.plan_cache.clear()
        for sql in HOT_QUERIES:  # warm every hot entry once
            db.execute(sql, options=ExecOptions(mode="optimized"))
        serial_cached = measure_serial(db, use_cache=True)
        conc_wall, mean_queue, mean_run = measure_concurrent(db)
        peak = measure_thread_bound(db)

        cold_qps = total / serial_cold
        cached_qps = total / serial_cached
        conc_qps = total / conc_wall
        print_table(
            f"Concurrent serving throughput "
            f"({CLIENTS} clients x {QUERIES_PER_CLIENT} queries, "
            f"{WORKERS}-worker pool, {ROWS} rows)",
            ["configuration", "wall ms", "queries/s", "vs serial cold"],
            [["serial (cold)", fmt_ms(serial_cold), f"{cold_qps:.1f}",
              "1.00x"],
             ["serial (cached)", fmt_ms(serial_cached), f"{cached_qps:.1f}",
              f"{cached_qps / cold_qps:.2f}x"],
             ["concurrent (8 clients)", fmt_ms(conc_wall), f"{conc_qps:.1f}",
              f"{conc_qps / cold_qps:.2f}x"]])
        report(f"mean per-query wait {fmt_ms(mean_queue)} ms "
               f"vs run {fmt_ms(mean_run)} ms "
               f"(scheduler queue / PhaseTimings.queue)")
        report(f"live threads with {IN_FLIGHT_TARGET} queries in flight: "
               f"{peak} (baseline {before}, pool {WORKERS} + 1 compile)")
        return {"speedup": conc_qps / cold_qps,
                "cached_ratio": cached_qps / cold_qps,
                "threads_before": before, "threads_peak": peak,
                "scheduler": db.scheduler.stats}
    finally:
        db.close()


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
def test_concurrent_throughput_and_thread_bound():
    metrics = run_benchmark()
    # Acceptance: >= 2x queries/sec over serial execution, and no
    # per-query thread spawning while 16 queries are in flight.
    assert metrics["speedup"] >= 2.0, metrics
    assert metrics["threads_peak"] <= \
        metrics["threads_before"] + WORKERS + 1, metrics
    assert metrics["scheduler"].peak_running <= WORKERS


def test_hot_submit_latency(benchmark):
    db = build_database()
    try:
        db.execute(HOT_QUERIES[0],
                   options=ExecOptions(mode="optimized"))  # warm

        def round_trip():
            return db.submit(HOT_QUERIES[0],
                             options=ExecOptions(mode="optimized")).result(
                timeout=300)

        result = benchmark(round_trip)
        assert result.cached
    finally:
        db.close()


if __name__ == "__main__":
    metrics = run_benchmark()
    ok = (metrics["speedup"] >= 2.0
          and metrics["threads_peak"]
          <= metrics["threads_before"] + WORKERS + 1)
    print(f"\nspeedup {metrics['speedup']:.2f}x (>= 2x required) -- "
          f"{'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
