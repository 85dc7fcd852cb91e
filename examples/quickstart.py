"""Quickstart: create tables, load data, run queries in every execution mode.

Run with:  python examples/quickstart.py
"""

import datetime as dt
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import Database, ExecOptions, SQLType, connect


def main() -> None:
    db = Database()

    # --- schema ---------------------------------------------------------
    db.create_table("customers", [
        ("c_id", SQLType.INT64),
        ("c_name", SQLType.STRING),
        ("c_segment", SQLType.STRING),
        ("c_balance", SQLType.DECIMAL),
    ])
    db.create_table("orders", [
        ("o_id", SQLType.INT64),
        ("o_customer", SQLType.INT64),
        ("o_total", SQLType.DECIMAL),
        ("o_date", SQLType.DATE),
    ])

    # --- data -------------------------------------------------------------
    rng = random.Random(0)
    segments = ["consumer", "corporate", "home office"]
    db.insert("customers", [
        (i, f"customer-{i}", rng.choice(segments),
         round(rng.uniform(-500, 5000), 2))
        for i in range(200)])
    db.insert("orders", [
        (i, rng.randrange(200), round(rng.uniform(10, 900), 2),
         dt.date(1997, 1, 1) + dt.timedelta(days=rng.randrange(720)))
        for i in range(20_000)])

    sql = """
        select c_segment,
               count(*) as num_orders,
               sum(o_total) as revenue,
               avg(o_total) as avg_order
        from orders, customers
        where o_customer = c_id
          and o_date >= date '1997-06-01'
          and c_balance > 0.0
        group by c_segment
        order by revenue desc
    """

    print("query:")
    print(sql)

    # --- one query, every execution strategy -------------------------------
    for mode in ("adaptive", "bytecode", "unoptimized", "optimized",
                 "volcano", "vectorized"):
        result = db.execute(sql, options=ExecOptions(mode=mode))
        timings = result.timings
        print(f"[{mode:>11}] total={timings.total * 1000:7.2f} ms  "
              f"(plan {timings.planning * 1000:5.2f}, "
              f"codegen {timings.codegen * 1000:5.2f}, "
              f"compile {timings.compile * 1000:6.2f}, "
              f"execute {timings.execution * 1000:6.2f})")

    result = db.execute(sql, options=ExecOptions(mode="adaptive"))
    print("\nresult rows:")
    for row in result.rows:
        segment, count, revenue, avg_order = row
        print(f"  {segment:12s}  orders={count:5d}  "
              f"revenue={revenue:12.2f}  avg={avg_order:7.2f}")

    # --- prepared queries: plan + compile once, execute many times ---------
    # Database.execute already consults the plan cache transparently (the
    # executions above shared one cached plan); prepare_query exposes the
    # same machinery explicitly.  Re-executions skip parsing, planning and
    # code generation entirely and reuse the compiled tiers, so only the
    # execution phase remains -- the hot path for repeated query traffic.
    prepared = db.prepare_query(sql)
    rerun = prepared.execute(options=ExecOptions(mode="optimized"))
    print(f"\nprepared re-execution (optimized): "
          f"plan+codegen {1000 * (rerun.timings.planning + rerun.timings.codegen):.2f} ms, "
          f"compile {rerun.timings.compile * 1000:.2f} ms, "
          f"execute {rerun.timings.execution * 1000:.2f} ms")
    stats = db.plan_cache.stats
    print(f"plan cache: {stats.hits} hits / {stats.lookups} lookups "
          f"({stats.hit_rate:.0%}); an insert into 'orders' or 'customers' "
          f"would invalidate the entry")

    # --- bind parameters: one plan for a whole query shape ------------------
    # Placeholders (? positional, :name named) keep literals out of the
    # generated code, so one compiled artifact serves every binding; plain
    # literal SQL gets the same treatment transparently via
    # auto-parameterization (differing constants collide on one cache
    # entry).
    by_segment = db.prepare_query(
        "select count(*) as n, sum(o_total) as revenue "
        "from orders, customers "
        "where o_customer = c_id and c_segment = :segment "
        "and o_total >= :floor")
    print("\nparameterized prepared query, rebound per segment:")
    for segment in segments:
        result = by_segment.execute(params={"segment": segment,
                                            "floor": 100})
        count, revenue = result.rows[0]
        print(f"  {segment:12s}  orders={count:5d}  revenue={revenue:11.2f}")

    # --- batch bindings + the result cache ---------------------------------
    # execute_many fuses many bindings of one shape into a single pass:
    # the plan is resolved and validated once, every binding is encoded
    # up front, and identical bindings are deduplicated.  Repeated
    # identical reads are served from the semantic result cache
    # (invalidated by catalog versions, so an insert is always visible);
    # ExecOptions(use_result_cache=False) forces real execution.
    batch = db.execute_many(
        "select count(*) as n from orders where o_customer < ?",
        [(25,), (50,), (25,), (100,)])
    print("\nexecute_many over one prepared shape:")
    for (binding,), result in zip([(25,), (50,), (25,), (100,)], batch):
        print(f"  o_customer<{binding:3d}: rows={result.rows[0][0]:5d}  "
              f"cached={result.cached} ({result.cache_source or 'executed'})")
    rc = db.result_cache.stats
    print(f"result cache: {rc.hits} hits / {rc.lookups} lookups, "
          f"{len(db.result_cache)} entries ({rc.bytes} bytes)")

    # --- concurrent submission: tickets, sessions, admission control -------
    # Database.submit enqueues a query and returns immediately; the query
    # runs on the database's shared worker pool (bounded threads, fair
    # round-robin across queries) once admission control lets it through.
    # Sessions carry per-client defaults (one ExecOptions) and statistics.
    # Here every client submits the same parameterized shape with its own
    # constant -- all of them served by a single cached plan, concurrently.
    print("\nconcurrent submission (8 clients on the shared pool):")
    param_sql = ("select count(*) as n, sum(o_total) as revenue "
                 "from orders where o_customer < ?")
    clients = [db.session(options=ExecOptions(mode="adaptive"),
                          name=f"client-{i}")
               for i in range(8)]
    tickets = [client.submit(param_sql, params=((i + 1) * 25,))
               for i, client in enumerate(clients)]
    for client, ticket in zip(clients, tickets):
        result = ticket.result(timeout=60)
        timings = result.timings
        print(f"  {client.name}: rows={result.rows[0][0]:6d}  "
              f"waited {timings.queue * 1000:6.2f} ms, "
              f"ran {timings.total * 1000:6.2f} ms "
              f"(cached={result.cached})")
    sched = db.scheduler.stats
    print(f"scheduler: {sched.completed} completed, "
          f"peak {sched.peak_running} running / "
          f"{sched.peak_pending} queued")

    # --- telemetry: EXPLAIN ANALYZE, metrics snapshot, exporters ------------
    # EXPLAIN ANALYZE runs the statement and annotates every pipeline with
    # observed cardinalities and timings; it works in all execution modes
    # and through every entry point (execute, submit, sessions).
    print("\nEXPLAIN ANALYZE:")
    analyzed = db.execute(f"explain analyze {sql}",
                          options=ExecOptions(mode="adaptive"))
    for (line,) in analyzed.rows:
        print(f"  {line}")

    # Every engine-mode result carries a unified lifecycle trace: phase and
    # pipeline spans, plus adaptive tier switches with the cost-model
    # trigger that caused them (telemetry="off" disables recording).
    trace = analyzed.query_trace
    print(f"\nquery {trace.query_id}: {len(trace.spans)} spans, "
          f"{len(trace.tier_switches)} tier switches")

    # Database.metrics aggregates engine-wide counters -- queries by mode,
    # latency histograms, plan-cache hit rate, scheduler queue depth,
    # storage pruning -- as a nested dict, JSON lines, or Prometheus text.
    snapshot = db.metrics.snapshot()
    print(f"metrics: {snapshot['query']['count']} queries recorded, "
          f"cache hit rate {snapshot['plan_cache']['hit_rate']:.0%}, "
          f"p95 latency {snapshot['query']['seconds']['p95'] * 1000:.2f} ms")
    prometheus = db.metrics.to_prometheus()
    print(f"prometheus export: {len(prometheus.splitlines())} lines "
          f"(first: {prometheus.splitlines()[0]!r})")

    # --- network serving: TCP server + blocking client ---------------------
    # Database.serve() starts an asyncio TCP server over the scheduler
    # (port=0 binds an ephemeral port); repro.connect() is the matching
    # client library.  Prepared statements live server-side per connection
    # but share the engine's plan cache across all of them; admission
    # control surfaces to clients as BUSY protocol errors instead of
    # unbounded queueing, and results stream back in bounded row batches.
    print("\nnetwork serving:")
    server = db.serve()
    conn = connect(*server.address, session_name="quickstart")
    stmt = conn.prepare("select count(*) as n, sum(o_total) as revenue "
                        "from orders where o_customer < :c")
    print(f"  prepared statement {stmt.statement_id}: "
          f"params={[(n, t.value) for n, t in stmt.parameters]}")
    for c in (50, 150):
        wired = stmt.execute(params={"c": c}, timeout=60)
        print(f"  c<{c}: rows={wired.rows[0][0]:6d}  mode={wired.mode}  "
              f"cached={wired.cached}")
    adhoc = conn.execute("select max(o_total) as m from orders",
                         mode="volcano", timeout=60)
    print(f"  ad-hoc over the wire (volcano): {adhoc.rows[0][0]:.2f}")
    print(f"  server metrics: "
          f"{db.metrics.get('server.requests_total.execute').value} "
          f"executes, "
          f"{db.metrics.get('server.bytes_sent').value} bytes sent")
    conn.close()
    db.close()  # drains the server, then joins the pool + compile thread


if __name__ == "__main__":
    main()
