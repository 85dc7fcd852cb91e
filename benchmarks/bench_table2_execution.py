"""Table II -- execution times of TPC-H queries across engines.

The paper reports per-query execution times (and geometric means over all 22
queries) for PostgreSQL, MonetDB and HyPer's bytecode / unoptimized /
optimized tiers, single-threaded and with 8 threads.  The reproduction prints
the same table: the single-threaded columns are real measurements of the
Volcano baseline, the vectorized baseline and the three compiled-engine
tiers; the 8-thread columns come from the virtual-time simulator (DESIGN.md
documents the substitution).
"""

from repro import ExecOptions
from repro.adaptive import simulate_static
from repro.adaptive.simulation import profile_query
from repro.workloads import TPCH_QUERIES

from conftest import geometric_mean, print_table, tpch_query_set

THREADS = 8


def test_table2_execution_times(tpch_small, benchmark):
    headers = ["TPC-H #", "PG", "Monet", "bc.", "unopt.", "opt.",
               f"bc. {THREADS}t", f"unopt. {THREADS}t", f"opt. {THREADS}t"]
    rows = []
    columns = {key: [] for key in headers[1:]}

    for number in tpch_query_set():
        sql = TPCH_QUERIES[number]
        volcano = tpch_small.execute(
            sql, options=ExecOptions(mode="volcano")).timings.execution
        vectorized = tpch_small.execute(
            sql, options=ExecOptions(mode="vectorized")).timings.execution
        profile = profile_query(tpch_small, sql, label=f"Q{number}")
        single = {mode: sum(p.rows / p.rates[mode] for p in profile.pipelines)
                  for mode in ("bytecode", "unoptimized", "optimized")}
        # The morsel size is scaled down with the data (DESIGN.md): the
        # scaled TPC-H instance is ~1000x smaller than the paper's SF 1, so
        # a 64-tuple morsel plays the role of the paper's ~10k-tuple morsel.
        parallel = {mode: simulate_static(profile, mode, THREADS,
                                          morsel_size=64,
                                          include_planning=False
                                          ).execution_seconds
                    for mode in ("bytecode", "unoptimized", "optimized")}
        values = [volcano, vectorized, single["bytecode"],
                  single["unoptimized"], single["optimized"],
                  parallel["bytecode"], parallel["unoptimized"],
                  parallel["optimized"]]
        for key, value in zip(headers[1:], values):
            columns[key].append(value)
        rows.append([number] + [f"{v * 1000:.2f}" for v in values])

    geo = ["geo.mean"] + [f"{geometric_mean(columns[key]) * 1000:.2f}"
                          for key in headers[1:]]
    rows.append(geo)
    print_table("Table II: execution times (ms)", headers, rows)

    # Paper's qualitative claims on the geometric means:
    means = {key: geometric_mean(columns[key]) for key in headers[1:]}
    # compiled code beats the bytecode interpreter ...
    assert means["opt."] < means["bc."]
    assert means["unopt."] < means["bc."]
    # ... the tuple-at-a-time engine is the slowest execution strategy ...
    assert means["PG"] > means["opt."]
    # ... and parallel execution scales (virtual time, 8 workers).
    assert means[f"opt. {THREADS}t"] < means["opt."]
    assert means[f"bc. {THREADS}t"] < means["bc."]

    benchmark(lambda: tpch_small.execute(
        TPCH_QUERIES[6], options=ExecOptions(mode="optimized")))
