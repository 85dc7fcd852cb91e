"""Fig. 2 -- compilation time vs execution time per execution mode (TPC-H Q1).

The paper's figure places the execution modes on a latency/throughput
trade-off curve: the LLVM IR interpreter has (almost) no compilation time but
extremely slow execution; the bytecode interpreter has tiny translation cost
and much better execution; unoptimized and optimized machine code cost
progressively more to produce and run progressively faster.  The reproduction
prints the same two columns for the four modes and asserts the ordering.
"""

from repro import ExecOptions
from repro.workloads import TPCH_QUERIES

from conftest import fmt_ms, print_table

MODES = ["ir-interp", "bytecode", "unoptimized", "optimized"]


def test_fig2_latency_throughput_tradeoff(tpch_small, benchmark):
    sql = TPCH_QUERIES[1]
    # use_cache=False: the figure plots cold compile cost per mode.
    results = {mode: tpch_small.execute(sql,
                                        options=ExecOptions(mode=mode,
                                                            use_cache=False))
               for mode in MODES}

    rows = []
    for mode in MODES:
        result = results[mode]
        rows.append([mode, fmt_ms(result.timings.compile),
                     fmt_ms(result.timings.execution)])
    print_table("Fig. 2: compilation vs execution time, TPC-H Q1",
                ["mode", "compile [ms]", "execution [ms]"], rows)

    # Shape of the trade-off (paper Fig. 2):
    # compilation cost increases along the mode ladder ...
    assert results["bytecode"].timings.compile < \
        results["unoptimized"].timings.compile < \
        results["optimized"].timings.compile
    # ... while execution time decreases.
    assert results["ir-interp"].timings.execution > \
        results["bytecode"].timings.execution > \
        results["optimized"].timings.execution
    assert results["bytecode"].timings.execution >= \
        results["unoptimized"].timings.execution

    benchmark(lambda: tpch_small.execute(sql,
                                         options=ExecOptions(mode="bytecode")))
