"""Adaptive execution in action: per-pipeline mode switches and the Fig. 14
style execution trace.

The script loads a scaled TPC-H instance, runs query 11 adaptively, prints
which execution mode every pipeline ended up using (small pipelines stay in
the bytecode interpreter, expensive pipelines get compiled) together with the
measured morsel timeline of that run, and then renders the virtual-time
multi-threaded trace the paper's Fig. 14 shows.

Run with:  python examples/adaptive_trace.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro import ExecOptions
from repro.adaptive import render_trace, simulate_adaptive, simulate_static
from repro.adaptive.simulation import cost_model_from_profiles, profile_query
from repro.workloads import TPCH_QUERIES, populate_tpch


def main() -> None:
    print("loading scaled TPC-H data ...")
    db = populate_tpch(scale_factor=0.2)
    sql = TPCH_QUERIES[11]

    # --- real adaptive execution ------------------------------------------
    # Telemetry level "trace" bypasses the result cache, so the attached
    # query trace always shows a real execution.
    result = db.execute(sql,
                        options=ExecOptions(mode="adaptive",
                                            telemetry="trace"))
    print(f"\nadaptive execution of TPC-H Q11 "
          f"({result.timings.total * 1000:.1f} ms total):")
    for pipeline in result.pipelines:
        modes = " -> ".join(pipeline.mode_history)
        print(f"  {pipeline.name:<22} rows={pipeline.rows:7d} "
              f"morsels={pipeline.morsels:4d} modes: {modes}")
    print()
    print(render_trace(result.query_trace, width=90))

    # --- Fig. 14 style virtual-time trace with 4 worker threads ------------
    print("\nprofiling the query for the 4-thread trace ...")
    profile = profile_query(db, sql, label="TPC-H Q11")
    cost_model = cost_model_from_profiles([profile])

    for label, run in (
            ("bytecode", simulate_static(profile, "bytecode", 4,
                                         morsel_size=64)),
            ("unoptimized", simulate_static(profile, "unoptimized", 4,
                                            morsel_size=64)),
            ("adaptive", simulate_adaptive(profile, 4, cost_model=cost_model,
                                           morsel_size=64,
                                           initial_morsel_size=16))):
        print()
        print(render_trace(run.trace, width=90))
        print(f"{label}: total {run.total_seconds * 1000:.2f} ms "
              f"(compilation {run.compile_seconds * 1000:.2f} ms)")


if __name__ == "__main__":
    main()
