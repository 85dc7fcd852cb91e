"""Repeated-query throughput: the prepared-query / plan-cache hot path.

The paper's Table I / Fig. 1 point is that compilation latency dominates
short queries -- which is precisely why a system serving repeated query
traffic must not re-parse, re-plan, re-generate IR and re-compile on every
call.  This benchmark shows the amortisation the plan/artifact cache buys:

* a cache hit skips parse / bind / plan / codegen *entirely* (those phases
  report 0) and reuses the compiled tier, leaving only execution time,
* the adaptive mode keeps its per-pipeline function handles, so a tier the
  Fig. 7 policy compiled once is simply the starting mode of the next run,
* an ``insert`` into a referenced table invalidates the entry and the next
  execution transparently re-prepares.
"""

import pytest

from repro import ExecOptions
from repro.backend.cost_model import CostModel, TierEstimate
from repro.workloads import TPCH_QUERIES, populate_tpch

from conftest import fmt_ms, print_table

SQL = TPCH_QUERIES[1]


@pytest.fixture(scope="module")
def repeat_db():
    """A private TPC-H instance (this benchmark mutates lineitem)."""
    return populate_tpch(scale_factor=0.3, seed=42)


def _phase_row(label, timings):
    return [label, fmt_ms(timings.parse + timings.bind), fmt_ms(timings.plan),
            fmt_ms(timings.codegen), fmt_ms(timings.compile),
            fmt_ms(timings.execution), fmt_ms(timings.total)]


def test_repeated_query_skips_preparation(repeat_db, benchmark):
    db = repeat_db
    db.plan_cache.clear()

    first = db.execute(SQL, options=ExecOptions(mode="optimized"))
    cached = db.execute(SQL, options=ExecOptions(mode="optimized"))

    print_table(
        "Repeated TPC-H Q1, optimized tier: first vs. cached execution (ms)",
        ["execution", "parse+bind", "plan", "codegen", "compile", "execute",
         "total"],
        [_phase_row("first (cold)", first.timings),
         _phase_row("cached (hit)", cached.timings)])

    # A cache hit skips the entire front end and the tier compilation.
    assert not first.cached and cached.cached
    assert first.timings.planning > 0 and first.timings.compile > 0
    assert cached.timings.parse == 0
    assert cached.timings.bind == 0
    assert cached.timings.plan == 0
    assert cached.timings.codegen == 0
    assert cached.timings.compile == 0
    assert cached.rows == first.rows

    # An insert into a referenced table invalidates the cached entry ...
    lineitem = db.catalog.table("lineitem")
    db.insert("lineitem", [lineitem.row(0)], encode=False)
    rebuilt = db.execute(SQL, options=ExecOptions(mode="optimized"))
    assert not rebuilt.cached
    assert rebuilt.timings.planning > 0
    # ... and the rebuilt plan sees the new data.
    assert rebuilt.rows != first.rows

    # Steady-state repeated execution (all artifacts cached).
    benchmark(lambda: db.execute(SQL, options=ExecOptions(mode="optimized")))


def test_adaptive_reuses_compiled_tiers(repeat_db):
    db = repeat_db
    # Free compilation + big speedups make the Fig. 7 policy switch
    # deterministically, so the reuse across executions is observable.
    model = CostModel(estimates={
        "bytecode": TierEstimate(0.0, 0.0, 1.0),
        "unoptimized": TierEstimate(0.0, 0.0, 4.0),
        "optimized": TierEstimate(0.0, 0.0, 8.0),
    })
    prepared = db.prepare_query(SQL)
    first = prepared.execute(options=ExecOptions(mode="adaptive"),
                             cost_model=model)
    # use_result_cache=False: the rerun must actually execute -- its
    # per-pipeline mode history is the observable being tested.
    second = prepared.execute(
        options=ExecOptions(mode="adaptive", use_result_cache=False),
        cost_model=model)

    rows = [[p.name, "->".join(p.mode_history)] for p in first.pipelines]
    rows += [[p.name + " (rerun)", "->".join(p.mode_history)]
             for p in second.pipelines]
    print_table("Adaptive tier reuse across executions (TPC-H Q1)",
                ["pipeline", "mode history"], rows)

    switched = [p for p in first.pipelines if len(p.mode_history) > 1]
    assert switched, "first adaptive run should switch at least one pipeline"
    # The rerun pays no compilation and starts in the compiled tier.
    assert second.timings.compile == 0.0
    assert any(p.mode_history[0] != "bytecode" for p in second.pipelines)
    assert second.rows == first.rows
