"""Per-mode workload coverage report: TPC-H and TPC-DS end-to-end.

Every execution mode is driven through the *entire* TPC-H (22 queries) and
TPC-DS (7 queries) workloads; the test counts how many queries run
end-to-end per mode and fails if any mode drops below its recorded floor.
The floors are the full workload sizes -- every query runs in every mode
today -- so any regression (a query a mode stops handling) fails this test
with a report naming the mode and the query instead of silently shrinking
the supported surface.

Run with ``-s`` to see the per-mode coverage table.
"""

from __future__ import annotations

import pytest

from repro import BASELINE_MODES, ENGINE_MODES, ExecOptions
from repro.workloads import TPCDS_QUERIES, TPCH_QUERIES, populate_tpcds

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

#: Minimum number of workload queries each mode must run end-to-end.
#: Raise a floor when a mode gains coverage; never lower one.
COVERAGE_FLOORS = {
    "tpch": {mode: len(TPCH_QUERIES) for mode in ALL_MODES},
    "tpcds": {mode: len(TPCDS_QUERIES) for mode in ALL_MODES},
}


@pytest.fixture(scope="module")
def tpcds_db():
    return populate_tpcds(fact_rows=400)


def _run_workload(db, queries, mode):
    """Execute every query of one workload in one mode; return the failures
    as ``[(query_id, error)]`` (empty means full coverage)."""
    failures = []
    for query_id in sorted(queries):
        try:
            result = db.execute(queries[query_id],
                                options=ExecOptions(mode=mode))
            assert result.rows is not None
        except Exception as exc:  # noqa: BLE001 - coverage accounting
            failures.append((query_id, f"{type(exc).__name__}: {exc}"))
    return failures


@pytest.mark.parametrize("mode", ALL_MODES)
def test_tpch_mode_coverage(tpch_db_tiny, mode):
    failures = _run_workload(tpch_db_tiny, TPCH_QUERIES, mode)
    passed = len(TPCH_QUERIES) - len(failures)
    floor = COVERAGE_FLOORS["tpch"][mode]
    print(f"\n[coverage] tpch {mode}: {passed}/{len(TPCH_QUERIES)} "
          f"(floor {floor})")
    assert passed >= floor, (
        f"TPC-H coverage regression in mode {mode!r}: "
        f"{passed}/{len(TPCH_QUERIES)} < floor {floor}; failures: {failures}")


@pytest.mark.parametrize("mode", ALL_MODES)
def test_tpcds_mode_coverage(tpcds_db, mode):
    failures = _run_workload(tpcds_db, TPCDS_QUERIES, mode)
    passed = len(TPCDS_QUERIES) - len(failures)
    floor = COVERAGE_FLOORS["tpcds"][mode]
    print(f"\n[coverage] tpcds {mode}: {passed}/{len(TPCDS_QUERIES)} "
          f"(floor {floor})")
    assert passed >= floor, (
        f"TPC-DS coverage regression in mode {mode!r}: "
        f"{passed}/{len(TPCDS_QUERIES)} < floor {floor}; "
        f"failures: {failures}")


# --------------------------------------------------------------------------- #
# static verification sweep: every workload module, both verifiers, zero
# findings -- over the pristine IR, the bytecode translation, the register
# allocation, and the optimized clone after the full pass pipeline.
# --------------------------------------------------------------------------- #
def _static_verify_module(module, label):
    from repro.analysis import (check_extern_contracts, verify_allocation,
                                verify_bytecode)
    from repro.ir import verify_function
    from repro.passes import default_pipeline
    from repro.vm import allocate_registers, translate_function

    findings = check_extern_contracts(module)
    assert findings == [], (
        f"{label}: extern-contract findings: "
        + "; ".join(str(f) for f in findings))
    for function in module.functions.values():
        verify_function(function)
        bytecode, _ = translate_function(function)
        verify_bytecode(bytecode)
        verify_allocation(function, allocate_registers(function))
        # The optimized tier's clone must stay verifiable after every pass
        # (the pipeline re-verifies per pass with verify=True) and still
        # translate to clean bytecode afterwards.
        clone = function.clone()
        default_pipeline(verify=True).run_function(clone)
        verify_function(clone)
        optimized_bytecode, _ = translate_function(clone)
        verify_bytecode(optimized_bytecode)
        verify_allocation(clone, allocate_registers(clone))


def test_tpch_static_verification_sweep(tpch_db_tiny):
    """All 22 TPC-H modules pass both verifiers with zero findings, before
    and after optimization."""
    for number in sorted(TPCH_QUERIES):
        generated, _, _ = tpch_db_tiny.generate(TPCH_QUERIES[number])
        _static_verify_module(generated.module, f"tpch q{number}")


def test_tpcds_static_verification_sweep(tpcds_db):
    """All 7 TPC-DS modules pass both verifiers with zero findings, before
    and after optimization."""
    for number in sorted(TPCDS_QUERIES):
        generated, _, _ = tpcds_db.generate(TPCDS_QUERIES[number])
        _static_verify_module(generated.module, f"tpcds q{number}")


def test_ordered_limit_workload_queries_agree_across_modes(tpch_db_tiny):
    """The TPC-H queries with ORDER BY + LIMIT (the top-k breaker's
    workload surface) return, in every mode, exactly sort-then-slice: the
    first k rows of the same query without its LIMIT (which sorts the
    full result instead of keeping bounded heaps)."""
    import re

    limit_clause = re.compile(r"\s+limit\s+(\d+)\s*$", re.IGNORECASE)
    topk_queries = [number for number, sql in TPCH_QUERIES.items()
                    if "limit" in sql.lower() and "order by" in sql.lower()]
    assert len(topk_queries) >= 5  # the workload genuinely exercises top-k
    for number in topk_queries:
        sql = TPCH_QUERIES[number].rstrip().rstrip(";")
        match = limit_clause.search(sql)
        assert match, number
        k = int(match.group(1))
        reference = tpch_db_tiny.execute(
            sql[:match.start()],
            options=ExecOptions(mode="volcano")).rows[:k]
        for mode in ALL_MODES:
            rows = tpch_db_tiny.execute(
                sql, options=ExecOptions(mode=mode)).rows
            assert rows == reference, (number, mode)
