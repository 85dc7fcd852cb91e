"""Tests of the benchmark harness itself (collected by the tier-1 command)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def test_percentile_picks_the_nearest_rank_sample():
    samples = list(range(1, 201))                       # 1..200, shuffled
    samples = samples[::2] + samples[1::2]
    assert stats.percentile(samples, 50) == 100
    assert stats.percentile(samples, 95) == 190          # 10 samples beyond
    assert stats.percentile([5, 1, 3], 50, min_beyond=0) == 3


def test_p95_is_refused_under_200_samples():
    with pytest.raises(ValueError, match="p95 needs at least 10"):
        stats.percentile(range(199), 95)
    assert stats.percentile(range(200), 95) == 189


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.iqr_share(values) == pytest.approx((13.5 - 10.5) / 12.0)
    assert stats.iqr_share([7.0]) == 0.0


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
def _span(name, start, end, parent=None):
    span = tracer_module.Span(name, start, parent, None, 0)
    span.end = end
    return span


def test_self_time_subtracts_the_cover_of_child_spans():
    root = _span("op", 0.0, 10.0)
    first = _span("parse", 1.0, 4.0, root)
    overlapping = _span("bind", 3.0, 6.0, root)          # overlaps `first`
    outside = _span("late", 9.0, 12.0, root)             # clipped at 10
    grandchild = _span("lex", 1.5, 2.0, first)
    seconds = tracer_module.self_times(
        [root, first, overlapping, outside, grandchild])
    assert seconds[root] == pytest.approx(10.0 - (5.0 + 1.0))
    assert seconds[first] == pytest.approx(3.0 - 0.5)
    assert seconds[grandchild] == pytest.approx(0.5)
    assert tracer_module.covered([(0, 1), (5, 9)], 0.0, 6.0) == 2.0


def test_tracer_restores_every_wrapped_entry_point():
    from repro import Database, sqlparser
    before = (sqlparser.parse, Database.execute)
    tracer = tracer_module.Tracer()
    with tracer:
        assert sqlparser.parse is not before[0]
        sqlparser.parse("select 1 as x from region")
    assert (sqlparser.parse, Database.execute) == before
    assert [span.name for span in tracer.spans] == ["sqlparser.parse"]


# --------------------------------------------------------------------- #
# oracle
# --------------------------------------------------------------------- #
def test_rewriter_ports_all_22_queries_to_sqlite():
    assert oracle.EXCLUDED_TPCH == {}, "the exclusion list grew"
    queries = oracle.tpch_oracle_queries()
    assert sorted(queries) == list(range(1, 23))
    database = workloads.tpch_database(0.05)
    sqlite = oracle.Oracle(database)
    try:
        for number, sql in queries.items():
            assert "date '" not in sql and "year(" not in sql, number
            sqlite.query(sql)                            # parses and runs
    finally:
        sqlite.close()
        database.close()
    assert oracle.to_sqlite_sql("year(o_orderdate) >= date '1995-01-01'") \
        == "cast(strftime('%Y', o_orderdate) as integer) >= '1995-01-01'"


def test_rows_match_tolerance_order_and_the_missing_null():
    assert oracle.rows_match([(1, 2.0000001)], [(1, 2.0)], ordered=True)
    assert not oracle.rows_match([(1, 2.001)], [(1, 2.0)], ordered=True)
    assert oracle.rows_match([(2, "b"), (1, "a")], [(1, "a"), (2, "b")],
                             ordered=False)
    assert not oracle.rows_match([(2, "b"), (1, "a")], [(1, "a"), (2, "b")],
                                 ordered=True)
    assert oracle.rows_match([(0.0,)], [(None,)], ordered=True)


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def _operations(seed: int) -> bytes:
    workload = workloads.HotMixedRW(seed, smoke=True)
    try:
        workload.set_up()
        return repr(workload.ops).encode()
    finally:
        workload.tear_down()


def test_operation_lists_are_a_function_of_the_seed():
    assert _operations(5) == _operations(5)
    assert _operations(5) != _operations(6)


def test_compare_verdicts():
    assert compare.verdict(100, 89, "higher", 0.10, 0.02) == "worse"
    assert compare.verdict(100, 111, "higher", 0.10, 0.02) == "better"
    assert compare.verdict(100, 111, "lower", 0.10, 0.02) == "worse"
    assert compare.verdict(100, 105, "lower", 0.10, 0.02) == "same"
    assert compare.verdict(100, 150, "lower", 0.10, 0.12) == "unresolved"


def test_smoke_suite_emits_exactly_what_benchmark_json_declares(tmp_path):
    out = tmp_path / "smoke.json"
    assert run.run_suite(seed=3, seconds=1, smoke=True, out=out) == 0
    report = json.loads(out.read_text())
    declared = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in declared["workloads"]]
    assert list(report["end_to_end"]) == names == list(workloads.WORKLOADS)
    for name in names:
        assert set(report["end_to_end"][name]["metrics"]) == \
            {metric["name"] for metric in declared["end_to_end"]}
        assert set(report["per_layer"][name]) == \
            {metric["name"] for metric in declared["per_layer"]}
        assert report["end_to_end"][name]["failed_share"] == 0
    assert all(report["detail"][name]["exact_counts_differ"] is None
               for name in names if name.startswith("tpch_cold"))
    rows, regressed = compare.compare(report, report)
    assert not regressed and len(rows) == len(names) * 4
