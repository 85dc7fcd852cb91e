"""EXPLAIN / EXPLAIN ANALYZE equivalence across all execution modes.

EXPLAIN ANALYZE actually runs the statement, so its annotated plan must
agree with the plain execution's result in every mode: identical output
cardinality, one annotation per executed pipeline, real (non-negative)
timings.  A representative TPC-H sample exercises multi-pipeline plans
(joins + aggregation + top-k).
"""

from __future__ import annotations

import pytest

from repro import BASELINE_MODES, ENGINE_MODES, ExecOptions
from repro.workloads import TPCH_QUERIES

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

#: Queries with scans, joins, aggregation, ORDER BY + LIMIT.
SAMPLE_QUERIES = [1, 3, 6, 11]


class TestExplainAnalyzeEquivalence:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_row_counts_match_plain_execution(self, tpch_db_tiny, mode):
        for query_id in SAMPLE_QUERIES:
            sql = TPCH_QUERIES[query_id]
            plain = tpch_db_tiny.execute(sql, options=ExecOptions(mode=mode))
            analyzed = tpch_db_tiny.execute(f"EXPLAIN ANALYZE {sql}",
                                            options=ExecOptions(mode=mode))
            explain = analyzed.explain
            assert explain is not None, (mode, query_id)
            assert explain.analyzed
            assert explain.mode == mode
            assert explain.output_rows == len(plain.rows), (mode, query_id)
            # One annotation per executed pipeline, all with real stats.
            assert len(explain.pipelines) == len(analyzed.pipelines)
            for annotation in explain.pipelines:
                assert annotation.description, (mode, query_id)
                assert annotation.seconds >= 0.0
                assert annotation.rows_in >= 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_explain_without_analyze_does_not_execute(self, tpch_db_tiny,
                                                      mode):
        sql = TPCH_QUERIES[6]
        before = tpch_db_tiny.metrics.get("query.count").value
        result = tpch_db_tiny.execute(f"EXPLAIN {sql}",
                                      options=ExecOptions(mode=mode))
        explain = result.explain
        assert not explain.analyzed
        assert explain.pipelines  # plan annotations with estimates only
        assert all(a.rows_out is None for a in explain.pipelines)
        # Plain EXPLAIN never runs the query (the recorder saw nothing).
        assert tpch_db_tiny.metrics.get("query.count").value == before

    def test_analyze_text_output_shape(self, tpch_db_tiny):
        sql = TPCH_QUERIES[3]
        result = tpch_db_tiny.execute(f"explain analyze {sql}")
        assert result.column_names == ["plan"]
        text = "\n".join(row[0] for row in result.rows)
        assert "EXPLAIN ANALYZE" in text
        assert "rows=" in text

    def test_structured_explain_api(self, tpch_db_tiny):
        explain = tpch_db_tiny.explain(TPCH_QUERIES[6], analyze=True,
                                       options=ExecOptions(mode="optimized"))
        assert explain.analyzed
        data = explain.to_dict()
        assert data["mode"] == "optimized"
        assert data["pipelines"]

    def test_analyze_row_results_match_via_submit(self, tpch_db_tiny):
        """EXPLAIN ANALYZE routes transparently through the scheduler."""
        sql = TPCH_QUERIES[6]
        ticket = tpch_db_tiny.submit(f"EXPLAIN ANALYZE {sql}",
                                     options=ExecOptions(mode="bytecode"))
        result = ticket.result(timeout=120)
        plain = tpch_db_tiny.execute(sql, options=ExecOptions(mode="bytecode"))
        assert result.explain.output_rows == len(plain.rows)
