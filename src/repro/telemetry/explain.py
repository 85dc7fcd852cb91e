"""EXPLAIN / EXPLAIN ANALYZE: annotated plans through the statement API.

``EXPLAIN <select>`` is recognized from its first words in front of the
parser (the SQL dialect itself is SELECT-only) and routed by
``Database.execute`` -- and therefore transparently by ``submit`` and
sessions too:

* ``EXPLAIN <sql>`` plans the statement without executing it and returns
  the pipeline-decomposed physical plan with optimizer row estimates.
* ``EXPLAIN ANALYZE <sql>`` executes the statement (in whatever execution
  mode the options select -- all 5 engine tiers and both baselines) and
  annotates every pipeline with measured rows in/out, morsel counts,
  wall-clock seconds, the tier history, and scan-pruning detail.

The returned :class:`~repro.engine.QueryResult` carries one plan-text row
per line (column ``plan``) plus the structured :class:`ExplainResult` on
``result.explain``; for ANALYZE, ``result.explain.result`` holds the inner
query's full result so callers can cross-check cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sqlparser.lexer import next_word


def split_explain(sql: str) -> tuple[Optional[str], str]:
    """``(kind, inner_sql)`` where kind is ``"plan"`` / ``"analyze"`` / None.

    ``None`` means the statement is not an EXPLAIN and must be executed
    as-is.  Lexes only the statement's first tokens, so comments before
    or between ``EXPLAIN`` and ``ANALYZE`` are skipped as anywhere else;
    ``inner_sql`` starts at the first token after the prefix.
    """
    word, _, end = next_word(sql)
    if word != "explain":
        return None, sql
    word, start, end = next_word(sql, end)
    if word == "analyze":
        _, start, _ = next_word(sql, end)
        return "analyze", sql[start:]
    return "plan", sql[start:]


@dataclass
class PipelineAnnotation:
    """One pipeline of an explained plan, with measurements if analyzed."""

    name: str
    description: str
    estimated_rows: float = 0.0
    #: Rows entering the pipeline (after scan pruning); None when unknown.
    rows_in: Optional[int] = None
    #: Rows leaving the pipeline through its sink (hash-table entries for a
    #: build, groups for an aggregation, result rows for the output sink).
    rows_out: Optional[int] = None
    morsels: Optional[int] = None
    seconds: Optional[float] = None
    mode_history: list[str] = field(default_factory=list)
    chunks_scanned: Optional[int] = None
    chunks_pruned: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "estimated_rows": self.estimated_rows,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "morsels": self.morsels,
            "seconds": self.seconds,
            "mode_history": self.mode_history,
            "chunks_scanned": self.chunks_scanned,
            "chunks_pruned": self.chunks_pruned,
        }


@dataclass
class ExplainResult:
    """The structured outcome of EXPLAIN / EXPLAIN ANALYZE."""

    sql: str
    mode: str
    analyzed: bool
    pipelines: list[PipelineAnnotation]
    #: Total / per-phase seconds (ANALYZE only; the inner PhaseTimings).
    timings: Optional[object] = None
    #: The inner query's full result (ANALYZE only).
    result: Optional[object] = None

    @property
    def output_rows(self) -> Optional[int]:
        """Measured result cardinality (the output pipeline's rows_out)."""
        if not self.pipelines:
            return None
        return self.pipelines[-1].rows_out

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        lines = [self._header()]
        for annotation in self.pipelines:
            lines.append(f"{annotation.name}: {annotation.description}")
            detail = self._detail(annotation)
            if detail:
                lines.append(f"    {detail}")
        if self.analyzed and self.result is not None:
            trace = getattr(self.result, "query_trace", None)
            if trace is not None:
                for event in getattr(trace, "tier_switches", ()):
                    lines.append(
                        f"    tier switch: {event.pipeline} "
                        f"{event.from_mode}->{event.to_mode} at "
                        f"{event.at * 1000:.2f} ms")
        return "\n".join(lines)

    def _header(self) -> str:
        if not self.analyzed:
            return f"EXPLAIN (mode={self.mode})"
        parts = [f"EXPLAIN ANALYZE (mode={self.mode}"]
        if self.timings is not None:
            parts.append(f", total={self.timings.total * 1000:.2f} ms"
                         f", execution={self.timings.execution * 1000:.2f} ms")
        if self.output_rows is not None:
            parts.append(f", rows={self.output_rows}")
        if self.result is not None and getattr(self.result, "cached", False):
            source = getattr(self.result, "cache_source", None)
            label = ("result-cache" if source == "result" else "plan-cache")
            parts.append(f", cached={label}")
        return "".join(parts) + ")"

    @staticmethod
    def _detail(a: PipelineAnnotation) -> str:
        parts: list[str] = []
        if not a.mode_history and a.rows_in is None:
            # Plain EXPLAIN: only the optimizer estimate is available.
            return f"estimated rows={a.estimated_rows:.0f}"
        if a.rows_in is not None:
            rows = f"rows={a.rows_in}"
            if a.rows_out is not None:
                rows += f" -> {a.rows_out}"
            parts.append(rows)
        if a.morsels is not None:
            parts.append(f"morsels={a.morsels}")
        if a.seconds is not None:
            parts.append(f"time={a.seconds * 1000:.2f} ms")
        if a.mode_history:
            parts.append(f"modes={'->'.join(a.mode_history)}")
        if a.chunks_scanned is not None and a.chunks_pruned is not None \
                and (a.chunks_scanned or a.chunks_pruned):
            parts.append(f"chunks={a.chunks_scanned} scanned"
                         f"/{a.chunks_pruned} pruned")
        return " | ".join(parts)

    def to_dict(self) -> dict:
        out = {
            "sql": self.sql,
            "mode": self.mode,
            "analyzed": self.analyzed,
            "pipelines": [a.to_dict() for a in self.pipelines],
            "output_rows": self.output_rows,
        }
        if self.timings is not None:
            out["total_seconds"] = self.timings.total
            out["execution_seconds"] = self.timings.execution
        return out


# ---------------------------------------------------------------------- #
def build_explain_plan(sql: str, planning, mode: str) -> ExplainResult:
    """EXPLAIN (no execution): plan structure plus optimizer estimates."""
    annotations = [
        PipelineAnnotation(name=f"P{pipeline.pipeline_id}",
                           description=pipeline.describe(),
                           estimated_rows=pipeline.estimated_rows)
        for pipeline in planning.physical.pipelines
    ]
    return ExplainResult(sql=sql, mode=mode, analyzed=False,
                         pipelines=annotations)


def build_explain_analyze(sql: str, result) -> ExplainResult:
    """EXPLAIN ANALYZE: per-pipeline measurements from an executed result.

    ``result`` is the inner :class:`~repro.engine.QueryResult`; every
    execution path (static / parallel / adaptive / both baselines) fills
    ``result.pipelines`` with per-pipeline stats including ``description``
    and ``rows_out``, which is all this builder needs.
    """
    annotations = []
    for stats in result.pipelines:
        annotations.append(PipelineAnnotation(
            name=stats.name,
            description=stats.description,
            rows_in=stats.rows,
            rows_out=stats.rows_out,
            morsels=stats.morsels,
            seconds=stats.seconds,
            mode_history=list(stats.mode_history),
            chunks_scanned=stats.chunks_scanned,
            chunks_pruned=stats.chunks_pruned))
    return ExplainResult(sql=sql, mode=result.mode, analyzed=True,
                         pipelines=annotations, timings=result.timings,
                         result=result)
