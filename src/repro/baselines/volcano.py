"""Volcano-style tuple-at-a-time engine (the PostgreSQL stand-in).

Executes the same physical pipeline plans as the compiled engine, but every
tuple flows through interpreted operator logic and every expression is
re-interpreted per tuple by walking the typed expression tree.  There is no
code generation and no compilation step, which is exactly the baseline
trade-off Table I / Table II of the paper illustrate: zero preparation cost,
high per-tuple overhead.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from ..catalog import Catalog
from ..codegen.runtime import (
    _TopKEntry,
    group_sort_key,
    initial_cells,
    make_sort_key_fn,
    merge_agg_partition,
    merge_join_partition,
    resolve_limit,
    round_up_pow2,
)
from ..errors import ExecutionError
from ..plan.physical import (
    AggregateSink,
    HashBuildSink,
    IntermediateSource,
    OutputSink,
    PhysFilter,
    PhysHashProbe,
    Pipeline,
    PhysicalPlan,
    TableSource,
)
from ..plan.sargs import plan_pipeline_scan
from ..types import SQLType
from .expr_eval import evaluate_expression


@dataclass
class PipelineRunStats:
    """Per-pipeline observations of one baseline execution.

    The typed equivalent of the engine executors' ``PipelineExecution``
    fields the baselines can actually measure; ``Database._execute_baseline``
    converts these onto the result for EXPLAIN ANALYZE.
    """

    name: str = ""
    description: str = ""
    rows_in: int = 0
    rows_out: Optional[int] = None
    seconds: float = 0.0
    chunks_scanned: int = 0
    chunks_pruned: int = 0


class VolcanoEngine:
    """Tuple-at-a-time interpretation of pipeline plans.

    Pipeline breakers share the compiled engine's partition-parallel
    runtime: build and aggregate rows accumulate into hash-partitioned
    partials, a merge step seals the partition tables, and probes read the
    sealed partitions -- the same lifecycle the worker contexts follow,
    with a single (the calling) worker.
    """

    def __init__(self, catalog: Catalog, use_pruning: bool = True,
                 breaker_partitions: int = 1):
        self.catalog = catalog
        self.use_pruning = use_pruning
        #: True when a LIMIT quota stopped the output scan early.
        self.early_terminated = False
        self._partitions = round_up_pow2(breaker_partitions)
        #: Zone-map pruning counters of the last execution.
        self.chunks_pruned = 0
        self.chunks_scanned = 0
        #: Breaker metrics of the last execution (`breaker_partitions_used`
        #: stays 0 until a partitioned join-build/aggregate actually runs).
        self.breaker_partitions_used = 0
        self.breaker_partial_entries = 0
        self.breaker_merge_seconds = 0.0
        #: Per-pipeline :class:`PipelineRunStats` of the last execution,
        #: consumed by EXPLAIN ANALYZE through ``Database._execute_baseline``.
        self.pipeline_stats: list[PipelineRunStats] = []
        self._current_stats: Optional[PipelineRunStats] = None
        #: Bind-parameter values of the current execution (encoded).
        self._params: tuple = ()

    # ------------------------------------------------------------------ #
    def execute(self, plan: PhysicalPlan, params=()) -> list[tuple]:
        self._params = tuple(params)
        self.early_terminated = False
        self.pipeline_stats = []
        hash_tables: dict[int, list[dict]] = {}
        intermediates: dict[str, list[dict]] = {}
        output_rows: list[tuple] = []
        output_sink: Optional[OutputSink] = None
        output_stats: Optional[PipelineRunStats] = None

        for pipeline in plan.pipelines:
            sink = pipeline.sink
            stats = PipelineRunStats(name=pipeline.name,
                                     description=pipeline.describe())
            self.pipeline_stats.append(stats)
            self._current_stats = stats
            start = time.perf_counter()
            if isinstance(sink, HashBuildSink):
                self._run_build(pipeline, sink, hash_tables, intermediates)
                stats.rows_out = sum(
                    len(bucket) for part in hash_tables[sink.join_id]
                    for bucket in part.values())
            elif isinstance(sink, AggregateSink):
                self._run_aggregate(pipeline, sink, hash_tables, intermediates)
                stats.rows_out = len(
                    intermediates[sink.intermediate.binding])
            elif isinstance(sink, OutputSink):
                output_sink = sink
                output_stats = stats
                self._run_output(pipeline, sink, hash_tables, intermediates,
                                 output_rows)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown sink {type(sink).__name__}")
            stats.seconds = time.perf_counter() - start
        self._current_stats = None

        if output_sink is None:
            raise ExecutionError("plan has no output pipeline")
        rows = _finish_output(output_rows, output_sink, self._params)
        if output_stats is not None:
            output_stats.rows_out = len(rows)
        return rows

    # ------------------------------------------------------------------ #
    # row iteration
    # ------------------------------------------------------------------ #
    def _source_rows(self, pipeline: Pipeline,
                     intermediates: dict) -> Iterator[dict]:
        source = pipeline.source
        if isinstance(source, TableSource):
            table = source.table
            binding = source.binding
            names = table.schema.column_names()
            columns = [table.column_data(name) for name in names]
            keys = [(binding, name) for name in names]
            scan = plan_pipeline_scan(pipeline, table.snapshot_rows(),
                                      self._params,
                                      use_pruning=self.use_pruning)
            self.chunks_pruned += scan.chunks_pruned
            self.chunks_scanned += scan.chunks_scanned
            stats = self._current_stats
            if stats is not None:
                stats.rows_in += scan.rows_to_scan
                stats.chunks_scanned += scan.chunks_scanned
                stats.chunks_pruned += scan.chunks_pruned
            for begin, end in scan.ranges:
                for index in range(begin, end):
                    yield {key: column[index]
                           for key, column in zip(keys, columns)}
            return
        assert isinstance(source, IntermediateSource)
        rows = intermediates.get(source.binding, [])
        if self._current_stats is not None:
            self._current_stats.rows_in += len(rows)
        for row in rows:
            yield row

    def _apply_operators(self, pipeline: Pipeline, row: dict,
                         hash_tables: dict) -> Iterator[dict]:
        """Push one source row through the pipeline's streaming operators."""
        rows = [row]
        for operator in pipeline.operators:
            if isinstance(operator, PhysFilter):
                rows = [r for r in rows
                        if evaluate_expression(operator.predicate, r, self._params)]
            elif isinstance(operator, PhysHashProbe):
                joined: list[dict] = []
                parts = hash_tables[operator.join_id]
                mask = len(parts) - 1
                for current in rows:
                    key_values = tuple(evaluate_expression(k, current, self._params)
                                       for k in operator.probe_keys)
                    key = key_values[0] if len(key_values) == 1 else key_values
                    matched = False
                    for payload in parts[hash(key) & mask].get(key, ()):
                        combined = dict(current)
                        for column, value in zip(operator.payload_columns,
                                                 payload):
                            combined[(column.binding, column.column)] = value
                        if all(evaluate_expression(p, combined, self._params)
                               for p in operator.residual):
                            matched = True
                            joined.append(combined)
                    if operator.outer and not matched:
                        # LEFT OUTER JOIN: preserve the probe row once with
                        # NULL-padded build payloads.
                        combined = dict(current)
                        for column in operator.payload_columns:
                            combined[(column.binding, column.column)] = None
                        joined.append(combined)
                rows = joined
            else:  # pragma: no cover - defensive
                raise ExecutionError(
                    f"unknown operator {type(operator).__name__}")
            if not rows:
                return
        yield from rows

    # ------------------------------------------------------------------ #
    # sinks
    # ------------------------------------------------------------------ #
    def _run_build(self, pipeline: Pipeline, sink: HashBuildSink,
                   hash_tables: dict, intermediates: dict) -> None:
        count = self._partitions
        mask = count - 1
        partial: list[dict] = [{} for _ in range(count)]
        for source_row in self._source_rows(pipeline, intermediates):
            for row in self._apply_operators(pipeline, source_row,
                                             hash_tables):
                key_values = tuple(evaluate_expression(k, row, self._params)
                                   for k in sink.build_keys)
                key = key_values[0] if len(key_values) == 1 else key_values
                payload = tuple(row[(c.binding, c.column)]
                                for c in sink.payload_columns)
                partial[hash(key) & mask].setdefault(key, []).append(payload)
        hash_tables[sink.join_id] = self._seal(partial, merge_join_partition)

    def _seal(self, partial: list[dict], merge_partition) -> list[dict]:
        """The merge step: fold the (single worker's) partials into fresh
        sealed partition tables via ``merge_partition(target, partials)``."""
        self.breaker_partitions_used = len(partial)
        self.breaker_partial_entries += sum(len(part) for part in partial)
        start = time.perf_counter()
        sealed: list[dict] = [{} for _ in partial]
        for target, part in zip(sealed, partial):
            merge_partition(target, [part])
        self.breaker_merge_seconds += time.perf_counter() - start
        return sealed

    def _run_aggregate(self, pipeline: Pipeline, sink: AggregateSink,
                       hash_tables: dict, intermediates: dict) -> None:
        count = self._partitions
        mask = count - 1
        partial: list[dict] = [{} for _ in range(count)]
        specs = list(sink.aggregates)
        for source_row in self._source_rows(pipeline, intermediates):
            for row in self._apply_operators(pipeline, source_row,
                                             hash_tables):
                key = tuple(evaluate_expression(g, row, self._params)
                            for g in sink.group_by)
                part = partial[hash(key) & mask]
                cells = part.get(key)
                if cells is None:
                    cells = part[key] = initial_cells(specs)
                for index, spec in enumerate(specs):
                    if spec.function == "count":
                        cells[index] += 1
                        continue
                    value = evaluate_expression(spec.argument, row, self._params)
                    if spec.function == "sum":
                        cells[index] += value
                    elif spec.function == "avg":
                        cells[index][0] += value
                        cells[index][1] += 1
                    elif spec.function == "min":
                        if cells[index] is None or value < cells[index]:
                            cells[index] = value
                    elif spec.function == "max":
                        if cells[index] is None or value > cells[index]:
                            cells[index] = value

        sealed = self._seal(
            partial, lambda target, parts: merge_agg_partition(
                specs, target, parts))

        items: list = []
        for part in sealed:
            items.extend(part.items())
        if not items and not sink.group_by:
            items.append(((), [_empty_cell(s) for s in specs]))
        if sink.group_by:
            # Ascending group-key order: deterministic unordered GROUP BY
            # results, identical across engines and partition counts.
            items.sort(key=lambda item: group_sort_key(item[0]))

        rows: list[dict] = []
        binding = sink.intermediate.binding
        for key, cells in items:
            row = {}
            for index in range(len(sink.group_by)):
                row[(binding, f"k{index}")] = key[index]
            for index, spec in enumerate(specs):
                value = cells[index]
                if spec.function == "avg":
                    value = value[0] / value[1] if value[1] else 0.0
                elif spec.function in ("min", "max") and value is None:
                    value = 0
                row[(binding, f"a{index}")] = value
            rows.append(row)
        intermediates[binding] = rows

    def _run_output(self, pipeline: Pipeline, sink: OutputSink,
                    hash_tables: dict, intermediates: dict,
                    output_rows: list) -> None:
        limit = resolve_limit(sink.limit, self._params)
        use_topk = (limit is not None and bool(sink.order_by)
                    and not sink.distinct)
        early_limit = (limit if limit is not None and not sink.order_by
                       and not sink.distinct else None)
        key_fn = make_sort_key_fn(sink) if use_topk else None
        heap: list = []
        for source_row in self._source_rows(pipeline, intermediates):
            for row in self._apply_operators(pipeline, source_row,
                                             hash_tables):
                values = [evaluate_expression(expr, row, self._params)
                          for _, expr in sink.output]
                keys = [evaluate_expression(expr, row, self._params)
                        for expr, _ in sink.order_by]
                full_row = tuple(values + keys)
                if use_topk:
                    if limit == 0:
                        return
                    entry = _TopKEntry(key_fn(full_row), full_row)
                    if len(heap) < limit:
                        heapq.heappush(heap, entry)
                    elif entry.key < heap[0].key:
                        heapq.heapreplace(heap, entry)
                    continue
                output_rows.append(full_row)
                if early_limit is not None and len(output_rows) >= early_limit:
                    # LIMIT without ORDER BY: any k rows satisfy the query,
                    # so stop the scan as soon as the quota is met.
                    self.early_terminated = True
                    return
        if use_topk:
            output_rows.extend(
                entry.row for entry in sorted(heap, key=lambda e: e.key))


# --------------------------------------------------------------------------- #
def _empty_cell(spec):
    if spec.function == "count":
        return 0
    if spec.function == "avg":
        return [0.0, 0]
    if spec.function in ("min", "max"):
        return None
    return 0 if spec.result_type is SQLType.INT64 else 0.0


def _finish_output(rows: list[tuple], sink: OutputSink,
                   params: tuple = ()) -> list[tuple]:
    """Apply DISTINCT / ORDER BY / LIMIT and strip the sort-key columns.

    Ordering uses the same canonical total-order key as the compiled
    engine's finish step (:func:`make_sort_key_fn`), so tie order is
    value-determined and identical across all engines.
    """
    width = len(sink.output)
    if sink.distinct:
        seen = set()
        unique = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        rows = unique
    if sink.order_by:
        rows = sorted(rows, key=make_sort_key_fn(sink))
    limit = resolve_limit(sink.limit, params)
    if limit is not None:
        rows = rows[:limit]
    return [row[:width] for row in rows]
