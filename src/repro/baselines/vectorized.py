"""Column-at-a-time engine over numpy (the MonetDB stand-in).

Every operator consumes and produces whole columns: filters become boolean
masks, joins gather build-side payload columns through index arrays,
aggregation uses ``np.unique``-based grouping.  Like MonetDB there is no
per-query compilation; preparation cost is only planning.

Pipeline breakers run as **batch kernels**: the join build materialises its
key and payload columns (no per-row dict inserts), the probe matches whole
key vectors at once (factorise both sides over a shared vocabulary, sort
the build side, ``searchsorted`` the probe side, then expand matches with
``repeat``/``cumsum`` arithmetic), and GROUP BY -- including multi-key
grouping and MIN/MAX -- reduces via integer group codes, ``bincount`` and
``reduceat`` over the chunk-cached numpy columns.  Where the data rules a
kernel out -- a key domain too wide for int64 codes, NaN keys, NaN or
object-typed MIN/MAX arguments -- the same operator falls back to a
row-at-a-time loop with identical results, including the ascending
group-key order.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..catalog import Catalog
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
from ..codegen.runtime import resolve_limit
from ..plan.sargs import plan_pipeline_scan
from ..types import SQLType
from .expr_eval import evaluate_expression_vectorized
from .volcano import PipelineRunStats, _finish_output

#: Combined group/join codes stay below this bound so the per-column
#: factor products fit comfortably in int64; larger key domains fall back
#: to the row-at-a-time path.
_MAX_CODE_DOMAIN = 1 << 62


def _has_nan(vector) -> bool:
    """Whether a float key vector contains NaN.

    ``np.unique`` over codes would collapse NaNs to one key, so NaN-bearing
    key vectors take the row-at-a-time fallback instead.
    (NaN *semantics* remain this engine's historical ones: NaN join keys
    never match, and the single-key row-at-a-time grouping itself groups
    NaNs via ``np.unique``.  The dict-based engines resolve NaN keys by
    object identity, so exact cross-engine NaN-key agreement is not a
    guarantee anywhere -- see DESIGN.md.)
    """
    return vector.dtype.kind == "f" and bool(np.isnan(vector).any())


def _factorize_columns(vectors):
    """Combine one side's key columns into int64 codes (ascending order).

    Returns ``None`` when the combined key domain could overflow int64 or
    a key column contains NaN.  Codes order like the column tuples do
    (each per-column code is the rank of the value), so ``np.unique`` over
    the codes yields groups in ascending lexicographic key order.
    """
    codes = None
    domain = 1
    for vector in vectors:
        vector = np.asarray(vector)
        if _has_nan(vector):
            return None
        _, inverse, counts = np.unique(vector,
                                       return_inverse=True,
                                       return_counts=True)
        size = len(counts)
        domain *= max(size, 1)
        if domain > _MAX_CODE_DOMAIN:
            return None
        inverse = inverse.astype(np.int64).reshape(-1)
        codes = inverse if codes is None else codes * size + inverse
    return codes


def _factorize_pair(build_vectors, probe_vectors):
    """Factorize key columns over a vocabulary shared by both join sides."""
    build_codes = None
    probe_codes = None
    domain = 1
    for build, probe in zip(build_vectors, probe_vectors):
        build = np.asarray(build)
        probe = np.asarray(probe)
        if _has_nan(build) or _has_nan(probe):
            return None, None
        both = np.concatenate([build, probe]) if (len(build) or len(probe)) \
            else build
        _, inverse = np.unique(both, return_inverse=True)
        inverse = inverse.astype(np.int64).reshape(-1)
        size = int(inverse.max()) + 1 if len(inverse) else 1
        domain *= max(size, 1)
        if domain > _MAX_CODE_DOMAIN:
            return None, None
        cb = inverse[:len(build)]
        cp = inverse[len(build):]
        if build_codes is None:
            build_codes, probe_codes = cb, cp
        else:
            build_codes = build_codes * size + cb
            probe_codes = probe_codes * size + cp
    return build_codes, probe_codes


def _batch_match(build_codes, probe_codes):
    """All (probe row, build row) matches of two code vectors.

    The build side is grouped by a stable argsort (so matches keep build
    insertion order, exactly like the dict path), the probe side is matched
    via ``searchsorted`` and expanded arithmetically -- no per-row Python.
    """
    num_probe = len(probe_codes)
    empty = np.empty(0, dtype=np.int64)
    if len(build_codes) == 0 or num_probe == 0:
        return empty, empty
    unique_codes, build_inverse = np.unique(build_codes, return_inverse=True)
    build_inverse = build_inverse.reshape(-1)
    order = np.argsort(build_inverse, kind="stable")
    counts = np.bincount(build_inverse, minlength=len(unique_codes))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    positions = np.searchsorted(unique_codes, probe_codes)
    clipped = np.minimum(positions, len(unique_codes) - 1)
    valid = unique_codes[clipped] == probe_codes
    match_counts = np.where(valid, counts[clipped], 0)
    total = int(match_counts.sum())
    if total == 0:
        return empty, empty
    probe_idx = np.repeat(np.arange(num_probe, dtype=np.int64), match_counts)
    out_offsets = np.cumsum(match_counts) - match_counts
    within = np.arange(total, dtype=np.int64) - np.repeat(out_offsets,
                                                          match_counts)
    build_pos = np.repeat(np.where(valid, starts[clipped], 0),
                          match_counts) + within
    return probe_idx, order[build_pos]


class VectorizedEngine:
    """Column-at-a-time execution of pipeline plans."""

    def __init__(self, catalog: Catalog, use_pruning: bool = True):
        self.catalog = catalog
        self.use_pruning = use_pruning
        #: True when a LIMIT quota truncated the output scan early.
        self.early_terminated = False
        #: Zone-map pruning counters of the last execution.
        self.chunks_pruned = 0
        self.chunks_scanned = 0
        #: Breaker metrics (the column engine has no partitioned hash
        #: tables; exposed for result-stats uniformity).
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
        hash_tables: dict[int, tuple] = {}
        intermediates: dict[str, tuple[dict, int]] = {}
        output_rows: list[tuple] = []
        output_sink: Optional[OutputSink] = None
        output_stats: Optional[PipelineRunStats] = None

        for pipeline in plan.pipelines:
            stats = PipelineRunStats(name=pipeline.name,
                                     description=pipeline.describe())
            self.pipeline_stats.append(stats)
            self._current_stats = stats
            start = time.perf_counter()
            columns, num_rows = self._run_pipeline_body(pipeline, hash_tables,
                                                        intermediates)
            sink = pipeline.sink
            if isinstance(sink, HashBuildSink):
                hash_tables[sink.join_id] = self._build_hash_table(
                    sink, columns, num_rows)
                stats.rows_out = num_rows
            elif isinstance(sink, AggregateSink):
                intermediates[sink.intermediate.binding] = self._aggregate(
                    sink, columns, num_rows)
                stats.rows_out = intermediates[sink.intermediate.binding][1]
            elif isinstance(sink, OutputSink):
                output_sink = sink
                output_stats = stats
                self._emit_output(sink, columns, num_rows, output_rows)
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
    # pipeline body: source columns + filters + probes
    # ------------------------------------------------------------------ #
    def _run_pipeline_body(self, pipeline: Pipeline, hash_tables,
                           intermediates):
        columns, num_rows = self._source_columns(pipeline, intermediates)

        for operator in pipeline.operators:
            if num_rows == 0:
                break
            if isinstance(operator, PhysFilter):
                mask = np.asarray(evaluate_expression_vectorized(
                    operator.predicate, columns, num_rows,
                    self._params), dtype=bool)
                columns = {key: values[mask]
                           for key, values in columns.items()}
                num_rows = int(mask.sum())
            elif isinstance(operator, PhysHashProbe):
                columns, num_rows = self._probe(operator, columns, num_rows,
                                                hash_tables)
            else:  # pragma: no cover - defensive
                raise ExecutionError(
                    f"unknown operator {type(operator).__name__}")
        return columns, num_rows

    def _source_columns(self, pipeline: Pipeline, intermediates):
        source = pipeline.source
        if isinstance(source, TableSource):
            table = source.table
            binding = source.binding
            names = table.schema.column_names()
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
            if scan.chunks_pruned == 0:
                # Full scan: use the consistent whole-column snapshot (all
                # columns sliced to one row count, cached per chunk).
                arrays, rows = table.numpy_snapshot(names)
                # The scan plan snapshotted the row count first; clamp to it
                # so the pruned/unpruned paths agree under concurrent
                # inserts.
                if rows > scan.rows_total:
                    arrays = {name: array[:scan.rows_total]
                              for name, array in arrays.items()}
                columns = {(binding, name): arrays[name] for name in names}
                return columns, scan.rows_total
            columns = {
                (binding, name): table.numpy_ranges(name, scan.ranges)
                for name in names}
            return columns, scan.rows_to_scan
        assert isinstance(source, IntermediateSource)
        stored = intermediates.get(source.binding)
        if stored is None:
            return {}, 0
        if self._current_stats is not None:
            self._current_stats.rows_in += stored[1]
        return stored

    # ------------------------------------------------------------------ #
    # hash joins
    # ------------------------------------------------------------------ #
    def _build_hash_table(self, sink: HashBuildSink, columns, num_rows):
        payload_arrays = []
        for column in sink.payload_columns:
            if num_rows == 0:
                payload_arrays.append(np.asarray([])[:0])
            else:
                payload_arrays.append(
                    np.asarray(columns[(column.binding, column.column)]))
        if num_rows == 0:
            key_vectors = [np.asarray([])[:0] for _ in sink.build_keys]
        else:
            key_vectors = [np.asarray(evaluate_expression_vectorized(
                key, columns, num_rows, self._params))
                for key in sink.build_keys]

        # The "hash table" is just the materialised key vectors; matching
        # happens wholesale at probe time.
        return (key_vectors, num_rows, payload_arrays,
                list(sink.payload_columns))

    def _probe(self, operator: PhysHashProbe, columns, num_rows, hash_tables):
        build_vectors, build_rows, payload_arrays, payload_columns = \
            hash_tables[operator.join_id]
        probe_rows = num_rows

        key_vectors = [np.asarray(evaluate_expression_vectorized(
            key, columns, num_rows, self._params))
            for key in operator.probe_keys]

        if not key_vectors:
            # Key-less (cross) join: every probe row matches every build
            # row, in build order -- like probing key ().
            probe_idx = np.repeat(np.arange(num_rows, dtype=np.int64),
                                  build_rows)
            build_idx = np.tile(np.arange(build_rows, dtype=np.int64),
                                num_rows)
        else:
            build_codes, probe_codes = _factorize_pair(build_vectors,
                                                       key_vectors)
            if build_codes is not None:
                probe_idx, build_idx = _batch_match(build_codes, probe_codes)
            else:
                # Key domain too wide for int64 codes, or NaN keys.
                probe_idx, build_idx = self._match_rows_fallback(
                    build_vectors, key_vectors, num_rows)

        joined = {key: values[probe_idx] if len(probe_idx) else values[:0]
                  for key, values in columns.items()}
        for column, array in zip(payload_columns, payload_arrays):
            joined[(column.binding, column.column)] = (
                array[build_idx] if len(build_idx) else array[:0])
        num_rows = len(probe_idx)

        # Carry the probe index through the residual masks: the LEFT OUTER
        # complement below needs to know which probe rows survived.
        surviving = probe_idx
        for residual in operator.residual:
            if num_rows == 0:
                break
            mask = np.asarray(evaluate_expression_vectorized(
                residual, joined, num_rows, self._params), dtype=bool)
            joined = {key: values[mask] for key, values in joined.items()}
            surviving = surviving[mask] if len(surviving) else surviving
            num_rows = int(mask.sum())

        if operator.outer:
            joined, num_rows = self._outer_complement(
                columns, probe_rows, payload_columns, joined, num_rows,
                surviving)
        return joined, num_rows

    @staticmethod
    def _outer_complement(columns, probe_rows, payload_columns, joined,
                          num_rows, surviving):
        """Append NULL-padded rows for probe rows no match survived for.

        The combined rows are re-ordered by probe index (stable), so the
        output interleaves matches and preserved rows exactly like the
        tuple-at-a-time engines do.
        """
        unmatched = np.setdiff1d(np.arange(probe_rows, dtype=np.int64),
                                 surviving)
        if not len(unmatched):
            return joined, num_rows
        nulls = np.full(len(unmatched), None, dtype=object)
        for key, values in columns.items():
            tail = values[unmatched]
            joined[key] = (np.concatenate([joined[key], tail])
                           if num_rows else tail)
        for column in payload_columns:
            key = (column.binding, column.column)
            head = np.asarray(joined[key], dtype=object)
            joined[key] = np.concatenate([head, nulls]) if num_rows else nulls
        all_probe = (np.concatenate([surviving, unmatched])
                     if num_rows else unmatched)
        order = np.argsort(all_probe, kind="stable")
        joined = {key: values[order] for key, values in joined.items()}
        return joined, num_rows + len(unmatched)

    @staticmethod
    def _match_rows_fallback(build_vectors, key_vectors, num_rows):
        """Dict-based matching when batch codes are ruled out."""
        key_to_rows: dict = {}
        build_rows = len(build_vectors[0]) if build_vectors else 0
        if len(build_vectors) == 1:
            keys = build_vectors[0]
            for row in range(build_rows):
                key_to_rows.setdefault(keys[row], []).append(row)
        else:
            for row in range(build_rows):
                key = tuple(vector[row] for vector in build_vectors)
                key_to_rows.setdefault(key, []).append(row)
        probe_indices: list[int] = []
        build_indices: list[int] = []
        if len(key_vectors) == 1:
            keys = key_vectors[0]
            for probe_index in range(num_rows):
                matches = key_to_rows.get(keys[probe_index])
                if matches is not None:
                    probe_indices.extend([probe_index] * len(matches))
                    build_indices.extend(matches)
        else:
            for probe_index in range(num_rows):
                key = tuple(vector[probe_index] for vector in key_vectors)
                matches = key_to_rows.get(key)
                if matches is not None:
                    probe_indices.extend([probe_index] * len(matches))
                    build_indices.extend(matches)
        return (np.asarray(probe_indices, dtype=np.int64),
                np.asarray(build_indices, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def _aggregate(self, sink: AggregateSink, columns, num_rows):
        binding = sink.intermediate.binding
        result_columns: dict = {}

        if num_rows == 0:
            if not sink.group_by:
                for index, spec in enumerate(sink.aggregates):
                    value = 0 if spec.result_type is SQLType.INT64 else 0.0
                    result_columns[(binding, f"a{index}")] = np.asarray([value])
                return result_columns, 1
            for index in range(len(sink.group_by)):
                result_columns[(binding, f"k{index}")] = np.asarray([])[:0]
            for index in range(len(sink.aggregates)):
                result_columns[(binding, f"a{index}")] = np.asarray([])[:0]
            return result_columns, 0

        group_vectors = [np.asarray(evaluate_expression_vectorized(
            expr, columns, num_rows, self._params))
            for expr in sink.group_by]
        argument_vectors = []
        for spec in sink.aggregates:
            if spec.argument is None:
                argument_vectors.append(None)
            else:
                argument_vectors.append(np.asarray(
                    evaluate_expression_vectorized(spec.argument, columns,
                                                   num_rows, self._params)))

        if sink.group_by:
            grouped = self._group_batch(group_vectors, num_rows)
            if grouped is None:
                grouped = self._group_rows(group_vectors, num_rows)
            key_columns, inverse, num_groups = grouped
        else:
            inverse = np.zeros(num_rows, dtype=np.int64)
            key_columns = []
            num_groups = 1

        for index, key_column in enumerate(key_columns):
            result_columns[(binding, f"k{index}")] = key_column

        for index, spec in enumerate(sink.aggregates):
            argument = argument_vectors[index]
            if spec.function == "count":
                values = np.bincount(inverse, minlength=num_groups)
            elif spec.function == "sum":
                values = np.bincount(inverse,
                                     weights=np.asarray(argument,
                                                        dtype=np.float64),
                                     minlength=num_groups)
                if spec.result_type is SQLType.INT64:
                    values = values.astype(np.int64)
            elif spec.function == "avg":
                sums = np.bincount(inverse,
                                   weights=np.asarray(argument,
                                                      dtype=np.float64),
                                   minlength=num_groups)
                counts = np.bincount(inverse, minlength=num_groups)
                values = np.divide(sums, np.maximum(counts, 1))
            elif spec.function in ("min", "max"):
                values = self._min_max(spec.function, argument, inverse,
                                       num_groups)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown aggregate {spec.function!r}")
            result_columns[(binding, f"a{index}")] = np.asarray(values)

        return result_columns, num_groups

    @staticmethod
    def _group_batch(group_vectors, num_rows):
        """Integer-code grouping (handles multi-key without object tuples).

        Groups come out in ascending key order (codes order like the key
        tuples), matching the deterministic finalize order of the other
        engines.  Returns ``None`` when the key domain could overflow.
        """
        codes = _factorize_columns(group_vectors)
        if codes is None:
            return None
        _, first_index, inverse = np.unique(codes, return_index=True,
                                            return_inverse=True)
        inverse = inverse.astype(np.int64).reshape(-1)
        key_columns = [np.asarray(vector)[first_index]
                       for vector in group_vectors]
        return key_columns, inverse, len(first_index)

    @staticmethod
    def _group_rows(group_vectors, num_rows):
        """Row-at-a-time grouping over object tuples (when integer codes
        are ruled out)."""
        if len(group_vectors) == 1:
            unique_keys, inverse = np.unique(group_vectors[0],
                                             return_inverse=True)
            key_columns = [unique_keys]
        else:
            stacked = np.empty(num_rows, dtype=object)
            for row in range(num_rows):
                stacked[row] = tuple(v[row] for v in group_vectors)
            unique_keys, inverse = np.unique(stacked, return_inverse=True)
            key_columns = []
            for position in range(len(group_vectors)):
                key_columns.append(np.asarray(
                    [key[position] for key in unique_keys], dtype=object))
        return key_columns, inverse.astype(np.int64).reshape(-1), \
            len(unique_keys)

    def _min_max(self, function: str, argument, inverse, num_groups):
        argument = np.asarray(argument)
        # NaN arguments take the row loop: ``reduceat`` would propagate NaN
        # while Python's min/max keeps the first non-NaN comparison winner.
        if argument.dtype != object and not _has_nan(argument):
            # Scatter-free reduction: sort rows by group, reduce each
            # contiguous segment (every group has at least one member).
            order = np.argsort(inverse, kind="stable")
            sorted_values = argument[order]
            counts = np.bincount(inverse, minlength=num_groups)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            reducer = np.minimum if function == "min" else np.maximum
            return reducer.reduceat(sorted_values, starts)
        values = np.empty(num_groups, dtype=object)
        reducer = min if function == "min" else max
        for group in range(num_groups):
            members = argument[inverse == group]
            values[group] = reducer(members) if len(members) else 0
        return values

    # ------------------------------------------------------------------ #
    def _emit_output(self, sink: OutputSink, columns, num_rows, output_rows):
        if num_rows == 0:
            return
        vectors = [np.asarray(evaluate_expression_vectorized(
            expr, columns, num_rows, self._params))
            for _, expr in sink.output]
        vectors += [np.asarray(evaluate_expression_vectorized(
            expr, columns, num_rows, self._params))
            for expr, _ in sink.order_by]

        limit = resolve_limit(sink.limit, self._params)
        if limit is not None and not sink.distinct:
            if not sink.order_by:
                # LIMIT without ORDER BY: any k rows satisfy the query, so
                # truncate before the per-row materialisation loop.
                remaining = max(limit - len(output_rows), 0)
                if remaining < num_rows:
                    self.early_terminated = True
                    vectors = [vector[:remaining] for vector in vectors]
                    num_rows = remaining
            elif 0 < limit < num_rows:
                selected = self._topk_candidates(sink, vectors, num_rows,
                                                 limit)
                if selected is not None:
                    vectors = [vector[selected] for vector in vectors]
                    num_rows = len(selected)

        for row in range(num_rows):
            output_rows.append(tuple(_to_python(vector[row])
                                     for vector in vectors))

    @staticmethod
    def _topk_candidates(sink: OutputSink, vectors, num_rows, limit):
        """Indices of a provably sufficient ORDER BY + LIMIT candidate set.

        Each sort-key vector is factorised to integer ranks (exact for any
        sortable dtype; descending keys negate the rank), the rows are
        lexsorted on the ranks, and the candidate set is the first ``limit``
        rows plus every row tying the boundary row on the full key tuple --
        the final canonical sort in ``_finish_output`` resolves those ties
        by whole-row comparison, and every row it could pick is in the set.
        Returns ``None`` (no preselection) for NaN-bearing or object-typed
        keys, where rank factorisation is not order-faithful.
        """
        width = len(sink.output)
        keys = []
        for offset, (_, ascending) in enumerate(sink.order_by):
            vector = np.asarray(vectors[width + offset])
            if vector.dtype == object or _has_nan(vector):
                return None
            _, codes = np.unique(vector, return_inverse=True)
            codes = codes.astype(np.int64).reshape(-1)
            keys.append(codes if ascending else -codes)
        order = np.lexsort(keys[::-1])  # last lexsort key is primary
        boundary = order[limit - 1]
        tie = np.ones(num_rows, dtype=bool)
        for codes in keys:
            tie &= codes == codes[boundary]
        return np.unique(np.concatenate([order[:limit], np.nonzero(tie)[0]]))


def _to_python(value):
    """Convert numpy scalars to plain Python values for result comparison."""
    if isinstance(value, np.generic):
        return value.item()
    return value
