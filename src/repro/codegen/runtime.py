"""Query runtime: the "C++ side" of the generated code.

Generated worker functions call into a small set of runtime functions -- hash
table inserts and probes, aggregate updates, result emission, string
predicates and date field extraction.  These are the Python equivalents of
the pre-compiled C++ runtime HyPer links against; they are deliberately kept
small so the per-tuple work stays in generated code where the execution tiers
differ.

All runtime state of one query execution lives in a :class:`QueryState`.
Worker functions never allocate shared state themselves, which is what makes
morsels independent and execution-mode switches safe (paper Section III-B).

Pipeline breakers (join builds, aggregations, result collection) are
**partition-parallel**: every worker slot accumulates into its own
:class:`WorkerContext` -- hash-partitioned partial dictionaries and a local
output buffer -- so the per-tuple hot path acquires no shared lock at all.
When a pipeline's morsels are done, a merge phase folds the partials into
the state's *sealed* partition tables (one independent task per partition,
runnable on the shared worker pool), and downstream probe / intermediate-scan
pipelines read the sealed partitions without synchronisation.  The worker
context travels through the generated code as the worker function's ``state``
argument, so every tier -- IR interpreter, bytecode VM and both compiled
tiers -- threads it through unchanged, and a mid-pipeline tier switch simply
keeps appending to the same slot-local partials.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..errors import ExecutionError
from ..plan.physical import (
    AggregateSink,
    AggregateSpec,
    HashBuildSink,
    OutputSink,
    Pipeline,
    PhysicalPlan,
    IntermediateSource,
    TableSource,
)
from ..types import SQLType, days_to_date


def round_up_pow2(value: int) -> int:
    """The smallest power of two >= ``value`` (at least 1)."""
    result = 1
    while result < max(int(value), 1):
        result <<= 1
    return result


def initial_cells(specs: Sequence[AggregateSpec]) -> list:
    """Fresh accumulator cells for one group (AVG uses a [sum, count] pair)."""
    cells = []
    for spec in specs:
        if spec.function == "count":
            cells.append(0)
        elif spec.function == "avg":
            cells.append([0.0, 0])
        elif spec.function in ("min", "max"):
            cells.append(None)
        else:  # sum
            cells.append(0 if spec.result_type is SQLType.INT64 else 0.0)
    return cells


def combine_cells(specs: Sequence[AggregateSpec], target: list,
                  other: list) -> None:
    """Fold one partial's accumulator cells into another (merge phase)."""
    for index, spec in enumerate(specs):
        value = other[index]
        if spec.function in ("count", "sum"):
            target[index] += value
        elif spec.function == "avg":
            pair = target[index]
            pair[0] += value[0]
            pair[1] += value[1]
        elif spec.function == "min":
            current = target[index]
            if current is None or (value is not None and value < current):
                target[index] = value
        else:  # max
            current = target[index]
            if current is None or (value is not None and value > current):
                target[index] = value


def merge_join_partition(target: dict, partials: Sequence[dict]) -> None:
    """Merge one partition's per-worker join partials into ``target``.

    Bucket lists of the first contributor are adopted by identity (the
    partials are discarded after the merge), later contributors extend.
    """
    for partial in partials:
        for key, bucket in partial.items():
            existing = target.get(key)
            if existing is None:
                target[key] = bucket
            else:
                existing.extend(bucket)


def merge_agg_partition(specs: Sequence[AggregateSpec], target: dict,
                        partials: Sequence[dict]) -> None:
    """Merge one partition's per-worker aggregation partials into ``target``."""
    for partial in partials:
        for key, cells in partial.items():
            existing = target.get(key)
            if existing is None:
                target[key] = cells
            else:
                combine_cells(specs, existing, cells)


class WorkerContext:
    """One worker slot's partial breaker state for one pipeline run.

    Slots are exclusive (at most one in-flight morsel per slot, see
    :class:`repro.scheduler.MorselSource`), so nothing here is locked.  The
    context is handed to the generated worker function as its ``state``
    argument and survives execution-mode switches: the partials belong to
    the slot, not to the tier that filled them.
    """

    __slots__ = ("joins", "aggs", "rows", "topk")

    def __init__(self):
        #: join_id -> list of partition dicts (key -> list of payloads)
        self.joins: dict[int, list[dict]] = {}
        #: agg_id -> list of partition dicts (key -> accumulator cells)
        self.aggs: dict[int, list[dict]] = {}
        #: slot-local output rows
        self.rows: list[tuple] = []
        #: slot-local bounded top-k heap (:class:`_TopKEntry` min-heap whose
        #: root is the worst kept row); used instead of ``rows`` when the
        #: output sink runs as a top-k breaker
        self.topk: list = []


@dataclass
class BreakerMergeStats:
    """Per-pipeline metrics of one partial-merge phase.

    ``partitions`` is the hash-partition count of the pipeline's breaker --
    0 for output pipelines (their partials are unpartitioned row buffers).
    """

    partitions: int = 0
    #: Total entries across all worker partials before the merge (groups /
    #: distinct join keys per partial, output rows for output pipelines).
    partial_entries: int = 0
    merge_seconds: float = 0.0


class QueryState:
    """All mutable state of one query execution."""

    def __init__(self, plan: PhysicalPlan):
        self.plan = plan
        #: join_id -> sealed partition tables (list of key -> payload-list
        #: dicts).  The *list* identity is stable for the lifetime of the
        #: state -- generated probe code captures it -- while the partition
        #: dicts inside are rebuilt by :meth:`configure_breakers`.
        self.join_partitions: dict[int, list[dict]] = {}
        #: agg_id -> sealed partition tables (list of key -> cells dicts)
        self.agg_partitions: dict[int, list[dict]] = {}
        #: agg_id -> materialised intermediate columns (lists, pre-created so
        #: that generated code can hold stable pointers to them)
        self.intermediate_columns: dict[int, list[list]] = {}
        #: agg_id -> row count of the materialised intermediate
        self.intermediate_rows: dict[int, int] = {}
        #: collected output rows (tuples)
        self.output_rows: list[tuple] = []
        #: Bind-parameter values of the current execution, one (encoded)
        #: value per slot of ``plan.parameters``.  Generated code references
        #: this list *by identity* (parameter-slot loads are extern closures
        #: over it), so it is updated in place via :meth:`set_params` and
        #: deliberately survives :meth:`reset`.
        self.params: list = [None] * len(getattr(plan, "parameters", ()))
        self._partition_count = 1
        #: Top-k breaker configuration of the current execution (set by
        #: :meth:`configure_output` after the LIMIT is resolved against the
        #: bound parameters): ``topk_k`` is the resolved k when the output
        #: sink runs as a bounded-heap breaker, else ``None`` (plain row
        #: collection).  ``topk_key_fn`` maps an emitted row to its total
        #: ordering key; ``topk_entries`` collects the merged heap entries.
        self.topk_k: Optional[int] = None
        self.topk_key_fn: Optional[Callable] = None
        self.topk_entries: list = []
        #: LIMIT-without-ORDER-BY early termination: ``early_limit`` is the
        #: resolved row quota, ``rows_emitted`` a racy-but-monotone counter
        #: the executors poll between morsels (correctness comes from the
        #: final slice, the counter only stops dispatch early), and
        #: ``early_terminated`` records that the quota cancelled dispatch.
        self.early_limit: Optional[int] = None
        self.rows_emitted = 0
        self.early_terminated = False
        #: True while EXPLAIN ANALYZE wants sink-side cardinalities that are
        #: not O(1) to read (join build tables); plain executions skip them.
        self.collect_operator_stats = False

        for pipeline in plan.pipelines:
            sink = pipeline.sink
            if isinstance(sink, HashBuildSink):
                self.join_partitions[sink.join_id] = [{}]
            elif isinstance(sink, AggregateSink):
                self.agg_partitions[sink.agg_id] = [{}]
                self.intermediate_columns[sink.agg_id] = [
                    [] for _ in sink.intermediate.columns]
                self.intermediate_rows[sink.agg_id] = 0

    # ------------------------------------------------------------------ #
    @property
    def partition_count(self) -> int:
        """Current number of breaker partitions (a power of two)."""
        return self._partition_count

    def configure_breakers(self, partitions: Optional[int] = None) -> None:
        """Set this execution's breaker layout (before any pipeline runs).

        ``partitions`` is rounded up to a power of two (the partition index
        is ``hash(key) & (count - 1)``).  The sealed partition *lists* keep
        their identity (generated code captured them); only their contents
        are replaced.
        """
        count = round_up_pow2(partitions or 1)
        if count != self._partition_count:
            self._partition_count = count
            for parts in self.join_partitions.values():
                parts[:] = [{} for _ in range(count)]
            for parts in self.agg_partitions.values():
                parts[:] = [{} for _ in range(count)]

    def configure_output(self, sink: OutputSink) -> None:
        """Choose this execution's output-sink strategy (after parameters).

        Must run after :meth:`set_params` -- a ``LIMIT ?`` resolves against
        the bound values.  ORDER BY + LIMIT becomes a top-k breaker (bounded
        per-slot heaps); LIMIT alone arms the early-termination quota.
        DISTINCT disables both (deduplication needs every row).
        """
        limit = resolve_limit(sink.limit, self.params)
        if limit is None or sink.distinct:
            return
        if sink.order_by:
            self.topk_k = limit
            self.topk_key_fn = make_sort_key_fn(sink)
        else:
            self.early_limit = limit

    def limit_satisfied(self) -> bool:
        """True once the early-termination quota is met (if armed)."""
        return (self.early_limit is not None
                and self.rows_emitted >= self.early_limit)

    def new_context(self, pipeline: Pipeline) -> WorkerContext:
        """A fresh worker context with partials for ``pipeline``'s sink."""
        context = WorkerContext()
        sink = pipeline.sink
        count = self._partition_count
        if isinstance(sink, HashBuildSink):
            context.joins[sink.join_id] = [{} for _ in range(count)]
        elif isinstance(sink, AggregateSink):
            context.aggs[sink.agg_id] = [{} for _ in range(count)]
        return context

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear all per-execution state in place for a fresh execution.

        Generated code and the runtime closures hold direct references to
        these containers (the sealed partition lists, intermediate column
        lists, the output row list), so the containers are cleared rather
        than replaced: object identity must survive a reset for a
        cached/prepared query to stay executable.
        """
        for parts in self.join_partitions.values():
            for table in parts:
                table.clear()
        for parts in self.agg_partitions.values():
            for table in parts:
                table.clear()
        for columns in self.intermediate_columns.values():
            for column in columns:
                column.clear()
        for agg_id in self.intermediate_rows:
            self.intermediate_rows[agg_id] = 0
        self.output_rows.clear()
        self.topk_k = None
        self.topk_key_fn = None
        self.topk_entries.clear()
        self.early_limit = None
        self.rows_emitted = 0
        self.early_terminated = False

    def set_params(self, values: list) -> None:
        """Install one execution's bind-parameter values (in place)."""
        if len(values) != len(self.params):
            raise ExecutionError(
                f"query state expects {len(self.params)} parameter "
                f"value(s), got {len(values)}")
        self.params[:] = values

    # ------------------------------------------------------------------ #
    def source_row_count(self, pipeline: Pipeline) -> int:
        """Number of input rows of a pipeline (known once its inputs exist)."""
        source = pipeline.source
        if isinstance(source, TableSource):
            return source.table.num_rows
        sink_agg_id = _agg_id_of_intermediate(self.plan, source)
        return self.intermediate_rows[sink_agg_id]


def _agg_id_of_intermediate(plan: PhysicalPlan,
                            source: IntermediateSource) -> int:
    for pipeline in plan.pipelines:
        sink = pipeline.sink
        if isinstance(sink, AggregateSink) and sink.intermediate is source:
            return sink.agg_id
    raise ExecutionError(
        f"intermediate source {source.name!r} has no producing pipeline")


# --------------------------------------------------------------------------- #
# per-pipeline breaker lifecycle (used by every executor)
# --------------------------------------------------------------------------- #
class BreakerRun:
    """Carries one pipeline run's per-slot worker contexts.

    Executors call :meth:`context` with the dense worker-slot id of each
    morsel (slots are exclusive, so the lazy creation is race-free) and
    :meth:`merge` once after the last morsel.
    """

    def __init__(self, state: QueryState, pipeline: Pipeline,
                 max_slots: int):
        self.state = state
        self.pipeline = pipeline
        self.contexts: list[Optional[WorkerContext]] = \
            [None] * max(int(max_slots), 1)

    def context(self, slot: int) -> WorkerContext:
        context = self.contexts[slot]
        if context is None:
            context = self.state.new_context(self.pipeline)
            self.contexts[slot] = context
        return context

    def merge(self, run_tasks: Optional[Callable[[list], None]] = None
              ) -> BreakerMergeStats:
        return merge_breaker_partials(self.state, self.pipeline,
                                      self.contexts, run_tasks)


def merge_breaker_partials(state: QueryState, pipeline: Pipeline,
                           contexts: Sequence[Optional[WorkerContext]],
                           run_tasks: Optional[Callable[[list], None]] = None
                           ) -> BreakerMergeStats:
    """Merge per-worker partials into the state's sealed partition tables.

    ``run_tasks`` executes the per-partition merge thunks (each touches
    exactly one partition, so they are mutually independent); ``None`` runs
    them serially on the calling thread.  Output pipelines concatenate the
    slot-local row buffers in slot order on the calling thread (order is
    the workers' morsel interleaving either way).
    """
    stats = BreakerMergeStats()
    live = [context for context in contexts if context is not None]
    sink = pipeline.sink
    if isinstance(sink, (HashBuildSink, AggregateSink)):
        stats.partitions = state.partition_count
    start = time.perf_counter()

    if isinstance(sink, OutputSink):
        if state.topk_k is not None:
            # Top-k breaker: concatenate the bounded slot heaps; the finish
            # step sorts the (at most slots * k) entries and slices k.
            for context in live:
                stats.partial_entries += len(context.topk)
                state.topk_entries.extend(context.topk)
                context.topk = []
        else:
            for context in live:
                stats.partial_entries += len(context.rows)
                state.output_rows.extend(context.rows)
                context.rows = []
    elif isinstance(sink, HashBuildSink) and live:
        partials = [context.joins[sink.join_id] for context in live]
        stats.partial_entries = sum(len(part) for parts in partials
                                    for part in parts)
        targets = state.join_partitions[sink.join_id]
        tasks = [
            (lambda p=p: merge_join_partition(
                targets[p], [parts[p] for parts in partials]))
            for p in range(len(targets))]
        if run_tasks is None:
            for task in tasks:
                task()
        else:
            run_tasks(tasks)
    elif isinstance(sink, AggregateSink) and live:
        partials = [context.aggs[sink.agg_id] for context in live]
        stats.partial_entries = sum(len(part) for parts in partials
                                    for part in parts)
        targets = state.agg_partitions[sink.agg_id]
        specs = list(sink.aggregates)
        tasks = [
            (lambda p=p: merge_agg_partition(
                specs, targets[p], [parts[p] for parts in partials]))
            for p in range(len(targets))]
        if run_tasks is None:
            for task in tasks:
                task()
        else:
            run_tasks(tasks)

    stats.merge_seconds = time.perf_counter() - start
    return stats


def group_sort_key(key):
    """Deterministic ordering key for GROUP BY keys (scalar or tuple)."""
    return key


# --------------------------------------------------------------------------- #
# ordered output: canonical sort keys, top-k heap entries, limit resolution
# --------------------------------------------------------------------------- #
def _canonical_cell(value):
    """A totally ordered stand-in for one sort-cell value.

    Ranks make NULL and NaN comparable to everything: normal values first,
    then NaN, then NULL (for an ascending key).  Within rank 0 the column's
    own values compare; a column never mixes value types.
    """
    if value is None:
        return (2, 0)
    if value != value:  # NaN
        return (1, 0)
    return (0, value)


class _Desc:
    """Inverts the ordering of one canonical cell (descending sort keys)."""

    __slots__ = ("cell",)

    def __init__(self, cell):
        self.cell = cell

    def __lt__(self, other):
        return other.cell < self.cell

    def __eq__(self, other):
        return other.cell == self.cell


def make_sort_key_fn(sink: OutputSink) -> Callable[[tuple], tuple]:
    """Total-order sort key for one emitted row of ``sink``.

    The ORDER BY cells (appended after the visible columns by the code
    generator) come first; the canonicalised visible columns follow as a
    tiebreak, so the output order is fully determined by row *values* --
    identical across execution modes, worker counts and partition counts
    even for duplicate sort keys -- and top-k results match sort-then-slice
    exactly.
    """
    num_visible = len(sink.output)
    directions = [ascending for _, ascending in sink.order_by]

    def key_fn(row):
        cells = []
        for offset, ascending in enumerate(directions):
            cell = _canonical_cell(row[num_visible + offset])
            cells.append(cell if ascending else _Desc(cell))
        for index in range(num_visible):
            cells.append(_canonical_cell(row[index]))
        return tuple(cells)

    return key_fn


class _TopKEntry:
    """One kept row in a bounded top-k heap.

    The comparison is *inverted* so that :mod:`heapq`'s min-heap root is the
    worst kept row (the one that sorts last), which is the row a better
    candidate must displace.
    """

    __slots__ = ("key", "row")

    def __init__(self, key, row):
        self.key = key
        self.row = row

    def __lt__(self, other):
        return other.key < self.key


def resolve_limit(limit, params: Sequence) -> Optional[int]:
    """Resolve a sink's LIMIT (``None``, int, or ParameterExpr) to an int."""
    if limit is None or isinstance(limit, int):
        return limit
    index = getattr(limit, "index", None)
    if index is None:  # pragma: no cover - planner invariant
        raise ExecutionError(f"unsupported LIMIT value {limit!r}")
    value = params[index]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExecutionError(
            f"LIMIT parameter must be an integer, got {value!r}")
    if value < 0:
        raise ExecutionError(f"LIMIT must not be negative, got {value}")
    return value


# --------------------------------------------------------------------------- #
# runtime function factories (captured by generated code as extern bindings)
# --------------------------------------------------------------------------- #
class QueryRuntime:
    """Builds the runtime closures for one query execution."""

    def __init__(self, state: QueryState):
        self.state = state

    # ---- hash joins ----------------------------------------------------- #
    def make_build_insert(self, join_id: int, num_keys: int,
                          num_payload: int) -> Callable:
        """Closure inserting (key, payload) into the worker's join partials.

        ``ctx`` is the worker's :class:`WorkerContext`.
        """
        def insert_key(ctx, key, payload):
            parts = ctx.joins[join_id]
            part = parts[hash(key) & (len(parts) - 1)]
            bucket = part.get(key)
            if bucket is None:
                bucket = part.setdefault(key, [])
            bucket.append(payload)

        if num_keys == 1:
            def insert(ctx, key, *payload):
                insert_key(ctx, key, payload)
        else:
            def insert(ctx, *values):
                insert_key(ctx, values[:num_keys], values[num_keys:])
        insert.__name__ = f"rt_build_insert_{join_id}"
        return insert

    def make_probe(self, join_id: int, num_keys: int) -> Callable:
        """Closure returning the list of matching payload tuples (or []).

        Reads the sealed partition tables; probe pipelines only run after
        the build pipeline's merge phase, so no synchronisation is needed.
        """
        parts = self.state.join_partitions[join_id]
        empty: list = []

        if num_keys == 1:
            def probe(key):
                return parts[hash(key) & (len(parts) - 1)].get(key, empty)
        else:
            def probe(*key):
                return parts[hash(key) & (len(parts) - 1)].get(key, empty)
        probe.__name__ = f"rt_probe_{join_id}"
        return probe

    @staticmethod
    def match_count(matches) -> int:
        return len(matches)

    # ---- outer-join probe support ---------------------------------------- #
    # A LEFT OUTER JOIN probe with residual predicates needs to know, after
    # the match loop, whether *any* match passed the residuals.  The flag
    # lives in a tiny fresh cell per probe row (phi-based tracking is not
    # possible: the downstream operator chain jumps back to the loop latch
    # from arbitrary blocks).  All three helpers are side-effecting so no
    # tier caches, hoists or reorders them.
    @staticmethod
    def flag_new() -> list:
        return [0]

    @staticmethod
    def flag_set(cell) -> None:
        cell[0] = 1

    @staticmethod
    def flag_get(cell) -> bool:
        return cell[0] != 0

    @staticmethod
    def null_value():
        """The NULL payload of an unmatched preserved row (any type)."""
        return None

    @staticmethod
    def make_match_getter(column_index: int) -> Callable:
        def get(matches, row):
            return matches[row][column_index]
        get.__name__ = f"rt_match_get_{column_index}"
        return get

    # ---- aggregation ----------------------------------------------------- #
    def make_agg_update(self, sink: AggregateSink) -> Callable:
        """Closure folding one row into the worker's aggregation partials.

        The accumulator layout per group is one cell per aggregate; AVG uses
        a ``[sum, count]`` pair.  The read-modify-write touches only the
        worker context's slot-private partials and needs no lock.
        """
        agg_id = sink.agg_id
        num_groups = len(sink.group_by)
        specs = list(sink.aggregates)
        arg_positions: list[Optional[int]] = []
        next_arg = 0
        for spec in specs:
            if spec.argument is None:
                arg_positions.append(None)
            else:
                arg_positions.append(next_arg)
                next_arg += 1

        def make_initial():
            return initial_cells(specs)

        def apply(cells, args):
            for index, spec in enumerate(specs):
                position = arg_positions[index]
                if spec.function == "count":
                    cells[index] += 1
                    continue
                value = args[position]
                if spec.function == "sum":
                    cells[index] += value
                elif spec.function == "avg":
                    pair = cells[index]
                    pair[0] += value
                    pair[1] += 1
                elif spec.function == "min":
                    current = cells[index]
                    if current is None or value < current:
                        cells[index] = value
                elif spec.function == "max":
                    current = cells[index]
                    if current is None or value > current:
                        cells[index] = value

        def update(ctx, *values):
            if num_groups == 1:
                key = values[0]
            else:
                key = values[:num_groups]
            args = values[num_groups:]
            parts = ctx.aggs[agg_id]
            part = parts[hash(key) & (len(parts) - 1)]
            cells = part.get(key)
            if cells is None:
                cells = part.setdefault(key, make_initial())
            apply(cells, args)
        update.__name__ = f"rt_agg_update_{sink.agg_id}"
        return update

    def finalize_aggregate(self, sink: AggregateSink) -> int:
        """Materialise the aggregation result into the intermediate columns.

        Runs single-threaded in the pipeline's finish step (the equivalent of
        HyPer's pipeline post-processing in runtime code), after the merge
        phase sealed the partition tables.  Groups are emitted in ascending
        group-key order, so unordered GROUP BY results are deterministic
        across execution modes, worker counts and partition counts (the old
        dict-insertion order depended on all three; NaN group keys are the
        exception -- they sort arbitrarily and group by object identity).
        Returns the number of result groups.
        """
        parts = self.state.agg_partitions[sink.agg_id]
        columns = self.state.intermediate_columns[sink.agg_id]
        for column in columns:
            column.clear()
        num_groups = len(sink.group_by)
        total = sum(len(part) for part in parts)

        if total == 0 and num_groups == 0:
            # SQL scalar aggregates produce exactly one row on empty input.
            cells = []
            for spec in sink.aggregates:
                if spec.function == "count":
                    cells.append(0)
                elif spec.result_type is SQLType.INT64:
                    cells.append(0)
                else:
                    cells.append(0.0)
            for j, value in enumerate(cells):
                columns[num_groups + j].append(value)
            self.state.intermediate_rows[sink.agg_id] = 1
            return 1

        items = []
        for part in parts:
            items.extend(part.items())
        if num_groups:
            items.sort(key=lambda item: group_sort_key(item[0]))

        for key, cells in items:
            if num_groups == 1:
                columns[0].append(key)
            else:
                for i in range(num_groups):
                    columns[i].append(key[i])
            for j, spec in enumerate(sink.aggregates):
                cell = cells[j]
                if spec.function == "avg":
                    sum_value, count = cell
                    cell = sum_value / count if count else 0.0
                elif spec.function in ("min", "max") and cell is None:
                    cell = 0
                columns[num_groups + j].append(cell)
        self.state.intermediate_rows[sink.agg_id] = total
        return total

    # ---- output ----------------------------------------------------------- #
    def make_emit(self, sink: OutputSink) -> Callable:
        """Closure collecting one output row.

        The closure is created once per cached query, so the per-execution
        strategy is read from the state: with a top-k breaker armed each row
        goes through the slot's bounded heap (push below k, displace the
        heap's worst row otherwise -- the hot path touches only slot-private
        state); with an early-termination quota armed a racy monotone
        counter lets executors stop dispatching morsels.
        """
        state = self.state

        def emit(ctx, *values):
            k = state.topk_k
            if k is not None:
                if k == 0:
                    return
                entry = _TopKEntry(state.topk_key_fn(values), values)
                heap = ctx.topk
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry.key < heap[0].key:
                    heapq.heapreplace(heap, entry)
                return
            ctx.rows.append(values)
            if state.early_limit is not None:
                state.rows_emitted += 1
        emit.__name__ = "rt_emit_row"
        return emit

    def finish_output(self, sink: OutputSink) -> list[tuple]:
        """Apply DISTINCT / ORDER BY / LIMIT to the collected rows.

        Returns a fresh list: the collected row list is reused (and cleared)
        across executions of a prepared query, so results must never alias it.
        With a top-k breaker armed only the merged heap entries are sorted --
        no full materialisation ever happened.
        """
        state = self.state
        if state.topk_k is not None:
            entries = sorted(state.topk_entries, key=lambda e: e.key)
            return [entry.row for entry in entries[:state.topk_k]]
        rows = list(state.output_rows)
        if sink.distinct:
            seen = set()
            unique = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        if sink.order_by:
            rows = _sort_rows(rows, sink)
        limit = resolve_limit(sink.limit, state.params)
        if limit is not None:
            rows = rows[:limit]
        return rows

    # ---- scalar helpers --------------------------------------------------- #
    @staticmethod
    def date_extract(field_name: str) -> Callable:
        if field_name == "year":
            def extract(days):
                return days_to_date(days).year
        elif field_name == "month":
            def extract(days):
                return days_to_date(days).month
        else:
            def extract(days):
                return days_to_date(days).day
        extract.__name__ = f"rt_extract_{field_name}"
        return extract

    @staticmethod
    def raise_overflow():
        raise ExecutionError("numeric overflow during query execution")


def _sort_rows(rows: list[tuple], sink: OutputSink) -> list[tuple]:
    """Sort output rows by the sink's ORDER BY keys.

    The sort keys were appended to each emitted row *after* the visible
    output columns by the code generator, so sorting never has to re-evaluate
    expressions; the extra key columns are stripped afterwards.  The key
    function includes the full-row tiebreak (see :func:`make_sort_key_fn`),
    so the order is value-determined -- under parallel execution the rows
    arrive in nondeterministic morsel interleaving, which a merely *stable*
    sort would leak into tie order.
    """
    if not sink.order_by:
        return rows
    return sorted(rows, key=make_sort_key_fn(sink))


def strip_sort_keys(rows: list[tuple], sink: OutputSink) -> list[tuple]:
    """Remove the trailing sort-key columns appended by the code generator."""
    if not sink.order_by:
        return rows
    width = len(sink.output)
    return [row[:width] for row in rows]


# --------------------------------------------------------------------------- #
# extern contracts
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExternContract:
    """Declared contract of one family of runtime externs.

    The code generator declares externs with generated names
    (``rt_build_insert_3``, ``rt_match_get_2_0``, ...), so contracts are
    keyed by a regular expression that must fully match the extern name.
    ``min_args``/``max_args`` bound the *declared* IR arity (``max_args``
    of ``None`` means unbounded).  ``is_sink`` marks externs that mutate
    per-worker breaker state and therefore must receive the worker
    function's threaded ``state`` argument first (the PR 5 invariant);
    ``pure`` means the extern must be declared side-effect free (and vice
    versa).  No extern may take a lock.
    """

    pattern: str
    description: str
    is_sink: bool = False
    pure: bool = False
    min_args: int = 0
    max_args: Optional[int] = None


#: The full catalogue of runtime externs the code generator may declare.
#: ``repro.analysis.extern_contracts`` verifies every generated ``CallInst``
#: and the bound Python implementations against this table; an extern whose
#: name matches no entry is itself a finding.
EXTERN_CONTRACTS: tuple = (
    ExternContract(r"rt_build_insert_\d+", "hash-join build insert",
                   is_sink=True, min_args=2),
    ExternContract(r"rt_agg_update_\d+", "aggregate update",
                   is_sink=True, min_args=1),
    ExternContract(r"rt_emit_row", "result row emission",
                   is_sink=True, min_args=1),
    ExternContract(r"rt_probe_\d+", "hash-join probe",
                   pure=True, min_args=1),
    ExternContract(r"rt_match_count", "probe match count",
                   pure=True, min_args=1, max_args=1),
    ExternContract(r"rt_match_get_\d+_\d+", "probe match payload access",
                   pure=True, min_args=2, max_args=2),
    ExternContract(r"rt_flag_new", "outer-join match flag allocation",
                   min_args=0, max_args=0),
    ExternContract(r"rt_flag_set", "outer-join match flag set",
                   min_args=1, max_args=1),
    ExternContract(r"rt_flag_get", "outer-join match flag read",
                   min_args=1, max_args=1),
    ExternContract(r"rt_null_\w+", "typed NULL padding value",
                   pure=True, min_args=0, max_args=0),
    ExternContract(r"rt_param_\d+", "bind-parameter load",
                   pure=True, min_args=0, max_args=0),
    ExternContract(r"rt_like_\d+", "LIKE predicate evaluation",
                   pure=True, min_args=1, max_args=1),
    ExternContract(r"rt_extract_(year|month|day)", "date field extraction",
                   pure=True, min_args=1, max_args=1),
    ExternContract(r"rt_raise_overflow", "checked-arithmetic overflow trap",
                   min_args=0, max_args=0),
)
