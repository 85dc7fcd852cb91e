"""The planner: BoundQuery -> optimized logical plan -> pipeline plan.

Planning proceeds in four steps:

1. **Predicate classification** -- WHERE/ON conjuncts become per-table filters
   (pushed into scans), equi-join edges, or residual predicates.
2. **Join ordering** -- the binding with the largest filtered cardinality
   becomes the probe-side *driver*; the remaining bindings are attached
   greedily as hash-join build sides, producing a left-deep join tree.  At
   each step the connected candidate with the smallest estimated fan-out
   (build rows matching one probe row: filtered build rows over the distinct
   count of its join keys) goes next, ties to the smaller build, so a
   unique-key join narrows the spine before a many-match one widens it.
3. **Logical plan construction** -- scans, joins, aggregation, projection,
   ordering, limit.
4. **Pipeline decomposition** -- one build pipeline per hash join, one probe
   pipeline over the driver, and (for aggregations) a final pipeline scanning
   the materialised aggregate (the paper's "hash table scan" pipeline).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..catalog import Catalog
from ..errors import PlanError
from ..semantics.binder import BoundQuery, TableBinding
from ..semantics.expressions import (
    AggregateExpr,
    ArithmeticExpr,
    BetweenExpr,
    CaseExpr,
    CastExpr,
    ColumnExpr,
    ComparisonExpr,
    ExtractExpr,
    InListExpr,
    LikeExpr,
    LiteralExpr,
    LogicalExpr,
    NotExpr,
    TypedExpression,
    collect_aggregates,
    collect_columns,
    referenced_bindings,
)
from ..types import SQLType
from ..plan.sargs import extract_scan_predicates
from ..plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalOperator,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from ..plan.physical import (
    AggregateSink,
    AggregateSpec,
    HashBuildSink,
    IntermediateSource,
    OutputSink,
    PhysFilter,
    PhysHashProbe,
    Pipeline,
    PhysicalPlan,
    TableSource,
)
from .cardinality import CardinalityEstimator


@dataclass
class PlanningResult:
    """Everything planning produces for one query."""

    logical: LogicalOperator
    physical: PhysicalPlan
    #: The optimizer's own cost estimate of the whole query (used only by the
    #: "static decision from estimates" contrast experiments).
    estimated_total_rows: float = 0.0


@dataclass
class _JoinStep:
    """One build side attached to the probe spine."""

    binding: TableBinding
    keys: list[tuple[TypedExpression, TypedExpression]]  # (probe, build)
    filters: list[TypedExpression]
    cardinality: float
    #: LEFT OUTER JOIN step: probe rows without a match survive NULL-padded.
    outer: bool = False
    #: ON conjuncts that must be evaluated per candidate match (everything
    #: of the ON clause that is neither a build-side filter nor an equi key).
    residuals: list[TypedExpression] = field(default_factory=list)


class Planner:
    """Plans bound queries against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog)

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #
    def plan(self, query: BoundQuery) -> PlanningResult:
        table_filters, join_edges, residuals = self._classify_predicates(query)

        cardinalities = {
            binding.name: self.estimator.scan_cardinality(
                binding, table_filters.get(binding.name, []))
            for binding in query.bindings
        }

        driver, steps = self._order_joins(query, table_filters, join_edges,
                                          cardinalities)
        # LEFT OUTER JOIN builds are excluded from the greedy ordering above
        # (reordering them past other joins would change which rows are
        # preserved); they attach after the inner spine, in FROM-list order.
        steps = steps + self._outer_join_steps(query)
        logical = self._build_logical(query, driver, steps, table_filters,
                                      residuals, cardinalities)
        physical = self._decompose_pipelines(query, driver, steps,
                                             table_filters, residuals,
                                             cardinalities)
        total = cardinalities[driver.name]
        return PlanningResult(logical=logical, physical=physical,
                              estimated_total_rows=total)

    # ------------------------------------------------------------------ #
    # step 1: predicate classification
    # ------------------------------------------------------------------ #
    def _classify_predicates(self, query: BoundQuery):
        table_filters: dict[str, list[TypedExpression]] = {}
        join_edges: list[tuple[str, str, TypedExpression, TypedExpression]] = []
        residuals: list[TypedExpression] = []

        for predicate in query.predicates:
            bindings = referenced_bindings(predicate)
            if len(bindings) == 1:
                table_filters.setdefault(next(iter(bindings)), []).append(
                    predicate)
                continue
            if len(bindings) == 2 and isinstance(predicate, ComparisonExpr) \
                    and predicate.operator == "=" \
                    and isinstance(predicate.left, ColumnExpr) \
                    and isinstance(predicate.right, ColumnExpr):
                left, right = predicate.left, predicate.right
                join_edges.append((left.binding, right.binding, left, right))
                continue
            residuals.append(predicate)
        return table_filters, join_edges, residuals

    # ------------------------------------------------------------------ #
    # step 2: join ordering
    # ------------------------------------------------------------------ #
    def _order_joins(self, query: BoundQuery, table_filters, join_edges,
                     cardinalities):
        nullable = query.nullable_bindings
        bindings = {binding.name: binding for binding in query.bindings
                    if binding.name not in nullable}
        if not bindings:
            raise PlanError("query has no tables")

        driver_name = max(bindings, key=lambda name: cardinalities[name])
        driver = bindings[driver_name]
        placed = {driver_name}
        remaining = set(bindings) - placed

        steps: list[_JoinStep] = []
        while remaining:
            # Candidates connected to the already placed set via equi joins.
            candidates: dict[str, list] = {}
            for left_b, right_b, left_e, right_e in join_edges:
                if left_b in placed and right_b in remaining:
                    candidates.setdefault(right_b, []).append((left_e, right_e))
                elif right_b in placed and left_b in remaining:
                    candidates.setdefault(left_b, []).append((right_e, left_e))
            if candidates:
                # Greedy: fewest estimated matches per probe row first, so a
                # unique-key join narrows the spine before a many-match
                # one; ties go to the smaller build.
                chosen = min(candidates, key=lambda name: (
                    self._fan_out(bindings[name], candidates[name],
                                  cardinalities[name]),
                    cardinalities[name]))
                keys = candidates[chosen]
            else:
                # Cross product fallback (rare): pick the smallest remaining.
                chosen = min(remaining, key=lambda name: cardinalities[name])
                keys = []
            steps.append(_JoinStep(
                binding=bindings[chosen],
                keys=keys,
                filters=table_filters.get(chosen, []),
                cardinality=cardinalities[chosen]))
            placed.add(chosen)
            remaining.discard(chosen)
        return driver, steps

    def _fan_out(self, binding: TableBinding, keys, rows: float) -> float:
        """Estimated build rows matching one probe row of a hash join.

        ``rows`` (the filtered build cardinality) over the distinct count of
        the build keys: the product of the keys' distinct counts, capped at
        the table's row count.  A key without statistics counts as unique.
        """
        stats = self.catalog.statistics(binding.table_name)
        distinct = 1.0
        for _, build_key in keys:
            column_stats = stats.column(build_key.column) \
                if isinstance(build_key, ColumnExpr) else None
            distinct *= (max(column_stats.num_distinct, 1)
                         if column_stats is not None else stats.num_rows)
        return rows / max(min(distinct, stats.num_rows), 1.0)

    def _outer_join_steps(self, query: BoundQuery) -> list[_JoinStep]:
        """One trailing build step per LEFT OUTER JOIN, in FROM-list order.

        Each ON conjunct is classified relative to the preserved/probe side:
        conjuncts touching only the build binding become build-side scan
        filters (a build row failing them can never match, which is
        equivalent), equi comparisons between a build column and a probe-side
        column become hash keys, and everything else (probe-only conjuncts
        included -- they decide matching, not filtering) is evaluated per
        candidate match as a probe residual.
        """
        bindings = {binding.name: binding for binding in query.bindings}
        steps: list[_JoinStep] = []
        for join in query.outer_joins:
            build = join.binding
            filters: list[TypedExpression] = []
            keys: list[tuple[TypedExpression, TypedExpression]] = []
            residuals: list[TypedExpression] = []
            for conjunct in join.conjuncts:
                refs = referenced_bindings(conjunct)
                if refs <= {build}:
                    filters.append(conjunct)
                elif (isinstance(conjunct, ComparisonExpr)
                        and conjunct.operator == "="
                        and isinstance(conjunct.left, ColumnExpr)
                        and isinstance(conjunct.right, ColumnExpr)
                        and len(refs) == 2 and build in refs):
                    if conjunct.right.binding == build:
                        keys.append((conjunct.left, conjunct.right))
                    else:
                        keys.append((conjunct.right, conjunct.left))
                else:
                    residuals.append(conjunct)
            binding = bindings[build]
            steps.append(_JoinStep(
                binding=binding,
                keys=keys,
                filters=filters,
                cardinality=self.estimator.scan_cardinality(binding, filters),
                outer=True,
                residuals=residuals))
        return steps

    # ------------------------------------------------------------------ #
    # step 3: logical plan
    # ------------------------------------------------------------------ #
    def _build_logical(self, query: BoundQuery, driver: TableBinding,
                       steps: list[_JoinStep], table_filters, residuals,
                       cardinalities) -> LogicalOperator:
        node: LogicalOperator = LogicalScan(
            binding=driver.name, table_name=driver.table_name,
            filters=table_filters.get(driver.name, []),
            cardinality=cardinalities[driver.name])
        running = cardinalities[driver.name]
        for step in steps:
            build = LogicalScan(binding=step.binding.name,
                                table_name=step.binding.table_name,
                                filters=step.filters,
                                cardinality=step.cardinality)
            joined = max(running * self._fan_out(
                step.binding, step.keys, step.cardinality), 1.0)
            if step.outer:
                # Every probe row survives a left join, matched or not.
                joined = max(running, joined)
            running = joined
            node = LogicalJoin(left=node, right=build, keys=step.keys,
                               residual=list(step.residuals),
                               kind="left" if step.outer else "inner",
                               cardinality=running)
        if residuals:
            node = LogicalFilter(child=node, predicates=list(residuals))

        if query.has_aggregation:
            aggregates = _distinct_aggregates(query)
            node = LogicalAggregate(
                child=node, group_by=list(query.group_by),
                aggregates=aggregates, having=query.having,
                cardinality=max(running / 10.0, 1.0))
        node = LogicalProject(child=node, columns=[(c.name, c.expr)
                                                   for c in query.output])
        if query.distinct:
            node = LogicalDistinct(child=node)
        if query.order_by:
            node = LogicalSort(child=node, keys=list(query.order_by))
        if query.limit is not None:
            node = LogicalLimit(child=node, limit=query.limit)
        return node

    # ------------------------------------------------------------------ #
    # step 4: pipeline decomposition
    # ------------------------------------------------------------------ #
    def _decompose_pipelines(self, query: BoundQuery, driver: TableBinding,
                             steps: list[_JoinStep], table_filters, residuals,
                             cardinalities) -> PhysicalPlan:
        pipelines: list[Pipeline] = []
        table_sources: dict[int, TableSource] = {}
        intermediate_sources: dict[int, IntermediateSource] = {}
        source_counter = itertools.count()
        pipeline_counter = itertools.count()
        scan_occurrence: dict[str, int] = {}

        def new_table_source(binding: TableBinding) -> TableSource:
            source = TableSource(source_id=next(source_counter),
                                 binding=binding.name, table=binding.table)
            table_sources[source.source_id] = source
            return source

        def scan_label(table_name: str) -> str:
            scan_occurrence[table_name] = scan_occurrence.get(table_name, 0) + 1
            occurrence = scan_occurrence[table_name]
            return (f"scan {table_name} {occurrence}"
                    if occurrence > 1 else f"scan {table_name}")

        # Columns needed downstream, per binding (for build payloads).
        needed = self._needed_columns(query, steps, residuals)

        # ---- build pipelines (one per join step) ---------------------------
        probes: list[PhysHashProbe] = []
        for join_id, step in enumerate(steps):
            source = new_table_source(step.binding)
            operators = [PhysFilter(p) for p in step.filters]
            payload = _payload_columns(step.binding.name, needed)
            sink = HashBuildSink(join_id=join_id,
                                 build_keys=[k[1] for k in step.keys],
                                 payload_columns=payload)
            pipelines.append(Pipeline(
                pipeline_id=next(pipeline_counter),
                source=source,
                operators=operators,
                sink=sink,
                estimated_rows=step.cardinality,
                label=scan_label(step.binding.table_name),
                scan_predicates=extract_scan_predicates(
                    step.binding.name, step.filters)))
            probes.append(PhysHashProbe(
                join_id=join_id,
                probe_keys=[k[0] for k in step.keys],
                build_binding=step.binding.name,
                payload_columns=payload,
                residual=list(step.residuals),
                outer=step.outer))

        # ---- probe pipeline over the driver --------------------------------
        probe_operators: list = [PhysFilter(p)
                                 for p in table_filters.get(driver.name, [])]
        available = {driver.name}
        pending_residuals = list(residuals)
        # A residual runs as soon as its bindings are available: a constant
        # one (``WHERE false``) right after the driver's filters.
        for probe in [None] + probes:
            if probe is not None:
                probe_operators.append(probe)
                available.add(probe.build_binding)
            still_pending = []
            for residual in pending_residuals:
                if referenced_bindings(residual) <= available:
                    probe_operators.append(PhysFilter(residual))
                else:
                    still_pending.append(residual)
            pending_residuals = still_pending
        if pending_residuals:
            raise PlanError(
                "residual predicates reference bindings that never become "
                "available; unsupported join shape")

        driver_source = new_table_source(driver)
        driver_sargs = extract_scan_predicates(
            driver.name, table_filters.get(driver.name, []))
        output_columns = [(c.name, c.expr.result_type) for c in query.output]

        if query.has_aggregation:
            agg_id = 0
            group_by = list(query.group_by)
            aggregates = _distinct_aggregates(query)
            specs = []
            for aggregate in aggregates:
                specs.append(AggregateSpec(function=aggregate.function,
                                           argument=aggregate.argument,
                                           result_type=aggregate.result_type))
            intermediate = IntermediateSource(
                source_id=next(source_counter),
                name=f"aggregate {agg_id}",
                binding=f"__agg{agg_id}",
                columns=(
                    [(f"k{i}", expr.result_type)
                     for i, expr in enumerate(group_by)]
                    + [(f"a{j}", spec.result_type)
                       for j, spec in enumerate(specs)]))
            intermediate_sources[intermediate.source_id] = intermediate

            pipelines.append(Pipeline(
                pipeline_id=next(pipeline_counter),
                source=driver_source,
                operators=probe_operators,
                sink=AggregateSink(agg_id=agg_id, group_by=group_by,
                                   aggregates=specs,
                                   intermediate=intermediate),
                estimated_rows=cardinalities[driver.name],
                label=scan_label(driver.table_name),
                scan_predicates=driver_sargs))

            # Rewrite output / having / order-by over the intermediate.
            mapping: dict[tuple, ColumnExpr] = {}
            for i, expr in enumerate(group_by):
                mapping[expr.key()] = ColumnExpr(
                    binding=intermediate.binding, column=f"k{i}",
                    result_type=expr.result_type)
            for j, (spec, aggregate) in enumerate(zip(specs, aggregates)):
                mapping[aggregate.key()] = ColumnExpr(
                    binding=intermediate.binding, column=f"a{j}",
                    result_type=spec.result_type)

            rewritten_output = [(c.name, rewrite_expression(c.expr, mapping))
                                for c in query.output]
            rewritten_having = (rewrite_expression(query.having, mapping)
                                if query.having is not None else None)
            rewritten_order = [(rewrite_expression(expr, mapping), asc)
                               for expr, asc in query.order_by]

            final_operators = ([PhysFilter(rewritten_having)]
                               if rewritten_having is not None else [])
            pipelines.append(Pipeline(
                pipeline_id=next(pipeline_counter),
                source=intermediate,
                operators=final_operators,
                sink=OutputSink(output=rewritten_output,
                                order_by=rewritten_order,
                                limit=query.limit,
                                distinct=query.distinct),
                estimated_rows=max(cardinalities[driver.name] / 10.0, 1.0),
                label="hash table scan"))
        else:
            pipelines.append(Pipeline(
                pipeline_id=next(pipeline_counter),
                source=driver_source,
                operators=probe_operators,
                sink=OutputSink(output=[(c.name, c.expr)
                                        for c in query.output],
                                order_by=list(query.order_by),
                                limit=query.limit,
                                distinct=query.distinct),
                estimated_rows=cardinalities[driver.name],
                label=scan_label(driver.table_name),
                scan_predicates=driver_sargs))

        return PhysicalPlan(pipelines=pipelines,
                            output_columns=output_columns,
                            table_sources=table_sources,
                            intermediate_sources=intermediate_sources,
                            parameters=list(query.parameters))

    # ------------------------------------------------------------------ #
    def _needed_columns(self, query: BoundQuery, steps, residuals
                        ) -> dict[str, dict[str, ColumnExpr]]:
        """Columns of each binding needed after its scan/build pipeline."""
        needed: dict[str, dict[str, ColumnExpr]] = {}

        def note(expr: TypedExpression) -> None:
            for column in collect_columns(expr):
                needed.setdefault(column.binding, {})[column.column] = column

        for column in query.output:
            note(column.expr)
        for expr in query.group_by:
            note(expr)
        if query.having is not None:
            note(query.having)
        for expr, _ in query.order_by:
            note(expr)
        for residual in residuals:
            note(residual)
        for step in steps:
            for probe_key, build_key in step.keys:
                note(probe_key)
                note(build_key)
            for residual in step.residuals:
                note(residual)
        return needed


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _payload_columns(binding: str, needed) -> list[ColumnExpr]:
    columns = needed.get(binding, {})
    return [columns[name] for name in sorted(columns)]


def _distinct_aggregates(query: BoundQuery) -> list[AggregateExpr]:
    """All distinct aggregate expressions of the query (by structural key)."""
    seen: dict[tuple, AggregateExpr] = {}
    sources: list[TypedExpression] = [c.expr for c in query.output]
    if query.having is not None:
        sources.append(query.having)
    sources.extend(expr for expr, _ in query.order_by)
    for expr in sources:
        for aggregate in collect_aggregates(expr):
            seen.setdefault(aggregate.key(), aggregate)
    return list(seen.values())


def rewrite_expression(expr: TypedExpression,
                       mapping: dict[tuple, ColumnExpr]) -> TypedExpression:
    """Replace subexpressions by structural key (used for aggregate outputs)."""
    replacement = mapping.get(expr.key())
    if replacement is not None:
        return replacement

    if isinstance(expr, (ColumnExpr, LiteralExpr)):
        return expr
    if isinstance(expr, ArithmeticExpr):
        return dataclasses.replace(
            expr, left=rewrite_expression(expr.left, mapping),
            right=rewrite_expression(expr.right, mapping))
    if isinstance(expr, ComparisonExpr):
        return dataclasses.replace(
            expr, left=rewrite_expression(expr.left, mapping),
            right=rewrite_expression(expr.right, mapping))
    if isinstance(expr, LogicalExpr):
        return dataclasses.replace(
            expr, operands=[rewrite_expression(op, mapping)
                            for op in expr.operands])
    if isinstance(expr, NotExpr):
        return dataclasses.replace(
            expr, operand=rewrite_expression(expr.operand, mapping))
    if isinstance(expr, BetweenExpr):
        return dataclasses.replace(
            expr, expr=rewrite_expression(expr.expr, mapping),
            low=rewrite_expression(expr.low, mapping),
            high=rewrite_expression(expr.high, mapping))
    if isinstance(expr, InListExpr):
        return dataclasses.replace(
            expr, expr=rewrite_expression(expr.expr, mapping),
            values=[rewrite_expression(v, mapping) for v in expr.values])
    if isinstance(expr, LikeExpr):
        return dataclasses.replace(
            expr, expr=rewrite_expression(expr.expr, mapping))
    if isinstance(expr, CaseExpr):
        return dataclasses.replace(
            expr,
            branches=[(rewrite_expression(c, mapping),
                       rewrite_expression(v, mapping))
                      for c, v in expr.branches],
            default=(rewrite_expression(expr.default, mapping)
                     if expr.default is not None else None))
    if isinstance(expr, ExtractExpr):
        return dataclasses.replace(
            expr, operand=rewrite_expression(expr.operand, mapping))
    if isinstance(expr, CastExpr):
        return dataclasses.replace(
            expr, operand=rewrite_expression(expr.operand, mapping))
    if isinstance(expr, AggregateExpr):
        raise PlanError(
            "aggregate expression was not mapped to the aggregate output")
    return expr
