"""Generation of IR worker functions from pipeline plans (paper Fig. 4).

Every pipeline becomes one worker function::

    void workerN(ptr state, i64 morsel_begin, i64 morsel_end)

which processes the source rows in ``[morsel_begin, morsel_end)``: it loads
the needed source columns, evaluates filters, probes join hash tables
(fanning out over matches with nested loops) and finally feeds the pipeline's
sink through a runtime call.  The generated code is purely data-centric --
operators are fused into the loop rather than iterated -- which is exactly
the code shape HyPer produces and the shape the bytecode VM, the compiled
tiers and the adaptive framework all consume unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import CodegenError
from ..ir.builder import IRBuilder
from ..ir.function import ExternFunction, Function, Module
from ..ir.types import f64, i1, i64, ptr, void
from ..ir.values import Constant, Value
from ..ir.verifier import verify_module
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
from ..semantics.expressions import ColumnExpr
from ..types import SQLType
from .expr_codegen import ExpressionCompiler, ir_type_of
from .runtime import QueryRuntime, QueryState


@dataclass
class GeneratedPipeline:
    """One pipeline's generated artefacts."""

    pipeline: Pipeline
    function: Function
    #: Runs single-threaded after all morsels of the pipeline finished
    #: (e.g. materialising an aggregation result).  ``None`` when nothing
    #: needs to happen.
    finish: Optional[Callable[[], None]] = None

    @property
    def name(self) -> str:
        return self.pipeline.name


@dataclass
class GeneratedQuery:
    """The complete generated program of one query.

    The artefacts split into two halves:

    * **Immutable artefacts** -- ``module``, ``pipelines`` (the IR worker
      functions), ``output_sink`` and ``codegen_seconds``.  These are fixed
      once generation finishes and can be shared by many executions; the
      bytecode translations and compiled tiers derived from them are equally
      reusable (see :class:`repro.prepared.PreparedQuery`).
    * **Per-execution state** -- ``state`` (and the ``runtime`` closures bound
      to it).  The generated code references the state's containers by
      identity, so re-execution works by resetting those containers in place
      via :meth:`reset_for_execution` rather than by allocating a new state.
    """

    module: Module
    pipelines: list[GeneratedPipeline]
    state: QueryState
    runtime: QueryRuntime
    output_sink: OutputSink
    codegen_seconds: float = 0.0

    @property
    def instruction_count(self) -> int:
        return self.module.instruction_count()

    def reset_for_execution(self) -> None:
        """Reset the mutable execution state; all artefacts stay valid."""
        self.state.reset()


class CodeGenerator:
    """Generates the IR module for one query execution."""

    def __init__(self, plan: PhysicalPlan, state: QueryState,
                 runtime: Optional[QueryRuntime] = None,
                 verify: bool = True):
        self.plan = plan
        self.state = state
        self.runtime = runtime or QueryRuntime(state)
        self.verify = verify
        self._extern_cache: dict = {}

    # ------------------------------------------------------------------ #
    def generate(self) -> GeneratedQuery:
        start = time.perf_counter()
        module = Module("query")
        generated: list[GeneratedPipeline] = []
        output_sink: Optional[OutputSink] = None

        for index, pipeline in enumerate(self.plan.pipelines):
            function = self._generate_worker(module, index, pipeline)
            finish = self._finish_step(pipeline)
            generated.append(GeneratedPipeline(pipeline=pipeline,
                                               function=function,
                                               finish=finish))
            if isinstance(pipeline.sink, OutputSink):
                output_sink = pipeline.sink

        if output_sink is None:
            raise CodegenError("query plan has no output pipeline")
        if self.verify:
            verify_module(module)

        return GeneratedQuery(
            module=module,
            pipelines=generated,
            state=self.state,
            runtime=self.runtime,
            output_sink=output_sink,
            codegen_seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # per-pipeline worker generation
    # ------------------------------------------------------------------ #
    def _generate_worker(self, module: Module, index: int,
                         pipeline: Pipeline) -> Function:
        function = Function(f"worker{index}", [ptr, i64, i64],
                            ["state", "morsel_begin", "morsel_end"])
        module.add_function(function)
        builder = IRBuilder(function)

        # Error path shared by all overflow checks of this worker.
        error_block = function.add_block("overflow.error")
        error_builder = IRBuilder(function, error_block)
        raise_extern = ExternFunction("rt_raise_overflow", [], void,
                                      QueryRuntime.raise_overflow)
        error_builder.call(raise_extern, [])
        error_builder.unreachable()

        # Canonical scan loop over the morsel range.
        head = builder.new_block("scan.head")
        body = builder.new_block("scan.body")
        latch = builder.new_block("scan.latch")
        exit_block = builder.new_block("scan.exit")

        entry = builder.block
        builder.br(head)
        builder.set_block(head)
        row = builder.phi(i64, "row")
        row.add_incoming(function.args[1], entry)
        in_range = builder.cmp("lt", row, function.args[2])
        builder.condbr(in_range, body, exit_block)

        builder.set_block(body)
        column_cache: dict[tuple[str, str], Value] = {}
        resolver = self._source_resolver(builder, pipeline, row, column_cache)
        compiler = ExpressionCompiler(builder, error_block, resolver,
                                      self._extern_cache,
                                      params=self.state.params)
        self._emit_operators(builder, compiler, pipeline, 0,
                             done_label=latch, row=row,
                             resolver_stack=[resolver])

        builder.set_block(latch)
        next_row = builder.add(row, builder.const_i64(1))
        row.add_incoming(next_row, latch)
        builder.br(head)

        builder.set_block(exit_block)
        builder.ret()
        return function

    # ------------------------------------------------------------------ #
    # source column resolution
    # ------------------------------------------------------------------ #
    def _source_resolver(self, builder: IRBuilder, pipeline: Pipeline,
                         row: Value, cache: dict):
        source = pipeline.source

        if isinstance(source, TableSource):
            table = source.table
            binding = source.binding

            # Note: column loads are deliberately *not* cached per row.  A
            # load emitted inside a conditional sub-expression (e.g. a CASE
            # branch) would not dominate later uses after the merge; the
            # optimized tier's dominator-scoped CSE removes the duplicates
            # where that is legal.
            def resolve(column: ColumnExpr) -> Value:
                if column.binding != binding:
                    raise CodegenError(
                        f"column {column.binding}.{column.column} is not "
                        f"available from pipeline source {binding!r}")
                data = table.column_data(column.column)
                pointer = Constant(ptr, (data, 0))
                element = builder.gep(pointer, row)
                return self._load_column(builder, element,
                                         column.storage_type)
            return resolve

        # Intermediate source: columns live in the pre-created state lists.
        assert isinstance(source, IntermediateSource)
        agg_id = self._agg_id_for(source)
        columns = self.state.intermediate_columns[agg_id]
        names = source.column_names()
        types = dict(source.columns)

        def resolve_intermediate(column: ColumnExpr) -> Value:
            if column.binding != source.binding:
                raise CodegenError(
                    f"column {column.binding}.{column.column} is not "
                    f"available from intermediate {source.binding!r}")
            position = names.index(column.column)
            pointer = Constant(ptr, (columns[position], 0))
            element = builder.gep(pointer, row)
            sql_type = types[column.column]
            return self._load_column(builder, element, sql_type,
                                     already_decoded=True)
        return resolve_intermediate

    def _agg_id_for(self, source: IntermediateSource) -> int:
        for pipeline in self.plan.pipelines:
            sink = pipeline.sink
            if isinstance(sink, AggregateSink) and sink.intermediate is source:
                return sink.agg_id
        raise CodegenError(f"no producing pipeline for {source.name!r}")

    def _load_column(self, builder: IRBuilder, element: Value,
                     sql_type: SQLType, already_decoded: bool = False) -> Value:
        if sql_type is SQLType.FLOAT64:
            return builder.load(f64, element)
        if sql_type is SQLType.STRING:
            return builder.load(ptr, element)
        if sql_type is SQLType.DECIMAL and not already_decoded:
            # Stored as a scaled integer; surface as its numeric value.
            raw = builder.load(i64, element)
            as_float = builder.sitofp(raw)
            return builder.binary("fmul", as_float, Constant(f64, 0.01))
        if sql_type is SQLType.BOOL:
            raw = builder.load(i64, element)
            return builder.trunc(raw, i1)
        return builder.load(i64, element)

    # ------------------------------------------------------------------ #
    # operator chain
    # ------------------------------------------------------------------ #
    def _emit_operators(self, builder: IRBuilder,
                        compiler: ExpressionCompiler, pipeline: Pipeline,
                        op_index: int, done_label, row: Value,
                        resolver_stack: list) -> None:
        operators = pipeline.operators
        if op_index == len(operators):
            self._emit_sink(builder, compiler, pipeline)
            builder.br(done_label)
            return

        operator = operators[op_index]

        if isinstance(operator, PhysFilter):
            condition = compiler.compile(operator.predicate)
            passed = builder.new_block(f"filter{op_index}.pass")
            builder.condbr(condition, passed, done_label)
            builder.set_block(passed)
            self._emit_operators(builder, compiler, pipeline, op_index + 1,
                                 done_label, row, resolver_stack)
            return

        if isinstance(operator, PhysHashProbe):
            self._emit_probe(builder, compiler, pipeline, operator, op_index,
                             done_label, row, resolver_stack)
            return

        raise CodegenError(f"unknown operator {type(operator).__name__}")

    def _emit_probe(self, builder: IRBuilder, compiler: ExpressionCompiler,
                    pipeline: Pipeline, probe: PhysHashProbe, op_index: int,
                    done_label, row: Value, resolver_stack: list) -> None:
        key_values = [compiler.compile(key) for key in probe.probe_keys]

        probe_impl = self.runtime.make_probe(probe.join_id,
                                             len(probe.probe_keys))
        probe_extern = ExternFunction(
            probe_impl.__name__,
            [ir_type_of(key.result_type) for key in probe.probe_keys],
            ptr, probe_impl, has_side_effects=False,
            inline=(self.runtime.probe_inline(probe.join_id)
                    if len(probe.probe_keys) == 1 else None))
        matches = builder.call(probe_extern, key_values, "matches")

        count_extern = self._cached_extern(
            ("match_count",), "rt_match_count", [ptr], i64,
            QueryRuntime.match_count, pure=True,
            inline=QueryRuntime.MATCH_COUNT_INLINE)
        match_count = builder.call(count_extern, [matches], "match_count")

        # LEFT OUTER JOIN with residuals: a per-probe-row flag cell records
        # whether any match passed them (allocated fresh per row; the extern
        # is side-effecting so no tier merges or hoists the allocation).
        flag_cell = None
        if probe.outer and probe.residual:
            flag_new = self._cached_extern(
                ("flag_new",), "rt_flag_new", [], ptr,
                QueryRuntime.flag_new)
            flag_cell = builder.call(flag_new, [],
                                     f"matched{probe.join_id}")

        # Inner loop over the matching build-side rows.
        head = builder.new_block(f"probe{probe.join_id}.head")
        body = builder.new_block(f"probe{probe.join_id}.body")
        latch = builder.new_block(f"probe{probe.join_id}.latch")
        # For an outer probe the loop's exhausted edge runs through an
        # unmatched check instead of straight to ``done_label``.
        exhausted = (builder.new_block(f"probe{probe.join_id}.exhausted")
                     if probe.outer else None)

        preheader = builder.block
        builder.br(head)
        builder.set_block(head)
        match_index = builder.phi(i64, f"match{probe.join_id}")
        match_index.add_incoming(Constant(i64, 0), preheader)
        has_more = builder.cmp("lt", match_index, match_count)
        builder.condbr(has_more, body,
                       exhausted if probe.outer else done_label)

        builder.set_block(body)

        # Extend column resolution with the probe payload (no caching, for
        # the same dominance reason as the source resolver).
        getters: dict[str, ExternFunction] = {}
        for position, column in enumerate(probe.payload_columns):
            getter_impl = QueryRuntime.make_match_getter(position)
            getters[column.column] = ExternFunction(
                f"rt_match_get_{probe.join_id}_{position}",
                [ptr, i64], ir_type_of(column.result_type),
                getter_impl, has_side_effects=False,
                inline=QueryRuntime.match_getter_inline(position))
        payload_columns = {column.column for column in probe.payload_columns}
        parent_resolver = resolver_stack[-1]

        def resolve(column: ColumnExpr) -> Value:
            if column.binding == probe.build_binding \
                    and column.column in payload_columns:
                return builder.call(getters[column.column],
                                    [matches, match_index])
            return parent_resolver(column)

        inner_compiler = ExpressionCompiler(builder, compiler.error_block,
                                            resolve, self._extern_cache,
                                            params=self.state.params)

        # Residual predicates of this join, then the rest of the chain; a
        # failing residual moves on to the next match (the inner latch).
        def continue_chain():
            self._emit_operators(builder, inner_compiler, pipeline,
                                 op_index + 1, latch, row,
                                 resolver_stack + [resolve])

        if probe.residual:
            residual_value = None
            for predicate in probe.residual:
                value = inner_compiler.compile(predicate)
                residual_value = (value if residual_value is None
                                  else builder.and_(residual_value, value))
            passed = builder.new_block(f"probe{probe.join_id}.residual")
            builder.condbr(residual_value, passed, latch)
            builder.set_block(passed)
            if flag_cell is not None:
                flag_set = self._cached_extern(
                    ("flag_set",), "rt_flag_set", [ptr], void,
                    QueryRuntime.flag_set)
                builder.call(flag_set, [flag_cell])
        continue_chain()

        builder.set_block(latch)
        next_index = builder.add(match_index, builder.const_i64(1))
        match_index.add_incoming(next_index, latch)
        builder.br(head)

        if probe.outer:
            # The match loop is exhausted: if no match survived, emit the
            # probe row once with every build payload column NULL-padded.
            builder.set_block(exhausted)
            if flag_cell is not None:
                flag_get = self._cached_extern(
                    ("flag_get",), "rt_flag_get", [ptr], i1,
                    QueryRuntime.flag_get)
                matched = builder.call(flag_get, [flag_cell],
                                       f"any_match{probe.join_id}")
            else:
                matched = builder.cmp("gt", match_count, Constant(i64, 0),
                                      f"any_match{probe.join_id}")
            unmatched = builder.new_block(f"probe{probe.join_id}.unmatched")
            builder.condbr(matched, done_label, unmatched)
            builder.set_block(unmatched)

            def resolve_null(column: ColumnExpr) -> Value:
                if column.binding == probe.build_binding \
                        and column.column in payload_columns:
                    return builder.call(
                        self._null_extern(column.result_type), [])
                return parent_resolver(column)

            null_compiler = ExpressionCompiler(builder, compiler.error_block,
                                               resolve_null,
                                               self._extern_cache,
                                               params=self.state.params)
            self._emit_operators(builder, null_compiler, pipeline,
                                 op_index + 1, done_label, row,
                                 resolver_stack + [resolve_null])
            return

        # Continue emitting after the loop is not needed: every downstream
        # path ends at ``done_label`` via the loop exit edge above.

    # ------------------------------------------------------------------ #
    # sinks
    # ------------------------------------------------------------------ #
    def _emit_sink(self, builder: IRBuilder, compiler: ExpressionCompiler,
                   pipeline: Pipeline) -> None:
        sink = pipeline.sink
        # The worker function's ``state`` argument carries the per-worker
        # breaker context (a WorkerContext); every sink call forwards it so
        # partial state stays slot-local no matter which tier executes the
        # call.
        context_arg = builder.function.args[0]

        if isinstance(sink, HashBuildSink):
            key_values = [compiler.compile(key) for key in sink.build_keys]
            payload_values = [compiler.compile(column)
                              for column in sink.payload_columns]
            insert_impl = self.runtime.make_build_insert(
                sink.join_id, len(sink.build_keys), len(sink.payload_columns))
            arg_types = ([ptr]
                         + [ir_type_of(k.result_type) for k in sink.build_keys]
                         + [ir_type_of(c.result_type)
                            for c in sink.payload_columns])
            insert_extern = ExternFunction(insert_impl.__name__, arg_types,
                                           void, insert_impl)
            builder.call(insert_extern,
                         [context_arg] + key_values + payload_values)
            return

        if isinstance(sink, AggregateSink):
            group_values = [compiler.compile(expr) for expr in sink.group_by]
            argument_values = []
            argument_types = []
            for spec in sink.aggregates:
                if spec.argument is None:
                    continue
                argument_values.append(compiler.compile(spec.argument))
                argument_types.append(ir_type_of(spec.argument.result_type))
            update_impl = self.runtime.make_agg_update(sink)
            arg_types = ([ptr] + [ir_type_of(expr.result_type)
                                  for expr in sink.group_by] + argument_types)
            update_extern = ExternFunction(update_impl.__name__, arg_types,
                                           void, update_impl)
            builder.call(update_extern,
                         [context_arg] + group_values + argument_values)
            return

        if isinstance(sink, OutputSink):
            values = [compiler.compile(expr) for _, expr in sink.output]
            types = [ir_type_of(expr.result_type) for _, expr in sink.output]
            # Sort keys ride along at the end of each emitted row so the
            # finish step can order rows without re-evaluating expressions.
            for expr, _ in sink.order_by:
                values.append(compiler.compile(expr))
                types.append(ir_type_of(expr.result_type))
            emit_impl = self.runtime.make_emit(sink)
            emit_extern = ExternFunction(emit_impl.__name__, [ptr] + types,
                                         void, emit_impl)
            builder.call(emit_extern, [context_arg] + values)
            return

        raise CodegenError(f"unknown sink {type(sink).__name__}")

    # ------------------------------------------------------------------ #
    def _finish_step(self, pipeline: Pipeline) -> Optional[Callable[[], None]]:
        sink = pipeline.sink
        if isinstance(sink, AggregateSink):
            runtime = self.runtime

            def finish():
                runtime.finalize_aggregate(sink)
            return finish
        return None

    def _null_extern(self, sql_type: SQLType) -> ExternFunction:
        """A pure extern producing the typed NULL of one payload column.

        The IR stays statically typed (one extern per IR type); at runtime
        every tier passes the Python ``None`` through unchanged.
        """
        ir_type = ir_type_of(sql_type)
        return self._cached_extern(("null", ir_type), f"rt_null_{ir_type}",
                                   [], ir_type, QueryRuntime.null_value,
                                   pure=True)

    def _cached_extern(self, key: tuple, name: str, arg_types, return_type,
                       impl, pure: bool = False,
                       inline=None) -> ExternFunction:
        extern = self._extern_cache.get(key)
        if extern is None:
            extern = ExternFunction(name, arg_types, return_type, impl,
                                    has_side_effects=not pure, inline=inline)
            self._extern_cache[key] = extern
        return extern
