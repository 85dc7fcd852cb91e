"""Prepared queries: plan and generate code once, execute many times.

A :class:`PreparedQuery` pins the immutable artifacts of one query -- the
physical plan, the generated IR module and the per-pipeline worker functions
-- together with the mutable :class:`repro.codegen.QueryState` the generated
code is bound to.  Re-execution resets that state in place (the generated
code references its containers by identity) and reuses every artifact the
previous executions already paid for:

* parse / bind / plan / codegen are never repeated,
* every mode keeps one :class:`repro.adaptive.FunctionHandle` per
  ``(pipeline, mode)``, so the tier a static mode compiled and the tier
  the adaptive mode's Fig. 7 policy switched to are reused as they are:
  the latter is simply *the current mode* of the next adaptive run, and
  either compile cost is paid once.

Because the artifacts are bound to a single ``QueryState``, executions of one
``PreparedQuery`` are serialized by an internal lock; calling ``execute``
from many threads is safe, and distinct prepared queries execute fully
concurrently.  Each execution itself remains morsel-parallel, drawing its
workers from the database's shared pool (see :mod:`repro.scheduler`) rather
than spawning threads.  ``Database`` never blocks on a busy entry: it
executes with ``block=False`` and falls back to an independent cold build
when another thread holds the cached entry.

Stale plans are detected through the catalog's per-table *plan* versions:
DDL on a referenced table, or an append that refreshes its statistics (see
:data:`repro.catalog.catalog.STATISTICS_DRIFT`), invalidates the entry (the
plan cache drops it; a directly held ``PreparedQuery`` transparently
re-prepares itself on the next ``execute``).  A smaller append keeps the
entry and every artifact above: the generated code reads the table through
stable column views, and row counts and scan ranges are taken per execution.
Cached *results* key on the data version instead, which every append moves.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from functools import cached_property
from typing import Optional

from .adaptive import PipelineExecutor
from .cache import plan_cache_key
from .engine import ENGINE_MODES, PhaseTimings, QueryResult, \
    referenced_tables
from .errors import ExecutionError, ParameterError
from .options import ExecOptions
from .parameters import ParameterSpec, bind_parameter_values
from .result_cache import result_cache_key


class PreparedQuery:
    """One query's cached plan, code and compiled execution tiers."""

    def __init__(self, database, sql: str, generated, planning,
                 build_timings: PhaseTimings, catalog_version: int,
                 parameter_hints: Optional[list] = None):
        self.database = database
        self.sql = sql
        #: Literal values auto-parameterization extracted (None for
        #: explicitly written statements); re-used when the entry re-binds
        #: after invalidation, since hint-typed parameters (e.g. a constant
        #: projection) cannot be typed from context alone.
        self.parameter_hints = parameter_hints
        self.generated = generated
        self.planning = planning
        #: Phase timings of building this entry (parse/bind/plan/codegen);
        #: reported by the first execution, skipped by every later one.
        self.build_timings = build_timings
        #: Global catalog version snapshotted *before* the plan was built.
        #: A referenced table whose plan version exceeds this changed during
        #: or after the build window, so the plan is stale either way; taking
        #: the snapshot first closes the race in which a concurrent change
        #: between generation and capture would stamp a stale plan as valid.
        self._catalog_version = catalog_version
        self._referenced = referenced_tables(planning)
        #: Number of bindings served (executed, or answered from the
        #: result cache).
        self.executions = 0
        self._lock = threading.RLock()
        self._first_execution = True
        #: (pipeline index, mode) -> FunctionHandle; populated lazily,
        #: keeps bytecode translations and compiled tiers alive across
        #: executions.  Each mode has its own handles, so an adaptive run
        #: starts in bytecode even after a static run compiled the query.
        self._handles: dict = {}

    # ------------------------------------------------------------------ #
    @cached_property
    def plan_key(self) -> str:
        """The plan-cache key of this statement; also the first component
        of its result-cache keys.  Computed on first use: an entry built
        for ``use_cache=False`` consults no cache and never needs it."""
        return plan_cache_key(self.sql, self.parameter_hints)

    @property
    def referenced_tables(self) -> frozenset[str]:
        return self._referenced

    @property
    def parameters(self) -> list[ParameterSpec]:
        """The statement's bind-parameter slots (empty when literal-only)."""
        return self.planning.physical.parameters

    def is_valid(self) -> bool:
        """Whether no plan input changed since this plan was built.

        Reads the referenced tables' plan versions: DDL and statistics
        refreshes invalidate, appends below the drift threshold do not
        (the plan reads the appended rows on its next execution).
        """
        catalog = self.database.catalog
        return all(catalog.plan_version(name) <= self._catalog_version
                   for name in self._referenced)

    def _rebuild(self) -> None:
        """Re-prepare after DDL on, or a statistics refresh of, a referenced
        table; drops every cached bytecode translation and compiled tier."""
        catalog_version = self.database.catalog.version
        generated, planning, timings = self.database.generate(
            self.sql, self.parameter_hints)
        self.generated = generated
        self.planning = planning
        self.build_timings = timings
        self._catalog_version = catalog_version
        self._referenced = referenced_tables(planning)
        self._handles.clear()
        self._first_execution = True

    # ------------------------------------------------------------------ #
    def execute(self, options: Optional[ExecOptions] = None, params=None,
                cost_model=None, policy=None,
                block: bool = True) -> Optional[QueryResult]:
        """Execute the prepared query in any compiled-engine mode.

        :meth:`execute_many` with the single binding ``params`` (a sequence
        for positional ``?`` statements, a mapping for ``:name``
        statements); see there for ``cost_model`` / ``policy`` / ``block``.
        """
        results = self.execute_many([params], options=options,
                                    cost_model=cost_model, policy=policy,
                                    block=block)
        return None if results is None else results[0]

    def execute_many(self, bindings, options: Optional[ExecOptions] = None,
                     cost_model=None, policy=None,
                     block: bool = True) -> Optional[list[QueryResult]]:
        """Execute one prepared shape for every binding in ``bindings``.

        Returns one :class:`QueryResult` per binding, in order.  The whole
        batch runs as a single fused pass over this entry's prepared
        artifacts: validity is checked once, every binding is encoded up
        front (so a bad binding fails *before* any execution and leaves the
        entry fully reusable), and the per-binding executions share the
        plan, the generated IR, compiled tiers and adaptive handles -- each
        binding only pays parameter rebinding plus sargable re-pruning of
        the shared scan.  With the result cache enabled, identical bindings
        within the batch are deduplicated (one execution, shared rows) and
        previously cached bindings skip execution entirely.

        ``cost_model`` / ``policy`` override the adaptive policy inputs
        (adaptive mode only).  The first execution after (re)preparation
        reports the full build timings; later ones report zero for
        parse/bind/plan/codegen and only pay compilation for tiers not
        compiled yet.

        ``block=False`` returns ``None`` instead of waiting when another
        thread is currently executing this entry.  ``Database`` uses this
        to keep concurrent callers of the same statement independent: the
        loser of the race falls back to a cold build rather than waiting
        for the cached entry's state.
        """
        opts = ExecOptions.of(options)
        if opts.mode not in ENGINE_MODES:
            raise ExecutionError(
                f"unknown execution mode {opts.mode!r} for a prepared "
                f"query; expected one of {ENGINE_MODES}")
        bindings = list(bindings)
        if not self._lock.acquire(blocking=block):
            return None
        try:
            if not self.is_valid():
                self._rebuild()
            encoded = [bind_parameter_values(self.parameters, binding)
                       for binding in bindings]
            results = self.database._serve_bindings(
                opts, lambda: self.plan_key, self._referenced, encoded,
                lambda values: self._run_bound(opts, cost_model, policy,
                                               values))
            self.executions += len(results)
            return results
        finally:
            self._lock.release()

    def cached_result(self, options: Optional[ExecOptions] = None,
                      params=None) -> Optional[QueryResult]:
        """A result-cache hit for this statement + bindings, or ``None``.

        Lock-free probe: never executes, never builds, never blocks on a
        busy entry.  Used by ``Database`` when the cached entry is
        mid-execution on another thread, and by the network server to
        serve hot reads without consuming a scheduler admission slot.
        """
        opts = ExecOptions.of(options)
        database = self.database
        result_cache = database._usable_result_cache(opts)
        if result_cache is None or not self.is_valid():
            return None
        try:
            values = bind_parameter_values(self.parameters, params)
        except ParameterError:
            return None  # let the execution path raise the real error
        key = result_cache_key(self.plan_key, opts.mode, values)
        entry = result_cache.get(key, database.catalog.table_version)
        if entry is None:
            return None
        return entry.to_result()

    def _run_bound(self, opts: ExecOptions, cost_model, policy,
                   values: list) -> QueryResult:
        """Run one execution with already-encoded parameter values."""
        first = self._first_execution
        self._first_execution = False
        timings = replace(self.build_timings) if first else PhaseTimings()
        self.generated.reset_for_execution()
        self.generated.state.set_params(values)
        database = self.database
        # Install the database's breaker layout (a no-op once installed:
        # generated code reads the partition lists by identity and sizes
        # masks per call).
        self.generated.state.configure_breakers(
            partitions=database.breaker_partitions)
        # Resolve LIMIT against the just-bound parameters and choose the
        # output strategy (top-k breaker / early termination / plain
        # collection) for this execution.
        self.generated.state.configure_output(self.generated.output_sink)
        self.generated.state.collect_operator_stats = \
            opts.collect_operator_stats

        executor = PipelineExecutor(database, opts, self._handles,
                                    cost_model=cost_model, policy=policy)
        result = executor.execute(self.generated, self.planning, timings)
        result.cached = not first
        if result.cached:
            result.cache_source = "plan"
        # Free the execution state eagerly: the result no longer aliases it
        # (finish_output copies the rows), and a cached entry would otherwise
        # pin its last execution's join/aggregation hash tables until the
        # next run.
        self.generated.reset_for_execution()
        return result

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tables = ",".join(sorted(self._referenced)) or "-"
        return (f"<PreparedQuery tables=[{tables}] "
                f"executions={self.executions}>")
