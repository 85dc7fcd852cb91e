"""The database engine facade.

:class:`Database` glues the whole stack together: catalog, SQL front end,
planner, code generator and the execution tiers.  It exposes the same
execution modes the paper evaluates:

* ``"ir-interp"``     -- direct IR interpretation (the "LLVM interpreter"
  stand-in, slowest; Fig. 2 only),
* ``"bytecode"``      -- translate to VM bytecode and interpret,
* ``"unoptimized"``   -- compile every worker without IR passes,
* ``"optimized"``     -- run the pass pipeline and compile every worker,
* ``"adaptive"``      -- the paper's contribution: start in bytecode,
  switch per pipeline based on runtime feedback,
* ``"volcano"`` / ``"vectorized"`` -- the interpretation baselines
  (PostgreSQL / MonetDB stand-ins) implemented in :mod:`repro.baselines`.

Every :class:`QueryResult` carries a per-phase timing breakdown (parse,
analysis, planning, code generation, compilation, execution), which is what
the Table I / Fig. 1 / Fig. 3 reproductions report.

There is one request path.  ``execute`` is a one-binding ``execute_many``;
both resolve their :class:`repro.ExecOptions` and hand the statement and
its bindings to :meth:`Database._run`, which validates once, picks the
engine or the baseline executor, and records telemetry.  ``submit`` /
``submit_many`` (scheduler), the wire server and EXPLAIN ANALYZE are thin
adapters over the same two calls.

Repeated queries are served from a plan/artifact cache: the engine path
looks up the statement's :func:`repro.cache.plan_cache_key` in an LRU
:class:`repro.cache.PlanCache` of :class:`repro.prepared.PreparedQuery`
entries, so re-executions skip parse/bind/plan/codegen entirely and reuse
bytecode translations and compiled tiers.  ``prepare_query`` exposes the
same machinery explicitly; ``ExecOptions(use_cache=False)`` bypasses it
for cold-path measurements.  Entries are invalidated through the catalog's
per-table plan versions (bumped by DDL, and by an ``insert`` that refreshes
the table's statistics); cached results key on the data versions, which
every ``insert`` bumps.

Concurrent serving goes through :mod:`repro.scheduler`: a database owns one
shared :class:`~repro.scheduler.WorkerPool` (all parallel executions draw
their morsel workers from it -- no per-query thread spawning), one shared
:class:`~repro.scheduler.CompileExecutor` for background tier compilation,
and a lazily created :class:`~repro.scheduler.QueryScheduler` behind
``submit(sql) -> QueryTicket`` with bounded admission.  ``session()``
creates per-client default/stat carriers, and ``close()`` (or using the
database as a context manager) shuts the serving machinery down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .cache import PlanCache, auto_parameterize_sql, plan_cache_key
from .result_cache import ResultCache, result_cache_key
from .catalog import Catalog
from .codegen import CodeGenerator, GeneratedQuery, QueryState
from .errors import ExecutionError, SchedulerError
from .options import ExecOptions
from .optimizer import Planner, PlanningResult
from .parameters import bind_parameter_values
from .plan.physical import AggregateSink, HashBuildSink, OutputSink, \
    TableSource
from .telemetry import (MetricsRegistry, QueryTelemetry, TELEMETRY_LEVELS,
                        build_explain_analyze, build_explain_plan,
                        split_explain)
from .scheduler import CompileExecutor, QueryScheduler, QueryTicket, \
    Session, WorkerPool
from .semantics import Binder, BoundQuery
from .sqlparser import parse
from .types import SQLType, decode_internal_rows
from .vm import IRInterpreter, VirtualMachine, translate_function
from .backend import compile_function
from .codegen.runtime import round_up_pow2, strip_sort_keys

#: Execution modes backed by the compiled-query engine.
ENGINE_MODES = ("ir-interp", "bytecode", "unoptimized", "optimized",
                "adaptive")
#: Baseline engines (separate implementations).
BASELINE_MODES = ("volcano", "vectorized")

#: Default morsel size (tuples per work unit), as in the paper (~10k).
DEFAULT_MORSEL_SIZE = 10_000


#: Default worker-pool size of a database (shared by all its queries).
DEFAULT_WORKERS = 4


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each phase of one query execution."""

    parse: float = 0.0
    bind: float = 0.0
    plan: float = 0.0
    codegen: float = 0.0
    compile: float = 0.0      # bytecode translation or backend compilation
    execution: float = 0.0
    #: Seconds spent queued before the scheduler started the query (0.0 for
    #: direct ``execute`` calls).  Deliberately *not* part of :attr:`total`,
    #: which keeps its meaning of "time spent doing work"; end-to-end
    #: latency of a submitted query is ``queue + total``.
    queue: float = 0.0
    #: Storage chunks skipped / scanned by zone-map pruning, summed over all
    #: table-scan pipelines of the execution (not part of :attr:`total`).
    chunks_pruned: int = 0
    chunks_scanned: int = 0
    #: Pipeline-breaker metrics: hash partitions per breaker, total partial
    #: entries across worker contexts before merging and wall-clock seconds
    #: of the merge phases (part of :attr:`execution`, broken out here).
    breaker_partitions: int = 0
    breaker_partials: int = 0
    breaker_merge: float = 0.0
    #: Constant 0; sole reader: harness/layers.py ``runtime.breaker_locks``.
    breaker_locks: int = 0

    @property
    def planning(self) -> float:
        """Parsing + semantic analysis + optimization (paper's "plan")."""
        return self.parse + self.bind + self.plan

    @property
    def total(self) -> float:
        return (self.parse + self.bind + self.plan + self.codegen
                + self.compile + self.execution)

    @property
    def latency(self) -> float:
        """End-to-end seconds including scheduler queue wait."""
        return self.queue + self.total


@dataclass
class PipelineExecution:
    """Execution statistics of one pipeline."""

    name: str
    rows: int
    morsels: int
    seconds: float
    mode_history: list[str] = field(default_factory=list)
    ir_instructions: int = 0
    #: Breaker metrics of this pipeline.  ``breaker_partitions`` is the
    #: hash-partition count of a join-build/aggregate breaker (0 for output
    #: pipelines);
    #: ``breaker_partial_entries`` counts entries across all worker
    #: partials before the merge (buffered rows for output pipelines).
    breaker_partitions: int = 0
    breaker_partial_entries: int = 0
    merge_seconds: float = 0.0
    #: Operator chain of the pipeline (``Pipeline.describe()``), filled by
    #: every execution path so EXPLAIN ANALYZE can annotate the plan.
    description: str = ""
    #: Rows the pipeline's sink produced: hash-table entries for a join
    #: build (only when ``collect_operator_stats`` is on -- counting them
    #: is O(keys)), groups for an aggregation, result rows for the output
    #: sink.  ``None`` when not collected.
    rows_out: Optional[int] = None
    #: Zone-map pruning outcome of this pipeline's scan.
    chunks_scanned: int = 0
    chunks_pruned: int = 0


@dataclass
class QueryResult:
    """The outcome of one query execution."""

    column_names: list[str]
    column_types: list[SQLType]
    rows: list[tuple]
    mode: str
    timings: PhaseTimings
    pipelines: list[PipelineExecution] = field(default_factory=list)
    ir_instructions: int = 0
    trace: Optional[object] = None
    #: True when this execution reused a prepared/cached plan (the parse /
    #: bind / plan / codegen phases were skipped entirely) or was served
    #: from the semantic result cache.
    cached: bool = False
    #: What was reused: ``"plan"`` (cached plan, real execution),
    #: ``"result"`` (materialized rows, no execution at all), or ``None``
    #: for a cold run.
    cache_source: Optional[str] = None
    #: True when a LIMIT-without-ORDER-BY quota cancelled morsel dispatch
    #: before the scan was exhausted.
    early_terminated: bool = False
    #: The unified :class:`repro.telemetry.QueryTrace` of this execution
    #: (lifecycle spans, tier-switch events; morsel events at telemetry
    #: level ``"trace"``).  ``None`` at level ``"off"``.
    query_trace: Optional[object] = None
    #: The structured :class:`repro.telemetry.ExplainResult` when this
    #: result came from an EXPLAIN / EXPLAIN ANALYZE statement.
    explain: Optional[object] = None

    @property
    def query_id(self) -> str:
        """Stable query id assigned by telemetry ("" at level "off")."""
        if self.query_trace is None:
            return ""
        return self.query_trace.query_id

    @property
    def stats(self) -> dict:
        """Execution statistics of this query (pruning + breaker counters)."""
        return {
            "mode": self.mode,
            "cached": self.cached,
            "cache_source": self.cache_source,
            "chunks_pruned": self.timings.chunks_pruned,
            "chunks_scanned": self.timings.chunks_scanned,
            "breaker_partitions": self.timings.breaker_partitions,
            "breaker_partial_entries": self.timings.breaker_partials,
            "breaker_merge_seconds": self.timings.breaker_merge,
            "limit_early_terminated": self.early_terminated,
        }

    def decoded_rows(self) -> list[tuple]:
        """Rows with DATE/BOOL/DECIMAL columns decoded to Python objects."""
        return decode_internal_rows(self.rows, self.column_types)

    def columns(self) -> dict[str, list]:
        """Column name -> list of values, in result-column order."""
        return {name: [row[index] for row in self.rows]
                for index, name in enumerate(self.column_names)}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def referenced_tables(planning: PlanningResult) -> frozenset[str]:
    """The lower-cased names of all base tables a physical plan reads."""
    names = set()
    for pipeline in planning.physical.pipelines:
        source = pipeline.source
        if isinstance(source, TableSource):
            names.add(source.table.name.lower())
    return frozenset(names)


def _share_result(result: QueryResult) -> QueryResult:
    """A result sharing another's rows (deduplicated batch binding)."""
    shared = QueryResult(
        column_names=list(result.column_names),
        column_types=list(result.column_types),
        rows=list(result.rows),
        mode=result.mode,
        timings=PhaseTimings(),
        early_terminated=result.early_terminated)
    shared.cached = True
    shared.cache_source = "result"
    return shared


class Database:
    """A single-node, in-memory database instance.

    ``workers`` sizes the shared worker pool every parallel execution draws
    from; ``max_concurrent`` / ``max_pending`` bound the query scheduler
    behind :meth:`submit` (running queries and the admission queue).  The
    pool, the compile executor and the scheduler are all created lazily, so
    a database used purely synchronously never starts a thread.
    """

    def __init__(self, morsel_size: int = DEFAULT_MORSEL_SIZE,
                 plan_cache_size: int = 64,
                 workers: int = DEFAULT_WORKERS,
                 max_concurrent: Optional[int] = None,
                 max_pending: int = 256,
                 auto_parameterize: bool = True,
                 result_cache_size: Optional[int] = None,
                 result_cache_bytes: Optional[int] = None):
        self.catalog = Catalog()
        self.morsel_size = morsel_size
        self._vm = VirtualMachine()
        #: LRU cache of prepared queries; ``plan_cache_size=0`` disables it.
        self.plan_cache = PlanCache(plan_cache_size)
        #: Semantic result cache above the plan cache: repeated identical
        #: reads return materialized rows with zero execution (see
        #: :mod:`repro.result_cache`).  ``result_cache_size=0`` disables
        #: it; ``ExecOptions.use_result_cache=False`` bypasses per call.
        result_cache_kwargs = {}
        if result_cache_size is not None:
            result_cache_kwargs["capacity"] = result_cache_size
        if result_cache_bytes is not None:
            result_cache_kwargs["max_bytes"] = result_cache_bytes
        self.result_cache = ResultCache(**result_cache_kwargs)
        #: Default for extracting literal constants into synthetic bind
        #: parameters on ``execute`` so differing constants share one plan
        #: cache entry; per-call ``ExecOptions.auto_parameterize`` overrides.
        self.auto_parameterize = bool(auto_parameterize)
        self._workers = max(int(workers), 1)
        self._max_concurrent = max_concurrent
        self._max_pending = max_pending
        self._runtime_lock = threading.RLock()
        self._pool: Optional[WorkerPool] = None
        self._compile_executor: Optional[CompileExecutor] = None
        self._scheduler: Optional[QueryScheduler] = None
        self._servers: list = []
        self._closed = False
        #: Per-database metrics registry (``db.metrics.snapshot()`` /
        #: ``to_prometheus()`` / ``to_json_lines()``) and the query
        #: recorder feeding it.  Per-query recording is gated by
        #: ``ExecOptions.telemetry``; the registry itself always exists.
        self.metrics = MetricsRegistry()
        self._query_telemetry = QueryTelemetry(self.metrics)
        #: Per-call fused-batch size of ``execute_many`` (bindings that ran
        #: through the fused prepared path, after dedup and cache hits).
        self._fused_bindings = self.metrics.histogram(
            "execute_many.fused_bindings",
            "Bindings fused into one execute_many pass")
        self._batch_calls = self.metrics.counter(
            "execute_many.calls", "execute_many batch calls")
        self._batch_bindings = self.metrics.counter(
            "execute_many.bindings", "Total bindings across execute_many")
        self._batch_dispatched = self.metrics.counter(
            "execute_many.dispatched",
            "Bindings served by the grouped-dispatch fallback "
            "(baseline modes)")
        self._register_metric_callbacks()

    def _register_metric_callbacks(self) -> None:
        """Snapshot-time derived metrics over existing stats carriers.

        These read state that is already maintained under its own
        synchronization (scheduler/cache stats, pool liveness, the VM's
        sharded instruction counter), so they cost nothing on the query
        hot path -- the callback only runs when a snapshot is taken.
        """
        register = self.metrics.register_callback
        register("vm.instructions", lambda: self._vm.instructions_executed)
        register("plan_cache.entries", lambda: len(self.plan_cache))
        for name in ("hits", "misses", "evictions", "invalidations"):
            register(f"plan_cache.{name}",
                     lambda n=name: getattr(self.plan_cache.stats, n))
        register("plan_cache.hit_rate",
                 lambda: self.plan_cache.stats.hit_rate)
        register("result_cache.entries", lambda: len(self.result_cache))
        for name in ("hits", "misses", "evictions", "invalidations",
                     "rejected", "bytes"):
            register(f"result_cache.{name}",
                     lambda n=name: getattr(self.result_cache.stats, n))
        register("result_cache.hit_rate",
                 lambda: self.result_cache.stats.hit_rate)
        for name in ("submitted", "completed", "failed", "cancelled",
                     "rejected", "peak_running", "peak_pending"):
            register(f"scheduler.{name}", lambda n=name: (
                getattr(self._scheduler.stats, n)
                if self._scheduler is not None else 0))
        register("scheduler.queue_depth", lambda: (
            self._scheduler.pending_count
            if self._scheduler is not None and not self._scheduler.closed
            else 0))
        register("scheduler.running", lambda: (
            self._scheduler.running_count
            if self._scheduler is not None and not self._scheduler.closed
            else 0))
        register("pool.size", lambda: (
            self._pool.size if self._pool is not None else 0))
        register("pool.alive_workers", lambda: (
            self._pool.alive_workers() if self._pool is not None else 0))

    @property
    def vm_instructions(self) -> int:
        """Total bytecode instructions executed by this database's VM."""
        return self._vm.instructions_executed

    # ------------------------------------------------------------------ #
    # shared execution runtime (pool / compile thread / scheduler)
    # ------------------------------------------------------------------ #
    @property
    def worker_pool(self) -> WorkerPool:
        """The shared morsel worker pool (created lazily)."""
        with self._runtime_lock:
            if self._pool is None or self._pool.closed:
                self._pool = WorkerPool(self._workers, metrics=self.metrics)
            return self._pool

    @property
    def compile_executor(self) -> CompileExecutor:
        """The shared background tier-compilation thread (created lazily)."""
        with self._runtime_lock:
            if self._compile_executor is None or self._compile_executor.closed:
                self._compile_executor = CompileExecutor(metrics=self.metrics)
            return self._compile_executor

    @property
    def scheduler(self) -> QueryScheduler:
        """The admission-controlled query scheduler (created lazily)."""
        with self._runtime_lock:
            if self._closed:
                raise SchedulerError("database is closed")
            if self._scheduler is None or self._scheduler.closed:
                self._scheduler = QueryScheduler(
                    self, self.worker_pool,
                    max_concurrent=self._max_concurrent,
                    max_pending=self._max_pending)
            return self._scheduler

    def submit(self, sql: str, session: Optional[Session] = None,
               block: bool = True, timeout: Optional[float] = None,
               options: Optional[ExecOptions] = None,
               params=None) -> QueryTicket:
        """Submit ``sql`` for asynchronous execution.

        Returns a :class:`~repro.scheduler.QueryTicket` immediately; use
        ``ticket.result()`` / ``ticket.done()`` / ``ticket.cancel()``.  The
        query runs on the shared worker pool once admission control lets it
        through; ``block`` / ``timeout`` govern what happens while the
        bounded admission queue is full.  ``options`` carries the execution
        options; ``params`` supplies bind parameter values.
        """
        return self.scheduler.submit(
            sql, session=session, block=block, timeout=timeout,
            options=options, params=params)

    def session(self, name: str = "",
                options: Optional[ExecOptions] = None) -> Session:
        """A new :class:`~repro.scheduler.Session` bound to this database."""
        with self._runtime_lock:
            if self._closed:
                raise SchedulerError("database is closed")
        return Session(self, name=name, options=options)

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              auth_token: Optional[str] = None, **kwargs):
        """Start a :class:`repro.server.QueryServer` over this database.

        Binds ``host:port`` (``port=0`` picks an ephemeral port -- read it
        back from ``server.port``) and returns the started server.  Every
        accepted connection gets its own :class:`~repro.scheduler.Session`
        and prepared-statement registry; execution flows through
        :meth:`submit`, so admission control surfaces to clients as BUSY
        frames.  The server is closed by :meth:`close` (servers first, so
        wire traffic drains before the scheduler shuts down) or by its own
        ``close()``.
        """
        from .server import QueryServer

        with self._runtime_lock:
            if self._closed:
                raise SchedulerError("database is closed")
        server = QueryServer(self, host=host, port=port,
                             auth_token=auth_token, **kwargs)
        with self._runtime_lock:
            self._servers.append(server)
        try:
            server.start()
        except BaseException:
            self._unregister_server(server)
            raise
        return server

    def _unregister_server(self, server) -> None:
        with self._runtime_lock:
            if server in self._servers:
                self._servers.remove(server)

    def close(self, timeout: Optional[float] = None) -> None:
        """Shut down servers, scheduler, worker pool and compile thread.

        Idempotent and safe while queries are in flight: network servers
        drain first (in-flight wire requests finish or are cancelled at
        their drain deadline), then the scheduler cancels pending
        submissions and waits for running queries, then the pool and the
        compile thread stop.  ``timeout`` bounds the total wait -- when the
        deadline passes, whatever still runs is cancelled or abandoned to
        the daemon threads instead of blocking the caller forever.
        Synchronous ``execute`` keeps working afterwards (parallel
        executions lazily restart a pool), but ``submit``, ``session`` and
        ``serve`` raise.  A second ``close`` is a no-op.
        """
        with self._runtime_lock:
            if self._closed:
                return
            self._closed = True
            servers = list(self._servers)
            scheduler = self._scheduler
            pool = self._pool
            compile_executor = self._compile_executor
        deadline = (None if timeout is None
                    else time.monotonic() + max(float(timeout), 0.0))

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(deadline - time.monotonic(), 0.0)

        for server in servers:
            server.close(timeout=remaining())
        if scheduler is not None:
            scheduler.close(wait=True, timeout=remaining())
        if pool is not None:
            pool.close(wait=True, timeout=remaining())
        if compile_executor is not None:
            compile_executor.close(wait=True, timeout=remaining())

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # DDL / DML passthroughs
    # ------------------------------------------------------------------ #
    def create_table(self, name: str, columns) -> None:
        self.catalog.create_table(name, columns)

    def drop_table(self, name: str) -> None:
        """Drop a table.

        Routes through the catalog's version counters: the drop bumps the
        table's data and plan versions, which invalidates its statistics,
        every cached result and every cached plan that references it (the plan cache drops such entries on the
        next lookup; a directly held ``PreparedQuery`` re-prepares -- and
        then fails its bind against the missing table).
        """
        self.catalog.drop_table(name)

    def insert(self, table_name: str, rows, encode: bool = True) -> int:
        # Version bumping / statistics refresh happens inside the table
        # itself (the catalog installs a change callback on registration),
        # so every mutation path -- including a failed batch that appended a
        # prefix of its rows, and bulk ``append_columns`` -- invalidates
        # cached results (and, past the drift threshold, plans) the same way.
        table = self.catalog.table(table_name)
        return table.insert_rows(rows, encode=encode)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def prepare(self, sql: str, parameter_hints: Optional[list] = None
                ) -> tuple[BoundQuery, PlanningResult, PhaseTimings]:
        """Parse, bind and plan a query, returning the phase timings so far.

        ``parameter_hints`` optionally carries the literal values extracted
        by auto-parameterization (one per parameter slot); the binder uses
        them to seed parameter types and the optimizer uses them for
        cardinality estimation, so an auto-parameterized statement plans
        exactly like its literal form.
        """
        timings = PhaseTimings()
        start = time.perf_counter()
        statement = parse(sql)
        timings.parse = time.perf_counter() - start

        start = time.perf_counter()
        bound = Binder(self.catalog).bind(statement,
                                          parameter_hints=parameter_hints)
        timings.bind = time.perf_counter() - start

        start = time.perf_counter()
        planning = Planner(self.catalog).plan(bound)
        timings.plan = time.perf_counter() - start
        return bound, planning, timings

    def generate(self, sql: str, parameter_hints: Optional[list] = None
                 ) -> tuple[GeneratedQuery, PlanningResult, PhaseTimings]:
        """Plan a query and generate its IR module (no execution)."""
        _, planning, timings = self.prepare(sql, parameter_hints)
        state = QueryState(planning.physical)
        generator = CodeGenerator(planning.physical, state)
        generated = generator.generate()
        timings.codegen = generated.codegen_seconds
        return generated, planning, timings

    # ------------------------------------------------------------------ #
    # prepared queries / plan cache
    # ------------------------------------------------------------------ #
    def prepare_query(self, sql: str,
                      parameter_hints: Optional[list] = None):
        """The :class:`repro.prepared.PreparedQuery` for ``sql``.

        Consults the plan cache first (keyed by
        :func:`repro.cache.plan_cache_key`); on a miss the query is parsed,
        bound, planned and code-generated once, and the resulting entry is
        cached for subsequent ``prepare_query`` and ``execute`` calls.
        ``sql`` may contain ``?`` / ``:name`` placeholders; supply the
        values per execution via ``params=``.  ``parameter_hints`` carries
        the literals auto-parameterization extracted.
        """
        key = plan_cache_key(sql, parameter_hints)
        if self.plan_cache.capacity > 0:
            prepared = self.plan_cache.get(key)
            if prepared is not None:
                return prepared
        prepared = self._build_prepared(sql, parameter_hints)
        self.plan_cache.put(key, prepared)
        return prepared

    def _build_prepared(self, sql: str,
                        parameter_hints: Optional[list] = None):
        from .prepared import PreparedQuery

        # Snapshot the catalog version before planning: a table change that
        # races with the build then makes the entry invalid instead of being
        # stamped into it as current.
        catalog_version = self.catalog.version
        generated, planning, timings = self.generate(sql, parameter_hints)
        return PreparedQuery(self, sql, generated, planning, timings,
                             catalog_version,
                             parameter_hints=parameter_hints)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _validate_options(self, opts: ExecOptions) -> None:
        """Reject invalid mode/parameter combinations (shared with submit)."""
        mode = opts.mode
        if mode in BASELINE_MODES:
            if opts.threads > 1:
                raise ExecutionError(
                    f"baseline mode {mode!r} is single-threaded; "
                    f"got threads={opts.threads}")
            if opts.collect_trace:
                raise ExecutionError(
                    f"baseline mode {mode!r} does not record execution "
                    f"traces")
        elif mode not in ENGINE_MODES:
            raise ExecutionError(
                f"unknown execution mode {mode!r}; expected one of "
                f"{ENGINE_MODES + BASELINE_MODES}")
        if opts.telemetry not in TELEMETRY_LEVELS:
            raise ExecutionError(
                f"unknown telemetry level {opts.telemetry!r}; expected one "
                f"of {TELEMETRY_LEVELS}")

    def execute(self, sql: str, options: Optional[ExecOptions] = None,
                params=None) -> QueryResult:
        """Execute ``sql`` with the given execution options.

        ``options`` (an :class:`repro.ExecOptions`) describes how to run.
        ``params`` supplies bind parameter values -- a sequence for ``?``
        placeholders, a mapping for ``:name`` placeholders.

        ``EXPLAIN <select>`` and ``EXPLAIN ANALYZE <select>`` statements are
        recognised here and return the annotated plan as a one-column result
        (the structured form rides along as ``result.explain``); see
        :meth:`explain` for the direct API.

        Engine modes are served through the plan cache: repeated executions
        of the same (normalized) SQL reuse the cached plan, IR and compiled
        tiers.  When a statement without placeholders arrives with caching
        enabled, its literal constants are auto-parameterized (unless opted
        out), so all executions of one query *shape* collide on one cache
        entry regardless of the constants.  ``use_cache=False`` forces a
        cold build of all artifacts from the original text.  Parallel
        executions (``threads > 1``) draw their workers from the database's
        shared pool; the calling thread participates, so this works both for
        direct calls and from scheduler workers.
        """
        opts = ExecOptions.of(options)
        explain_kind, inner_sql = split_explain(sql)
        if explain_kind == "plan":
            return self._explain_plan(inner_sql, opts)
        if explain_kind == "analyze":
            return self._explain_analyze(inner_sql, opts, params)
        return self._run(sql, opts, [params])[0]

    def execute_many(self, sql: str, bindings,
                     options: Optional[ExecOptions] = None
                     ) -> list[QueryResult]:
        """Execute one statement for every binding; one result per binding.

        The batch form of :meth:`execute` (which is this with one binding):
        ``bindings`` is a sequence of per-execution parameter values (each
        a sequence for ``?`` placeholders, a mapping for ``:name``
        placeholders, or ``None`` for a literal-only statement).  Engine
        modes fuse the whole batch into a single pass over one prepared
        entry -- prepare/validate once, encode all bindings up front,
        reuse compiled tiers across bindings, deduplicate identical
        bindings and serve repeats from the semantic result cache.
        Baseline modes plan once and dispatch per binding, with the same
        result-cache reuse -- so the API is total across all 7 execution
        modes.

        EXPLAIN statements are rejected (they describe one execution, not
        a batch); use :meth:`execute` / :meth:`explain` per statement.
        """
        opts = ExecOptions.of(options)
        explain_kind, _ = split_explain(sql)
        if explain_kind:
            raise ExecutionError(
                "execute_many does not support EXPLAIN statements; use "
                "execute() or explain() per statement")
        bindings = list(bindings)
        if not bindings:
            self._validate_options(opts)
            return []
        results = self._run(sql, opts, bindings)
        if opts.telemetry != "off":
            self._batch_calls.inc()
            self._batch_bindings.inc(len(bindings))
            if opts.mode in BASELINE_MODES:
                self._batch_dispatched.inc(len(bindings))
            else:
                self._fused_bindings.observe(len(bindings))
        return results

    def _run(self, sql: str, opts: ExecOptions,
             bindings: list) -> list[QueryResult]:
        """The request path: one plain statement, one result per binding.

        Every way into the database -- ``execute``, ``execute_many``, the
        scheduler, the wire server, EXPLAIN ANALYZE -- ends here, so
        option validation, the telemetry level and failure accounting are
        each decided exactly once.
        """
        self._validate_options(opts)
        # Level "trace" implies the morsel-event timeline for engine modes;
        # the baselines have no morsel events, so the level degrades to
        # "basic" there (an *explicit* collect_trace still errors above).
        if opts.telemetry == "trace" and opts.mode in ENGINE_MODES:
            opts = opts.merged(collect_trace=True)
        record = opts.telemetry != "off"
        try:
            if opts.mode in BASELINE_MODES:
                results = self._execute_baseline(sql, opts, bindings)
            else:
                results = self._execute_engine(sql, opts, bindings)
        except Exception:
            if record:
                self._query_telemetry.record_failure(opts.mode)
            raise
        for result in results:
            if record:
                self._query_telemetry.record_result(sql, result)
            else:
                # Level "off": the executors may still have built a trace
                # for their own bookkeeping; the result must not surface it.
                result.query_trace = None
        return results

    def _plan_statement(self, sql: str, opts: ExecOptions,
                        bindings: list) -> tuple[str, Optional[list], list]:
        """The statement as the plan cache sees it.

        Returns ``(sql, parameter_hints, bindings)``: a statement that
        arrived without any parameter values has its literal constants
        extracted into positional parameters (unless opted out), and every
        binding becomes the extracted values; anything else passes through
        with ``parameter_hints=None``.
        """
        auto = (opts.auto_parameterize if opts.auto_parameterize is not None
                else self.auto_parameterize)
        if auto and all(binding is None for binding in bindings):
            rewritten = auto_parameterize_sql(sql)
            if rewritten is not None:
                exec_sql, extracted = rewritten
                return exec_sql, extracted, [extracted] * len(bindings)
        return sql, None, bindings

    def _execute_engine(self, sql: str, opts: ExecOptions,
                        bindings: list) -> list[QueryResult]:
        """Engine-mode execution of all bindings over one prepared entry."""
        hints = None
        if opts.use_cache and self.plan_cache.capacity > 0:
            sql, hints, bindings = self._plan_statement(sql, opts, bindings)
            prepared = self.prepare_query(sql, parameter_hints=hints)
            results = prepared.execute_many(bindings, options=opts,
                                            block=False)
            if results is not None:
                return results
            # The cached entry is mid-execution on another thread.  Before
            # paying an independent cold build, try the result cache -- a
            # hot identical read should never rebuild just because the
            # shared entry is busy.
            results = []
            for binding in bindings:
                cached = prepared.cached_result(options=opts, params=binding)
                if cached is None:
                    break
                results.append(cached)
            else:
                return results
        prepared = self._build_prepared(sql, parameter_hints=hints)
        return prepared.execute_many(bindings, options=opts)

    # ------------------------------------------------------------------ #
    # semantic result reuse
    # ------------------------------------------------------------------ #
    def _usable_result_cache(self, opts: ExecOptions):
        """The result cache if this execution may probe/populate it.

        Executions that exist to *observe* execution (trace collection,
        per-morsel telemetry, operator-stat collection for EXPLAIN
        ANALYZE) must run for real, so they bypass the cache in both
        directions.  ``use_cache=False`` -- the cold-measurement switch --
        implies the result cache off as well.
        """
        if not self.result_cache.enabled:
            return None
        if not opts.use_cache or not opts.use_result_cache:
            return None
        if opts.collect_trace or opts.collect_operator_stats \
                or opts.telemetry == "trace":
            return None
        return self.result_cache

    def _serve_bindings(self, opts: ExecOptions, plan_key: str,
                        referenced: frozenset, encoded: list,
                        run: Callable[[list], QueryResult]
                        ) -> list[QueryResult]:
        """One result per encoded binding, executing as little as possible.

        With the result cache usable, identical bindings are grouped: the
        first occurrence is served from the cache or executed by
        ``run(values)`` (and admitted to the cache), the rest share its
        materialized rows.  Otherwise every binding executes for real.
        """
        result_cache = self._usable_result_cache(opts)
        if result_cache is None:
            return [run(values) for values in encoded]
        groups: dict[tuple, list[int]] = {}
        for index, values in enumerate(encoded):
            key = result_cache_key(plan_key, opts.mode, values)
            groups.setdefault(key, []).append(index)
        table_version = self.catalog.table_version
        results: list[Optional[QueryResult]] = [None] * len(encoded)
        for key, indices in groups.items():
            entry = result_cache.get(key, table_version)
            if entry is not None:
                result = entry.to_result()
            else:
                # Versions are snapshotted *before* execution starts
                # reading: a concurrent mutation that completes mid-scan
                # bumps them afterwards, so the stored entry can only be
                # keyed to an older snapshot and later lookups miss (never
                # serve rows the mutation may have influenced).
                versions = {name: table_version(name)
                            for name in referenced}
                result = run(encoded[indices[0]])
                result_cache.put(key, versions, result)
            results[indices[0]] = result
            for duplicate in indices[1:]:
                results[duplicate] = _share_result(result)
        return results

    def cached_result(self, sql: str, params=None,
                      options: Optional[ExecOptions] = None
                      ) -> Optional[QueryResult]:
        """A pure result-cache probe: the cached result or ``None``.

        Never parses, plans, builds or executes anything -- the plan cache
        is only *peeked* (no stats, no LRU motion) to recover the
        statement's parameter specs, so this is safe to call from latency
        -sensitive contexts like the network server's event loop, which
        uses it to serve hot repeated reads without consuming a scheduler
        admission slot.  Baseline modes always return ``None`` (they do
        not populate the plan cache).
        """
        opts = ExecOptions.of(options)
        if opts.mode not in ENGINE_MODES:
            return None
        if self._usable_result_cache(opts) is None \
                or self.plan_cache.capacity == 0:
            return None
        explain_kind, _ = split_explain(sql)
        if explain_kind:
            return None
        exec_sql, hints, (exec_params,) = self._plan_statement(
            sql, opts, [params])
        prepared = self.plan_cache.peek(plan_cache_key(exec_sql, hints))
        if prepared is None:
            return None
        result = prepared.cached_result(options=opts, params=exec_params)
        if result is not None and opts.telemetry != "off":
            self._query_telemetry.record_result(sql, result)
        return result

    def submit_many(self, sql: str, bindings,
                    session: Optional[Session] = None, block: bool = True,
                    timeout: Optional[float] = None,
                    options: Optional[ExecOptions] = None) -> QueryTicket:
        """Submit a batch of bindings; the ticket resolves to a result list.

        The asynchronous form of :meth:`execute_many`: admission control
        treats the whole batch as one unit (one admission slot, one
        ticket), and ``ticket.result()`` returns the ordered
        ``list[QueryResult]``.
        """
        return self.scheduler.submit(sql, session=session, block=block,
                                     timeout=timeout, options=options,
                                     bindings=list(bindings))

    # ------------------------------------------------------------------ #
    # EXPLAIN / EXPLAIN ANALYZE
    # ------------------------------------------------------------------ #
    def explain(self, sql: str, analyze: bool = False,
                options: Optional[ExecOptions] = None, params=None):
        """The structured :class:`repro.telemetry.ExplainResult` for ``sql``.

        Convenience wrapper over ``execute("EXPLAIN [ANALYZE] ...")``;
        ``sql`` must *not* already carry the EXPLAIN prefix.
        """
        opts = ExecOptions.of(options)
        if analyze:
            return self._explain_analyze(sql, opts, params).explain
        return self._explain_plan(sql, opts).explain

    def _explain_plan(self, sql: str, opts: ExecOptions) -> QueryResult:
        """EXPLAIN: plan the statement, return the annotated plan text."""
        self._validate_options(opts)
        _, planning, timings = self.prepare(sql)
        explain = build_explain_plan(sql, planning, opts.mode)
        return self._explain_to_result(explain, timings, opts.mode)

    def _explain_analyze(self, sql: str, opts: ExecOptions,
                         params=None) -> QueryResult:
        """EXPLAIN ANALYZE: execute, then annotate the plan with reality."""
        inner, = self._run(
            sql, opts.merged(collect_operator_stats=True), [params])
        explain = build_explain_analyze(sql, inner)
        result = self._explain_to_result(explain, inner.timings, inner.mode)
        result.pipelines = inner.pipelines
        result.ir_instructions = inner.ir_instructions
        result.trace = inner.trace
        result.cached = inner.cached
        result.early_terminated = inner.early_terminated
        result.query_trace = inner.query_trace
        return result

    @staticmethod
    def _explain_to_result(explain, timings: PhaseTimings,
                           mode: str) -> QueryResult:
        lines = explain.render().splitlines()
        result = QueryResult(
            column_names=["plan"],
            column_types=[SQLType.STRING],
            rows=[(line,) for line in lines],
            mode=mode,
            timings=timings)
        result.explain = explain
        return result

    # ------------------------------------------------------------------ #
    def breaker_partitions_for(self, options: ExecOptions) -> int:
        """Resolve the breaker partition count of one execution."""
        if options.breaker_partitions is not None:
            return round_up_pow2(options.breaker_partitions)
        return round_up_pow2(self._workers)

    def _tier_for(self, function, index: int, mode: str,
                  tiers: Optional[dict],
                  verify_ir: Optional[bool] = None):
        """Resolve one pipeline's executable, through the tier cache if given.

        On a cache hit the compile cost was already paid by an earlier
        execution, so 0.0 seconds are charged; on a miss the freshly prepared
        tier is stored under ``(pipeline index, mode)`` for the next run.
        """
        if tiers is not None:
            cached = tiers.get((index, mode))
            if cached is not None:
                return cached, 0.0
        executable, compile_seconds = self._prepare_tier(
            function, mode, verify_ir=verify_ir)
        if tiers is not None:
            tiers[(index, mode)] = executable
        return executable, compile_seconds

    def _prepare_tier(self, function, mode: str,
                      verify_ir: Optional[bool] = None):
        """Return ``(callable(state, begin, end), compile_seconds)`` for a tier."""
        from .analysis import verify_bytecode, verify_ir_enabled
        verify = verify_ir_enabled(verify_ir)
        if mode == "ir-interp":
            interpreter = IRInterpreter()

            def run_ir(state, begin, end):
                interpreter.execute(function, [state, begin, end])
            return run_ir, 0.0
        if mode == "bytecode":
            start = time.perf_counter()
            bytecode, _ = translate_function(function)
            if verify:
                verify_bytecode(bytecode)
            elapsed = time.perf_counter() - start
            vm = self._vm

            def run_bytecode(state, begin, end):
                vm.execute(bytecode, [state, begin, end])
            return run_bytecode, elapsed
        if mode in ("unoptimized", "optimized"):
            compiled = compile_function(function, mode, verify=verify)
            return compiled, compiled.compile_seconds
        raise ExecutionError(f"unknown tier {mode!r}")

    def _assemble_result(self, generated: GeneratedQuery,
                         planning: PlanningResult, timings: PhaseTimings,
                         mode: str,
                         pipeline_stats: list[PipelineExecution],
                         trace=None, query_trace=None) -> QueryResult:
        sink = generated.output_sink
        runtime = generated.runtime
        rows = runtime.finish_output(sink)
        rows = strip_sort_keys(rows, sink)
        state = generated.state
        # Annotate the pipeline stats with the operator chain and sink-side
        # cardinalities while the execution state is still populated (the
        # caller resets it right after assembling the result).
        for stats, pipeline in zip(pipeline_stats, generated.pipelines):
            physical = pipeline.pipeline
            stats.description = physical.describe()
            pipeline_sink = physical.sink
            if isinstance(pipeline_sink, AggregateSink):
                stats.rows_out = state.intermediate_rows.get(
                    pipeline_sink.agg_id)
            elif isinstance(pipeline_sink, OutputSink):
                stats.rows_out = len(rows)
            elif isinstance(pipeline_sink, HashBuildSink) \
                    and state.collect_operator_stats:
                parts = state.join_partitions.get(pipeline_sink.join_id, ())
                stats.rows_out = sum(len(bucket) for part in parts
                                     for bucket in part.values())
        column_names = [name for name, _ in planning.physical.output_columns]
        column_types = [sql_type for _, sql_type
                        in planning.physical.output_columns]
        return QueryResult(
            column_names=column_names,
            column_types=column_types,
            rows=rows,
            mode=mode,
            timings=timings,
            pipelines=pipeline_stats,
            ir_instructions=generated.instruction_count,
            trace=trace,
            early_terminated=state.early_terminated,
            query_trace=query_trace)

    # ------------------------------------------------------------------ #
    def _execute_baseline(self, sql: str, opts: ExecOptions,
                          bindings: list) -> list[QueryResult]:
        """Baseline-mode execution: plan once, dispatch per binding.

        Baselines re-plan per call, so the result-cache probe sits behind
        the front end; the key uses the literal normalized text (baselines
        do not auto-parameterize, so differing constants differ textually).
        """
        bound, planning, build_timings = self.prepare(sql)
        encoded = [bind_parameter_values(bound.parameters, binding)
                   for binding in bindings]
        first = True

        def run(values: list) -> QueryResult:
            nonlocal first
            timings = build_timings if first else PhaseTimings()
            result = self._run_baseline(planning, timings, opts, values)
            result.cached = not first
            if result.cached:
                result.cache_source = "plan"
            first = False
            return result

        return self._serve_bindings(opts, plan_cache_key(sql),
                                    referenced_tables(planning), encoded,
                                    run)

    def _run_baseline(self, planning: PlanningResult, timings: PhaseTimings,
                      opts: ExecOptions, values: list) -> QueryResult:
        from .baselines import VectorizedEngine, VolcanoEngine

        mode = opts.mode
        if mode == "volcano":
            engine = VolcanoEngine(
                self.catalog, use_pruning=opts.use_pruning,
                breaker_partitions=self.breaker_partitions_for(opts))
        else:
            engine = VectorizedEngine(self.catalog,
                                      use_pruning=opts.use_pruning)
        start = time.perf_counter()
        rows = engine.execute(planning.physical, values)
        timings.execution = time.perf_counter() - start
        timings.chunks_pruned = engine.chunks_pruned
        timings.chunks_scanned = engine.chunks_scanned
        timings.breaker_partitions = getattr(engine, "breaker_partitions_used",
                                             0)
        timings.breaker_partials = getattr(engine, "breaker_partial_entries",
                                           0)
        timings.breaker_merge = getattr(engine, "breaker_merge_seconds", 0.0)
        pipeline_stats = [
            PipelineExecution(
                name=stats.name, rows=stats.rows_in, morsels=0,
                seconds=stats.seconds, mode_history=[mode],
                chunks_scanned=stats.chunks_scanned,
                chunks_pruned=stats.chunks_pruned,
                description=stats.description,
                rows_out=stats.rows_out)
            for stats in getattr(engine, "pipeline_stats", [])]
        column_names = [name for name, _ in planning.physical.output_columns]
        column_types = [sql_type for _, sql_type
                        in planning.physical.output_columns]
        return QueryResult(column_names=column_names,
                           column_types=column_types,
                           rows=rows, mode=mode, timings=timings,
                           pipelines=pipeline_stats,
                           early_terminated=getattr(engine,
                                                    "early_terminated",
                                                    False))
