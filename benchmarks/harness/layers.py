"""Per-layer metrics of a traced run.

Three sources, each metric has exactly one (README.md has the table):

* the **workload's own traced passes** -- span self times and registry
  deltas; a layer the workload bypasses reads 0, which is the prediction
  for that workload, not a gap;
* the **mode sweep** -- the TPC-H queries cold on the workload's database
  in every execution mode with one thread, which is where counts repeat
  exactly and where compile tiers and baselines are exercised at all;
* fixed **probes** -- cache probe, append and rebuild cost on the
  workload's database, the four Fig. 2 kernels per tier, scheduler and wire
  overhead on ``serve_point``'s requests, and the protocol codec replayed
  over ``serve_rows``' rows.
"""

from __future__ import annotations

import random
import time
from statistics import geometric_mean, median

from repro import Database, ExecOptions, connect
from repro.backend import compile_optimized, compile_unoptimized
from repro.server import decode_header, decode_payload, \
    decode_result_rows, encode_frame, protocol
from repro.vm import translate_function
from repro.workloads import TPCH_QUERIES

import oracle as oracle_module
from workloads import HOT_SHAPES, OP_TIMEOUT_S, ROWS_SQL, insert_rows, \
    rows_ranges, tpch_database, zipf_reads

FRONT_END = ("sqlparser.parse", "semantics.bind", "optimizer.plan",
             "codegen.generate", "vm.translate")
PASS_NAMES = ("constant-folding", "peephole", "cse", "simplify-cfg", "dce")
STATIC_MODES = ("bytecode", "unoptimized", "optimized")
BASELINE_MODES = ("volcano", "vectorized")
TIERS = ("ir-interp",) + STATIC_MODES
KERNEL_SCALE = 5.0
SERVING_SCALE = 2.0

#: Counts that must repeat exactly between two traced runs (threads=1).
EXACT_COUNTS = ("codegen.ir_instructions", "vm.bytecode_instructions",
                "vm.registers", "passes.ir_removed", "vm.instructions",
                "chunks_scanned", "chunks_pruned", "breaker_partitions",
                "runtime.breaker_partials", "runtime.breaker_locks")

_REGISTRY_KEYS = ("storage.chunks_scanned", "storage.chunks_pruned",
                  "breaker.merge_seconds", "adaptive.tier_switches",
                  "plan_cache.hits", "plan_cache.misses",
                  "plan_cache.invalidations", "result_cache.hits",
                  "result_cache.misses", "result_cache.invalidations")


def registry_totals(database: Database) -> dict:
    """The registry values the layer metrics difference around a pass."""
    snapshot = database.metrics.flat_snapshot()
    return {key: (snapshot[key]["sum"] if isinstance(snapshot[key], dict)
                  else snapshot[key]) for key in _REGISTRY_KEYS}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --------------------------------------------------------------------- #
# the workload's own traced passes
# --------------------------------------------------------------------- #
def workload_metrics(tracer, spans, passes, deltas, untraced_walls) -> dict:
    """Layer metrics of the traced passes of one workload.

    ``spans`` are the spans those passes recorded, ``deltas`` the summed
    registry differences around them.
    """
    operations = sum(len(pass_.outcomes) for pass_ in passes)
    self_seconds = tracer.self_time_by_name(spans)
    op_seconds = sum(span.duration for span in spans if span.name == "op")

    def per_operation(name: str) -> float:
        return self_seconds.get(name, 0.0) / operations

    return {
        "sqlparser.parse_s": per_operation("sqlparser.parse"),
        "semantics.bind_s": per_operation("semantics.bind"),
        "optimizer.plan_s": per_operation("optimizer.plan"),
        "codegen.generate_s": per_operation("codegen.generate"),
        "vm.translate_s": per_operation("vm.translate"),
        "frontend.self_share": _share(
            sum(self_seconds.get(name, 0.0) for name in FRONT_END),
            op_seconds),
        "runtime.breaker_merge_s":
            deltas["breaker.merge_seconds"] / operations,
        "adaptive.tier_switches":
            deltas["adaptive.tier_switches"] / len(passes),
        "catalog.pruned_ratio": _share(
            deltas["storage.chunks_pruned"],
            deltas["storage.chunks_pruned"]
            + deltas["storage.chunks_scanned"]),
        "cache.plan_hit_rate": _share(
            deltas["plan_cache.hits"],
            deltas["plan_cache.hits"] + deltas["plan_cache.misses"]),
        "result_cache.hit_rate": _share(
            deltas["result_cache.hits"],
            deltas["result_cache.hits"] + deltas["result_cache.misses"]),
        "cache.invalidations": (deltas["plan_cache.invalidations"]
                                + deltas["result_cache.invalidations"])
        / len(passes),
        "protocol.self_share": _share(
            self_seconds.get("protocol.encode", 0.0)
            + self_seconds.get("protocol.decode", 0.0), op_seconds),
        "tracing_overhead_ratio": _share(
            median(pass_.wall for pass_ in passes),
            median(untraced_walls)),
    }


# --------------------------------------------------------------------- #
# the mode sweep
# --------------------------------------------------------------------- #
def mode_sweep(database: Database, tracer, repeats: int,
               queries=None) -> tuple:
    """The first ``queries`` TPC-H queries (``None``: all of them),
    plan-cache-cold, one thread, in every mode.

    Returns ``(metrics, per-query exact counts)``.  Latencies are the
    minimum over ``repeats``; counts come from the first repeat.
    """
    numbers = sorted(oracle_module.tpch_oracle_queries())[:queries]
    modes = ("adaptive",) + STATIC_MODES + BASELINE_MODES
    first_span = len(tracer.spans)
    latency = {mode: {} for mode in modes}
    counts = {number: {} for number in numbers}
    vm_seconds = 0.0
    for repeat in range(repeats):
        for mode in modes:
            options = ExecOptions(mode=mode, threads=1, use_cache=False)
            for number in numbers:
                label = f"{mode}/Q{number}" + (f"#{repeat}" if repeat
                                               else "")
                executed = database.vm_instructions
                span = tracer.begin("op", label)
                result = database.execute(TPCH_QUERIES[number],
                                          options=options)
                tracer.finish(span)
                latency[mode][number] = min(
                    span.duration, latency[mode].get(number, span.duration))
                if mode == "bytecode":
                    vm_seconds += result.timings.execution
                if repeat == 0 and mode == "bytecode":
                    timings = result.timings
                    counts[number].update({
                        "codegen.ir_instructions": result.ir_instructions,
                        "vm.instructions":
                            database.vm_instructions - executed,
                        "chunks_scanned": timings.chunks_scanned,
                        "chunks_pruned": timings.chunks_pruned,
                        "breaker_partitions": timings.breaker_partitions,
                        "runtime.breaker_partials": timings.breaker_partials,
                        "runtime.breaker_locks": timings.breaker_locks,
                    })
                    for name in ("vm.bytecode_instructions", "vm.registers"):
                        counts[number][name] = tracer.counts[(label, name)]
                if repeat == 0 and mode == "optimized":
                    counts[number]["passes.ir_removed"] = \
                        tracer.counts[(label, "passes.ir_removed")]

    spans = tracer.spans[first_span:]
    executions = len(numbers) * repeats

    def mode_self(mode: str) -> dict:
        return tracer.self_time_by_name(
            [span for span in spans
             if span.op is not None and span.op.startswith(mode + "/")])

    optimized = mode_self("optimized")
    unoptimized = mode_self("unoptimized")

    def total(name: str) -> int:
        return sum(counts[number][name] for number in numbers)

    metrics = {
        "codegen.ir_instructions": total("codegen.ir_instructions"),
        "vm.bytecode_instructions": total("vm.bytecode_instructions"),
        "vm.registers": total("vm.registers"),
        "passes.ir_removed": total("passes.ir_removed"),
        "backend.compile_unopt_s":
            unoptimized.get("backend.compile_unopt", 0.0) / executions,
        "backend.compile_opt_s":
            optimized.get("backend.compile_opt", 0.0) / executions,
        "vm.instructions": total("vm.instructions"),
        "vm.ns_per_instruction":
            1e9 * vm_seconds / (total("vm.instructions") * repeats),
        "adaptive.regret_ratio": geometric_mean(
            latency["adaptive"][number]
            / min(latency[mode][number] for mode in STATIC_MODES)
            for number in numbers),
        "runtime.breaker_partials": total("runtime.breaker_partials"),
        "runtime.breaker_locks": total("runtime.breaker_locks"),
    }
    for name in PASS_NAMES:
        metrics[f"passes.{name}_s"] = \
            optimized.get(f"passes.{name}", 0.0) / executions
    for mode in BASELINE_MODES:
        metrics[f"baselines.{mode}_ms"] = 1e3 * geometric_mean(
            latency[mode].values())
    return metrics, counts


def first_count_difference(first: dict, second: dict):
    """``(query, count name, a, b)`` of the first differing exact count
    between two sweeps' per-query counts, or ``None``."""
    for number in sorted(first):
        for name in EXACT_COUNTS:
            if first[number][name] != second[number][name]:
                return (number, name, first[number][name],
                        second[number][name])
    return None


# --------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------- #
def cache_probe(database: Database, tracer, seed: int,
                reads: int = 60) -> dict:
    """Cache probe cost, append rate and rebuild latency on ``database``.

    ``hot_mixed_rw`` in miniature, traced: Zipf reads of the hot shapes
    with the caches on, one 64-row insert into ``lineitem`` and ``orders``,
    then the first read of every shape, which finds its plan invalidated.
    Fixed-size, so the numbers exist in every traced run, also where the
    workload itself bypasses the caches.
    """
    rng = random.Random(seed)
    options = ExecOptions()
    first_span = len(tracer.spans)
    for name, params in zipf_reads(rng, database, reads):
        database.execute(HOT_SHAPES[name].sql, options=options,
                         params=params)
    inserted = 0
    for table in ("lineitem", "orders"):
        rows = insert_rows(rng, database, table,
                           database.catalog.table("orders").num_rows)
        inserted += database.insert(table, rows)
    rebuilds = []
    for shape in HOT_SHAPES.values():
        start = time.perf_counter()
        database.execute(shape.sql, options=options, params=shape.params(0))
        rebuilds.append(time.perf_counter() - start)
    spans = tracer.spans[first_span:]

    def mean_ns(name: str) -> float:
        durations = [span.duration for span in spans if span.name == name]
        return 1e9 * sum(durations) / len(durations)

    return {
        "cache.plan_probe_ns": mean_ns("cache.plan_get"),
        "result_cache.probe_ns": mean_ns("result_cache.get"),
        "catalog.insert_rows_per_s": inserted / sum(
            span.duration for span in spans
            if span.name == "catalog.insert"),
        "prepared.rebuild_s": sum(rebuilds) / len(rebuilds),
    }


KERNELS = {
    "scan_filter":
        "select sum(l_extendedprice * l_discount) as revenue from lineitem "
        "where l_shipdate >= date '1994-01-01' "
        "and l_shipdate < date '1995-01-01' "
        "and l_discount between 0.05 and 0.07 and l_quantity < 24",
    "join_probe":
        "select count(*) as n, sum(l_extendedprice) as total "
        "from lineitem, orders where l_orderkey = o_orderkey "
        "and o_orderdate < date '1995-03-15'",
    "group_by":
        "select l_returnflag, l_linestatus, sum(l_quantity) as qty, "
        "avg(l_extendedprice) as price, count(*) as n from lineitem "
        "group by l_returnflag, l_linestatus "
        "order by l_returnflag, l_linestatus",
    "topk":
        "select l_orderkey, l_linenumber, l_extendedprice from lineitem "
        "order by l_extendedprice desc, l_orderkey, l_linenumber limit 10",
}


def _compile_seconds(database: Database, sql: str) -> dict:
    """Seconds to produce each tier for ``sql``'s pipelines: the minimum of
    three calls of the tier's public compile function, summed over the
    pipelines (a single compile of ~1 ms is too noisy to order tiers by)."""
    generated, _, _ = database.generate(sql)
    compilers = {"ir-interp": None, "bytecode": translate_function,
                 "unoptimized": compile_unoptimized,
                 "optimized": compile_optimized}
    seconds = {}
    for tier, compiler in compilers.items():
        seconds[tier] = 0.0
        for pipeline in generated.pipelines if compiler else ():
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                compiler(pipeline.function)
                best = min(best, time.perf_counter() - start)
            seconds[tier] += best
    return seconds


def tier_kernels(scale: float) -> tuple:
    """Rows per second and compile seconds of each tier on four kernels.

    Static modes, plan cached, result cache off.  Returns ``(metrics,
    per-kernel detail)``; the metric of a tier is the geometric mean over
    the kernels, the detail keeps every kernel so the Fig. 2 ordering can
    be read off it.
    """
    database = tpch_database(scale)
    detail = {}
    try:
        for kernel, sql in KERNELS.items():
            compile_seconds = _compile_seconds(database, sql)
            detail[kernel] = {}
            for tier in TIERS:
                options = ExecOptions(mode=tier, threads=1,
                                      use_result_cache=False)
                rates = []
                # The interpreter of IR is ~5x slower than the next tier
                # and has nothing to warm: one run is its measurement.
                for _ in range(1 if tier == "ir-interp" else 2):
                    result = database.execute(sql, options=options)
                    rates.append(
                        sum(pipeline.rows for pipeline in result.pipelines)
                        / result.timings.execution)
                detail[kernel][tier] = {
                    "rows_per_s": max(rates),
                    "compile_s": compile_seconds[tier]}
    finally:
        database.close()
    metrics = {f"tier.rows_per_s.{tier}": geometric_mean(
        detail[kernel][tier]["rows_per_s"] for kernel in KERNELS)
        for tier in TIERS}
    return metrics, detail


def fig2_ordering_holds(detail: dict) -> bool:
    """ir-interp < bytecode < unoptimized <= optimized throughput and the
    inverse order of compile time, on every kernel (paper Fig. 2).

    The two compiled tiers run the same loop shape on ``topk``, so their
    throughput is compared with 10 % slack.
    """
    for tiers in detail.values():
        rate = [tiers[tier]["rows_per_s"] for tier in TIERS]
        compile_s = [tiers[tier]["compile_s"] for tier in TIERS]
        if not (rate[0] < rate[1] < rate[2] and rate[2] <= 1.1 * rate[3]):
            return False
        if not compile_s[0] <= compile_s[1] < compile_s[2] < compile_s[3]:
            return False
    return True


def serving_probe(scale: float, seed: int, requests: int) -> dict:
    """Scheduler and wire overhead on ``serve_point``'s requests, and the
    protocol codec replayed over ``serve_rows``' result rows."""
    database = tpch_database(scale)
    try:
        rng = random.Random(seed)
        reads = zipf_reads(rng, database, requests)
        options = ExecOptions()

        def latencies(call) -> list:
            # The first tenth runs untimed: pool threads, the scheduler
            # and the five plans exist before the clock starts; then the
            # caches are emptied so all three paths see the same misses.
            for name, params in reads[:max(requests // 10, 1)]:
                call(name, params)
            database.plan_cache.clear()
            database.result_cache.clear()
            taken = []
            for name, params in reads:
                start = time.perf_counter()
                call(name, params)
                taken.append(time.perf_counter() - start)
            return taken

        direct = latencies(lambda name, params: database.execute(
            HOT_SHAPES[name].sql, options=options, params=params).rows)
        submitted = latencies(lambda name, params: database.submit(
            HOT_SHAPES[name].sql, options=options, params=params
        ).result(timeout=OP_TIMEOUT_S).rows)
        server = database.serve()
        connection = connect(*server.address, timeout=OP_TIMEOUT_S)
        try:
            statements = {name: connection.prepare(shape.sql)
                          for name, shape in HOT_SHAPES.items()}
            wire = latencies(lambda name, params: statements[name].execute(
                params=params, timeout=OP_TIMEOUT_S).rows)
        finally:
            connection.close()
        metrics = {
            "scheduler.overhead_s": median(
                b - a for a, b in zip(direct, submitted)),
            "wire.overhead_ratio":
                median(wire) / median(submitted),
        }
        metrics.update(_codec_replay(database, rng))
        return metrics
    finally:
        database.close()


def _codec_replay(database: Database, rng: random.Random,
                  results: int = 10) -> dict:
    """Encode and decode ``serve_rows``-shaped results frame by frame."""
    rows_total = bytes_total = 0
    encode_seconds = decode_seconds = 0.0
    for params in rows_ranges(rng, database, results):
        result = database.execute(
            ROWS_SQL, options=ExecOptions(use_result_cache=False),
            params=params)
        type_names = [sql_type.value for sql_type in result.column_types]
        batches = [protocol.RowBatch(request_id=1,
                                     rows=result.rows[begin:begin + 1024])
                   for begin in range(0, len(result.rows), 1024)]
        start = time.perf_counter()
        frames = [encode_frame(batch) for batch in batches]
        encode_seconds += time.perf_counter() - start
        start = time.perf_counter()
        for frame in frames:
            _, frame_type = decode_header(
                frame[:protocol.FRAME_HEADER_BYTES])
            batch = decode_payload(frame_type,
                                   frame[protocol.FRAME_HEADER_BYTES:])
            decode_result_rows(batch.rows, type_names)
        decode_seconds += time.perf_counter() - start
        rows_total += len(result.rows)
        bytes_total += sum(map(len, frames))
    return {
        "protocol.encode_rows_per_s": _share(rows_total, encode_seconds),
        "protocol.decode_rows_per_s": _share(rows_total, decode_seconds),
        "protocol.bytes_per_row": _share(bytes_total, rows_total),
    }
