"""Static verification overhead on the compile path.

Pass-pipeline validation (switched on engine-wide by ``REPRO_VERIFY_IR=1``;
here by ``compile_function(..., verify=...)`` directly) re-runs the IR
verifier after every optimization pass that changed the function and checks
every bytecode translation.  For that to be usable
as an always-on CI default -- and cheap enough to leave on in production
debugging sessions -- the whole verification layer must stay a small
fraction of the compile time it guards.  This benchmark compiles the worker
functions of representative TPC-H queries cold, with verification off vs
on, and asserts the overhead stays below 5%.  A "compile" here is the full
tier ladder the adaptive engine walks for a hot worker: bytecode
translation, the unoptimized tier, then the optimized tier.

Methodology: the two configurations are timed back to back *per worker
function* (so a machine-load burst has to land inside one half of a pair
to skew it), many samples are taken, and the per-function *minimum* time
per configuration is compared -- the minimum is the least noisy location
estimate for a quantity with one-sided noise.  Each timed compile runs
with the garbage collector disabled after its own full collection, as
``timeit`` does, and the two halves of a pair swap order every sample, so
neither configuration is always the one that runs first.

Run as a script (CI smoke): ``python benchmarks/bench_verify_overhead.py``
Run under pytest for the benchmark fixture: ``pytest benchmarks/bench_verify_overhead.py``
Environment: ``REPRO_BENCH_TINY=1`` shrinks the workload, ``REPRO_BENCH_FULL=1`` grows it.
"""

from __future__ import annotations

import gc
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(os.path.dirname(_HERE), "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.analysis import verify_bytecode  # noqa: E402
from repro.backend import compile_function  # noqa: E402
from repro.vm import translate_function  # noqa: E402
from repro.workloads import TPCH_QUERIES, populate_tpch  # noqa: E402

TINY = os.environ.get("REPRO_BENCH_TINY", "") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: Representative compile workload: a scan-aggregate (q1), a 3-way join
#: (q3) and a correlated-shape aggregate (q17) cover the range of worker
#: function sizes the planner emits.
QUERIES = [1, 3, 17]
ITERATIONS = 3 if TINY else (12 if FULL else 6)
TRIALS = 3 if TINY else 5
MAX_OVERHEAD = 0.05


def build_workers():
    """Plan the benchmark queries once; return their worker functions."""
    db = populate_tpch(scale_factor=0.005, seed=3)
    functions = []
    for number in QUERIES:
        generated, _, _ = db.generate(TPCH_QUERIES[number])
        functions.extend(generated.module.functions.values())
    return functions


def compile_once(function, verify: bool) -> float:
    """One cold compile through the engine's full tier ladder.

    This is exactly what the adaptive engine does for a worker that
    escalates all the way: translate to bytecode (plus the bytecode
    verifier when validation is on), compile the unoptimized tier, then
    the optimized tier (with per-pass IR re-verification when on).
    Neither compiled tier changes the IR it is given (the optimized one
    runs its passes over a clone), so every call compiles the same cold
    input.
    """
    start = time.perf_counter()
    bytecode, _ = translate_function(function)
    if verify:
        verify_bytecode(bytecode)
    compile_function(function, "unoptimized")
    compile_function(function, "optimized", verify=verify)
    return time.perf_counter() - start


def timed_compile(function, verify: bool) -> float:
    """:func:`compile_once` after a full collection, with the collector off.

    A cyclic garbage collection triggered by earlier allocations would land
    its whole pause in whichever compile happened to trip it, so -- as
    :mod:`timeit` does -- every timed compile starts from a collected heap
    and runs with the collector off.
    """
    gc.collect()
    gc.disable()
    try:
        return compile_once(function, verify)
    finally:
        gc.enable()


def compile_pair(function, verify_first: bool) -> tuple[float, float]:
    """One verification-off and one verification-on compile, back to back.

    Returns ``(off, on)`` whichever ran first.
    """
    if verify_first:
        on = timed_compile(function, verify=True)
        return timed_compile(function, verify=False), on
    off = timed_compile(function, verify=False)
    return off, timed_compile(function, verify=True)


def run_benchmark(report=print) -> dict:
    from conftest import fmt_ms, print_table

    functions = build_workers()
    samples = TRIALS * ITERATIONS

    # Warm both code paths (imports, regex caches) before measuring.
    for function in functions:
        compile_once(function, verify=False)
        compile_once(function, verify=True)

    best_off = [float("inf")] * len(functions)
    best_on = [float("inf")] * len(functions)
    for sample in range(samples):
        for i, function in enumerate(functions):
            off, on = compile_pair(function, verify_first=sample % 2 == 1)
            if off < best_off[i]:
                best_off[i] = off
            if on < best_on[i]:
                best_on[i] = on

    total_off = sum(best_off)
    total_on = sum(best_on)
    overhead = total_on / total_off - 1.0
    per_compile_us = (total_on - total_off) / len(functions) * 1e6

    print_table(
        f"Static verification overhead, cold tier-ladder compiles "
        f"({len(functions)} workers from TPC-H q{QUERIES}, "
        f"{samples} paired samples each)",
        ["verification", "sum of best ms", "mean per compile ms"],
        [["off", fmt_ms(total_off), fmt_ms(total_off / len(functions))],
         ["on", fmt_ms(total_on), fmt_ms(total_on / len(functions))]])
    report(f"overhead {overhead * 100:+.2f}% "
           f"({per_compile_us:+.1f} us/compile, "
           f"limit {MAX_OVERHEAD * 100:.0f}%)")

    return {"overhead": overhead, "best_off": total_off,
            "best_on": total_on, "workers": len(functions)}


# --------------------------------------------------------------------------- #
# pytest entry points
# --------------------------------------------------------------------------- #
def test_verify_overhead_under_limit():
    metrics = run_benchmark()
    assert metrics["overhead"] < MAX_OVERHEAD, metrics


def test_cold_compile_with_verification(benchmark):
    functions = build_workers()
    target = max(functions, key=lambda fn: fn.instruction_count())
    benchmark(lambda: compile_function(target, "optimized", verify=True))


if __name__ == "__main__":
    metrics = run_benchmark()
    ok = metrics["overhead"] < MAX_OVERHEAD
    print(f"\nverification overhead {metrics['overhead'] * 100:+.2f}% "
          f"(< {MAX_OVERHEAD * 100:.0f}% required) -- "
          f"{'PASS' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)
