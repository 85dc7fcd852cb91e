"""The benchmark harness: one ruler for every later performance claim.

Two ways in, one measurement underneath:

``python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload.  ``--trace 0`` measures the end-to-end metrics
    untraced; ``--trace 1`` is the separate traced run that yields the
    per-layer metrics.  The last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/harness/run.py --seed 11 --out benchmarks/harness/results/BENCH_11.json``
    The whole suite: every workload untraced in three interleaved rounds,
    then traced (twice for ``tpch_cold_*``, whose exact counts must repeat),
    every result checked against sqlite, every metric printed by name with
    its unit and sample count, and the trajectory file written.

Names, units and bounds live in ``BENCHMARK.json`` at the repository root;
this file emits exactly the metrics declared there.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parent.parent
RESULTS_DIR = HARNESS_DIR / "results"

if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the engine's source is not at {REPO_ROOT / 'src'}; "
             f"run the benchmark from a full checkout")
for _path in (str(REPO_ROOT / "src"), str(HARNESS_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SMOKE_QUERIES, SMOKE_SCALE, WORKLOADS  # noqa: E402


@functools.cache
def declared() -> dict:
    """``BENCHMARK.json``, with each metric list keyed by metric name."""
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        contract[kind] = {metric["name"]: metric
                          for metric in contract[kind]}
    return contract


#: p95 needs ten samples beyond it, so a run keeps measuring past
#: ``--seconds`` until it has this many latency samples.
MIN_SAMPLES = 200
#: Set-up is repeated (and ``setup_s`` is the median) while the repeats fit
#: in this many seconds, at most ``MAX_SETUPS`` times.
SETUP_BUDGET_S = 7.0
MAX_SETUPS = 5
ROUNDS = 3


def _set_up(name: str, seed: int, smoke: bool):
    workload = WORKLOADS[name](seed, smoke)
    gc.collect()
    start = time.perf_counter()
    try:
        workload.set_up()
    except BaseException:
        workload.tear_down()
        raise
    return workload, time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The untraced run: end-to-end metrics of one workload."""
    workload, elapsed = _set_up(name, seed, smoke)
    setups = [elapsed]
    while (not smoke and len(setups) < MAX_SETUPS
           and sum(setups) + setups[-1] <= SETUP_BUDGET_S):
        workload.tear_down()
        workload, elapsed = _set_up(name, seed, smoke)
        setups.append(elapsed)
    try:
        rates, latencies = [], []
        attempted = failed = 0
        measured = 0.0
        while True:
            workload.reset()
            gc.collect()
            pass_ = workload.run_pass()
            failed += workload.check(pass_)
            attempted += len(pass_.outcomes)
            measured += pass_.wall
            rates.append(len(pass_.outcomes) / pass_.wall)
            latencies.extend(outcome.latency for outcome in pass_.outcomes)
            if smoke or (measured >= seconds
                         and len(latencies) >= MIN_SAMPLES):
                break
        beyond = 0 if smoke else stats.MIN_SAMPLES_BEYOND
        return {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {
                "setup_s": median(setups),
                "queries_per_s": median(rates),
                "latency_p50_ms":
                    1e3 * stats.percentile(latencies, 50, beyond),
                "latency_p95_ms":
                    1e3 * stats.percentile(latencies, 95, beyond),
            },
            "samples": {"setups": len(setups), "passes": len(rates),
                        "latencies": len(latencies),
                        "measured_s": measured},
            "first_error": workload.first_error,
        }
    finally:
        workload.tear_down()


def measure_probes(seed: int, smoke: bool) -> tuple:
    """The fixed probes: ``(metrics, per-kernel detail)``.  They do not
    depend on the workload, so the suite measures them once."""
    metrics, kernel_detail = layers.tier_kernels(
        SMOKE_SCALE if smoke else layers.KERNEL_SCALE)
    metrics.update(layers.serving_probe(
        SMOKE_SCALE if smoke else layers.SERVING_SCALE, seed,
        requests=20 if smoke else 200))
    return metrics, kernel_detail


def measure_layers(name: str, seed: int, seconds: float, smoke: bool,
                   probes=None) -> dict:
    """The traced run: per-layer metrics of one workload."""
    workload, _ = _set_up(name, seed, smoke)
    tracer = Tracer()
    try:
        untraced_walls, traced = [], []
        deltas: dict = defaultdict(float)
        attempted = failed = 0
        measured = 0.0
        # Untraced and traced passes alternate, so drift hits both sides
        # of tracing_overhead_ratio alike.
        while True:
            workload.reset()
            gc.collect()
            pass_ = workload.run_pass()
            untraced_walls.append(pass_.wall)
            workload.reset()
            gc.collect()
            before = layers.registry_totals(workload.db)
            with tracer:
                traced_pass = workload.run_pass(tracer)
            for key, value in layers.registry_totals(workload.db).items():
                deltas[key] += value - before[key]
            traced.append(traced_pass)
            for each in (pass_, traced_pass):
                failed += workload.check(each)
                attempted += len(each.outcomes)
                measured += each.wall
            if smoke or (len(traced) >= 2 and measured >= seconds / 2):
                break
        metrics = layers.workload_metrics(
            tracer, list(tracer.spans), traced, deltas, untraced_walls)

        workload.reset()
        with tracer:
            sweep, counts = layers.mode_sweep(
                workload.db, tracer,
                repeats=3 if workload.scale <= 0.5 and not smoke else 1,
                queries=SMOKE_QUERIES if smoke else None)
            metrics.update(sweep)
            metrics.update(layers.cache_probe(workload.db, tracer, seed))
    finally:
        workload.tear_down()
    probe_metrics, kernel_detail = probes or measure_probes(seed, smoke)
    metrics.update(probe_metrics)
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write(RESULTS_DIR / f"trace_{name}.json")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "samples": {"passes": len(traced), "spans": len(tracer.spans)},
        "first_error": workload.first_error,
        "counts": counts,
        "kernels": kernel_detail,
        "fig2_ordering": layers.fig2_ordering_holds(kernel_detail),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, probes=None) -> dict:
    """One run; ``metrics`` become ``{name: {"value", "unit"}}`` and must be
    exactly the metrics ``BENCHMARK.json`` declares for this kind of run."""
    metrics = declared()["per_layer" if trace else "end_to_end"]
    run = (measure_layers(name, seed, seconds, smoke, probes) if trace
           else measure(name, seed, seconds, smoke))
    if set(run["metrics"]) != set(metrics):
        raise AssertionError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(run['metrics']) ^ set(metrics))}")
    run["metrics"] = {
        metric: {"value": run["metrics"][metric],
                 "unit": metrics[metric]["unit"]} for metric in metrics}
    return run


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def print_run(name: str, run: dict) -> None:
    samples = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                        else f"{key}={value}"
                        for key, value in run["samples"].items())
    print(f"[{name}] attempted={run['attempted']} failed={run['failed']} "
          f"({samples})")
    for metric, entry in run["metrics"].items():
        print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
    if run.get("first_error"):
        print(f"  first failure: {run['first_error']}")
    if run.get("fig2_ordering") is False:
        print("  WARNING: tier kernels do not reproduce the Fig. 2 ordering")


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_suite(seed: int, seconds: float, smoke: bool, out) -> int:
    """Every workload, untraced in interleaved rounds, then traced."""
    rounds = 1 if smoke else ROUNDS
    untraced = {name: [] for name in WORKLOADS}
    for round_number in range(rounds):
        for name in WORKLOADS:
            run = run_workload(name, seed, seconds, trace=False, smoke=smoke)
            print(f"round {round_number + 1}/{rounds} ", end="")
            print_run(name, run)
            untraced[name].append(run)

    traced = {}
    count_check = {}
    probes = measure_probes(seed, smoke)
    for name in WORKLOADS:
        run = run_workload(name, seed, seconds, trace=True, smoke=smoke,
                           probes=probes)
        print("traced ", end="")
        print_run(name, run)
        traced[name] = run
        if name.startswith("tpch_cold"):
            again = run_workload(name, seed, seconds, trace=True,
                                 smoke=smoke, probes=probes)
            difference = layers.first_count_difference(run["counts"],
                                                       again["counts"])
            count_check[name] = difference
            print(f"  exact-count self-check: "
                  f"{'identical' if difference is None else difference}")

    report = {
        "seed": seed, "run_seconds": seconds,
        "smoke": smoke, "rounds": rounds, "machine": machine(),
        "end_to_end": {}, "per_layer": {}, "detail": {},
    }
    for name in WORKLOADS:
        attempted = sum(run["attempted"] for run in untraced[name])
        failed = sum(run["failed"] for run in untraced[name])
        entry = {"failed_share": failed / attempted,
                 "attempted": attempted, "metrics": {}}
        for metric, contract in declared()["end_to_end"].items():
            values = [run["metrics"][metric]["value"]
                      for run in untraced[name]]
            entry["metrics"][metric] = {
                "unit": contract["unit"], "better": contract["better"],
                "bound": contract["bound"], "rounds": values,
                "median": median(values),
                "spread": stats.iqr_share(values),
                "samples": [run["samples"] for run in untraced[name]],
            }
        report["end_to_end"][name] = entry
        report["per_layer"][name] = traced[name]["metrics"]
        report["detail"][name] = {
            "traced_failed": traced[name]["failed"],
            "kernels": traced[name]["kernels"],
            "fig2_ordering": traced[name]["fig2_ordering"],
            "exact_counts_differ": count_check.get(name),
        }
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")

    failures = [name for name, entry in report["end_to_end"].items()
                if entry["failed_share"] > 0
                or report["detail"][name]["traced_failed"]]
    differing = [name for name, difference in count_check.items()
                 if difference is not None]
    if failures:
        print(f"FAILED operations on: {failures}")
    if differing:
        print(f"exact counts differ between traced runs on: {differing}")
    return 1 if failures or differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload once (driver contract); "
                             "without it the whole suite runs")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at SF 0.05 everywhere: checks the "
                             "plumbing, measures nothing")
    parser.add_argument("--out", help="suite only: write the report here")
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.smoke, args.out)
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    print_run(args.workload, run)
    print(json.dumps({key: run[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
