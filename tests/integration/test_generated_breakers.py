"""The generated breaker externs, in every mode, against stdlib ``sqlite3``.

Every tier calls the same generated aggregate update, build insert and
probe (``codegen/runtime.py``); the volcano baseline folds rows with the
generic helpers instead, so it is the in-repo reference and sqlite the
outside one.  Each query runs single-threaded on a one-worker database (one
breaker partition) and, for the engine modes, with two threads on a
four-worker database (four partitions), which exercises the per-slot
partials and the merge.
"""

from __future__ import annotations

import math
import sqlite3

import pytest

from repro import BASELINE_MODES, ENGINE_MODES, Database, ExecOptions, SQLType
from repro.codegen.runtime import (
    QueryRuntime,
    WorkerContext,
    agg_update_factory,
    build_insert_factory,
    initial_cells,
    probe_factory,
)
from repro.plan.physical import (
    AggregateSink,
    AggregateSpec,
    HashBuildSink,
    PhysHashProbe,
)
from repro.semantics.expressions import LiteralExpr

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

SCHEMA = {
    "t": [("k1", SQLType.INT64), ("k2", SQLType.INT64),
          ("k3", SQLType.STRING), ("v", SQLType.INT64),
          ("f", SQLType.FLOAT64), ("s", SQLType.STRING)],
    "u": [("k1", SQLType.INT64), ("k2", SQLType.INT64),
          ("w", SQLType.INT64)],
}


def _rows():
    t = [(i % 5, i % 3, f"g{i % 2}", (i * 37) % 101 - 50,
          ((i * 13) % 29) / 4.0 - 3.0, f"s{(i * 7) % 23:02d}")
         for i in range(700)]
    u = [(i % 6, i % 4, i % 9) for i in range(40)]
    return {"t": t, "u": u}


#: name -> SQL run unchanged on both sides.
QUERIES = {
    "min-max": "select min(v), max(v), min(f), max(f), min(s), max(s) "
               "from t",
    "avg-pairs": "select k1, avg(v), avg(f), sum(v), avg(v) + 1 "
                 "from t group by k1",
    "count-star-and-col": "select k2, count(*), count(v), count(s), sum(f) "
                          "from t group by k2",
    "zero-keys": "select count(*), sum(v), sum(f), avg(f), min(v), max(s) "
                 "from t where v > 0",
    "one-key": "select k1, count(*), sum(v), min(f), max(f), avg(v) "
               "from t group by k1",
    "three-keys": "select k1, k2, k3, count(*), sum(v), min(s), max(v), "
                  "avg(f) from t group by k1, k2, k3",
    "where-false-group": "select k1, count(*), count(v), sum(v), sum(f), "
                         "avg(v), min(v), max(s) from t where false "
                         "group by k1",
    "cross-join": "select count(*), sum(u.w), min(t.v), max(u.k1) "
                  "from t, u where t.v > 40 and u.w < 3",
    "multi-key-probe": "select t.k1, t.k2, count(*), sum(u.w), sum(t.v) "
                       "from t, u where t.k1 = u.k1 and t.k2 = u.k2 "
                       "group by t.k1, t.k2",
}

#: Scalar aggregates over no rows: SQL says NULL, the engine answers zeros
#: (an open question), so only the modes are compared with each other.
EMPTY_SCALAR = ("select count(*), count(v), sum(v), sum(f), avg(v), min(v), "
                "max(f), min(s) from t where false")


@pytest.fixture(scope="module")
def databases():
    """``({workers: db}, oracle)``: one database per breaker layout."""
    dbs = {workers: Database(workers=workers, morsel_size=64)
           for workers in (1, 4)}
    oracle = sqlite3.connect(":memory:")
    data = _rows()
    for name, columns in SCHEMA.items():
        for db in dbs.values():
            db.create_table(name, columns)
            db.insert(name, data[name])
        oracle.execute(f"create table {name} ("
                       + ", ".join(column for column, _ in columns) + ")")
        oracle.executemany(
            f"insert into {name} values ("
            + ", ".join("?" for _ in columns) + ")", data[name])
    yield dbs, oracle
    oracle.close()
    for db in dbs.values():
        db.close()


def _layouts(dbs, mode):
    """``(db, options)``: one partition single-threaded, then (engine modes
    only) four partitions under two threads."""
    layouts = [(dbs[1], ExecOptions(mode=mode, threads=1,
                                    use_result_cache=False))]
    if mode in ENGINE_MODES:
        layouts.append((dbs[4], ExecOptions(mode=mode, threads=2,
                                            use_result_cache=False)))
    return layouts


def _same(left, right) -> bool:
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(sorted(left), sorted(right)):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_generated_breakers_match_sqlite(databases, name, mode):
    dbs, oracle = databases
    expected = oracle.execute(QUERIES[name]).fetchall()
    for db, options in _layouts(dbs, mode):
        rows = db.execute(QUERIES[name], options=options).rows
        assert _same(rows, expected), (options, rows, expected)


def test_query_set_exercises_every_breaker_shape(databases):
    """The queries above really reach a 0-key build and probe, a multi-key
    probe and aggregate updates with 0, 1 and 3 keys."""
    db = databases[0][1]
    build_keys, probe_keys, group_keys = set(), set(), set()
    for sql in QUERIES.values():
        _, planning, _ = db.prepare(sql)
        for pipeline in planning.physical.pipelines:
            sink = pipeline.sink
            if isinstance(sink, HashBuildSink):
                build_keys.add(len(sink.build_keys))
            elif isinstance(sink, AggregateSink):
                group_keys.add(len(sink.group_by))
            probe_keys.update(len(operator.probe_keys)
                              for operator in pipeline.operators
                              if isinstance(operator, PhysHashProbe))
    assert {0, 2} <= build_keys
    assert {0, 2} <= probe_keys
    assert {0, 1, 3} <= group_keys


def test_empty_scalar_aggregates_agree_across_modes(databases):
    dbs, _ = databases
    results = {}
    for mode in ALL_MODES:
        for db, options in _layouts(dbs, mode):
            results[(mode, options.threads)] = db.execute(
                EMPTY_SCALAR, options=options).rows
    reference = results[("volcano", 1)]
    assert len(reference) == 1
    for key, rows in results.items():
        assert rows == reference, key


# --------------------------------------------------------------------------- #
# the generated source itself
# --------------------------------------------------------------------------- #
def _spec(function, result_type=SQLType.INT64, argument=True):
    return AggregateSpec(
        function=function,
        argument=LiteralExpr(1, SQLType.INT64) if argument else None,
        result_type=result_type)


ALL_SPECS = [_spec("count", argument=False), _spec("count"),
             _spec("sum"), _spec("sum", SQLType.FLOAT64),
             _spec("avg", SQLType.FLOAT64), _spec("min"),
             _spec("max", SQLType.FLOAT64), _spec("min", SQLType.STRING)]


@pytest.mark.parametrize(
    "specs", [[spec] for spec in ALL_SPECS] + [ALL_SPECS],
    ids=[f"{s.function}-{s.result_type.name}-{'arg' if s.argument else 'star'}"
         for s in ALL_SPECS] + ["all"])
def test_generated_initial_cells_equal_initial_cells(specs):
    source = agg_update_factory(1, specs).source
    (line,) = [line for line in source.splitlines()
               if "cells = part[key] = " in line]
    initial = eval(line.split("cells = part[key] = ", 1)[1])
    assert initial == initial_cells(specs)
    assert [type(cell) for cell in initial] == \
        [type(cell) for cell in initial_cells(specs)]


def test_generated_update_folds_like_the_reference():
    """One group fed by hand: count(*), count(col), sum, avg, min, max."""
    specs = ALL_SPECS[:7]
    update = agg_update_factory(1, specs)(5)
    context = WorkerContext()
    context.aggs[5] = [{}, {}]
    # arguments: count(col), sum int, sum float, avg, min, max
    values = [(3, 4, 2.5, 9.0, 7, 1.0), (-1, 8, 0.5, -2.0, 3, 6.0),
              (4, 2, 1.0, 3.0, 11, -4.0)]
    for row in values:
        update(context, "g", *row)
    (cells,) = [part["g"] for part in context.aggs[5] if "g" in part]
    assert cells == [3, 3, 14, 4.0, [10.0, 3], 3, 6.0]


def test_one_compile_per_shape():
    """Sinks of one shape share the compiled code; ids stay their own."""
    first = agg_update_factory(2, ALL_SPECS[:3])(1)
    second = agg_update_factory(2, ALL_SPECS[:3])(2)
    assert first.__code__ is second.__code__
    assert first is not second
    assert build_insert_factory(2, 1) is build_insert_factory(2, 1)
    assert probe_factory(3) is probe_factory(3)


def test_generated_insert_and_probe_round_trip():
    class _State:
        join_partitions = {0: [{}, {}]}

    insert = build_insert_factory(2, 2)(0)
    context = WorkerContext()
    context.joins[0] = [{}, {}]
    insert(context, 1, "a", 10, 20)
    insert(context, 1, "a", 11, 21)
    insert(context, 2, "a", 12, 22)
    _State.join_partitions[0][:] = context.joins[0]
    probe = QueryRuntime(_State()).make_probe(0, 2)
    assert probe(1, "a") == [(10, 20), (11, 21)]
    assert probe(2, "a") == [(12, 22)]
    assert probe(2, "b") == []
