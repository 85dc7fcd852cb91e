"""Property tests for the semantic result cache and execute_many.

The load-bearing invariants:

* **Equivalence** -- for every execution mode, ``execute_many`` over a
  batch of bindings returns exactly what per-binding ``execute`` with the
  result cache disabled returns, regardless of how much of the batch was
  fused, deduplicated or served from cache.
* **No stale reads** -- a cached result may never survive a mutation of
  any referenced table: under arbitrarily interleaved inserts and DDL,
  every read matches a Python oracle over the table's current contents.
* **Concurrency safety** -- concurrent submits of one hot shape through
  the scheduler produce only correct results while the cache fills and
  serves underneath them.
"""

from __future__ import annotations

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BASELINE_MODES, ENGINE_MODES, Database, SQLType
from repro.options import ExecOptions

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])


def normalized(rows):
    return sorted(tuple(round(v, 6) if isinstance(v, float) else v
                        for v in row) for row in rows)


def build_db(values):
    db = Database(morsel_size=64)
    db.create_table("t", [("a", SQLType.INT64), ("f", SQLType.FLOAT64)])
    if values:
        db.insert("t", [(v, v * 0.5) for v in values])
    return db


@_SETTINGS
@given(values=st.lists(st.integers(min_value=-50, max_value=50),
                       min_size=1, max_size=150),
       bindings=st.lists(st.integers(min_value=-50, max_value=50),
                         min_size=1, max_size=6))
def test_execute_many_equals_uncached_execute_in_every_mode(values,
                                                            bindings):
    db = build_db(values)
    sql = "select count(*) as n, sum(a) as s from t where a >= ?"
    batch = [(b,) for b in bindings]
    for mode in ALL_MODES:
        expected = [normalized(db.execute(
            sql, params=binding,
            options=ExecOptions(mode=mode, use_result_cache=False)).rows)
            for binding in batch]
        fused = db.execute_many(sql, batch, options=ExecOptions(mode=mode))
        assert [normalized(r.rows) for r in fused] == expected, mode
        # And again, now that every binding is cache-resident.
        repeat = db.execute_many(sql, batch, options=ExecOptions(mode=mode))
        assert [normalized(r.rows) for r in repeat] == expected, mode


@_SETTINGS
@given(initial=st.lists(st.integers(min_value=0, max_value=40),
                        min_size=1, max_size=60),
       steps=st.lists(
           st.one_of(
               st.tuples(st.just("read"),
                         st.integers(min_value=0, max_value=40)),
               st.tuples(st.just("insert"),
                         st.integers(min_value=0, max_value=40)),
               st.tuples(st.just("recreate"),
                         st.integers(min_value=0, max_value=40))),
           min_size=1, max_size=12))
def test_no_stale_reads_under_interleaved_mutations(initial, steps):
    """Every read agrees with a Python oracle over the *current* rows."""
    db = build_db(initial)
    oracle = list(initial)
    sql = "select count(*) as n from t where a >= ?"
    for action, value in steps:
        if action == "insert":
            db.insert("t", [(value, value * 0.5)])
            oracle.append(value)
        elif action == "recreate":
            db.drop_table("t")
            db.create_table("t", [("a", SQLType.INT64),
                                  ("f", SQLType.FLOAT64)])
            db.insert("t", [(value, value * 0.5)])
            oracle = [value]
        result = db.execute(sql, params=(value,))
        expected = sum(1 for v in oracle if v >= value)
        assert result.rows == [(expected,)], (action, value)


@_SETTINGS
@given(values=st.lists(st.integers(min_value=0, max_value=30),
                       min_size=1, max_size=80),
       bindings=st.lists(st.integers(min_value=0, max_value=30),
                         min_size=2, max_size=4))
def test_concurrent_submits_of_one_hot_shape(values, bindings):
    db = build_db(values)
    sql = "select count(*) as n from t where a >= ?"
    expected = {b: sum(1 for v in values if v >= b) for b in bindings}
    errors = []
    barrier = threading.Barrier(len(bindings))

    def worker(binding):
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                ticket = db.submit(sql, params=(binding,))
                result = ticket.result(timeout=60)
                if result.rows != [(expected[binding],)]:
                    errors.append((binding, result.rows))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((binding, repr(exc)))

    threads = [threading.Thread(target=worker, args=(b,)) for b in bindings]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    db.close()
    assert errors == []
