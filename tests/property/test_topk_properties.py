"""Property tests for the top-k output breaker and LIMIT early termination.

The load-bearing invariant: running ORDER BY + LIMIT k through the bounded
per-worker heaps must return *exactly* the rows of sort-then-slice --
computed here by a few lines of Python, ``sorted(rows, key=...)[:k]`` --
for every execution mode, any worker and partition count, and adversarial
orderings: heavy duplicate sort keys, DESC keys, NaN keys, k of 0, k larger
than the input.  Ordering ties are broken by the canonical whole-row
comparison in every engine, so the comparisons below are exact row-list
equality, not set equality.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BASELINE_MODES, ENGINE_MODES, Database, SQLType
from repro.options import ExecOptions

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])

#: Tiny key domain: most examples have duplicate sort keys, which is where
#: a non-canonical tiebreak would diverge between the heap and the sort.
_dup_key = st.integers(0, 4)
_row = st.tuples(_dup_key, st.integers(-100, 100))


#: ``(database workers, query threads)``: 4 and 32 breaker partitions
#: single-threaded, then 4 partitions under four threads.
_LAYOUTS = ((4, 1), (32, 1), (4, 4))


def _loader(rows, columns=(("k", SQLType.INT64), ("v", SQLType.INT64)),
            encode=True):
    def load(db):
        db.create_table("t", list(columns))
        if rows:
            db.insert("t", rows, encode=encode)
    return load


@_SETTINGS
@given(rows=st.lists(_row, min_size=0, max_size=120),
       limit=st.integers(0, 15))
def test_topk_matches_sort_then_slice(breaker_layouts, rows, limit):
    """Top-k == sorted()[:k] for ascending keys with heavy duplicates.

    With output columns (k, v) and ORDER BY k, the canonical full-row
    tiebreak makes the expected result simply ``sorted(rows)[:limit]``.
    """
    expected = sorted(rows)[:limit]
    sql = f"select k, v from t order by k limit {limit}"
    with breaker_layouts(_loader(rows), _LAYOUTS, morsel_size=32) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert result.rows == expected, \
                    (mode, db.breaker_partitions, options)


@_SETTINGS
@given(rows=st.lists(_row, min_size=0, max_size=120),
       limit=st.integers(0, 15))
def test_topk_desc_matches_sort_then_slice(breaker_layouts, rows, limit):
    """DESC keys flow through the inverted heap comparison correctly."""
    # ORDER BY k DESC, v: fully determined, so plain Python sort works.
    expected = sorted(rows, key=lambda r: (-r[0], r[1]))[:limit]
    sql = f"select k, v from t order by k desc, v limit {limit}"
    with breaker_layouts(_loader(rows), _LAYOUTS, morsel_size=32) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert result.rows == expected, \
                    (mode, db.breaker_partitions, options)


@_SETTINGS
@given(values=st.lists(
    st.one_of(st.just(float("nan")),
              st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=60),
    limit=st.integers(0, 10))
def test_topk_with_nan_sort_keys(breaker_layouts, values, limit):
    """NaN sort keys order canonically (after every number, ties broken by
    the visible columns), identically in the heap and in every engine."""
    rows = [(value, index) for index, value in enumerate(values)]
    load = _loader(rows, (("f", SQLType.FLOAT64), ("i", SQLType.INT64)),
                   encode=False)
    sql = f"select i, f from t order by f limit {limit}"
    # Sort-then-slice: numbers ascending, then the NaNs; equal keys
    # (and all NaNs) in ``i`` order.  NaN != NaN breaks plain tuple
    # comparison, so rows are compared with NaN spelled "nan".
    ordered = sorted(rows, key=lambda r: ((1, 0.0) if r[0] != r[0]
                                          else (0, r[0]), r[1]))
    expected = [(i, "nan" if f != f else f) for f, i in ordered[:limit]]
    with breaker_layouts(load, _LAYOUTS, morsel_size=16) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                got = db.execute(sql, options=options).rows
                assert [(i, "nan" if f != f else f) for i, f in got] \
                    == expected, (mode, db.breaker_partitions, options)


@_SETTINGS
@given(rows=st.lists(_row, min_size=1, max_size=200),
       limit=st.integers(0, 12))
def test_limit_without_order_by_returns_any_k_rows(breaker_layouts, rows,
                                                   limit):
    """LIMIT without ORDER BY early-terminates with exactly min(k, n) rows,
    every one of them an actual table row."""
    table = set(rows)
    sql = f"select k, v from t limit {limit}"
    with breaker_layouts(_loader(rows), _LAYOUTS, morsel_size=16) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert len(result.rows) == min(limit, len(rows)), \
                    (mode, db.breaker_partitions, options)
                assert set(result.rows) <= table, (mode, options)


def test_limit_parameter_reuses_one_prepared_plan():
    """``LIMIT ?`` binds per execution: one prepared statement serves every
    k, in every mode."""
    db = Database(morsel_size=32, workers=4)
    try:
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        db.insert("t", [(i % 5, i) for i in range(200)])
        sql = "select k, v from t order by k, v limit ?"
        prepared = db.prepare_query(sql)
        expected_all = sorted((i % 5, i) for i in range(200))
        for k in (0, 1, 7, 200, 1000):
            expected = expected_all[:k]
            for mode in ENGINE_MODES:
                assert prepared.execute(
                    options=ExecOptions(mode=mode), params=[k]).rows \
                    == expected, (mode, k)
                assert prepared.execute(
                    options=ExecOptions(mode=mode, threads=4),
                    params=[k]).rows == expected, (mode, k)
            for mode in BASELINE_MODES:
                assert db.execute(sql, options=ExecOptions(mode=mode),
                                  params=[k]).rows == expected, (mode, k)
        assert prepared.executions >= 10  # one plan, many limits
    finally:
        db.close()


def test_limit_early_termination_is_reported():
    """A LIMIT that stops the scan early surfaces in the result stats, and
    the top-k heap stays bounded."""
    db = Database(morsel_size=64, workers=4)
    try:
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        db.insert("t", [(i, i) for i in range(5000)])
        for mode in ALL_MODES:
            options = ExecOptions(mode=mode)
            result = db.execute("select v from t limit 10", options=options)
            assert len(result.rows) == 10
            assert result.stats["limit_early_terminated"], mode
            full = db.execute("select v from t order by v limit 10",
                              options=options)
            assert full.rows == [(i,) for i in range(10)], mode
            # Top-k never materialises the full input: what the merge saw
            # is at most one bounded heap per worker slot.
            if mode in ENGINE_MODES:
                assert full.stats["breaker_partial_entries"] <= 10, mode
    finally:
        db.close()
