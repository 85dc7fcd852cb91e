"""Property tests for LEFT OUTER JOIN as a first-class partitioned breaker.

The defining invariant, checked against a reference computed in plain
Python: a LEFT JOIN returns every inner-join row *plus* exactly one
NULL-padded row per probe row no build match survived for -- in every
execution mode, for any worker and partition count, with residual ON
conditions, duplicate keys, all-matched and all-unmatched build sides.
The binder keeps NULL-padded columns away from every breaker input
(WHERE, GROUP BY, aggregates, other joins), which preserves the engine's
NULL-free breaker invariant.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BASELINE_MODES, ENGINE_MODES, Database, SQLType
from repro.errors import ReproError
from repro.options import ExecOptions

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])

#: Tiny key domain: duplicates on both sides (one-to-many fan-out) and
#: guaranteed unmatched probe rows.
_key = st.integers(0, 5)
_probe_row = st.tuples(_key, st.integers(-50, 50))
_build_row = st.tuples(_key, st.integers(-50, 50))


#: ``(database workers, query threads)``: 4, 1 and 32 breaker partitions
#: single-threaded, then 4 partitions under four threads.
_LAYOUTS = ((4, 1), (1, 1), (32, 1), (4, 4))


def _canonical(row):
    """Mirror the engines' canonical ordering: NULL after every value."""
    return tuple((1, 0) if value is None else (0, value) for value in row)


def _expected_left_join(probe, build, residual=None):
    """Reference LEFT JOIN, ordered by the leading probe key with the
    engines' canonical whole-row tiebreak."""
    rows = []
    for key, value in probe:
        matched = False
        for bkey, weight in build:
            if bkey == key and (residual is None or residual(weight)):
                matched = True
                rows.append((key, value, weight))
        if not matched:
            rows.append((key, value, None))
    return sorted(rows, key=_canonical)


def _loader(probe, build):
    def load(db):
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        db.create_table("s", [("k", SQLType.INT64), ("w", SQLType.INT64)])
        if probe:
            db.insert("t", probe)
        if build:
            db.insert("s", build)
    return load


@_SETTINGS
@given(probe=st.lists(_probe_row, min_size=0, max_size=60),
       build=st.lists(_build_row, min_size=0, max_size=40))
def test_left_join_equals_inner_plus_unmatched(breaker_layouts, probe, build):
    expected = _expected_left_join(probe, build)
    sql = ("select t.k, t.v, s.w from t left join s on t.k = s.k "
           "order by t.k")
    with breaker_layouts(_loader(probe, build), _LAYOUTS,
                         morsel_size=16) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert result.rows == expected, \
                    (mode, db.breaker_partitions, options)


@_SETTINGS
@given(probe=st.lists(_probe_row, min_size=0, max_size=60),
       build=st.lists(_build_row, min_size=0, max_size=40),
       threshold=st.integers(-50, 50))
def test_left_join_with_residual_on_condition(breaker_layouts, probe, build,
                                              threshold):
    """Residual ON conjuncts must run *inside* the probe (a failed residual
    preserves the probe row) -- a post-join filter would drop it."""
    expected = _expected_left_join(
        probe, build, residual=lambda w: w > threshold)
    sql = (f"select t.k, t.v, s.w from t left join s "
           f"on t.k = s.k and s.w > {threshold} order by t.k")
    with breaker_layouts(_loader(probe, build), _LAYOUTS,
                         morsel_size=16) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert result.rows == expected, \
                    (mode, db.breaker_partitions, options)


def test_all_matched_and_all_unmatched_build_sides():
    """The complement degenerates correctly at both extremes."""
    db = Database(morsel_size=8, workers=4)
    try:
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        db.create_table("full_s", [("k", SQLType.INT64),
                                   ("w", SQLType.INT64)])
        db.create_table("empty_s", [("k", SQLType.INT64),
                                    ("w", SQLType.INT64)])
        probe = [(i % 4, i) for i in range(40)]
        db.insert("t", probe)
        db.insert("full_s", [(k, k * 10) for k in range(4)])  # every key hits

        inner = ("select t.k, t.v, full_s.w from t "
                 "join full_s on t.k = full_s.k order by t.k, t.v")
        left_full = ("select t.k, t.v, full_s.w from t "
                     "left join full_s on t.k = full_s.k order by t.k, t.v")
        left_empty = ("select t.k, t.v, empty_s.w from t "
                      "left join empty_s on t.k = empty_s.k "
                      "order by t.k, t.v")
        for mode in ALL_MODES:
            # All matched: LEFT JOIN collapses to the inner join.
            assert db.execute(left_full,
                              options=ExecOptions(mode=mode)).rows == \
                db.execute(inner, options=ExecOptions(mode=mode)).rows, mode
            # All unmatched: every probe row survives once, NULL-padded.
            rows = db.execute(left_empty, options=ExecOptions(mode=mode)).rows
            assert rows == [(k, v, None) for k, v in sorted(probe)], mode
    finally:
        db.close()


def test_left_join_composes_with_topk_and_aggregation_siblings(
        breaker_layouts):
    """LEFT JOIN output runs through ORDER BY + LIMIT top-k heaps, and its
    NULL-padded columns order canonically (NULL last) in every mode."""
    load = _loader([(i % 10, i) for i in range(100)],
                   [(k, k * 100) for k in range(0, 10, 2)])
    with breaker_layouts(load, ((4, 1), (1, 1)), morsel_size=16) as runs:
        sql = ("select t.v, s.w from t left join s on t.k = s.k "
               "order by s.w desc, t.v limit 7")
        # Sort-then-slice in Python.  NULL orders as the largest value, so
        # DESC puts the NULL-padded rows first (NULLS FIRST), tiebroken by
        # ascending t.v: the seven smallest v with odd (unmatched) keys.
        joined = [(v, (v % 10) * 100 if v % 2 == 0 else None)
                  for v in range(100)]
        expected = sorted(
            joined, key=lambda row: ((0, 0) if row[1] is None
                                     else (1, -row[1]), row[0]))[:7]
        assert expected == [(v, None) for v in (1, 3, 5, 7, 9, 11, 13)]
        for mode in ALL_MODES:
            for db, options in runs(mode):
                rows = db.execute(sql, options=options).rows
                assert rows == expected, (mode, db.breaker_partitions)


def test_right_and_full_joins_rejected_with_precise_errors():
    db = Database()
    try:
        db.create_table("t", [("k", SQLType.INT64)])
        db.create_table("s", [("k", SQLType.INT64)])
        with pytest.raises(ReproError) as excinfo:
            db.execute("select t.k from t right join s on t.k = s.k")
        message = str(excinfo.value)
        assert "RIGHT OUTER JOIN" in message
        assert "line 1" in message
        assert "swapping its inputs" in message
        with pytest.raises(ReproError) as excinfo:
            db.execute("select t.k from t full outer join s on t.k = s.k")
        assert "FULL OUTER JOIN" in str(excinfo.value)
    finally:
        db.close()


def test_nullable_columns_cannot_reach_breakers():
    """NULL-padded build columns are rejected everywhere a NULL could enter
    a breaker: WHERE, GROUP BY, aggregates, expressions.  Bare references
    in SELECT and ORDER BY remain allowed."""
    db = Database()
    try:
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        db.create_table("s", [("k", SQLType.INT64), ("w", SQLType.INT64)])
        db.insert("t", [(1, 10), (2, 20)])
        db.insert("s", [(1, 100)])
        ok = db.execute("select t.v, s.w from t left join s on t.k = s.k "
                        "order by s.w")
        assert ok.rows == [(10, 100), (20, None)]
        rejected = [
            "select t.v from t left join s on t.k = s.k where s.w > 0",
            "select s.w, count(*) from t left join s on t.k = s.k "
            "group by s.w",
            "select sum(s.w) from t left join s on t.k = s.k",
            "select s.w + 1 from t left join s on t.k = s.k",
        ]
        for sql in rejected:
            with pytest.raises(ReproError, match="can be NULL"):
                db.execute(sql)
    finally:
        db.close()
