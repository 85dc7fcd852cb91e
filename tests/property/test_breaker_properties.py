"""Property tests for partition-parallel pipeline breakers.

The load-bearing invariant: hash-partitioning the breaker state and merging
per-worker partials is pure bookkeeping -- a partitioned execution must
return *exactly* the rows a plain Python dict group-by / nested-loop join
computes, for every execution mode, every partition count, any worker
count, and adversarial key distributions (heavy duplicates, skew,
multi-column keys, multi-join fan-out).  GROUP BY results additionally
come out in ascending group-key order in every engine, so the comparisons
below do not need to sort.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BASELINE_MODES, ENGINE_MODES, Database, SQLType
from repro.errors import ReproError

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])

#: Tiny key domains guarantee duplicates; the sampled distribution is
#: deliberately skewed (most rows land on key 0).
_skewed_key = st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2, 3, 4])
_tag = st.sampled_from(["aa", "bb", "cc"])
_row = st.tuples(_skewed_key, _tag, st.integers(-100, 100))


#: ``(database workers, query threads)``: 4, 1 and 32 breaker partitions
#: single-threaded, then 4 and 2 partitions under four threads.
_LAYOUTS = ((4, 1), (1, 1), (32, 1), (4, 4), (2, 4))


def normalized(rows):
    return [tuple(round(value, 6) if isinstance(value, float) else value
                  for value in row) for row in rows]


def _expected_group_by(rows):
    groups: dict = {}
    for key, tag, value in rows:
        cells = groups.setdefault((key, tag), [0, 0, None, None])
        cells[0] += 1
        cells[1] += value
        cells[2] = value if cells[2] is None else min(cells[2], value)
        cells[3] = value if cells[3] is None else max(cells[3], value)
    result = []
    for (key, tag), (count, total, low, high) in sorted(groups.items()):
        result.append((key, tag, count, total, low, high,
                       round(total / count, 6)))
    return result


@_SETTINGS
@given(rows=st.lists(_row, min_size=0, max_size=120))
def test_partitioned_group_by_matches_dict_oracle(breaker_layouts, rows):
    def load(db):
        db.create_table("t", [("k", SQLType.INT64), ("s", SQLType.STRING),
                              ("v", SQLType.INT64)])
        if rows:
            db.insert("t", rows)

    sql = ("select k, s, count(*), sum(v), min(v), max(v), avg(v) "
           "from t group by k, s")
    expected = _expected_group_by(rows)
    with breaker_layouts(load, _LAYOUTS, morsel_size=32) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert normalized(result.rows) == expected, \
                    (mode, db.breaker_partitions, options)


@_SETTINGS
@given(rows=st.lists(_row, min_size=0, max_size=60),
       dim=st.lists(st.tuples(_skewed_key, st.integers(-10, 10)),
                    min_size=0, max_size=20),
       fact=st.lists(st.tuples(_skewed_key, st.integers(0, 3)),
                     min_size=0, max_size=20))
def test_partitioned_multi_join_group_by_matches_nested_loops(
        breaker_layouts, rows, dim, fact):
    def load(db):
        db.create_table("t", [("k", SQLType.INT64), ("s", SQLType.STRING),
                              ("v", SQLType.INT64)])
        db.create_table("d", [("k", SQLType.INT64), ("w", SQLType.INT64)])
        db.create_table("f", [("k", SQLType.INT64), ("g", SQLType.INT64)])
        if rows:
            db.insert("t", rows)
        if dim:
            db.insert("d", dim)
        if fact:
            db.insert("f", fact)

    sql = ("select t.k, f.g, count(*), sum(t.v + d.w) "
           "from t, d, f where t.k = d.k and t.k = f.k "
           "group by t.k, f.g")
    groups: dict = {}
    for key, _, value in rows:
        for dkey, weight in dim:
            if dkey != key:
                continue
            for fkey, grp in fact:
                if fkey != key:
                    continue
                cells = groups.setdefault((key, grp), [0, 0])
                cells[0] += 1
                cells[1] += value + weight
    expected = [(key, grp, count, total)
                for (key, grp), (count, total) in sorted(groups.items())]

    with breaker_layouts(load, _LAYOUTS, morsel_size=16) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                result = db.execute(sql, options=options)
                assert normalized(result.rows) == expected, \
                    (mode, db.breaker_partitions, options)


def test_unordered_group_by_is_deterministic_across_modes(breaker_layouts):
    """Without ORDER BY, grouped results come out in ascending key order --
    identically in every engine, for every partition count, run after run
    (the old dict-insertion order varied with morsel interleaving)."""
    data = [((i * 7919) % 23, i) for i in range(2000)]

    def load(db):
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        db.insert("t", data)

    sql = "select k, count(*), sum(v) from t group by k"
    groups: dict = {}
    for key, value in data:
        count, total = groups.get(key, (0, 0))
        groups[key] = (count + 1, total + value)
    reference = [(key, *groups[key]) for key in sorted(groups)]
    layouts = ((4, 1), (1, 1), (16, 1))
    with breaker_layouts(load, layouts, morsel_size=64) as runs:
        for mode in ALL_MODES:
            for db, options in runs(mode):
                for _ in range(2):   # run after run: no result cache
                    rows = db.execute(
                        sql,
                        options=options.merged(use_result_cache=False)).rows
                    assert rows == reference, \
                        (mode, db.breaker_partitions, options)


def test_null_keys_cannot_reach_breakers():
    """The engine rejects NULLs at the storage and binding boundaries, so
    no breaker path (partitioned or not) ever sees a None key; the
    rejection itself must be uniform."""
    db = Database(workers=2)
    try:
        db.create_table("t", [("k", SQLType.INT64), ("v", SQLType.INT64)])
        with pytest.raises(ReproError):
            db.insert("t", [(None, 1)])
        db.insert("t", [(1, 2), (1, 3)])
        with pytest.raises(ReproError):
            db.execute("select k, count(*) from t where k = ? group by k",
                       params=[None])
        result = db.execute("select k, sum(v) from t group by k")
        assert result.rows == [(1, 5)]
    finally:
        db.close()


def test_nan_keys_take_row_fallback_in_batch_kernels():
    """NaN join/group keys route the vectorized batch kernels to the
    row-at-a-time fallback (np.unique would collapse NaNs into one code,
    but NaN keys never compare equal row-at-a-time); the expected rows
    below are what those row-at-a-time semantics give."""
    from repro.baselines import VectorizedEngine

    nan = float("nan")
    db = Database()
    try:
        db.create_table("t", [("k", SQLType.FLOAT64), ("v", SQLType.INT64)])
        db.create_table("s", [("k", SQLType.FLOAT64), ("w", SQLType.INT64)])
        db.insert("t", [(nan, 1), (nan, 2), (1.0, 3)], encode=False)
        db.insert("s", [(nan, 10), (2.0, 20), (1.0, 30)], encode=False)
        _, planning, _ = db.prepare("select t.v, s.w from t, s "
                                    "where t.k = s.k")
        engine = VectorizedEngine(db.catalog)
        # NaN never equals NaN: only the 1.0 keys join.
        assert engine.execute(planning.physical) == [(3, 30)]

        db.create_table("g", [("a", SQLType.INT64),
                              ("k", SQLType.FLOAT64)])
        db.insert("g", [(1, nan), (1, nan), (1, 1.0)], encode=False)
        _, planning, _ = db.prepare("select a, k, count(*) from g "
                                    "group by a, k")
        # Each NaN is its own group (NaN != NaN), plus the 1.0 group.
        grouped = engine.execute(planning.physical)
        assert sorted(count for _, _, count in grouped) == [1, 1, 1]

        # NaN aggregate *arguments* also bypass the reduceat kernel: the
        # row loop keeps Python min/max semantics (first non-NaN winner).
        db.create_table("m", [("k", SQLType.INT64),
                              ("v", SQLType.FLOAT64)])
        db.insert("m", [(1, 1.0), (1, nan), (2, 3.0)], encode=False)
        _, planning, _ = db.prepare("select k, min(v), max(v) from m "
                                    "group by k")
        assert engine.execute(planning.physical) == [(1, 1.0, 1.0),
                                                     (2, 3.0, 3.0)]
    finally:
        db.close()
