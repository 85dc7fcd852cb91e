"""Property tests for zone-map scan pruning.

The load-bearing invariant: pruning may only skip chunks that provably
contain no qualifying row, so a pruned scan must return *exactly* the rows
of an unpruned scan -- for every execution mode, every predicate shape, and
every re-binding of a cached parameterized plan.
"""

from __future__ import annotations

import pytest
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


def build_db(values, chunk_rows=16):
    db = Database(morsel_size=64)
    db.catalog.create_table("t", [("a", SQLType.INT64),
                                  ("f", SQLType.FLOAT64)],
                            chunk_rows=chunk_rows)
    if values:
        db.insert("t", [(v, v * 0.5) for v in values])
    return db


predicate_strategy = st.sampled_from([
    "a = {0}",
    "a < {0}",
    "a <= {0}",
    "a > {0}",
    "a >= {0}",
    "a <> {0}",
    "a between {0} and {1}",
    "a not between {0} and {1}",
    "a in ({0}, {1}, {2})",
    "a not in ({0}, {1})",
    "f > {0}",
    "a >= {0} and a <= {1}",
])


@_SETTINGS
@given(values=st.lists(st.integers(min_value=-500, max_value=500),
                       min_size=0, max_size=400),
       template=predicate_strategy,
       constants=st.tuples(st.integers(min_value=-500, max_value=500),
                           st.integers(min_value=-500, max_value=500),
                           st.integers(min_value=-500, max_value=500)))
def test_pruned_equals_unpruned_in_every_mode(values, template, constants):
    db = build_db(values)
    sql = ("select a, f from t where "
           + template.format(*constants))
    expected = None
    for mode in ALL_MODES:
        pruned = db.execute(sql, options=ExecOptions(mode=mode))
        unpruned = db.execute(
            sql, options=ExecOptions(mode=mode, use_pruning=False))
        assert unpruned.stats["chunks_pruned"] == 0
        left = normalized(pruned.rows)
        right = normalized(unpruned.rows)
        assert left == right, (mode, template, constants)
        if expected is None:
            expected = left
        assert left == expected, (mode, template, constants)


@_SETTINGS
@given(values=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=300),
       bindings=st.lists(
           st.tuples(st.integers(min_value=0, max_value=1000),
                     st.integers(min_value=0, max_value=1000)),
           min_size=1, max_size=5))
def test_cached_plan_prunes_correctly_for_every_binding(values, bindings):
    """One cached parameterized plan, many bindings: each execution must
    re-evaluate the zone maps against *its* parameter values."""
    db = build_db(values)
    prepared = db.prepare_query(
        "select a from t where a between ? and ?")
    for low, high in bindings:
        result = prepared.execute(options=ExecOptions(mode="bytecode"),
                                  params=[low, high])
        oracle = sorted((v,) for v in values if low <= v <= high)
        assert sorted(result.rows) == oracle, (low, high)
        unpruned = prepared.execute(
            options=ExecOptions(mode="bytecode", use_pruning=False),
            params=[low, high])
        assert sorted(unpruned.rows) == oracle


@_SETTINGS
@given(values=st.lists(st.integers(min_value=-100, max_value=100),
                       min_size=0, max_size=200),
       constant=st.integers(min_value=-100, max_value=100))
def test_pruning_matches_python_oracle(values, constant):
    db = build_db(values, chunk_rows=8)
    result = db.execute(f"select a from t where a >= {constant}")
    assert sorted(result.rows) == sorted(
        (v,) for v in values if v >= constant)
