"""Parameter equivalence: ``execute(sql, params)`` == the literal-inlined
query, in every engine mode and both baseline modes.

This is the tentpole invariant of the parameterized statement API: one
compiled artifact evaluated with runtime parameter-slot loads must produce
exactly the rows the literal form produces, regardless of the execution
tier (ir-interp / bytecode / unoptimized / optimized / adaptive) or the
interpretation baseline (volcano / vectorized).
"""

from __future__ import annotations

import datetime as dt
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (BASELINE_MODES, ENGINE_MODES, Database, ExecOptions,
                   SQLType)

ALL_MODES = list(ENGINE_MODES) + list(BASELINE_MODES)


def normalized(rows, digits=6):
    out = []
    for row in rows:
        out.append(tuple(round(v, digits) if isinstance(v, float) else v
                         for v in row))
    return sorted(out)


@pytest.fixture(scope="module")
def param_db():
    db = Database(morsel_size=256)
    db.create_table("orders", [("o_id", SQLType.INT64),
                               ("o_customer", SQLType.INT64),
                               ("o_total", SQLType.DECIMAL),
                               ("o_discount", SQLType.FLOAT64),
                               ("o_date", SQLType.DATE),
                               ("o_status", SQLType.STRING)])
    db.create_table("customers", [("c_id", SQLType.INT64),
                                  ("c_segment", SQLType.STRING)])
    rng = random.Random(4242)
    db.insert("customers", [(i, ["gold", "silver", "bronze"][i % 3])
                            for i in range(20)])
    db.insert("orders", [
        (i, rng.randrange(20), round(rng.uniform(5, 400), 2),
         round(rng.uniform(0.0, 0.3), 3),
         dt.date(1997, 1, 1) + dt.timedelta(days=rng.randrange(500)),
         rng.choice(["open", "shipped", "returned"]))
        for i in range(1500)])
    yield db
    db.close()


#: (parameterized sql, literal template, parameter values)
TEMPLATES = [
    ("select count(*) as c from orders where o_customer = ?",
     "select count(*) as c from orders where o_customer = {0}",
     (7,)),
    ("select sum(o_total) as s from orders where o_total > ? "
     "and o_discount <= ?",
     "select sum(o_total) as s from orders where o_total > {0} "
     "and o_discount <= {1}",
     (150, 0.2)),
    ("select o_status, count(*) as c from orders "
     "where o_date >= ? group by o_status order by o_status",
     "select o_status, count(*) as c from orders "
     "where o_date >= date '{0}' group by o_status order by o_status",
     ("1997-06-01",)),
    ("select c.c_segment, sum(o.o_total) as s from orders o "
     "join customers c on o.o_customer = c.c_id "
     "where o.o_total between ? and ? and c.c_segment = ? "
     "group by c.c_segment",
     "select c.c_segment, sum(o.o_total) as s from orders o "
     "join customers c on o.o_customer = c.c_id "
     "where o.o_total between {0} and {1} and c.c_segment = '{2}' "
     "group by c.c_segment",
     (50, 300, "gold")),
    ("select o_id, o_total * (1.0 - ?) as net from orders "
     "where o_customer in (?, ?) order by o_id limit 20",
     "select o_id, o_total * (1.0 - {0}) as net from orders "
     "where o_customer in ({1}, {2}) order by o_id limit 20",
     (0.1, 3, 11)),
]


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("case", range(len(TEMPLATES)))
def test_parameterized_equals_literal(param_db, mode, case):
    param_sql, literal_template, values = TEMPLATES[case]
    literal_sql = literal_template.format(*values)
    literal = param_db.execute(literal_sql,
                               options=ExecOptions(mode=mode, use_cache=False))
    parameterized = param_db.execute(param_sql, options=ExecOptions(mode=mode),
                                     params=values)
    assert normalized(parameterized.rows) == normalized(literal.rows)
    # Re-execute with the same parameters through the cached artifact.
    again = param_db.execute(param_sql, options=ExecOptions(mode=mode),
                             params=values)
    assert normalized(again.rows) == normalized(literal.rows)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_rebinding_sweep_matches_literals(param_db, mode):
    """One cached artifact, many bindings: each must match its literal."""
    param_sql = ("select count(*) as c, sum(o_total) as s from orders "
                 "where o_customer = ? and o_total > ?")
    for customer in range(0, 20, 3):
        literal = param_db.execute(
            f"select count(*) as c, sum(o_total) as s from orders "
            f"where o_customer = {customer} and o_total > 100",
            options=ExecOptions(mode=mode, use_cache=False))
        bound = param_db.execute(param_sql, options=ExecOptions(mode=mode),
                                 params=(customer, 100))
        assert normalized(bound.rows) == normalized(literal.rows)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(threshold=st.integers(min_value=-50, max_value=450),
       discount=st.floats(min_value=0.001, max_value=0.375,
                          allow_nan=False, allow_infinity=False),
       mode=st.sampled_from(ALL_MODES))
def test_property_random_bindings(param_db, threshold, discount, mode):
    # repr() round-trips the float exactly; discounts >= 0.001 keep it free
    # of exponent notation, which the SQL lexer does not accept.
    literal = param_db.execute(
        f"select count(*) as c from orders "
        f"where o_total > {threshold} and o_discount < {discount!r}",
        options=ExecOptions(mode=mode, use_cache=False))
    bound = param_db.execute(
        "select count(*) as c from orders "
        "where o_total > ? and o_discount < ?", options=ExecOptions(mode=mode),
        params=(threshold, discount))
    assert bound.rows == literal.rows


def test_auto_parameterization_matches_cold_literals(param_db):
    """The transparent rewrite must never change results."""
    rng = random.Random(7)
    shape = ("select o_status, count(*) as c from orders "
             "where o_customer = {0} and o_total > {1} "
             "group by o_status order by o_status")
    for _ in range(15):
        sql = shape.format(rng.randrange(20), rng.randrange(400))
        hot = param_db.execute(sql)  # auto-parameterized, cached
        cold = param_db.execute(sql, options=ExecOptions(use_cache=False))
        assert normalized(hot.rows) == normalized(cold.rows)
