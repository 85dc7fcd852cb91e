"""sqlite3 as the oracle outside the codebase (ROADMAP item 4).

The engine's seven modes share one parser, binder and planner, so agreeing
with each other proves little.  :class:`Oracle` loads the rows of a
:class:`repro.Database` into an in-memory ``sqlite3`` database, rewrites the
engine's SQL dialect into sqlite's, and compares result sets.  Oracle time
is never inside a timed region: the harness asks it for expected rows during
set-up and compares after the clock has stopped.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3

from repro import SQLType
from repro.workloads import TPCH_QUERIES

#: TPC-H query numbers the dialect rewriter cannot port, with the reason.
#: Empty today; ``test_harness.py`` pins it so the list cannot grow silently.
EXCLUDED_TPCH: dict[int, str] = {}

#: Relative tolerance on FLOAT/DECIMAL values (summation order differs).
FLOAT_RTOL = 1e-6

_SQLITE_TYPES = {
    SQLType.INT64: "INTEGER", SQLType.BOOL: "INTEGER",
    SQLType.FLOAT64: "REAL", SQLType.DECIMAL: "REAL",
    SQLType.STRING: "TEXT", SQLType.DATE: "TEXT",
}

_DATE_LITERAL = re.compile(r"\bdate\s+('(?:\d{4}-\d{2}-\d{2})')", re.IGNORECASE)
_YEAR_CALL = re.compile(r"\byear\s*\(\s*([A-Za-z_][\w.]*)\s*\)", re.IGNORECASE)
_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)


def to_sqlite_sql(sql: str) -> str:
    """Rewrite the engine's dialect: ``date '…'`` literals and ``year(x)``."""
    sql = _DATE_LITERAL.sub(r"\1", sql)
    return _YEAR_CALL.sub(r"cast(strftime('%Y', \1) as integer)", sql)


def tpch_oracle_queries() -> dict[int, str]:
    """The TPC-H queries the oracle checks, rewritten for sqlite."""
    return {number: to_sqlite_sql(sql)
            for number, sql in sorted(TPCH_QUERIES.items())
            if number not in EXCLUDED_TPCH}


def is_ordered(sql: str) -> bool:
    return _ORDER_BY.search(sql) is not None


def to_oracle_value(value):
    """A decoded engine value in the form sqlite stores and returns it."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _decode_column(values: list, sql_type: SQLType) -> list:
    if sql_type is SQLType.DECIMAL:
        return [value / 100 for value in values]
    if sql_type is SQLType.DATE:
        epoch = datetime.date(1970, 1, 1).toordinal()
        return [datetime.date.fromordinal(epoch + value).isoformat()
                for value in values]
    return values


class Oracle:
    """An in-memory sqlite copy of a database's tables."""

    def __init__(self, database, tables=None):
        self._conn = sqlite3.connect(":memory:", check_same_thread=False)
        names = tables if tables is not None \
            else database.catalog.table_names()
        for name in names:
            table = database.catalog.table(name)
            columns = list(table.schema)
            self._conn.execute("create table %s (%s)" % (name, ", ".join(
                f"{column.name} {_SQLITE_TYPES[column.sql_type]}"
                for column in columns)))
            data = [_decode_column(table.column_data(column.name).to_list(),
                                   column.sql_type) for column in columns]
            self._insert(name, len(columns), zip(*data))

    def _insert(self, table: str, width: int, rows) -> None:
        marks = ", ".join("?" * width)
        self._conn.executemany(f"insert into {table} values ({marks})", rows)
        self._conn.commit()

    def insert(self, table: str, rows) -> None:
        """Replay an engine insert (user-level values, as ``Database.insert``
        takes them with ``encode=True``)."""
        rows = [tuple(to_oracle_value(value) for value in row)
                for row in rows]
        if rows:
            self._insert(table, len(rows[0]), rows)

    def query(self, sql: str, params=None) -> list[tuple]:
        if params is None:
            params = ()
        elif not isinstance(params, dict):
            params = tuple(to_oracle_value(value) for value in params)
        return self._conn.execute(to_sqlite_sql(sql), params).fetchall()

    def close(self) -> None:
        self._conn.close()


def _sort_key(row: tuple) -> tuple:
    # Floats are rounded so that a last-digit difference between the two
    # engines cannot reorder otherwise identical rows.
    return tuple((0, float(f"{value:.6g}")) if isinstance(value, float)
                 else (1, value) if isinstance(value, str)
                 else (0, value) for value in row)


def _values_match(got, expected) -> bool:
    if expected is None:
        # The engine has no NULL: an aggregate over no rows is 0 where
        # SQL says NULL (ROADMAP item 4 owns that divergence).
        return got is None or got == 0
    if got is None:
        return False
    if isinstance(got, float) or isinstance(expected, float):
        return math.isclose(got, expected, rel_tol=FLOAT_RTOL, abs_tol=1e-9)
    return got == expected


def rows_match(got: list, expected: list, ordered: bool) -> bool:
    """Compare decoded engine rows with oracle rows.

    ``ordered=False`` (no ORDER BY) compares in a canonical order.  Values
    compare exactly except floats, which use :data:`FLOAT_RTOL`.
    """
    if len(got) != len(expected):
        return False
    got = [tuple(to_oracle_value(value) for value in row) for row in got]
    if _rows_equal(got, expected):
        return True
    # Without ORDER BY either side may return the rows in any order.
    return not ordered and _rows_equal(sorted(got, key=_sort_key),
                                       sorted(expected, key=_sort_key))


def _rows_equal(got: list, expected: list) -> bool:
    return all(a == b or (len(a) == len(b)
                          and all(map(_values_match, a, b)))
               for a, b in zip(got, expected))
