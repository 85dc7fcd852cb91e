"""SQL value types used across the catalog, planner and code generator.

The engine supports a compact but expressive set of column types that covers
the TPC-H / TPC-DS style workloads used in the paper's evaluation:

* ``INT64``    -- 64-bit signed integers (also used for keys).
* ``FLOAT64``  -- double precision floating point.
* ``DECIMAL``  -- fixed point numbers stored as scaled 64-bit integers
  (two implied fraction digits, like TPC-H prices/discounts).
* ``STRING``   -- variable length strings (dictionary encoded in storage).
* ``DATE``     -- days since 1970-01-01 stored as int64.
* ``BOOL``     -- true/false, produced by predicates.

The type objects carry the logic for converting between Python values and the
engine's internal representation, which keeps the per-tuple runtime simple:
inside generated code every value is either an ``int`` or a ``float``.
"""

from __future__ import annotations

import datetime as _dt
import enum

from .errors import CatalogError

#: Number of implied fraction digits in DECIMAL values.
DECIMAL_SCALE_DIGITS = 2
#: Multiplier between the logical decimal value and the stored integer.
DECIMAL_SCALE = 10 ** DECIMAL_SCALE_DIGITS

#: Epoch used for DATE columns.
DATE_EPOCH = _dt.date(1970, 1, 1)
_DATE_EPOCH_ORDINAL = DATE_EPOCH.toordinal()
_date_from_ordinal = _dt.date.fromordinal

#: Bounds of checked 64-bit arithmetic (paper section IV-F: overflow checking).
INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class SQLType(enum.Enum):
    """Logical SQL column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    DECIMAL = "decimal"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    # ------------------------------------------------------------------ #
    # classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_numeric(self) -> bool:
        """True for types that participate in arithmetic."""
        return self in (SQLType.INT64, SQLType.FLOAT64, SQLType.DECIMAL)

    @property
    def is_integer_backed(self) -> bool:
        """True when values are stored as Python/numpy integers."""
        return self in (SQLType.INT64, SQLType.DECIMAL, SQLType.DATE,
                        SQLType.BOOL, SQLType.STRING)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def date_to_days(value: _dt.date | str) -> int:
    """Convert a date (or ISO string) to days since the 1970 epoch."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - DATE_EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Convert days since the 1970 epoch back to a :class:`datetime.date`.

    The one day-number -> date conversion (result decoding, ``extract`` and
    date-literal arithmetic all come through here).  Days outside
    ``date.min .. date.max`` raise :class:`OverflowError`.
    """
    try:
        return _date_from_ordinal(_DATE_EPOCH_ORDINAL + int(days))
    except ValueError as exc:
        raise OverflowError("date value out of range") from exc


def decimal_to_scaled(value: float | int) -> int:
    """Convert a logical decimal value into its scaled integer storage form."""
    return int(round(float(value) * DECIMAL_SCALE))


def scaled_to_decimal(value: int) -> float:
    """Convert a scaled integer back into the logical decimal value."""
    return value / DECIMAL_SCALE


def encode_python_value(value, sql_type: SQLType):
    """Encode a Python-level value into the engine's internal representation.

    Strings are *not* dictionary-encoded here (that is the storage layer's
    job); this function only normalises numerics and dates.
    """
    if value is None:
        raise CatalogError("NULL values are not supported by this engine")
    if sql_type is SQLType.INT64:
        return int(value)
    if sql_type is SQLType.FLOAT64:
        return float(value)
    if sql_type is SQLType.DECIMAL:
        return decimal_to_scaled(value) if not isinstance(value, int) else value
    if sql_type is SQLType.DATE:
        if isinstance(value, (_dt.date, str)):
            return date_to_days(value)
        return int(value)
    if sql_type is SQLType.BOOL:
        return 1 if value else 0
    if sql_type is SQLType.STRING:
        return str(value)
    raise CatalogError(f"unsupported SQL type: {sql_type}")


def decode_internal_value(value, sql_type: SQLType):
    """Decode an internal value back into the user-facing Python value."""
    if value is None:  # NULL-padded payload of an unmatched LEFT JOIN row
        return None
    if sql_type is SQLType.DECIMAL:
        return scaled_to_decimal(int(value))
    if sql_type is SQLType.DATE:
        return days_to_date(int(value))
    if sql_type is SQLType.BOOL:
        return bool(value)
    if sql_type is SQLType.INT64:
        return int(value)
    if sql_type is SQLType.FLOAT64:
        return float(value)
    return value


#: Column-at-a-time forms of :func:`decode_internal_value` for the types
#: whose internal form differs from the user-facing one; NULL stays ``None``.
_COLUMN_DECODERS = {
    SQLType.DECIMAL: lambda values: [
        None if value is None else value / DECIMAL_SCALE
        for value in values],
    SQLType.DATE: lambda values: [
        None if value is None else days_to_date(value)
        for value in values],
    SQLType.BOOL: lambda values: [
        None if value is None else bool(value) for value in values],
}


def decode_internal_rows(rows, column_types) -> list[tuple]:
    """Decode result rows into user-facing Python values, column-wise.

    Only DATE/DECIMAL/BOOL columns are converted; every other column is
    passed through untouched, so a result without such columns costs one
    list copy.  ``column_types`` holds one :class:`SQLType` per column.
    """
    decoders = [_COLUMN_DECODERS.get(sql_type) for sql_type in column_types]
    if not any(decoders):
        return list(rows)
    return list(zip(*[
        values if decode is None else decode(values)
        for decode, values in zip(decoders, zip(*rows))]))


def common_numeric_type(left: SQLType, right: SQLType) -> SQLType:
    """Return the result type of arithmetic between two numeric types."""
    if not (left.is_numeric and right.is_numeric):
        raise CatalogError(
            f"arithmetic requires numeric operands, got {left} and {right}")
    if SQLType.FLOAT64 in (left, right):
        return SQLType.FLOAT64
    if SQLType.DECIMAL in (left, right):
        return SQLType.DECIMAL
    return SQLType.INT64
