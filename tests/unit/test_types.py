"""Unit tests for repro.types."""

import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CatalogError
from repro.types import (
    DECIMAL_SCALE,
    SQLType,
    common_numeric_type,
    date_to_days,
    days_to_date,
    decimal_to_scaled,
    decode_internal_rows,
    decode_internal_value,
    encode_python_value,
    scaled_to_decimal,
)


class TestSQLType:
    def test_numeric_classification(self):
        assert SQLType.INT64.is_numeric
        assert SQLType.FLOAT64.is_numeric
        assert SQLType.DECIMAL.is_numeric
        assert not SQLType.STRING.is_numeric
        assert not SQLType.DATE.is_numeric

    def test_integer_backed(self):
        assert SQLType.INT64.is_integer_backed
        assert SQLType.DATE.is_integer_backed
        assert not SQLType.FLOAT64.is_integer_backed

    @pytest.mark.parametrize("left,right,expected", [
        (SQLType.INT64, SQLType.INT64, SQLType.INT64),
        (SQLType.INT64, SQLType.FLOAT64, SQLType.FLOAT64),
        (SQLType.DECIMAL, SQLType.INT64, SQLType.DECIMAL),
        (SQLType.FLOAT64, SQLType.DECIMAL, SQLType.FLOAT64),
    ])
    def test_common_numeric_type(self, left, right, expected):
        assert common_numeric_type(left, right) is expected

    def test_common_numeric_type_rejects_strings(self):
        with pytest.raises(CatalogError):
            common_numeric_type(SQLType.STRING, SQLType.INT64)


class TestDates:
    def test_roundtrip(self):
        date = dt.date(1995, 3, 15)
        assert days_to_date(date_to_days(date)) == date

    def test_epoch(self):
        assert date_to_days(dt.date(1970, 1, 1)) == 0

    def test_from_string(self):
        assert date_to_days("1970-01-02") == 1

    #: Day numbers of ``date.min`` / ``date.max``.
    LOW = (dt.date.min - dt.date(1970, 1, 1)).days
    HIGH = (dt.date.max - dt.date(1970, 1, 1)).days

    @given(days=st.integers(LOW, HIGH))
    def test_one_formula_equals_the_timedelta_form(self, days):
        """``days_to_date`` (ordinal arithmetic) is the only day-number ->
        date conversion; on every representable day it equals the
        ``DATE_EPOCH + timedelta`` form it replaced, and so does the DATE
        column decoder that now calls it."""
        reference = dt.date(1970, 1, 1) + dt.timedelta(days=days)
        assert days_to_date(days) == reference
        assert decode_internal_rows([(days,)], [SQLType.DATE]) \
            == [(reference,)]
        assert date_to_days(reference) == days

    def test_one_formula_at_the_edges_and_around_every_leap_day(self):
        epoch = dt.date(1970, 1, 1)
        assert days_to_date(self.LOW) == dt.date.min
        assert days_to_date(self.HIGH) == dt.date.max
        for year in range(dt.date.min.year, dt.date.max.year + 1):
            first = (dt.date(year, 1, 1) - epoch).days
            for days in (first - 1, first, first + 58, first + 59,
                         first + 60):
                if days >= self.LOW:
                    assert days_to_date(days) \
                        == epoch + dt.timedelta(days=days), days

    @pytest.mark.parametrize("days", [
        -719163, 2932897,              # one day outside date.min/date.max
        10 ** 9, -10 ** 9,             # beyond timedelta's own range
        10 ** 30, -10 ** 30,           # beyond a C long
    ])
    def test_out_of_range_days_raise_overflow_error(self, days):
        with pytest.raises(OverflowError):
            days_to_date(days)
        with pytest.raises(OverflowError):
            dt.date(1970, 1, 1) + dt.timedelta(days=days)   # as before
        with pytest.raises(OverflowError):
            decode_internal_rows([(days,)], [SQLType.DATE])

    def test_ordering_preserved(self):
        assert date_to_days("1995-01-01") < date_to_days("1996-01-01")


class TestDecimals:
    def test_roundtrip(self):
        assert scaled_to_decimal(decimal_to_scaled(12.34)) == pytest.approx(12.34)

    def test_scale(self):
        assert decimal_to_scaled(1.0) == DECIMAL_SCALE

    def test_rounding(self):
        assert decimal_to_scaled(0.005) in (0, 1)  # banker's rounding allowed


class TestEncoding:
    def test_encode_int(self):
        assert encode_python_value(7, SQLType.INT64) == 7

    def test_encode_date(self):
        assert encode_python_value("1970-01-03", SQLType.DATE) == 2
        assert encode_python_value(dt.date(1970, 1, 3), SQLType.DATE) == 2

    def test_encode_decimal(self):
        assert encode_python_value(1.5, SQLType.DECIMAL) == 150

    def test_encode_bool(self):
        assert encode_python_value(True, SQLType.BOOL) == 1
        assert encode_python_value(False, SQLType.BOOL) == 0

    def test_encode_null_rejected(self):
        with pytest.raises(CatalogError):
            encode_python_value(None, SQLType.INT64)

    def test_decode_date(self):
        assert decode_internal_value(2, SQLType.DATE) == dt.date(1970, 1, 3)

    def test_decode_decimal(self):
        assert decode_internal_value(150, SQLType.DECIMAL) == pytest.approx(1.5)

    def test_decode_bool(self):
        assert decode_internal_value(1, SQLType.BOOL) is True

    def test_decode_rows_matches_the_per_value_decoder(self):
        # decode_internal_value is the reference; the column-wise decoder
        # must agree with it on every type, NULLs included.
        types = list(SQLType)
        samples = {SQLType.INT64: [7, -1, None], SQLType.FLOAT64: [0.5, None],
                   SQLType.DECIMAL: [150, -25, 0, None],
                   SQLType.STRING: ["x", "", None],
                   SQLType.DATE: [0, 19782, -365, None],
                   SQLType.BOOL: [0, 1, None]}
        rows = [tuple(samples[t][i % len(samples[t])] for t in types)
                for i in range(12)]
        expected = [tuple(decode_internal_value(value, sql_type)
                          for value, sql_type in zip(row, types))
                    for row in rows]
        decoded = decode_internal_rows(rows, types)
        assert decoded == expected
        assert all(type(a) is type(b) for got, want in zip(decoded, expected)
                   for a, b in zip(got, want))

    def test_decode_rows_passes_unconverted_columns_through(self):
        rows = [(1, "a"), (2, "b")]
        assert decode_internal_rows(rows, [SQLType.INT64,
                                           SQLType.STRING]) == rows
        assert decode_internal_rows([], [SQLType.DATE]) == []
