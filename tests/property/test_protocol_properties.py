"""Property tests of the columnar ROW_BATCH codec.

Whatever mix of values the engines put into a result column -- packed
``int`` / ``float`` / ``str`` columns or the tagged fallback for NULLs,
bools, numpy scalars and mixed types -- a batch decodes to rows equal to
the input in value *and* type, and no prefix or extension of a valid
payload decodes at all.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import (FRAME_HEADER_BYTES, decode_payload,
                                   encode_frame)

_SETTINGS = settings(max_examples=200, deadline=None)

_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1

_ints = st.one_of(st.integers(_I64_MIN, _I64_MAX),
                  st.sampled_from([_I64_MIN, _I64_MAX, 0, -1]))
_floats = st.floats(allow_nan=True, allow_infinity=True)
_texts = st.text(max_size=12)  # empty, ASCII and non-ASCII alike
_numpy_ints = st.one_of(
    st.integers(_I64_MIN, _I64_MAX).map(np.int64),
    st.integers(-(2 ** 31), 2 ** 31 - 1).map(np.int32))
_anything = st.one_of(_ints, _floats, _texts, st.booleans(), st.none(),
                      _numpy_ints)

#: One strategy per column: the three packed kinds, then what falls back.
_column_values = st.sampled_from([
    _ints, _floats, _texts, st.booleans(), _numpy_ints,
    st.one_of(st.none(), _ints), st.one_of(st.none(), _texts), _anything])


@st.composite
def _row_batches(draw):
    row_count = draw(st.integers(0, 12))
    values = draw(st.lists(_column_values, min_size=0 if row_count == 0 else 1,
                           max_size=6))
    columns = [draw(st.lists(strategy, min_size=row_count,
                             max_size=row_count)) for strategy in values]
    return list(zip(*columns)) if columns else []


def _wire_form(value):
    """What ``value`` must decode to: numpy integers arrive as ``int``."""
    return int(value) if isinstance(value, np.integer) else value


def _same(got, expected) -> bool:
    if type(got) is not type(expected):
        return False
    if isinstance(expected, float) and math.isnan(expected):
        return math.isnan(got)
    return got == expected


def _payload(rows) -> bytes:
    return encode_frame(protocol.RowBatch(request_id=3, rows=rows))[
        FRAME_HEADER_BYTES:]


@_SETTINGS
@given(_row_batches())
def test_row_batch_round_trip_preserves_values_and_types(rows):
    decoded = decode_payload(protocol.ROW_BATCH, _payload(rows))
    assert decoded.request_id == 3
    assert len(decoded.rows) == len(rows)
    for got_row, row in zip(decoded.rows, rows):
        assert type(got_row) is tuple and len(got_row) == len(row)
        for got, value in zip(got_row, row):
            assert _same(got, _wire_form(value)), (got, value)


@_SETTINGS
@given(_row_batches(), st.data())
def test_no_prefix_or_extension_of_a_row_batch_decodes(rows, data):
    payload = _payload(rows)
    cut = data.draw(st.integers(0, len(payload) - 1))
    with pytest.raises(ProtocolError):
        decode_payload(protocol.ROW_BATCH, payload[:cut])
    with pytest.raises(ProtocolError, match="trailing byte"):
        decode_payload(protocol.ROW_BATCH, payload + b"\x00")


@_SETTINGS
@given(_row_batches(), st.data())
def test_corrupted_row_batch_decodes_or_raises_protocol_error(rows, data):
    # Any one byte overwritten -- a count, a kind, a tag, a string length,
    # a UTF-8 byte: the only failure mode is ProtocolError.
    payload = bytearray(_payload(rows))
    position = data.draw(st.integers(0, len(payload) - 1))
    payload[position] = data.draw(st.integers(0, 255))
    try:
        decode_payload(protocol.ROW_BATCH, bytes(payload))
    except ProtocolError:
        pass
