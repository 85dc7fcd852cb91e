"""Unit tests of the wire-protocol frame codec (no sockets involved).

Every message type must survive an encode/decode round trip bit-exactly,
and the decoder must reject every malformation class with a
:class:`~repro.errors.ProtocolError` rather than crashing or silently
accepting: truncated payloads, trailing bytes, unknown frame types, value
tags and column kinds, oversized frames, row/column counts the payload does
not back, and invalid embedded data (bad UTF-8, bad dates).
"""

from __future__ import annotations

import datetime
import struct

import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import (FRAME_HEADER, FRAME_HEADER_BYTES,
                                   MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   PayloadReader, PayloadWriter,
                                   decode_header, decode_payload,
                                   decode_result_rows, encode_frame)


def roundtrip(message):
    """Encode one message to a frame and decode it back."""
    frame = encode_frame(message)
    length, frame_type = decode_header(frame[:FRAME_HEADER_BYTES])
    payload = frame[FRAME_HEADER_BYTES:]
    assert length == len(payload)
    assert frame_type == message.frame_type
    return decode_payload(frame_type, payload)


# ---------------------------------------------------------------------- #
# round trips
# ---------------------------------------------------------------------- #
ALL_MESSAGES = [
    protocol.Hello(token="secret", session_name="alice",
                   protocol_version=PROTOCOL_VERSION),
    protocol.Hello(),  # all defaults / empty strings
    protocol.Welcome(session_name="alice", server_version="1.5.0"),
    protocol.Prepare(request_id=7, sql="select * from t where a = ?"),
    protocol.Prepared(request_id=7, statement_id=3,
                      parameters=[("", "int64"), ("name", "string")],
                      column_names=["a", "b"],
                      column_types=["int64", "float64"]),
    protocol.Execute(request_id=9, statement_id=3,
                     params=[1, 2.5, "x", True,
                             datetime.date(2024, 2, 29)],
                     options={"mode": "adaptive", "threads": 2},
                     batch_rows=128),
    protocol.Execute(request_id=10, sql="select 1 as one",
                     params={"a": 4, "label": "hi"}),
    protocol.Execute(request_id=11, sql="select 1 as one"),  # params=None
    protocol.RowHeader(request_id=9, column_names=["a", "d"],
                       column_types=["int64", "date"]),
    protocol.RowBatch(request_id=9,
                      rows=[(1, 2.0, "three", False), (-(2 ** 62), 0.0,
                                                       "", True)]),
    # One column per fallback reason: NULLs, mixed types, non-ASCII text.
    protocol.RowBatch(request_id=9,
                      rows=[(1, None, "x", "gr\u00fc\u00df"),
                            (2, 7, 2.5, "\u65e5\u672c")]),
    protocol.RowBatch(request_id=9, rows=[]),
    protocol.Done(request_id=9, row_count=1234, mode="adaptive",
                  cached=True, total_seconds=0.25, queue_seconds=0.001),
    protocol.Error(request_id=9, code="BUSY", message="queue full",
                   retry_after_ms=120),
    protocol.Cancel(request_id=12, target_request_id=9),
    protocol.CancelResult(request_id=12, cancelled=True),
    protocol.CloseStatement(request_id=13, statement_id=3),
    protocol.Ok(request_id=13),
    protocol.Goodbye(),
]


@pytest.mark.parametrize("message", ALL_MESSAGES,
                         ids=lambda m: type(m).__name__)
def test_roundtrip_preserves_every_field(message):
    assert roundtrip(message) == message


def test_positional_params_roundtrip_as_list():
    # The codec normalises any positional sequence to a list.
    decoded = roundtrip(protocol.Execute(request_id=1, sql="s",
                                         params=(1, 2)))
    assert decoded.params == [1, 2]


def test_numpy_like_int_scalars_travel_as_int():
    np = pytest.importorskip("numpy")
    # A pure-numpy column and one mixed with Python ints both take the
    # tagged fallback and come back as plain ints.
    decoded = roundtrip(protocol.RowBatch(
        request_id=1, rows=[(np.int64(41), np.int32(-3)), (np.int64(1), 5)]))
    assert decoded.rows == [(41, -3), (1, 5)]
    assert all(type(v) is int for row in decoded.rows for v in row)


def test_unrepresentable_value_is_rejected_at_encode_time():
    with pytest.raises(ProtocolError, match="not.*representable"):
        encode_frame(protocol.RowBatch(request_id=1, rows=[(object(),)]))


@pytest.mark.parametrize("rows", [
    [(2 ** 63,)],                   # packed INT column
    [(-(2 ** 63) - 1,), (None,)],   # tagged fallback column
    [("\ud800",)],                  # lone surrogate: not UTF-8 encodable
], ids=["int-column", "tagged-int", "surrogate"])
def test_out_of_range_row_values_are_protocol_errors(rows):
    with pytest.raises(ProtocolError, match="not representable"):
        encode_frame(protocol.RowBatch(request_id=1, rows=rows))


def test_out_of_range_parameter_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="not representable"):
        encode_frame(protocol.Execute(request_id=1, sql="s",
                                      params=[2 ** 64]))


def test_ragged_and_zero_width_row_batches_are_rejected():
    with pytest.raises(ProtocolError, match="differ in width"):
        encode_frame(protocol.RowBatch(request_id=1, rows=[(1, 2), (3,)]))
    with pytest.raises(ProtocolError, match="no columns"):
        encode_frame(protocol.RowBatch(request_id=1, rows=[(), ()]))


def test_null_parameter_reaches_the_decoder():
    # The wire carries NULL; rejecting a NULL *parameter* is the engine's
    # job (ParameterError), not the codec's.
    decoded = roundtrip(protocol.Execute(request_id=1, sql="s",
                                         params=[None]))
    assert decoded.params == [None]


def test_decode_result_rows_applies_column_types():
    # Type names -> SQLType, then types.decode_internal_rows (tested there).
    rows = [(19782, 1, 42, 150, None), (0, 0, 7, -25, 3)]
    decoded = decode_result_rows(
        rows, ["date", "bool", "int64", "decimal", "date"])
    assert decoded == [
        (datetime.date(2024, 2, 29), True, 42, 1.5, None),
        (datetime.date(1970, 1, 1), False, 7, -0.25,
         datetime.date(1970, 1, 4))]
    assert decoded[0][1] is True and decoded[1][1] is False


# ---------------------------------------------------------------------- #
# malformed input
# ---------------------------------------------------------------------- #
def test_short_header_is_rejected():
    with pytest.raises(ProtocolError, match="short frame header"):
        decode_header(b"\x00\x00")


def test_oversized_declared_length_is_rejected_before_payload():
    header = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, protocol.HELLO)
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_header(header)


def test_oversized_outgoing_frame_is_rejected():
    huge = protocol.RowBatch(request_id=1,
                             rows=[("x" * (MAX_FRAME_BYTES + 16),)])
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(huge)


def test_unknown_frame_type_is_rejected():
    with pytest.raises(ProtocolError, match="unknown frame type"):
        decode_payload(0x7F, b"")


def test_truncated_payload_is_rejected():
    frame = encode_frame(protocol.Prepare(request_id=1, sql="select 1"))
    payload = frame[FRAME_HEADER_BYTES:]
    for cut in (0, 4, len(payload) - 1):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_payload(protocol.PREPARE, payload[:cut])


def test_trailing_bytes_are_rejected():
    frame = encode_frame(protocol.Ok(request_id=1))
    payload = frame[FRAME_HEADER_BYTES:]
    with pytest.raises(ProtocolError, match="trailing byte"):
        decode_payload(protocol.OK, payload + b"\x00")


def row_batch_payload(row_count: int, column_count: int,
                      *columns: bytes) -> bytes:
    """A hand-built ROW_BATCH payload: the counts, then raw column bytes."""
    return struct.pack("!QII", 1, row_count, column_count) + b"".join(columns)


def test_unknown_value_tag_is_rejected():
    payload = row_batch_payload(1, 1, bytes([3, 99]))  # TAGGED, bogus tag
    with pytest.raises(ProtocolError, match="unknown value tag"):
        decode_payload(protocol.ROW_BATCH, payload)


def test_unknown_column_kind_is_rejected():
    payload = row_batch_payload(1, 1, bytes([9]) + bytes(8))
    with pytest.raises(ProtocolError, match="unknown column kind"):
        decode_payload(protocol.ROW_BATCH, payload)


def test_row_batch_payload_layout_is_column_major():
    frame = encode_frame(protocol.RowBatch(
        request_id=1, rows=[(1, 0.5, "ab"), (2, 1.5, "c")]))
    assert frame[FRAME_HEADER_BYTES:] == row_batch_payload(
        2, 3,
        struct.pack("!B2q", 0, 1, 2),
        struct.pack("!B2d", 1, 0.5, 1.5),
        struct.pack("!B2I", 2, 2, 1) + b"abc")


@pytest.mark.parametrize("row_count, column_count", [
    (2 ** 32 - 1, 1), (1, 2 ** 32 - 1), (2 ** 32 - 1, 2 ** 32 - 1),
    (2 ** 32 - 1, 0), (5, 2)])
def test_row_batch_counts_beyond_the_payload_are_rejected(
        row_count, column_count, monkeypatch):
    # The counts are refused from the bytes that remain, before a format
    # string is built or a column is read.
    monkeypatch.setattr(PayloadReader, "column", None)
    payload = row_batch_payload(row_count, column_count,
                                struct.pack("!Bq", 0, 7))
    with pytest.raises(ProtocolError, match="row batch declares"):
        decode_payload(protocol.ROW_BATCH, payload)


def test_truncated_and_overlong_row_batches_are_rejected():
    frame = encode_frame(protocol.RowBatch(
        request_id=1, rows=[(1, 2.5, "abc", None), (2, 3.5, "d", 4)]))
    payload = frame[FRAME_HEADER_BYTES:]
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            decode_payload(protocol.ROW_BATCH, payload[:cut])
    with pytest.raises(ProtocolError, match="trailing byte"):
        decode_payload(protocol.ROW_BATCH, payload + b"\x00")


def test_row_count_beyond_a_column_body_is_rejected():
    # Passes the whole-payload check (2 x (3 + 1) <= 9 bytes), fails at the
    # first column: three i64 wanted, one present.
    payload = row_batch_payload(3, 2, struct.pack("!Bq", 0, 7))
    with pytest.raises(ProtocolError, match="truncated"):
        decode_payload(protocol.ROW_BATCH, payload)


def test_string_column_lengths_beyond_the_payload_are_rejected():
    # Two strings claiming 4 GiB each over a 3-byte blob.
    column = struct.pack("!B2I", 2, 2 ** 32 - 1, 2 ** 32 - 1) + b"abc"
    with pytest.raises(ProtocolError, match="truncated"):
        decode_payload(protocol.ROW_BATCH, row_batch_payload(2, 1, column))


def test_invalid_utf8_in_string_column_is_rejected():
    # Valid UTF-8 overall, but the length vector splits a 2-byte character.
    column = struct.pack("!B2I", 2, 1, 1) + "\u00fc".encode("utf-8")
    with pytest.raises(ProtocolError, match="invalid UTF-8"):
        decode_payload(protocol.ROW_BATCH, row_batch_payload(2, 1, column))


def test_unknown_params_kind_is_rejected():
    writer = PayloadWriter()
    writer.u64(1)       # request_id
    writer.u64(0)       # statement_id
    writer.string("s")  # sql
    writer.u8(7)        # bogus params kind
    with pytest.raises(ProtocolError, match="unknown params kind"):
        decode_payload(protocol.EXECUTE, writer.getvalue())


def test_invalid_utf8_in_string_is_rejected():
    writer = PayloadWriter()
    writer.u64(1)
    raw = struct.pack("!I", 2) + b"\xff\xfe"  # length-prefixed bad UTF-8
    payload = writer.getvalue() + raw
    with pytest.raises(ProtocolError, match="invalid UTF-8"):
        decode_payload(protocol.PREPARE, payload)


def test_invalid_date_value_is_rejected():
    writer = PayloadWriter()
    writer.u8(3)        # _COL_TAGGED
    writer.u8(4)        # _VAL_DATE
    writer.string("not-a-date")
    with pytest.raises(ProtocolError, match="invalid DATE"):
        decode_payload(protocol.ROW_BATCH,
                       row_batch_payload(1, 1, writer.getvalue()))


def test_reader_expect_end_and_bounds():
    reader = PayloadReader(b"\x01\x02")
    assert reader.u8() == 1
    with pytest.raises(ProtocolError, match="truncated"):
        reader.u32()
    assert reader.u8() == 2
    reader.expect_end()


# ---------------------------------------------------------------------- #
# client-side stream consumption (no socket: the mailbox is fed by hand)
# ---------------------------------------------------------------------- #
class _NoConnection:
    """What a ``PendingResult`` needs of its connection."""

    def _forget(self, pending) -> None:
        self.forgotten = pending


@pytest.mark.parametrize("batched", [False, True])
def test_result_timeout_mid_stream_keeps_the_frames_it_consumed(batched):
    """``result(timeout)`` that expires between ROW_HEADER and DONE must
    leave the next ``result()`` the header and rows it already took out of
    the mailbox: HEADER, BATCH, (timeout), BATCH, DONE."""
    from repro.client import (PendingBatchResult, PendingResult, _Pending)

    pending = _Pending(7)
    handle = (PendingBatchResult if batched else PendingResult)(
        _NoConnection(), pending)
    feed = pending.frames.put
    feed(protocol.RowHeader(request_id=7, column_names=["a", "s"],
                            column_types=["int64", "string"]))
    feed(protocol.RowBatch(request_id=7, rows=[(1, "x"), (2, "y")]))
    with pytest.raises(TimeoutError):
        handle.result(timeout=0.05)
    with pytest.raises(TimeoutError):   # and again, with nothing new
        handle.result(timeout=0)
    feed(protocol.RowBatch(request_id=7, rows=[(3, "z")]))
    if batched:
        feed(protocol.BatchDone(request_id=7, binding_index=0, row_count=3,
                                cached=False, cache_source=""))
        feed(protocol.RowBatch(request_id=7, rows=[(4, "w")]))
        feed(protocol.BatchDone(request_id=7, binding_index=1, row_count=1,
                                cached=True, cache_source="result"))
    feed(protocol.Done(request_id=7, row_count=4 if batched else 3,
                       mode="bytecode", cached=False))
    value = handle.result(timeout=5)
    results = value if batched else [value]
    assert [r.rows for r in results] == (
        [[(1, "x"), (2, "y"), (3, "z")], [(4, "w")]] if batched
        else [[(1, "x"), (2, "y"), (3, "z")]])
    assert all(r.column_names == ["a", "s"] and r.mode == "bytecode"
               for r in results)
    assert handle.result(timeout=0) is value     # resolved: no re-consume


def test_result_timeout_is_one_deadline_not_one_per_frame():
    """A stream that keeps trickling frames cannot stretch ``timeout``."""
    import threading
    import time

    from repro.client import PendingResult, _Pending

    pending = _Pending(1)
    handle = PendingResult(_NoConnection(), pending)
    pending.frames.put(protocol.RowHeader(
        request_id=1, column_names=["a"], column_types=["int64"]))
    stop = threading.Event()
    give_up = time.monotonic() + 3.0   # a per-frame timeout fails, not hangs

    def trickle():
        while not stop.wait(0.02) and time.monotonic() < give_up:
            pending.frames.put(protocol.RowBatch(request_id=1, rows=[(0,)]))

    feeder = threading.Thread(target=trickle)
    feeder.start()
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.2)
        assert time.monotonic() - start < 2.0
    finally:
        stop.set()
        feeder.join(timeout=5)
    assert not feeder.is_alive()
