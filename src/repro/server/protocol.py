"""The wire protocol of the network serving front end.

A connection carries a stream of *frames*, each a 5-byte header followed by
the payload::

    +--------------------+-----------------+----------------------+
    | payload length u32 | frame type u8   | payload (length B)   |
    +--------------------+-----------------+----------------------+

All integers are big-endian.  The payload length excludes the header and is
bounded by :data:`MAX_FRAME_BYTES`; a peer announcing a larger frame is
violating the protocol and the connection is closed (nothing is buffered
for it).  Every message class below owns its payload layout through
``pack_payload`` / ``unpack``; :func:`encode_frame` and
:func:`decode_payload` are the only entry points the endpoints use, so the
codec is symmetric by construction and testable without sockets.

The conversation (see DESIGN.md, "Network serving"):

* ``HELLO -> WELCOME | ERROR(AUTH)`` -- the mandatory handshake; maps the
  connection onto one engine :class:`~repro.scheduler.Session`.
* ``PREPARE -> PREPARED | ERROR`` -- parse/bind/plan once through the
  shared plan cache; returns a statement id plus typed parameter and
  result-column metadata.
* ``EXECUTE -> ROW_HEADER ROW_BATCH* DONE | ERROR`` -- run a statement
  (raw SQL or a prepared id) through ``Database.submit``.  Results stream
  in bounded batches; an ``ERROR`` with code ``BUSY`` carries the
  admission-control backpressure signal and a retry-after hint.
* ``EXECUTE_MANY -> ROW_HEADER (ROW_BATCH* BATCH_DONE)xN DONE | ERROR`` --
  run one statement for a whole batch of bindings in a single request.
  Row batches of the N bindings stream in binding order; each binding is
  terminated by a ``BATCH_DONE`` carrying its index, row count and cache
  disposition, and the final ``DONE`` totals the batch.  Fully cached
  batches are answered straight from the engine's result cache without
  consuming a scheduler admission slot.
* ``CANCEL -> CANCEL_RESULT`` -- resolve to ``QueryTicket.cancel`` of the
  target request (its own ``EXECUTE`` then answers with
  ``ERROR(CANCELLED)`` if the cancel won the race).
* ``CLOSE_STATEMENT -> OK``, ``GOODBYE -> GOODBYE (echo)``.

Frames of concurrent requests may interleave on one connection; the
``request_id`` chosen by the client routes every response.  Request id 0 is
reserved for connection-level errors (handshake and framing violations).

Result rows travel column-major, in the engine's *internal*
representation: a ``ROW_BATCH`` payload is ``request_id u64, row_count u32,
column_count u32`` followed by one *column* per result column -- a kind byte
and a packed body::

    kind 0  INT     row_count x i64         (INT64/DATE/DECIMAL/BOOL columns)
    kind 1  FLOAT   row_count x f64
    kind 2  STR     row_count x u32 byte lengths, then the UTF-8 bytes
    kind 3  TAGGED  row_count tagged values

The encoder picks the kind from the Python types in the column: all ``int``,
all ``float`` and all ``str`` columns are packed by one ``struct`` call; any
other column (NULLs, bools, numpy scalars, mixed types) falls back to the
*tagged* encoding -- a one-byte tag per value -- that parameters and option
values also use.  DATE/BOOL/DECIMAL columns are integers exactly as
``QueryResult.rows`` holds them, and the typed column metadata in
``ROW_HEADER`` lets the client decode them to Python objects on demand -- the
wire never re-encodes what the engine already normalised.  A decoder
validates every count against the bytes that remain in the frame before it
sizes anything by it.
"""

from __future__ import annotations

import datetime as _dt
import struct
from itertools import accumulate
from dataclasses import dataclass, field

from ..errors import ProtocolError
from ..types import SQLType, decode_internal_rows

#: Protocol revision; bumped on incompatible frame-layout changes.
PROTOCOL_VERSION = 2

#: Hard bound on one frame's payload (header excluded).  Large result sets
#: are streamed as many ROW_BATCH frames, so no legitimate frame
#: approaches this; a declared length beyond it is a protocol violation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: ``(payload length, frame type)``.
FRAME_HEADER = struct.Struct("!IB")
FRAME_HEADER_BYTES = FRAME_HEADER.size

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

# ---------------------------------------------------------------------- #
# frame types
# ---------------------------------------------------------------------- #
HELLO = 0x01
PREPARE = 0x02
EXECUTE = 0x03
CANCEL = 0x04
CLOSE_STATEMENT = 0x05
GOODBYE = 0x06
EXECUTE_MANY = 0x07

WELCOME = 0x81
PREPARED = 0x82
ROW_HEADER = 0x83
ROW_BATCH = 0x84
DONE = 0x85
ERROR = 0x86
CANCEL_RESULT = 0x87
OK = 0x88
BATCH_DONE = 0x89

#: Tagged-value encodings (parameters, option values, row values).
_VAL_INT = 0
_VAL_FLOAT = 1
_VAL_STR = 2
_VAL_BOOL = 3
_VAL_DATE = 4
_VAL_NULL = 5

#: Column kinds of a ROW_BATCH body (see the module docstring).
_COL_INT = 0
_COL_FLOAT = 1
_COL_STR = 2
_COL_TAGGED = 3

#: ``request_id`` reserved for connection-level (unrouted) errors.
CONNECTION_REQUEST_ID = 0


# ---------------------------------------------------------------------- #
# primitive writer / reader
# ---------------------------------------------------------------------- #
class PayloadWriter:
    """Appends protocol primitives to a growing byte buffer."""

    __slots__ = ("_parts",)

    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(_U8.pack(value))

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self._parts.append(_U64.pack(value))

    def i64(self, value: int) -> None:
        self._parts.append(_I64.pack(value))

    def f64(self, value: float) -> None:
        self._parts.append(_F64.pack(value))

    def string(self, value: str) -> None:
        raw = value.encode("utf-8")
        self._parts.append(_U32.pack(len(raw)))
        self._parts.append(raw)

    def value(self, value) -> None:
        """One tagged value (bool before int: bool is an int subclass)."""
        if isinstance(value, bool):
            self.u8(_VAL_BOOL)
            self.u8(1 if value else 0)
        elif isinstance(value, int):
            self.u8(_VAL_INT)
            self.i64(value)
        elif isinstance(value, float):
            self.u8(_VAL_FLOAT)
            self.f64(value)
        elif isinstance(value, str):
            self.u8(_VAL_STR)
            self.string(value)
        elif value is None:
            # The NULL padding of an unmatched LEFT JOIN row.
            self.u8(_VAL_NULL)
        elif isinstance(value, _dt.date):
            self.u8(_VAL_DATE)
            self.string(value.isoformat())
        elif hasattr(value, "__index__"):
            # numpy integer scalars (vectorized-baseline rows) and other
            # int-alikes travel as plain INT values.
            self.u8(_VAL_INT)
            self.i64(value.__index__())
        else:
            raise ProtocolError(
                f"value {value!r} of type {type(value).__name__} is not "
                f"representable on the wire")

    def column(self, values: tuple) -> None:
        """One ROW_BATCH column: the kind byte, then the packed body."""
        count = len(values)
        kinds = set(map(type, values))
        if kinds == {int}:
            self._parts.append(
                struct.pack("!B%dq" % count, _COL_INT, *values))
        elif kinds == {float}:
            self._parts.append(
                struct.pack("!B%dd" % count, _COL_FLOAT, *values))
        elif kinds == {str}:
            text = "".join(values)
            if text.isascii():
                # Every byte length is the character length.
                blob = text.encode("ascii")
                lengths = map(len, values)
            else:
                raws = [value.encode("utf-8") for value in values]
                blob = b"".join(raws)
                lengths = map(len, raws)
            self._parts.append(
                struct.pack("!B%dI" % count, _COL_STR, *lengths))
            self._parts.append(blob)
        else:
            self.u8(_COL_TAGGED)
            for value in values:
                self.value(value)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


def _primitive(codec: struct.Struct):
    """A :class:`PayloadReader` method reading one ``codec`` value in place."""
    size = codec.size
    unpack_from = codec.unpack_from

    def read(self):
        pos = self._pos
        if pos + size > len(self._data):
            raise self._truncated(size)
        self._pos = pos + size
        return unpack_from(self._data, pos)[0]
    return read


class PayloadReader:
    """Bounds-checked sequential reader over one frame payload."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Bytes of the payload not yet read."""
        return len(self._data) - self._pos

    def _truncated(self, count: int) -> ProtocolError:
        return ProtocolError(
            f"truncated frame payload: wanted {count} byte(s) at "
            f"offset {self._pos}, have {self.remaining}")

    def _skip(self, count: int) -> int:
        """Move past ``count`` bytes; returns the offset they start at."""
        pos = self._pos
        if pos + count > len(self._data):
            raise self._truncated(count)
        self._pos = pos + count
        return pos

    def _take(self, count: int) -> bytes:
        pos = self._skip(count)
        return self._data[pos:pos + count]

    u8 = _primitive(_U8)
    u32 = _primitive(_U32)
    u64 = _primitive(_U64)
    i64 = _primitive(_I64)
    f64 = _primitive(_F64)

    def string(self) -> str:
        length = self.u32()
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}")

    def value(self):
        tag = self.u8()
        if tag == _VAL_INT:
            return self.i64()
        if tag == _VAL_FLOAT:
            return self.f64()
        if tag == _VAL_STR:
            return self.string()
        if tag == _VAL_BOOL:
            return self.u8() != 0
        if tag == _VAL_NULL:
            return None
        if tag == _VAL_DATE:
            try:
                return _dt.date.fromisoformat(self.string())
            except ValueError as exc:
                raise ProtocolError(f"invalid DATE value: {exc}")
        raise ProtocolError(f"unknown value tag {tag}")

    def column(self, count: int):
        """The ``count`` values of one ROW_BATCH column.

        Every body is bounds-checked before its format string is built, so
        ``count`` never sizes anything the payload does not back.
        """
        kind = self.u8()
        if kind == _COL_INT or kind == _COL_FLOAT:
            begin = self._skip(8 * count)
            code = "q" if kind == _COL_INT else "d"
            return struct.unpack_from(f"!{count}{code}", self._data, begin)
        if kind == _COL_STR:
            begin = self._skip(4 * count)
            lengths = struct.unpack_from(f"!{count}I", self._data, begin)
            ends = list(accumulate(lengths))
            blob = self._take(ends[-1] if ends else 0)
            spans = zip([0] + ends, ends)
            if blob.isascii():
                text = blob.decode("ascii")
                return [text[begin:end] for begin, end in spans]
            try:
                return [blob[begin:end].decode("utf-8")
                        for begin, end in spans]
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"invalid UTF-8 in string column: {exc}")
        if kind == _COL_TAGGED:
            return [self.value() for _ in range(count)]
        raise ProtocolError(f"unknown column kind {kind}")

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ProtocolError(
                f"{self.remaining} trailing byte(s) after frame payload")


# ---------------------------------------------------------------------- #
# messages
# ---------------------------------------------------------------------- #
@dataclass
class Hello:
    """Client handshake: credentials + requested session identity."""

    frame_type = HELLO
    token: str = ""
    session_name: str = ""
    protocol_version: int = PROTOCOL_VERSION

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u32(self.protocol_version)
        writer.string(self.token)
        writer.string(self.session_name)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Hello":
        version = reader.u32()
        return cls(protocol_version=version, token=reader.string(),
                   session_name=reader.string())


@dataclass
class Welcome:
    """Server handshake response: the session is established."""

    frame_type = WELCOME
    session_name: str = ""
    server_version: str = ""

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.string(self.session_name)
        writer.string(self.server_version)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Welcome":
        return cls(session_name=reader.string(),
                   server_version=reader.string())


@dataclass
class Prepare:
    frame_type = PREPARE
    request_id: int = 0
    sql: str = ""

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.string(self.sql)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Prepare":
        return cls(request_id=reader.u64(), sql=reader.string())


@dataclass
class Prepared:
    """Statement handle + typed metadata of a successful PREPARE."""

    frame_type = PREPARED
    request_id: int = 0
    statement_id: int = 0
    #: ``(name, sql type name)`` per parameter slot; positional slots have
    #: an empty name.
    parameters: list = field(default_factory=list)
    column_names: list = field(default_factory=list)
    #: SQL type names (``SQLType.value``) per result column.
    column_types: list = field(default_factory=list)

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u64(self.statement_id)
        writer.u32(len(self.parameters))
        for name, type_name in self.parameters:
            writer.string(name)
            writer.string(type_name)
        writer.u32(len(self.column_names))
        for name, type_name in zip(self.column_names, self.column_types):
            writer.string(name)
            writer.string(type_name)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Prepared":
        msg = cls(request_id=reader.u64(), statement_id=reader.u64())
        for _ in range(reader.u32()):
            msg.parameters.append((reader.string(), reader.string()))
        for _ in range(reader.u32()):
            msg.column_names.append(reader.string())
            msg.column_types.append(reader.string())
        return msg


#: ``params`` kind discriminants of an EXECUTE frame.
_PARAMS_NONE = 0
_PARAMS_POSITIONAL = 1
_PARAMS_NAMED = 2


def _pack_params(writer: PayloadWriter, params) -> None:
    """One binding in the EXECUTE params encoding (kind + values)."""
    if params is None:
        writer.u8(_PARAMS_NONE)
    elif isinstance(params, dict):
        writer.u8(_PARAMS_NAMED)
        writer.u32(len(params))
        for name, value in params.items():
            writer.string(str(name))
            writer.value(value)
    else:
        writer.u8(_PARAMS_POSITIONAL)
        values = list(params)
        writer.u32(len(values))
        for value in values:
            writer.value(value)


def _unpack_params(reader: PayloadReader):
    kind = reader.u8()
    if kind == _PARAMS_POSITIONAL:
        return [reader.value() for _ in range(reader.u32())]
    if kind == _PARAMS_NAMED:
        return {reader.string(): reader.value()
                for _ in range(reader.u32())}
    if kind != _PARAMS_NONE:
        raise ProtocolError(f"unknown params kind {kind}")
    return None


def _pack_options(writer: PayloadWriter, options: dict) -> None:
    writer.u32(len(options))
    for name, value in options.items():
        writer.string(str(name))
        writer.value(value)


def _unpack_options(reader: PayloadReader) -> dict:
    return {reader.string(): reader.value() for _ in range(reader.u32())}


@dataclass
class Execute:
    """Run raw SQL (``statement_id == 0``) or a prepared statement."""

    frame_type = EXECUTE
    request_id: int = 0
    statement_id: int = 0
    sql: str = ""
    #: ``None`` | sequence (positional) | mapping (named), natural values.
    params: object = None
    #: ``ExecOptions`` field overrides for this request (mode, threads, ...).
    options: dict = field(default_factory=dict)
    #: Max rows per ROW_BATCH frame (0 = server default).
    batch_rows: int = 0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u64(self.statement_id)
        writer.string(self.sql)
        _pack_params(writer, self.params)
        _pack_options(writer, self.options)
        writer.u32(self.batch_rows)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Execute":
        return cls(request_id=reader.u64(), statement_id=reader.u64(),
                   sql=reader.string(), params=_unpack_params(reader),
                   options=_unpack_options(reader),
                   batch_rows=reader.u32())


@dataclass
class ExecuteMany:
    """Run one statement (raw SQL or prepared id) for a batch of bindings."""

    frame_type = EXECUTE_MANY
    request_id: int = 0
    statement_id: int = 0
    sql: str = ""
    #: One entry per binding, each in the EXECUTE params encoding.
    bindings: list = field(default_factory=list)
    #: ``ExecOptions`` field overrides for this request (mode, threads, ...).
    options: dict = field(default_factory=dict)
    #: Max rows per ROW_BATCH frame (0 = server default).
    batch_rows: int = 0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u64(self.statement_id)
        writer.string(self.sql)
        writer.u32(len(self.bindings))
        for binding in self.bindings:
            _pack_params(writer, binding)
        _pack_options(writer, self.options)
        writer.u32(self.batch_rows)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "ExecuteMany":
        return cls(request_id=reader.u64(), statement_id=reader.u64(),
                   sql=reader.string(),
                   bindings=[_unpack_params(reader)
                             for _ in range(reader.u32())],
                   options=_unpack_options(reader),
                   batch_rows=reader.u32())


@dataclass
class BatchDone:
    """Per-binding terminal frame inside an EXECUTE_MANY stream."""

    frame_type = BATCH_DONE
    request_id: int = 0
    #: Zero-based position of the finished binding in the request's batch.
    binding_index: int = 0
    row_count: int = 0
    cached: bool = False
    #: What this binding reused: "" (cold), "plan" or "result".
    cache_source: str = ""

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u32(self.binding_index)
        writer.u64(self.row_count)
        writer.u8(1 if self.cached else 0)
        writer.string(self.cache_source)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "BatchDone":
        return cls(request_id=reader.u64(), binding_index=reader.u32(),
                   row_count=reader.u64(), cached=reader.u8() != 0,
                   cache_source=reader.string())


@dataclass
class RowHeader:
    """Typed column metadata preceding the row batches of one EXECUTE."""

    frame_type = ROW_HEADER
    request_id: int = 0
    column_names: list = field(default_factory=list)
    column_types: list = field(default_factory=list)

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u32(len(self.column_names))
        for name, type_name in zip(self.column_names, self.column_types):
            writer.string(name)
            writer.string(type_name)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "RowHeader":
        msg = cls(request_id=reader.u64())
        for _ in range(reader.u32()):
            msg.column_names.append(reader.string())
            msg.column_types.append(reader.string())
        return msg


@dataclass
class RowBatch:
    """One bounded batch of result rows (internal-representation values).

    ``rows`` is a list of equal-width tuples; on the wire the batch is
    column-major (see the module docstring).  An empty batch has no columns.
    """

    frame_type = ROW_BATCH
    request_id: int = 0
    rows: list = field(default_factory=list)

    def pack_payload(self, writer: PayloadWriter) -> None:
        try:
            columns = list(zip(*self.rows, strict=True))
        except ValueError:
            raise ProtocolError("rows of one batch differ in width")
        if self.rows and not columns:
            raise ProtocolError("a row batch has rows but no columns")
        writer.u64(self.request_id)
        writer.u32(len(self.rows))
        writer.u32(len(columns))
        for values in columns:
            writer.column(values)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "RowBatch":
        msg = cls(request_id=reader.u64())
        row_count = reader.u32()
        column_count = reader.u32()
        # A column costs a kind byte and every value at least one more, so
        # counts the remaining bytes cannot back are refused before any
        # format string or list is sized by them.
        if (column_count * (row_count + 1) > reader.remaining
                or (row_count and not column_count)):
            raise ProtocolError(
                f"row batch declares {row_count} row(s) x {column_count} "
                f"column(s) but only {reader.remaining} byte(s) follow")
        columns = [reader.column(row_count) for _ in range(column_count)]
        msg.rows = list(zip(*columns))
        return msg


@dataclass
class Done:
    """Terminal frame of a successful EXECUTE, with execution statistics."""

    frame_type = DONE
    request_id: int = 0
    row_count: int = 0
    mode: str = ""
    cached: bool = False
    #: Engine-side seconds: work (``timings.total``) and admission wait.
    total_seconds: float = 0.0
    queue_seconds: float = 0.0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u64(self.row_count)
        writer.string(self.mode)
        writer.u8(1 if self.cached else 0)
        writer.f64(self.total_seconds)
        writer.f64(self.queue_seconds)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Done":
        return cls(request_id=reader.u64(), row_count=reader.u64(),
                   mode=reader.string(), cached=reader.u8() != 0,
                   total_seconds=reader.f64(), queue_seconds=reader.f64())


@dataclass
class Error:
    """Failure of one request (or of the connection, ``request_id == 0``)."""

    frame_type = ERROR
    request_id: int = 0
    code: str = "INTERNAL"
    message: str = ""
    #: Backoff hint for ``BUSY`` errors, milliseconds (0 = none).
    retry_after_ms: int = 0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.string(self.code)
        writer.string(self.message)
        writer.u32(self.retry_after_ms)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Error":
        return cls(request_id=reader.u64(), code=reader.string(),
                   message=reader.string(), retry_after_ms=reader.u32())


@dataclass
class Cancel:
    """Request cancellation of an in-flight EXECUTE on this connection."""

    frame_type = CANCEL
    request_id: int = 0
    target_request_id: int = 0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u64(self.target_request_id)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Cancel":
        return cls(request_id=reader.u64(),
                   target_request_id=reader.u64())


@dataclass
class CancelResult:
    """Whether the CANCEL took effect (False: target already ran/finished)."""

    frame_type = CANCEL_RESULT
    request_id: int = 0
    cancelled: bool = False

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u8(1 if self.cancelled else 0)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "CancelResult":
        return cls(request_id=reader.u64(), cancelled=reader.u8() != 0)


@dataclass
class CloseStatement:
    frame_type = CLOSE_STATEMENT
    request_id: int = 0
    statement_id: int = 0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)
        writer.u64(self.statement_id)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "CloseStatement":
        return cls(request_id=reader.u64(), statement_id=reader.u64())


@dataclass
class Ok:
    """Generic positive acknowledgement (CLOSE_STATEMENT)."""

    frame_type = OK
    request_id: int = 0

    def pack_payload(self, writer: PayloadWriter) -> None:
        writer.u64(self.request_id)

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Ok":
        return cls(request_id=reader.u64())


@dataclass
class Goodbye:
    """Orderly connection shutdown; the server echoes it back, then closes."""

    frame_type = GOODBYE

    def pack_payload(self, writer: PayloadWriter) -> None:
        pass

    @classmethod
    def unpack(cls, reader: PayloadReader) -> "Goodbye":
        return cls()


_MESSAGE_TYPES = {
    cls.frame_type: cls
    for cls in (Hello, Welcome, Prepare, Prepared, Execute, ExecuteMany,
                RowHeader, RowBatch, Done, BatchDone, Error, Cancel,
                CancelResult, CloseStatement, Ok, Goodbye)
}


# ---------------------------------------------------------------------- #
# frame codec entry points
# ---------------------------------------------------------------------- #
def encode_frame(message) -> bytes:
    """Serialize one message into a complete frame (header + payload)."""
    writer = PayloadWriter()
    try:
        message.pack_payload(writer)
    except (struct.error, OverflowError, UnicodeEncodeError) as exc:
        # An int outside its field's range (i64 for values), a lone
        # surrogate in a string.
        raise ProtocolError(
            f"{type(message).__name__} field is not representable on the "
            f"wire: {exc}")
    payload = writer.getvalue()
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return FRAME_HEADER.pack(len(payload), message.frame_type) + payload


def decode_header(header: bytes) -> tuple[int, int]:
    """``(payload length, frame type)`` from a 5-byte header.

    Enforces the frame-size bound *before* any payload is read, so an
    adversarial length prefix never causes a large allocation.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise ProtocolError(
            f"short frame header: {len(header)} byte(s)")
    length, frame_type = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return length, frame_type


def decode_payload(frame_type: int, payload: bytes):
    """Decode one payload into its message; strict about trailing bytes."""
    cls = _MESSAGE_TYPES.get(frame_type)
    if cls is None:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02x}")
    reader = PayloadReader(payload)
    message = cls.unpack(reader)
    reader.expect_end()
    return message


# ---------------------------------------------------------------------- #
# typed row decoding (shared by client and tests)
# ---------------------------------------------------------------------- #
def decode_result_rows(rows: list, type_names: list) -> list:
    """Internal-representation rows -> Python objects, per column type."""
    return decode_internal_rows(rows, [SQLType(name) for name in type_names])
