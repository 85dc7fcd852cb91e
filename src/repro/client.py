"""Blocking client library for the network serving front end.

:func:`connect` opens a TCP connection to a :class:`repro.server.QueryServer`
and performs the HELLO handshake; the returned :class:`ClientConnection`
offers the familiar statement API over the wire::

    conn = connect(host, port)
    result = conn.execute("select count(*) as n from t where a > ?",
                          params=(10,))
    stmt = conn.prepare("select b from t where a = :a")
    result = stmt.execute(params={"a": 3})
    conn.close()

A background reader thread demultiplexes response frames by request id, so
one connection supports *pipelined* requests: :meth:`ClientConnection.
execute_async` returns a :class:`PendingResult` immediately, several can be
in flight at once, and :meth:`PendingResult.cancel` sends a CANCEL frame
that resolves to ``QueryTicket.cancel`` on the server.

Failures reported by the server raise typed exceptions:
:class:`~repro.errors.ServerBusyError` (admission backpressure, with the
server's ``retry_after_ms`` hint), :class:`~repro.errors.QueryCancelledError`,
:class:`~repro.errors.AuthenticationError`, and
:class:`~repro.errors.ServerError` for everything else.  Transport and
framing problems raise :class:`~repro.errors.ProtocolError`.

Rows arrive in the engine's internal representation (ints/floats/strings,
exactly like ``QueryResult.rows``); :meth:`ClientResult.decoded_rows`
converts DATE/BOOL/DECIMAL columns to Python objects using the typed
column metadata the server sent.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from typing import Optional

from .errors import (AuthenticationError, ProtocolError, QueryCancelledError,
                     ServerBusyError, ServerError)
from .server import protocol
from .server.protocol import (FRAME_HEADER_BYTES, PROTOCOL_VERSION,
                              decode_header, decode_payload, encode_frame)
from .types import SQLType, decode_internal_rows


class ClientResult:
    """One query's result as received over the wire."""

    def __init__(self, column_names: list, column_types: list,
                 rows: list, done):
        self.column_names = column_names
        #: :class:`repro.SQLType` per result column.
        self.column_types = [SQLType(name) for name in column_types]
        #: Rows in the engine's internal representation.
        self.rows = rows
        #: Execution mode the server ran the query in ("" inside an
        #: EXECUTE_MANY stream, where the mode arrives on the final DONE).
        self.mode = getattr(done, "mode", "")
        #: True when the server served the query from a cached plan or a
        #: cached result.
        self.cached = done.cached
        #: What a cached execution reused: ``"plan"``, ``"result"``, or
        #: ``None`` (unknown / not cached; single EXECUTE responses do not
        #: carry the distinction).
        self.cache_source = getattr(done, "cache_source", "") or None
        #: Engine-side work seconds and admission-queue wait seconds
        #: (0.0 for per-binding results of an EXECUTE_MANY batch).
        self.total_seconds = getattr(done, "total_seconds", 0.0)
        self.queue_seconds = getattr(done, "queue_seconds", 0.0)

    def decoded_rows(self) -> list:
        """Rows with DATE/BOOL/DECIMAL columns decoded to Python objects."""
        return decode_internal_rows(self.rows, self.column_types)

    def columns(self) -> dict:
        """Column name -> list of values, in result-column order."""
        return {name: [row[index] for row in self.rows]
                for index, name in enumerate(self.column_names)}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ClientResult rows={len(self.rows)} mode={self.mode!r} "
                f"cached={self.cached}>")


class _Pending:
    """Demultiplexing mailbox of one outstanding request."""

    __slots__ = ("request_id", "frames")

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.frames: queue.Queue = queue.Queue()


class PendingResult:
    """Handle to one in-flight EXECUTE; resolves to a :class:`ClientResult`."""

    #: True when the reply is an EXECUTE_MANY stream (one result per binding).
    _batched = False

    def __init__(self, connection: "ClientConnection", pending: _Pending):
        self._connection = connection
        self._pending = pending
        self._value = None
        self._error: Optional[BaseException] = None
        self._consumed = False
        # What the stream delivered so far.  Kept here, not in locals of
        # one ``result`` call, so a call that times out mid-stream leaves
        # the next call everything it already took out of the mailbox.
        self._names: list = []
        self._types: list = []
        self._rows: list = []
        self._results: list = []

    @property
    def request_id(self) -> int:
        return self._pending.request_id

    def result(self, timeout: Optional[float] = None):
        """Block until the server's terminal frame arrives; returns the
        :class:`ClientResult` (for an EXECUTE_MANY the ordered list of
        them, one per binding).

        Raises the typed error for ERROR frames; raises ``TimeoutError``
        when the terminal frame has not arrived ``timeout`` seconds after
        this call started (frames consumed so far are kept; call
        ``result`` again to re-wait).
        """
        if not self._consumed:
            self._consume(timeout)
        if self._error is not None:
            raise self._error
        return self._value

    def _consume(self, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                frame = self._pending.frames.get(
                    timeout=None if deadline is None
                    else max(deadline - time.monotonic(), 0.0))
            except queue.Empty:
                raise TimeoutError(
                    f"no response for request {self.request_id} within "
                    f"{timeout} seconds")
            if isinstance(frame, BaseException):
                self._error = frame
                break
            if isinstance(frame, protocol.RowBatch):
                if frame.rows and len(frame.rows[0]) != len(self._names):
                    self._error = ProtocolError(
                        f"ROW_BATCH carries {len(frame.rows[0])} column(s), "
                        f"its ROW_HEADER announced {len(self._names)}")
                    break
                self._rows.extend(frame.rows)
            elif isinstance(frame, protocol.RowHeader):
                self._names = frame.column_names
                self._types = frame.column_types
            elif isinstance(frame, protocol.BatchDone) and self._batched:
                self._results.append(ClientResult(
                    self._names, self._types, self._rows, frame))
                self._rows = []
            elif isinstance(frame, protocol.Done):
                if self._batched:
                    # The terminal frame carries batch-wide totals; stamp
                    # the fields every per-binding result shares.
                    for result in self._results:
                        result.mode = frame.mode
                    self._value = self._results
                else:
                    self._value = ClientResult(
                        self._names, self._types, self._rows, frame)
                break
            elif isinstance(frame, protocol.Error):
                self._error = _error_from_frame(frame)
                break
            else:
                self._error = ProtocolError(
                    f"unexpected frame {type(frame).__name__.upper()} in "
                    f"an EXECUTE{'_MANY' if self._batched else ''} "
                    f"response stream")
                break
        self._consumed = True
        self._connection._forget(self._pending)

    def cancel(self) -> bool:
        """Ask the server to cancel this request (CANCEL frame).

        Returns True when the cancel took effect server-side (the query
        had not started running); the request then resolves with
        :class:`~repro.errors.QueryCancelledError`.  Returns False when
        the query already ran or finished -- its result still arrives.
        """
        return self._connection._cancel(self.request_id)


class PendingBatchResult(PendingResult):
    """Handle to one in-flight EXECUTE_MANY; resolves to a result list.

    The response stream interleaves one ``BATCH_DONE`` per binding between
    the row batches; each binding becomes its own :class:`ClientResult`
    (with ``cached`` / ``cache_source`` per binding), in request order.
    ``cancel`` cancels the whole batch.
    """

    _batched = True


def _error_from_frame(frame: protocol.Error) -> BaseException:
    if frame.code == "BUSY":
        return ServerBusyError(frame.message,
                               retry_after_ms=frame.retry_after_ms)
    if frame.code == "CANCELLED":
        return QueryCancelledError(frame.message)
    if frame.code == "AUTH":
        return AuthenticationError(frame.message)
    if frame.code == "PROTOCOL":
        return ProtocolError(frame.message)
    return ServerError(frame.code, frame.message)


class PreparedStatement:
    """Client-side handle to a server-side prepared statement."""

    def __init__(self, connection: "ClientConnection",
                 statement_id: int, sql: str,
                 prepared: protocol.Prepared):
        self._connection = connection
        self.statement_id = statement_id
        self.sql = sql
        #: ``(name, SQLType)`` per parameter slot (name "" = positional).
        self.parameters = [(name, SQLType(type_name))
                           for name, type_name in prepared.parameters]
        self.column_names = list(prepared.column_names)
        self.column_types = [SQLType(name)
                             for name in prepared.column_types]

    def execute(self, params=None, timeout: Optional[float] = None,
                **options) -> ClientResult:
        return self._connection.execute(
            statement=self, params=params, timeout=timeout, **options)

    def execute_async(self, params=None, **options) -> PendingResult:
        return self._connection.execute_async(
            statement=self, params=params, **options)

    def execute_many(self, bindings, timeout: Optional[float] = None,
                     **options) -> list:
        return self._connection.execute_many(
            statement=self, bindings=bindings, timeout=timeout, **options)

    def execute_many_async(self, bindings, **options) -> PendingBatchResult:
        return self._connection.execute_many_async(
            statement=self, bindings=bindings, **options)

    def close(self) -> None:
        """Drop the server-side registry entry (idempotent best-effort)."""
        self._connection._close_statement(self.statement_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PreparedStatement {self.statement_id} "
                f"params={len(self.parameters)} sql={self.sql[:40]!r}>")


class ClientConnection:
    """One authenticated connection to a query server (thread-safe)."""

    def __init__(self, sock: socket.socket, session_name: str):
        self._sock = sock
        self.session_name = session_name
        self._write_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._request_seq = 0
        self._closed = False
        self._reader_error: Optional[BaseException] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True)
        self._reader.start()

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #
    def _next_request(self) -> _Pending:
        with self._state_lock:
            if self._closed:
                raise ProtocolError("connection is closed")
            if self._reader_error is not None:
                raise ProtocolError(
                    f"connection is broken: {self._reader_error}")
            self._request_seq += 1
            pending = _Pending(self._request_seq)
            self._pending[pending.request_id] = pending
            return pending

    def _forget(self, pending: _Pending) -> None:
        with self._state_lock:
            self._pending.pop(pending.request_id, None)

    def _send(self, message) -> None:
        data = encode_frame(message)
        with self._write_lock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise ProtocolError(f"send failed: {exc}") from exc

    def _read_loop(self) -> None:
        try:
            while True:
                frame = _read_frame(self._sock)
                if frame is None:  # orderly EOF
                    break
                request_id = getattr(frame, "request_id", None)
                if isinstance(frame, protocol.Goodbye):
                    break
                with self._state_lock:
                    pending = (None if request_id is None
                               else self._pending.get(request_id))
                    if pending is None and isinstance(frame, protocol.Error):
                        # Connection-level error (request id 0 or unknown):
                        # poison every outstanding request below.
                        self._reader_error = _error_from_frame(frame)
                        break
                if pending is not None:
                    pending.frames.put(frame)
        except OSError as exc:
            with self._state_lock:
                if not self._closed and self._reader_error is None:
                    self._reader_error = ProtocolError(
                        f"connection lost: {exc}")
        except ProtocolError as exc:
            with self._state_lock:
                if self._reader_error is None:
                    self._reader_error = exc
        finally:
            with self._state_lock:
                error = self._reader_error or ProtocolError(
                    "connection closed by server")
                outstanding = list(self._pending.values())
            for pending in outstanding:
                pending.frames.put(error)

    def _roundtrip(self, build_message, timeout: Optional[float] = None):
        """Send one request frame and return its single response frame."""
        pending = self._next_request()
        try:
            self._send(build_message(pending.request_id))
            try:
                frame = pending.frames.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no response for request {pending.request_id} "
                    f"within {timeout} seconds")
            if isinstance(frame, BaseException):
                raise frame
            if isinstance(frame, protocol.Error):
                raise _error_from_frame(frame)
            return frame
        finally:
            self._forget(pending)

    # ------------------------------------------------------------------ #
    # statement API
    # ------------------------------------------------------------------ #
    def prepare(self, sql: str,
                timeout: Optional[float] = None) -> PreparedStatement:
        """Prepare ``sql`` server-side; returns the typed statement handle."""
        frame = self._roundtrip(
            lambda request_id: protocol.Prepare(request_id=request_id,
                                                sql=sql),
            timeout=timeout)
        if not isinstance(frame, protocol.Prepared):
            raise ProtocolError(
                f"expected PREPARED, got {type(frame).__name__.upper()}")
        return PreparedStatement(self, frame.statement_id, sql, frame)

    def execute_async(self, sql: str = "", params=None,
                      statement: Optional[PreparedStatement] = None,
                      batch_rows: int = 0, **options) -> PendingResult:
        """Submit an EXECUTE without waiting; returns a pending handle.

        ``options`` are per-request :class:`~repro.options.ExecOptions`
        field overrides (``mode=``, ``threads=``, ...), applied server-side
        on top of the connection's session defaults.
        """
        pending = self._next_request()
        message = protocol.Execute(
            request_id=pending.request_id,
            statement_id=statement.statement_id if statement else 0,
            sql="" if statement else sql,
            params=params,
            options={name: value for name, value in options.items()
                     if value is not None},
            batch_rows=batch_rows)
        try:
            self._send(message)
        except BaseException:
            self._forget(pending)
            raise
        return PendingResult(self, pending)

    def execute(self, sql: str = "", params=None,
                statement: Optional[PreparedStatement] = None,
                timeout: Optional[float] = None,
                batch_rows: int = 0, **options) -> ClientResult:
        """Execute and wait for the full result (see :meth:`execute_async`)."""
        return self.execute_async(
            sql, params=params, statement=statement,
            batch_rows=batch_rows, **options).result(timeout=timeout)

    def execute_many_async(self, sql: str = "", bindings=(),
                           statement: Optional[PreparedStatement] = None,
                           batch_rows: int = 0,
                           **options) -> PendingBatchResult:
        """Submit one EXECUTE_MANY for a whole batch of bindings.

        ``bindings`` is a sequence of per-execution parameter sets (each a
        tuple/list, a dict, or ``None``); the server runs the statement
        once per binding in a single request and streams the results back
        in order.  Returns a :class:`PendingBatchResult` immediately.
        """
        pending = self._next_request()
        message = protocol.ExecuteMany(
            request_id=pending.request_id,
            statement_id=statement.statement_id if statement else 0,
            sql="" if statement else sql,
            bindings=list(bindings),
            options={name: value for name, value in options.items()
                     if value is not None},
            batch_rows=batch_rows)
        try:
            self._send(message)
        except BaseException:
            self._forget(pending)
            raise
        return PendingBatchResult(self, pending)

    def execute_many(self, sql: str = "", bindings=(),
                     statement: Optional[PreparedStatement] = None,
                     timeout: Optional[float] = None,
                     batch_rows: int = 0, **options) -> list:
        """Run one statement for every binding; ordered result list."""
        return self.execute_many_async(
            sql, bindings=bindings, statement=statement,
            batch_rows=batch_rows, **options).result(timeout=timeout)

    def _cancel(self, target_request_id: int,
                timeout: Optional[float] = None) -> bool:
        frame = self._roundtrip(
            lambda request_id: protocol.Cancel(
                request_id=request_id,
                target_request_id=target_request_id),
            timeout=timeout)
        if not isinstance(frame, protocol.CancelResult):
            raise ProtocolError(
                f"expected CANCEL_RESULT, got "
                f"{type(frame).__name__.upper()}")
        return frame.cancelled

    def _close_statement(self, statement_id: int) -> None:
        try:
            self._roundtrip(
                lambda request_id: protocol.CloseStatement(
                    request_id=request_id, statement_id=statement_id),
                timeout=10.0)
        except (ProtocolError, TimeoutError):
            pass  # best-effort: a dead connection already dropped it

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Send GOODBYE (best-effort), close the socket, join the reader."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._send(protocol.Goodbye())
        except ProtocolError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._reader.join(10.0)
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ClientConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"<ClientConnection {self.session_name} {state}>"


# ---------------------------------------------------------------------- #
# socket-level helpers
# ---------------------------------------------------------------------- #
def _recv_exactly(sock: socket.socket, count: int,
                  allow_eof: bool = False) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket):
    """One decoded frame, or ``None`` on a clean EOF between frames."""
    header = _recv_exactly(sock, FRAME_HEADER_BYTES, allow_eof=True)
    if header is None:
        return None
    length, frame_type = decode_header(header)
    payload = _recv_exactly(sock, length) if length else b""
    return decode_payload(frame_type, payload)


def connect(host: str, port: int, auth_token: str = "",
            session_name: str = "", timeout: Optional[float] = None
            ) -> ClientConnection:
    """Open a connection and perform the HELLO handshake.

    ``timeout`` bounds the TCP connect and the handshake round-trip; the
    established connection itself has no read timeout.  Raises
    :class:`~repro.errors.AuthenticationError` when the server rejects the
    token and :class:`~repro.errors.ProtocolError` on handshake violations.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.settimeout(timeout)
        sock.sendall(encode_frame(protocol.Hello(
            token=auth_token, session_name=session_name,
            protocol_version=PROTOCOL_VERSION)))
        frame = _read_frame(sock)
        if frame is None:
            raise ProtocolError("server closed the connection during the "
                                "handshake")
        if isinstance(frame, protocol.Error):
            raise _error_from_frame(frame)
        if not isinstance(frame, protocol.Welcome):
            raise ProtocolError(
                f"expected WELCOME, got {type(frame).__name__.upper()}")
        sock.settimeout(None)
        return ClientConnection(sock, frame.session_name)
    except (struct.error, OSError) as exc:
        sock.close()
        raise ProtocolError(f"handshake failed: {exc}") from exc
    except BaseException:
        sock.close()
        raise
