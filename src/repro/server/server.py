"""The asyncio TCP serving front end over the query scheduler.

:class:`QueryServer` makes the engine reachable from other processes: it
accepts connections on a TCP socket, speaks the length-prefixed frame
protocol of :mod:`repro.server.protocol`, and maps every connection onto
one engine :class:`~repro.scheduler.Session` with its own prepared-
statement registry.  The event loop runs on a single dedicated thread
(started lazily by :meth:`start`), so a database that never serves never
pays for it.

Execution requests flow through ``Database.submit`` with ``block=False``:
the scheduler's ``max_concurrent`` / ``max_pending`` admission control
therefore becomes *wire-level backpressure* -- a full admission queue
answers with an explicit ``ERROR(BUSY)`` frame carrying a retry-after
hint, instead of queueing unboundedly inside the server.  Completion is
bridged from the scheduler's worker threads into the event loop via
:meth:`QueryTicket.add_done_callback` + ``loop.call_soon_threadsafe`` --
no thread ever blocks inside the server waiting for a query.

Results stream to the client in bounded ``ROW_BATCH`` frames with a
``drain()`` between batches, so one slow reader neither buffers its whole
result set in server memory nor stalls the event loop for other
connections.  ``CANCEL`` frames resolve to ``QueryTicket.cancel``; a
client disconnect mid-request cancels the connection's outstanding
tickets, releasing their admission slots.

Shutdown (:meth:`close`, also run by ``Database.close``) is graceful:
stop accepting, let in-flight requests finish within a drain deadline,
then cancel whatever remains and join the loop thread.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from typing import Optional

from ..errors import (AdmissionError, ProtocolError, QueryCancelledError,
                      ReproError, SchedulerError, SQLError)
from . import protocol
from .protocol import (CONNECTION_REQUEST_ID, FRAME_HEADER_BYTES,
                       PROTOCOL_VERSION, decode_header, decode_payload,
                       encode_frame)

#: Default number of result rows per ROW_BATCH frame.
DEFAULT_BATCH_ROWS = 1024
#: Upper bound a client may request per batch (keeps frames well under
#: ``MAX_FRAME_BYTES`` for ordinary row widths).
MAX_BATCH_ROWS = 65536
#: Prepared statements one connection may hold open.
MAX_STATEMENTS_PER_CONNECTION = 1024
#: Default seconds :meth:`QueryServer.close` waits for in-flight requests.
DEFAULT_DRAIN_TIMEOUT = 10.0


def error_code_for(exc: BaseException) -> str:
    """Map an engine exception onto a wire error code (most specific wins)."""
    if isinstance(exc, AdmissionError):
        return "BUSY"
    if isinstance(exc, QueryCancelledError):
        return "CANCELLED"
    if isinstance(exc, ProtocolError):
        return "PROTOCOL"
    if isinstance(exc, SQLError):
        return "SQL"
    if isinstance(exc, SchedulerError):
        return "UNAVAILABLE"
    if isinstance(exc, ReproError):
        return "EXECUTION"
    return "INTERNAL"


class _Inflight:
    """One in-flight EXECUTE on a connection: its task and (later) ticket."""

    __slots__ = ("task", "ticket")

    def __init__(self, task):
        self.task = task
        self.ticket = None


class _Connection:
    """Server-side state machine of one client connection."""

    def __init__(self, server: "QueryServer", reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, conn_id: int):
        self._server = server
        self._reader = reader
        self._writer = writer
        self.conn_id = conn_id
        self._write_lock = asyncio.Lock()
        self._session = None
        #: request_id -> _Inflight for EXECUTE requests.
        self._inflight: dict[int, _Inflight] = {}
        #: statement_id -> (sql, Prepared metadata frame) registry.
        self._statements: dict[int, str] = {}
        self._statement_seq = itertools.count(1)
        self._closing = False
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ #
    # framed I/O
    # ------------------------------------------------------------------ #
    async def _read_message(self):
        header = await self._reader.readexactly(FRAME_HEADER_BYTES)
        length, frame_type = decode_header(header)
        payload = await self._reader.readexactly(length) if length else b""
        self._server._m_bytes_received.inc(FRAME_HEADER_BYTES + length)
        return decode_payload(frame_type, payload)

    async def _send(self, message) -> None:
        data = encode_frame(message)
        async with self._write_lock:
            self._writer.write(data)
            await self._writer.drain()
        self._server._m_bytes_sent.inc(len(data))

    async def _send_error(self, request_id: int, exc: BaseException,
                          retry_after_ms: int = 0) -> None:
        await self._send(protocol.Error(
            request_id=request_id, code=error_code_for(exc),
            message=str(exc), retry_after_ms=retry_after_ms))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        self._task = asyncio.current_task()
        try:
            if not await self._handshake():
                return
            await self._serve_requests()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away; cleanup below releases its resources
        except ProtocolError as exc:
            self._server._m_protocol_errors.inc()
            await self._try_send_error(CONNECTION_REQUEST_ID, exc)
        except asyncio.CancelledError:
            raise
        finally:
            await self._cleanup()

    async def _try_send_error(self, request_id: int,
                              exc: BaseException) -> None:
        try:
            await self._send_error(request_id, exc)
        except (ConnectionError, OSError):
            pass

    async def _handshake(self) -> bool:
        message = await self._read_message()
        if not isinstance(message, protocol.Hello):
            self._server._m_protocol_errors.inc()
            await self._try_send_error(CONNECTION_REQUEST_ID, ProtocolError(
                f"expected HELLO as the first frame, got "
                f"{type(message).__name__.upper()}"))
            return False
        self._server._request_counter("hello").inc()
        if message.protocol_version != PROTOCOL_VERSION:
            await self._try_send_error(CONNECTION_REQUEST_ID, ProtocolError(
                f"protocol version {message.protocol_version} is not "
                f"supported (server speaks {PROTOCOL_VERSION})"))
            return False
        token = self._server._auth_token
        if token is not None and message.token != token:
            self._server._m_auth_failures.inc()
            await self._send(protocol.Error(
                request_id=CONNECTION_REQUEST_ID, code="AUTH",
                message="authentication failed: bad token"))
            return False
        name = message.session_name or f"wire-{self.conn_id}"
        try:
            self._session = self._server._database.session(name=name)
        except ReproError as exc:  # database closed underneath us
            await self._try_send_error(CONNECTION_REQUEST_ID, exc)
            return False
        await self._send(protocol.Welcome(
            session_name=name,
            server_version=self._server.server_version))
        return True

    async def _serve_requests(self) -> None:
        while True:
            message = await self._read_message()
            if isinstance(message, protocol.Goodbye):
                self._server._request_counter("goodbye").inc()
                await self._send(protocol.Goodbye())
                return
            if isinstance(message, protocol.Execute):
                self._server._request_counter("execute").inc()
                self._start_execute(message)
            elif isinstance(message, protocol.ExecuteMany):
                self._server._request_counter("execute_many").inc()
                self._start_execute(message, batch=True)
            elif isinstance(message, protocol.Prepare):
                self._server._request_counter("prepare").inc()
                await self._handle_prepare(message)
            elif isinstance(message, protocol.Cancel):
                self._server._request_counter("cancel").inc()
                await self._handle_cancel(message)
            elif isinstance(message, protocol.CloseStatement):
                self._server._request_counter("close_statement").inc()
                self._statements.pop(message.statement_id, None)
                await self._send(protocol.Ok(request_id=message.request_id))
            else:
                raise ProtocolError(
                    f"unexpected frame {type(message).__name__.upper()} "
                    f"from a client")

    async def _cleanup(self) -> None:
        self._closing = True
        # Cancel outstanding work *before* tearing the socket down: pending
        # tickets leave the admission queue (their slots free up for other
        # connections), and the streaming tasks stop writing.
        for inflight in list(self._inflight.values()):
            if inflight.ticket is not None:
                inflight.ticket.cancel()
            if inflight.task is not asyncio.current_task():
                inflight.task.cancel()
        if self._session is not None:
            self._session.close()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # CancelledError: the drain phase cancelled this task while it
            # was already waiting for its own transport to finish closing;
            # the close is underway, so finishing normally is correct.
            pass

    # ------------------------------------------------------------------ #
    # PREPARE / CANCEL
    # ------------------------------------------------------------------ #
    async def _handle_prepare(self, message: protocol.Prepare) -> None:
        if len(self._statements) >= MAX_STATEMENTS_PER_CONNECTION:
            await self._send_error(message.request_id, ProtocolError(
                f"too many prepared statements on one connection "
                f"(limit {MAX_STATEMENTS_PER_CONNECTION})"))
            return
        try:
            # Through the shared plan cache: concurrent sessions preparing
            # the same shape land on one PreparedQuery entry.
            prepared = self._server._database.prepare_query(message.sql)
        except ReproError as exc:
            await self._send_error(message.request_id, exc)
            return
        statement_id = next(self._statement_seq)
        self._statements[statement_id] = message.sql
        output_columns = prepared.planning.physical.output_columns
        await self._send(protocol.Prepared(
            request_id=message.request_id,
            statement_id=statement_id,
            parameters=[(spec.name or "", spec.sql_type.value)
                        for spec in prepared.parameters],
            column_names=[name for name, _ in output_columns],
            column_types=[sql_type.value for _, sql_type in output_columns]))

    async def _handle_cancel(self, message: protocol.Cancel) -> None:
        inflight = self._inflight.get(message.target_request_id)
        cancelled = (inflight is not None and inflight.ticket is not None
                     and inflight.ticket.cancel())
        await self._send(protocol.CancelResult(
            request_id=message.request_id, cancelled=cancelled))

    # ------------------------------------------------------------------ #
    # EXECUTE
    # ------------------------------------------------------------------ #
    def _start_execute(self, message, batch: bool = False) -> None:
        """Spawn the per-request task so the read loop keeps serving
        (CANCEL frames must be processable while a query runs)."""
        request_id = message.request_id
        if request_id in self._inflight:
            asyncio.ensure_future(self._try_send_error(
                request_id, ProtocolError(
                    f"request id {request_id} is already in flight")))
            return
        task = asyncio.get_running_loop().create_task(
            self._run_request(message, batch))
        self._inflight[request_id] = _Inflight(task)
        task.add_done_callback(
            lambda _t: self._inflight.pop(request_id, None))

    async def _run_request(self, message, batch: bool) -> None:
        server = self._server
        started = time.perf_counter()
        server._m_in_flight.inc()
        try:
            await self._execute_and_stream(message, batch)
        except (ConnectionError, OSError):
            pass  # peer gone; the read loop's cleanup handles the rest
        except ProtocolError as exc:
            # A result value the wire cannot carry (an int outside i64):
            # end the stream with an ERROR instead of leaving it open.
            await self._try_send_error(message.request_id, exc)
        finally:
            server._m_in_flight.dec()
            server._m_request_seconds.observe(time.perf_counter() - started)

    def _probe_result_cache(self, sql: str, params, options):
        """Engine result-cache probe for one binding; None on any miss.

        Runs on the loop thread, but the probe is lock-free and does not
        execute anything -- a hit returns a finished ``QueryResult``
        without consuming a scheduler admission slot.
        """
        try:
            return self._server._database.cached_result(
                sql, params=params, options=options)
        except ReproError:
            return None

    async def _execute_and_stream(self, message, batch: bool) -> None:
        """Serve one EXECUTE (``batch=False``: the one binding
        ``message.params``) or EXECUTE_MANY (``message.bindings``)."""
        server = self._server
        if self._closing:
            await self._try_send_error(message.request_id, SchedulerError(
                "server is shutting down"))
            return
        try:
            sql = self._resolve_sql(message)
            if batch and not message.bindings:
                raise ProtocolError("EXECUTE_MANY carries no bindings")
            bindings = message.bindings if batch else [message.params]
            options = self._session.options.merged(**message.options)
            # Admission-free fast path: when *every* binding is answerable
            # from the engine's result cache, serve the whole request on
            # the loop thread without touching the scheduler.
            results = []
            for binding in bindings:
                cached = self._probe_result_cache(sql, binding, options)
                if cached is None:
                    break
                results.append(cached)
            else:
                server._m_result_cache_serves.inc()
                for result in results:
                    self._session._record_submitted()
                    self._session._record_result(result)
                await self._stream_results(message, results, batch)
                return
            if batch:
                ticket = server._database.submit_many(
                    sql, bindings, options=options,
                    session=self._session, block=False)
            else:
                ticket = server._database.submit(
                    sql, options=options, params=message.params,
                    session=self._session, block=False)
        except AdmissionError as exc:
            server._m_busy_rejections.inc()
            await self._send(protocol.Error(
                request_id=message.request_id, code="BUSY",
                message=str(exc),
                retry_after_ms=server._retry_after_ms()))
            return
        except Exception as exc:
            await self._send_error(message.request_id, exc)
            return

        inflight = self._inflight.get(message.request_id)
        if inflight is not None:
            inflight.ticket = ticket

        # Bridge ticket completion (fires on a scheduler worker thread)
        # into this event loop without blocking anything.
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def _resolve_future() -> None:
            if not future.done():
                future.set_result(None)

        def _on_ticket_done(_ticket) -> None:
            try:
                loop.call_soon_threadsafe(_resolve_future)
            except RuntimeError:  # loop already closed mid-shutdown
                pass

        ticket.add_done_callback(_on_ticket_done)
        try:
            await future
        except asyncio.CancelledError:
            ticket.cancel()
            raise
        try:
            outcome = ticket.result(timeout=0)
        except Exception as exc:
            await self._send_error(message.request_id, exc)
            return
        await self._stream_results(message, outcome if batch else [outcome],
                                   batch)

    async def _stream_results(self, message, results, batch: bool) -> None:
        """ROW_HEADER, the row batches of every result (each closed by a
        BATCH_DONE inside an EXECUTE_MANY stream), then DONE."""
        batch_rows = message.batch_rows or self._server.batch_rows
        batch_rows = max(1, min(int(batch_rows), MAX_BATCH_ROWS))
        request_id = message.request_id
        await self._send(protocol.RowHeader(
            request_id=request_id,
            column_names=results[0].column_names,
            column_types=[sql_type.value
                          for sql_type in results[0].column_types]))
        for index, result in enumerate(results):
            rows = result.rows
            for begin in range(0, len(rows), batch_rows):
                # drain() between batches bounds server-side buffering: a
                # slow client applies backpressure here instead of
                # ballooning the transport buffer.
                await self._send(protocol.RowBatch(
                    request_id=request_id,
                    rows=rows[begin:begin + batch_rows]))
            if batch:
                await self._send(protocol.BatchDone(
                    request_id=request_id,
                    binding_index=index,
                    row_count=len(rows),
                    cached=result.cached,
                    cache_source=result.cache_source or ""))
        await self._send(protocol.Done(
            request_id=request_id,
            row_count=sum(len(result.rows) for result in results),
            mode=results[0].mode,
            cached=all(result.cached for result in results),
            total_seconds=sum(result.timings.total for result in results),
            queue_seconds=results[0].timings.queue))

    def _resolve_sql(self, message: protocol.Execute) -> str:
        if message.statement_id:
            sql = self._statements.get(message.statement_id)
            if sql is None:
                raise ProtocolError(
                    f"unknown statement id {message.statement_id}")
            return sql
        if not message.sql:
            raise ProtocolError("EXECUTE carries neither SQL nor a "
                                "statement id")
        return message.sql


class QueryServer:
    """Asyncio TCP front end of one :class:`repro.Database`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`).  ``auth_token=None`` accepts any HELLO; a non-None
    token must match exactly.  The server registers its instruments in the
    database's :class:`~repro.telemetry.MetricsRegistry` under the
    ``server.*`` namespace.
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0,
                 auth_token: Optional[str] = None,
                 batch_rows: int = DEFAULT_BATCH_ROWS,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 name: str = "repro-server"):
        self._database = database
        self._host = host
        self._port = int(port)
        self._auth_token = auth_token
        self.batch_rows = max(1, min(int(batch_rows), MAX_BATCH_ROWS))
        self._drain_timeout = float(drain_timeout)
        self.name = name

        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[tuple] = None
        self._closed = False
        self._connections: set[_Connection] = set()
        self._conn_seq = itertools.count(1)

        metrics = database.metrics
        self._metrics = metrics
        self._m_connections_total = metrics.counter(
            "server.connections_total", "TCP connections accepted")
        self._m_active = metrics.gauge(
            "server.active_connections", "Currently open connections")
        self._m_in_flight = metrics.gauge(
            "server.in_flight_requests", "EXECUTE requests being served")
        self._m_request_seconds = metrics.histogram(
            "server.request_seconds",
            "Wire-level seconds from EXECUTE receipt to terminal frame")
        self._m_bytes_sent = metrics.counter(
            "server.bytes_sent", "Frame bytes written to clients")
        self._m_bytes_received = metrics.counter(
            "server.bytes_received", "Frame bytes read from clients")
        self._m_busy_rejections = metrics.counter(
            "server.busy_rejections",
            "EXECUTE requests rejected by admission control (BUSY)")
        self._m_result_cache_serves = metrics.counter(
            "server.result_cache_serves",
            "Requests answered from the result cache without a "
            "scheduler admission slot")
        self._m_auth_failures = metrics.counter(
            "server.auth_failures", "Connections rejected at HELLO")
        self._m_protocol_errors = metrics.counter(
            "server.protocol_errors", "Frame/state-machine violations")

    @property
    def server_version(self) -> str:
        from .. import __version__
        return __version__

    def _request_counter(self, kind: str):
        return self._metrics.counter(
            f"server.requests_total.{kind}",
            f"{kind.upper()} requests received")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "QueryServer":
        """Start the event-loop thread; returns once the socket listens."""
        with self._lock:
            if self._closed:
                raise SchedulerError("server is closed")
            if self._thread is not None:
                raise SchedulerError("server is already started")
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True)
            self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self.close()
            raise self._startup_error
        return self

    @property
    def address(self) -> tuple:
        """``(host, port)`` the server is listening on."""
        if self._address is None:
            raise SchedulerError("server is not started")
        return self._address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def active_connections(self) -> int:
        return self._m_active.value

    def _retry_after_ms(self) -> int:
        """Retry-after hint attached to BUSY frames.

        Scales the observed mean query latency by the admission-queue
        depth, so clients back off harder when the server is deeper under
        water.  Clamped to [10 ms, 5 s]; defaults to 50 ms when no
        latency data exists yet.
        """
        try:
            pending = self._database.scheduler.pending_count
            histogram = self._database.metrics.get("scheduler.ticket_seconds")
            mean_seconds = 0.0
            if histogram is not None and histogram.count:
                mean_seconds = histogram.sum / histogram.count
            if mean_seconds <= 0.0:
                return 50
            hint = mean_seconds * 1000.0 * (pending + 1)
            return int(min(max(hint, 10.0), 5000.0))
        except Exception:  # pragma: no cover - defensive
            return 50

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if self._startup_error is None:
                self._startup_error = exc
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:  # pragma: no cover - defensive
                pass
            loop.close()
            self._started.set()  # unblock start() on any startup failure

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            listener = await asyncio.start_server(
                self._handle_connection, self._host, self._port)
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        try:
            self._address = listener.sockets[0].getsockname()
            self._started.set()
            await self._stop_event.wait()
        finally:
            listener.close()
            await listener.wait_closed()
        await self._drain_connections()

    async def _drain_connections(self) -> None:
        """Graceful shutdown: let in-flight requests finish, then cut."""
        deadline = time.monotonic() + self._drain_timeout
        connections = list(self._connections)
        for conn in connections:
            conn._closing = True
        while time.monotonic() < deadline:
            if not any(conn._inflight for conn in connections):
                break
            await asyncio.sleep(0.01)
        for conn in connections:
            for inflight in list(conn._inflight.values()):
                if inflight.ticket is not None:
                    inflight.ticket.cancel()
                inflight.task.cancel()
            if conn._task is not None:
                conn._task.cancel()
        tasks = [conn._task for conn in connections
                 if conn._task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self, reader, writer, next(self._conn_seq))
        self._connections.add(conn)
        self._m_connections_total.inc()
        self._m_active.inc()
        try:
            await conn.run()
        except asyncio.CancelledError:
            # Cancellation only ever comes from our own drain path, which
            # has already released the connection's resources.  Swallow it
            # so the task finishes normally: asyncio.streams attaches a
            # done-callback that calls task.exception(), which logs a
            # spurious "Exception in callback" if the task ends cancelled.
            pass
        finally:
            self._connections.discard(conn)
            self._m_active.dec()

    def close(self, timeout: Optional[float] = None) -> None:
        """Gracefully shut the server down; idempotent, thread-safe.

        ``timeout`` overrides the configured drain deadline for in-flight
        requests; after it passes, remaining requests are cancelled and
        connections closed.  The event-loop thread is joined before
        returning.
        """
        with self._lock:
            if self._closed:
                thread = self._thread
                if thread is not None and thread is not \
                        threading.current_thread():
                    thread.join(self._drain_timeout + 10.0)
                return
            self._closed = True
            thread = self._thread
        if thread is None:
            return
        if timeout is not None:
            self._drain_timeout = max(float(timeout), 0.0)
        self._started.wait()
        loop = self._loop
        if loop is not None and self._startup_error is None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already gone
                pass
        thread.join(self._drain_timeout + 10.0)
        self._database._unregister_server(self)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            f"listening on {self._address[:2]}" if self._address
            else "not started")
        return f"<QueryServer {state}>"
