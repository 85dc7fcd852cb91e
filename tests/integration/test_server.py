"""Integration tests of the network serving front end.

A real :class:`repro.server.QueryServer` on an ephemeral localhost port,
exercised through the blocking client library and -- for the protocol
edge cases -- through raw sockets.  Covered here:

* end-to-end correctness: many concurrent client connections running
  parameterized prepared queries across all execution modes, compared
  against in-process ``db.execute``,
* NULL-padded LEFT JOIN rows and uneven EXECUTE_MANY streams surviving
  the columnar ROW_BATCH codec in every mode,
* authentication rejection, malformed and oversized frames,
* admission-control backpressure surfacing as BUSY protocol errors,
* CANCEL semantics (pending query cancelled vs. racing completion),
* client disconnect mid-request releasing the admission slot,
* concurrent sessions sharing one prepared shape through the plan cache,
* graceful shutdown: ``Database.close`` drains servers first, is safe
  while queries are in flight, leaks no threads or sockets, and a second
  close is a no-op.

Determinism: the scheduler-pressure tests park a ``_Blocker`` task source
on a one-worker pool, so the admission queue fills and drains exactly on
cue instead of depending on query timing.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro import (BASELINE_MODES, ENGINE_MODES, ClientConnection, Database,
                   ExecOptions, SQLType, connect)
from repro.errors import (AuthenticationError, ProtocolError,
                          QueryCancelledError, ServerBusyError, ServerError)
from repro.server import protocol
from repro.server.protocol import (FRAME_HEADER, FRAME_HEADER_BYTES,
                                   MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   decode_header, decode_payload,
                                   encode_frame)
from repro.scheduler import TaskSource


def build_db(rows: int = 400, **kwargs) -> Database:
    kwargs.setdefault("workers", 2)
    db = Database(morsel_size=64, **kwargs)
    db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.FLOAT64),
                          ("s", SQLType.STRING)])
    db.insert("t", [(i, i * 0.5, f"row-{i % 10}") for i in range(rows)])
    return db


@pytest.fixture()
def served_db():
    db = build_db()
    server = db.serve()
    yield db, server
    db.close()


class _Blocker(TaskSource):
    """Occupies ``count`` pool workers until ``release`` is set."""

    def __init__(self, count: int):
        self._remaining = count
        self.release = threading.Event()
        self.started = threading.Semaphore(0)

    def claim(self):
        if self._remaining == 0:
            return None
        self._remaining -= 1

        def task():
            self.started.release()
            self.release.wait()

        return task

    @property
    def exhausted(self):
        return self._remaining == 0


@pytest.fixture()
def blocked_db():
    """A served database whose single pool worker is parked on a blocker.

    Submitted queries stay PENDING until ``blocker.release`` fires, so the
    admission queue (``max_pending=1``) fills deterministically.
    """
    db = build_db(rows=50, workers=1, max_concurrent=1, max_pending=1)
    blocker = _Blocker(1)
    db.worker_pool.attach(blocker)
    assert blocker.started.acquire(timeout=5)
    server = db.serve()
    yield db, server, blocker
    blocker.release.set()
    db.worker_pool.detach(blocker)
    db.close()


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed")
        data += chunk
    return data


def _read_raw_frame(sock: socket.socket):
    length, frame_type = decode_header(
        _recv_exactly(sock, FRAME_HEADER_BYTES))
    payload = _recv_exactly(sock, length) if length else b""
    return decode_payload(frame_type, payload)


def _raw_handshake(server, token: str = "") -> socket.socket:
    sock = socket.create_connection(server.address, timeout=10)
    sock.settimeout(10)
    sock.sendall(encode_frame(protocol.Hello(token=token)))
    frame = _read_raw_frame(sock)
    assert isinstance(frame, protocol.Welcome)
    return sock


def _wait_until(predicate, timeout: float = 10.0, message: str = ""):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message or "condition not reached in time")


# ---------------------------------------------------------------------- #
# end-to-end correctness
# ---------------------------------------------------------------------- #
ALL_MODES = ("adaptive", "bytecode", "unoptimized", "optimized",
             "volcano", "vectorized")
PARAM_SQL = ("select s, count(*) as n, sum(b) as total from t "
             "where a >= :lo and a < :hi group by s order by s")


def test_e2e_concurrent_clients_match_in_process_execution(served_db):
    db, server = served_db
    expected = {}
    for client in range(8):
        lo, hi = client * 10, client * 10 + 200
        expected[client] = db.execute(PARAM_SQL,
                                      params={"lo": lo, "hi": hi}).rows

    baseline_threads = set(threading.enumerate())
    errors: list[BaseException] = []

    def client_main(client: int) -> None:
        try:
            conn = connect(*server.address, session_name=f"c{client}")
            try:
                stmt = conn.prepare(PARAM_SQL)
                assert stmt.column_names == ["s", "n", "total"]
                assert [t.value for t in stmt.column_types] == [
                    "string", "int64", "float64"]
                lo, hi = client * 10, client * 10 + 200
                for run in range(6):
                    mode = ALL_MODES[(client + run) % len(ALL_MODES)]
                    result = stmt.execute(params={"lo": lo, "hi": hi},
                                          timeout=60, mode=mode)
                    assert result.mode == mode
                    assert result.rows == expected[client], (
                        f"client {client} mode {mode} diverged")
                stmt.close()
            finally:
                conn.close()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors[0]
    assert db.metrics.get("server.connections_total").value >= 8

    # Graceful shutdown: server drains, scheduler/pool stop, and every
    # thread the serving stack spawned is gone again.
    db.close()
    assert server.closed
    _wait_until(lambda: set(threading.enumerate()) <= baseline_threads,
                message=f"leaked threads: "
                        f"{set(threading.enumerate()) - baseline_threads}")
    with pytest.raises(ConnectionError):
        socket.create_connection(server.address, timeout=2)


def test_adhoc_sql_and_batched_streaming(served_db):
    db, server = served_db
    conn = connect(*server.address)
    try:
        # batch_rows=7 forces multiple ROW_BATCH frames for 400 rows.
        result = conn.execute("select a, b, s from t order by a",
                              timeout=60, batch_rows=7)
        assert result.rows == db.execute(
            "select a, b, s from t order by a").rows
        assert len(result) == 400
    finally:
        conn.close()


def test_positional_parameters_and_decoded_rows(served_db):
    db, server = served_db
    db.create_table("flags", [("id", SQLType.INT64), ("ok", SQLType.BOOL),
                              ("d", SQLType.DATE)])
    db.insert("flags", [(1, True, "2024-02-29"), (2, False, "2024-03-01")])
    conn = connect(*server.address)
    try:
        result = conn.execute("select id, ok, d from flags where id = ?",
                              params=(1,), timeout=60)
        assert [t.value for t in result.column_types] == [
            "int64", "bool", "date"]
        (decoded,) = result.decoded_rows()
        assert decoded[1] is True
        assert decoded[2].isoformat() == "2024-02-29"
    finally:
        conn.close()


LEFT_JOIN_SQL = ("select l.k, l.name, r.d, r.f, r.ok, r.label from l "
                 "left join r on l.k = r.k where l.k >= ? order by l.k")


@pytest.fixture()
def outer_join_db(served_db):
    db, server = served_db
    db.create_table("l", [("k", SQLType.INT64), ("name", SQLType.STRING)])
    db.create_table("r", [("k", SQLType.INT64), ("d", SQLType.DATE),
                          ("f", SQLType.FLOAT64), ("ok", SQLType.BOOL),
                          ("label", SQLType.STRING)])
    db.insert("l", [(i, f"n{i}") for i in range(12)])
    db.insert("r", [(i, f"2024-02-{i + 1:02d}", i + 0.5, i % 2 == 0, f"w{i}")
                    for i in range(0, 12, 3)])
    return db, server


@pytest.mark.parametrize("mode", list(ENGINE_MODES) + list(BASELINE_MODES))
def test_null_padded_left_join_rows_cross_the_wire(outer_join_db, mode):
    db, server = outer_join_db
    bindings = [(0,), (7,), (11,)]
    expected = [db.execute(LEFT_JOIN_SQL, params=binding,
                           options=ExecOptions(mode=mode,
                                               use_result_cache=False))
                for binding in bindings]
    assert any(None in row for row in expected[0].rows)
    conn = connect(*server.address)
    try:
        for binding, reference in zip(bindings, expected):
            # batch_rows=5: NULL and non-NULL rows share and split batches.
            result = conn.execute(LEFT_JOIN_SQL, params=binding, mode=mode,
                                  timeout=60, batch_rows=5)
            assert result.rows == reference.rows
            assert result.decoded_rows() == reference.decoded_rows()
        many = conn.execute_many(LEFT_JOIN_SQL, bindings=bindings,
                                 mode=mode, timeout=60, batch_rows=5)
        assert [r.rows for r in many] == [r.rows for r in expected]
        assert ([r.decoded_rows() for r in many]
                == [r.decoded_rows() for r in expected])
    finally:
        conn.close()


def test_null_padded_decimal_is_identical_in_every_mode_and_on_the_wire(
        served_db):
    """A DECIMAL column NULL-padded by a LEFT JOIN used to crash both
    baselines (``None * 0.01``); all seven modes agree, in process and
    over the wire, also when the NULL is the ORDER BY ... LIMIT winner."""
    db, server = served_db
    db.create_table("a", [("k", SQLType.INT64)])
    db.create_table("b", [("k", SQLType.INT64), ("w", SQLType.DECIMAL)])
    db.insert("a", [(1,), (2,), (3,)])
    db.insert("b", [(1, 1.5), (3, 0.25)])
    join = "select a.k, b.w from a left join b on a.k = b.k "
    cases = {join + "order by a.k": [(1, 1.5), (2, None), (3, 0.25)],
             join + "order by b.w desc limit 1": [(2, None)],
             join + "order by b.w limit 2": [(3, 0.25), (1, 1.5)]}
    conn = connect(*server.address)
    try:
        for mode in list(ENGINE_MODES) + list(BASELINE_MODES):
            for sql, expected in cases.items():
                local = db.execute(
                    sql,
                    options=ExecOptions( mode=mode, use_result_cache=False))
                assert local.rows == expected, (mode, sql)
                wire = conn.execute(sql, mode=mode, use_result_cache=False,
                                    timeout=60, batch_rows=2)
                assert wire.rows == expected, (mode, sql)
                assert wire.decoded_rows() == local.decoded_rows()
    finally:
        conn.close()


def test_removed_or_unknown_option_is_a_typed_error_frame(served_db):
    """The wire's per-request options are ``ExecOptions`` field overrides;
    a removed historical switch or any unknown key comes back as a typed
    ERROR frame naming it, and the connection keeps serving."""
    db, server = served_db
    sql = "select count(*) as n from t"
    conn = connect(*server.address)
    try:
        for option in ("use_topk_breaker", "use_partitioned_breakers",
                       "use_batch_kernels", "collect_trace",
                       "auto_parameterize", "breaker_partitions",
                       "verify_ir", "morsel_size"):
            with pytest.raises(ServerError, match=option) as info:
                conn.execute(sql, timeout=60, **{option: False})
            assert info.value.code == "EXECUTION"
            with pytest.raises(ServerError, match=option) as info:
                conn.execute_many(sql + " where a < ?", bindings=[(1,), (2,)],
                                  timeout=60, **{option: False})
            assert info.value.code == "EXECUTION"
        expected = db.execute(sql).rows
        assert conn.execute(sql, timeout=60).rows == expected
        assert conn.execute(sql, mode="volcano", timeout=60).rows == expected
    finally:
        conn.close()


def test_execute_many_streams_bindings_of_different_sizes(served_db):
    db, server = served_db
    sql = "select a, b, s from t where a < ? order by a"
    # 0 rows (no ROW_BATCH at all), one partial batch, exactly one batch,
    # several batches with a remainder.
    bindings = [(0,), (3,), (16,), (50,), (0,), (1,)]
    expected = [db.execute(sql, params=b,
                           options=ExecOptions(use_result_cache=False)).rows
                for b in bindings]
    conn = connect(*server.address)
    try:
        results = conn.execute_many(sql, bindings=bindings, timeout=60,
                                    batch_rows=16)
        assert [r.rows for r in results] == expected
        assert [len(r) for r in results] == [0, 3, 16, 50, 0, 1]
    finally:
        conn.close()


def test_unencodable_result_value_ends_the_stream_with_an_error(served_db):
    db, server = served_db
    db.create_table("big", [("v", SQLType.INT64)])
    db.insert("big", [(2 ** 62,)] * 4)
    conn = connect(*server.address)
    try:
        # sum() is 2**64: representable in the engine, not in an i64 column.
        # ROW_HEADER is already out when the encoder finds out.
        with pytest.raises(ProtocolError, match="not representable"):
            conn.execute("select sum(v) as s from big", timeout=60)
        with pytest.raises(ProtocolError, match="not representable"):
            conn.execute_many("select sum(v) as s from big where v > ?",
                              bindings=[(0,), (1,)], timeout=60)
        # Request-level failures: the connection keeps serving.
        assert conn.execute("select count(*) as n from big",
                            timeout=60).rows == [(4,)]
    finally:
        conn.close()


def test_null_parameter_is_the_engines_parameter_error(served_db):
    _db, server = served_db
    conn = connect(*server.address)
    try:
        with pytest.raises(ServerError, match="NULL") as info:
            conn.execute("select a from t where a = ?", params=(None,),
                         timeout=60)
        assert info.value.code == "SQL"
    finally:
        conn.close()


def test_row_batch_width_must_match_its_row_header():
    # The client end of a socket pair, fed hand-written response frames.
    ours, theirs = socket.socketpair()
    conn = ClientConnection(ours, "fake")
    try:
        pending = conn.execute_async("select 1 as one")
        request_id = pending.request_id
        theirs.sendall(
            encode_frame(protocol.RowHeader(
                request_id=request_id, column_names=["a", "b"],
                column_types=["int64", "int64"]))
            + encode_frame(protocol.RowBatch(request_id=request_id,
                                             rows=[(1, 2)]))
            + encode_frame(protocol.RowBatch(request_id=request_id,
                                             rows=[(3,)])))
        with pytest.raises(ProtocolError, match="announced 2"):
            pending.result(timeout=10)
    finally:
        theirs.close()
        conn.close()


# ---------------------------------------------------------------------- #
# handshake / framing edge cases
# ---------------------------------------------------------------------- #
def test_auth_rejection_and_acceptance():
    db = build_db(rows=10)
    server = db.serve(auth_token="sesame")
    try:
        with pytest.raises(AuthenticationError):
            connect(*server.address, auth_token="wrong")
        with pytest.raises(AuthenticationError):
            connect(*server.address)  # empty token is wrong too
        assert db.metrics.get("server.auth_failures").value == 2

        conn = connect(*server.address, auth_token="sesame")
        try:
            assert conn.execute("select count(*) as n from t",
                                timeout=60).rows == [(10,)]
        finally:
            conn.close()
    finally:
        db.close()


def test_first_frame_must_be_hello(served_db):
    _, server = served_db
    sock = socket.create_connection(server.address, timeout=10)
    sock.settimeout(10)
    try:
        sock.sendall(encode_frame(protocol.Prepare(request_id=1, sql="x")))
        frame = _read_raw_frame(sock)
        assert isinstance(frame, protocol.Error)
        assert frame.code == "PROTOCOL"
        assert frame.request_id == protocol.CONNECTION_REQUEST_ID
        # The server closes the connection after the handshake failure.
        assert sock.recv(1) == b""
    finally:
        sock.close()


@pytest.mark.parametrize("version", [1, 99])  # 1: the row-major layout
def test_unsupported_protocol_version_is_rejected(served_db, version):
    _, server = served_db
    sock = socket.create_connection(server.address, timeout=10)
    sock.settimeout(10)
    try:
        sock.sendall(encode_frame(protocol.Hello(
            protocol_version=version)))
        frame = _read_raw_frame(sock)
        assert isinstance(frame, protocol.Error)
        assert frame.code == "PROTOCOL"
        assert f"version {version} is not supported" in frame.message
    finally:
        sock.close()


def test_malformed_frame_closes_connection(served_db):
    db, server = served_db
    sock = _raw_handshake(server)
    try:
        # A PREPARE whose payload is garbage: undecodable -> connection-
        # level PROTOCOL error, then close.
        sock.sendall(FRAME_HEADER.pack(3, protocol.PREPARE) + b"\xff\xff\xff")
        frame = _read_raw_frame(sock)
        assert isinstance(frame, protocol.Error)
        assert frame.code == "PROTOCOL"
        assert sock.recv(1) == b""
        assert db.metrics.get("server.protocol_errors").value >= 1
    finally:
        sock.close()


def test_oversized_frame_is_rejected_without_buffering(served_db):
    _, server = served_db
    sock = _raw_handshake(server)
    try:
        # Announce a payload over the limit; send nothing more.  The server
        # must reject from the header alone.
        sock.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, protocol.EXECUTE))
        frame = _read_raw_frame(sock)
        assert isinstance(frame, protocol.Error)
        assert frame.code == "PROTOCOL"
        assert "exceeds" in frame.message
        assert sock.recv(1) == b""
    finally:
        sock.close()


def test_empty_execute_and_unknown_statement_are_request_errors(served_db):
    _, server = served_db
    conn = connect(*server.address)
    try:
        pending = conn.execute_async("")  # neither SQL nor statement id
        with pytest.raises(ProtocolError, match="neither SQL nor"):
            pending.result(timeout=60)

        fake = conn._next_request()
        conn._send(protocol.Execute(request_id=fake.request_id,
                                    statement_id=12345))
        frame = fake.frames.get(timeout=30)
        conn._forget(fake)
        assert isinstance(frame, protocol.Error)
        assert frame.code == "PROTOCOL"
        assert "unknown statement id" in frame.message

        # The connection survives request-level errors.
        assert conn.execute("select count(*) as n from t",
                            timeout=60).rows == [(400,)]
    finally:
        conn.close()


def test_sql_errors_travel_as_typed_error_frames(served_db):
    _, server = served_db
    conn = connect(*server.address)
    try:
        from repro.errors import ServerError
        with pytest.raises(ServerError) as excinfo:
            conn.execute("select nope from missing_table", timeout=60)
        assert excinfo.value.code in ("SQL", "EXECUTION")
        # And the connection keeps working afterwards.
        assert conn.execute("select count(*) as n from t",
                            timeout=60).rows == [(400,)]
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# backpressure / cancel / disconnect under a blocked pool
# ---------------------------------------------------------------------- #
def test_busy_surfaces_as_protocol_error_not_hang(blocked_db):
    db, server, blocker = blocked_db
    conn = connect(*server.address)
    try:
        first = conn.execute_async("select sum(a) as s from t")
        # The pending queue (size 1) is now full; the next EXECUTE must be
        # rejected with BUSY immediately, not queue or hang.
        with pytest.raises(ServerBusyError) as excinfo:
            conn.execute("select sum(a) as s from t", timeout=30)
        assert excinfo.value.code == "BUSY"
        assert excinfo.value.retry_after_ms >= 0
        assert db.metrics.get("server.busy_rejections").value == 1

        blocker.release.set()
        expected = db.execute("select sum(a) as s from t").rows
        assert first.result(timeout=60).rows == expected
    finally:
        conn.close()


def test_cancel_pending_query_and_cancel_racing_completion(blocked_db):
    db, server, blocker = blocked_db
    conn = connect(*server.address)
    try:
        pending = conn.execute_async("select sum(a) as s from t")
        _wait_until(lambda: db.scheduler.pending_count == 1)
        assert pending.cancel() is True
        with pytest.raises(QueryCancelledError):
            pending.result(timeout=30)
        assert db.scheduler.stats.cancelled == 1

        # Cancel racing completion: by the time the CANCEL frame arrives
        # the query has finished -- cancel reports False and the full
        # result still arrives.
        blocker.release.set()
        done = conn.execute_async("select count(*) as n from t")
        result = done.result(timeout=60)
        assert result.rows == [(50,)]
        late = conn._cancel(done.request_id, timeout=30)
        assert late is False
    finally:
        conn.close()


def test_client_disconnect_mid_request_releases_admission_slot(blocked_db):
    db, server, blocker = blocked_db
    sock = _raw_handshake(server)
    sock.sendall(encode_frame(protocol.Execute(
        request_id=1, sql="select sum(a) as s from t")))
    _wait_until(lambda: db.scheduler.pending_count == 1)
    # Abrupt disconnect: no GOODBYE, just a dead socket.  The server must
    # cancel the pending ticket, freeing its admission-queue slot.
    sock.close()
    _wait_until(lambda: db.scheduler.stats.cancelled == 1,
                message="disconnect did not cancel the in-flight ticket")
    _wait_until(lambda: db.scheduler.pending_count == 0)
    _wait_until(lambda: server.active_connections == 0)

    # The freed slot admits new work from a fresh connection.
    blocker.release.set()
    conn = connect(*server.address)
    try:
        assert conn.execute("select count(*) as n from t",
                            timeout=60).rows == [(50,)]
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# plan-cache sharing across sessions
# ---------------------------------------------------------------------- #
def test_concurrent_sessions_share_one_prepared_shape(served_db):
    db, server = served_db
    sql = "select s, count(*) as n from t where a < :x group by s order by s"
    hits_before = db.plan_cache.stats.hits
    entries_before = len(db.plan_cache)

    connections = [connect(*server.address, session_name=f"share-{i}")
                   for i in range(3)]
    try:
        statements = [conn.prepare(sql) for conn in connections]
        # One PREPARE built the entry; the other two hit the shared cache.
        assert len(db.plan_cache) == entries_before + 1
        assert db.plan_cache.stats.hits >= hits_before + 2
        expected = db.execute(sql, params={"x": 123}).rows
        for stmt in statements:
            assert stmt.execute(params={"x": 123},
                                timeout=60).rows == expected
    finally:
        for conn in connections:
            conn.close()


# ---------------------------------------------------------------------- #
# lifecycle: Database.close with in-flight queries, idempotence, metrics
# ---------------------------------------------------------------------- #
def test_database_close_is_safe_with_queries_in_flight():
    db = build_db(rows=50, workers=1, max_concurrent=1, max_pending=4)
    blocker = _Blocker(1)
    db.worker_pool.attach(blocker)
    assert blocker.started.acquire(timeout=5)
    tickets = [db.submit("select sum(a) as s from t") for _ in range(3)]

    closer_done = threading.Event()

    def closer() -> None:
        # Deadline-bounded close: pending tickets are cancelled, the
        # blocked pool is abandoned at the deadline instead of hanging.
        db.close(timeout=1.0)
        closer_done.set()

    thread = threading.Thread(target=closer)
    thread.start()
    assert closer_done.wait(timeout=15), "close() hung on in-flight queries"
    thread.join(5)

    for ticket in tickets:
        assert ticket.done()
        with pytest.raises(QueryCancelledError):
            ticket.result(timeout=5)

    # Double close is a no-op, and the serving entry points now refuse.
    db.close()
    db.close(timeout=0.1)
    from repro.errors import SchedulerError
    with pytest.raises(SchedulerError):
        db.submit("select 1 as x")
    with pytest.raises(SchedulerError):
        db.serve()

    blocker.release.set()


def test_server_close_is_idempotent_and_unregisters():
    db = build_db(rows=10)
    server = db.serve()
    assert server in db._servers
    server.close()
    server.close()
    assert server not in db._servers
    # A new server can be started afterwards; db.close() then closes it.
    second = db.serve()
    db.close()
    assert second.closed
    db.close()  # still a no-op


def test_server_and_scheduler_metrics_reach_prometheus(served_db):
    db, server = served_db
    conn = connect(*server.address)
    try:
        conn.prepare("select count(*) as n from t")
        conn.execute("select count(*) as n from t", timeout=60)
    finally:
        conn.close()
    _wait_until(lambda: server.active_connections == 0)

    text = db.metrics.to_prometheus()
    for needle in (
            "repro_server_connections_total 1",
            "repro_server_active_connections 0",
            "repro_server_in_flight_requests 0",
            "repro_server_requests_total_hello 1",
            "repro_server_requests_total_prepare 1",
            "repro_server_requests_total_execute 1",
            "repro_server_request_seconds_count 1",
            "repro_scheduler_completed 1",
    ):
        assert needle in text, f"missing {needle!r} in prometheus output"
    flat = db.metrics.flat_snapshot()
    assert flat["server.bytes_sent"] > 0
    assert flat["server.bytes_received"] > 0


# --------------------------------------------------------------------------- #
# EXECUTE_MANY
# --------------------------------------------------------------------------- #
def test_execute_many_round_trip_matches_in_process(served_db):
    db, server = served_db
    sql = "select sum(b) as s from t where a % 10 = ?"
    bindings = [(1,), (2,), (1,), (3,)]
    expected = [db.execute(sql, params=b,
                           options=ExecOptions(use_result_cache=False)).rows
                for b in bindings]
    db.result_cache.clear()
    conn = connect(*server.address)
    try:
        results = conn.execute_many(sql, bindings=bindings, timeout=60)
        assert [r.rows for r in results] == expected
        # Intra-batch dedup: the repeated binding shares the first's result.
        assert results[2].cache_source == "result"
        assert all(r.mode == results[0].mode for r in results)

        # The whole batch again: every binding is answerable from the
        # result cache, so the server serves it on the loop thread without
        # consuming a scheduler admission slot.
        before = db.metrics.flat_snapshot()["server.result_cache_serves"]
        repeat = conn.execute_many(sql, bindings=bindings, timeout=60)
        assert [r.rows for r in repeat] == expected
        assert all(r.cached and r.cache_source == "result" for r in repeat)
        after = db.metrics.flat_snapshot()["server.result_cache_serves"]
        assert after == before + 1
    finally:
        conn.close()


def test_execute_many_via_prepared_statement(served_db):
    db, server = served_db
    conn = connect(*server.address)
    try:
        stmt = conn.prepare("select count(*) as n from t where a < ?")
        results = stmt.execute_many([(10,), (20,), (10,)], timeout=60)
        assert [r.rows for r in results] == [[(10,)], [(20,)], [(10,)]]
        assert results[2].cache_source == "result"
    finally:
        conn.close()


def test_execute_many_without_bindings_is_a_request_error(served_db):
    _db, server = served_db
    conn = connect(*server.address)
    try:
        with pytest.raises(ProtocolError):
            conn.execute_many("select count(*) as n from t",
                              bindings=[], timeout=60)
        # The connection survives the request-level error.
        result = conn.execute("select count(*) as n from t", timeout=60)
        assert result.rows == [(400,)]
    finally:
        conn.close()


def test_repeated_execute_skips_admission(served_db):
    db, server = served_db
    sql = "select sum(b) as s from t where a >= ?"
    conn = connect(*server.address)
    try:
        first = conn.execute(sql, params=(100,), timeout=60)
        submitted_before = db.scheduler.stats.submitted
        second = conn.execute(sql, params=(100,), timeout=60)
        assert second.rows == first.rows
        assert second.cached
        # Served from the result cache on the loop thread: no new
        # scheduler submission, and the fast-path counter moved.
        assert db.scheduler.stats.submitted == submitted_before
        assert db.metrics.flat_snapshot()["server.result_cache_serves"] >= 1
    finally:
        conn.close()
