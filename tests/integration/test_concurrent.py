"""Concurrency stress tests: one shared database under contention.

Many client threads execute queries across execution modes (adaptive,
optimized, bytecode) -- through synchronous ``execute``, the async
``submit`` ticket API, and sessions -- while a writer thread keeps
inserting into one of the queried tables.  The assertions check the three
properties the scheduler subsystem must preserve under contention:

* every query returns the correct result (reads of the mutated table see a
  prefix-consistent, monotonically growing row count -- a stale cached
  result would violate monotonicity),
* cached plans survive appends below the statistics drift threshold and
  keep reading every appended row while readers race the writer, and the
  plan cache invalidates correctly once the appends cross it,
* the machine-wide thread count stays bounded by the shared pool (plus the
  compile thread), no matter how many queries are in flight.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database, ExecOptions, SQLType


CLIENTS = 4
RUNS_PER_CLIENT = 12
WRITER_BATCHES = 24
BATCH_ROWS = 10
#: Rows ``events`` starts with: the writer's batches stay below a tenth of
#: it for a while (plans survive), then cross it (statistics refresh).
INITIAL_EVENTS = 1000


@pytest.fixture()
def stress_db():
    db = Database(morsel_size=512, workers=4)
    db.create_table("items", [("id", SQLType.INT64),
                              ("category", SQLType.INT64),
                              ("price", SQLType.FLOAT64)])
    db.insert("items", [(i, i % 7, float(i) * 0.5) for i in range(8000)])
    db.create_table("events", [("seq", SQLType.INT64),
                               ("kind", SQLType.INT64)])
    db.insert("events", [(i, i % 3) for i in range(INITIAL_EVENTS)])
    yield db
    db.close()


ITEM_SQL = ("select category, sum(price) as total, count(*) as n "
            "from items group by category order by category")
#: The predicate matches every row; it makes planning read (and cache) the
#: table's statistics, so appends below the drift threshold keep the plan.
EVENT_SQL = "select count(*) as c from events where kind >= 0"
MODES = ("adaptive", "optimized", "bytecode")


def test_concurrent_stress_across_modes_with_interleaved_inserts(stress_db):
    db = stress_db
    expected_items = db.execute(ITEM_SQL,
                                options=ExecOptions(mode="optimized",
                                                    use_cache=False)).rows
    # Plan, bytecode and compiled tiers of the event count exist before the
    # writer starts: the concurrent reads below run surviving plans.
    for mode in MODES:
        assert db.execute(EVENT_SQL, options=ExecOptions(mode=mode)).rows \
            == [(INITIAL_EVENTS,)]
    start_threads = threading.active_count()
    errors: list[BaseException] = []
    #: Plan-cache hits that read appended rows before the appends crossed
    #: the drift threshold: the warm-up plan, outliving appends.
    surviving_plan_reads = [0]
    peak_threads = [0]
    writer_done = threading.Event()

    def record_error(exc: BaseException) -> None:
        errors.append(exc)

    def writer() -> None:
        try:
            seq = INITIAL_EVENTS
            for batch in range(WRITER_BATCHES):
                rows = [(seq + i, (seq + i) % 3) for i in range(BATCH_ROWS)]
                db.insert("events", rows)
                seq += BATCH_ROWS
                time.sleep(0.002)
        except BaseException as exc:  # pragma: no cover - diagnostic
            record_error(exc)
        finally:
            writer_done.set()

    def item_reader(client: int) -> None:
        # The items table is never mutated: every mode, every thread count,
        # and every cache state must agree with the reference result.
        try:
            for run in range(RUNS_PER_CLIENT):
                mode = MODES[(client + run) % len(MODES)]
                threads = 1 + (run % 2)
                result = db.execute(ITEM_SQL,
                                    options=ExecOptions(mode=mode,
                                                        threads=threads))
                assert result.rows == expected_items, (
                    f"client {client} run {run} mode {mode} diverged")
        except BaseException as exc:
            record_error(exc)

    def event_reader() -> None:
        # The events table grows concurrently: counts must be multiples of
        # the batch size (insert_rows is atomic per batch here) and must
        # never go backwards -- a stale cached result would re-serve an old
        # snapshot and break monotonicity.
        try:
            last = 0
            while not writer_done.is_set():
                for mode in MODES:
                    result = db.execute(EVENT_SQL,
                                        options=ExecOptions(mode=mode))
                    (count,), = result.rows
                    assert count % BATCH_ROWS == 0, count
                    assert count >= last, (count, last)
                    last = count
                    if result.cache_source == "plan" and INITIAL_EVENTS \
                            < count <= INITIAL_EVENTS + INITIAL_EVENTS // 10:
                        surviving_plan_reads[0] += 1
        except BaseException as exc:
            record_error(exc)

    def ticket_client() -> None:
        # Async submissions race the same plan-cache entries.
        try:
            session = db.session(options=ExecOptions(mode="optimized"),
                                 name="ticket-client")
            for _ in range(RUNS_PER_CLIENT):
                ticket = session.submit(ITEM_SQL)
                assert ticket.result(timeout=60).rows == expected_items
            stats = session.stats
            assert stats.completed == RUNS_PER_CLIENT
            assert stats.failed == 0
        except BaseException as exc:
            record_error(exc)

    def monitor() -> None:
        while not writer_done.is_set():
            peak_threads[0] = max(peak_threads[0], threading.active_count())
            time.sleep(0.003)

    clients = ([threading.Thread(target=item_reader, args=(i,))
                for i in range(CLIENTS)]
               + [threading.Thread(target=event_reader),
                  threading.Thread(target=ticket_client),
                  threading.Thread(target=writer),
                  threading.Thread(target=monitor)])
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress client hung"

    assert not errors, errors[:3]
    # The concurrent reads really exercised plans that outlived appends.
    assert surviving_plan_reads[0] > 0

    # Final state: all writer batches are visible to a query in every mode,
    # whether its plan survived the last appends or was rebuilt.
    total = INITIAL_EVENTS + WRITER_BATCHES * BATCH_ROWS
    for mode in MODES:
        assert db.execute(EVENT_SQL,
                          options=ExecOptions(mode=mode)).rows == [(total,)]

    # Thread boundedness: the client threads above are ours; beyond those,
    # only the shared pool (4 workers) and the compile thread may appear.
    own = len(clients)
    assert peak_threads[0] <= start_threads + own + 4 + 1


def test_submit_saturation_returns_correct_results(stress_db):
    db = stress_db
    expected = db.execute(ITEM_SQL, options=ExecOptions(use_cache=False)).rows
    tickets = [db.submit(ITEM_SQL,
                         options=ExecOptions(mode=MODES[i % len(MODES)]))
               for i in range(16)]
    for ticket in tickets:
        assert ticket.result(timeout=120).rows == expected
    stats = db.scheduler.stats
    assert stats.completed >= 16
    assert stats.peak_running <= db.scheduler.max_concurrent


def test_vectorized_scans_race_concurrent_inserts():
    """Regression for the ragged-array race: a vectorized scan gathering
    numpy columns while pool workers append must never observe different
    lengths for different columns of the same table (the symptom was a
    numpy broadcast error or a torn row).  Pruned and unpruned scans both
    run against the moving table and must stay internally consistent."""
    db = Database(morsel_size=256, workers=4)
    db.catalog.create_table("ledger", [("seq", SQLType.INT64),
                                       ("amount", SQLType.FLOAT64),
                                       ("tag", SQLType.STRING)],
                            chunk_rows=512)
    db.insert("ledger", [(i, float(i), f"t{i % 5}") for i in range(4000)])

    errors: list[BaseException] = []
    stop = threading.Event()

    def writer() -> None:
        try:
            base = 4000
            for batch in range(60):
                db.insert("ledger",
                          [(base + batch * 25 + j, 1.0, "w")
                           for j in range(25)])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def scanner(use_pruning: bool) -> None:
        options = ExecOptions(mode="vectorized", use_pruning=use_pruning)
        try:
            while not stop.is_set():
                # A full aggregation touches every column: lengths must
                # agree or numpy raises / rows tear.
                result = db.execute(
                    "select count(*) as n, sum(amount) as s from ledger "
                    "where seq >= 0", options=options.merged(use_cache=False))
                (n, s) = result.rows[0]
                assert n >= 4000
                # Selective scan over the clustered column.
                selective = db.execute(
                    "select count(*) as n from ledger "
                    "where seq between 1024 and 1535",
                    options=options.merged(use_cache=False))
                assert selective.rows == [(512,)]
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer),
               threading.Thread(target=scanner, args=(True,)),
               threading.Thread(target=scanner, args=(False,))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "race test hung"
    assert not errors, errors[:3]

    final = db.execute("select count(*) from ledger",
                       options=ExecOptions(use_cache=False))
    assert final.rows == [(4000 + 60 * 25,)]
    db.close()


def test_concurrent_partitioned_aggregations_share_pool():
    """Many aggregating queries at once, all drawing morsel workers *and*
    per-partition merge tasks from one shared pool.

    Every execution accumulates into per-worker-slot partials (no shared
    lock on the aggregation hot path -- the ``hot-path-lock`` lint rule's
    job), merges on the pool, and must return exactly what a Python dict
    group-by computes; three partition layouts run interleaved to prove
    they coexist on one cached plan.
    """
    db = Database(morsel_size=256, workers=4)
    db.create_table("sales", [("region", SQLType.INT64),
                              ("item", SQLType.INT64),
                              ("amount", SQLType.FLOAT64)])
    sales = [(i % 5, i % 11, float(i % 97)) for i in range(12000)]
    db.insert("sales", sales)
    sql = ("select region, count(*), sum(amount), min(amount), max(amount) "
           "from sales group by region")
    groups: dict = {}
    for region, _, amount in sales:   # integral amounts: sums are exact
        groups.setdefault(region, []).append(amount)
    expected = [(region, len(amounts), sum(amounts), min(amounts),
                 max(amounts)) for region, amounts in sorted(groups.items())]

    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            for run in range(6):
                if (index + run) % 3 == 0:
                    options = ExecOptions(mode="adaptive", threads=4)
                elif (index + run) % 3 == 1:
                    options = ExecOptions(mode="bytecode", threads=4,
                                          breaker_partitions=2)
                else:
                    options = ExecOptions(mode="optimized", threads=4,
                                          breaker_partitions=1)
                result = db.execute(sql, options=options)
                assert result.rows == expected, options
                ticket = db.submit(sql, options=options)
                assert ticket.result().rows == expected
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "aggregation stress hung"
    assert not errors, errors[:3]
    db.close()
