"""The six workloads: what they send, and how a pass is timed and checked.

Every workload replays a fixed operation list generated from ``--seed``;
the engine sees only the generated SQL, bindings and rows.  A *pass* is one
replay of that list from the same starting state (``reset`` restores it,
outside any timed region), so every pass must return identical rows and one
sqlite evaluation of the list checks them all.  All engine access goes
through names the packages export and through ``ExecOptions(mode, threads,
use_cache, use_result_cache, telemetry)`` only.
"""

from __future__ import annotations

import datetime
import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import Database, ExecOptions, connect
from repro.workloads import TPCH_QUERIES, populate_tpch

import oracle as oracle_module

#: ``nproc`` on the reference box; also the number of closed-loop clients.
WORKERS = 2
CLIENTS = 2
#: An operation slower than this counts as failed.
OP_TIMEOUT_S = 30.0
SMOKE_SCALE = 0.05
#: TPC-H queries a smoke run executes (per pass and per swept mode).
SMOKE_QUERIES = 4
ZIPF_EXPONENT = 1.1
ZIPF_VALUES = 64
INSERT_EVERY = 10
INSERT_ROWS = 64

_START_DATE = datetime.date(1992, 1, 1)


@dataclass
class Op:
    """One operation of a workload's list."""

    index: int
    label: str
    sql: str = ""
    params: Optional[tuple] = None
    #: ``(table, rows)`` for an insert; ``None`` for a read.
    insert: Optional[tuple] = None


@dataclass
class Outcome:
    op: Op
    latency: float
    #: ``QueryResult`` / ``ClientResult`` of a read (``.rows`` in the
    #: engine's internal representation, ``.decoded_rows()`` for checking).
    result: object = None
    error: Optional[BaseException] = None


@dataclass
class Pass:
    wall: float
    outcomes: list


def tpch_database(scale: float) -> Database:
    """TPC-H at ``scale`` with ``nproc`` workers.

    The rows are the generator's default draw at every ``--seed``: at 300
    lineitem rows another draw decides which queries find any rows at all,
    and p95 moves by a quarter between seeds.  ``--seed`` drives the
    operation list (query order, bindings, inserted rows) instead.
    """
    return populate_tpch(Database(workers=WORKERS), scale_factor=scale)


def run_op(op: Op, call, tracer) -> Outcome:
    """Time ``call(op)`` from the call until its rows exist in the caller."""
    span = tracer.begin("op", op.label) if tracer is not None else None
    start = time.perf_counter()
    try:
        result, error = call(op), None
    except Exception as exc:  # a failed operation is a measurement
        result, error = None, exc
    latency = time.perf_counter() - start
    if span is not None:
        tracer.finish(span)
    return Outcome(op, latency, result, error)


class Workload:
    """Set-up, pass replay and checking shared by all workloads."""

    name = ""
    scale = 0.0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.scale = SMOKE_SCALE
        self.db: Optional[Database] = None
        self.ops: list[Op] = []
        #: Oracle rows per read operation, aligned with ``ops``.
        self.expected: list = []
        #: Operation index -> hash of rows already checked against the
        #: oracle; later passes must return the same rows, and equal rows
        #: need no second comparison.
        self._checked: dict[int, int] = {}
        self.first_error: Optional[str] = None

    # -- to implement -------------------------------------------------- #
    def set_up(self) -> None:
        """Everything ``setup_s`` pays for, ending with a warm-up pass."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the state every pass starts from (never timed)."""

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def tear_down(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- shared -------------------------------------------------------- #
    def _load_expected(self) -> None:
        """Replay the operation list on sqlite (reads and inserts alike)."""
        oracle = oracle_module.Oracle(self.db)
        try:
            memo: dict = {}
            self.expected = []
            for op in self.ops:
                if op.insert is not None:
                    oracle.insert(*op.insert)
                    memo.clear()
                    self.expected.append(None)
                    continue
                key = (op.sql, op.params)
                if key not in memo:
                    memo[key] = oracle.query(op.sql, op.params)
                self.expected.append(memo[key])
        finally:
            oracle.close()

    def _warm_up(self) -> None:
        failed = self.check(self.run_pass())
        if failed:
            raise RuntimeError(
                f"{self.name}: {failed} operation(s) failed in the warm-up "
                f"pass: {self.first_error}")

    def check(self, pass_: Pass) -> int:
        """Number of failed operations: raised, timed out, or wrong rows."""
        failed = 0
        for outcome in pass_.outcomes:
            problem = self._problem(outcome)
            if problem is not None:
                failed += 1
                if self.first_error is None:
                    self.first_error = f"{outcome.op.label}: {problem}"
        return failed

    def _problem(self, outcome: Outcome) -> Optional[str]:
        op = outcome.op
        if outcome.error is not None:
            return repr(outcome.error)
        if outcome.latency > OP_TIMEOUT_S:
            return f"took {outcome.latency:.1f} s"
        if op.insert is not None:
            return None
        digest = hash(tuple(outcome.result.rows))
        if self._checked.get(op.index) == digest:
            return None
        if not oracle_module.rows_match(
                outcome.result.decoded_rows(), self.expected[op.index],
                oracle_module.is_ordered(op.sql)):
            return "rows differ from the sqlite oracle"
        self._checked[op.index] = digest
        return None


# --------------------------------------------------------------------- #
# tpch_cold_*: the paper's compile-latency / throughput trade, per scale
# --------------------------------------------------------------------- #
class TpchCold(Workload):
    """All TPC-H queries, plan-cache-cold, adaptive, one thread."""

    OPTIONS = ExecOptions(mode="adaptive", threads=1, use_cache=False)

    def __init__(self, name: str, scale: float, seed: int,
                 smoke: bool = False):
        self.name = name
        self.scale = scale
        super().__init__(seed, smoke)

    def set_up(self) -> None:
        self.db = tpch_database(self.scale)
        numbers = sorted(oracle_module.tpch_oracle_queries())
        random.Random(self.seed).shuffle(numbers)
        if self.smoke:
            numbers = numbers[:SMOKE_QUERIES]
        self.ops = [Op(index, f"Q{number}", TPCH_QUERIES[number])
                    for index, number in enumerate(numbers)]
        self._load_expected()
        self._warm_up()

    def run_pass(self, tracer=None) -> Pass:
        execute, options = self.db.execute, self.OPTIONS
        start = time.perf_counter()
        outcomes = [run_op(op, lambda op: execute(op.sql, options=options),
                           tracer) for op in self.ops]
        return Pass(time.perf_counter() - start, outcomes)


# --------------------------------------------------------------------- #
# hot shapes shared by hot_mixed_rw and serve_point
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Shape:
    sql: str
    #: Table whose row count bounds the binding domain.
    domain: str
    #: Width of the range for two-parameter shapes (0 = one parameter).
    width: int

    def params(self, value: int) -> tuple:
        return (value, value + self.width) if self.width else (value,)


HOT_SHAPES = {
    "scan_filter": Shape(
        "select count(*) as n, sum(l_extendedprice) as total from lineitem "
        "where l_partkey >= ? and l_partkey < ?",
        "part", 40),
    "join_probe": Shape(
        "select count(*) as n, sum(l_extendedprice) as total "
        "from lineitem, orders "
        "where l_orderkey = o_orderkey and o_custkey = ?",
        "customer", 0),
    "group_by": Shape(
        "select o_orderpriority, count(*) as n, sum(o_totalprice) as total "
        "from orders where o_custkey >= ? and o_custkey < ? "
        "group by o_orderpriority order by o_orderpriority",
        "customer", 40),
    "topk": Shape(
        "select l_orderkey, l_linenumber, l_extendedprice from lineitem "
        "where l_partkey = ? "
        "order by l_extendedprice desc, l_orderkey, l_linenumber limit 10",
        "part", 0),
    "point": Shape(
        "select o_orderkey, o_custkey, o_totalprice, o_orderdate "
        "from orders where o_orderkey = ?",
        "orders", 0),
}

ROWS_SQL = ("select l_orderkey, l_partkey, l_quantity, l_extendedprice, "
            "l_shipdate, l_comment from lineitem "
            "where l_orderkey >= ? and l_orderkey < ?")


def rows_ranges(rng: random.Random, database: Database, count: int) -> list:
    """``count`` distinct ``ROWS_SQL`` bindings, each a sixth of the order
    keys wide (~2 000 lineitem rows at SF 2)."""
    orders = database.catalog.table("orders").num_rows
    width = max(orders // 6, 1)
    return [(low, low + width)
            for low in rng.sample(range(orders - width), count)]


def zipf_reads(rng: random.Random, database: Database, count: int) -> list:
    """``count`` (shape name, params) pairs, Zipf-distributed per shape."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(ZIPF_VALUES)]
    values = {}
    for name, shape in HOT_SHAPES.items():
        domain = database.catalog.table(shape.domain).num_rows
        values[name] = [rng.randrange(domain) for _ in range(ZIPF_VALUES)]
    names = list(HOT_SHAPES)
    reads = []
    for _ in range(count):
        name = rng.choice(names)
        value = rng.choices(values[name], weights)[0]
        reads.append((name, HOT_SHAPES[name].params(value)))
    return reads


def _money(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 2)


def insert_rows(rng: random.Random, database: Database, table: str,
                first_key: int) -> list:
    """``INSERT_ROWS`` user-level rows for ``orders`` or ``lineitem``."""
    def date() -> datetime.date:
        return _START_DATE + datetime.timedelta(days=rng.randrange(2500))

    sizes = {name: database.catalog.table(name).num_rows
             for name in ("customer", "orders", "part", "supplier")}
    if table == "orders":
        return [(first_key + i, rng.randrange(sizes["customer"]),
                 rng.choice("OFP"), _money(rng, 900.0, 100_000.0), date(),
                 rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"]),
                 f"Clerk#{rng.randint(1, 1000):09d}", 0, "carefully final")
                for i in range(INSERT_ROWS)]
    rows = []
    for i in range(INSERT_ROWS):
        ship = date()
        rows.append((
            rng.randrange(sizes["orders"]), rng.randrange(sizes["part"]),
            rng.randrange(sizes["supplier"]), i % 7 + 1,
            float(rng.randint(1, 50)), _money(rng, 1.0, 5000.0),
            _money(rng, 0.0, 0.10), _money(rng, 0.0, 0.08),
            rng.choice("RAN"), rng.choice("OF"), ship,
            ship + datetime.timedelta(days=rng.randint(-30, 60)),
            ship + datetime.timedelta(days=rng.randint(1, 30)),
            "NONE", rng.choice(["AIR", "MAIL", "SHIP"]), "quickly ironic"))
    return rows


class HotMixedRW(Workload):
    """In-process prepared reads with Zipf bindings; every tenth operation
    is an insert that invalidates plan- and result-cache entries."""

    name = "hot_mixed_rw"
    scale = 2.0
    PASS_OPS = 250
    SMOKE_OPS = 60
    OPTIONS = ExecOptions(mode="adaptive", threads=1)

    def set_up(self) -> None:
        self.db = tpch_database(self.scale)
        rng = random.Random(self.seed)
        count = self.SMOKE_OPS if self.smoke else self.PASS_OPS
        reads = iter(zipf_reads(rng, self.db, count))
        next_order = self.db.catalog.table("orders").num_rows
        self.ops = []
        for index in range(count):
            if index % INSERT_EVERY == INSERT_EVERY - 1:
                table = ("lineitem", "orders")[
                    (index // INSERT_EVERY) % 2]
                rows = insert_rows(rng, self.db, table, next_order)
                if table == "orders":
                    next_order += INSERT_ROWS
                self.ops.append(Op(index, f"insert:{table}",
                                   insert=(table, rows)))
                continue
            name, params = next(reads)
            self.ops.append(Op(index, name, HOT_SHAPES[name].sql, params))
        self._load_expected()
        self._warm_up()

    def reset(self) -> None:
        # Inserts accumulate, so every pass gets a freshly loaded database.
        self.db.close()
        self.db = tpch_database(self.scale)

    def run_pass(self, tracer=None) -> Pass:
        database, options = self.db, self.OPTIONS

        def call(op: Op):
            if op.insert is not None:
                return database.insert(*op.insert)
            return database.execute(op.sql, options=options,
                                    params=op.params)

        start = time.perf_counter()
        outcomes = [run_op(op, call, tracer) for op in self.ops]
        return Pass(time.perf_counter() - start, outcomes)


class Served(Workload):
    """Closed-loop wire clients over ``Database.serve()``; one prepared
    statement per shape and connection, default session options."""

    scale = 2.0

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.server = None
        self.connections: list = []
        #: Per connection: shape name -> ``PreparedStatement``.
        self.statements: list[dict] = []

    def _shapes(self) -> dict:
        raise NotImplementedError

    def _requests(self, rng: random.Random) -> list:
        """``(shape name, params)`` per request, all clients interleaved."""
        raise NotImplementedError

    def set_up(self) -> None:
        self.db = tpch_database(self.scale)
        shapes = self._shapes()
        self.ops = [Op(index, name, shapes[name], params)
                    for index, (name, params)
                    in enumerate(self._requests(random.Random(self.seed)))]
        self._load_expected()
        self.server = self.db.serve()
        for client in range(CLIENTS):
            connection = connect(*self.server.address,
                                 session_name=f"bench-{client}",
                                 timeout=OP_TIMEOUT_S)
            self.connections.append(connection)
            self.statements.append(
                {name: connection.prepare(sql, timeout=OP_TIMEOUT_S)
                 for name, sql in shapes.items()})
        self._warm_up()

    def reset(self) -> None:
        # Every pass starts plan- and result-cache-cold; the statements
        # stay registered (the server keeps their SQL, not their plans).
        self.db.plan_cache.clear()
        self.db.result_cache.clear()

    def run_pass(self, tracer=None) -> Pass:
        outcomes: list = [None] * len(self.ops)
        barrier = threading.Barrier(CLIENTS + 1)

        def client(number: int) -> None:
            statements = self.statements[number]

            def call(op: Op):
                return statements[op.label].execute(
                    params=op.params, timeout=OP_TIMEOUT_S)

            barrier.wait()
            for op in self.ops[number::CLIENTS]:
                outcomes[op.index] = run_op(op, call, tracer)

        threads = [threading.Thread(target=client, args=(number,))
                   for number in range(CLIENTS)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        return Pass(time.perf_counter() - start, outcomes)

    def tear_down(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        self.statements = []
        super().tear_down()  # closes the server first, then the pool


class ServePoint(Served):
    """Small-result shapes over the wire: admission, cache probes, rebind."""

    name = "serve_point"
    PASS_OPS = 1500
    SMOKE_OPS = 60

    def _shapes(self) -> dict:
        return {name: shape.sql for name, shape in HOT_SHAPES.items()}

    def _requests(self, rng: random.Random) -> list:
        return zipf_reads(rng, self.db,
                          self.SMOKE_OPS if self.smoke else self.PASS_OPS)


class ServeRows(Served):
    """One wide shape, ~2 000 rows x 6 typed columns per reply, all ranges
    distinct: protocol encode, ROW_BATCH streaming and client decode."""

    name = "serve_rows"
    PASS_OPS = 60
    SMOKE_OPS = 20

    def _shapes(self) -> dict:
        return {"rows": ROWS_SQL}

    def _requests(self, rng: random.Random) -> list:
        count = self.SMOKE_OPS if self.smoke else self.PASS_OPS
        return [("rows", params)
                for params in rows_ranges(rng, self.db, count)]


WORKLOADS = {
    "tpch_cold_sf0.05": lambda seed, smoke=False: TpchCold(
        "tpch_cold_sf0.05", 0.05, seed, smoke),
    "tpch_cold_sf0.5": lambda seed, smoke=False: TpchCold(
        "tpch_cold_sf0.5", 0.5, seed, smoke),
    "tpch_cold_sf5": lambda seed, smoke=False: TpchCold(
        "tpch_cold_sf5", 5.0, seed, smoke),
    "hot_mixed_rw": HotMixedRW,
    "serve_point": ServePoint,
    "serve_rows": ServeRows,
}
