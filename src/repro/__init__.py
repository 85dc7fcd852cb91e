"""repro -- Adaptive Execution of Compiled Queries, reproduced in Python.

This package reproduces the system described in

    André Kohn, Viktor Leis, Thomas Neumann:
    "Adaptive Execution of Compiled Queries", ICDE 2018.

The public entry point is :class:`repro.Database`:

    >>> from repro import Database, ExecOptions, SQLType
    >>> db = Database()
    >>> db.create_table("t", [("a", SQLType.INT64), ("b", SQLType.INT64)])
    >>> db.insert("t", [(1, 10), (2, 20), (3, 30)])
    3
    >>> result = db.execute("select sum(b) as total from t where a >= 2",
    ...                     options=ExecOptions(mode="adaptive"))
    >>> result.rows
    [(50,)]

Execution modes: ``adaptive`` (the paper's contribution), the static tiers
``bytecode`` / ``unoptimized`` / ``optimized`` / ``ir-interp``, and the
baseline engines ``volcano`` and ``vectorized``.
"""

from .engine import (
    Database,
    PhaseTimings,
    PipelineExecution,
    QueryResult,
    ENGINE_MODES,
    BASELINE_MODES,
    DEFAULT_MORSEL_SIZE,
)
from .cache import (
    CacheStats,
    PlanCache,
    auto_parameterize_sql,
    normalize_sql,
)
from .result_cache import (
    CachedResult,
    ResultCache,
    ResultCacheStats,
    result_cache_key,
)
from .client import (
    ClientConnection,
    ClientResult,
    PendingBatchResult,
    PendingResult,
    PreparedStatement,
    connect,
)
from .errors import (
    AuthenticationError,
    ParameterError,
    ProtocolError,
    ReproError,
    ServerBusyError,
    ServerError,
    SQLError,
)
from .options import ExecOptions
from .parameters import ParameterSpec
from .prepared import PreparedQuery
from .server import QueryServer
from .scheduler import (
    QueryScheduler,
    QueryTicket,
    SchedulerStats,
    Session,
    SessionStats,
    TicketState,
    WorkerPool,
)
from .telemetry import (
    Counter,
    ExplainResult,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryTrace,
    Span,
    TierSwitchEvent,
)
from .types import SQLType

__version__ = "1.5.0"

__all__ = [
    "Database", "QueryResult", "PhaseTimings", "PipelineExecution",
    "PreparedQuery", "PlanCache", "CacheStats", "normalize_sql",
    "auto_parameterize_sql",
    "ResultCache", "ResultCacheStats", "CachedResult", "result_cache_key",
    "ExecOptions", "ParameterSpec",
    "QueryScheduler", "QueryTicket", "SchedulerStats", "TicketState",
    "Session", "SessionStats", "WorkerPool",
    "QueryServer", "connect", "ClientConnection", "ClientResult",
    "PendingResult", "PendingBatchResult", "PreparedStatement",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "QueryTrace", "Span", "TierSwitchEvent", "ExplainResult",
    "SQLType", "ReproError", "SQLError", "ParameterError",
    "ProtocolError", "ServerError", "AuthenticationError",
    "ServerBusyError",
    "ENGINE_MODES", "BASELINE_MODES", "DEFAULT_MORSEL_SIZE",
    "__version__",
]
