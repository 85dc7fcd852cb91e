"""Semantic result caching: skip execution entirely for repeated hot reads.

The plan cache (:mod:`repro.cache`) amortizes *preparation* across repeated
query shapes; this module amortizes *execution* across repeated identical
reads.  A :class:`ResultCache` maps a semantic key -- the normalized plan
key, the execution mode and the type-qualified bound parameter values -- to
the materialized rows of a previous execution, so a repeated identical read
returns without touching the scanner, the breakers or the worker pool.

Correctness rides on the catalog's per-table *data* versions, which every
append and every DDL bumps (plan-cache entries read the plan versions,
which an append below the statistics drift threshold leaves alone): every
entry stores a snapshot of the data versions of all referenced tables taken
*before* its execution started, and a lookup only hits when every
referenced table still has that version.  Tables bump
their version *after* appended rows become visible
(:meth:`repro.catalog.table.Table._data_changed` runs after the append
completes), so the pre-execution snapshot is conservative: a mutation that
races with the caching execution leaves the entry keyed to an older
version and every later lookup misses.  Stale hits are impossible; the
failure mode is always a harmless re-execution.

Keys are built exclusively by :func:`result_cache_key` -- the single
sanctioned constructor (enforced by the ``result-cache-key`` lint rule in
:mod:`repro.analysis.lint.rules`).  It type-qualifies every bound value, so
``a = 2`` (INT64) and ``a = 2.0`` (FLOAT64) can never collide even though
``hash(2) == hash(2.0)`` in Python; the plan key already carries the
auto-parameterization hint-type tag for the literal forms.  ``LIMIT ?``
values participate like every other parameter: they are ordinary slots of
``planning.physical.parameters`` and therefore part of the encoded-value
tuple.

Admission is bounded three ways: per-entry row count, per-entry estimated
bytes, and a total byte budget over the whole cache (on top of the LRU
entry capacity).  Oversized results are rejected up front -- a result cache
must stay a cache of *small hot* results, not a second copy of the tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional


#: Default admission bounds (see :class:`ResultCache`).
DEFAULT_CAPACITY = 512
DEFAULT_MAX_BYTES = 64 * 1024 * 1024
DEFAULT_MAX_ENTRY_ROWS = 10_000
DEFAULT_MAX_ENTRY_BYTES = 4 * 1024 * 1024


def result_cache_key(plan_key: str, mode: str, values) -> tuple:
    """The semantic cache key of one execution.

    This is the *only* sanctioned way to build a result-cache key (the
    ``result-cache-key`` lint rule rejects ``ResultCache.get``/``put``
    calls whose key came from anywhere else).

    ``plan_key`` is the plan-cache key -- normalized SQL plus, for
    auto-parameterized statements, the hint-type tag that already separates
    ``a = 2`` from ``a = 2.0`` at the plan level.  ``values`` are the
    *encoded* parameter values in slot order
    (:func:`repro.parameters.bind_parameter_values`); each is additionally
    qualified by its Python type so equal-hashing values of different types
    (``2`` / ``2.0`` / ``True``) can never collide in the key.
    """
    return (plan_key, mode,
            tuple((type(value).__name__, value) for value in values))


@dataclass
class ResultCacheStats:
    """Counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Results refused admission by the row-count / byte bounds.
    rejected: int = 0
    #: Estimated bytes currently resident.
    bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _estimate_row_bytes(row: tuple) -> int:
    """Rough resident size of one result row (admission accounting only)."""
    total = 56  # tuple object overhead
    for value in row:
        if isinstance(value, str):
            total += 56 + len(value)
        else:
            total += 32
    return total


@dataclass
class CachedResult:
    """One materialized query result plus its validity snapshot."""

    column_names: list[str]
    column_types: list
    rows: list[tuple]
    mode: str
    #: Referenced table name -> catalog data version *before* the execution
    #: that produced these rows started reading.
    table_versions: dict[str, int]
    early_terminated: bool = False
    nbytes: int = 0

    def is_current(self, table_version: Callable[[str], int]) -> bool:
        """Whether every referenced table still has the snapshot version."""
        return all(table_version(name) == version
                   for name, version in self.table_versions.items())

    def to_result(self):
        """A fresh :class:`repro.engine.QueryResult` over the cached rows.

        Rows are shallow-copied (tuples are immutable) so a caller sorting
        its result in place cannot corrupt the cached copy.  Timings are
        all zero -- no work happened -- and the result is flagged
        ``cached`` with ``cache_source="result"``.
        """
        from .engine import PhaseTimings, QueryResult

        result = QueryResult(
            column_names=list(self.column_names),
            column_types=list(self.column_types),
            rows=list(self.rows),
            mode=self.mode,
            timings=PhaseTimings(),
            early_terminated=self.early_terminated)
        result.cached = True
        result.cache_source = "result"
        return result


class ResultCache:
    """A bounded, thread-safe LRU cache of materialized query results.

    ``capacity`` bounds the entry count, ``max_bytes`` the total estimated
    resident bytes; ``max_entry_rows`` / ``max_entry_bytes`` are per-result
    admission bounds (a result exceeding either is simply not cached).
    ``capacity=0`` disables the cache entirely.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_entry_rows: int = DEFAULT_MAX_ENTRY_ROWS,
                 max_entry_bytes: int = DEFAULT_MAX_ENTRY_BYTES):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.max_entry_rows = max_entry_rows
        self.max_entry_bytes = max_entry_bytes
        self._entries: OrderedDict[tuple, CachedResult] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = ResultCacheStats()

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------ #
    def get(self, key: tuple,
            table_version: Callable[[str], int]) -> Optional[CachedResult]:
        """The cached result for ``key``, or ``None`` on miss/invalidation.

        ``table_version`` maps a table name to its *current* catalog data
        version; an entry whose stored snapshot no longer matches is
        dropped and counted as an invalidation.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if not entry.is_current(table_version):
                del self._entries[key]
                self.stats.bytes -= entry.nbytes
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: tuple, table_versions: dict[str, int],
            result) -> bool:
        """Admit one result under ``key``; returns whether it was cached.

        ``table_versions`` is the pre-execution data-version snapshot of every
        table the query read; ``result`` is the finished
        :class:`repro.engine.QueryResult`.  Oversized results (row count or
        estimated bytes above the per-entry bounds) are rejected.
        """
        if self.capacity == 0:
            return False
        rows = result.rows
        if len(rows) > self.max_entry_rows:
            with self._lock:
                self.stats.rejected += 1
            return False
        nbytes = sum(_estimate_row_bytes(row) for row in rows)
        if nbytes > self.max_entry_bytes:
            with self._lock:
                self.stats.rejected += 1
            return False
        entry = CachedResult(
            column_names=list(result.column_names),
            column_types=list(result.column_types),
            rows=list(rows),
            mode=result.mode,
            table_versions=dict(table_versions),
            early_terminated=result.early_terminated,
            nbytes=nbytes)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.stats.bytes -= previous.nbytes
            self._entries[key] = entry
            self.stats.bytes += nbytes
            while self._entries and (len(self._entries) > self.capacity
                                     or self.stats.bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self.stats.bytes -= evicted.nbytes
                self.stats.evictions += 1
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats.bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ResultCache entries={len(self)} "
                f"bytes={self.stats.bytes} capacity={self.capacity}>")
