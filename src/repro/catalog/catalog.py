"""The catalog: a named collection of tables plus their statistics."""

from __future__ import annotations

import threading

from typing import Optional, Sequence

from ..errors import CatalogError
from ..types import SQLType
from .schema import TableSchema
from .statistics import TableStatistics, compute_table_statistics
from .table import Table

#: An append refreshes a table's statistics (and so re-plans the queries
#: that read it) once the table has grown by more than this fraction of the
#: row count the statistics were computed at -- PostgreSQL's default
#: ``autovacuum_analyze_scale_factor``.  A table without statistics, or
#: whose statistics saw it empty, refreshes on every append.
STATISTICS_DRIFT = 0.1


class Catalog:
    """Holds every table of a database instance.

    Each table carries two versions, both values of one global, monotonically
    increasing counter:

    * the **data version** moves on every append and every DDL.  The result
      cache keys its entries to it (:meth:`table_version`), so no cached
      result outlives a change to the rows it was computed from;
    * the **plan version** moves on DDL and whenever the table's statistics
      refresh (:data:`STATISTICS_DRIFT`).  Prepared plans snapshot the
      global counter before they are built and stay valid while no
      referenced table's plan version exceeds it (:meth:`plan_version`).

    An append below the drift threshold therefore keeps every cached plan,
    its generated code and its compiled tiers: they read the table through
    stable column views and take row counts and scan ranges per execution
    (see :mod:`repro.catalog.table`), and statistics feed only estimates.
    """

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        #: Global, monotonically increasing change counter.
        self.version = 0
        #: Per-table data version: the counter value of its last change.
        self._versions: dict[str, int] = {}
        #: Per-table plan version: the counter value of its last DDL or
        #: statistics refresh.
        self._plan_versions: dict[str, int] = {}
        #: Guards the read-modify-write of the version counters: concurrent
        #: inserts losing an increment would let a stale cached plan or
        #: result pass its validity check.
        self._version_lock = threading.Lock()

    def _bump_version(self, key: str, plan: bool) -> None:
        with self._version_lock:
            self.version += 1
            self._versions[key] = self.version
            if plan:
                self._plan_versions[key] = self.version

    def table_version(self, name: str) -> int:
        """The data version of one table (0 if it never existed)."""
        return self._versions.get(name.lower(), 0)

    def plan_version(self, name: str) -> int:
        """The plan version of one table (0 if it never existed)."""
        return self._plan_versions.get(name.lower(), 0)

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #
    def create_table(self, name: str,
                     columns: Sequence[tuple[str, SQLType]],
                     chunk_rows: Optional[int] = None) -> Table:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if chunk_rows is None:
            table = Table(TableSchema.of(name, columns))
        else:
            table = Table(TableSchema.of(name, columns),
                          chunk_rows=chunk_rows)
        return self.register_table(table)

    def register_table(self, table: Table) -> Table:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        # Every data mutation of the table (row inserts *and* bulk column
        # appends) must bump its data version so cached results drop out;
        # routing the notification through the table itself means no
        # mutation path can forget to do so.
        table._on_change = lambda: self._table_data_changed(key, table)
        self._bump_version(key, plan=True)
        return table

    def _table_data_changed(self, key: str, table: Table) -> None:
        """Rows were appended: bump the data version, and refresh the
        statistics (bumping the plan version) once they drifted."""
        stats = self._statistics.get(key)
        drifted = stats is None or table.num_rows - stats.num_rows \
            > stats.num_rows * STATISTICS_DRIFT
        if drifted:
            self._statistics.pop(key, None)
        self._bump_version(key, plan=drifted)

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        self._tables[key]._on_change = None
        del self._tables[key]
        self._statistics.pop(key, None)
        self._bump_version(key, plan=True)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def statistics(self, name: str) -> TableStatistics:
        """The table's statistics, computed on first use after a refresh."""
        key = name.lower()
        cached = self._statistics.get(key)
        if cached is not None:
            return cached
        stats = compute_table_statistics(self.table(name))
        self._statistics[key] = stats
        return stats
