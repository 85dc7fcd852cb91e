"""Simple table/column statistics for the cardinality estimator.

The paper's point is precisely that optimizer estimates are unreliable, so
the adaptive framework does not depend on them; the statistics here exist to
drive join ordering and to let the experiments contrast estimate-driven
up-front decisions with runtime-feedback decisions.

These statistics may be computed from a strided *sample* of long columns,
which makes ``min_value`` / ``max_value`` approximate (the true extremes can
fall between sample points).  Every sampled statistic therefore carries
``exact=False``.  Anything that must never produce wrong answers -- in
particular zone-map scan pruning -- must not consult these values; pruning
reads the exact per-chunk zone maps of :class:`repro.catalog.Table` instead
(see :mod:`repro.plan.sargs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from ..types import SQLType
from .table import Table


@dataclass
class ColumnStatistics:
    """Per-column summary statistics."""

    name: str
    sql_type: SQLType
    num_values: int
    num_distinct: int
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    #: ``False`` when the statistics were computed from a sample: the
    #: min/max then bound only the *sampled* values, not the column, and
    #: ``num_distinct`` is an extrapolation.  Correctness-critical callers
    #: (zone-map pruning) must never consult inexact statistics.
    exact: bool = True


@dataclass
class TableStatistics:
    """Statistics over a whole table."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())


def compute_table_statistics(table: Table,
                             sample_limit: int = 50_000) -> TableStatistics:
    """Compute statistics, sampling long columns to keep analysis cheap.

    The row count is snapshotted once so concurrent inserts cannot make the
    per-column samples disagree about the table's length.
    """
    columns: dict[str, ColumnStatistics] = {}
    num_rows = table.snapshot_rows()
    for column in table.schema.columns:
        data = table.column_data(column.name)
        # ColumnView iteration walks whole chunks, far cheaper than
        # per-element shift/mask indexing; islice caps it at the snapshot
        # (concurrent inserts can only grow the view past it) and strides
        # without materialising the full column.
        if num_rows > sample_limit:
            step = max(num_rows // sample_limit, 1)
            sample = list(islice(iter(data), 0, num_rows, step))
            sampled = True
        else:
            sample = list(islice(iter(data), num_rows))
            sampled = False
        if sample:
            distinct = len(set(sample))
            if num_rows > len(sample):
                # Scale the distinct-count estimate linearly, capped by rows.
                distinct = min(int(distinct * num_rows / len(sample)), num_rows)
            min_value = min(sample)
            max_value = max(sample)
        else:
            distinct, min_value, max_value = 0, None, None
        columns[column.name.lower()] = ColumnStatistics(
            name=column.name,
            sql_type=column.sql_type,
            num_values=num_rows,
            num_distinct=distinct,
            min_value=min_value,
            max_value=max_value,
            exact=not sampled,
        )
    return TableStatistics(table_name=table.name, num_rows=num_rows,
                           columns=columns)
