"""Columnar tables with chunked storage and zone maps.

Storage is column-major and *chunked*: every column is a sequence of
fixed-size chunks (plain Python lists whose elements are already in the
engine's internal representation -- ints for INT64 / DECIMAL / DATE / BOOL,
floats for FLOAT64, ``str`` for STRING).  Appends go to an open *tail*
chunk; once a chunk reaches ``chunk_rows`` elements it is *sealed* and never
mutated again.  Sealed chunks carry exact per-chunk min/max **zone maps**
(computed lazily, cached forever -- the chunk is immutable) which let scans
skip whole chunks whose value range cannot satisfy a filter predicate, and
cached per-chunk numpy arrays, so an insert no longer invalidates the
expensive list-to-numpy conversions of the rows that did not change.

Generated query code reads columns through ``(buffer, offset)`` pointers
where the buffer is a :class:`ColumnView` -- a stable object that resolves a
global row index to ``chunks[index >> shift][index & mask]`` (chunk sizes
are powers of two); the compiled tiers emit that expression inline over
the view's chunk list, and the bytecode VM evaluates it in the handler of a
constant-pointer ``load_idx``.  The view's and the chunk list's identities
survive every insert, and sealing a chunk appends to that list in place, so
a cached plan keeps reading every row across appends: the catalog bumps a
table's *plan* version only on DDL and on a statistics refresh, and its
*data* version (which the result cache reads) on every append.

Thread model: writers serialize on the table lock; readers never take it
for element access (rows below the published row count are fully written
before the count is bumped, and sealed chunks are immutable), only for
row-count snapshots (:meth:`Table.snapshot_rows`, the numpy paths).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import CatalogError
from ..types import SQLType, decode_internal_value, encode_python_value
from .schema import Column, TableSchema

#: Default number of rows per column chunk (must be a power of two).  Also
#: the zone-map pruning granularity: a selective scan skips whole chunks.
DEFAULT_CHUNK_ROWS = 4096

#: Cached zone-map entry for a sealed chunk that has no usable zone map
#: (it contains NaN, which poisons ``min()``/``max()`` because every NaN
#: comparison is False).  Such chunks are always scanned.
_NO_ZONE = object()


class ColumnView:
    """A read-only, list-like view of one column's chunked storage.

    Supports ``view[i]`` (global row index), ``len``, iteration, slicing
    and equality against any sequence, so existing callers that treated a
    column as a plain list keep working.  The view object is *stable*: it is
    created once per column and shared by every reader (including pointers
    baked into generated code), while the chunk list it resolves through
    grows in place.
    """

    __slots__ = ("_table", "_chunks", "_shift", "_mask")

    def __init__(self, table: "Table", chunks: list):
        self._table = table
        self._chunks = chunks
        self._shift = table._chunk_shift
        self._mask = table._chunk_mask

    # -- element access ---------------------------------------------------- #
    def __getitem__(self, index):
        """One element by global row index (negative counts from the end).

        This is the IR interpreter's column read, and the bytecode VM's
        through a pointer held in a register.  The compiled tiers and the
        VM's constant-pointer ``load_idx`` do not call it per row: they
        index the chunk list from :meth:`chunk_layout` directly.
        """
        if isinstance(index, slice):
            return self.to_list()[index]
        if index < 0:
            index += len(self)
            if index < 0:
                raise IndexError("column index out of range")
        return self._chunks[index >> self._shift][index & self._mask]

    def chunk_layout(self) -> tuple[list, int, int]:
        """``(chunks, shift, mask)``: row ``i`` is ``chunks[i >> shift][i &
        mask]``.  The chunk list is the stable one that grows in place."""
        return self._chunks, self._shift, self._mask

    def __len__(self) -> int:
        return self._table.num_rows

    def __iter__(self) -> Iterator:
        limit = len(self)
        full, rest = divmod(limit, self._mask + 1)
        for chunk_index in range(full):
            # Chunks below the published count's chunk index are sealed and
            # immutable, so they can be yielded without copying.
            yield from self._chunks[chunk_index]
        if rest:
            # The tail may grow concurrently; slice to the snapshot.
            yield from self._chunks[full][:rest]

    def to_list(self) -> list:
        """Materialise the column (up to the current row count) as a list."""
        return list(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (ColumnView, list, tuple)):
            if len(other) != len(self):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    #: Views are compared by content but hashed (and pooled by the VM's
    #: constant allocator) by identity.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ColumnView {len(self)} rows / {len(self._chunks)} chunks>"


class Table:
    """A named, columnar table stored as fixed-size column chunks."""

    def __init__(self, schema: TableSchema,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS):
        if chunk_rows <= 0 or (chunk_rows & (chunk_rows - 1)) != 0:
            raise CatalogError(
                f"chunk_rows must be a positive power of two, "
                f"got {chunk_rows}")
        self.schema = schema
        self.name = schema.table_name
        self.chunk_rows = chunk_rows
        self._chunk_shift = chunk_rows.bit_length() - 1
        self._chunk_mask = chunk_rows - 1
        #: column name -> list of chunk lists.  All sealed chunks hold
        #: exactly ``chunk_rows`` values; the last entry is the open tail.
        #: The outer lists grow in place, so :class:`ColumnView` objects
        #: (and pointers in generated code) stay valid across inserts.
        self._chunks: dict[str, list[list]] = {
            column.name: [[]] for column in schema.columns}
        self._views: dict[str, ColumnView] = {
            name: ColumnView(self, chunks)
            for name, chunks in self._chunks.items()}
        #: Rows fully inserted (every column has the value).  Readers treat
        #: this as the published length; writers bump it only after the row
        #: landed in all columns, so a reader can never observe a ragged row.
        self._num_rows = 0
        #: column name -> per-sealed-chunk (min, max) zone maps, computed
        #: lazily (``None`` until first requested, ``_NO_ZONE`` for chunks
        #: with NaN) and exact by construction.
        self._zone_maps: dict[str, list] = {
            column.name: [] for column in schema.columns}
        #: column name -> per-sealed-chunk cached numpy arrays.
        self._numpy_chunks: dict[str, list[Optional[np.ndarray]]] = {
            column.name: [] for column in schema.columns}
        #: column name -> cached (array, row_count) full-column concatenation.
        self._numpy_full: dict[str, tuple[np.ndarray, int]] = {}
        #: Serializes writers and row-count snapshots.
        self._lock = threading.RLock()
        #: Invoked after every data mutation; the owning catalog installs a
        #: callback that bumps the table's data version (and, once its
        #: statistics drifted, refreshes them), so *every* mutation path
        #: (``insert_rows`` and ``append_columns`` alike) flows through the
        #: same notification.
        self._on_change: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # loading data
    # ------------------------------------------------------------------ #
    def insert_rows(self, rows: Iterable[Sequence], encode: bool = True) -> int:
        """Append rows (sequences in schema column order).

        ``encode=True`` converts user-level Python values (dates, floats for
        decimals) to the internal representation; generators that already
        produce internal values can pass ``encode=False`` to skip that work.

        Each row is appended atomically: the whole row is validated and
        encoded *before* any chunk is touched (under the table lock), so a
        value that fails to encode can never leave ragged columns behind.
        Rows preceding the failing one stay inserted.
        """
        count = 0
        names = [column.name for column in self.schema.columns]
        types = [column.sql_type for column in self.schema.columns]
        width = len(names)
        try:
            for row in rows:
                if len(row) != width:
                    raise CatalogError(
                        f"row width {len(row)} does not match table "
                        f"{self.name!r} ({width} columns)")
                if encode:
                    row = [encode_python_value(value, sql_type)
                           for sql_type, value in zip(types, row)]
                with self._lock:
                    for name, value in zip(names, row):
                        self._chunks[name][-1].append(value)
                    # Seal *before* publishing the new row count: readers
                    # derive the sealed-chunk count from ``_num_rows``
                    # without taking the lock, so the zone-map/numpy
                    # bookkeeping slots of a freshly sealed chunk must
                    # exist by the time the count says the chunk is sealed.
                    new_count = self._num_rows + 1
                    if new_count & self._chunk_mask == 0:
                        self._seal_tail_locked()
                    self._num_rows = new_count
                count += 1
        finally:
            if count:
                self._data_changed()
        return count

    def append_columns(self, columns: dict[str, list]) -> None:
        """Bulk-append pre-encoded column data (used by the data generators).

        Routes through the same change notification as ``insert_rows``, so
        the catalog's per-table data version is bumped and no cached result
        survives a bulk append.
        """
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise CatalogError("column lengths differ in bulk append")
        expected = set(self._chunks.keys())
        if set(columns.keys()) != expected:
            raise CatalogError(
                f"bulk append must provide exactly the columns {sorted(expected)}")
        if not lengths or not lengths.pop():
            return
        appended = False
        try:
            with self._lock:
                total = len(next(iter(columns.values())))
                cursor = 0
                while cursor < total:
                    space = self.chunk_rows - len(
                        self._chunks[self.schema.columns[0].name][-1])
                    take = min(space, total - cursor)
                    for name, values in columns.items():
                        self._chunks[name][-1].extend(
                            values[cursor:cursor + take])
                    cursor += take
                    appended = True
                    # Seal before publishing the count (see insert_rows).
                    new_count = self._num_rows + take
                    if new_count & self._chunk_mask == 0:
                        self._seal_tail_locked()
                    self._num_rows = new_count
        finally:
            if appended:
                self._data_changed()

    def _seal_tail_locked(self) -> None:
        """Close the (full) tail chunk and open a fresh one (lock held)."""
        for chunks in self._chunks.values():
            chunks.append([])
        for zone_maps in self._zone_maps.values():
            zone_maps.append(None)
        for numpy_chunks in self._numpy_chunks.values():
            numpy_chunks.append(None)

    def _data_changed(self) -> None:
        """Invalidate mutable caches and notify the owning catalog."""
        with self._lock:
            self._numpy_full.clear()
        callback = self._on_change
        if callback is not None:
            callback()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def snapshot_rows(self) -> int:
        """The published row count, read under the table lock.

        Use this (once) when reading several columns that must be sliced
        consistently: concurrent inserts keep growing the chunks, but every
        row below the snapshot is fully written in *all* columns.
        """
        with self._lock:
            return self._num_rows

    @property
    def num_chunks(self) -> int:
        """Number of chunks covering the current rows (incl. the tail)."""
        rows = self._num_rows
        if rows == 0:
            return 0
        return (rows + self.chunk_rows - 1) >> self._chunk_shift

    @property
    def num_sealed_chunks(self) -> int:
        return self._num_rows >> self._chunk_shift

    @property
    def columns(self) -> dict[str, ColumnView]:
        """Column name -> view, for callers that treated columns as lists."""
        return dict(self._views)

    def column_data(self, name: str) -> ColumnView:
        try:
            return self._views[self.schema.column(name).name]
        except KeyError as exc:  # pragma: no cover - schema.column raises first
            raise CatalogError(f"unknown column {name!r}") from exc

    def column_type(self, name: str) -> SQLType:
        return self.schema.column(name).sql_type

    def column_chunks(self, name: str) -> list[list]:
        """The raw chunk lists of one column (sealed chunks are immutable)."""
        return self._chunks[self.schema.column(name).name]

    # ------------------------------------------------------------------ #
    # zone maps
    # ------------------------------------------------------------------ #
    def zone_map(self, name: str, chunk_index: int) -> Optional[tuple]:
        """Exact ``(min, max)`` of one *sealed* chunk, or ``None``.

        ``None`` means the chunk is not sealed (the open tail, or beyond the
        current data): its contents can still change, so it must always be
        scanned.  Sealed-chunk zone maps are computed from the full chunk --
        never from sampled statistics -- so pruning on them is exact.
        """
        if chunk_index >= self.num_sealed_chunks:
            return None
        key = self.schema.column(name).name
        zone_maps = self._zone_maps[key]
        zone = zone_maps[chunk_index]
        if zone is None:
            chunk = self._chunks[key][chunk_index]
            if (self.column_type(name) is SQLType.FLOAT64
                    and any(value != value for value in chunk)):
                # NaN makes min()/max() order-dependent garbage; record
                # that this chunk has no zone map so it is always scanned.
                zone = _NO_ZONE
            else:
                zone = (min(chunk), max(chunk))
            zone_maps[chunk_index] = zone
        return None if zone is _NO_ZONE else zone

    # ------------------------------------------------------------------ #
    # numpy access (vectorized baseline)
    # ------------------------------------------------------------------ #
    def _numpy_dtype(self, sql_type: SQLType):
        if sql_type is SQLType.FLOAT64:
            return np.float64
        if sql_type is SQLType.STRING:
            return object
        return np.int64

    def numpy_chunk(self, name: str, chunk_index: int,
                    limit: Optional[int] = None) -> np.ndarray:
        """A numpy array of one chunk (cached forever for sealed chunks).

        ``limit`` (a row count *within the chunk*) bounds how much of an
        unsealed tail chunk is materialised; sealed chunks ignore it.
        """
        key = self.schema.column(name).name
        dtype = self._numpy_dtype(self.column_type(name))
        if chunk_index < self.num_sealed_chunks:
            cache = self._numpy_chunks[key]
            cached = cache[chunk_index]
            if cached is None:
                cached = np.asarray(self._chunks[key][chunk_index],
                                    dtype=dtype)
                cache[chunk_index] = cached
            return cached
        tail = self._chunks[key][chunk_index]
        if limit is None:
            limit = len(tail)
        return np.asarray(tail[:limit], dtype=dtype)

    def numpy_column(self, name: str) -> np.ndarray:
        """A cached numpy view of a whole column.

        The row count is snapshotted once under the table lock and every
        chunk is sliced to it, so the returned array is internally
        consistent even while concurrent inserts keep appending.  Sealed
        chunks reuse their cached per-chunk arrays; only the open tail is
        re-converted, so repeated calls after inserts cost one small
        conversion plus a concatenation instead of an O(table) rebuild.
        """
        rows = self.snapshot_rows()
        key = self.schema.column(name).name
        cached = self._numpy_full.get(key)
        if cached is not None and cached[1] == rows:
            return cached[0]
        array = self._assemble_numpy(name, rows)
        with self._lock:
            # Publish only if still current (a concurrent insert may have
            # advanced the table past our snapshot; the array itself is
            # still a correct prefix for our caller).
            if self._num_rows == rows:
                self._numpy_full[key] = (array, rows)
        return array

    def _assemble_numpy(self, name: str, rows: int) -> np.ndarray:
        dtype = self._numpy_dtype(self.column_type(name))
        if rows == 0:
            return np.asarray([], dtype=dtype)
        pieces = []
        full, remainder = divmod(rows, self.chunk_rows)
        for chunk_index in range(full):
            pieces.append(self.numpy_chunk(name, chunk_index))
        if remainder:
            key = self.schema.column(name).name
            tail = self._chunks[key][full]
            pieces.append(np.asarray(tail[:remainder], dtype=dtype))
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def numpy_ranges(self, name: str,
                     ranges: Sequence[tuple[int, int]]) -> np.ndarray:
        """Concatenate arbitrary ``[begin, end)`` row ranges of one column.

        Ranges may span several chunks; pieces are assembled per chunk so
        sealed chunks come from the per-chunk numpy cache (whole-chunk
        pieces are the cached arrays themselves, partial pieces are views).
        This is the scan-pruning entry point of the vectorized engine.
        """
        dtype = self._numpy_dtype(self.column_type(name))
        pieces = []
        for begin, end in ranges:
            while begin < end:
                chunk_index = begin >> self._chunk_shift
                chunk_begin = chunk_index << self._chunk_shift
                piece_end = min(end, chunk_begin + self.chunk_rows)
                chunk = self.numpy_chunk(name, chunk_index,
                                         limit=piece_end - chunk_begin)
                lo = begin - chunk_begin
                hi = piece_end - chunk_begin
                pieces.append(chunk if lo == 0 and hi == len(chunk)
                              else chunk[lo:hi])
                begin = piece_end
        if not pieces:
            return np.asarray([], dtype=dtype)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def numpy_snapshot(self, names: Sequence[str]
                       ) -> tuple[dict[str, np.ndarray], int]:
        """Arrays for several columns sliced to one consistent row count.

        This is the race-free entry point for the vectorized engine: the
        row count is snapshotted *once*, so all returned arrays have the
        same length even while pool workers append rows concurrently.
        """
        rows = self.snapshot_rows()
        arrays: dict[str, np.ndarray] = {}
        for name in names:
            key = self.schema.column(name).name
            cached = self._numpy_full.get(key)
            if cached is not None and cached[1] == rows:
                arrays[name] = cached[0]
            else:
                arrays[name] = self._assemble_numpy(name, rows)
        return arrays, rows

    # ------------------------------------------------------------------ #
    def row(self, index: int, decode: bool = False) -> tuple:
        """Materialise one row (mainly for tests and debugging)."""
        values = []
        for column in self.schema.columns:
            value = self._views[column.name][index]
            if decode:
                value = decode_internal_value(value, column.sql_type)
            values.append(value)
        return tuple(values)

    def rows(self, decode: bool = False):
        for index in range(self.num_rows):
            yield self.row(index, decode=decode)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Table {self.name}: {self.num_rows} rows, "
                f"{len(self.schema)} cols, {self.num_chunks} chunks>")
