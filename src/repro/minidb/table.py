"""In-memory row storage for minidb tables.

A :class:`Table` owns a list of row tuples in insertion order plus any
number of single-column :class:`SortedIndex` objects. Rows are validated
and coerced against the schema at insert time so downstream operators
never re-check types. A disk table is the same list; its storage logs
every mutation to the WAL before the list changes.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import CatalogError, SchemaError
from repro.minidb.index import SortedIndex
from repro.minidb.schema import TableSchema
from repro.minidb.types import coerce_value

__all__ = ["Table", "TableVersion"]

# Bounded delta history: once more appends than this have happened since
# the oldest un-truncated epoch, the log's floor rises and older readers
# fall back to full invalidation. 256 epochs comfortably covers any
# realistic trickle between two queries while bounding memory to a few KB.
_DELTA_LOG_LIMIT = 256


class TableVersion:
    """A refcounted, immutable view of one table at one data epoch.

    MVCC for an append-mostly store: appends only ever *extend* the row
    sequence, so a version is usually just a bound — ``row_count`` rows
    of the live store, read by position. Positions below the bound are
    stable across any number of concurrent appends, which is what lets
    readers run without blocking ingest.

    A whole-table rewrite (``replace_rows``) breaks position stability;
    before applying one, the table *detaches* every live version by
    materializing its row prefix into ``frozen_rows``. Readers switch to
    the frozen copy transparently; the copy is released when the last
    pin drains (``Table.release_version``).
    """

    __slots__ = ("table", "schema_epoch", "data_epoch", "row_count",
                 "refcount", "frozen_rows")

    def __init__(self, table: "Table", schema_epoch: int, data_epoch: int,
                 row_count: int) -> None:
        self.table = table
        self.schema_epoch = schema_epoch
        self.data_epoch = data_epoch
        self.row_count = row_count
        self.refcount = 0
        #: Materialized row prefix, set only when the version had to be
        #: detached from the live store (see ``Table._detach_pinned``).
        #: May hold more than ``row_count`` rows (memory mode retains
        #: the superseded list object wholesale); readers always bound
        #: by ``row_count``.
        self.frozen_rows: Sequence[tuple] | None = None

    @property
    def detached(self) -> bool:
        """True when this version no longer reads the live row store."""
        return self.frozen_rows is not None

    def __repr__(self) -> str:
        state = "detached" if self.detached else "live"
        return (f"TableVersion({self.table.name!r}, "
                f"epoch={self.data_epoch}, rows={self.row_count}, "
                f"refs={self.refcount}, {state})")


class Table:
    """A named, schema-validated collection of row tuples.

    Staleness is tracked by two monotone epoch counters instead of one
    opaque version:

    * ``schema_epoch`` — bumped by structural changes (index creation).
    * ``data_epoch``   — bumped by every row mutation (insert, bulk load,
      append, replace).

    ``version`` (their sum) preserves the original contract: consumers
    that memoize anything derived from the table — statistics, prepared
    plans, materialized cleansing regions — record the version they saw
    and treat a mismatch as staleness. Append-aware consumers can do
    better: each append-only mutation is recorded in a bounded delta log,
    and :meth:`delta_since` tells them exactly which row ranges arrived
    after the epoch they captured, so they can patch instead of rebuild.
    """

    def __init__(self, name: str, schema: TableSchema,
                 storage=None) -> None:
        self.name = name.lower()
        self.schema = schema
        #: The owning :class:`~repro.minidb.storage.backend.DiskStorage`
        #: of a disk table (or None): every mutation is logged to it
        #: before the row list changes.
        self.storage = storage
        self.rows: list[tuple] = []
        self.indexes: dict[str, SortedIndex] = {}
        self.schema_epoch = 0
        self.data_epoch = 0
        # Delta log: (data_epoch, start, count) per append-only mutation.
        # _delta_floor is the oldest epoch delta_since() can still answer
        # for; anything older must be treated as a full rewrite.
        self._delta_log: list[tuple[int, int, int]] = []
        self._delta_floor = 0
        self._columns: list[list] | None = None
        self._columns_rows = 0
        # Pinned snapshot versions by data epoch. Pinning the same epoch
        # twice shares one TableVersion (refcounted); the registry only
        # holds versions with live pins.
        self._pinned: dict[int, TableVersion] = {}
        # Guards the columnar cache's lazy build/extension: two readers
        # (or a reader racing ingest) must not extend the same column
        # lists concurrently.
        self._columnar_lock = threading.Lock()

    @property
    def version(self) -> int:
        """Combined staleness counter (schema + data epochs).

        Strictly monotone because both addends are; kept as a property so
        every pre-delta consumer keeps working unchanged.
        """
        return self.schema_epoch + self.data_epoch

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={len(self.rows)})"

    # ------------------------------------------------------------------
    # Delta log
    # ------------------------------------------------------------------

    def _log_append(self, start: int, count: int) -> None:
        self.data_epoch += 1
        self._delta_log.append((self.data_epoch, start, count))
        if len(self._delta_log) > _DELTA_LOG_LIMIT:
            dropped_epoch, _, _ = self._delta_log.pop(0)
            self._delta_floor = dropped_epoch

    def _rebase_deltas(self) -> None:
        """Forget append history after a non-append rewrite.

        ``replace_rows`` invalidates every row position, so pre-existing
        delta ranges are meaningless; only epochs captured from this
        point on can be patched.
        """
        self.data_epoch += 1
        self._delta_log.clear()
        self._delta_floor = self.data_epoch

    # ------------------------------------------------------------------
    # MVCC snapshot versions
    # ------------------------------------------------------------------

    def pin_version(self) -> TableVersion:
        """Pin the current data epoch as an immutable read view.

        Cheap: no rows are copied. Concurrent appends extend the store
        past the pinned ``row_count`` without disturbing it; a
        ``replace_rows`` rewrite detaches the version onto a frozen copy
        first. Must be balanced by :meth:`release_version`.
        """
        version = self._pinned.get(self.data_epoch)
        if version is None:
            version = TableVersion(self, self.schema_epoch,
                                   self.data_epoch, len(self.rows))
            self._pinned[self.data_epoch] = version
        version.refcount += 1
        return version

    def release_version(self, version: TableVersion) -> None:
        """Drop one pin; the version retires when its refcount drains."""
        version.refcount -= 1
        if version.refcount > 0:
            return
        current = self._pinned.get(version.data_epoch)
        if current is version:
            del self._pinned[version.data_epoch]
        # Retire: release any frozen copy a rewrite forced us to keep.
        version.frozen_rows = None

    def pinned_versions(self) -> list[TableVersion]:
        """Currently pinned versions (observability / tests)."""
        return list(self._pinned.values())

    def _detach_pinned(self) -> None:
        """Freeze live pinned versions before a position-breaking rewrite.

        Retains the superseded row-list object itself (zero copy —
        ``replace_rows`` swaps in a brand-new list, so the old one is
        never mutated again).
        """
        for version in self._pinned.values():
            if version.frozen_rows is None:
                version.frozen_rows = self.rows

    def delta_since(self, data_epoch: int) -> list[tuple[int, int]] | None:
        """Row ranges appended after *data_epoch*, or None if unknowable.

        Returns ``[]`` when the caller is already current, a list of
        ``(start, count)`` ranges (epoch order) when every intervening
        mutation was an append, and ``None`` when history has been
        truncated or rewritten — the caller must fall back to a full
        rebuild in that case.
        """
        if data_epoch >= self.data_epoch:
            return []
        if data_epoch < self._delta_floor:
            return None
        return [(start, count)
                for epoch, start, count in self._delta_log
                if epoch > data_epoch]

    # ------------------------------------------------------------------
    # Storage hooks
    # ------------------------------------------------------------------

    def _extend(self, rows: list[tuple]) -> None:
        """Append coerced *rows*: one WAL transaction on a disk table."""
        if self.storage is not None:
            self.storage.log_append(self.name, rows)
        self.rows.extend(rows)

    def _mutation_complete(self) -> None:
        """Tell disk storage a mutation fully applied (rows + indexes).

        This is the only point a checkpoint may trigger from: rows and
        index entries are consistent here, so the manifest can never
        capture a half-applied batch.
        """
        if self.storage is not None:
            self.storage.mutation_complete()

    def release_derived(self) -> None:
        """Drop the column cache and every index's entries.

        Both are derived from the rows. Disk storage calls this, and
        empties the row list, when it closes: a shut-down database that
        something still references holds no copy of its tables.
        """
        self._invalidate_columnar()
        for index in self.indexes.values():
            index.build(())

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _coerce_row(self, values: Sequence[Any]) -> tuple:
        if len(values) != len(self.schema):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(values)}")
        return tuple(
            coerce_value(value, column.sql_type)
            for value, column in zip(values, self.schema))

    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row (positional sequence or name -> value mapping)."""
        if isinstance(values, Mapping):
            values = [values.get(name) for name in self.schema.names]
        row = self._coerce_row(values)
        position = len(self.rows)
        self._extend([row])
        self._log_append(position, 1)
        for index in self.indexes.values():
            key_position = self.schema.position_of(index.column)
            index.insert(row[key_position], position)
        self._mutation_complete()

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows as one delta epoch; indexes patched in place.

        The streaming ingestion primitive: unlike :meth:`bulk_load` it
        never rebuilds indexes (entries for the new rows are merged in),
        and the whole batch lands as a single entry in the delta log so
        append-aware caches can re-derive exactly what changed. Returns
        the number of rows appended.
        """
        coerce = self._coerce_row
        fresh = [coerce(values) for values in rows]
        if not fresh:
            return 0
        start = len(self.rows)
        self._extend(fresh)
        self._log_append(start, len(fresh))
        for index in self.indexes.values():
            key_position = self.schema.position_of(index.column)
            index.insert_many(
                (row[key_position], start + offset)
                for offset, row in enumerate(fresh))
        self._mutation_complete()
        return len(fresh)

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows; indexes are rebuilt once at the end.

        Returns the number of rows loaded.
        """
        coerce = self._coerce_row
        fresh = [coerce(values) for values in rows]
        start = len(self.rows)
        if fresh:
            self._extend(fresh)
            self._log_append(start, len(fresh))
        self.rebuild_indexes(self.indexes.values())
        self._mutation_complete()
        return len(fresh)

    def replace_rows(self, rows: Iterable[Sequence[Any]], *,
                     coerced: bool = False) -> int:
        """Atomically swap the table contents for *rows*.

        One call performs the whole consistency dance — coerce, swap,
        bump the data epoch, rebuild every index, drop the columnar cache
        and rebase the delta log — so callers iterating toward a fixpoint
        (or otherwise rewriting a table in place) cannot end up with rows
        that disagree with the indexes or with version-keyed caches.
        Returns the new row count.

        ``coerced=True`` skips per-value coercion: the caller asserts
        every row is already a schema-coerced tuple (it was read from
        this table or materialized by a plan over coerced tables). The
        fast path for splice-style rewrites that shuffle existing rows.
        """
        if coerced:
            new_rows = rows if isinstance(rows, list) else list(rows)
        else:
            coerce = self._coerce_row
            new_rows = [coerce(values) for values in rows]
        # Rewrites break position stability; pinned snapshot versions
        # must be frozen onto copies before the store is touched.
        self._detach_pinned()
        if self.storage is not None:
            self.storage.log_replace(self.name, new_rows)
        self.rows = new_rows
        self._rebase_deltas()
        self._invalidate_columnar()
        self.rebuild_indexes(self.indexes.values())
        self._mutation_complete()
        return len(new_rows)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def create_index(self, column: str, name: str | None = None) -> SortedIndex:
        """Create (and build) a sorted index on *column*."""
        column = column.lower()
        self.schema.position_of(column)  # validates the column exists
        index_name = (name or f"idx_{self.name}_{column}").lower()
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        if self.storage is not None:
            self.storage.log_create_index(self.name, column, index_name)
        index = SortedIndex(index_name, column)
        self.rebuild_indexes([index])
        self.indexes[index_name] = index
        self.schema_epoch += 1
        self._mutation_complete()
        return index

    def rebuild_indexes(self, indexes: Iterable[SortedIndex]) -> None:
        """Build *indexes* from the rows.

        Indexes are derived data in both storage modes: disk storage
        persists only each index's name and column, and rebuilds every
        index of a table this way when it attaches the table.
        """
        for index in indexes:
            key_position = self.schema.position_of(index.column)
            index.build((row[key_position], position)
                        for position, row in enumerate(self.rows))

    def index_on(self, column: str) -> SortedIndex | None:
        """The first index whose key is *column*, or None."""
        column = column.lower()
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[tuple]:
        """Yield all rows in insertion order."""
        return iter(self.rows)

    def _invalidate_columnar(self) -> None:
        """Drop the cached transpose after a non-append rewrite.

        ``replace_rows`` calls this eagerly so a stale copy (one full
        duplicate of the table) is never retained until the next
        ``columnar()`` call — under fixpoint/update workloads those
        copies used to accumulate for the lifetime of each superseded
        version. Appends do NOT invalidate: the cache records how many
        rows it has transposed and extends itself lazily.
        """
        self._columns = None
        self._columns_rows = 0

    def columnar(self) -> list[list]:
        """The table contents as one list per column (insertion order).

        The transpose is cached; appends extend it in place (only the
        tail rows are transposed), and only full rewrites
        (``replace_rows``) evict it. Callers must not mutate the returned
        lists (batch columns are shared, never written in place).

        Build/extension happens under a lock: concurrent snapshot
        readers (or a reader racing ingest) must not double-extend the
        shared column lists. Columns only ever *grow* between rewrites,
        so a reader that bounds its slices by a pinned row count sees a
        stable prefix regardless of concurrent extension.
        """
        with self._columnar_lock:
            return self._columnar_locked()

    def _columnar_locked(self) -> list[list]:
        if self._columns is None:
            if self.rows:
                self._columns = [list(column)
                                 for column in zip(*self.rows)]
            else:
                self._columns = [[] for _ in self.schema]
            self._columns_rows = len(self.rows)
        elif self._columns_rows < len(self.rows):
            tail = self.rows[self._columns_rows:]
            for position, column in enumerate(self._columns):
                column.extend(row[position] for row in tail)
            self._columns_rows = len(self.rows)
        return self._columns

    def column_values(self, name: str) -> Iterator[Any]:
        """Yield the values of one column across all rows."""
        position = self.schema.position_of(name)
        for row in self.rows:
            yield row[position]
