"""In-memory row storage for minidb tables.

A :class:`Table` owns a list of row tuples in insertion order plus any
number of single-column :class:`SortedIndex` objects. Rows are validated
and coerced against the schema at insert time so downstream operators
never re-check types. A disk table is the same list; its storage logs
every mutation to the WAL before the list changes.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import CatalogError, SchemaError
from repro.minidb.index import SortedIndex
from repro.minidb.schema import TableSchema
from repro.minidb.types import coerce_value

__all__ = ["PrivateTable", "Table", "TableVersion", "private_table"]


class TableVersion(NamedTuple):
    """One catalog table as a snapshot pinned it.

    Catalog tables only grow, so a pin is a bound: the first
    ``row_count`` rows of the live store, read by position. Positions
    below the bound are stable across any number of concurrent appends,
    which is what lets readers run without blocking ingest. A pin is a
    plain value: nothing registers it and nothing has to retire it.
    """

    table: "Table"
    schema_epoch: int
    row_count: int


class Table:
    """A named, schema-validated collection of row tuples.

    A catalog table only grows: every mutation (insert, bulk load,
    append) extends ``rows``, so its row count is its whole history —
    the rows that arrived since a reader looked are ``rows[seen:]``,
    and a snapshot pins a table by its count (:class:`TableVersion`).
    Only a :class:`PrivateTable` can be rewritten.

    Staleness of derived state is tracked by two monotone epoch
    counters:

    * ``schema_epoch`` — bumped by structural changes (index creation).
    * ``data_epoch``   — bumped by every row mutation, including
      ``PrivateTable.replace_rows``, which can keep the row count.

    ``version`` (their sum) is what consumers that memoize anything
    derived from the table — statistics, prepared plans — record and
    compare.
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
        self._columns: list[list] | None = None
        self._columns_rows = 0
        # Guards the columnar cache's lazy build/extension: two readers
        # (or a reader racing ingest) must not extend the same column
        # lists concurrently.
        self._columnar_lock = threading.Lock()

    @property
    def version(self) -> int:
        """Combined staleness counter (schema + data epochs).

        Strictly monotone because both addends are.
        """
        return self.schema_epoch + self.data_epoch

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={len(self.rows)})"

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
        self.data_epoch += 1
        for index in self.indexes.values():
            key_position = self.schema.position_of(index.column)
            index.insert(row[key_position], position)
        self._mutation_complete()

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many rows as one data epoch; indexes patched in place.

        The streaming ingestion primitive: unlike :meth:`bulk_load` it
        never rebuilds indexes (entries for the new rows are merged in).
        Returns the number of rows appended.
        """
        coerce = self._coerce_row
        fresh = [coerce(values) for values in rows]
        if not fresh:
            return 0
        start = len(self.rows)
        self._extend(fresh)
        self.data_epoch += 1
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
        if fresh:
            self._extend(fresh)
            self.data_epoch += 1
        self.rebuild_indexes(self.indexes.values())
        self._mutation_complete()
        return len(fresh)

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
            index.build(self.columnar()[self.schema.position_of(index.column)])

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

    def _invalidate_columnar(self) -> None:
        """Drop the cached transpose after a non-append rewrite.

        ``PrivateTable.replace_rows`` calls this eagerly so a stale copy
        (one full duplicate of the table) is never retained until the
        next ``columnar()`` call — under fixpoint/update workloads those
        copies used to accumulate for the lifetime of each superseded
        version. Appends do NOT invalidate: the cache records how many
        rows it has transposed and extends itself lazily.
        """
        self._columns = None
        self._columns_rows = 0

    def columnar(self) -> list[list]:
        """The table contents as one list per column (insertion order).

        The transpose is cached; appends extend it in place (only the
        tail rows are transposed), and only full rewrites of a private
        table (``replace_rows``) evict it. Callers must not mutate the returned
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


class PrivateTable(Table):
    """A storage-less table that no catalog holds: derived state.

    A cached cleansed region or a fixpoint scratch table. No snapshot
    pins it and no WAL logs it, so unlike a catalog table it can be
    rewritten in place.
    """

    def replace_rows(self, rows: Iterable[Sequence[Any]], *,
                     coerced: bool = False) -> int:
        """Swap the table's contents for *rows*.

        One call performs the whole consistency dance — coerce, swap,
        bump the data epoch, rebuild every index, drop the columnar
        cache — so callers cannot end up with rows that disagree with
        the indexes or with version-keyed caches. Returns the new row
        count.

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
        self.rows = new_rows
        self.data_epoch += 1
        self._invalidate_columnar()
        self.rebuild_indexes(self.indexes.values())
        return len(new_rows)


def private_table(label: str, schema: TableSchema) -> PrivateTable:
    """A :class:`PrivateTable` for derived state.

    It is named ``"<label>"`` with the double quotes: a quoted SQL
    identifier cannot contain one, so no statement can name the table,
    and the name can key ``Database.stats`` beside catalog tables
    without colliding with one.
    """
    return PrivateTable(f'"{label}"', schema)
