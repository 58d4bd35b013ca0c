"""The minidb catalog: the namespace of tables and their statistics."""

from __future__ import annotations

from typing import Iterator

from repro.errors import CatalogError
from repro.minidb.schema import TableSchema
from repro.minidb.table import Table

__all__ = ["Catalog"]


class Catalog:
    """A case-insensitive mapping from table names to :class:`Table`.

    ``version`` is bumped whenever the namespace changes (create/drop);
    together with the per-table versions it forms the staleness
    fingerprint used by the prepared-plan cache.
    """

    def __init__(self, storage=None) -> None:
        self._tables: dict[str, Table] = {}
        self.version = 0
        #: Disk storage backend shared by every table, or None (memory).
        self.storage = storage

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def create_table(self, name: str, schema: TableSchema) -> Table:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if self.storage is not None:
            self.storage.log_create_table(key, schema)
        table = Table(key, schema, storage=self.storage)
        self._tables[key] = table
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        if self.storage is not None:
            self.storage.log_drop_table(key)
        del self._tables[key]
        self.version += 1

    def attach(self, table: Table) -> None:
        """Register a table recovered from storage (no WAL logging)."""
        self._tables[table.name] = table
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise CatalogError(
                f"no table named {name!r}; known tables: {known}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)
