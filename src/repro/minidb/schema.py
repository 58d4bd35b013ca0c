"""Column and table schema definitions for minidb.

A :class:`TableSchema` is an ordered list of :class:`Column` objects with
fast name -> position lookup. Schemas are immutable; derived schemas
(projections, joins, added columns) are built with the ``project`` /
``join`` / ``with_column`` helpers so every plan node can state its output
schema exactly.

Column names are case-insensitive (normalized to lower case), matching
common SQL behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.minidb.types import SqlType

__all__ = ["Column", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Attributes:
        name: lower-cased column name.
        sql_type: declared :class:`SqlType`.
    """

    name: str
    sql_type: SqlType

    def __post_init__(self) -> None:
        normalized = self.name.lower()
        if not normalized or not normalized.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        object.__setattr__(self, "name", normalized)

    def renamed(self, name: str) -> "Column":
        """A copy of this column under a new name."""
        return Column(name, self.sql_type)


class TableSchema:
    """An immutable ordered collection of :class:`Column` objects."""

    __slots__ = ("_columns", "_positions")

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: tuple[Column, ...] = tuple(columns)
        self._positions: dict[str, int] = {}
        for position, column in enumerate(self._columns):
            if column.name in self._positions:
                raise SchemaError(f"duplicate column name {column.name!r}")
            self._positions[column.name] = position

    @classmethod
    def of(cls, *pairs: tuple[str, SqlType]) -> "TableSchema":
        """Build a schema from ``(name, type)`` pairs.

        Example::

            TableSchema.of(("epc", SqlType.VARCHAR), ("rtime", SqlType.TIMESTAMP))
        """
        return cls(Column(name, sql_type) for name, sql_type in pairs)

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TableSchema) and self._columns == other._columns

    def __repr__(self) -> str:
        body = ", ".join(f"{c.name} {c.sql_type.value}" for c in self._columns)
        return f"TableSchema({body})"

    def has_column(self, name: str) -> bool:
        return name.lower() in self._positions

    def position_of(self, name: str) -> int:
        """Index of column *name*, raising :class:`SchemaError` if absent."""
        try:
            return self._positions[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {', '.join(self.names)}"
            ) from None

    def column(self, name: str) -> Column:
        return self._columns[self.position_of(name)]

    def type_of(self, name: str) -> SqlType:
        return self.column(name).sql_type

    def project(self, names: Sequence[str]) -> "TableSchema":
        """Schema containing only *names*, in the given order."""
        return TableSchema(self.column(name) for name in names)

    def join(self, other: "TableSchema") -> "TableSchema":
        """Concatenation of two schemas (column names must stay unique)."""
        return TableSchema((*self._columns, *other._columns))

    def with_column(self, column: Column) -> "TableSchema":
        """Schema extended with one appended column."""
        return TableSchema((*self._columns, column))

    def covers(self, other: "TableSchema") -> bool:
        """Whether this schema includes every column of *other* (by name
        and type), regardless of position. Used to check that rule input
        tables include all columns of the table the rule is defined on.
        """
        for column in other:
            if not self.has_column(column.name):
                return False
            if self.type_of(column.name) is not column.sql_type:
                return False
        return True
