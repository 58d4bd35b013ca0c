"""Qualified output schemas for plan nodes.

Unlike a stored :class:`~repro.minidb.schema.TableSchema`, a plan node's
output schema carries a *qualifier* per field (the table binding the
field came from) so that expressions like ``c.rtime`` can be resolved
against join outputs where two inputs may both have an ``rtime`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import PlanningError
from repro.minidb.schema import Column, TableSchema
from repro.minidb.types import SqlType

__all__ = ["Field", "PlanSchema"]

#: Index entry of an unqualified name that more than one field carries.
_AMBIGUOUS = -1


@dataclass(frozen=True)
class Field:
    """One output field: an optional qualifier, a name, and a type.

    ``origin`` traces the field back to a stored ``(table, column)`` when
    the field is a pass-through of a base-table column; the optimizer
    uses it to look up statistics and candidate indexes. Computed fields
    have ``origin=None``.
    """

    name: str
    sql_type: SqlType
    qualifier: str | None = None
    origin: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        if self.qualifier is not None:
            object.__setattr__(self, "qualifier", self.qualifier.lower())

    def display(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


class PlanSchema:
    """An ordered list of :class:`Field` with qualified-name resolution.

    A schema never changes after construction, so its name -> position
    index is built once, on the first lookup.
    """

    __slots__ = ("fields", "_index")

    def __init__(self, fields: Iterable[Field]) -> None:
        self.fields: tuple[Field, ...] = tuple(fields)
        self._index: tuple[dict[tuple[str, str], int],
                           dict[str, int]] | None = None

    @classmethod
    def from_table(cls, schema: TableSchema, binding: str,
                   table_name: str | None = None) -> "PlanSchema":
        """Qualify every column of a stored table with its binding name."""
        return cls(Field(column.name, column.sql_type, binding,
                         origin=(table_name or binding, column.name))
                   for column in schema)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __repr__(self) -> str:
        return f"PlanSchema({', '.join(f.display() for f in self.fields)})"

    def _build_index(self) -> tuple[dict[tuple[str, str], int],
                                    dict[str, int]]:
        """``((qualifier, name) -> first position, name -> position or
        _AMBIGUOUS)``, built once."""
        qualified: dict[tuple[str, str], int] = {}
        unqualified: dict[str, int] = {}
        for position, field in enumerate(self.fields):
            if field.qualifier is not None:
                qualified.setdefault((field.qualifier, field.name), position)
            unqualified[field.name] = (
                _AMBIGUOUS if field.name in unqualified else position)
        self._index = (qualified, unqualified)
        return self._index

    def _lookup(self, qualifier: str | None, name: str) -> int | None:
        """The position of ``qualifier.name``, _AMBIGUOUS, or None."""
        qualified, unqualified = self._index or self._build_index()
        if qualifier is not None:
            return qualified.get((qualifier.lower(), name.lower()))
        return unqualified.get(name.lower())

    def resolve(self, qualifier: str | None, name: str) -> int:
        """Position of the field ``qualifier.name``.

        Unqualified lookups must match exactly one field name across the
        whole schema; ambiguity is a planning error, as in SQL.
        """
        position = self._lookup(qualifier, name)
        if position is None:
            wanted = name.lower() if qualifier is None \
                else f"{qualifier.lower()}.{name.lower()}"
            raise PlanningError(
                f"no column {wanted}; available: "
                f"{', '.join(f.display() for f in self.fields)}")
        if position == _AMBIGUOUS:
            raise PlanningError(
                f"ambiguous column reference {name.lower()!r}")
        return position

    def resolver(self):
        """An expression-binding resolver closure over this schema."""
        return self.resolve

    def has(self, qualifier: str | None, name: str) -> bool:
        position = self._lookup(qualifier, name)
        return position is not None and position != _AMBIGUOUS

    def concat(self, other: "PlanSchema") -> "PlanSchema":
        return PlanSchema((*self.fields, *other.fields))

    def requalify(self, binding: str) -> "PlanSchema":
        """All fields re-qualified under one binding (derived tables)."""
        return PlanSchema(Field(field.name, field.sql_type, binding,
                                field.origin)
                          for field in self.fields)

    def append(self, field: Field) -> "PlanSchema":
        return PlanSchema((*self.fields, field))

    def to_table_schema(self) -> TableSchema:
        """Strip qualifiers; requires unique field names."""
        return TableSchema(Column(field.name, field.sql_type)
                           for field in self.fields)
