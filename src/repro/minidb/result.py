"""Query result sets."""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.minidb.types import sort_key

__all__ = ["ResultSet"]


class ResultSet:
    """A fully-materialized query result.

    Rows are tuples in output order; ``columns`` carries the output
    column names. Convenience accessors cover the common test patterns
    (dict rows, single scalar, set comparison).
    """

    def __init__(self, columns: Sequence[str], rows: list[tuple]) -> None:
        self.columns = list(columns)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> tuple:
        return self.rows[index]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as name -> value dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """All values of one output column."""
        position = self.columns.index(name.lower())
        return [row[position] for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns")
        return self.rows[0][0]

    def as_set(self) -> set[tuple]:
        """Rows as a set, for order-insensitive comparisons."""
        return set(self.rows)

    def canonical(self) -> tuple[tuple, ...]:
        """Order-insensitive canonical form preserving duplicates.

        Rows sorted under the engine's total order (NULLs first, values
        type-bucketed), returned as a hashable tuple: two result sets
        over the same output columns answer the same bag of rows iff
        their canonical forms compare equal. This is the comparison the
        differential oracle uses across rewrite strategies, which may
        emit identical row bags in different physical orders.
        """
        return tuple(sorted(
            self.rows,
            key=lambda row: tuple(sort_key(value) for value in row)))

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width text rendering of the first *limit* rows."""
        shown = self.rows[:limit]
        cells = [[str(value) for value in row] for row in shown]
        widths = [len(name) for name in self.columns]
        for row in cells:
            for position, text in enumerate(row):
                widths[position] = max(widths[position], len(text))
        header = " | ".join(name.ljust(width)
                            for name, width in zip(self.columns, widths))
        separator = "-+-".join("-" * width for width in widths)
        lines = [header, separator]
        for row in cells:
            lines.append(" | ".join(text.ljust(width)
                                    for text, width in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ResultSet({len(self.rows)} rows x {len(self.columns)} cols)"
