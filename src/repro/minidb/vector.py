"""Columnar row batches: the executor's only execution surface.

The executor moves data between operators as :class:`RowBatch` chunks:
a fixed-size block of rows stored column-wise as plain Python lists (no
numpy — the engine stays dependency-free). Operators evaluate whole
chunks with list comprehensions instead of calling a closure per row,
which removes most of the Python function-call overhead that dominates
tuple-at-a-time interpretation.

``REPRO_BATCH_SIZE`` sets the rows per chunk: unset means
:data:`DEFAULT_BATCH_SIZE`, ``<n>`` (n ≥ 1) means ``n``. A value below 1
is not a mode: it warns (:class:`~repro.knobs.UnknownKnobWarning`) and
runs the default.

Invariant: batch columns are never mutated in place. Operators that
drop or reorder rows build new column lists (:meth:`RowBatch.take`),
so a column list may be safely shared between a child batch, a parent
batch, and a table's columnar cache.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Any, Iterator, Sequence

from repro.knobs import UnknownKnobWarning, int_knob

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "RowBatch",
    "concat_columns",
    "configured_batch_size",
    "encode_stats",
    "forced_batch_size",
    "materialize",
]

#: Rows per batch when ``REPRO_BATCH_SIZE`` is unset. Large enough to
#: amortize per-batch setup, small enough to keep chunks cache-friendly.
DEFAULT_BATCH_SIZE = 1024


def configured_batch_size() -> int:
    """Rows per batch from ``REPRO_BATCH_SIZE`` (always ≥ 1)."""
    size = int_knob("REPRO_BATCH_SIZE", DEFAULT_BATCH_SIZE, 0)
    if size < 1:
        warnings.warn(
            f"REPRO_BATCH_SIZE must be at least 1; using the default "
            f"{DEFAULT_BATCH_SIZE}", UnknownKnobWarning, stacklevel=2)
        return DEFAULT_BATCH_SIZE
    return size


@contextlib.contextmanager
def forced_batch_size(size: int) -> Iterator[None]:
    """Pin ``REPRO_BATCH_SIZE`` to *size* (≥ 1) for a block.

    ``size=0`` is a no-op stub: it leaves the environment untouched and
    warns about nothing. The frozen benchmark's oracle still wraps its
    reference queries in ``forced_batch_size(0)``; the stub goes when
    that call does.
    """
    if size < 1:
        yield
        return
    saved = os.environ.get("REPRO_BATCH_SIZE")
    os.environ["REPRO_BATCH_SIZE"] = str(size)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_BATCH_SIZE", None)
        else:
            os.environ["REPRO_BATCH_SIZE"] = saved


# 0 stub: only bench/ reads it; the [benchmark] PR deletes it
def encode_stats() -> tuple[int, int, int]:
    """Always ``(0, 0, 0)``."""
    return (0, 0, 0)


def concat_columns(batches: "list[RowBatch]", width: int) -> "RowBatch":
    """Column-wise concatenation of batches into one big batch."""
    if len(batches) == 1:
        return batches[0]
    columns: list[list] = []
    for position in range(width):
        merged: list = []
        for batch in batches:
            merged.extend(batch.columns[position])
        columns.append(merged)
    return RowBatch(columns, sum(batch.length for batch in batches))


class RowBatch:
    """A columnar chunk of rows.

    ``columns`` holds one plain list per output field, all of length
    ``length``. The row-tuple form is derived lazily and cached, so a
    batch that several consumers need row-wise transposes only once.
    ``length`` is carried separately from the columns so zero-width
    batches (projections of no columns) still know their cardinality.
    """

    __slots__ = ("columns", "length", "_rows")

    def __init__(self, columns: list[list], length: int,
                 rows: list[tuple] | None = None) -> None:
        self.columns = columns
        self.length = length
        self._rows = rows

    @classmethod
    def from_rows(cls, rows: list[tuple], width: int) -> "RowBatch":
        """Transpose row tuples into a batch (caching the row form)."""
        if rows:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in range(width)]
        return cls(columns, len(rows), rows=rows)

    def rows(self) -> list[tuple]:
        """The batch as row tuples (computed once, then cached)."""
        if self._rows is None:
            if self.columns:
                self._rows = list(zip(*self.columns))
            else:
                self._rows = [()] * self.length
        return self._rows

    def take(self, indices: Sequence[int]) -> "RowBatch":
        """A new batch holding the rows at *indices*, in that order."""
        return RowBatch([[column[i] for i in indices]
                         for column in self.columns], len(indices))

    def head(self, count: int) -> "RowBatch":
        """A new batch holding the first *count* rows."""
        rows = self._rows[:count] if self._rows is not None else None
        return RowBatch([column[:count] for column in self.columns],
                        count, rows=rows)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"RowBatch({self.length} rows x {len(self.columns)} cols)"


def materialize(plan: Any) -> list[tuple]:
    """Drain a physical plan into a row list.

    Equivalent to ``list(plan.rows())`` but avoids the per-row generator
    hop: batches are extended into the output list wholesale.
    """
    out: list[tuple] = []
    for batch in plan.batches():
        out.extend(batch.rows())
    return out
