"""Columnar row batches for the vectorized execution path.

The executor moves data between operators as :class:`RowBatch` chunks:
a fixed-size block of rows stored column-wise as plain Python lists (no
numpy — the engine stays dependency-free). Vectorized operators evaluate
whole chunks with list comprehensions instead of calling a closure per
row, which removes most of the Python function-call overhead that
dominates tuple-at-a-time interpretation.

Execution mode is controlled by ``REPRO_BATCH_SIZE``:

* unset → batches of :data:`DEFAULT_BATCH_SIZE` rows;
* ``REPRO_BATCH_SIZE=<n>`` (n ≥ 1) → batches of ``n`` rows;
* ``REPRO_BATCH_SIZE=0`` → batch execution disabled; every operator runs
  its original tuple-at-a-time ``scalar_rows()`` implementation. This is
  the "before" baseline for the vectorization benchmarks and the
  reference side of the fuzz oracle's ``vectorized`` strategy.

``REPRO_VECTOR_FALLBACK=1`` additionally forces every expression to the
generic row-at-a-time batch kernel (the row-bound closure applied
elementwise) instead of the specialized vectorized kernels, giving a
second differential axis: specialized kernels vs the scalar evaluator
over identical batch plumbing.

Invariant: batch columns are never mutated in place. Operators that
drop or reorder rows build new column lists (:meth:`RowBatch.take`),
so a column list may be safely shared between a child batch, a parent
batch, and a table's columnar cache.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator, Sequence

from repro.knobs import int_knob

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "RowBatch",
    "batch_execution_enabled",
    "concat_columns",
    "configured_batch_size",
    "encode_stats",
    "forced_batch_size",
    "materialize",
    "vector_fallback_enabled",
]

#: Rows per batch when ``REPRO_BATCH_SIZE`` is unset. Large enough to
#: amortize per-batch setup, small enough to keep chunks cache-friendly.
DEFAULT_BATCH_SIZE = 1024


def configured_batch_size() -> int:
    """Batch size from ``REPRO_BATCH_SIZE``; 0 disables batch execution."""
    return int_knob("REPRO_BATCH_SIZE", DEFAULT_BATCH_SIZE, 0)


def batch_execution_enabled() -> bool:
    """Whether operators should run their ``batches()`` path."""
    return configured_batch_size() > 0


def vector_fallback_enabled() -> bool:
    """Whether expressions must use the generic elementwise kernel."""
    return os.environ.get("REPRO_VECTOR_FALLBACK", "").strip() == "1"


@contextlib.contextmanager
def forced_batch_size(size: int) -> Iterator[None]:
    """Pin ``REPRO_BATCH_SIZE`` for a block (0 = tuple-at-a-time)."""
    saved = os.environ.get("REPRO_BATCH_SIZE")
    os.environ["REPRO_BATCH_SIZE"] = str(size)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_BATCH_SIZE", None)
        else:
            os.environ["REPRO_BATCH_SIZE"] = saved


def encode_stats() -> tuple[int, int, int]:
    """``(0, 0, bytes_saved)``: stub kept for the frozen benchmark.

    ``bench/statements.py`` is the only reader; the two zeros stand where
    the counters of the deleted executor-side encoded columns
    (DictColumn / RLEColumn served, decode_fallbacks) used to be. The
    follow-up ``[benchmark]`` PR that drops ``exec.encoded_columns`` and
    ``exec.decode_fallbacks`` deletes it.
    """
    from repro.minidb.storage.heap import bytes_saved

    return (0, 0, bytes_saved())


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

    def slice(self, lo: int, hi: int) -> "RowBatch":
        """A new batch holding the contiguous rows ``[lo, hi)``."""
        rows = self._rows[lo:hi] if self._rows is not None else None
        return RowBatch([column[lo:hi] for column in self.columns],
                        hi - lo, rows=rows)

    def head(self, count: int) -> "RowBatch":
        """A new batch holding the first *count* rows."""
        rows = self._rows[:count] if self._rows is not None else None
        return RowBatch([column[:count] for column in self.columns],
                        count, rows=rows)

    def column(self, position: int) -> list:
        return self.columns[position]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"RowBatch({self.length} rows x {len(self.columns)} cols)"


def materialize(plan: Any) -> list[tuple]:
    """Drain a physical plan into a row list under the configured mode.

    Equivalent to ``list(plan.rows())`` but avoids the per-row generator
    hop when batch execution is enabled: batches are extended into the
    output list wholesale.
    """
    if not batch_execution_enabled():
        return list(plan.rows())
    out: list[tuple] = []
    for batch in plan.batches():
        out.extend(batch.rows())
    return out
