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

``REPRO_ENCODE`` (default on, ``0`` = plain) additionally lets the
columnar cache hand out *encoded* columns — :class:`DictColumn`
(per-column sorted dictionary + integer codes) and :class:`RLEColumn`
(run-length runs) — that the batch kernels operate on directly:
predicates evaluate once per distinct value and map over codes, range
conjuncts on sorted dictionaries reduce to code-range tests, and RLE
filters skip whole runs. Both classes implement enough of the sequence
protocol (len / index / slice / iterate) that any consumer written for
plain lists keeps working unchanged; iteration decodes transparently,
so parity is guaranteed for every kernel that cannot run encoded.
"""

from __future__ import annotations

import contextlib
import os
from bisect import bisect_left, bisect_right
from math import copysign
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DictColumn",
    "RLEColumn",
    "RowBatch",
    "batch_execution_enabled",
    "concat_columns",
    "configured_batch_size",
    "encode_column",
    "encode_enabled",
    "encode_stats",
    "forced_batch_size",
    "forced_encoding",
    "materialize",
    "vector_fallback_enabled",
]

#: Rows per batch when ``REPRO_BATCH_SIZE`` is unset. Large enough to
#: amortize per-batch setup, small enough to keep chunks cache-friendly.
DEFAULT_BATCH_SIZE = 1024


def configured_batch_size() -> int:
    """Batch size from ``REPRO_BATCH_SIZE``; 0 disables batch execution."""
    env = os.environ.get("REPRO_BATCH_SIZE", "").strip()
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            return DEFAULT_BATCH_SIZE
    return DEFAULT_BATCH_SIZE


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


def encode_enabled() -> bool:
    """Whether the columnar cache may hand out encoded columns."""
    return os.environ.get("REPRO_ENCODE", "").strip() != "0"


@contextlib.contextmanager
def forced_encoding(enabled: bool) -> Iterator[None]:
    """Pin ``REPRO_ENCODE`` for a block (False = plain columns)."""
    saved = os.environ.get("REPRO_ENCODE")
    os.environ["REPRO_ENCODE"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENCODE", None)
        else:
            os.environ["REPRO_ENCODE"] = saved


#: Running totals behind :func:`encode_stats`. ``encoded_columns`` counts
#: encoded columns served to scans, ``decode_fallbacks`` counts full
#: decodes back to plain lists, ``bytes_saved`` accumulates heap-page
#: bytes avoided by the dictionary page codec.
_ENCODE_STATS = [0, 0, 0]


def encode_stats() -> tuple[int, int, int]:
    """``(encoded_columns, decode_fallbacks, bytes_saved)`` counters.

    Monotonic totals; :meth:`Database.execute_with_metrics` diffs them
    around a statement.
    """
    return tuple(_ENCODE_STATS)


def record_encoded_columns(count: int) -> None:
    _ENCODE_STATS[0] += count


def record_decode_fallback() -> None:
    _ENCODE_STATS[1] += 1


def record_bytes_saved(count: int) -> None:
    _ENCODE_STATS[2] += count


def _mapped(values: list) -> list:
    """Hook for the injectable encode fault.

    Every dictionary/run *mapping* — the step that evaluates a kernel
    once per distinct value — passes its result through here. Under
    ``REPRO_FUZZ_INJECT_BUG=encode`` the mapping is rotated by one
    position whenever there are at least two distinct values, silently
    assigning each code its neighbour's result: exactly the class of
    code/value mix-up the fuzz oracle's ``encoded`` label exists to
    catch.
    """
    if (len(values) > 2
            and os.environ.get("REPRO_FUZZ_INJECT_BUG", "") == "encode"):
        return [values[0]] + values[2:] + [values[1]]
    return values


class DictColumn:
    """Dictionary-encoded column: integer codes into a value dictionary.

    ``values[0]`` is always reserved for NULL so appends that introduce
    the first NULL never restructure existing codes; the non-null
    dictionary lives in ``values[1:]``, sorted ascending at build time.
    ``sorted`` stays true while code order equals value order, which is
    what lets ordering predicates bisect the dictionary and lets sorts
    use raw codes as keys (NULL's code 0 matches NULLS-FIRST semantics).

    Kernel results share the ``codes`` list of their source column, so
    an AND of two predicates over the same column combines dictionaries
    without ever touching per-row data.
    """

    __slots__ = ("codes", "values", "sorted", "_index")

    def __init__(self, codes: list[int], values: list,
                 is_sorted: bool = False,
                 index: dict | None = None) -> None:
        self.codes = codes
        self.values = values
        self.sorted = is_sorted
        self._index = index

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return DictColumn(self.codes[item], self.values, self.sorted)
        return self.values[self.codes[item]]

    def __iter__(self):
        record_decode_fallback()
        values = self.values
        return iter([values[code] for code in self.codes])

    def __repr__(self) -> str:
        return (f"DictColumn({len(self.codes)} rows, "
                f"{len(self.values) - 1} distinct)")

    def decode(self) -> list:
        """The column as a plain value list."""
        record_decode_fallback()
        values = self.values
        return [values[code] for code in self.codes]

    def take(self, indices: Sequence[int]) -> "DictColumn":
        codes = self.codes
        return DictColumn([codes[i] for i in indices], self.values,
                          self.sorted)

    def distinct_count(self) -> int:
        """Exact count of distinct non-null values ever encoded."""
        return len(self.values) - 1

    def sort_codes(self) -> list[int] | None:
        """Codes usable directly as sort keys, or None.

        Valid only while the dictionary is sorted: code order is then
        value order with NULL (code 0) first, matching the engine's
        NULLS-FIRST-ascending decoration exactly.
        """
        return self.codes if self.sorted else None

    def map_values(self, fn: Callable[[Any], Any]) -> "DictColumn":
        """Apply a NULL-propagating kernel once per distinct value."""
        mapped = _mapped([None] + [fn(value) for value in self.values[1:]])
        return DictColumn(self.codes, mapped)

    def map_all(self, fn: Callable[[Any], Any]) -> "DictColumn":
        """Apply a kernel to every slot including NULL (IS NULL etc.)."""
        mapped = _mapped([fn(value) for value in self.values])
        return DictColumn(self.codes, mapped)

    def map_compare(self, op: str, fn: Callable[[Any, Any], Any],
                    constant: Any, flipped: bool = False) -> "DictColumn":
        """Truth dictionary for ``value <op> constant``.

        One comparison per distinct value; on a sorted dictionary the
        ordering operators reduce to a single bisect — a code-range
        test — instead of comparing every distinct value.
        """
        tail = self.values[1:]
        if self.sorted and not flipped and op in ("<", "<=", ">", ">="):
            if op == "<":
                below = bisect_left(tail, constant)
            elif op == "<=":
                below = bisect_right(tail, constant)
            elif op == ">":
                below = bisect_right(tail, constant)
            else:
                below = bisect_left(tail, constant)
            if op in ("<", "<="):
                mapped = ([None] + [True] * below
                          + [False] * (len(tail) - below))
            else:
                mapped = ([None] + [False] * below
                          + [True] * (len(tail) - below))
        elif flipped:
            mapped = [None] + [fn(constant, value) for value in tail]
        else:
            mapped = [None] + [fn(value, constant) for value in tail]
        return DictColumn(self.codes, _mapped(mapped))

    def extend_from(self, source: list, start: int) -> None:
        """Append ``source[start:]``, growing the dictionary in place.

        The incremental half of the append/extend protocol: new values
        get fresh codes at the end of the dictionary, so history is
        never re-encoded. The sorted flag survives only while appends
        arrive in ascending order past the current maximum.
        """
        index = self._index
        codes = self.codes
        values = self.values
        for value in source[start:]:
            if value is None:
                codes.append(0)
                continue
            key = _dict_key(value)
            code = index.get(key)
            if code is None:
                code = len(values)
                if self.sorted and code > 1:
                    last = values[-1]
                    if not (last < value and value == value):
                        self.sorted = False
                elif self.sorted and value != value:
                    self.sorted = False
                index[key] = code
                values.append(value)
            codes.append(code)


class RLEColumn:
    """Run-length encoded column: ``(value, length)`` runs.

    ``starts[i]`` is the first row index of run ``i``; point access
    bisects, slices clip runs, and iteration decodes. FilterOp consumes
    predicate results in this representation run-wise, skipping rejected
    runs without touching a single row.
    """

    __slots__ = ("run_values", "run_lengths", "starts", "length")

    def __init__(self, run_values: list, run_lengths: list[int],
                 starts: list[int] | None = None,
                 length: int | None = None) -> None:
        self.run_values = run_values
        self.run_lengths = run_lengths
        if starts is None:
            starts = []
            total = 0
            for run in run_lengths:
                starts.append(total)
                total += run
            length = total
        self.starts = starts
        self.length = length if length is not None else 0

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self._slice(item)
        if item < 0:
            item += self.length
        return self.run_values[bisect_right(self.starts, item) - 1]

    def _slice(self, item: slice) -> "RLEColumn":
        lo, hi, step = item.indices(self.length)
        if step != 1:
            return RLEColumn.from_values(self.decode()[item])
        values: list = []
        lengths: list[int] = []
        first = bisect_right(self.starts, lo) - 1 if hi > lo else 0
        for i in range(first, len(self.starts)):
            start = self.starts[i]
            if start >= hi:
                break
            end = start + self.run_lengths[i]
            clip_lo = max(start, lo)
            clip_hi = min(end, hi)
            if clip_hi > clip_lo:
                values.append(self.run_values[i])
                lengths.append(clip_hi - clip_lo)
        return RLEColumn(values, lengths)

    def __iter__(self):
        record_decode_fallback()
        return iter(self.decode_quiet())

    def __repr__(self) -> str:
        return (f"RLEColumn({self.length} rows, "
                f"{len(self.run_values)} runs)")

    @classmethod
    def from_values(cls, source: list) -> "RLEColumn":
        values: list = []
        lengths: list[int] = []
        for value in source:
            if values and _same_value(values[-1], value):
                lengths[-1] += 1
            else:
                values.append(value)
                lengths.append(1)
        return cls(values, lengths)

    def decode_quiet(self) -> list:
        out: list = []
        for value, run in zip(self.run_values, self.run_lengths):
            out.extend([value] * run)
        return out

    def decode(self) -> list:
        """The column as a plain value list."""
        record_decode_fallback()
        return self.decode_quiet()

    def take(self, indices: Sequence[int]) -> list:
        values = self.decode_quiet()
        record_decode_fallback()
        return [values[i] for i in indices]

    def runs(self) -> Iterator[tuple[int, int, Any]]:
        """Yield ``(start, length, value)`` per run."""
        return zip(self.starts, self.run_lengths, self.run_values)

    def sort_codes(self) -> None:
        """Runs carry no order; sorts must decode (see types.py)."""
        return None

    def map_values(self, fn: Callable[[Any], Any]) -> "RLEColumn":
        """Apply a NULL-propagating kernel once per run."""
        mapped = _mapped([None if value is None else fn(value)
                          for value in self.run_values])
        return RLEColumn(mapped, self.run_lengths, self.starts,
                         self.length)

    def map_all(self, fn: Callable[[Any], Any]) -> "RLEColumn":
        """Apply a kernel to every run value including NULL."""
        mapped = _mapped([fn(value) for value in self.run_values])
        return RLEColumn(mapped, self.run_lengths, self.starts,
                         self.length)

    def map_compare(self, op: str, fn: Callable[[Any, Any], Any],
                    constant: Any, flipped: bool = False) -> "RLEColumn":
        """Truth runs for ``value <op> constant``: one test per run."""
        if flipped:
            mapped = [None if value is None else fn(constant, value)
                      for value in self.run_values]
        else:
            mapped = [None if value is None else fn(value, constant)
                      for value in self.run_values]
        return RLEColumn(_mapped(mapped), self.run_lengths, self.starts,
                         self.length)

    def extend_from(self, source: list, start: int) -> None:
        """Append ``source[start:]``, merging into the last run."""
        values = self.run_values
        lengths = self.run_lengths
        starts = self.starts
        total = self.length
        for value in source[start:]:
            if values and _same_value(values[-1], value):
                lengths[-1] += 1
            else:
                values.append(value)
                lengths.append(1)
                starts.append(total)
            total += 1
        self.length = total


def _same_value(a: Any, b: Any) -> bool:
    """Run-merge equality: identity, or same class and equal.

    Decoding a run replays its stored value, so two values may share a
    run only when replaying one reproduces the other byte-identically —
    ``0.0 == False`` is not good enough, and neither is ``0.0 == -0.0``
    (equal floats with different sign bits).
    """
    if a is b:
        return True
    if a.__class__ is not b.__class__:
        return False
    if a.__class__ is float:
        return a == b and copysign(1.0, a) == copysign(1.0, b)
    return a == b


def _dict_key(value: Any) -> tuple:
    """Hashable dictionary key under which *value* is byte-identical.

    Keyed on class so ``1`` / ``1.0`` / ``True`` never share a code, and
    on sign for floats so ``-0.0`` does not decode back as ``0.0``.
    """
    if value.__class__ is float:
        return (float, value, copysign(1.0, value))
    return (value.__class__, value)


#: Encoded column types, for isinstance dispatch at kernel boundaries.
ENCODED_TYPES = (DictColumn, RLEColumn)

#: Dictionary-encode a column only while its distinct count stays under
#: ``max(_DICT_MIN_NDV, rows // _DICT_NDV_DIVISOR)`` — beyond that the
#: dictionary stops paying for itself.
_DICT_MIN_NDV = 16
_DICT_NDV_DIVISOR = 2

#: RLE only pays off when runs are long: require at least this many rows
#: per run on average (and enough rows for run-skipping to matter).
_RLE_MIN_ROWS = 16
_RLE_MIN_AVG_RUN = 4


def encode_column(source: list) -> "list | DictColumn | RLEColumn":
    """Choose an encoding for one column of the columnar cache.

    Returns the *same* list object when neither encoding pays off, so
    plain columns cost nothing extra and the caller can detect the
    choice with an identity check. Dictionary keys pair the value with
    its class so numerically-equal values of different types (``1`` vs
    ``1.0`` vs ``True``) never collapse into one code — decoding must be
    byte-identical, not merely ``==``.
    """
    rows = len(source)
    if rows >= _RLE_MIN_ROWS:
        runs = 1
        previous = source[0]
        for value in source:
            if not _same_value(previous, value):
                runs += 1
                previous = value
        if runs * _RLE_MIN_AVG_RUN <= rows:
            return RLEColumn.from_values(source)
    limit = max(_DICT_MIN_NDV, rows // _DICT_NDV_DIVISOR)
    distinct: dict = {}
    for value in source:
        if value is None:
            continue
        key = _dict_key(value)
        if key not in distinct:
            if len(distinct) >= limit:
                return source
            distinct[key] = value
    ordered = list(distinct.values())
    try:
        ordered.sort()
        is_sorted = all(a < b and a == a and b == b
                        for a, b in zip(ordered, ordered[1:]))
        if ordered and not (ordered[0] == ordered[0]):
            is_sorted = False
    except TypeError:
        is_sorted = False
    values: list = [None] + ordered
    index = {_dict_key(value): code
             for code, value in enumerate(ordered, start=1)}
    codes = [0 if value is None else index[_dict_key(value)]
             for value in source]
    return DictColumn(codes, values, is_sorted, index)


def extend_column(column: "DictColumn | RLEColumn", source: list,
                  start: int) -> None:
    """Extend an encoded cache column with freshly appended rows."""
    column.extend_from(source, start)


def concat_columns(batches: "list[RowBatch]", width: int) -> "RowBatch":
    """Column-wise concatenation of batches into one big batch.

    Dictionary columns that share one dictionary object (slices of the
    same cache column) concatenate as raw codes; everything else
    decodes. Used by SortOp so sort keys over encoded scans keep their
    codes all the way into the key arrays.
    """
    if len(batches) == 1:
        return batches[0]
    length = sum(batch.length for batch in batches)
    columns: list = []
    for position in range(width):
        pieces = [batch.columns[position] for batch in batches]
        first = pieces[0]
        if isinstance(first, DictColumn) and all(
                isinstance(piece, DictColumn)
                and piece.values is first.values for piece in pieces[1:]):
            codes: list[int] = []
            for piece in pieces:
                codes.extend(piece.codes)
            columns.append(DictColumn(codes, first.values, first.sorted))
            continue
        merged: list = []
        for piece in pieces:
            if isinstance(piece, ENCODED_TYPES):
                merged.extend(piece.decode())
            else:
                merged.extend(piece)
        columns.append(merged)
    return RowBatch(columns, length)


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
        """A new batch holding the rows at *indices*, in that order.

        Encoded columns gather through their own ``take`` (dictionary
        columns stay encoded — only the codes are gathered).
        """
        return RowBatch([column.take(indices)
                         if isinstance(column, ENCODED_TYPES)
                         else [column[i] for i in indices]
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
