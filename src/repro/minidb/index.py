"""Single-column sorted indexes for minidb tables.

An index is a sorted array of ``(key, row_position)`` pairs searched with
``bisect`` — the pure-Python stand-in for the B-tree indexes the paper
creates on every column of ``caseR``/``palletR``. It supports equality
and range lookups and answers the planner's "matching row count" probes
exactly, which the cost model uses in place of histogram estimates when
an index exists.

It is the only index class, in both storage modes. An index is derived
data: disk storage keeps no index pages and rebuilds every index from
its table's heap when it opens a database directory.

NULL keys are excluded from the index (as in most engines): a predicate
match via an index never returns rows whose key is NULL, matching SQL
comparison semantics.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Sequence

__all__ = ["SortedIndex", "IndexRange"]


class IndexRange:
    """A half-open key interval ``[low, high]`` with optional open ends.

    ``low``/``high`` of ``None`` mean unbounded on that side.
    """

    __slots__ = ("low", "high", "low_inclusive", "high_inclusive")

    def __init__(self, low: Any = None, high: Any = None, *,
                 low_inclusive: bool = True, high_inclusive: bool = True) -> None:
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    @classmethod
    def equals(cls, key: Any) -> "IndexRange":
        return cls(low=key, high=key)

    def __repr__(self) -> str:
        left = "[" if self.low_inclusive else "("
        right = "]" if self.high_inclusive else ")"
        return f"IndexRange{left}{self.low!r}, {self.high!r}{right}"


class SortedIndex:
    """A sorted single-column index over a table's rows.

    The index is built once over the full table (or rebuilt after bulk
    loads); point inserts keep it sorted incrementally. Row positions
    refer to offsets in the owning table's row list.

    Concurrency: the entry arrays live behind a single ``_data`` tuple
    that mutating batch operations (:meth:`build`, :meth:`insert_many` —
    the streaming-ingest paths) replace wholesale instead of editing in
    place. A reader that captures the tuple once therefore sees a
    complete, internally consistent index from some epoch: either
    without or with the whole appended batch, never a half-merged mix.
    Combined with a snapshot's position bound (appended positions are
    simply skipped) this makes index scans safe against concurrent
    ingest without a lock. Single-row :meth:`insert` still edits in
    place and remains writer-side only.
    """

    def __init__(self, name: str, column: str) -> None:
        self.name = name
        self.column = column
        #: ``(keys, positions)`` parallel arrays; replaced atomically by
        #: batch mutations, never partially updated.
        self._data: tuple[list[Any], list[int]] = ([], [])

    @property
    def _keys(self) -> list[Any]:
        return self._data[0]

    @property
    def _positions(self) -> list[int]:
        return self._data[1]

    def __len__(self) -> int:
        return len(self._data[0])

    def build(self, column: Sequence[Any]) -> None:
        """(Re)build the index from a key column: ``column[p]`` is the
        key of the row at position ``p``.

        One stable sort of the positions by their keys: NULL keys are
        skipped, and equal keys keep position order.
        """
        if None in column:
            positions = [position for position, key in enumerate(column)
                         if key is not None]
        else:
            positions = list(range(len(column)))
        positions.sort(key=column.__getitem__)
        self._data = (list(map(column.__getitem__, positions)), positions)

    def insert(self, key: Any, position: int) -> None:
        """Insert one entry, keeping the index sorted (in place)."""
        if key is None:
            return
        keys, positions = self._data
        slot = bisect.bisect_right(keys, key)
        keys.insert(slot, key)
        positions.insert(slot, position)

    def insert_many(self, keyed_positions: Iterable[tuple[Any, int]]) -> None:
        """Merge a batch of entries, keeping the index sorted.

        Equivalent to calling :meth:`insert` per pair (new entries land
        after existing equal keys, and after earlier-batch equal keys),
        but via a single linear merge instead of k O(n) list inserts —
        the append path for streaming ingest, where rebuilding the whole
        index per trickle would dominate. The merged arrays are
        published by swapping ``_data``, so concurrent readers never see
        a partial merge.
        """
        fresh = sorted(
            (pair for pair in keyed_positions if pair[0] is not None),
            key=lambda pair: pair[0])
        if not fresh:
            return
        old_keys, old_positions = self._data
        if not old_keys:
            self._data = ([key for key, _ in fresh],
                          [position for _, position in fresh])
            return
        merged_keys: list[Any] = []
        merged_positions: list[int] = []
        cursor = 0
        for key, position in fresh:
            # bisect_right semantics: existing entries with key <= new
            # key stay ahead of the new entry.
            stop = bisect.bisect_right(old_keys, key, cursor)
            merged_keys.extend(old_keys[cursor:stop])
            merged_positions.extend(old_positions[cursor:stop])
            merged_keys.append(key)
            merged_positions.append(position)
            cursor = stop
        merged_keys.extend(old_keys[cursor:])
        merged_positions.extend(old_positions[cursor:])
        self._data = (merged_keys, merged_positions)

    @staticmethod
    def _bounds_in(keys: list[Any],
                   key_range: IndexRange) -> tuple[int, int]:
        if key_range.low is None:
            start = 0
        elif key_range.low_inclusive:
            start = bisect.bisect_left(keys, key_range.low)
        else:
            start = bisect.bisect_right(keys, key_range.low)
        if key_range.high is None:
            stop = len(keys)
        elif key_range.high_inclusive:
            stop = bisect.bisect_right(keys, key_range.high)
        else:
            stop = bisect.bisect_left(keys, key_range.high)
        return start, max(stop, start)

    def _bounds(self, key_range: IndexRange) -> tuple[int, int]:
        return self._bounds_in(self._data[0], key_range)

    def scan(self, key_range: IndexRange) -> Iterator[int]:
        """Yield row positions whose key falls in *key_range*, key order."""
        # One capture of the published arrays = one consistent epoch.
        keys, positions = self._data
        start, stop = self._bounds_in(keys, key_range)
        for slot in range(start, stop):
            yield positions[slot]

    @staticmethod
    def _slots_of(index_keys: list[Any],
                  keys: Iterable[Any]) -> Iterator[tuple[int, int]]:
        """The ``[start, stop)`` entry slots equal to each of *keys*.

        A key the indexed keys cannot be ordered against (text probing a
        numeric index) matches nothing, exactly as an equality test
        between them would.
        """
        for key in keys:
            try:
                start = bisect.bisect_left(index_keys, key)
                stop = bisect.bisect_right(index_keys, key, start)
            except TypeError:
                continue
            yield start, stop

    def positions_of(self, keys: Iterable[Any]) -> list[int]:
        """Row positions whose key equals one of *keys*, key by key.

        *keys* must be distinct under ``==`` and hold no NaN (NaN is
        unordered, so bisecting for it would return arbitrary slots).
        """
        index_keys, positions = self._data
        out: list[int] = []
        for start, stop in self._slots_of(index_keys, keys):
            out.extend(positions[start:stop])
        return out

    def count_of(self, keys: Iterable[Any]) -> int:
        """Exact number of entries :meth:`positions_of` would return."""
        return sum(stop - start
                   for start, stop in self._slots_of(self._data[0], keys))

    def count(self, key_range: IndexRange) -> int:
        """Exact number of entries in *key_range* (no row access)."""
        keys, _ = self._data
        start, stop = self._bounds_in(keys, key_range)
        return stop - start

    def min_key(self) -> Any:
        keys, _ = self._data
        return keys[0] if keys else None

    def max_key(self) -> Any:
        keys, _ = self._data
        return keys[-1] if keys else None
