"""The heap: a table's rows as a chain of slotted pages.

:class:`DiskRowStore` is the disk-mode replacement for ``Table.rows``.
It is deliberately *list-shaped* — ``len()``, integer / slice / strided
indexing, iteration, ``append``/``extend`` and a ``replace`` — so every
read-only consumer in the engine (columnar transposition, statistics,
cache sizing via ``rows[::step]``) works unchanged against either
backend. Only :class:`~repro.minidb.table.Table`'s
mutation paths know the difference.

Mutations write ahead first: ``extend`` / ``replace`` log one WAL
transaction for the whole batch, then apply it to pages. The last heap
page is mutated copy-on-write — if the current manifest references it,
the first append after a checkpoint clones it to a fresh page id, so a
torn flush can never damage checkpointed state.

Heap pages come in two wire formats. ``KIND_HEAP`` stores one serialized
row per cell. ``KIND_HEAP_DICT`` is column-major: a header cell
(row/column counts + per-column layout flags) followed by one cell per
column, each independently dictionary-coded (distinct values plus one
varint code per row) or plain. Both layouts decode to the identical row
tuples; the choice is purely a size optimization.

Which layout a page gets is decided while it is being *filled*. A page
under construction — a fresh page, or the table's tail page being
topped up — carries fill accounting: the row-major byte total and, when
encoding is on (the storage's resolved ``encode`` flag), per-column
dictionary state, so :meth:`HeapPageNode.try_add` can answer "would one
more row fit?" for both layouts without re-encoding anything. ``nbytes``
(the fill limit) is the *minimum* of the two, so low-cardinality tables
pack more rows per page, and :meth:`HeapPageNode.encode_cells` emits
whichever layout that minimum came from.

A page that is only *read* carries none of that. Decoding takes
``nbytes`` straight off the page (cell lengths + slot entries — exactly
what either layout's accounting sums to) and keeps the rows; no value is
re-serialized and no dictionary is rebuilt. The accounting is
reconstructed from the rows once, when such a node is first written
again — in practice only a table's tail page on the first append after
it was faulted in, or a page relocated by compaction.

Reads go through the buffer pool one page at a time; iterating a table
ten times the pool size keeps peak residency at the pool bound.

The module also hosts the storage fault for the differential fuzzer:
with ``REPRO_FUZZ_INJECT_BUG=storage`` (read once, when the storage is
constructed), decoding a heap page silently adds 1 to the first integer
of its last row — a classic "corruption below the cache" bug that only
shows up once a page has been evicted and re-read, which is exactly
what the ``disk`` oracle label's tiny buffer pool forces.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.minidb.storage.page import (
    KIND_HEAP,
    KIND_HEAP_DICT,
    SLOT_SIZE,
    cell_capacity,
    cells_size,
)
from repro.minidb.storage.serde import (
    decode_row,
    decode_value,
    encode_row,
    encode_value,
    read_varint,
    varint_length,
    write_varint,
)
from repro.minidb.storage.zones import heap_zone, page_qualifies

__all__ = ["DiskRowStore", "HeapPageNode", "bytes_saved"]

#: Running total behind :func:`bytes_saved`.
_BYTES_SAVED = 0


def bytes_saved() -> int:
    """Heap-page bytes the dictionary layout has avoided so far.

    A monotonic process-wide total; ``execute_with_metrics`` diffs it
    around a statement.
    """
    return _BYTES_SAVED


_FAULT_ENV = "REPRO_FUZZ_INJECT_BUG"

#: Capacity bound used when re-deriving the accounting of already-placed
#: rows — placement was decided by the writer.
_NO_LIMIT = float("inf")


def storage_fault_active() -> bool:
    return os.environ.get(_FAULT_ENV, "") == "storage"


def _apply_storage_fault(rows: list[tuple]) -> None:
    """Injected bug: perturb the first integer of the page's last row
    on decode. Invisible while the page stays cached; wrong the moment
    it is evicted and re-read."""
    last = list(rows[-1])
    for i, value in enumerate(last):
        if isinstance(value, int) and not isinstance(value, bool):
            last[i] = value + 1
            rows[-1] = tuple(last)
            break


class _ColumnDict:
    """Incremental dictionary state for one column of a heap page.

    Tracks both layouts' byte costs as rows arrive so the page can
    answer "would one more row fit?" without re-encoding anything:
    ``plain`` is the tagged-value bytes of every row, and the dictionary
    layout costs ``varint(ndv) + value_bytes + code_bytes``.
    """

    __slots__ = ("index", "values", "codes", "value_bytes", "code_bytes",
                 "plain")

    def __init__(self) -> None:
        #: tagged-bytes -> code. Keying on the exact encoding keeps
        #: ``True``/``1``/``1.0`` and ``0.0``/``-0.0`` distinct, so a
        #: dictionary round trip is byte-identical by construction.
        self.index: dict[bytes, int] = {}
        self.values: list[Any] = []
        self.codes: list[int] = []
        self.value_bytes = 0
        self.code_bytes = 0
        self.plain = 0

    def dict_size(self) -> int:
        return (varint_length(len(self.values)) + self.value_bytes
                + self.code_bytes)

    def copy(self) -> "_ColumnDict":
        twin = _ColumnDict()
        twin.index = dict(self.index)
        twin.values = list(self.values)
        twin.codes = list(self.codes)
        twin.value_bytes = self.value_bytes
        twin.code_bytes = self.code_bytes
        twin.plain = self.plain
        return twin


class HeapPageNode:
    """Decoded heap page: a run of row tuples plus its encoded size.

    ``nbytes`` is the size of the layout :meth:`encode_cells` emits: the
    row-major encoding, or — when *encode* is true — the smaller of that
    and the column-major one. *encode* is frozen at construction so a
    knob flip mid-run can never make an already-filled page overflow.

    A node built by :meth:`from_cells` / :meth:`from_dict_cells` takes
    ``nbytes`` off the stored page and has no fill accounting
    (``_plain_bytes is None``); :meth:`ensure_accounting` re-derives it
    from the rows the first time the node is written to.
    """

    __slots__ = ("rows", "nbytes", "encode", "_plain_bytes", "_cols")

    def __init__(self, rows: list[tuple], encode: bool,
                 nbytes: int = 0) -> None:
        # Non-empty *rows* are rows already placed on a stored page, and
        # *nbytes* is that page's size; a page being built starts empty.
        self.rows = rows
        self.encode = encode
        self.nbytes = nbytes
        self._plain_bytes: int | None = None if rows else 0
        self._cols: list[_ColumnDict] | None = None

    def ensure_accounting(self) -> bool:
        """Re-derive the fill accounting a decoded node starts without.

        Returns whether there was anything to do (the storage counts
        these as ``accounting_rebuilds``). The row list itself is left
        untouched, so a reader iterating it never sees a transient.
        """
        if self._plain_bytes is not None:
            return False
        self._plain_bytes = 0
        for count, row in enumerate(self.rows, 1):
            self._account(row, count, _NO_LIMIT)
        return True

    def try_add(self, row: tuple, capacity: float) -> bool:
        """Add *row* if the page still fits in *capacity* bytes."""
        self.ensure_accounting()
        if not self._account(row, len(self.rows) + 1, capacity):
            return False
        self.rows.append(row)
        return True

    def _account(self, row: tuple, count: int, capacity: float) -> bool:
        """Account for *row* as the page's *count*-th, if it fits.

        Simulates both layouts' sizes first and commits only on success,
        so a rejected row leaves the dictionary state untouched.
        """
        plain = self._plain_bytes + len(encode_row(row)) + SLOT_SIZE
        if not self.encode:
            if plain > capacity:
                return False
            self._plain_bytes = plain
            self.nbytes = plain
            return True
        cols = self._cols
        if cols is None:
            cols = [_ColumnDict() for _ in row]
        # header cell: varint(nrows) + varint(ncols) + one flag byte
        # per column.
        dict_total = (varint_length(count)
                      + varint_length(len(cols)) + len(cols) + SLOT_SIZE)
        staged = []
        for col, value in zip(cols, row):
            scratch = bytearray()
            encode_value(scratch, value)
            key = bytes(scratch)
            code = col.index.get(key)
            fresh = code is None
            if fresh:
                code = len(col.values)
                value_bytes = col.value_bytes + len(key)
            else:
                value_bytes = col.value_bytes
            code_bytes = col.code_bytes + varint_length(code)
            col_plain = col.plain + len(key)
            ndv = len(col.values) + (1 if fresh else 0)
            dict_size = varint_length(ndv) + value_bytes + code_bytes
            dict_total += min(col_plain, dict_size) + SLOT_SIZE
            staged.append((col, value, key, code, fresh, value_bytes,
                           code_bytes, col_plain))
        nbytes = min(plain, dict_total)
        if nbytes > capacity:
            return False
        for (col, value, key, code, fresh, value_bytes, code_bytes,
             col_plain) in staged:
            if fresh:
                col.index[key] = code
                col.values.append(value)
            col.codes.append(code)
            col.value_bytes = value_bytes
            col.code_bytes = code_bytes
            col.plain = col_plain
        self._cols = cols
        self._plain_bytes = plain
        self.nbytes = nbytes
        return True

    def clone(self) -> "HeapPageNode":
        """A private copy (own row list and fill state) for copy-on-write."""
        twin = HeapPageNode(list(self.rows), self.encode, self.nbytes)
        twin._plain_bytes = self._plain_bytes
        if self._cols is not None:
            twin._cols = [col.copy() for col in self._cols]
        return twin

    def encode_cells(self) -> tuple[int, list[bytes]]:
        self.ensure_accounting()
        if (self.encode and self._cols is not None
                and self.nbytes < self._plain_bytes):
            global _BYTES_SAVED
            _BYTES_SAVED += self._plain_bytes - self.nbytes
            return KIND_HEAP_DICT, self._dict_cells()
        return KIND_HEAP, [encode_row(row) for row in self.rows]

    def _dict_cells(self) -> list[bytes]:
        cols = self._cols
        header = bytearray()
        write_varint(header, len(self.rows))
        write_varint(header, len(cols))
        cells = [b""]
        for position, col in enumerate(cols):
            if col.dict_size() < col.plain:
                header.append(1)
                cell = bytearray()
                write_varint(cell, len(col.values))
                for value in col.values:
                    encode_value(cell, value)
                for code in col.codes:
                    write_varint(cell, code)
            else:
                header.append(0)
                cell = bytearray()
                for row in self.rows:
                    encode_value(cell, row[position])
            cells.append(bytes(cell))
        cells[0] = bytes(header)
        return cells

    @classmethod
    def from_cells(cls, cells: list[bytes], encode: bool,
                   fault: bool = False) -> "HeapPageNode":
        """Decode a ``KIND_HEAP`` page; *encode* is the owning storage's
        resolved flag, governing the layout of any later top-up."""
        rows = [decode_row(cell) for cell in cells]
        if rows and fault:
            _apply_storage_fault(rows)
        return cls(rows, encode, cells_size(cells))

    @classmethod
    def from_dict_cells(cls, cells: list[bytes],
                        fault: bool = False) -> "HeapPageNode":
        """Decode a ``KIND_HEAP_DICT`` page back into row tuples.

        The node gets ``encode=True`` regardless of the storage's flag:
        the page was sized under the column-major layout, and
        re-freezing that choice keeps a knob flip from overflowing it on
        the next top-up.
        """
        header = cells[0]
        nrows, offset = read_varint(header, 0)
        ncols, offset = read_varint(header, offset)
        flags = header[offset:offset + ncols]
        columns: list[list[Any]] = []
        for position in range(ncols):
            cell = cells[1 + position]
            out: list[Any] = []
            if flags[position]:
                ndv, at = read_varint(cell, 0)
                values: list[Any] = []
                for _ in range(ndv):
                    value, at = decode_value(cell, at)
                    values.append(value)
                if ndv <= 0x80:
                    # Every code is a one-byte varint: the code vector
                    # is the next nrows bytes as they stand.
                    codes = cell[at:at + nrows]
                    if len(codes) != nrows:
                        raise StorageError("truncated code vector")
                    out = [values[code] for code in codes]
                else:
                    for _ in range(nrows):
                        code, at = read_varint(cell, at)
                        out.append(values[code])
            else:
                at = 0
                for _ in range(nrows):
                    value, at = decode_value(cell, at)
                    out.append(value)
            columns.append(out)
        rows = list(zip(*columns)) if columns else [()] * nrows
        if rows and fault:
            _apply_storage_fault(rows)
        return cls(rows, True, cells_size(cells))


class DiskRowStore:
    """A table's row sequence, stored page-at-a-time behind the pool."""

    def __init__(self, storage: Any, table_name: str,
                 pages: Iterable[tuple[int, int]] = ()) -> None:
        self.storage = storage
        self.table_name = table_name
        #: Parallel lists: heap page ids and the row count on each.
        self.page_ids: list[int] = []
        self.page_counts: list[int] = []
        #: ``starts[i]`` = global index of the first row on page i.
        self._starts: list[int] = []
        self.total = 0
        for page_id, count in pages:
            self.page_ids.append(page_id)
            self.page_counts.append(count)
            self._starts.append(self.total)
            self.total += count

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        return self.total

    def __eq__(self, other: object) -> bool:
        # list-parity: a disk store equals any sequence with the same
        # rows in the same order (memory mode compares plain lists).
        if isinstance(other, (list, tuple, DiskRowStore)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __iter__(self) -> Iterator[tuple]:
        for page_id in self.page_ids:
            # Holding the rows list keeps it alive even if the frame is
            # evicted while the caller is still consuming this page.
            yield from self.storage.pager.fetch(page_id).rows

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self.total)
            if step == 1:
                return self._slice_contiguous(start, stop)
            return [self._row_at(i) for i in range(start, stop, step)]
        index = item
        if index < 0:
            index += self.total
        if not 0 <= index < self.total:
            raise IndexError("row index out of range")
        return self._row_at(index)

    def _page_of(self, index: int) -> int:
        # rightmost page whose start <= index
        lo, hi = 0, len(self._starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= index:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _row_at(self, index: int) -> tuple:
        page = self._page_of(index)
        node = self.storage.pager.fetch(self.page_ids[page])
        return node.rows[index - self._starts[page]]

    def _slice_contiguous(self, start: int, stop: int) -> list[tuple]:
        if start >= stop:
            return []
        out: list[tuple] = []
        page = self._page_of(start)
        cursor = start
        while cursor < stop and page < len(self.page_ids):
            node = self.storage.pager.fetch(self.page_ids[page])
            base = self._starts[page]
            lo = cursor - base
            hi = min(stop - base, len(node.rows))
            out.extend(node.rows[lo:hi])
            cursor = base + hi
            page += 1
        return out

    # -- zone-pruned scans ----------------------------------------------

    def pruned_pages(self, specs) -> Iterator[tuple[int, list[tuple]]]:
        """Yield ``(start_index, page_rows)`` for pages surviving *specs*.

        *specs* are ``(column position, op, literal)`` conjuncts (see
        :mod:`~repro.minidb.storage.zones`). Pages whose zone map proves
        no row can satisfy every conjunct are skipped without being
        fetched; pages without a zone always qualify. The caller's
        filter still runs above, so skipping is purely an I/O saving.
        """
        storage = self.storage
        zones = getattr(storage, "zones", None)
        for position, page_id in enumerate(self.page_ids):
            zone = None if zones is None else zones.get(page_id)
            if zone is not None and not page_qualifies(zone, specs):
                storage.pages_pruned += 1
                continue
            yield self._starts[position], storage.pager.fetch(page_id).rows

    # -- mutation -------------------------------------------------------

    def _update_zone(self, page_id: int, node: HeapPageNode) -> None:
        zones = getattr(self.storage, "zones", None)
        if zones is None:
            return
        if node.rows:
            zones[page_id] = heap_zone(node.rows, len(node.rows[0]))
        else:
            zones.pop(page_id, None)

    def append(self, row: tuple) -> None:
        self.extend([row])

    def extend(self, rows: Sequence[tuple]) -> None:
        """Log one WAL transaction for the batch, then fill pages."""
        rows = list(rows)
        if not rows:
            return
        self.storage.log_append(self.table_name, rows)
        self._apply_append(rows)

    def replace(self, rows: Sequence[tuple]) -> None:
        """Log a whole-table rewrite, then rebuild the page chain."""
        rows = list(rows)
        self.storage.log_replace(self.table_name, rows)
        self._apply_replace(rows)

    def _apply_append(self, rows: list[tuple]) -> None:
        pager = self.storage.pager
        capacity = cell_capacity(pager.page_size)
        cursor = 0
        # Top up the trailing page first (copy-on-write if the manifest
        # still references it), then spill into fresh pages.
        if self.page_ids:
            page_id = self.page_ids[-1]
            node = pager.fetch(page_id)
            # A faulted-in tail page knows only its stored size; the
            # capacity test needs the writer's (a row-major page may
            # have room under the dictionary layout).
            if node.ensure_accounting():
                self.storage.accounting_rebuilds += 1
            if node.nbytes < capacity:
                page_id, node = self._shadow_last(page_id, node)
                pager.pin(page_id)
                try:
                    cursor = self._fill(node, rows, cursor, capacity)
                finally:
                    pager.unpin(page_id)
                added = len(node.rows) - self.page_counts[-1]
                self.page_counts[-1] += added
                self.total += added
                self._update_zone(page_id, node)
        while cursor < len(rows):
            node = HeapPageNode([], encode=self.storage.encode)
            before = cursor
            cursor = self._fill(node, rows, cursor, capacity)
            if cursor == before:
                raise StorageError(
                    f"row of {len(encode_row(rows[cursor]))} bytes does "
                    f"not fit a {pager.page_size}-byte page")
            page_id = self.storage.allocate_page()
            self._starts.append(self.total)
            self.page_ids.append(page_id)
            self.page_counts.append(len(node.rows))
            self.total += len(node.rows)
            pager.adopt(page_id, node)
            self._update_zone(page_id, node)

    @staticmethod
    def _fill(node: HeapPageNode, rows: list[tuple], cursor: int,
              capacity: int) -> int:
        while cursor < len(rows):
            if not node.try_add(rows[cursor], capacity):
                break  # full (or a single row larger than a page)
            cursor += 1
        return cursor

    def _shadow_last(self, page_id: int,
                     node: HeapPageNode) -> tuple[int, HeapPageNode]:
        if not self.storage.page_shadowed(page_id):
            self.storage.pager.mark_dirty(page_id)
            return page_id, node
        clone = node.clone()
        new_id = self.storage.allocate_page()
        self.storage.pager.adopt(new_id, clone)
        self.storage.free_page(page_id)
        self.page_ids[-1] = new_id
        return new_id, clone

    def _apply_replace(self, rows: list[tuple]) -> None:
        self.free_all()
        self._apply_append(rows)

    def free_all(self) -> None:
        """Release every heap page (table drop or whole-table rewrite)."""
        for page_id in self.page_ids:
            self.storage.free_page(page_id)
        self.page_ids = []
        self.page_counts = []
        self._starts = []
        self.total = 0

    def manifest_pages(self) -> list[list[int]]:
        """``[[page_id, row_count], ...]`` for the checkpoint manifest."""
        return [[page_id, count]
                for page_id, count in zip(self.page_ids, self.page_counts)]
