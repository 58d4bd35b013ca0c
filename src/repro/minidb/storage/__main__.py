"""Storage inspection CLI: ``python -m repro.minidb.storage stat <dir>``.

Reads the database directory's files directly — MANIFEST.json, the page
file, and the WAL — without opening (and therefore without recovering)
the database, so it is safe to point at a directory left behind by a
crash. Reported numbers describe the last durable checkpoint; a
non-empty WAL means recovery would replay on top of them.

Per table, the report names the indexed columns (indexes are rebuilt
from the heap on open, so they own no pages) and includes the heap
*footprint*: bytes as stored
(dictionary-coded pages count at their compressed size) versus the bytes
the same rows would occupy row-major, plus the resulting compression
ratio — the observable effect of the ``REPRO_ENCODE`` knob.
"""

from __future__ import annotations

import json
import os
import sys

from repro.errors import StorageError
from repro.minidb.storage.page import (
    KIND_HEAP_DICT,
    SLOT_SIZE,
    cells_size,
    decode_page,
)
from repro.minidb.storage.serde import encode_row

_USAGE = "usage: python -m repro.minidb.storage stat <database-dir>"


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _heap_footprint(pages_path: str, page_size: int,
                    heap_pages: list) -> tuple[int, int, int]:
    """``(stored_bytes, plain_bytes, dict_pages)`` for one table's heap.

    ``stored`` is what the cells occupy on disk today; ``plain`` is what
    the same rows would occupy in the row-major ``KIND_HEAP`` layout.
    Unreadable pages (torn tail after a crash) are skipped — the report
    must stay safe on a directory the engine never recovered.
    """
    from repro.minidb.storage.heap import HeapPageNode

    stored = 0
    plain = 0
    dict_pages = 0
    try:
        handle = open(pages_path, "rb")
    except OSError:
        return 0, 0, 0
    with handle:
        for page_id, _count in heap_pages:
            handle.seek(page_id * page_size)
            data = handle.read(page_size)
            try:
                kind, cells = decode_page(data)
            except StorageError:
                continue
            stored += cells_size(cells)
            if kind == KIND_HEAP_DICT:
                dict_pages += 1
                rows = HeapPageNode.from_dict_cells(cells).rows
                plain += sum(len(encode_row(row)) + SLOT_SIZE
                             for row in rows)
            else:
                plain += cells_size(cells)
    return stored, plain, dict_pages


def stat(directory: str) -> str:
    """Human-readable storage report for *directory*."""
    manifest_path = os.path.join(directory, "MANIFEST.json")
    lines = [f"database directory: {directory}"]
    data_size = _file_size(os.path.join(directory, "data.pages"))
    wal_size = _file_size(os.path.join(directory, "wal.log"))
    if not os.path.exists(manifest_path):
        lines.append("no MANIFEST.json (fresh or never checkpointed)")
        lines.append(f"data.pages: {data_size} bytes")
        lines.append(f"wal.log: {wal_size} bytes")
        return "\n".join(lines)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    page_size = manifest["page_size"]
    free_pages = manifest.get("free_pages", [])
    lines.append(f"checkpoint epoch: {manifest['epoch']}")
    lines.append(f"page size: {page_size} bytes")
    lines.append(f"next page id: {manifest['next_page_id']}")
    lines.append(f"data.pages: {data_size} bytes "
                 f"({data_size // page_size if page_size else 0} pages)")
    lines.append(f"free list: {len(free_pages)} pages")
    lines.append(f"wal.log: {wal_size} bytes"
                 + (" (recovery would replay)" if wal_size else ""))
    pages_path = os.path.join(directory, "data.pages")
    for name, entry in sorted(manifest.get("tables", {}).items()):
        heap_pages = entry.get("heap_pages", [])
        heap = len(heap_pages)
        indexes = entry.get("indexes", {}).values()
        columns = ", ".join(spec["column"] for spec in indexes) or "none"
        rows = sum(count for _, count in heap_pages)
        lines.append(f"table {name}: {rows} rows, {heap} heap pages, "
                     f"indexes on {columns}")
        # Written by a version that kept indexes as on-disk B-trees: the
        # next two checkpoints free those pages and compact over them.
        btree_pages = sum(len(spec.get("pages", ())) for spec in indexes)
        if btree_pages:
            lines.append(f"table {name}: {btree_pages} B-tree pages of an "
                         f"older version awaiting reclaim")
        stored, plain, dict_pages = _heap_footprint(
            pages_path, page_size, heap_pages)
        ratio = f"{stored / plain:.2f}" if plain else "1.00"
        lines.append(f"table {name} footprint: {stored} bytes stored "
                     f"({dict_pages} dict pages), {plain} bytes plain, "
                     f"ratio {ratio}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "stat":
        print(_USAGE, file=sys.stderr)
        return 2
    if not os.path.isdir(argv[1]):
        print(f"not a directory: {argv[1]}", file=sys.stderr)
        return 2
    print(stat(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
