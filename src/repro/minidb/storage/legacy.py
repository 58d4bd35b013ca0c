"""Read-only decoder for directories written in the older page format.

Older versions stored each table as a chain of fixed-size slotted pages
in ``data.pages``, named in the manifest (``page_size``, and per table
``heap_pages``: ``[page_id, row_count]``). ``DiskStorage`` opens such a
directory through :func:`read_tables` and rewrites it as segments at
its first checkpoint; nothing writes this format. A page is a 12-byte
header (``magic "MP" | kind u8 | reserved u8 | cell count u16 | cell
start u16 | CRC-32 u32``, the CRC taken with its own field zeroed), then
``(offset u16, length u16)`` per cell. ``KIND_HEAP`` pages hold one
:func:`serde.encode_row` row per cell; ``KIND_HEAP_DICT`` pages hold a
header cell (``varint nrows | varint ncols | a layout byte per
column``) and then one segment-style column cell per column. Other
manifest fields (``free_pages``, ``zones``, on-disk B-tree pages in
index specs) are ignored.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.errors import StorageCorruptionError
from repro.minidb.storage.segment import decode_cell
from repro.minidb.storage.serde import decode_row, read_varint

__all__ = ["KIND_HEAP", "KIND_HEAP_DICT", "decode_page", "heap_rows",
           "read_tables"]

KIND_HEAP = 1
KIND_HEAP_DICT = 4

_HEADER = struct.Struct(">2sBBHHI")
_SLOT = struct.Struct(">HH")


def decode_page(data: bytes) -> tuple[int, list[bytes]]:
    """Unpack a page image into ``(kind, cells)``, verifying the CRC."""
    if len(data) < _HEADER.size:
        raise StorageCorruptionError(f"page truncated to {len(data)} bytes")
    magic, kind, _, count, _, crc = _HEADER.unpack_from(data, 0)
    if magic != b"MP":
        raise StorageCorruptionError(f"bad page magic {magic!r}")
    checked = bytearray(data)
    struct.pack_into(">I", checked, 8, 0)
    if zlib.crc32(checked) != crc:
        raise StorageCorruptionError("page checksum mismatch")
    cells = []
    for slot in range(count):
        offset, length = _SLOT.unpack_from(data, _HEADER.size
                                           + slot * _SLOT.size)
        if offset + length > len(data):
            raise StorageCorruptionError("cell slot out of page bounds")
        cells.append(data[offset:offset + length])
    return kind, cells


def heap_rows(kind: int, cells: list[bytes]) -> list[tuple]:
    """The row tuples stored on one heap page."""
    if kind == KIND_HEAP:
        return [decode_row(cell) for cell in cells]
    if kind != KIND_HEAP_DICT:
        raise StorageCorruptionError(f"unknown page kind {kind}")
    header = cells[0]
    nrows, offset = read_varint(header, 0)
    ncols, offset = read_varint(header, offset)
    columns: list[list[Any]] = [
        decode_cell(cells[1 + position], header[offset + position], nrows)
        for position in range(ncols)]
    return list(zip(*columns)) if columns else [()] * nrows


def read_tables(path: str, manifest: dict) -> dict[str, list[tuple]]:
    """Every table's rows, in order, from the page file at *path*."""
    page_size = manifest["page_size"]
    tables = {}
    with open(path, "rb") as handle:
        for name, entry in manifest["tables"].items():
            rows: list[tuple] = []
            for page_id, _count in entry["heap_pages"]:
                handle.seek(page_id * page_size)
                rows.extend(heap_rows(*decode_page(handle.read(page_size))))
            tables[name] = rows
    return tables
