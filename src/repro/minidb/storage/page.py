"""The slotted-page format of heap pages.

Every page is a fixed-size byte block:

.. code-block:: text

    offset  size  field
    ------  ----  -----------------------------------------------------
         0     2  magic  b"MP"
         2     1  kind   (row-major or column-major heap)
         3     1  reserved (zero)
         4     2  cell count
         6     2  cell_start (lowest byte offset used by cell data)
         8     4  CRC-32 over the whole page with this field zeroed
        12  4*n   slot directory: (offset u16, length u16) per cell
         ...      free space
    cell_start    cell data, growing *down* from the end of the page

Cells are opaque byte strings; a row-major heap page stores one
serialized row per cell. Pages are always rewritten wholesale from their
decoded in-memory form (the engine copies-on-write instead of patching
bytes in place), so the codec only needs encode-all / decode-all.

The CRC turns a torn write into a detected
:class:`~repro.errors.StorageCorruptionError` instead of silently
corrupt rows; because the engine never overwrites a page referenced by
the current manifest, a torn page can only ever hit an *unreferenced*
page, and recovery never reads it.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import StorageCorruptionError, StorageError
from repro.knobs import int_knob

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "HEADER_SIZE",
    "KIND_HEAP",
    "KIND_HEAP_DICT",
    "SLOT_SIZE",
    "cell_capacity",
    "configured_page_size",
    "decode_page",
    "encode_page",
]

#: 4 KiB pages, the classic DBMS default (DB2's bufferpool unit in the
#: paper's experiments). ``REPRO_PAGE_SIZE`` overrides for tests that
#: want many pages/splits from tiny datasets.
DEFAULT_PAGE_SIZE = 4096

HEADER_SIZE = 12
SLOT_SIZE = 4

KIND_HEAP = 1
# Kinds 2 and 3 were on-disk B-tree leaf and inner nodes. Indexes are
# rebuilt from the heap on open, so nothing writes or reads such pages
# any more; the numbers stay reserved and are never reused.

#: Column-major heap page: header cell (row/column counts + per-column
#: layout flags) followed by one cell per column, each either a
#: dictionary (distinct values + per-row codes) or plain tagged values.
KIND_HEAP_DICT = 4

_MAGIC = b"MP"
_HEADER = struct.Struct(">2sBBHHI")


def configured_page_size() -> int:
    """Page size from ``REPRO_PAGE_SIZE`` (default 4096, min 128)."""
    return int_knob("REPRO_PAGE_SIZE", DEFAULT_PAGE_SIZE, 128)


def cell_capacity(page_size: int) -> int:
    """Usable bytes for cells + slots on one page."""
    return page_size - HEADER_SIZE


def cells_size(cells: list[bytes]) -> int:
    """Bytes the slot directory + cell data of *cells* occupy."""
    return sum(len(cell) + SLOT_SIZE for cell in cells)


def encode_page(kind: int, cells: list[bytes], page_size: int) -> bytes:
    """Pack *cells* into one page image, slot directory in cell order."""
    used = cells_size(cells)
    if used > cell_capacity(page_size):
        raise StorageError(
            f"{len(cells)} cells ({used} bytes) overflow a "
            f"{page_size}-byte page")
    page = bytearray(page_size)
    cursor = page_size
    slot_at = HEADER_SIZE
    for cell in cells:
        cursor -= len(cell)
        page[cursor:cursor + len(cell)] = cell
        struct.pack_into(">HH", page, slot_at, cursor, len(cell))
        slot_at += SLOT_SIZE
    _HEADER.pack_into(page, 0, _MAGIC, kind, 0, len(cells), cursor, 0)
    crc = zlib.crc32(page)
    struct.pack_into(">I", page, 8, crc)
    return bytes(page)


def decode_page(data: bytes) -> tuple[int, list[bytes]]:
    """Unpack a page image into ``(kind, cells)``, verifying the CRC."""
    if len(data) < HEADER_SIZE:
        raise StorageCorruptionError(
            f"page truncated to {len(data)} bytes")
    magic, kind, _, count, _, crc = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise StorageCorruptionError(f"bad page magic {magic!r}")
    checked = bytearray(data)
    struct.pack_into(">I", checked, 8, 0)
    if zlib.crc32(checked) != crc:
        raise StorageCorruptionError("page checksum mismatch (torn write?)")
    cells: list[bytes] = []
    slot_at = HEADER_SIZE
    for _ in range(count):
        offset, length = struct.unpack_from(">HH", data, slot_at)
        slot_at += SLOT_SIZE
        if offset + length > len(data):
            raise StorageCorruptionError("cell slot out of page bounds")
        cells.append(data[offset:offset + length])
    return kind, cells
