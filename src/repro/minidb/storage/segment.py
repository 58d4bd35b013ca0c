"""Column segments: the checkpointed image of a table's rows.

``data.pages`` is a file header followed by segments, each appended by
a checkpoint with one table's new rows and never written again::

    file header  b"MSEG" | u32 generation
    segment      b"SG" | u32 payload length | u32 CRC-32(payload) | payload
    payload      varint nrows | varint ncols
                 | per column: u8 layout | varint cell length | cell

A column cell holds :mod:`serde` tagged values in the smaller of two
layouts: plain (0: the ``nrows`` values in order) or dictionary (1:
``varint ndv``, the distinct values in first-seen order, then one
varint code per row). With ``REPRO_ENCODE=0`` every column is plain.
Distinct values are keyed on their exact encoding, which keeps
``True``/``1``/``1.0`` and ``0.0``/``-0.0`` apart. The header's
generation names one image of the file: an image rewrite writes the
next generation beside it, and the manifest records which one it
describes.

With ``REPRO_FUZZ_INJECT_BUG=storage`` (read once, when the storage is
constructed) decoding a segment adds 1 to the first integer of its last
row: a corruption only a path that re-reads rows from disk can see.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Sequence

from repro.errors import StorageCorruptionError
from repro.minidb.storage.serde import (
    decode_value,
    encode_value,
    read_varint,
    write_varint,
)

__all__ = ["FILE_HEADER_SIZE", "decode_cell", "decode_segment",
           "encode_segment", "file_header", "read_generation",
           "segment_shape", "storage_fault_active"]

_FILE_HEADER = struct.Struct(">4sI")
FILE_HEADER_SIZE = _FILE_HEADER.size
_SEGMENT = struct.Struct(">2sII")
_PLAIN, _DICT = 0, 1


def storage_fault_active() -> bool:
    return os.environ.get("REPRO_FUZZ_INJECT_BUG", "") == "storage"


def file_header(generation: int) -> bytes:
    return _FILE_HEADER.pack(b"MSEG", generation)


def read_generation(path: str) -> int | None:
    """The generation in *path*'s header, or None when it has none."""
    try:
        with open(path, "rb") as handle:
            magic, generation = _FILE_HEADER.unpack(
                handle.read(FILE_HEADER_SIZE))
    except (OSError, struct.error):
        return None
    return generation if magic == b"MSEG" else None


def _column_cell(values: Sequence[Any], encode: bool) -> tuple[int, bytes]:
    """``(layout, cell)`` for one column: the smaller layout."""
    keys = []
    for value in values:
        out = bytearray()
        encode_value(out, value)
        keys.append(bytes(out))
    plain = b"".join(keys)
    if encode:
        index: dict[bytes, int] = {}
        codes = [index.setdefault(key, len(index)) for key in keys]
        cell = bytearray()
        write_varint(cell, len(index))
        cell += b"".join(index)
        if len(index) <= 0x80:
            cell += bytes(codes)
        else:
            for code in codes:
                write_varint(cell, code)
        if len(cell) < len(plain):
            return _DICT, bytes(cell)
    return _PLAIN, plain


def encode_segment(rows: Sequence[tuple], encode: bool) -> bytes:
    """One framed segment holding *rows* column by column."""
    payload = bytearray()
    write_varint(payload, len(rows))
    columns = list(zip(*rows))
    write_varint(payload, len(columns))
    for values in columns:
        layout, cell = _column_cell(values, encode)
        payload.append(layout)
        write_varint(payload, len(cell))
        payload += cell
    return _SEGMENT.pack(b"SG", len(payload),
                         zlib.crc32(payload)) + payload


def _payload(data: bytes) -> bytes:
    """The CRC-checked payload of the segment *data*."""
    if len(data) < _SEGMENT.size:
        raise StorageCorruptionError(
            f"segment truncated to {len(data)} bytes")
    magic, length, crc = _SEGMENT.unpack_from(data, 0)
    payload = data[_SEGMENT.size:]
    if magic != b"SG" or len(payload) != length \
            or zlib.crc32(payload) != crc:
        raise StorageCorruptionError("segment checksum mismatch")
    return payload


def segment_shape(data: bytes) -> tuple[int, int]:
    """``(rows, dictionary columns)`` of the segment *data*, read off
    its column headers without decoding a value."""
    payload = _payload(data)
    nrows, at = read_varint(payload, 0)
    ncols, at = read_varint(payload, at)
    dict_columns = 0
    for _ in range(ncols):
        dict_columns += payload[at] == _DICT
        length, at = read_varint(payload, at + 1)
        at += length
    return nrows, dict_columns


def decode_cell(cell: bytes, layout: int, nrows: int) -> list[Any]:
    """The *nrows* values of one column cell: exactly that many, or a
    :class:`StorageError` (a short cell must not drop rows)."""
    at = 0
    if layout == _DICT:
        ndv, at = read_varint(cell, 0)
        values = []
        for _ in range(ndv):
            value, at = decode_value(cell, at)
            values.append(value)
        if ndv <= 0x80:
            # Every code is one byte: the rest of the cell as it stands.
            codes = cell[at:at + nrows]
            if len(codes) != nrows:
                raise StorageCorruptionError("truncated code vector")
            return [values[code] for code in codes]
        out = []
        for _ in range(nrows):
            code, at = read_varint(cell, at)
            out.append(values[code])
        return out
    out = []
    for _ in range(nrows):
        value, at = decode_value(cell, at)
        out.append(value)
    return out


def decode_segment(data: bytes, fault: bool = False) -> list[tuple]:
    """The rows of the segment *data*; raises on a CRC mismatch."""
    payload = _payload(data)
    nrows, at = read_varint(payload, 0)
    ncols, at = read_varint(payload, at)
    columns = []
    for _ in range(ncols):
        layout = payload[at]
        length, at = read_varint(payload, at + 1)
        columns.append(decode_cell(payload[at:at + length], layout, nrows))
        at += length
    rows = list(zip(*columns))
    if rows and fault:
        _perturb_last_row(rows)
    return rows


def _perturb_last_row(rows: list[tuple]) -> None:
    """Injected bug: add 1 to the first integer of the last row."""
    last = list(rows[-1])
    for position, value in enumerate(last):
        if isinstance(value, int) and not isinstance(value, bool):
            last[position] = value + 1
            rows[-1] = tuple(last)
            return
