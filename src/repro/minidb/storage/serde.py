"""Typed-value serialization for the on-disk storage engine.

Every stored value is encoded self-describing — a one-byte tag followed
by a tag-specific payload — so WAL records and segment cells decode
without consulting the table schema. The encoding round-trips every
Python value minidb stores (see ``repro.minidb.types``) *exactly*:

=========  =============================================================
tag        payload
=========  =============================================================
NULL       (empty)
FALSE      (empty) — BOOLEAN False (distinct from INTEGER 0)
TRUE       (empty) — BOOLEAN True
INT        zigzag LEB128 varint (arbitrary precision, so huge Python
           ints — and TIMESTAMP/INTERVAL second counts — are exact)
FLOAT      8 bytes, big-endian IEEE-754 double (bit-exact, NaN included)
STR        LEB128 byte length + UTF-8 (surrogatepass, so any str)
=========  =============================================================

Rows are a LEB128 column count followed by the encoded values. The
format is deliberately byte-oriented and position-independent: a decoder
is handed ``(buffer, offset)`` and returns ``(value, next_offset)``, so
segment cells and WAL payloads compose without copying.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.errors import StorageError

__all__ = [
    "decode_row",
    "decode_value",
    "encode_row",
    "encode_value",
    "read_varint",
    "write_varint",
]

_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5

_DOUBLE = struct.Struct(">d")


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to *out*."""
    if value < 0:
        raise StorageError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(buffer: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        try:
            byte = buffer[offset]
        except IndexError:
            raise StorageError("truncated varint") from None
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def encode_value(out: bytearray, value: Any) -> None:
    """Append one tagged value to *out*.

    ``bool`` is checked before ``int`` (it is a subclass) so BOOLEAN
    values survive the round trip as ``bool``, not ``int``.
    """
    if value is None:
        out.append(_TAG_NULL)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        write_varint(out, (value << 1) if value >= 0
                     else (((-value) << 1) - 1))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(_DOUBLE.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
        out.append(_TAG_STR)
        write_varint(out, len(data))
        out.extend(data)
    else:
        raise StorageError(
            f"cannot serialize value {value!r} of type "
            f"{type(value).__name__}")


def decode_value(buffer: bytes, offset: int) -> tuple[Any, int]:
    """Decode one tagged value; returns ``(value, next_offset)``."""
    try:
        tag = buffer[offset]
    except IndexError:
        raise StorageError("truncated value (missing tag)") from None
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        raw, offset = read_varint(buffer, offset)
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), offset
    if tag == _TAG_FLOAT:
        end = offset + 8
        if end > len(buffer):
            raise StorageError("truncated float payload")
        return _DOUBLE.unpack(buffer[offset:end])[0], end
    if tag == _TAG_STR:
        length, offset = read_varint(buffer, offset)
        end = offset + length
        if end > len(buffer):
            raise StorageError("truncated string payload")
        return buffer[offset:end].decode("utf-8", "surrogatepass"), end
    raise StorageError(f"unknown value tag {tag}")


def encode_row(row: Sequence[Any]) -> bytes:
    """Encode a row tuple as a self-contained cell."""
    out = bytearray()
    write_varint(out, len(row))
    for value in row:
        encode_value(out, value)
    return bytes(out)


def decode_row(cell: bytes) -> tuple:
    """Decode a cell produced by :func:`encode_row`."""
    count, offset = read_varint(cell, 0)
    values = []
    for _ in range(count):
        value, offset = decode_value(cell, offset)
        values.append(value)
    return tuple(values)
