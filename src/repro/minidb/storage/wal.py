"""The write-ahead log: logical redo records with commit markers.

The WAL makes each catalog/table mutation atomic and durable *before*
any row list changes. Records are logical (the operation and its rows),
not physical images — combined with append-only segments this keeps
recovery simple: the data file always holds the state of the last
checkpoint, and replaying the committed WAL suffix on top of it
reproduces the last committed epoch exactly.

Framing, per record::

    u32 payload length | u32 CRC-32(payload) | payload

The payload's first byte is the operation kind; the rest uses the same
varint/typed-value serde as segments. Each transaction is a run of op
records terminated by a COMMIT record carrying the epoch; ``fsync``
happens once per transaction, immediately after the COMMIT record
(commit = durable). Recovery replays only transactions whose COMMIT
record is intact (CRC-valid) and whose epoch is newer than the
manifest's; a torn record or missing COMMIT discards the whole tail, so
a crash mid-write can only lose the *uncommitted* transaction.

Truncation happens at checkpoint, after the new manifest is durable:
everything in the log is then reflected in the data file and can go.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.minidb.storage import faults
from repro.minidb.storage.serde import (
    decode_row,
    encode_row,
    read_varint,
    write_varint,
)

__all__ = ["OP_APPEND", "OP_COMMIT", "OP_CREATE_INDEX", "OP_CREATE_TABLE",
           "OP_DROP_TABLE", "OP_REPLACE", "WalRecord", "WriteAheadLog"]

OP_CREATE_TABLE = 1
OP_DROP_TABLE = 2
OP_CREATE_INDEX = 3
OP_APPEND = 4
OP_REPLACE = 5
OP_COMMIT = 6

_FRAME = struct.Struct(">II")


class WalRecord:
    """One decoded logical operation."""

    __slots__ = ("op", "table", "rows", "schema_pairs", "column",
                 "index_name", "epoch")

    def __init__(self, op: int, table: str = "", rows: list | None = None,
                 schema_pairs: list | None = None, column: str = "",
                 index_name: str | None = None, epoch: int = 0) -> None:
        self.op = op
        self.table = table
        self.rows = rows or []
        self.schema_pairs = schema_pairs or []
        self.column = column
        self.index_name = index_name
        self.epoch = epoch


def _encode_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    write_varint(out, len(data))
    out.extend(data)


def _decode_str(buffer: bytes, offset: int) -> tuple[str, int]:
    length, offset = read_varint(buffer, offset)
    end = offset + length
    return buffer[offset:end].decode("utf-8"), end


def encode_create_table(name: str,
                        schema_pairs: Sequence[tuple[str, str]]) -> bytes:
    out = bytearray([OP_CREATE_TABLE])
    _encode_str(out, name)
    write_varint(out, len(schema_pairs))
    for column, type_value in schema_pairs:
        _encode_str(out, column)
        _encode_str(out, type_value)
    return bytes(out)


def encode_drop_table(name: str) -> bytes:
    out = bytearray([OP_DROP_TABLE])
    _encode_str(out, name)
    return bytes(out)


def encode_create_index(table: str, column: str, index_name: str) -> bytes:
    out = bytearray([OP_CREATE_INDEX])
    _encode_str(out, table)
    _encode_str(out, column)
    _encode_str(out, index_name)
    return bytes(out)


def encode_rows_op(op: int, table: str,
                   rows: Sequence[Sequence[Any]]) -> bytes:
    out = bytearray([op])
    _encode_str(out, table)
    write_varint(out, len(rows))
    for row in rows:
        cell = encode_row(row)
        write_varint(out, len(cell))
        out.extend(cell)
    return bytes(out)


def encode_commit(epoch: int) -> bytes:
    out = bytearray([OP_COMMIT])
    write_varint(out, epoch)
    return bytes(out)


def decode_record(payload: bytes) -> WalRecord:
    op = payload[0]
    offset = 1
    if op == OP_COMMIT:
        epoch, _ = read_varint(payload, offset)
        return WalRecord(op, epoch=epoch)
    if op == OP_CREATE_TABLE:
        name, offset = _decode_str(payload, offset)
        count, offset = read_varint(payload, offset)
        pairs = []
        for _ in range(count):
            column, offset = _decode_str(payload, offset)
            type_value, offset = _decode_str(payload, offset)
            pairs.append((column, type_value))
        return WalRecord(op, table=name, schema_pairs=pairs)
    if op == OP_DROP_TABLE:
        name, _ = _decode_str(payload, offset)
        return WalRecord(op, table=name)
    if op == OP_CREATE_INDEX:
        table, offset = _decode_str(payload, offset)
        column, offset = _decode_str(payload, offset)
        index_name, _ = _decode_str(payload, offset)
        return WalRecord(op, table=table, column=column,
                         index_name=index_name)
    if op in (OP_APPEND, OP_REPLACE):
        table, offset = _decode_str(payload, offset)
        count, offset = read_varint(payload, offset)
        rows = []
        for _ in range(count):
            length, offset = read_varint(payload, offset)
            rows.append(decode_row(payload[offset:offset + length]))
            offset += length
        return WalRecord(op, table=table, rows=rows)
    raise StorageError(f"unknown WAL op {op}")


class WriteAheadLog:
    """Append-only log file with transactional commit framing."""

    # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    group_count = 0
    # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    group_window = 0.0

    def __init__(self, path: str, sync: bool = True) -> None:
        self.path = path
        self.sync = sync
        self._fd: int | None = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._offset = os.fstat(self._fd).st_size
        #: Lifetime bytes appended (monotone, survives truncation).
        self.bytes_written = 0
        self.commits = 0
        #: Lifetime fsyncs of the log file (one per commit when ``sync``).
        self.syncs = 0

    @property
    def size(self) -> int:
        return self._offset

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _require_fd(self) -> int:
        if self._fd is None:
            raise StorageError("WAL is closed")
        return self._fd

    def _write_record(self, payload: bytes) -> None:
        fd = self._require_fd()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if faults.torn_point("wal-record-torn"):
            os.pwrite(fd, frame[:max(1, len(frame) // 2)], self._offset)
            raise faults.InjectedCrash("wal-record-torn")
        os.pwrite(fd, frame, self._offset)
        self._offset += len(frame)
        self.bytes_written += len(frame)

    def commit(self, records: Sequence[bytes], epoch: int) -> None:
        """Append *records* + a COMMIT marker and make them durable."""
        for payload in records:
            self._write_record(payload)
        faults.crash_point("wal-before-commit")
        self._write_record(encode_commit(epoch))
        self.commits += 1
        if self.sync:
            os.fsync(self._require_fd())
            self.syncs += 1
        faults.crash_point("wal-after-commit")

    def truncate(self) -> None:
        """Discard the whole log (the checkpoint made it redundant)."""
        fd = self._require_fd()
        os.ftruncate(fd, 0)
        if self.sync:
            os.fsync(fd)
        self._offset = 0

    def committed_transactions(self) -> Iterator[tuple[int, list[WalRecord]]]:
        """Yield ``(epoch, ops)`` for every intact committed transaction.

        Scanning stops at the first torn, truncated, or CRC-invalid
        record; a trailing op run without a COMMIT marker is discarded.
        """
        fd = self._require_fd()
        data = os.pread(fd, os.fstat(fd).st_size, 0)
        offset = 0
        pending: list[WalRecord] = []
        while offset + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                break  # torn tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # corrupt record: discard from here on
            try:
                record = decode_record(payload)
            except (StorageError, IndexError):
                break
            offset = end
            if record.op == OP_COMMIT:
                yield record.epoch, pending
                pending = []
            else:
                pending.append(record)
