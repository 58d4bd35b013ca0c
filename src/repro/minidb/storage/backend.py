"""The disk storage backend: rows in memory, a WAL, column segments.

One :class:`DiskStorage` owns a database directory::

    data.pages     file header + immutable column segments (segment.py)
    wal.log        logical redo log, truncated at each checkpoint
    MANIFEST.json  atomic checkpoint root (written via tmp + rename)

A disk table keeps its rows in a plain list, like a memory table; every
mutation is in the WAL before the list changes. A checkpoint appends
each table's new rows as one segment, fsyncs, replaces the manifest
(per table its ``[offset, length, rows]`` segments; the committed
length, generation and epoch) and then truncates the WAL. Reclaim is
per table: a ``replace_rows`` or DROP makes the table's segments dead
(a replaced table gets a fresh base segment), and a new segment absorbs
the table's trailing segments that hold no more rows than it does — or
any past :data:`MAX_SEGMENTS` — so a row is re-encoded O(log n) times.
Only once dead bytes exceed live ones does a checkpoint rewrite the
live image into the next generation. On open, recovery finishes a rename
the manifest already names, cuts ``data.pages`` to the committed
length, decodes the segments, rebuilds indexes, and replays the WAL. A
directory in the older page format opens through
:mod:`~repro.minidb.storage.legacy`; its first checkpoint rewrites it.
See DESIGN.md §11.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro.errors import StorageCorruptionError, StorageError
from repro.knobs import int_knob
from repro.minidb.index import SortedIndex
from repro.minidb.schema import Column, TableSchema
from repro.minidb.storage import faults, legacy, wal as walmod
from repro.minidb.storage.segment import (
    FILE_HEADER_SIZE,
    decode_segment,
    encode_segment,
    file_header,
    read_generation,
    storage_fault_active,
)
from repro.minidb.table import Table
from repro.minidb.types import SqlType

if TYPE_CHECKING:
    from repro.minidb.catalog import Catalog

__all__ = ["DEFAULT_CHECKPOINT_BYTES", "DiskStorage", "MAX_SEGMENTS",
           "configured_checkpoint_bytes", "encode_enabled"]

#: WAL size that triggers an automatic checkpoint at the end of the
#: mutation that crossed it (``REPRO_WAL_LIMIT`` overrides).
DEFAULT_CHECKPOINT_BYTES = 1 << 20

#: Segments a table may have: a checkpoint merges its newest ones
#: into the segment it appends so the table keeps at most this many.
MAX_SEGMENTS = 8

#: Counter keys only ``bench/`` reads, always 0.
_BENCH_ONLY_COUNTERS = (
    "pages_read",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "pages_written",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "pages_evicted",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "buffer_hits",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "buffer_misses",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "pages_pruned",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "prefetch_hits",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "prefetch_wasted",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    "group_syncs",  # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
)


def configured_checkpoint_bytes() -> int:
    return int_knob("REPRO_WAL_LIMIT", DEFAULT_CHECKPOINT_BYTES, 1)


def encode_enabled() -> bool:
    """Whether ``REPRO_ENCODE`` (default on, ``0`` = off) lets segment
    columns take the dictionary layout."""
    return int_knob("REPRO_ENCODE", 1, 0, 1) != 0


def _schema(pairs) -> TableSchema:
    return TableSchema(Column(name, SqlType(type_value))
                       for name, type_value in pairs)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DiskStorage:
    """Durable storage for one database: a WAL plus column segments.

    With ``path=None`` the storage owns a temporary directory, deleted
    on a clean :meth:`close`; a named path persists across opens.
    """

    # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    pager = SimpleNamespace(readahead=0)
    # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    page_size = 4096

    def __init__(self, path: str | None = None, sync: bool = True,
                 checkpoint_bytes: int | None = None,
                 encode: bool | None = None) -> None:
        # Assigned before anything that can raise: close() must work on
        # a partially constructed instance.
        self.wal = None
        self.catalog: "Catalog | None" = None
        self.dead = False
        self.closed = False
        self.owns_dir = path is None
        self.path = path or tempfile.mkdtemp(prefix="minidb-")
        os.makedirs(self.path, exist_ok=True)
        self.data_path = os.path.join(self.path, "data.pages")
        self.sync = sync
        #: The *encode* override, else REPRO_ENCODE; resolved here, like
        #: the decode fault, so decoding never reads the environment.
        self.encode = encode_enabled() if encode is None else bool(encode)
        self._decode_fault = storage_fault_active()
        self.checkpoint_bytes = (checkpoint_bytes
                                 if checkpoint_bytes is not None
                                 else configured_checkpoint_bytes())
        self.wal = walmod.WriteAheadLog(os.path.join(self.path, "wal.log"),
                                        sync=sync)
        self.epoch = 0
        self.manifest_epoch = 0
        #: The image generation and committed length of ``data.pages``.
        self.generation = 0
        self.data_length = FILE_HEADER_SIZE
        #: Per table: its ``[offset, length, rows]`` segments, holding
        #: its first ``sum(rows)`` rows.
        self._segments: dict[str, list[list[int]]] = {}
        #: Set when the next checkpoint must rewrite the image: the data
        #: file is in the older page format.
        self._rewrite_due = False
        self.replaying = False
        self.checkpoints = 0
        #: Image rewrites: the checkpoints that reclaimed space.
        self.compactions = 0
        self.segments_written = 0
        self.segments_decoded = 0

    # -- WAL logging (called from Table/Catalog mutation paths) ---------

    def _commit(self, payload: bytes) -> None:
        if self.replaying or self.dead:
            return
        self.epoch += 1
        self.wal.commit([payload], self.epoch)

    def log_create_table(self, name: str, schema) -> None:
        self._commit(walmod.encode_create_table(
            name, [(column.name, column.sql_type.value)
                   for column in schema]))

    def log_drop_table(self, name: str) -> None:
        self._segments.pop(name, None)  # dead bytes from here on
        self._commit(walmod.encode_drop_table(name))

    def log_create_index(self, table: str, column: str,
                         index_name: str) -> None:
        self._commit(walmod.encode_create_index(table, column, index_name))

    def log_append(self, table: str, rows: list[tuple]) -> None:
        self._commit(walmod.encode_rows_op(walmod.OP_APPEND, table, rows))

    def log_replace(self, table: str, rows: list[tuple]) -> None:
        # The old segments are dead; the next checkpoint writes a fresh
        # base segment with every row.
        self._segments.pop(table, None)
        self._commit(walmod.encode_rows_op(walmod.OP_REPLACE, table, rows))

    def mutation_complete(self) -> None:
        """Checkpoint once the WAL is large enough; called only after a
        table's rows and indexes are both updated."""
        if not (self.replaying or self.dead) \
                and self.wal.size >= self.checkpoint_bytes:
            self.checkpoint()

    # -- checkpoint -----------------------------------------------------

    def checkpoint(self) -> None:
        """Append each table's new rows as a segment — first copying the
        live segments into a new image once dead bytes exceed live ones
        — then the manifest, then truncate the WAL."""
        if self.dead or self.closed or self.catalog is None:
            return
        live = sum(span[1] for spans in self._segments.values()
                   for span in spans)
        dead = self.data_length - FILE_HEADER_SIZE - live
        rewrite = self._rewrite_due or dead > live
        if rewrite:
            generation, target = self.generation + 1, self.data_path + ".tmp"
        else:
            generation, target = self.generation, self.data_path
        segments = {name: [list(span) for span in spans]
                    for name, spans in self._segments.items()}
        offset = self.data_length
        fd = os.open(target, os.O_WRONLY | os.O_CREAT
                     | (os.O_TRUNC if rewrite else 0), 0o644)
        try:
            if rewrite:
                os.pwrite(fd, file_header(generation), 0)
                offset = FILE_HEADER_SIZE
                with open(self.data_path, "rb") as image:
                    for spans in segments.values():
                        for span in spans:  # copied as they are
                            image.seek(span[0])
                            os.pwrite(fd, image.read(span[1]), offset)
                            span[0] = offset
                            offset += span[1]
            for table in self.catalog:
                spans = segments.setdefault(table.name, [])
                start = sum(span[2] for span in spans)
                if len(table.rows) <= start:
                    continue
                # Absorb trailing segments no larger than the new one,
                # and any past the cap: segment sizes stay geometric.
                while spans and (spans[-1][2] <= len(table.rows) - start
                                 or len(spans) >= MAX_SEGMENTS):
                    start -= spans.pop()[2]
                segment = encode_segment(table.rows[start:], self.encode)
                if faults.torn_point("segment-torn"):
                    os.pwrite(fd, segment[:len(segment) // 2], offset)
                    raise faults.InjectedCrash("segment-torn")
                os.pwrite(fd, segment, offset)
                self.segments_written += 1
                spans.append([offset, len(segment), len(table.rows) - start])
                offset += len(segment)
            if self.sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        if rewrite:
            faults.crash_point("rewrite-before-manifest")
            self._write_manifest(generation, offset, segments)
            faults.crash_point("rewrite-after-manifest")
            os.replace(target, self.data_path)
            if self.sync:
                _fsync_dir(self.path)
            self.compactions += 1
        else:
            faults.crash_point("checkpoint-before-manifest")
            self._write_manifest(generation, offset, segments)
        faults.crash_point("checkpoint-after-manifest")
        self.wal.truncate()
        self._segments = segments
        self.generation, self.data_length = generation, offset
        self._rewrite_due = False
        self.manifest_epoch = self.epoch
        self.checkpoints += 1

    def _write_manifest(self, generation: int, data_length: int,
                        segments: dict[str, list[list[int]]]) -> None:
        assert self.catalog is not None
        manifest = {
            "epoch": self.epoch,
            "generation": generation,
            "data_length": data_length,
            "tables": {table.name: {
                "schema": [[column.name, column.sql_type.value]
                           for column in table.schema],
                "segments": segments.get(table.name, []),
                "indexes": {name: {"column": index.column}
                            for name, index in table.indexes.items()},
            } for table in self.catalog},
        }
        tmp = os.path.join(self.path, "MANIFEST.json.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, json.dumps(manifest).encode("utf-8"))
            if self.sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, os.path.join(self.path, "MANIFEST.json"))
        if self.sync:
            _fsync_dir(self.path)

    # -- open / recovery ------------------------------------------------

    def open(self, catalog: "Catalog") -> int:
        """Attach checkpoint state and replay the WAL into *catalog*;
        returns the number of replayed transactions."""
        self.catalog = catalog
        try:
            with open(os.path.join(self.path, "MANIFEST.json"), "r",
                      encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            # Nothing durable yet: whatever a crashed first checkpoint
            # left in the data file is garbage.
            with open(self.data_path, "wb") as handle:
                handle.write(file_header(self.generation))
        else:
            self.epoch = self.manifest_epoch = manifest["epoch"]
            if "page_size" in manifest:
                tables = legacy.read_tables(self.data_path, manifest)
                self._rewrite_due = True
            else:
                tables = self._read_segments(manifest)
            for name, entry in manifest["tables"].items():
                self._attach(name, entry, tables[name])
        replayed = 0
        self.replaying = True
        try:
            for epoch, ops in self.wal.committed_transactions():
                if epoch <= self.manifest_epoch:
                    continue  # already folded into the checkpoint
                for op in ops:
                    self._apply(op)
                self.epoch = max(self.epoch, epoch)
                replayed += 1
        finally:
            self.replaying = False
        if replayed:
            # Fold the replayed tail into a fresh checkpoint so a second
            # crash cannot have to replay on top of replay.
            self.checkpoint()
        return replayed

    def _read_segments(self, manifest: dict) -> dict[str, list[tuple]]:
        """Every table's rows from the image the manifest names."""
        self.generation = manifest["generation"]
        self.data_length = manifest["data_length"]
        tmp = self.data_path + ".tmp"
        if read_generation(self.data_path) != self.generation:
            # Crashed between the manifest naming a rewritten image and
            # the rename that puts it in place: finish the rename.
            if read_generation(tmp) != self.generation:
                raise StorageCorruptionError(
                    f"no data file of generation {self.generation}")
            os.replace(tmp, self.data_path)
        elif os.path.exists(tmp):
            os.remove(tmp)  # a rewrite that never reached its manifest
        tables = {}
        with open(self.data_path, "r+b") as handle:
            handle.truncate(self.data_length)
            for name, entry in manifest["tables"].items():
                rows: list[tuple] = []
                for offset, length, _ in entry["segments"]:
                    handle.seek(offset)
                    rows.extend(decode_segment(handle.read(length),
                                               self._decode_fault))
                    self.segments_decoded += 1
                tables[name] = rows
                self._segments[name] = entry["segments"]
        return tables

    def _attach(self, name: str, entry: dict, rows: list[tuple]) -> None:
        assert self.catalog is not None
        table = Table(name, _schema(entry["schema"]), storage=self)
        table.rows = rows
        for index_name, spec in entry["indexes"].items():
            table.indexes[index_name] = SortedIndex(index_name,
                                                    spec["column"])
        table.rebuild_indexes(table.indexes.values())
        self.catalog.attach(table)

    def _apply(self, record: walmod.WalRecord) -> None:
        catalog = self.catalog
        assert catalog is not None
        if record.op == walmod.OP_CREATE_TABLE:
            catalog.create_table(record.table, _schema(record.schema_pairs))
        elif record.op == walmod.OP_DROP_TABLE:
            catalog.drop_table(record.table)
        elif record.op == walmod.OP_CREATE_INDEX:
            catalog.table(record.table).create_index(
                record.column, record.index_name)
        elif record.op == walmod.OP_APPEND:
            catalog.table(record.table).append_rows(record.rows)
        elif record.op == walmod.OP_REPLACE:
            catalog.table(record.table).replace_rows(record.rows,
                                                     coerced=True)
        else:
            raise StorageError(f"unreplayable WAL op {record.op}")

    # -- lifecycle ------------------------------------------------------

    def simulate_crash(self) -> None:
        """Abandon the files as a power cut would leave them: a dead
        storage never checkpoints, not even from ``Database.__del__``."""
        self.dead = True
        self.wal.close()  # close() never fsyncs: the log stays as cut

    def close(self) -> None:
        """Checkpoint, release every table's rows, column cache and
        index entries (all durable or derivable now: a closed database
        that something still references must not hold its tables), and
        delete a temp-owned directory. Safe on a partially constructed,
        never-opened or crashed instance, and twice."""
        if self.dead or self.closed or self.wal is None:
            return
        self.checkpoint()
        self.closed = True
        self.wal.close()
        for table in self.catalog or ():
            table.release_derived()
            table.rows = []
        if self.owns_dir:
            shutil.rmtree(self.path, ignore_errors=True)

    @property
    def counters(self) -> dict[str, int]:
        """Storage work counters (WAL, checkpoints, segments)."""
        return {
            "wal_bytes": self.wal.bytes_written,
            "wal_commits": self.wal.commits,
            "wal_syncs": self.wal.syncs,
            "checkpoints": self.checkpoints,
            "compactions": self.compactions,
            "segments_written": self.segments_written,
            "segments_decoded": self.segments_decoded,
            **dict.fromkeys(_BENCH_ONLY_COUNTERS, 0),
        }
