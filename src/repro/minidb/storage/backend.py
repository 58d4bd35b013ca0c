"""The disk storage backend: pages + WAL + manifest, with recovery.

One :class:`DiskStorage` owns a database directory::

    data.pages     fixed-size slotted pages (heap rows, B-tree nodes)
    wal.log        logical redo log, truncated at each checkpoint
    MANIFEST.json  atomic checkpoint root (written via tmp + rename)

Durability protocol (see DESIGN.md §11):

1. Every mutation batch is logged to the WAL and fsync'd *before* any
   page changes — commit means the COMMIT record is on disk.
2. Pages referenced by the current manifest are never overwritten:
   mutations copy-on-write onto freshly allocated page ids, so a torn
   page write can only hit a page recovery will never read.
3. A checkpoint flushes dirty pages, fsyncs the data file, atomically
   replaces the manifest, and only then truncates the WAL. The manifest
   records the checkpoint epoch; replay skips committed transactions at
   or below it, making recovery idempotent.

Recovery on open: load the manifest (if any), attach each table with its
heap-page chain and B-tree indexes, then replay every intact committed
WAL transaction with a newer epoch through the normal ``Table`` mutation
paths (logging suppressed). The resulting state is exactly the last
committed epoch — the crash-recovery test rig asserts this for a crash
at every declared fault point.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Iterator

from repro.errors import StorageError
from repro.knobs import int_knob
from repro.minidb.storage import faults, wal as walmod
from repro.minidb.storage.btree import (
    BTreeBackedIndex,
    DiskBTree,
    InnerNode,
    LeafNode,
)
from repro.minidb.storage.heap import (
    DiskRowStore,
    HeapPageNode,
    storage_fault_active,
)
from repro.minidb.storage.page import (
    KIND_BTREE_INNER,
    KIND_BTREE_LEAF,
    KIND_HEAP,
    KIND_HEAP_DICT,
    configured_page_size,
)
from repro.minidb.storage.pager import Pager, configured_buffer_pages

if TYPE_CHECKING:
    from repro.minidb.catalog import Catalog

__all__ = ["DEFAULT_CHECKPOINT_BYTES", "DiskStorage",
           "configured_checkpoint_bytes", "encode_enabled"]

#: WAL size that triggers an automatic checkpoint at the end of the
#: mutation that crossed it (``REPRO_WAL_LIMIT`` overrides).
DEFAULT_CHECKPOINT_BYTES = 1 << 20

_MANIFEST = "MANIFEST.json"
_DATA = "data.pages"
_WAL = "wal.log"


def configured_checkpoint_bytes() -> int:
    return int_knob("REPRO_WAL_LIMIT", DEFAULT_CHECKPOINT_BYTES, 1)


def encode_enabled() -> bool:
    """Whether ``REPRO_ENCODE`` (default on, ``0`` = off) lets heap
    pages take the dictionary layout."""
    return int_knob("REPRO_ENCODE", 1, 0, 1) != 0


class DiskStorage:
    """Page-based persistent storage for one database.

    With ``path=None`` the storage owns a temporary directory that is
    deleted on a clean :meth:`close` — the ephemeral mode the fuzz
    oracle's ``disk`` label uses. A named path persists across opens and
    is what the recovery tests reopen after a simulated crash.
    """

    def __init__(self, path: str | None = None,
                 buffer_pages: int | None = None,
                 page_size: int | None = None, sync: bool = True,
                 checkpoint_bytes: int | None = None,
                 encode: bool | None = None) -> None:
        # Assigned before anything that can raise, so close() on a
        # partially constructed instance (a failed __init__ reached via
        # Database.__exit__/__del__) has a consistent base state.
        self.pager = None
        self.wal = None
        self.catalog: "Catalog | None" = None
        self.dead = False
        self.owns_dir = path is None
        self.path = path or tempfile.mkdtemp(prefix="minidb-")
        os.makedirs(self.path, exist_ok=True)
        self.sync = sync
        #: Whether pages filled by this storage may take the dictionary
        #: layout: the *encode* override, else REPRO_ENCODE. Resolved
        #: here, like the decode fault below, so that decoding a page
        #: never consults the environment.
        self.encode = encode_enabled() if encode is None else bool(encode)
        self._decode_fault = storage_fault_active()
        #: Pages decoded into nodes (one per page read) and decoded heap
        #: nodes whose fill accounting had to be re-derived because they
        #: were written to again.
        self.pages_decoded = 0
        self.accounting_rebuilds = 0
        self.checkpoint_bytes = (checkpoint_bytes
                                 if checkpoint_bytes is not None
                                 else configured_checkpoint_bytes())
        manifest = self._read_manifest()
        if manifest is not None:
            # The file format is fixed at creation time; an existing
            # manifest overrides any configured page size.
            page_size = manifest["page_size"]
        self.page_size = page_size or configured_page_size()
        capacity = (buffer_pages if buffer_pages is not None
                    else configured_buffer_pages())
        self.pager = Pager(os.path.join(self.path, _DATA), self.page_size,
                           capacity, self._decode_node)
        self.wal = walmod.WriteAheadLog(os.path.join(self.path, _WAL),
                                        sync=sync)
        self.epoch = 0
        self.manifest_epoch = 0
        self.next_page_id = 0
        self.manifest_pages: set[int] = set()
        #: Reusable now: never referenced by the current manifest.
        self._free_now: list[int] = []
        #: Referenced by the current manifest; reusable only after the
        #: *next* checkpoint stops referencing them.
        self._retired: list[int] = []
        self.checkpoints = 0
        #: Compaction work: checkpoint passes that moved pages, and the
        #: total number of page relocations.
        self.compactions = 0
        self.pages_moved = 0
        self.replaying = False
        self._manifest_cache = manifest

    def _decode_node(self, kind: int, cells: list[bytes]):
        """The pager's decode callback: a page's cells to its node."""
        self.pages_decoded += 1
        if kind == KIND_HEAP:
            return HeapPageNode.from_cells(cells, self.encode,
                                           self._decode_fault)
        if kind == KIND_HEAP_DICT:
            return HeapPageNode.from_dict_cells(cells, self._decode_fault)
        if kind == KIND_BTREE_LEAF:
            return LeafNode.from_cells(cells)
        if kind == KIND_BTREE_INNER:
            return InnerNode.from_cells(cells)
        raise StorageError(f"unknown page kind {kind}")

    # -- page allocation ------------------------------------------------

    def allocate_page(self) -> int:
        if self._free_now:
            return self._free_now.pop()
        page_id = self.next_page_id
        self.next_page_id += 1
        return page_id

    def free_page(self, page_id: int) -> None:
        self.pager.discard(page_id)
        if page_id in self.manifest_pages:
            self._retired.append(page_id)
        else:
            self._free_now.append(page_id)

    def page_shadowed(self, page_id: int) -> bool:
        """Whether the current manifest references *page_id* (→ COW)."""
        return page_id in self.manifest_pages

    # -- WAL logging (called from Table/Catalog mutation paths) ---------

    def _commit(self, payloads: list[bytes]) -> None:
        if self.replaying or self.dead:
            return
        self.epoch += 1
        self.wal.commit(payloads, self.epoch)

    def log_create_table(self, name: str, schema) -> None:
        self._commit([walmod.encode_create_table(
            name, [(column.name, column.sql_type.value)
                   for column in schema])])

    def log_drop_table(self, name: str) -> None:
        self._commit([walmod.encode_drop_table(name)])

    def log_create_index(self, table: str, column: str,
                         index_name: str) -> None:
        self._commit([walmod.encode_create_index(table, column,
                                                 index_name)])

    def log_append(self, table: str, rows: list[tuple]) -> None:
        self._commit([walmod.encode_rows_op(walmod.OP_APPEND, table,
                                            rows)])

    def log_replace(self, table: str, rows: list[tuple]) -> None:
        self._commit([walmod.encode_rows_op(walmod.OP_REPLACE, table,
                                            rows)])

    def mutation_complete(self) -> None:
        """End-of-mutation hook: checkpoint once the WAL is large enough.

        Only ever called *after* a table finished updating both rows and
        indexes, so a checkpoint can never capture a half-applied batch.
        """
        if self.replaying or self.dead:
            return
        if self.wal.size >= self.checkpoint_bytes:
            self.checkpoint()

    # -- checkpoint -----------------------------------------------------

    def checkpoint(self) -> None:
        """Make the current state the durable baseline, truncate the WAL.

        A checkpoint also runs the online compaction pass: tail pages are
        relocated into free slots so the trailing run of free pages can
        be truncated off ``data.pages``. Move targets come only from
        ``_free_now`` — retired pages are still referenced by the current
        manifest (WAL replay may read them), so they become candidates
        one checkpoint later. The relocated copies land on pages no
        recovery path reads, which keeps a crash at ``compaction-move``
        exactly as recoverable as one at ``checkpoint-before-manifest``.
        """
        if self.dead or self.catalog is None \
                or self.pager is None or self.pager.closed:
            return
        self.pager.flush_all(sync=self.sync)
        faults.crash_point("checkpoint-before-manifest")
        moves, free_after, next_after = self._plan_compaction()
        if moves:
            self._apply_moves(moves)
            self.pager.flush_all(sync=self.sync)
            faults.crash_point("compaction-move")
            self.compactions += 1
            self.pages_moved += len(moves)
        manifest = self._build_manifest(free_after, next_after)
        self._write_manifest(manifest)
        faults.crash_point("checkpoint-after-manifest")
        self.wal.truncate()
        if next_after < self.next_page_id:
            self.pager.truncate(next_after)
        self.next_page_id = next_after
        self.manifest_epoch = self.epoch
        self.manifest_pages = set(self._live_pages())
        self._free_now = free_after
        self._retired = []
        self.checkpoints += 1

    def _plan_compaction(self) -> tuple[list[tuple[int, int]],
                                        list[int], int]:
        """``(moves, free_after, next_after)`` for this checkpoint.

        Pairs the highest live page ids with the lowest ``_free_now``
        holes (only while the hole is below the mover), then trims the
        trailing run of free ids off the end of the address space.
        ``free_after`` is the post-move free list (consumed holes out,
        vacated originals and retirees in, tail trimmed); ``next_after``
        is the new page count for ``data.pages``.
        """
        free_set = {*self._free_now, *self._retired}
        targets = sorted(self._free_now)
        movers = sorted(self._live_pages(), reverse=True)
        moves: list[tuple[int, int]] = []
        cursor = 0
        for mover in movers:
            if cursor >= len(targets) or targets[cursor] >= mover:
                break
            moves.append((mover, targets[cursor]))
            free_set.discard(targets[cursor])
            free_set.add(mover)
            cursor += 1
        next_after = self.next_page_id
        while next_after > 0 and (next_after - 1) in free_set:
            free_set.discard(next_after - 1)
            next_after -= 1
        return moves, sorted(free_set), next_after

    def _apply_moves(self, moves: list[tuple[int, int]]) -> None:
        """Relocate pages per *moves* and rewrite every reference."""
        assert self.catalog is not None
        mapping = dict(moves)
        pager = self.pager
        for old_id, new_id in moves:
            node = pager.fetch(old_id)
            # The move rewrites the page from its node; a heap node
            # decoded for reading has to recover its layout choice.
            if isinstance(node, HeapPageNode) and node.ensure_accounting():
                self.accounting_rebuilds += 1
            pager.discard(old_id)
            pager.adopt(new_id, node)
        for table in self.catalog:
            store = table.rows
            if isinstance(store, DiskRowStore):
                store.page_ids = [mapping.get(page_id, page_id)
                                  for page_id in store.page_ids]
            for index in table.indexes.values():
                if isinstance(index, BTreeBackedIndex):
                    self._remap_tree(index.tree, mapping)

    def _remap_tree(self, tree: DiskBTree,
                    mapping: dict[int, int]) -> None:
        tree.pages = {mapping.get(page_id, page_id)
                      for page_id in tree.pages}
        if tree.root is None:
            return
        tree.root = mapping.get(tree.root, tree.root)
        self._remap_children(tree.root, mapping)

    def _remap_children(self, page_id: int,
                        mapping: dict[int, int]) -> None:
        node = self.pager.fetch(page_id)
        if not isinstance(node, InnerNode):
            return
        changed = False
        for slot, child in enumerate(node.children):
            new_id = mapping.get(child, child)
            if new_id != child:
                node.set_child(slot, new_id)
                changed = True
        if changed:
            self.pager.mark_dirty(page_id)
        for child in node.children:
            self._remap_children(child, mapping)

    def _live_pages(self) -> Iterator[int]:
        assert self.catalog is not None
        for table in self.catalog:
            store = table.rows
            if isinstance(store, DiskRowStore):
                yield from store.page_ids
            for index in table.indexes.values():
                if isinstance(index, BTreeBackedIndex):
                    yield from index.tree.pages

    def _build_manifest(self, free: list[int] | None = None,
                        next_page_id: int | None = None) -> dict:
        assert self.catalog is not None
        tables: dict = {}
        for table in self.catalog:
            store = table.rows
            if not isinstance(store, DiskRowStore):
                raise StorageError(
                    f"table {table.name!r} is not disk-backed")
            indexes: dict = {}
            for name, index in table.indexes.items():
                if not isinstance(index, BTreeBackedIndex):
                    continue
                tree = index.tree
                indexes[name] = {
                    "column": index.column,
                    "root": tree.root,
                    "count": tree.entry_count,
                    "seq": tree.next_seq,
                    "pages": sorted(tree.pages),
                }
            tables[table.name] = {
                "schema": [[column.name, column.sql_type.value]
                           for column in table.schema],
                "heap_pages": store.manifest_pages(),
                "indexes": indexes,
            }
        if free is None:
            free = sorted({*self._free_now, *self._retired})
        return {
            "epoch": self.epoch,
            "page_size": self.page_size,
            "next_page_id": (self.next_page_id if next_page_id is None
                             else next_page_id),
            "free_pages": free,
            "tables": tables,
        }

    def _write_manifest(self, manifest: dict) -> None:
        final = os.path.join(self.path, _MANIFEST)
        tmp = final + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, json.dumps(manifest).encode("utf-8"))
            if self.sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, final)
        if self.sync:
            dir_fd = os.open(self.path, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def _read_manifest(self) -> dict | None:
        final = os.path.join(self.path, _MANIFEST)
        if not os.path.exists(final):
            return None
        with open(final, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- open / recovery ------------------------------------------------

    def open(self, catalog: "Catalog") -> int:
        """Attach checkpoint state and replay the WAL into *catalog*.

        Returns the number of replayed transactions (0 on a fresh or
        cleanly closed database).
        """
        self.catalog = catalog
        manifest = self._manifest_cache
        self._manifest_cache = None
        if manifest is not None:
            self._attach_manifest(manifest, catalog)
        replayed = self._replay_wal()
        if replayed:
            # Fold the replayed tail into a fresh checkpoint so a second
            # crash cannot have to replay on top of replay.
            self.checkpoint()
        return replayed

    def _attach_manifest(self, manifest: dict,
                         catalog: "Catalog") -> None:
        from repro.minidb.schema import Column, TableSchema
        from repro.minidb.table import Table
        from repro.minidb.types import SqlType

        self.epoch = manifest["epoch"]
        self.manifest_epoch = manifest["epoch"]
        self.next_page_id = manifest["next_page_id"]
        self._free_now = list(manifest["free_pages"])
        self._retired = []
        # Older manifests may carry a ``zones`` map: it is ignored, and
        # the next checkpoint's manifest omits it.
        live: set[int] = set()
        for name, entry in manifest["tables"].items():
            schema = TableSchema(
                Column(column, SqlType(type_value))
                for column, type_value in entry["schema"])
            table = Table(name, schema, storage=self)
            table.rows = DiskRowStore(
                self, name,
                [(page_id, count)
                 for page_id, count in entry["heap_pages"]])
            live.update(table.rows.page_ids)
            for index_name, spec in entry["indexes"].items():
                tree = DiskBTree(self, root=spec["root"],
                                 entry_count=spec["count"],
                                 next_seq=spec["seq"],
                                 pages=spec["pages"])
                table.indexes[index_name] = BTreeBackedIndex(
                    index_name, spec["column"], tree)
                live.update(tree.pages)
            catalog.attach(table)
        self.manifest_pages = live

    def _replay_wal(self) -> int:
        assert self.catalog is not None
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
        return replayed

    def _apply(self, record: walmod.WalRecord) -> None:
        from repro.minidb.schema import Column, TableSchema
        from repro.minidb.types import SqlType

        catalog = self.catalog
        assert catalog is not None
        if record.op == walmod.OP_CREATE_TABLE:
            catalog.create_table(record.table, TableSchema(
                Column(column, SqlType(type_value))
                for column, type_value in record.schema_pairs))
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
        """Abandon all state exactly as a power cut would leave it.

        The files keep whatever the protocol managed to write; nothing
        is flushed, synced, or checkpointed on the way out — marking the
        storage dead stops ``Database.__del__`` from tidying up and
        accidentally "un-crashing" the scenario.
        """
        self.dead = True
        self.pager.abandon()
        self.wal.close()  # close() never fsyncs: the log stays as cut

    def close(self) -> None:
        """Checkpoint and release; deletes the directory if temp-owned.

        Safe on any state: a partially constructed instance (pager or
        WAL never created), a never-opened one (no catalog attached —
        checkpointing is skipped, nothing to persist), a crashed one,
        and repeated calls are all no-ops for the missing pieces.
        """
        pager, wal = self.pager, self.wal
        if self.dead or pager is None or pager.closed:
            return
        self.checkpoint()
        pager.close(sync=self.sync)
        if wal is not None:
            wal.close()
        if self.owns_dir:
            shutil.rmtree(self.path, ignore_errors=True)

    @property
    def counters(self) -> dict[str, int]:
        """Storage work counters (pool, WAL, checkpoints) for metrics."""
        pager = self.pager
        return {
            "pages_read": pager.pages_read,
            "pages_written": pager.pages_written,
            "pages_evicted": pager.pages_evicted,
            "buffer_hits": pager.hits,
            "buffer_misses": pager.misses,
            "peak_resident": pager.peak_resident,
            "overflow_events": pager.overflow_events,
            "wal_bytes": self.wal.bytes_written,
            "wal_commits": self.wal.commits,
            "wal_syncs": self.wal.syncs,
            "checkpoints": self.checkpoints,
            "compactions": self.compactions,
            "pages_moved": self.pages_moved,
            "pages_decoded": self.pages_decoded,
            "accounting_rebuilds": self.accounting_rebuilds,
            # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
            "pages_pruned": 0,
            # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
            "prefetch_hits": 0,
            # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
            "prefetch_wasted": 0,
            # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
            "group_syncs": 0,
        }
