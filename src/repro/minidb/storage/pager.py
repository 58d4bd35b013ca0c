"""The pager: one data file of fixed-size pages behind a buffer pool.

The pool is the memory-bounded regime the paper ran its experiments in
(DB2 with a 160 MB bufferpool over ~1 GB of case reads): at most
``REPRO_BUFFER_PAGES`` pages are resident at once, whatever the table
size. Each resident page is a :class:`Frame` holding the *decoded* node
object (a heap page's rows); encoding back to the slotted byte
format happens only when a dirty frame is flushed.

Eviction is LRU over unpinned frames. Pin counts protect frames across
multi-step operations (an append pins the tail page it is filling); if
every frame is pinned the pool admits a temporary overflow frame rather
than deadlocking, and counts the event so tests can assert it never
happens in practice.

Writes go through ``os.pwrite`` on a raw file descriptor — no user-space
buffering, so the bytes the crash-recovery rig sees on "power cut" are
exactly the bytes the protocol ordered written. Reads use ``os.pread``,
which leaves the descriptor offset untouched.

The pager knows nothing about allocation or manifests: the storage
backend decides page ids; the pager just reads, caches, and writes them.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.errors import StorageError
from repro.knobs import int_knob
from repro.minidb.storage import faults
from repro.minidb.storage.page import decode_page, encode_page

__all__ = ["DEFAULT_BUFFER_PAGES", "Frame", "Pager",
           "configured_buffer_pages"]

#: Default pool capacity: 256 pages (1 MiB at the default page size).
DEFAULT_BUFFER_PAGES = 256


def configured_buffer_pages() -> int:
    """Pool capacity from ``REPRO_BUFFER_PAGES`` (min 4)."""
    return int_knob("REPRO_BUFFER_PAGES", DEFAULT_BUFFER_PAGES, 4)


class Frame:
    """One resident page: its decoded node, dirty flag, and pin count."""

    __slots__ = ("page_id", "node", "dirty", "pins")

    def __init__(self, page_id: int, node: Any, dirty: bool) -> None:
        self.page_id = page_id
        self.node = node
        self.dirty = dirty
        self.pins = 0


class Pager:
    """Fixed-size-page file I/O behind a bounded LRU buffer pool.

    *decode_node* maps ``(kind, cells)`` from a raw page to the decoded
    node object; node objects must offer ``encode_cells()`` returning
    ``(kind, cells)`` for the reverse direction.
    """

    # 0 stub: only bench/ reads it; the [benchmark] PR deletes it
    readahead = 0

    def __init__(self, path: str, page_size: int, capacity: int,
                 decode_node: Callable[[int, list[bytes]], Any]) -> None:
        self.path = path
        self.page_size = page_size
        self.capacity = max(1, capacity)
        self._decode_node = decode_node
        self._fd: int | None = os.open(path, os.O_RDWR | os.O_CREAT,
                                       0o644)
        # Insertion order doubles as LRU order: re-inserting on access
        # moves a frame to the back; eviction scans from the front.
        self._frames: dict[int, Frame] = {}
        self.pages_read = 0
        self.pages_written = 0
        self.pages_evicted = 0
        self.hits = 0
        self.misses = 0
        self.peak_resident = 0
        self.overflow_events = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._fd is None

    def close(self, sync: bool = True) -> None:
        """Flush nothing, drop every frame and close the descriptor
        (callers flush first)."""
        if self._fd is None:
            return
        if sync:
            os.fsync(self._fd)
        os.close(self._fd)
        self._fd = None
        self._frames.clear()

    def abandon(self) -> None:
        """Simulated power cut: drop every frame and close unsynced."""
        self._frames.clear()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _require_fd(self) -> int:
        if self._fd is None:
            raise StorageError("pager is closed")
        return self._fd

    # -- page access ----------------------------------------------------

    def fetch(self, page_id: int) -> Any:
        """The decoded node for *page_id*, reading it if not resident."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.hits += 1
            self._touch(frame)
            return frame.node
        self.misses += 1
        fd = self._require_fd()
        data = os.pread(fd, self.page_size, page_id * self.page_size)
        if len(data) != self.page_size:
            raise StorageError(
                f"short read of page {page_id} "
                f"({len(data)}/{self.page_size} bytes)")
        kind, cells = decode_page(data)
        node = self._decode_node(kind, cells)
        self.pages_read += 1
        self._admit(Frame(page_id, node, dirty=False))
        return node

    def adopt(self, page_id: int, node: Any) -> None:
        """Register a freshly created page as a resident dirty frame."""
        if page_id in self._frames:
            raise StorageError(f"page {page_id} already resident")
        self._admit(Frame(page_id, node, dirty=True))

    def mark_dirty(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None:
            raise StorageError(
                f"cannot dirty non-resident page {page_id}")
        frame.dirty = True

    def pin(self, page_id: int) -> None:
        """Forbid eviction of *page_id* until :meth:`unpin`."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise StorageError(f"cannot pin non-resident page {page_id}")
        frame.pins += 1

    def unpin(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None or frame.pins <= 0:
            raise StorageError(f"unbalanced unpin of page {page_id}")
        frame.pins -= 1

    def discard(self, page_id: int) -> None:
        """Drop a frame without flushing (the page was freed)."""
        self._frames.pop(page_id, None)

    def truncate(self, page_count: int) -> None:
        """Shrink the data file to *page_count* pages (compaction tail).

        Never grows the file.
        """
        fd = self._require_fd()
        target = page_count * self.page_size
        if os.fstat(fd).st_size > target:
            os.ftruncate(fd, target)

    @property
    def resident(self) -> int:
        return len(self._frames)

    def resident_ids(self) -> list[int]:
        return list(self._frames)

    # -- flushing -------------------------------------------------------

    def _write_frame(self, frame: Frame) -> None:
        fd = self._require_fd()
        data = encode_page(*self._node_image(frame.node), self.page_size)
        offset = frame.page_id * self.page_size
        if faults.torn_point("page-torn"):
            os.pwrite(fd, data[:self.page_size // 2], offset)
            raise faults.InjectedCrash("page-torn")
        os.pwrite(fd, data, offset)
        faults.crash_point("page-flush")
        self.pages_written += 1
        frame.dirty = False

    @staticmethod
    def _node_image(node: Any) -> tuple[int, list[bytes]]:
        kind, cells = node.encode_cells()
        return kind, cells

    def flush(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self._write_frame(frame)

    def flush_all(self, sync: bool = True) -> None:
        """Write every dirty frame; optionally fsync the file."""
        for frame in list(self._frames.values()):
            if frame.dirty:
                self._write_frame(frame)
        if sync:
            os.fsync(self._require_fd())

    # -- eviction -------------------------------------------------------

    def _touch(self, frame: Frame) -> None:
        # dict preserves insertion order; delete + reinsert = move to MRU.
        del self._frames[frame.page_id]
        self._frames[frame.page_id] = frame

    def _admit(self, frame: Frame) -> None:
        while len(self._frames) >= self.capacity:
            if not self._evict_one():
                # Every frame pinned: admit over capacity rather than
                # deadlock; tests assert this never actually triggers.
                self.overflow_events += 1
                break
        self._frames[frame.page_id] = frame
        self.peak_resident = max(self.peak_resident, len(self._frames))

    def _evict_one(self) -> bool:
        for page_id, frame in self._frames.items():
            if frame.pins == 0:
                if frame.dirty:
                    self._write_frame(frame)
                del self._frames[page_id]
                self.pages_evicted += 1
                return True
        return False
